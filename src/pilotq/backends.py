"""Resource backends: provisioning, release, and simulated QPU execution.

Three backend kinds are modeled. `local` grants resources immediately;
`batch_sim` and `qpu_sim` sample a startup queue delay (base +- jitter,
deterministic per the pilot description's seed) before the allocation
becomes usable. Releasing the same allocation twice raises DoubleRelease.

The granted `PilotAllocation` is the one runtime record of a pilot: the
agent runs on it, the manager's placement reads its shape, and
`qpu_execute` reads its queue model.

Task execution is shared with the agents. `run_timed` is the one timing
policy: it sleeps the pilot's modelled per-task latency on the clock, then
runs the work and reports exec_s = latency + the host's wall time for the
work, so exec_s also grows with the circuit's size and with CPU contention
on the host. `simulate_readout` is the one circuit path: run the circuit on
the built-in simulator, then sample counts, take an expectation value or
take the output probabilities. A classical pilot's agent calls both
directly; qpu_execute calls them after sleeping a queue wait drawn from
the allocation's queue model, and reports that wait separately.

At most `os.cpu_count()` simulations run at once across the process, over
every pilot, admitted first come first served: a finished simulation
hands its core straight to the oldest waiting one, so a worker that comes
back for its next task cannot overtake a task already waiting. Worker
threads beyond the cores would otherwise run their simulations in
lockstep, each one's numpy calls handing the GIL to the others', and every
one would take about as long as the whole batch. The wait for a core is
part of exec_s: it is the host contention named above, now spent queueing
rather than interleaved.

A registered function that pickles by reference (a module-level function of
an importable module other than `__main__`) runs in a host worker process,
so the workers' Python code stops taking turns on one interpreter lock.
There are at most `os.cpu_count()` such processes for the whole Python
process, over every pilot, admitted first come first served like the
simulations. Each is exec'd as `python -m pilotq.hostproc` with the
parent's `sys.path`, never forked from the threaded parent, and started at
the first call that finds no idle one. (multiprocessing's spawn and
forkserver methods would also start a resource tracker process, which can
outlive the interpreter.) A function run there does not share
the caller's memory: its arguments and result are pickled copies, and what
it changes in its module stays in that process. Its exception comes back
with the same type and message; a process that exits mid-call fails only
that call, with HostProcessExited naming the exit status, and the next call
starts a replacement. At exit the parent closes its pipes and waits for
every process; a parent that dies closes them too, and each process ends
at the end of its request stream. Any other function (a lambda, a closure,
a bound method, a `__main__` function) runs in the calling worker thread.
Circuit simulation always runs in-thread: a simulation task is too short to
pay for the round trip.
"""

from __future__ import annotations

import atexit
import collections
import os
import pickle
import struct
import subprocess
import sys
import threading
import time
import types
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from pilotq.clock import Clock, WallClock
from pilotq.codec import JsonRecord
from pilotq.errors import DoubleRelease, HostProcessExited, QubitCapacityExceeded, ValidationError
from pilotq.model import BackendKind, PilotDescription, QueueModel, TaskResult
from pilotq.qsim.circuit import Circuit, PauliObservable
from pilotq.qsim.simulate import expectation, probabilities, run_circuit, sample


@dataclass(frozen=True)
class PilotAllocation(JsonRecord):
    pilot_name: str
    backend_kind: BackendKind
    total_cores: int
    total_gpus: int
    qpu_qubits: int
    granted_at_s: float
    expires_at_s: float
    queue_model: QueueModel

    def __post_init__(self):
        object.__setattr__(self, "backend_kind", BackendKind(self.backend_kind))


def run_timed(clock: Clock, latency_s: float, work, /, *args, **kwargs):
    """Sleep the modelled latency, then call work(*args, **kwargs); returns
    (its result, exec_s)."""
    clock.sleep(latency_s)
    t0 = time.perf_counter()
    out = work(*args, **kwargs)
    return out, latency_s + (time.perf_counter() - t0)


class _CoreQueue:
    """A counting gate of `cores` slots, held with `with`, admitted first come
    first served: a release passes its slot straight to the oldest waiter."""

    def __init__(self, cores: int):
        self._lock = threading.Lock()
        self._free = cores
        self._waiters: collections.deque[threading.Event] = collections.deque()

    def __enter__(self):
        with self._lock:
            if self._free and not self._waiters:
                self._free -= 1
                return self
            turn = threading.Event()
            self._waiters.append(turn)
        turn.wait()
        return self

    def __exit__(self, *exc):
        with self._lock:
            if self._waiters:
                self._waiters.popleft().set()
            else:
                self._free += 1


_SIMULATION_CORES = _CoreQueue(os.cpu_count() or 1)

# The directory holding the pilotq package: a host process imports
# pilotq.hostproc from here, not from its working directory
# (PYTHONSAFEPATH), before it takes over the parent's sys.path.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_EXIT_GRACE_S = 1.0
_LENGTH = struct.Struct("<Q")  # a frame is its byte count, then that many bytes


def write_frame(stream, data: bytes) -> None:
    """Write one length-prefixed frame and flush it."""
    stream.write(_LENGTH.pack(len(data)))
    stream.write(data)
    stream.flush()


def read_frame(stream) -> bytes | None:
    """The next frame's bytes; None at the end of the stream, whole or torn."""
    head = stream.read(_LENGTH.size)
    if len(head) < _LENGTH.size:
        return None
    (size,) = _LENGTH.unpack(head)
    data = stream.read(size)
    return data if len(data) == size else None


class _HostProcess:
    """One exec'd `python -m pilotq.hostproc` and the two pipes its frames
    travel on, used by one caller at a time."""

    def __init__(self):
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "pilotq.hostproc", str(requests_r), str(replies_w)],
                stdin=subprocess.DEVNULL,
                pass_fds=(requests_r, replies_w),
                env=dict(os.environ, PYTHONPATH=_PACKAGE_ROOT, PYTHONSAFEPATH="1"),
            )
        except BaseException:
            os.close(requests_w)
            os.close(replies_r)
            raise
        finally:
            os.close(requests_r)
            os.close(replies_w)
        self._requests = os.fdopen(requests_w, "wb")
        self._replies = os.fdopen(replies_r, "rb")
        with suppress(BrokenPipeError):  # a child that died at start fails its first call
            write_frame(self._requests, pickle.dumps(sys.path))

    def call(self, fn, args, kwargs):
        request = pickle.dumps((fn, args, kwargs), pickle.HIGHEST_PROTOCOL)
        try:
            write_frame(self._requests, request)
            reply = read_frame(self._replies)
        except BrokenPipeError:
            reply = None
        if reply is None:
            self.close()
            raise HostProcessExited(
                f"host worker process {self.proc.pid} exited with status "
                f"{self.proc.returncode} while running {fn.__module__}.{fn.__qualname__}"
            )
        ok, *outcome = pickle.loads(reply)
        if ok:
            return outcome[0]
        exc, text = outcome
        raise pickle.loads(exc) if exc is not None else RuntimeError(text)

    def close(self) -> None:
        """End the request stream, wait for the process to exit (killing it
        after a grace period), then close the reply stream."""
        with suppress(OSError):
            self._requests.close()
        try:
            self.proc.wait(_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._replies.close()


class _HostPool:
    """At most `size` host processes, admitted first come first served, each
    started when a call finds none idle."""

    def __init__(self, size: int):
        self._gate = _CoreQueue(size)
        self._lock = threading.Lock()
        self._idle: list[_HostProcess] = []
        self._live: set[_HostProcess] = set()

    def call(self, fn, args, kwargs):
        with self._gate:
            with self._lock:
                child = self._idle.pop() if self._idle else None
            if child is None:
                child = _HostProcess()
                with self._lock:
                    self._live.add(child)
            try:
                return child.call(fn, args, kwargs)
            finally:
                with self._lock:
                    if child.proc.returncode is None:
                        self._idle.append(child)
                    else:
                        self._live.discard(child)

    def close(self) -> None:
        with self._lock:
            children, self._live, self._idle = list(self._live), set(), []
        for child in children:
            child.close()


_HOST_PROCESSES = _HostPool(os.cpu_count() or 1)
atexit.register(_HOST_PROCESSES.close)


def _pickles_by_reference(fn) -> bool:
    """A module-level function of an importable module other than __main__:
    pickle sends its module and name, and a host process imports it."""
    if not isinstance(fn, types.FunctionType) or fn.__qualname__ != fn.__name__:
        return False
    module = sys.modules.get(fn.__module__)
    return (
        fn.__module__ != "__main__"
        and getattr(module, "__spec__", None) is not None
        and getattr(module, fn.__name__, None) is fn
    )


def run_registered(fn, /, *args, **kwargs):
    """Call a registered function: in a host worker process when it pickles
    by reference, else in the calling thread."""
    if _pickles_by_reference(fn):
        return _HOST_PROCESSES.call(fn, args, kwargs)
    return fn(*args, **kwargs)


def simulate_readout(
    circuit: Circuit,
    shots: int,
    seed: int,
    observable: PauliObservable | None = None,
) -> TaskResult:
    """Simulate under the simulator's default memory cap, then read out: the
    expectation of `observable` if given, else `shots` sampled counts
    (seeded), else exact probabilities. Waits first for a core."""
    with _SIMULATION_CORES:
        state = run_circuit(circuit)
        if observable is not None:
            return TaskResult(value=expectation(state, observable))
        if shots > 0:
            return TaskResult(counts=sample(state, shots, seed))
        return TaskResult(probabilities=tuple(float(p) for p in probabilities(state)))


def _queue_delay(qm: QueueModel, seed: int) -> float:
    """base +- jitter (uniform, deterministic per seed), never below 0."""
    delay = qm.base_delay_s
    if qm.jitter_s > 0:
        rng = np.random.default_rng(seed)
        delay += float(rng.uniform(-qm.jitter_s, qm.jitter_s))
    return max(0.0, delay)


def startup_delay(desc: PilotDescription) -> float:
    """Deterministic queue delay for this description (0 for local)."""
    if desc.backend_kind is BackendKind.LOCAL:
        return 0.0
    return _queue_delay(desc.queue_model, desc.seed)


class ResourceBackend:
    """One backend kind's provisioning bookkeeping. Thread-safe."""

    def __init__(self, kind: BackendKind, *, clock: Clock | None = None):
        self.kind = BackendKind(kind)
        self.clock = clock or WallClock()
        self._lock = threading.Lock()
        self._live: dict[int, PilotAllocation] = {}

    def provision(self, desc: PilotDescription) -> PilotAllocation:
        if desc.backend_kind is not self.kind:
            raise ValidationError(f"{self.kind.value} backend got a {desc.backend_kind.value} description")
        granted_at = self.clock.now() + startup_delay(desc)
        alloc = PilotAllocation(
            pilot_name=desc.name,
            backend_kind=desc.backend_kind,
            total_cores=desc.total_cores,
            total_gpus=desc.total_gpus,
            qpu_qubits=desc.qpu_qubits,
            granted_at_s=granted_at,
            expires_at_s=granted_at + desc.walltime_s,
            queue_model=desc.queue_model,
        )
        with self._lock:
            self._live[id(alloc)] = alloc
        return alloc

    def release(self, alloc: PilotAllocation) -> None:
        with self._lock:
            if self._live.pop(id(alloc), None) is None:
                raise DoubleRelease(f"allocation for {alloc.pilot_name} already released")

    def live_allocations(self) -> list[PilotAllocation]:
        with self._lock:
            return list(self._live.values())

    def qpu_execute(
        self, circuit: Circuit, shots: int, alloc: PilotAllocation, rng_seed: int
    ) -> TaskResult:
        """Sample `shots` measurements, pacing per the allocation's queue model."""
        if self.kind is not BackendKind.QPU_SIM or alloc.backend_kind is not BackendKind.QPU_SIM:
            raise ValidationError("qpu_execute is only available on qpu_sim allocations")
        if shots < 1:
            raise ValidationError("qpu_execute needs shots >= 1")
        if circuit.num_qubits > alloc.qpu_qubits:
            raise QubitCapacityExceeded(
                f"circuit needs {circuit.num_qubits} qubits, QPU has {alloc.qpu_qubits}"
            )
        queue_wait = _queue_delay(alloc.queue_model, rng_seed)
        self.clock.sleep(queue_wait)
        result, exec_s = run_timed(
            self.clock, alloc.queue_model.per_task_latency_s, simulate_readout,
            circuit, shots, rng_seed,
        )
        return TaskResult(counts=result.counts, queue_wait_s=queue_wait, exec_s=exec_s)


def make_backends(*, clock: Clock | None = None) -> dict[BackendKind, ResourceBackend]:
    return {kind: ResourceBackend(kind, clock=clock) for kind in BackendKind}
