"""Resource backends: provisioning, release, and simulated QPU execution.

Three backend kinds are modeled, and one `ResourceBackend` serves them
all: a pilot's kind lives on its description and on the allocation granted
for it, never on the backend. `local` grants resources immediately;
`batch_sim` and `qpu_sim` sample a startup queue delay (base +- jitter,
deterministic per the pilot description's seed) before the allocation
becomes usable. Releasing the same allocation twice raises DoubleRelease.

The granted `PilotAllocation` is the one runtime record of a pilot: the
agent runs on it and decides from it which tasks fit, and `qpu_execute`
accepts only a qpu_sim allocation and reads its queue model.

Task execution is shared with the agents. `run_timed` is the one timing
policy: it sleeps the pilot's modelled per-task latency on the clock, then
runs the work and reports exec_s = latency + the host's wall time for the
work, so exec_s also grows with the circuit's size and with CPU contention
on the host. `simulate_readout` is the one circuit path: run the circuit on
the built-in simulator, then sample counts, take an expectation value or
take the output probabilities. A classical pilot's agent calls both
directly; qpu_execute calls them after sleeping a queue wait drawn from
the allocation's queue model, and reports that wait separately.

The host's `os.cpu_count()` cores are one budget for the whole Python
process, over every pilot. A simulation holds a core while it runs and
reads out, and so does a registered function that pickles by reference (a
module-level function of an importable module other than `__main__`),
which runs in that core's host worker process so the workers' Python code
stops taking turns on one interpreter lock; the two kinds compete for the
same cores and never compute on more of them at once. Cores are admitted
first come first served: a release hands its core straight to the oldest
waiter, so a worker that comes back for its next task cannot overtake a
task already waiting. Worker threads beyond the cores would otherwise run
in lockstep, each one's numpy calls handing the GIL to the others', and
every task would take about as long as the whole batch. The wait for a
core is part of exec_s: it is the host contention named above, now spent
queueing rather than interleaved. Any other function (a lambda, a closure,
a bound method, a `__main__` function) runs in the calling worker thread,
and so does circuit simulation, although on a 2-vCPU host a 2-thread batch
of depth-10 circuits ran faster through host processes at 12 qubits (190
against 537 ms) and 8 qubits (297 against 597 ms), and slower only at 4
(256 against 120 ms); ROADMAP item 16 decides where simulation runs.

Each core owns at most one host process, touched only by the core's
holder, started at its first call and replaced once it has exited. It is
exec'd as `python -c`, never forked from the threaded parent
(multiprocessing's spawn and forkserver methods would also start a
resource tracker process, which can outlive the interpreter): the command
writes the parent's `sys.path` in place (a relative entry resolved against
the cwd at import of this module) and calls `serve_host_requests`, which
ignores SIGINT, so a Ctrl-C stops the parent only. Both ends of the pipe
live here: requests and replies travel over two pipes as
`multiprocessing.connection.Connection` messages, imported only where a
host process starts or serves. A request is a pickled `(fn, args, kwargs)`,
answered before the next is read with `(True, result)` or
`(False, exception, "Type: message")`; the exception is None if it does
not survive a pickle round trip, and the parent raises
`RuntimeError("Type: message")` instead. The function's module is imported
inside the call, so a function that cannot be loaded fails its task, not
the process; it sees pickled copies of its arguments, and what it changes
in its module stays there. Its prints go to the inherited stdout, flushed
after each call, never into the messages. A process that exits mid-call
fails only that call, with HostProcessExited naming the exit status and,
for one that could not import its loop (it sends `(None, "Type: message")`
from the boot command), that error. A process ends at the end of its
request stream (`EOFError` or `OSError`): at exit the parent closes each
core's pipes and waits for its process, killing it after a grace period,
and a parent that dies has its ends closed by the operating system.
"""

from __future__ import annotations

import atexit
import collections
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import types
from contextlib import contextmanager, suppress
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


_EXIT_GRACE_S = 1.0
# A relative sys.path entry names a directory under the cwd the entry was
# added from; a host process starts after the caller may have changed it.
_IMPORT_CWD = os.getcwd()
# Run after the parent's sys.path is in place; the traceback of a failed
# import also goes to stderr.
_BOOT = """
try:
    from pilotq.backends import serve_host_requests
except BaseException as exc:
    from multiprocessing.connection import Connection
    Connection(int(sys.argv[2]), readable=False).send((None, f"{type(exc).__name__}: {exc}"))
    raise
serve_host_requests()
"""


def _portable(exc: Exception) -> bytes | None:
    """`exc` pickled, or None if it does not come back out of a pickle."""
    try:
        data = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
    except Exception:
        return None
    return data


def _answer(request: bytes) -> bytes:
    try:
        fn, args, kwargs = pickle.loads(request)
        return pickle.dumps((True, fn(*args, **kwargs)), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # the call's failure belongs to its task, not to this process
        return pickle.dumps(
            (False, _portable(exc), f"{type(exc).__name__}: {exc}"), pickle.HIGHEST_PROTOCOL
        )
    finally:
        sys.stdout.flush()


def serve_host_requests() -> None:
    """A host process's loop: read requests from pipe fd argv[1] and write
    each one's reply to pipe fd argv[2], until the request stream ends."""
    from multiprocessing.connection import Connection

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests_fd, replies_fd = (int(arg) for arg in sys.argv[1:3])
    requests = Connection(requests_fd, writable=False)
    replies = Connection(replies_fd, readable=False)
    # a reply stream ends too once the parent, its reader, is gone
    with suppress(EOFError, OSError), requests, replies:
        while True:
            replies.send_bytes(_answer(requests.recv_bytes()))


class _HostProcess:
    """One exec'd host worker process, started with the parent's `sys.path`,
    and the two pipes its messages travel on, used by one caller at a time."""

    def __init__(self):
        from multiprocessing.connection import Connection

        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        path = [os.path.join(_IMPORT_CWD, entry) for entry in sys.path]
        boot = f"import sys; sys.path[:] = {path!r}" + _BOOT
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", boot, str(requests_r), str(replies_w)],
                stdin=subprocess.DEVNULL,
                pass_fds=(requests_r, replies_w),
            )
        except BaseException:
            os.close(requests_w)
            os.close(replies_r)
            raise
        finally:
            os.close(requests_r)
            os.close(replies_w)
        self._requests = Connection(requests_w, readable=False)
        self._replies = Connection(replies_r, writable=False)

    def call(self, fn, args, kwargs):
        request = pickle.dumps((fn, args, kwargs), pickle.HIGHEST_PROTOCOL)
        with suppress(BrokenPipeError):  # a process that failed to start has still sent why
            self._requests.send_bytes(request)
        try:
            reply = self._replies.recv_bytes()
        except (EOFError, OSError):  # the reply stream ended, whole or torn
            reply = None
        ok, *outcome = (None, "") if reply is None else pickle.loads(reply)
        if ok is None:  # the process is gone, with its start-up error if it never ran
            self.close()
            cause = f": {outcome[0]}" if outcome[0] else ""
            raise HostProcessExited(
                f"host worker process {self.proc.pid} exited with status "
                f"{self.proc.returncode} while running {fn.__module__}.{fn.__qualname__}{cause}"
            )
        if ok:
            return outcome[0]
        exc, text = outcome
        raise pickle.loads(exc) if exc is not None else RuntimeError(text)

    def close(self) -> None:
        """End the request stream, wait for the process to exit (killing it
        after a grace period), then close the reply stream."""
        self._requests.close()
        try:
            self.proc.wait(_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._replies.close()


class _HostCores:
    """The host's `cores` cores, each held with `held()`, admitted first come
    first served: a release hands its core straight to the oldest waiter.
    Each core owns at most one host process, which only its holder touches."""

    def __init__(self, cores: int):
        self._lock = threading.Lock()
        self._free = list(range(cores))
        self._waiters: collections.deque[threading.Event] = collections.deque()
        self._processes: list[_HostProcess | None] = [None] * cores

    @contextmanager
    def held(self):
        """Hold one core for the block; yields its index."""
        with self._lock:
            turn = None
            if self._free and not self._waiters:
                core = self._free.pop()
            else:
                turn = threading.Event()  # set once a release has written turn.core
                self._waiters.append(turn)
        if turn is not None:
            turn.wait()
            core = turn.core
        try:
            yield core
        finally:
            with self._lock:
                if self._waiters:
                    turn = self._waiters.popleft()
                    turn.core = core
                    turn.set()
                else:
                    self._free.append(core)

    def call(self, fn, args, kwargs):
        """Call `fn` in the host process of a held core, started on the core's
        first call and replaced once it has exited."""
        with self.held() as core:
            child = self._processes[core]
            if child is None or child.proc.poll() is not None:
                if child is not None:
                    child.close()
                child = self._processes[core] = _HostProcess()
            return child.call(fn, args, kwargs)

    def close(self) -> None:
        for child in self._processes:
            if child is not None:
                child.close()


_HOST_CORES = _HostCores(os.cpu_count() or 1)
atexit.register(_HOST_CORES.close)


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
        return _HOST_CORES.call(fn, args, kwargs)
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
    with _HOST_CORES.held():
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
    """One provisioning service for every backend kind: it grants each
    description the allocation its kind asks for, tracks the live ones and
    runs qpu_sim tasks. Thread-safe."""

    def __init__(self, *, clock: Clock | None = None):
        self.clock = clock or WallClock()
        self._lock = threading.Lock()
        self._live: dict[int, PilotAllocation] = {}

    def provision(self, desc: PilotDescription) -> PilotAllocation:
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
        if alloc.backend_kind is not BackendKind.QPU_SIM:
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
