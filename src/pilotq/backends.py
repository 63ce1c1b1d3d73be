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
rather than interleaved. Registered functions are not admitted this way.
"""

from __future__ import annotations

import collections
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from pilotq.clock import Clock, WallClock
from pilotq.codec import JsonRecord
from pilotq.errors import DoubleRelease, QubitCapacityExceeded, ValidationError
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
