"""Resource backends: provisioning, release, and simulated QPU execution.

Three backend kinds are modeled. `local` grants resources immediately;
`batch_sim` and `qpu_sim` sample a startup queue delay (base +- jitter,
deterministic per the pilot description's seed) before the allocation
becomes usable. Per-backend capacity ceilings are optional; exceeding one
raises CapacityError. Releasing the same allocation twice raises
DoubleRelease.

Task execution is shared with the agents. `run_timed` is the one timing
policy: it sleeps the pilot's modelled per-task latency on the clock, then
runs the work and reports exec_s = latency + the host's wall time for the
work, so exec_s also grows with the circuit's size and with CPU contention
on the host. `simulate_readout` is the one circuit path: run the circuit on
the built-in simulator, then sample counts, take an expectation value or
take the output probabilities. A classical pilot's agent calls both
directly; qpu_execute calls them after sleeping a queue wait drawn from
the pilot's queue model, and reports that wait separately.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from pilotq.clock import Clock, WallClock
from pilotq.codec import JsonRecord
from pilotq.errors import (
    CapacityError,
    DoubleRelease,
    QubitCapacityExceeded,
    ValidationError,
)
from pilotq.model import (
    BackendKind,
    PilotDescription,
    TaskResult,
    validate_pilot_description,
)
from pilotq.qsim.circuit import Circuit, PauliObservable
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    expectation,
    probabilities,
    run_circuit,
    sample,
)


@dataclass(frozen=True)
class PilotAllocation(JsonRecord):
    pilot_name: str
    backend_kind: BackendKind
    total_cores: int
    total_gpus: int
    qpu_qubits: int
    granted_at_s: float
    expires_at_s: float

    def __post_init__(self):
        object.__setattr__(self, "backend_kind", BackendKind(self.backend_kind))


@dataclass(frozen=True)
class QpuExecutionReport(JsonRecord):
    counts: dict[str, int]
    queue_wait_s: float
    exec_s: float


@dataclass(frozen=True)
class BackendCeilings:
    """Optional backend-wide limits on concurrently granted resources."""

    max_cores: int | None = None
    max_gpus: int | None = None
    max_pilots: int | None = None


def run_timed(clock: Clock, latency_s: float, work, /, *args, **kwargs):
    """Sleep the modelled latency, then call work(*args, **kwargs); returns
    (its result, exec_s)."""
    clock.sleep(latency_s)
    t0 = time.perf_counter()
    out = work(*args, **kwargs)
    return out, latency_s + (time.perf_counter() - t0)


def simulate_readout(
    circuit: Circuit,
    shots: int,
    seed: int,
    observable: PauliObservable | None = None,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> TaskResult:
    """Simulate, then read out: the expectation of `observable` if given,
    else `shots` sampled counts (seeded), else exact probabilities."""
    state = run_circuit(circuit, memory_cap_bytes=memory_cap_bytes)
    if observable is not None:
        return TaskResult(value=expectation(state, observable))
    if shots > 0:
        return TaskResult(counts=sample(state, shots, seed))
    return TaskResult(probabilities=tuple(float(p) for p in probabilities(state)))


def startup_delay(desc: PilotDescription) -> float:
    """Deterministic queue delay for this description (0 for local)."""
    if desc.backend_kind is BackendKind.LOCAL:
        return 0.0
    qm = desc.queue_model
    delay = qm.base_delay_s
    if qm.jitter_s > 0:
        rng = np.random.default_rng(desc.seed)
        delay += float(rng.uniform(-qm.jitter_s, qm.jitter_s))
    return max(0.0, delay)


class ResourceBackend:
    """One backend kind's provisioning bookkeeping. Thread-safe."""

    def __init__(
        self,
        kind: BackendKind,
        ceilings: BackendCeilings | None = None,
        *,
        clock: Clock | None = None,
        memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
    ):
        self.kind = BackendKind(kind)
        self.ceilings = ceilings or BackendCeilings()
        self.clock = clock or WallClock()
        self.memory_cap_bytes = memory_cap_bytes
        self._lock = threading.Lock()
        self._live: dict[int, PilotAllocation] = {}
        self._live_desc: dict[int, PilotDescription] = {}
        self._granted_cores = 0
        self._granted_gpus = 0

    def provision(self, desc: PilotDescription, clock: Clock | None = None) -> PilotAllocation:
        validate_pilot_description(desc)
        if desc.backend_kind is not self.kind:
            raise ValidationError(f"{self.kind.value} backend got a {desc.backend_kind.value} description")
        clock = clock or self.clock
        cores, gpus = desc.total_cores, desc.total_gpus
        with self._lock:
            c = self.ceilings
            if c.max_pilots is not None and len(self._live) + 1 > c.max_pilots:
                raise CapacityError(f"{self.kind.value}: pilot ceiling {c.max_pilots} reached")
            if c.max_cores is not None and self._granted_cores + cores > c.max_cores:
                raise CapacityError(
                    f"{self.kind.value}: core ceiling {c.max_cores} would be exceeded"
                )
            if c.max_gpus is not None and self._granted_gpus + gpus > c.max_gpus:
                raise CapacityError(f"{self.kind.value}: gpu ceiling {c.max_gpus} would be exceeded")
            granted_at = clock.now() + startup_delay(desc)
            alloc = PilotAllocation(
                pilot_name=desc.name,
                backend_kind=desc.backend_kind,
                total_cores=cores,
                total_gpus=gpus,
                qpu_qubits=desc.qpu_qubits,
                granted_at_s=granted_at,
                expires_at_s=granted_at + desc.walltime_s,
            )
            self._live[id(alloc)] = alloc
            self._live_desc[id(alloc)] = desc
            self._granted_cores += cores
            self._granted_gpus += gpus
            return alloc

    def release(self, alloc: PilotAllocation) -> None:
        with self._lock:
            if id(alloc) not in self._live:
                raise DoubleRelease(f"allocation for {alloc.pilot_name} already released")
            del self._live[id(alloc)]
            del self._live_desc[id(alloc)]
            self._granted_cores -= alloc.total_cores
            self._granted_gpus -= alloc.total_gpus

    def live_allocations(self) -> list[PilotAllocation]:
        with self._lock:
            return list(self._live.values())

    def _queue_model_for(self, alloc: PilotAllocation):
        with self._lock:
            desc = self._live_desc.get(id(alloc))
        return desc.queue_model if desc is not None else None

    def qpu_execute(
        self, circuit: Circuit, shots: int, alloc: PilotAllocation, rng_seed: int
    ) -> QpuExecutionReport:
        """Sample `shots` measurements, pacing per the pilot's queue model."""
        if self.kind is not BackendKind.QPU_SIM or alloc.backend_kind is not BackendKind.QPU_SIM:
            raise ValidationError("qpu_execute is only available on qpu_sim allocations")
        if shots < 1:
            raise ValidationError("qpu_execute needs shots >= 1")
        if circuit.num_qubits > alloc.qpu_qubits:
            raise QubitCapacityExceeded(
                f"circuit needs {circuit.num_qubits} qubits, QPU has {alloc.qpu_qubits}"
            )
        qm = self._queue_model_for(alloc)
        queue_wait = 0.0
        latency = 0.0
        if qm is not None:
            latency = qm.per_task_latency_s
            queue_wait = qm.base_delay_s
            if qm.jitter_s > 0:
                rng = np.random.default_rng(rng_seed)
                queue_wait = max(0.0, queue_wait + float(rng.uniform(-qm.jitter_s, qm.jitter_s)))
        self.clock.sleep(queue_wait)
        result, exec_s = run_timed(
            self.clock, latency, simulate_readout,
            circuit, shots, rng_seed, memory_cap_bytes=self.memory_cap_bytes,
        )
        return QpuExecutionReport(counts=result.counts, queue_wait_s=queue_wait, exec_s=exec_s)


def make_backends(
    *, clock: Clock | None = None, memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES
) -> dict[BackendKind, ResourceBackend]:
    return {
        kind: ResourceBackend(kind, clock=clock, memory_cap_bytes=memory_cap_bytes)
        for kind in BackendKind
    }
