"""Domain types: pilots, tasks, lifecycle records, and their JSON forms.

The task lifecycle is a small state machine over immutable records; the
`transition` function is the single authority for state changes:

    NEW --schedule--> SCHEDULED --start--> RUNNING --complete--> DONE
    RUNNING/SCHEDULED --fail--> NEW (attempt+1, while attempt < max_retries)
                              > FAILED (otherwise; terminal)
    NEW --fail--> FAILED          (scheduling failure; never retried)
    NEW/SCHEDULED --cancel--> CANCELED

A retried record returns to NEW with assigned_pilot and the schedule/start
timestamps cleared; the event log keeps the history. Anything else raises
IllegalTransition.

Every record is a `JsonRecord`: its JSON form comes from the generic codec
in `pilotq.codec`, driven by the field annotations below, so a field added
here is serialised without further code.

Every description validates itself in `__post_init__`, and each rule lives
on the record that owns it: a queue model's delays, a pilot's shape, a
payload's own fields, and a task's requirements and its payload's type.
Decoding from JSON constructs the record, so it validates too, and no
caller has to remember a separate check.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any

from pilotq.codec import JsonRecord
from pilotq.errors import IllegalTransition, ValidationError
from pilotq.qsim.circuit import Circuit, PauliObservable


class BackendKind(str, enum.Enum):
    LOCAL = "local"
    BATCH_SIM = "batch_sim"
    QPU_SIM = "qpu_sim"


class TaskKind(str, enum.Enum):
    ZERO_COMPUTE = "zero_compute"
    CLASSICAL_FN = "classical_fn"
    QUANTUM_CIRCUIT = "quantum_circuit"


class TaskState(str, enum.Enum):
    NEW = "NEW"
    SCHEDULED = "SCHEDULED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"


TERMINAL_STATES = frozenset({TaskState.DONE, TaskState.FAILED, TaskState.CANCELED})


@dataclass(frozen=True)
class QueueModel(JsonRecord):
    """Queue-delay model: startup delay base +- jitter, plus per-task latency."""

    base_delay_s: float = 0.0
    jitter_s: float = 0.0
    per_task_latency_s: float = 0.0

    def __post_init__(self):
        delays = (self.base_delay_s, self.jitter_s, self.per_task_latency_s)
        if not all(0 <= d < math.inf for d in delays):  # also false for NaN
            raise ValidationError("queue model delays must be finite and >= 0")


# Default startup-queue behaviour per backend; batch submission historically
# costs tens of seconds before the pilot is live.
DEFAULT_QUEUE_MODELS = {
    BackendKind.LOCAL: QueueModel(),
    BackendKind.BATCH_SIM: QueueModel(base_delay_s=37.0),
    BackendKind.QPU_SIM: QueueModel(),
}


@dataclass(frozen=True)
class PilotDescription(JsonRecord):
    name: str
    backend_kind: BackendKind
    nodes: int = 1
    cores_per_node: int = 1
    gpus_per_node: int = 0
    qpu_qubits: int = 0
    walltime_s: float = 3600.0
    queue_model: QueueModel | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "backend_kind", BackendKind(self.backend_kind))
        if self.queue_model is None:
            object.__setattr__(self, "queue_model", DEFAULT_QUEUE_MODELS[self.backend_kind])
        if not self.name or not self.name.strip():
            raise ValidationError("pilot name must be non-empty")
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValidationError("nodes and cores_per_node must be >= 1")
        if self.gpus_per_node < 0 or self.qpu_qubits < 0:
            raise ValidationError("gpus_per_node and qpu_qubits must be >= 0")
        if not 0 < self.walltime_s < math.inf:  # also false for NaN
            raise ValidationError("walltime_s must be finite and > 0")
        validate_seed(self.seed)
        if self.backend_kind is BackendKind.QPU_SIM:
            if self.qpu_qubits < 1:
                raise ValidationError("qpu_sim pilots must set qpu_qubits >= 1")
            if self.gpus_per_node != 0:
                raise ValidationError("qpu_sim pilots cannot have GPUs")
        elif self.qpu_qubits != 0:
            raise ValidationError("qpu_qubits > 0 is only valid for qpu_sim pilots")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.gpus_per_node


def validate_seed(seed) -> int:
    """`seed` as an int; ValidationError unless it is an integer (not a
    bool) with 0 <= seed < 2**64."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer with 0 <= seed < 2**64, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class ClassicalPayload(JsonRecord):
    """Call a function registered with the agent, by name."""

    function: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.function:
            raise ValidationError("a classical payload needs a function name")
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "kwargs", dict(self.kwargs))


@dataclass(frozen=True)
class QuantumPayload(JsonRecord):
    """Circuit execution request.

    shots = 0 with an observable -> exact expectation value;
    shots = 0 without            -> exact output probabilities;
    shots > 0 (no observable)    -> sampled counts.
    """

    circuit: Circuit
    shots: int = 0
    observable: PauliObservable | None = None

    def __post_init__(self):
        if self.shots < 0:
            raise ValidationError("shots must be >= 0")
        if self.observable is not None:
            if self.shots != 0:
                raise ValidationError("an observable implies exact mode: shots must be 0")
            if self.observable.num_qubits != self.circuit.num_qubits:
                raise ValidationError("observable width must match the circuit")


@dataclass(frozen=True)
class TaskDescription(JsonRecord):
    task_id: str
    kind: TaskKind
    payload: ClassicalPayload | QuantumPayload | None = None
    requires_cores: int = 1
    requires_gpus: int = 0
    requires_qubits: int = 0
    target: str | None = None
    max_retries: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", TaskKind(self.kind))
        if not self.task_id or not self.task_id.strip():
            raise ValidationError("task_id must be non-empty")
        if self.requires_cores < 1:
            raise ValidationError("requires_cores must be >= 1")
        if self.requires_gpus < 0 or self.max_retries < 0:
            raise ValidationError("requires_gpus and max_retries must be >= 0")
        payload_type = _PAYLOAD_TYPES[self.kind]
        if not isinstance(self.payload, payload_type):
            raise ValidationError(
                f"a {self.kind.value} payload must be {payload_type.__name__}, "
                f"not {type(self.payload).__name__}"
            )
        # only a circuit needs qubits, and exactly as many as it is wide
        qubits = self.payload.circuit.num_qubits if self.kind is TaskKind.QUANTUM_CIRCUIT else 0
        if self.requires_qubits != qubits:
            raise ValidationError(
                f"requires_qubits must be {qubits} for this {self.kind.value} task"
            )


# The payload each task kind carries; a zero_compute task carries none.
_PAYLOAD_TYPES = {
    TaskKind.ZERO_COMPUTE: type(None),
    TaskKind.CLASSICAL_FN: ClassicalPayload,
    TaskKind.QUANTUM_CIRCUIT: QuantumPayload,
}


@dataclass(frozen=True)
class TaskResult(JsonRecord):
    """Outcome payload; which fields are set depends on the task kind."""

    value: float | None = None
    counts: dict[str, int] | None = None
    probabilities: tuple[float, ...] | None = None
    data: Any = None
    queue_wait_s: float | None = None
    exec_s: float | None = None


@dataclass(frozen=True)
class Timestamps(JsonRecord):
    submit_s: float | None = None
    schedule_s: float | None = None
    start_s: float | None = None
    end_s: float | None = None


@dataclass(frozen=True)
class TaskRecord(JsonRecord):
    description: TaskDescription
    state: TaskState = TaskState.NEW
    assigned_pilot: str | None = None
    timestamps: Timestamps = field(default_factory=Timestamps)
    attempt: int = 0
    result: TaskResult | None = None
    error: str | None = None

    @property
    def task_id(self) -> str:
        return self.description.task_id

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def new_record(desc: TaskDescription, at: float) -> TaskRecord:
    return TaskRecord(description=desc, timestamps=Timestamps(submit_s=at))


def transition(
    record: TaskRecord,
    event: str,
    at: float,
    *,
    pilot: str | None = None,
    result: TaskResult | None = None,
    error: str | None = None,
) -> TaskRecord:
    """Pure lifecycle step; returns a new record or raises IllegalTransition."""
    state = record.state
    ts = record.timestamps

    if event == "schedule":
        if state is not TaskState.NEW:
            raise IllegalTransition(f"cannot schedule from {state.value}")
        if not pilot:
            raise ValidationError("schedule requires a pilot name")
        return replace(
            record,
            state=TaskState.SCHEDULED,
            assigned_pilot=pilot,
            timestamps=replace(ts, schedule_s=at),
        )

    if event == "start":
        if state is not TaskState.SCHEDULED:
            raise IllegalTransition(f"cannot start from {state.value}")
        return replace(record, state=TaskState.RUNNING, timestamps=replace(ts, start_s=at))

    if event == "complete":
        if state is not TaskState.RUNNING:
            raise IllegalTransition(f"cannot complete from {state.value}")
        return replace(
            record,
            state=TaskState.DONE,
            result=result if result is not None else TaskResult(),
            timestamps=replace(ts, end_s=at),
        )

    if event == "fail":
        if error is None:
            raise ValidationError("fail requires an error message")
        if state is TaskState.NEW:
            # Scheduling failures are final: retrying cannot make a pilot fit.
            return replace(
                record, state=TaskState.FAILED, error=error, timestamps=replace(ts, end_s=at)
            )
        if state in (TaskState.SCHEDULED, TaskState.RUNNING):
            if record.attempt < record.description.max_retries:
                return replace(
                    record,
                    state=TaskState.NEW,
                    assigned_pilot=None,
                    attempt=record.attempt + 1,
                    result=None,
                    error=None,
                    timestamps=Timestamps(submit_s=ts.submit_s),
                )
            return replace(
                record,
                state=TaskState.FAILED,
                attempt=record.attempt + 1,
                error=error,
                timestamps=replace(ts, end_s=at),
            )
        raise IllegalTransition(f"cannot fail from {state.value}")

    if event == "cancel":
        if state not in (TaskState.NEW, TaskState.SCHEDULED):
            raise IllegalTransition(f"cannot cancel from {state.value}")
        return replace(
            record,
            state=TaskState.CANCELED,
            assigned_pilot=None,
            timestamps=replace(ts, end_s=at),
        )

    raise ValidationError(f"unknown lifecycle event: {event!r}")
