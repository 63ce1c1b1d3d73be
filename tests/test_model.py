"""Task lifecycle state machine, validation rules, and JSON round-trips."""

import json
from dataclasses import FrozenInstanceError
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import monotone
from pilotq.errors import IllegalTransition, ValidationError
from pilotq.events import EventRecord
from pilotq.model import (
    DEFAULT_QUEUE_MODELS,
    TERMINAL_STATES,
    BackendKind,
    ClassicalPayload,
    PilotDescription,
    QuantumPayload,
    QueueModel,
    TaskDescription,
    TaskKind,
    TaskRecord,
    TaskResult,
    TaskState,
    Timestamps,
    evolve,
    new_record,
    transition,
    validate_seed,
)
from pilotq.qsim.circuit import PauliObservable, random_circuit

EVENTS = ("schedule", "start", "complete", "fail", "cancel")

# Independent restatement of the lifecycle, written down before looking at
# transition(): (state, event) -> result state. "RETRY?" marks the fail arcs
# that re-queue while attempts remain. Anything absent must raise.
EXPECTED = {
    (TaskState.NEW, "schedule"): TaskState.SCHEDULED,
    (TaskState.NEW, "fail"): TaskState.FAILED,  # placement failures are final
    (TaskState.NEW, "cancel"): TaskState.CANCELED,
    (TaskState.SCHEDULED, "start"): TaskState.RUNNING,
    (TaskState.SCHEDULED, "fail"): "RETRY?",
    (TaskState.SCHEDULED, "cancel"): TaskState.CANCELED,
    (TaskState.RUNNING, "complete"): TaskState.DONE,
    (TaskState.RUNNING, "fail"): "RETRY?",
}


def record_in(state: TaskState, max_retries: int = 0) -> TaskRecord:
    """Drive a fresh record into `state` through legal transitions only."""
    desc = TaskDescription(task_id="t", kind=TaskKind.ZERO_COMPUTE, max_retries=max_retries)
    rec = new_record(desc, at=1.0)
    if state is TaskState.NEW:
        return rec
    if state is TaskState.CANCELED:
        return transition(rec, "cancel", at=2.0)
    rec = transition(rec, "schedule", at=2.0, pilot="p")
    if state is TaskState.SCHEDULED:
        return rec
    rec = transition(rec, "start", at=3.0)
    if state is TaskState.RUNNING:
        return rec
    if state is TaskState.DONE:
        return transition(rec, "complete", at=4.0)
    assert state is TaskState.FAILED and max_retries == 0
    return transition(rec, "fail", at=4.0, error="boom")


@pytest.mark.parametrize("state", list(TaskState))
@pytest.mark.parametrize("event", EVENTS)
def test_every_state_event_pair_matches_the_lifecycle_table(state, event):
    rec = record_in(state)
    expected = EXPECTED.get((state, event))
    kwargs = {}
    if event == "schedule":
        kwargs["pilot"] = "p"
    if event == "fail":
        kwargs["error"] = "boom"
    if expected is None:
        with pytest.raises(IllegalTransition):
            transition(rec, event, at=9.0, **kwargs)
    else:
        if expected == "RETRY?":  # max_retries defaults to 0; with a retry left it re-queues
            cases = [(rec, TaskState.FAILED), (record_in(state, max_retries=1), TaskState.NEW)]
        else:
            cases = [(rec, expected)]
        for before, want in cases:
            snapshot = before.to_json_dict()
            out = transition(before, event, at=9.0, **kwargs)
            assert out.state is want
            assert_evolved(before, snapshot, out)


def assert_evolved(before: TaskRecord, snapshot: dict, out: TaskRecord) -> None:
    """`out`, made from `before` whose JSON form was `snapshot`, is a frozen
    new record that survives a JSON round trip, and `before` is unchanged."""
    assert out is not before and before.to_json_dict() == snapshot
    for record, name in ((out, "state"), (out.timestamps, "end_s")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
    assert TaskRecord.from_json_dict(json.loads(json.dumps(out.to_json_dict()))) == out


@pytest.mark.parametrize("start_state", [TaskState.SCHEDULED, TaskState.RUNNING])
def test_fail_with_retries_left_requeues_as_new(start_state):
    rec = record_in(start_state, max_retries=2)
    out = transition(rec, "fail", at=9.0, error="flaky")
    assert out.state is TaskState.NEW
    assert out.attempt == 1
    assert out.assigned_pilot is None
    assert out.error is None
    assert out.result is None
    # only the submit stamp survives a retry
    assert out.timestamps == Timestamps(submit_s=rec.timestamps.submit_s)


def test_fail_from_new_is_final_even_with_retries_left():
    rec = record_in(TaskState.NEW, max_retries=5)
    out = transition(rec, "fail", at=9.0, error="no pilot fits")
    assert out.state is TaskState.FAILED
    assert out.error == "no pilot fits"


def test_retries_exhaust_into_failed():
    rec = record_in(TaskState.NEW, max_retries=1)
    for attempt in (1, 2):
        rec = transition(rec, "schedule", at=10.0 * attempt, pilot="p")
        rec = transition(rec, "start", at=10.0 * attempt + 1)
        rec = transition(rec, "fail", at=10.0 * attempt + 2, error=f"crash {attempt}")
    assert rec.state is TaskState.FAILED
    assert rec.attempt == 2
    assert rec.error == "crash 2"


def test_schedule_requires_pilot_and_fail_requires_error():
    rec = record_in(TaskState.NEW)
    with pytest.raises(ValidationError):
        transition(rec, "schedule", at=2.0)
    with pytest.raises(ValidationError):
        transition(rec, "fail", at=2.0)
    with pytest.raises(ValidationError):
        transition(rec, "unplug", at=2.0)


def test_lifecycle_stamps_timestamps_in_order():
    rec = record_in(TaskState.NEW)
    assert rec.timestamps == Timestamps(submit_s=1.0)
    rec = transition(rec, "schedule", at=2.0, pilot="p")
    rec = transition(rec, "start", at=3.5)
    rec = transition(rec, "complete", at=7.0, result=TaskResult(value=1.0))
    assert rec.timestamps == Timestamps(submit_s=1.0, schedule_s=2.0, start_s=3.5, end_s=7.0)
    assert monotone(rec.timestamps)
    assert rec.result.value == 1.0
    assert rec.assigned_pilot == "p"


def test_transition_returns_a_new_record():
    rec = record_in(TaskState.NEW)
    out = transition(rec, "schedule", at=2.0, pilot="p")
    assert rec.state is TaskState.NEW and out is not rec


@pytest.mark.parametrize("cls", [TaskRecord, Timestamps, TaskResult, EventRecord])
def test_records_built_without_init_define_no_post_init(cls):
    # evolve (and EventLog.emit) skip __init__: a check added to one of these
    # records' __post_init__ would never run on the records they build
    assert not hasattr(cls, "__post_init__")


def test_evolve_sets_only_known_fields():
    result = TaskResult(value=1.0)
    assert evolve(result, exec_s=0.5) == TaskResult(value=1.0, exec_s=0.5)
    assert result.exec_s is None
    with pytest.raises(TypeError, match="no field"):
        evolve(result, exec_seconds=0.5)


def test_cancel_clears_assignment_and_stamps_end():
    rec = record_in(TaskState.SCHEDULED)
    out = transition(rec, "cancel", at=5.0)
    assert out.assigned_pilot is None
    assert out.timestamps.end_s == 5.0


def test_terminal_matches_terminal_states():
    assert TERMINAL_STATES == {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED}
    for state in TaskState:
        if state is TaskState.FAILED:
            continue  # record_in cannot reach FAILED without retries arg
        assert record_in(state).terminal is (state in TERMINAL_STATES)
    assert record_in(TaskState.FAILED, max_retries=0).terminal


def test_monotone_rejects_out_of_order_stamps():
    assert not monotone(Timestamps(submit_s=2.0, schedule_s=1.0))
    assert monotone(Timestamps(submit_s=1.0, start_s=1.0))  # gaps and ties allowed


# --- validation ---------------------------------------------------------------------


def _quantum(n=2, shots=0, observable=None, **kw):
    circ = random_circuit(n, 2, seed=1)
    return TaskDescription(
        task_id="q",
        kind=TaskKind.QUANTUM_CIRCUIT,
        payload=QuantumPayload(circuit=circ, shots=shots, observable=observable),
        requires_qubits=kw.pop("requires_qubits", n),
        **kw,
    )


def test_task_validation_accepts_the_obvious_cases():
    TaskDescription(task_id="a", kind=TaskKind.ZERO_COMPUTE)
    TaskDescription(
        task_id="b",
        kind=TaskKind.CLASSICAL_FN,
        payload=ClassicalPayload(function="f", args=(1,)),
    )
    _quantum(shots=128)
    _quantum(observable=PauliObservable.single(2, {0: "Z"}))


# Each case builds its description inside pytest.raises: construction validates.
@pytest.mark.parametrize(
    "desc",
    [
        partial(TaskDescription, task_id="", kind=TaskKind.ZERO_COMPUTE),
        partial(TaskDescription, task_id="  ", kind=TaskKind.ZERO_COMPUTE),
        partial(TaskDescription, task_id="a", kind=TaskKind.ZERO_COMPUTE, requires_cores=0),
        partial(TaskDescription, task_id="a", kind=TaskKind.ZERO_COMPUTE, requires_gpus=-1),
        partial(TaskDescription, task_id="a", kind=TaskKind.ZERO_COMPUTE, max_retries=-1),
        partial(TaskDescription, task_id="a", kind=TaskKind.ZERO_COMPUTE, requires_qubits=1),
        partial(
            TaskDescription,
            task_id="a",
            kind=TaskKind.ZERO_COMPUTE,
            payload=ClassicalPayload(function="f"),
        ),
        partial(TaskDescription, task_id="a", kind=TaskKind.CLASSICAL_FN),
        partial(ClassicalPayload, function=""),
        partial(
            TaskDescription,
            task_id="a",
            kind=TaskKind.CLASSICAL_FN,
            payload=ClassicalPayload(function="f"),
            requires_qubits=2,
        ),
        partial(TaskDescription, task_id="a", kind=TaskKind.QUANTUM_CIRCUIT),
        partial(_quantum, shots=-1),
        partial(_quantum, requires_qubits=3),  # must equal the circuit width
    ],
)
def test_task_validation_rejects(desc):
    with pytest.raises(ValidationError):
        desc()


def test_observable_forces_exact_mode_and_matching_width():
    obs2 = PauliObservable.single(2, {0: "Z"})
    with pytest.raises(ValidationError):
        _quantum(shots=16, observable=obs2)
    obs3 = PauliObservable.single(3, {0: "Z"})
    with pytest.raises(ValidationError):
        _quantum(n=2, observable=obs3)


def test_pilot_validation_rules():
    PilotDescription(name="p", backend_kind=BackendKind.LOCAL, cores_per_node=8)
    PilotDescription(name="q", backend_kind=BackendKind.QPU_SIM, qpu_qubits=32)

    def local(**kw):
        return PilotDescription(name=kw.pop("name", "p"), backend_kind=BackendKind.LOCAL, **kw)

    bad = [
        lambda: local(name=""),
        lambda: local(nodes=0),
        lambda: local(cores_per_node=0),
        lambda: local(gpus_per_node=-1),
        lambda: local(walltime_s=0.0),
        lambda: local(seed=-1),
        # a seed is an integer, not a bool or a float
        lambda: local(seed=True),
        lambda: local(seed=1.5),
        # sampling backends need a declared width; classical ones must not have one
        lambda: PilotDescription(name="p", backend_kind=BackendKind.QPU_SIM),
        lambda: PilotDescription(
            name="p", backend_kind=BackendKind.QPU_SIM, qpu_qubits=8, gpus_per_node=1
        ),
        lambda: local(qpu_qubits=4),
        lambda: local(queue_model=QueueModel(base_delay_s=-1.0)),
        # non-finite times: NaN passes every comparison-based bound, inf never elapses
        lambda: local(walltime_s=float("nan")),
        lambda: local(walltime_s=float("inf")),
        *(
            lambda attr=attr, value=value: local(queue_model=QueueModel(**{attr: value}))
            for attr in ("base_delay_s", "jitter_s", "per_task_latency_s")
            for value in (float("nan"), float("inf"))
        ),
    ]
    for desc in bad:
        with pytest.raises(ValidationError):
            desc()


@pytest.mark.parametrize("seed", [2.9, True])
def test_validate_seed_rejects_non_integers(seed):
    with pytest.raises(ValidationError):
        validate_seed(seed)


@pytest.mark.parametrize(
    "cls,data",
    [
        (TaskDescription, {"task_id": "", "kind": "zero_compute"}),
        (TaskDescription, {"task_id": "a", "kind": "zero_compute", "requires_cores": 0}),
        (PilotDescription, {"name": "p", "backend_kind": "local", "cores_per_node": 0}),
    ],
)
def test_json_decode_validates_descriptions(cls, data):
    with pytest.raises(ValidationError):
        cls.from_json_dict(data)


def test_pilot_totals_multiply_nodes():
    desc = PilotDescription(
        name="p", backend_kind=BackendKind.LOCAL, nodes=3, cores_per_node=4, gpus_per_node=2
    )
    assert desc.total_cores == 12
    assert desc.total_gpus == 6


def test_batch_pilots_default_to_a_long_startup_queue():
    assert DEFAULT_QUEUE_MODELS[BackendKind.BATCH_SIM].base_delay_s == 37.0
    assert DEFAULT_QUEUE_MODELS[BackendKind.LOCAL].base_delay_s == 0.0
    desc = PilotDescription(name="b", backend_kind=BackendKind.BATCH_SIM)
    assert desc.queue_model.base_delay_s == 37.0


# --- JSON round-trips -----------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
).filter(lambda s: s.strip())

_queue_models = st.builds(
    QueueModel,
    base_delay_s=st.floats(0, 100, allow_nan=False),
    jitter_s=st.floats(0, 10, allow_nan=False),
    per_task_latency_s=st.floats(0, 5, allow_nan=False),
)


@st.composite
def _pilot_descriptions(draw):
    kind = draw(st.sampled_from(list(BackendKind)))
    return PilotDescription(
        name=draw(_names),
        backend_kind=kind,
        nodes=draw(st.integers(1, 4)),
        cores_per_node=draw(st.integers(1, 16)),
        gpus_per_node=0 if kind is BackendKind.QPU_SIM else draw(st.integers(0, 4)),
        qpu_qubits=draw(st.integers(1, 40)) if kind is BackendKind.QPU_SIM else 0,
        walltime_s=draw(st.floats(1, 1e6, allow_nan=False)),
        queue_model=draw(_queue_models),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def _task_descriptions(draw):
    kind = draw(st.sampled_from(list(TaskKind)))
    payload = None
    requires_qubits = 0
    if kind is TaskKind.CLASSICAL_FN:
        payload = ClassicalPayload(
            function=draw(_names),
            args=tuple(draw(st.lists(st.integers(-5, 5), max_size=3))),
            kwargs=draw(st.dictionaries(_names, st.integers(-5, 5), max_size=2)),
        )
    elif kind is TaskKind.QUANTUM_CIRCUIT:
        n = draw(st.integers(1, 4))
        circ = random_circuit(n, draw(st.integers(0, 3)), seed=draw(st.integers(0, 99)))
        shots = draw(st.sampled_from([0, 0, 64]))
        obs = None
        if shots == 0 and draw(st.booleans()):
            obs = PauliObservable.single(n, {draw(st.integers(0, n - 1)): "Z"})
        payload = QuantumPayload(circuit=circ, shots=shots, observable=obs)
        requires_qubits = n
    return TaskDescription(
        task_id=draw(_names),
        kind=kind,
        payload=payload,
        requires_cores=draw(st.integers(1, 8)),
        requires_gpus=draw(st.integers(0, 2)),
        requires_qubits=requires_qubits,
        target=draw(st.none() | _names),
        max_retries=draw(st.integers(0, 3)),
    )


@settings(max_examples=50, deadline=None)
@given(_pilot_descriptions())
def test_pilot_description_round_trips_through_json(desc):
    assert PilotDescription.from_json_dict(json.loads(json.dumps(desc.to_json_dict()))) == desc


@settings(max_examples=50, deadline=None)
@given(_task_descriptions())
def test_task_description_round_trips_through_json(desc):
    assert TaskDescription.from_json_dict(json.loads(json.dumps(desc.to_json_dict()))) == desc


@settings(max_examples=50, deadline=None)
@given(
    desc=_task_descriptions(),
    state=st.sampled_from(list(TaskState)),
    attempt=st.integers(0, 3),
    value=st.none() | st.floats(-2, 2, allow_nan=False),
)
def test_task_record_round_trips_through_json(desc, state, attempt, value):
    rec = TaskRecord(
        description=desc,
        state=state,
        assigned_pilot="p" if state is TaskState.RUNNING else None,
        timestamps=Timestamps(submit_s=1.0, schedule_s=2.0),
        attempt=attempt,
        result=TaskResult(value=value, counts={"01": 3}, exec_s=0.25),
        error="x" if state is TaskState.FAILED else None,
    )
    assert TaskRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict()))) == rec


def test_task_result_probabilities_round_trip_as_tuple():
    res = TaskResult(probabilities=(0.5, 0.25, 0.25, 0.0))
    back = TaskResult.from_json_dict(json.loads(json.dumps(res.to_json_dict())))
    assert back == res
    assert isinstance(back.probabilities, tuple)
