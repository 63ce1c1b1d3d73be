"""The generic record codec: every JsonRecord round-trips through JSON text."""

import json
import sys
import threading

import pytest

from pilotq.agent import AgentMetrics
from pilotq.backends import PilotAllocation
from pilotq.bench.runners import RunMetrics
from pilotq.bench.vqc import VqcConfig
from pilotq.clock import SimulatedClock
from pilotq.codec import JsonRecord
from pilotq.errors import ValidationError
from pilotq.cutting import CutWorkflowResult, clustered_circuit, find_cuts, generate_subexperiments
from pilotq.events import EventLog, EventRecord, read_events
from pilotq.model import (
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
)
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable, efficient_su2

_CIRCUIT = efficient_su2(2, 1, [0.1 * i for i in range(8)])
_OBSERVABLE = PauliObservable(terms=((0.5, "ZI"), (-1.5, "XY")))
_PLAN = find_cuts(
    clustered_circuit([2, 3], reps=1, seed=3), PauliObservable.single(5, {0: "X", 4: "Y"}), max_width=4
)
_SUBS, _TERMS = generate_subexperiments(_PLAN)
_QUANTUM_TASK = TaskDescription(
    task_id="q",
    kind=TaskKind.QUANTUM_CIRCUIT,
    payload=QuantumPayload(circuit=_CIRCUIT, observable=PauliObservable.single(2, {1: "Z"})),
    requires_qubits=2,
    target="cpu",
)
RECORDS = [
    QueueModel(base_delay_s=1.0, jitter_s=0.5, per_task_latency_s=0.25),
    PilotDescription(name="q", backend_kind=BackendKind.QPU_SIM, qpu_qubits=5, seed=2**63),
    ClassicalPayload(function="f", args=(1, "a", 2.5), kwargs={"k": [1, 2]}),
    QuantumPayload(circuit=_CIRCUIT, shots=64),
    TaskDescription(
        task_id="c",
        kind=TaskKind.CLASSICAL_FN,
        payload=ClassicalPayload(function="f", args=(3,)),
        requires_cores=2,
        max_retries=1,
    ),
    _QUANTUM_TASK,
    TaskResult(
        value=0.5,
        counts={"01": 3, "10": 5},
        probabilities=(0.25, 0.75),
        data={"grad": [0.1, 0.2]},
        queue_wait_s=0.0,
        exec_s=1.25,
    ),
    Timestamps(submit_s=1.0, schedule_s=2.0, start_s=2.5),
    TaskRecord(
        description=_QUANTUM_TASK,
        state=TaskState.DONE,
        assigned_pilot="cpu",
        timestamps=Timestamps(1.0, 2.0, 3.0, 4.0),
        attempt=1,
        result=TaskResult(probabilities=(1.0, 0.0, 0.0, 0.0)),
    ),
    Gate("RY", (1,), 0.5, 0),
    _CIRCUIT,
    _OBSERVABLE,
    EventRecord(ts_s=1.5, entity="task", entity_id="t0", event="task_done", attrs={"exec_s": "0.1"}),
    PilotAllocation(
        pilot_name="q",
        backend_kind=BackendKind.QPU_SIM,
        total_cores=2,
        total_gpus=0,
        qpu_qubits=5,
        granted_at_s=1.0,
        expires_at_s=3601.0,
        queue_model=QueueModel(base_delay_s=2.0, jitter_s=0.5),
    ),
    AgentMetrics(tasks_done=3, tasks_failed=1, busy_cores=2, queue_depth=4),
    _PLAN.fragments[1],
    _PLAN,
    _SUBS[-1],
    _TERMS,
    CutWorkflowResult(
        value=0.25,
        oracle_value=None,
        abs_error=None,
        num_qubits=5,
        num_cuts=1,
        num_subexperiments=len(_SUBS),
        sampling_overhead=16.0,
        plan_s=0.1,
        exec_s=0.2,
        reconstruct_s=0.3,
        task_ids=("a", "b"),
    ),
    RunMetrics(
        workload="w",
        params={"seed": "0"},
        phase_s={"execute": 2.0},
        tasks_total=3,
        tasks_done=2,
        tasks_failed=1,
    ),
    VqcConfig(optimizer="momentum", epochs=3),
]


def _is_plain_json(value) -> bool:
    """Only dicts with str keys, lists and exact JSON scalars (no enums, tuples)."""
    if type(value) is dict:
        return all(type(k) is str and _is_plain_json(v) for k, v in value.items())
    if type(value) is list:
        return all(_is_plain_json(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_every_record_round_trips_through_json_text(record):
    cls = type(record)
    raw = record.to_json_dict()
    assert _is_plain_json(raw)
    assert cls.from_json_dict(json.loads(json.dumps(raw))) == record


def test_every_record_class_has_a_round_trip_case():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(JsonRecord)) == {type(r) for r in RECORDS}


def test_missing_keys_take_the_field_defaults():
    assert Gate.from_json_dict({"name": "H", "qubits": [0]}) == Gate("H", (0,))
    assert Gate.from_json_dict({"name": "RX", "qubits": [2], "param": 0.5}) == Gate("RX", (2,), 0.5)
    assert Circuit.from_json_dict({"num_qubits": 1, "gates": [{"name": "X", "qubits": [0]}]}) == Circuit(
        1, (Gate("X", (0,)),)
    )
    assert TaskDescription.from_json_dict({"task_id": "z", "kind": "zero_compute"}) == TaskDescription(
        "z", TaskKind.ZERO_COMPUTE
    )


def test_an_int_field_takes_only_an_integer():
    pilot = {"name": "p", "backend_kind": "local"}
    for bad in ({"cores_per_node": 2.7}, {"seed": 2.9}, {"cores_per_node": 2.0}, {"cores_per_node": True}):
        with pytest.raises(ValidationError, match="expected an integer"):
            PilotDescription.from_json_dict({**pilot, **bad})
    decoded = PilotDescription.from_json_dict({**pilot, "cores_per_node": 2, "seed": 3})
    assert (decoded.cores_per_node, decoded.seed) == (2, 3)
    task = {"task_id": "t", "kind": "zero_compute"}
    for bad in ({"requires_cores": True}, {"requires_cores": 1.5}, {"max_retries": False}):
        with pytest.raises(ValidationError, match="expected an integer"):
            TaskDescription.from_json_dict({**task, **bad})
    assert TaskDescription.from_json_dict({**task, "requires_cores": 2}).requires_cores == 2


@pytest.mark.parametrize("bad", [True, "0.5", "abc", [1]], ids=repr)
def test_a_float_field_takes_only_a_number(bad):
    with pytest.raises(ValidationError, match="expected a number"):
        QueueModel.from_json_dict({"base_delay_s": bad})
    with pytest.raises(ValidationError, match="expected a number"):
        PilotDescription.from_json_dict({"name": "p", "backend_kind": "local", "walltime_s": bad})
    assert QueueModel.from_json_dict({"base_delay_s": 2, "jitter_s": 0.5}) == QueueModel(2.0, 0.5)


def test_event_log_file_reads_back_as_the_emitted_records(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path, clock=SimulatedClock(start=1.5)) as log:
        log.emit("pilot", "p", "agent_ready", cores=8)
        log.emit("task", "t0", "task_done", pilot="p", exec_s="0.250000")
        emitted = log.records
    assert list(read_events(path)) == emitted


def test_concurrent_emits_write_the_file_in_stream_order(tmp_path):
    # emit encodes each line outside the log's lock; the stamp, the append
    # and the write stay under it, so the file is the stream, in order
    path = tmp_path / "events.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-emit too
    try:
        with EventLog(path) as log:
            def emit_many(w):
                for i in range(2000):
                    log.emit("task", f"w{w}-{i}", "task_done", pilot=f"p{w}", n=i)

            threads = [threading.Thread(target=emit_many, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not any(t.is_alive() for t in threads)
            emitted = log.records
    finally:
        sys.setswitchinterval(interval)
    assert len(emitted) == 8000
    assert list(read_events(path)) == emitted
    stamps = [ev.ts_s for ev in emitted]
    assert stamps == sorted(stamps)


def test_event_line_keeps_its_byte_layout(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path, clock=SimulatedClock(start=1.5)) as log:
        log.emit("task", "t0", "task_done", pilot="p", exec_s="0.250000")
    assert path.read_text(encoding="utf-8") == (
        '{"ts_s":1.5,"entity":"task","entity_id":"t0","event":"task_done",'
        '"attrs":{"pilot":"p","exec_s":"0.250000"}}\n'
    )


def test_emit_writes_non_str_attrs_and_an_int_stamp_as_json_does(tmp_path):
    # a simulated clock that waited until an int deadline reads an int; attrs
    # that are not exact strs, a str-valued enum too, go through str()
    path = tmp_path / "events.jsonl"
    clock = SimulatedClock(start=1.5)
    with EventLog(path, clock=clock) as log:
        clock.wait_until(threading.Condition(), 3)
        rec = log.emit("pilot", "p", "agent_stopped", drain=True, kind=TaskKind.ZERO_COMPUTE)
    assert rec.ts_s == 3 and rec.attrs == {"drain": "True", "kind": str(TaskKind.ZERO_COMPUTE)}
    assert path.read_text(encoding="utf-8") == json.dumps(rec.to_json_dict(), separators=(",", ":")) + "\n"
    assert list(read_events(path)) == [rec]
