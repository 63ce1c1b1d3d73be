"""Pilot agent: worker pool behaviour, payload execution, cancellation."""

import sys
import threading
import time

import pytest

from helpers import local_desc, qpu_desc, zero_task
from pilotq.agent import PilotAgent, start_agent, task_seed
from pilotq.backends import ResourceBackend
from pilotq.clock import SimulatedClock
from pilotq.errors import AgentStopped, WorkerOversubscription
from pilotq.events import EventLog
from pilotq.model import (
    BackendKind,
    ClassicalPayload,
    PilotDescription,
    QuantumPayload,
    QueueModel,
    TaskDescription,
    TaskKind,
    TaskState,
    new_record,
)
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable, random_circuit
from pilotq.store import TaskStore


def make_agent(desc=None, workers=None, functions=None, backend=None, on_terminal=None):
    desc = desc or local_desc()
    backend = backend or ResourceBackend(desc.backend_kind)
    alloc = backend.provision(desc)
    return start_agent(
        alloc,
        workers,
        functions=functions or {},
        backend=backend,
        on_terminal=on_terminal,
    )


def submit(agent, desc) -> str:
    rec = new_record(desc, at=time.monotonic())
    agent.store.add(rec)
    agent.assign(rec)
    return desc.task_id


def test_zero_compute_roundtrip_has_monotone_stamps():
    agent = make_agent()
    try:
        tid = submit(agent, zero_task(0))
        assert agent.store.wait_terminal([tid], timeout=5.0)
        rec = agent.store.get(tid)
        assert rec.state is TaskState.DONE
        assert rec.assigned_pilot == agent.name
        assert rec.timestamps.monotone()
        assert rec.timestamps.end_s is not None
    finally:
        agent.shutdown()


def test_classical_function_receives_args_and_kwargs():
    agent = make_agent(functions={"mul": lambda a, b, offset=0: a * b + offset})
    try:
        desc = TaskDescription(
            task_id="c0",
            kind=TaskKind.CLASSICAL_FN,
            payload=ClassicalPayload(function="mul", args=(6, 7), kwargs={"offset": 8}),
        )
        tid = submit(agent, desc)
        agent.store.wait_terminal([tid], timeout=5.0)
        rec = agent.store.get(tid)
        assert rec.state is TaskState.DONE
        assert rec.result.data == 50
    finally:
        agent.shutdown()


def test_unregistered_function_fails_the_task_not_the_worker():
    agent = make_agent()
    try:
        bad = TaskDescription(
            task_id="c1", kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function="nope")
        )
        tid = submit(agent, bad)
        agent.store.wait_terminal([tid], timeout=5.0)
        rec = agent.store.get(tid)
        assert rec.state is TaskState.FAILED
        assert "nope" in rec.error
        # the worker survives and runs the next task
        ok = submit(agent, zero_task(2))
        agent.store.wait_terminal([ok], timeout=5.0)
        assert agent.store.get(ok).state is TaskState.DONE
    finally:
        agent.shutdown()


def test_raising_function_records_the_exception():
    def explode():
        raise RuntimeError("kaboom")

    agent = make_agent(functions={"explode": explode})
    try:
        desc = TaskDescription(
            task_id="c2", kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function="explode")
        )
        tid = submit(agent, desc)
        agent.store.wait_terminal([tid], timeout=5.0)
        rec = agent.store.get(tid)
        assert rec.state is TaskState.FAILED
        assert "kaboom" in rec.error
    finally:
        agent.shutdown()


def _quantum_desc(tid, circ, shots=0, observable=None):
    return TaskDescription(
        task_id=tid,
        kind=TaskKind.QUANTUM_CIRCUIT,
        payload=QuantumPayload(circuit=circ, shots=shots, observable=observable),
        requires_qubits=circ.num_qubits,
    )


def test_quantum_payload_modes_on_a_classical_pilot():
    agent = make_agent()
    try:
        bell = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        ids = [
            submit(agent, _quantum_desc("exp", bell, observable=PauliObservable.single(2, {0: "Z"}))),
            submit(agent, _quantum_desc("cnt", bell, shots=400)),
            submit(agent, _quantum_desc("prb", bell)),
        ]
        agent.store.wait_terminal(ids, timeout=10.0)
        exp = agent.store.get("exp")
        assert exp.state is TaskState.DONE
        assert exp.result.value == pytest.approx(0.0, abs=1e-12)  # Z on half of a Bell pair
        cnt = agent.store.get("cnt").result
        assert set(cnt.counts) <= {"00", "11"}
        assert sum(cnt.counts.values()) == 400
        prb = agent.store.get("prb").result
        assert prb.probabilities[0] == pytest.approx(0.5, abs=1e-12)
        assert prb.probabilities[3] == pytest.approx(0.5, abs=1e-12)
    finally:
        agent.shutdown()


def test_qpu_agent_returns_counts_with_queue_wait():
    desc = qpu_desc("q", qubits=5, base_delay_s=0.0)
    agent = make_agent(desc)
    try:
        circ = random_circuit(3, 3, seed=4)
        tid = submit(agent, _quantum_desc("s0", circ, shots=64))
        agent.store.wait_terminal([tid], timeout=10.0)
        rec = agent.store.get(tid)
        assert rec.state is TaskState.DONE
        assert sum(rec.result.counts.values()) == 64
        assert rec.result.queue_wait_s == 0.0
    finally:
        agent.shutdown()


def test_task_seed_is_stable_and_id_dependent():
    assert task_seed("a") == task_seed("a")
    assert task_seed("a") != task_seed("b")


def test_concurrency_never_exceeds_worker_slots():
    peak = 0
    running = 0
    lock = threading.Lock()

    def tracked():
        nonlocal peak, running
        with lock:
            running += 1
            peak = max(peak, running)
        time.sleep(0.05)
        with lock:
            running -= 1

    agent = make_agent(local_desc("p", cores=2), functions={"tracked": tracked})
    try:
        ids = [
            submit(
                agent,
                TaskDescription(
                    task_id=f"t{i}",
                    kind=TaskKind.CLASSICAL_FN,
                    payload=ClassicalPayload(function="tracked"),
                ),
            )
            for i in range(6)
        ]
        assert agent.store.wait_terminal(ids, timeout=10.0)
    finally:
        agent.shutdown()
    assert peak <= 2


def test_wide_task_runs_alone():
    stamps = []
    lock = threading.Lock()

    def mark(tag):
        with lock:
            stamps.append((tag, "in", time.monotonic()))
        time.sleep(0.05)
        with lock:
            stamps.append((tag, "out", time.monotonic()))

    agent = make_agent(local_desc("p", cores=2), functions={"mark": mark})
    try:
        wide = TaskDescription(
            task_id="wide",
            kind=TaskKind.CLASSICAL_FN,
            payload=ClassicalPayload(function="mark", args=("wide",)),
            requires_cores=2,
        )
        narrow = TaskDescription(
            task_id="narrow",
            kind=TaskKind.CLASSICAL_FN,
            payload=ClassicalPayload(function="mark", args=("narrow",)),
        )
        submit(agent, wide)
        submit(agent, narrow)
        assert agent.store.wait_terminal(["wide", "narrow"], timeout=10.0)
    finally:
        agent.shutdown()
    windows = {}
    for tag, edge, ts in stamps:
        windows.setdefault(tag, {})[edge] = ts
    a, b = windows["wide"], windows["narrow"]
    overlap = min(a["out"], b["out"]) - max(a["in"], b["in"])
    assert overlap <= 0  # a 2-core task leaves no slot for the other


def test_canceling_a_blocked_wide_head_wakes_the_task_behind_it():
    started, release = threading.Event(), threading.Event()

    def block():
        started.set()
        release.wait()

    agent = make_agent(local_desc("p", cores=2), functions={"block": block})
    try:
        submit(
            agent,
            TaskDescription(
                task_id="block", kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function="block")
            ),
        )
        assert started.wait(5.0)
        # the 2-core head cannot start while the blocker holds one of two slots
        submit(agent, TaskDescription(task_id="wide", kind=TaskKind.ZERO_COMPUTE, requires_cores=2))
        narrow = submit(agent, zero_task(1))
        time.sleep(0.05)  # let the idle worker see the wide head and wait again
        assert agent.cancel_queued("wide") is True
        assert agent.store.wait_terminal([narrow], timeout=2.0)
        assert agent.store.get("block").state is TaskState.RUNNING
    finally:
        release.set()
        agent.shutdown()


def test_bursts_of_mixed_widths_and_cancels_strand_no_task():
    # Workers go idle between bursts, so every burst depends on its wake-ups;
    # fast thread switching and more workers than cores expose a missed one.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    agent = make_agent(local_desc("p", cores=4))
    try:
        for burst in range(20):
            ids = [
                submit(
                    agent,
                    TaskDescription(
                        task_id=f"b{burst}-{i}", kind=TaskKind.ZERO_COMPUTE, requires_cores=1 + i % 4
                    ),
                )
                for i in range(8)
            ]
            # a cancel also wakes the workers, so only odd bursts cancel
            odd = burst % 2 == 1
            canceled = {tid for tid in ids[::3] if odd and agent.cancel_queued(tid)}
            rest = [tid for tid in ids if tid not in canceled]
            assert agent.store.wait_terminal(rest, timeout=5.0)
            assert {agent.store.get(tid).state for tid in rest} == {TaskState.DONE}
    finally:
        sys.setswitchinterval(previous)
        agent.shutdown()


def test_per_task_latency_is_spent_on_the_clock():
    agent = make_agent(local_desc("p", cores=1, latency_s=0.08))
    try:
        circ = Circuit(1, (Gate("H", (0,)),))
        t0 = time.monotonic()
        tid = submit(agent, _quantum_desc("lat", circ))
        agent.store.wait_terminal([tid], timeout=5.0)
        elapsed = time.monotonic() - t0
        rec = agent.store.get(tid)
        assert rec.result.exec_s >= 0.08
        assert elapsed >= 0.08
    finally:
        agent.shutdown()


def test_cancel_queued_only_removes_unstarted_tasks():
    release = threading.Event()
    agent = make_agent(local_desc("p", cores=1), functions={"block": release.wait})
    try:
        blocker = TaskDescription(
            task_id="block",
            kind=TaskKind.CLASSICAL_FN,
            payload=ClassicalPayload(function="block"),
        )
        submit(agent, blocker)
        queued = submit(agent, zero_task(1))
        time.sleep(0.05)  # let the worker pick up the blocker
        assert agent.cancel_queued(queued) is True
        assert agent.cancel_queued("block") is False
        release.set()
        agent.store.wait_terminal(["block"], timeout=5.0)
    finally:
        release.set()
        agent.shutdown()


def test_take_back_queued_returns_descriptions_in_order():
    release = threading.Event()
    agent = make_agent(local_desc("p", cores=1), functions={"block": release.wait})
    try:
        submit(
            agent,
            TaskDescription(
                task_id="block",
                kind=TaskKind.CLASSICAL_FN,
                payload=ClassicalPayload(function="block"),
            ),
        )
        time.sleep(0.05)
        a = submit(agent, zero_task(1))
        b = submit(agent, zero_task(2))
        taken = agent.take_back_queued()
        assert [tid for tid, _ in taken] == [a, b]
        assert agent.load() >= 1  # the blocker still runs
        release.set()
        agent.store.wait_terminal(["block"], timeout=5.0)
    finally:
        release.set()
        agent.shutdown()


def test_metrics_and_terminal_callbacks():
    seen = []
    agent = make_agent(on_terminal=seen.append)
    try:
        ids = [submit(agent, zero_task(i)) for i in range(5)]
        agent.store.wait_terminal(ids, timeout=5.0)
    finally:
        metrics = agent.shutdown()
    assert metrics.tasks_done == 5
    assert metrics.tasks_failed == 0
    assert metrics.busy_cores == 0
    assert metrics.queue_depth == 0
    assert sorted(r.task_id for r in seen) == sorted(ids)
    assert all(r.terminal for r in seen)


def test_drain_shutdown_finishes_queued_work():
    agent = make_agent(local_desc("p", cores=1, latency_s=0.01))
    ids = [
        submit(agent, _quantum_desc(f"d{i}", Circuit(1, (Gate("H", (0,)),)))) for i in range(4)
    ]
    metrics = agent.shutdown(drain=True)
    assert metrics.tasks_done == 4
    assert all(agent.store.get(t).state is TaskState.DONE for t in ids)


def test_cancel_shutdown_abandons_the_queue_as_canceled():
    release = threading.Event()
    agent = make_agent(local_desc("p", cores=1), functions={"block": release.wait})
    submit(
        agent,
        TaskDescription(
            task_id="block", kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function="block")
        ),
    )
    time.sleep(0.05)
    queued = [submit(agent, zero_task(i)) for i in range(3)]
    release.set()
    agent.shutdown(drain=False)
    states = {agent.store.get(t).state for t in queued}
    assert states == {TaskState.CANCELED}


def test_assign_after_shutdown_is_refused():
    agent = make_agent()
    agent.shutdown()
    with pytest.raises(AgentStopped):
        submit(agent, zero_task(9))


def test_shutdown_twice_returns_the_same_metrics():
    agent = make_agent()
    first = agent.shutdown()
    assert agent.shutdown() == first


def test_worker_count_cannot_exceed_allocation_cores():
    be = ResourceBackend(BackendKind.LOCAL)
    desc = local_desc("p", cores=2)
    alloc = be.provision(desc)
    with pytest.raises(WorkerOversubscription):
        PilotAgent(alloc, workers=3, backend=be)


def test_startup_delay_gates_readiness():
    clock = SimulatedClock(start=0.0)
    be = ResourceBackend(BackendKind.BATCH_SIM, clock=clock)
    batch = PilotDescription(name="b", backend_kind=BackendKind.BATCH_SIM, cores_per_node=2)
    alloc = be.provision(batch)
    agent = PilotAgent(alloc, clock=clock, log=EventLog(clock=clock), backend=be).start()
    try:
        assert alloc.granted_at_s == 37.0
        assert agent.wait_ready(timeout=2.0)  # the simulated clock jumps the 37 s
        assert clock.now() >= 37.0
    finally:
        agent.shutdown()


def test_cancel_shutdown_ends_the_wait_for_a_distant_grant():
    be = ResourceBackend(BackendKind.BATCH_SIM)
    batch = PilotDescription(
        name="b",
        backend_kind=BackendKind.BATCH_SIM,
        cores_per_node=2,
        queue_model=QueueModel(base_delay_s=30.0),
    )
    agent = PilotAgent(be.provision(batch), backend=be).start()
    time.sleep(0.05)  # let both workers start waiting for the grant
    t0 = time.monotonic()
    agent.shutdown(drain=False)
    assert time.monotonic() - t0 < 1.0
    assert not agent.wait_ready(timeout=0)


class _CancelAfterSchedule(TaskStore):
    """Cancels one task right after a worker schedules it."""

    def __init__(self, victim):
        super().__init__()
        self.victim = victim

    def try_advance(self, task_id, event, **kwargs):
        rec = super().try_advance(task_id, event, **kwargs)
        if task_id == self.victim and event == "schedule":
            self.advance(task_id, "cancel", reason="user request")
        return rec


def test_a_cancel_before_a_fail_fast_check_keeps_the_worker():
    be = ResourceBackend(BackendKind.LOCAL)
    desc = local_desc("p", cores=2)
    agent = start_agent(be.provision(desc), 1, store=_CancelAfterSchedule("wide"), backend=be)
    try:
        # wider than the one worker slot: the agent fails it fast after scheduling
        submit(agent, TaskDescription(task_id="wide", kind=TaskKind.ZERO_COMPUTE, requires_cores=2))
        assert agent.store.wait_terminal(["wide"], timeout=2.0)
        assert agent.store.get("wide").state is TaskState.CANCELED
        tid = submit(agent, zero_task(1))
        assert agent.store.wait_terminal([tid], timeout=2.0)
        assert agent.store.get(tid).state is TaskState.DONE
        assert agent.metrics().tasks_failed == 0
    finally:
        agent.shutdown()
