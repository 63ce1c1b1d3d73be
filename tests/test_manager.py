"""Pilot manager: placement, feasibility, lifecycle plumbing, events."""

import threading
import time

import pytest

from helpers import (
    assignments_by_pilot,
    audit_events,
    local_desc,
    qpu_desc,
    zero_task,
)
from pilotq.agent import PilotAgent, task_seed
from pilotq.backends import ResourceBackend
from pilotq.clock import SimulatedClock
from pilotq.errors import (
    DuplicatePilotName,
    DuplicateTaskId,
    UnknownPilot,
    UnknownTaskId,
    WorkerOversubscription,
)
from pilotq.events import EventLog, replay_task_states
from pilotq.manager import PilotManager
from pilotq.model import (
    BackendKind,
    ClassicalPayload,
    PilotDescription,
    QuantumPayload,
    QueueModel,
    TaskDescription,
    TaskKind,
    TaskState,
)
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable, random_circuit
from pilotq.qsim.simulate import DEFAULT_MEMORY_CAP_BYTES, memory_bytes, sim_qubit_capacity

SIM_QUBITS = sim_qubit_capacity(DEFAULT_MEMORY_CAP_BYTES)


@pytest.fixture
def manager():
    m = PilotManager()
    yield m
    m.shutdown()


def quantum_task(tid, n=2, shots=0, observable=None, seed=0, **kw):
    circ = random_circuit(n, 2, seed=seed)
    return TaskDescription(
        task_id=tid,
        kind=TaskKind.QUANTUM_CIRCUIT,
        payload=QuantumPayload(circuit=circ, shots=shots, observable=observable),
        requires_qubits=n,
        **kw,
    )


def test_submit_and_complete_roundtrip(manager):
    manager.create_pilot(local_desc("p", cores=2))
    ids = [manager.submit_task(zero_task(i)) for i in range(10)]
    result = manager.wait(ids, timeout=10.0)
    assert result.complete
    assert all(r.state is TaskState.DONE for r in result.records.values())


def test_duplicate_pilot_and_task_ids_are_rejected(manager):
    manager.create_pilot(local_desc("p"))
    with pytest.raises(DuplicatePilotName):
        manager.create_pilot(local_desc("p"))
    manager.submit_task(zero_task(0))
    with pytest.raises(DuplicateTaskId):
        manager.submit_task(zero_task(0))


def test_a_pilot_whose_agent_cannot_be_built_leaves_no_live_allocation(manager):
    backend = manager._backend
    with pytest.raises(WorkerOversubscription):
        manager.create_pilot(local_desc("p", cores=2), workers=3)
    assert backend.live_allocations() == []
    assert manager.status_snapshot()["pilots"] == []
    manager.create_pilot(local_desc("p", cores=2), workers=2)
    assert [a.pilot_name for a in backend.live_allocations()] == ["p"]


def test_remove_unknown_pilot_raises(manager):
    with pytest.raises(UnknownPilot):
        manager.remove_pilot("ghost")


def test_unknown_task_lookup_raises(manager):
    with pytest.raises(UnknownTaskId):
        manager.task("missing")


def test_advancing_or_canceling_an_unknown_task_raises(manager):
    with pytest.raises(UnknownTaskId):
        manager.store.advance("missing", "cancel")
    with pytest.raises(UnknownTaskId):
        manager.store.try_advance("missing", "cancel")
    with pytest.raises(UnknownTaskId):
        manager.cancel("missing")


def test_pilot_name_can_be_reused_after_removal(manager):
    manager.create_pilot(local_desc("p"))
    manager.remove_pilot("p")
    manager.create_pilot(local_desc("p", cores=2))
    assert manager.pilot_names() == ["p"]


# --- feasibility ----------------------------------------------------------------------


def test_target_affinity_restricts_placement(manager):
    manager.create_pilot(local_desc("a"))
    manager.create_pilot(local_desc("b"))
    pinned = zero_task(0, target="b")
    assert manager.feasible_pilots(pinned) == ["b"]
    manager.wait([manager.submit_task(pinned)], timeout=5.0)
    assert manager.task("z0").assigned_pilot == "b"


def test_resource_requirements_filter_pilots(manager):
    manager.create_pilot(local_desc("small", cores=2))
    manager.create_pilot(local_desc("big", cores=8, gpus_per_node=1))
    assert manager.feasible_pilots(zero_task(0, requires_cores=4)) == ["big"]
    assert manager.feasible_pilots(zero_task(1, requires_gpus=1)) == ["big"]
    assert manager.feasible_pilots(zero_task(2)) == ["big", "small"]


def test_qubit_feasibility_per_backend(manager):
    manager.create_pilot(local_desc("cpu", cores=2))
    manager.create_pilot(qpu_desc("qpu", qubits=30, cores=2))
    shots = quantum_task("s", n=28, shots=64)
    exact = quantum_task("e", n=2)
    wide_exact = quantum_task("w", n=28)
    # 28 qubits exceeds the classical memory cap but fits the QPU, which
    # however only samples: exact-mode tasks need the classical pilot.
    assert SIM_QUBITS < 28
    assert manager.feasible_pilots(shots) == ["qpu"]
    assert manager.feasible_pilots(exact) == ["cpu"]
    assert manager.feasible_pilots(wide_exact) == []


def test_sim_qubit_capacity_is_strict():
    cap = memory_bytes(10)
    assert sim_qubit_capacity(cap) == 9
    assert sim_qubit_capacity(cap + 1) == 10
    assert sim_qubit_capacity(16) == 0


def test_infeasible_everywhere_fails_fast(manager):
    manager.create_pilot(local_desc("p", cores=2))
    tid = manager.submit_task(zero_task(0, requires_cores=64))
    result = manager.wait([tid], timeout=5.0)
    rec = result.records[tid]
    assert rec.state is TaskState.FAILED
    assert "NoFeasiblePilot" in rec.error


def test_placement_counts_worker_slots_not_allocation_cores(manager):
    manager.create_pilot(local_desc("p", cores=4), workers=2)
    live = manager.submit_task(zero_task(0, requires_cores=3))
    manager.remove_pilot("p")
    manager.create_pilot(local_desc("q", cores=2))
    # a removed pilot counts with its worker slots too
    gone = manager.submit_task(zero_task(1, requires_cores=3))
    result = manager.wait([live, gone], timeout=5.0)
    for rec in result.records.values():
        assert rec.state is TaskState.FAILED
        assert "NoFeasiblePilot" in rec.error
        assert rec.timestamps.start_s is None


def test_task_waits_when_no_pilot_is_configured_yet(manager):
    tid = manager.submit_task(zero_task(0))
    time.sleep(0.05)
    assert manager.task(tid).state is TaskState.NEW  # waiting, not failed
    manager.create_pilot(local_desc("late"))
    assert manager.wait([tid], timeout=5.0).complete
    assert manager.task(tid).state is TaskState.DONE


def test_task_waits_for_a_removed_but_configured_pilot(manager):
    manager.create_pilot(local_desc("gpu", cores=2, gpus_per_node=1))
    manager.remove_pilot("gpu")
    manager.create_pilot(local_desc("plain", cores=2))
    tid = manager.submit_task(zero_task(0, requires_gpus=1))
    time.sleep(0.05)
    # a pilot that could run it existed once, so the task waits for its return
    assert manager.task(tid).state is TaskState.NEW
    manager.create_pilot(local_desc("gpu2", cores=2, gpus_per_node=1))
    assert manager.wait([tid], timeout=5.0).complete


def test_exact_mode_fails_fast_in_a_qpu_only_fleet(manager):
    manager.create_pilot(qpu_desc("qpu", qubits=8, cores=2))
    tid = manager.submit_task(quantum_task("e", n=2, shots=0))
    result = manager.wait([tid], timeout=5.0)
    assert result.records[tid].state is TaskState.FAILED
    assert "NoFeasiblePilot" in result.records[tid].error


# --- balance --------------------------------------------------------------------------


def test_homogeneous_batch_spreads_evenly(manager):
    manager.create_pilot(local_desc("a", cores=2))
    manager.create_pilot(local_desc("b", cores=2))
    manager.wait_pilots_ready()
    ids = [manager.submit_task(zero_task(i)) for i in range(50)]
    manager.wait(ids, timeout=10.0)
    counts = assignments_by_pilot(manager.log.records)
    assert set(counts) == {"a", "b"}
    assert abs(counts["a"] - counts["b"]) <= 1


def test_placement_ties_go_to_the_pilot_with_fewer_assignments(manager):
    manager.create_pilot(local_desc("a", cores=2))
    manager.create_pilot(local_desc("b", cores=2))
    manager.wait_pilots_ready()
    for i in range(10):  # both pilots are idle at every submit
        assert manager.wait([manager.submit_task(zero_task(i))], timeout=10.0).complete
    assert assignments_by_pilot(manager.log.records) == {"a": 5, "b": 5}


def test_explicit_scheduling_mode(manager=None):
    m = PilotManager(auto_schedule=False)
    try:
        m.create_pilot(local_desc("p", cores=2))
        ids = [m.submit_task(zero_task(i)) for i in range(4)]
        time.sleep(0.05)
        assert all(m.task(t).state is TaskState.NEW for t in ids)
        assigned = m.schedule_pending()
        assert sorted(t for t, _ in assigned) == sorted(ids)
        assert m.wait(ids, timeout=5.0).complete
    finally:
        m.shutdown()


# --- cancellation and retries ------------------------------------------------------------


def blocking_function(started: threading.Semaphore, release: threading.Event):
    def block():
        started.release()
        release.wait()

    return block


def test_cancel_a_queued_task(manager):
    # both pilots busy, the victim queued on the second one created
    started, release = threading.Semaphore(0), threading.Event()
    manager.register_function("block", blocking_function(started, release))
    manager.create_pilot(local_desc("p", cores=1))
    manager.create_pilot(local_desc("q", cores=1))
    blockers = [
        manager.submit_task(
            TaskDescription(
                task_id=f"block-{name}",
                kind=TaskKind.CLASSICAL_FN,
                payload=ClassicalPayload(function="block"),
                target=name,
            )
        )
        for name in ("p", "q")
    ]
    try:
        assert started.acquire(timeout=5.0) and started.acquire(timeout=5.0)
        victim = manager.submit_task(zero_task(1, target="q"))
        depths = {p["name"]: p["queue_depth"] for p in manager.status_snapshot()["pilots"]}
        assert depths == {"p": 0, "q": 1}
        outcome = manager.cancel(victim)
        assert outcome.canceled
        assert outcome.record.state is TaskState.CANCELED
        assert all(p["queue_depth"] == 0 for p in manager.status_snapshot()["pilots"])
    finally:
        release.set()
    assert manager.wait(blockers, timeout=5.0).complete
    assert all(manager.task(t).state is TaskState.DONE for t in blockers)
    assert manager.task(victim).state is TaskState.CANCELED


def test_cancel_after_completion_reports_not_canceled(manager):
    manager.create_pilot(local_desc("p"))
    tid = manager.submit_task(zero_task(0))
    manager.wait([tid], timeout=5.0)
    outcome = manager.cancel(tid)
    assert not outcome.canceled
    assert outcome.record.state is TaskState.DONE


def test_failed_attempts_retry_on_the_manager(manager):
    calls = {"n": 0}
    lock = threading.Lock()

    def flaky():
        with lock:
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first attempt dies")
        return "ok"

    manager.register_function("flaky", flaky)
    manager.create_pilot(local_desc("p", cores=2))
    desc = TaskDescription(
        task_id="f",
        kind=TaskKind.CLASSICAL_FN,
        payload=ClassicalPayload(function="flaky"),
        max_retries=1,
    )
    tid = manager.submit_task(desc)
    result = manager.wait([tid], timeout=10.0)
    rec = result.records[tid]
    assert rec.state is TaskState.DONE
    assert rec.attempt == 1
    assert rec.result.data == "ok"
    assert calls["n"] == 2
    # the retried attempt is not a failed task in the pilot's counts
    (pilot,) = manager.status_snapshot()["pilots"]
    assert pilot["tasks_failed"] == 0
    metrics = manager.remove_pilot("p")
    assert (metrics.tasks_done, metrics.tasks_failed) == (1, 0)


def test_a_function_registered_after_create_pilot_reaches_the_agent(manager):
    manager.create_pilot(local_desc("p", cores=1))
    manager.register_function("late", lambda x: x + 1)
    desc = TaskDescription(
        task_id="late",
        kind=TaskKind.CLASSICAL_FN,
        payload=ClassicalPayload(function="late", args=(41,)),
    )
    rec = manager.wait([manager.submit_task(desc)], timeout=10.0).records["late"]
    assert rec.state is TaskState.DONE, rec.error
    assert rec.result.data == 42


def test_retries_exhaust_to_failed(manager):
    manager.register_function("die", lambda: (_ for _ in ()).throw(RuntimeError("always")))
    manager.create_pilot(local_desc("p", cores=2))
    desc = TaskDescription(
        task_id="d",
        kind=TaskKind.CLASSICAL_FN,
        payload=ClassicalPayload(function="die"),
        max_retries=2,
    )
    tid = manager.submit_task(desc)
    rec = manager.wait([tid], timeout=10.0).records[tid]
    assert rec.state is TaskState.FAILED
    assert rec.attempt == 3
    assert "always" in rec.error


# --- pilot removal ---------------------------------------------------------------------


def test_remove_without_drain_requeues_onto_survivors(manager):
    release = threading.Event()
    manager.register_function("block", release.wait)
    manager.create_pilot(local_desc("a", cores=1))
    blocker = TaskDescription(
        task_id="block",
        kind=TaskKind.CLASSICAL_FN,
        payload=ClassicalPayload(function="block"),
        target="a",
    )
    manager.submit_task(blocker)
    time.sleep(0.05)
    ids = [manager.submit_task(zero_task(i)) for i in range(5)]
    release.set()
    manager.remove_pilot("a", drain=False)
    manager.create_pilot(local_desc("b", cores=2))
    result = manager.wait(ids, timeout=10.0)
    assert result.complete
    assert all(r.state is TaskState.DONE for r in result.records.values())
    assert all(r.assigned_pilot == "b" for r in result.records.values())


def test_requeued_tasks_are_placed_before_the_removed_pilot_stops(manager):
    # the removed pilot's worker is still busy, so its shutdown cannot return
    # until the blocker is released; the requeued tasks must not wait for it
    started, release = threading.Semaphore(0), threading.Event()
    manager.register_function("block", blocking_function(started, release))
    manager.create_pilot(local_desc("a", cores=1))
    blocker = manager.submit_task(
        TaskDescription(
            task_id="block",
            kind=TaskKind.CLASSICAL_FN,
            payload=ClassicalPayload(function="block"),
            target="a",
        )
    )
    remover = threading.Thread(target=manager.remove_pilot, args=("a",), kwargs={"drain": False})
    try:
        assert started.acquire(timeout=5.0)
        ids = [manager.submit_task(zero_task(i)) for i in range(5)]
        manager.create_pilot(local_desc("b", cores=2))
        remover.start()
        result = manager.wait(ids, timeout=5.0)
        assert manager.task(blocker).state is TaskState.RUNNING
        assert result.complete
        assert all(r.state is TaskState.DONE for r in result.records.values())
        assert all(r.assigned_pilot == "b" for r in result.records.values())
    finally:
        release.set()
    remover.join(timeout=5.0)
    assert not remover.is_alive()
    assert manager.wait([blocker], timeout=5.0).complete


def test_drain_removal_finishes_assigned_work(manager):
    manager.create_pilot(local_desc("a", cores=1, latency_s=0.01))
    ids = [
        manager.submit_task(quantum_task(f"q{i}", n=2, shots=0, seed=i)) for i in range(6)
    ]
    metrics = manager.remove_pilot("a", drain=True)
    assert metrics.tasks_done == 6
    assert all(manager.task(t).state is TaskState.DONE for t in ids)


def test_wait_timeout_reports_incomplete(manager):
    release = threading.Event()
    manager.register_function("block", release.wait)
    manager.create_pilot(local_desc("p", cores=1))
    desc = TaskDescription(
        task_id="block", kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function="block")
    )
    tid = manager.submit_task(desc)
    result = manager.wait([tid], timeout=0.1)
    assert not result.complete
    release.set()
    assert manager.wait([tid], timeout=5.0).complete


# --- quantum routing end to end -----------------------------------------------------------


def test_exact_and_sampled_tasks_route_to_matching_backends(manager):
    manager.create_pilot(local_desc("cpu", cores=2))
    manager.create_pilot(qpu_desc("qpu", qubits=8, cores=2))
    manager.wait_pilots_ready()
    bell = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    exact = TaskDescription(
        task_id="e",
        kind=TaskKind.QUANTUM_CIRCUIT,
        payload=QuantumPayload(circuit=bell, observable=PauliObservable.single(2, {0: "Z", 1: "Z"})),
        requires_qubits=2,
    )
    sampled = TaskDescription(
        task_id="s",
        kind=TaskKind.QUANTUM_CIRCUIT,
        payload=QuantumPayload(circuit=bell, shots=128),
        requires_qubits=2,
    )
    result = manager.wait([manager.submit_task(exact), manager.submit_task(sampled)], timeout=10.0)
    e, s = result.records["e"], result.records["s"]
    assert e.assigned_pilot == "cpu"
    assert e.result.value == pytest.approx(1.0, abs=1e-9)  # ZZ on a Bell pair
    assert s.assigned_pilot == "qpu"
    assert sum(s.result.counts.values()) == 128
    assert set(s.result.counts) <= {"00", "11"}
    # the agent's qpu path samples exactly as a direct qpu_execute call does
    backend = ResourceBackend()
    alloc = backend.provision(qpu_desc("ref", qubits=8, cores=2))
    assert s.result.counts == backend.qpu_execute(bell, 128, alloc, rng_seed=task_seed("s")).counts


# --- introspection and audit ------------------------------------------------------------


def test_status_snapshot_shape(manager):
    manager.create_pilot(local_desc("p", cores=3))
    ids = [manager.submit_task(zero_task(i)) for i in range(7)]
    manager.wait(ids, timeout=5.0)
    snap = manager.status_snapshot()
    assert snap["pending"] == 0
    assert snap["tasks"] == {"DONE": 7}
    (pilot,) = snap["pilots"]
    assert pilot["name"] == "p"
    assert pilot["backend_kind"] == "local"
    assert pilot["total_cores"] == 3
    assert pilot["tasks_done"] == 7
    assert snap["uptime_s"] >= 0.0


def test_event_stream_replay_matches_the_store(manager):
    manager.create_pilot(local_desc("a", cores=2))
    manager.create_pilot(local_desc("b", cores=2))
    ids = [manager.submit_task(zero_task(i)) for i in range(40)]
    ids.append(manager.submit_task(zero_task(99, requires_cores=32)))  # fails placement
    manager.wait(ids, timeout=10.0)
    replayed = replay_task_states(manager.log.records)
    for tid in ids:
        assert replayed[tid] is manager.task(tid).state
    violations = audit_events(manager.log.records, sim_qubits=SIM_QUBITS)
    assert violations == []


def test_shutdown_drains_everything(manager):
    manager.create_pilot(local_desc("a", cores=2))
    ids = [manager.submit_task(quantum_task(f"q{i}", n=3, shots=0, seed=i)) for i in range(8)]
    manager.shutdown(drain=True)
    assert all(manager.task(t).state is TaskState.DONE for t in ids)
    assert manager.pilot_names() == []


def test_cancel_shutdown_cancels_every_queue(manager):
    # one running task per 1-core pilot, three queued behind each: a
    # cancel-shutdown finishes the running three and cancels the other nine
    started, release = threading.Semaphore(0), threading.Event()
    manager.register_function("block", blocking_function(started, release))
    for name in ("a", "b", "c"):
        manager.create_pilot(local_desc(name, cores=1))
    ids = [
        manager.submit_task(
            TaskDescription(
                task_id=f"t{i}", kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function="block")
            )
        )
        for i in range(12)
    ]
    stopper = threading.Thread(target=manager.shutdown, kwargs={"drain": False})
    try:
        assert all(started.acquire(timeout=5.0) for _ in range(3))
        stopper.start()
        # the running tasks end only once every queue has been dealt with
        manager.wait(ids[3:], timeout=5.0)
    finally:
        release.set()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive()
    states = {tid: rec.state for tid, rec in manager.store.snapshot().items()}
    assert sorted(s.value for s in states.values()) == ["CANCELED"] * 9 + ["DONE"] * 3
    assert replay_task_states(manager.log.records) == states
    reasons = [e.attrs["reason"] for e in manager.log.records if e.event == "task_canceled"]
    assert reasons == ["manager shutdown"] * 9


def test_shutdown_cancels_a_retry_that_no_pilot_is_left_to_run(manager):
    # the only pilot is already removed when the first attempt fails, so the
    # retry comes back pending with nothing to run it
    started, release = threading.Semaphore(0), threading.Event()

    def fail_after_release():
        started.release()
        release.wait()
        raise RuntimeError("first attempt dies")

    manager.register_function("fail", fail_after_release)
    manager.create_pilot(local_desc("p", cores=1))
    tid = manager.submit_task(
        TaskDescription(
            task_id="r",
            kind=TaskKind.CLASSICAL_FN,
            payload=ClassicalPayload(function="fail"),
            max_retries=1,
        )
    )
    stopper = threading.Thread(target=manager.shutdown, kwargs={"drain": True})
    try:
        assert started.acquire(timeout=5.0)
        stopper.start()
        deadline = time.monotonic() + 5.0
        while manager.pilot_names() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert manager.pilot_names() == []
    finally:
        release.set()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive()
    assert manager.wait([tid], timeout=1.0).complete
    states = {t: rec.state for t, rec in manager.store.snapshot().items()}
    assert states == {tid: TaskState.CANCELED}
    assert replay_task_states(manager.log.records) == states


class _SlowDoneLog(EventLog):
    """Takes 0.2 s to write task_done, so a late write shows as a gap."""

    def emit(self, entity, entity_id, event, **attrs):
        if event == "task_done":
            time.sleep(0.2)
        return super().emit(entity, entity_id, event, **attrs)


def test_the_log_never_lags_the_store():
    log = _SlowDoneLog()
    manager = PilotManager(log=log)
    try:
        manager.create_pilot(local_desc("p", cores=1))
        tid = manager.submit_task(zero_task(0))
        assert manager.wait([tid], timeout=5.0).complete
        assert replay_task_states(log.records)[tid] is TaskState.DONE
    finally:
        manager.shutdown()


# --- readiness and virtual time ----------------------------------------------------------


def batch_desc(name, cores=1, base_delay_s=None):
    qm = None if base_delay_s is None else QueueModel(base_delay_s=base_delay_s)
    return PilotDescription(
        name=name, backend_kind=BackendKind.BATCH_SIM, cores_per_node=cores, queue_model=qm
    )


def test_wait_pilots_ready_shares_one_deadline_across_pilots(manager):
    manager.create_pilot(batch_desc("early", base_delay_s=0.5))
    manager.create_pilot(batch_desc("late", base_delay_s=1.3))
    assert manager.wait_pilots_ready(timeout=1.0) is False


def test_every_worker_lands_on_the_grant_on_a_simulated_clock():
    clock = SimulatedClock()
    manager = PilotManager(clock=clock)
    try:
        manager.create_pilot(batch_desc("b", cores=4))  # the default 37 s batch queue
        assert manager.wait_pilots_ready(timeout=5.0)
        assert clock.now() == 37.0
        ready = [e for e in manager.log.records if e.event == "agent_ready"]
        assert [(e.entity_id, e.ts_s) for e in ready] == [("b", 37.0)]
    finally:
        manager.shutdown()


def test_a_drain_shutdown_of_an_idle_pilot_skips_its_grant():
    clock = SimulatedClock()
    manager = PilotManager(clock=clock)
    manager.create_pilot(batch_desc("b", cores=2))  # the default 37 s batch queue
    manager.shutdown()
    assert clock.now() == 0.0
    events = [e.event for e in manager.log.records]
    assert "agent_stopped" in events and "pilot_removed" in events
    assert "agent_ready" not in events


def test_a_drain_stop_before_the_grant_still_runs_queued_work():
    clock = SimulatedClock()
    manager = PilotManager(clock=clock)
    manager.create_pilot(batch_desc("b", cores=2))
    ids = [manager.submit_task(zero_task(i)) for i in range(6)]
    manager.shutdown()
    assert all(manager.task(t).state is TaskState.DONE for t in ids)
    ready = [e for e in manager.log.records if e.event == "agent_ready"]
    assert [(e.entity_id, e.ts_s) for e in ready] == [("b", 37.0)]


def test_walltime_expiry_fails_work_dispatched_after_it():
    clock = SimulatedClock()
    manager = PilotManager(clock=clock, functions={"one": lambda: 1})
    try:
        manager.create_pilot(local_desc("p", cores=1, latency_s=6.0, walltime_s=10.0))
        ids = [
            manager.submit_task(
                TaskDescription(
                    task_id=f"w{i}",
                    kind=TaskKind.CLASSICAL_FN,
                    payload=ClassicalPayload(function="one"),
                )
            )
            for i in range(3)
        ]
        assert manager.wait(ids, timeout=5.0).complete
        records = [manager.task(t) for t in ids]
        assert [r.state for r in records] == [TaskState.DONE, TaskState.DONE, TaskState.FAILED]
        assert records[2].error.startswith("WalltimeExpired")
        assert clock.now() == 12.0
    finally:
        manager.shutdown()


def fn_task(tid, function="one", **kw):
    return TaskDescription(
        task_id=tid, kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function=function), **kw
    )


@pytest.mark.parametrize("simulated", [False, True], ids=["wall", "simulated"])
def test_a_pilot_past_its_walltime_leaves_placement(simulated):
    clock = SimulatedClock() if simulated else None
    manager = PilotManager(clock=clock, functions={"one": lambda: 1})
    try:
        manager.create_pilot(local_desc("a", cores=2, walltime_s=0.3))
        manager.create_pilot(local_desc("b", cores=2, walltime_s=3600.0))
        (clock or time).sleep(0.5)
        assert manager.feasible_pilots(fn_task("t")) == ["b"]
        ids = [manager.submit_task(fn_task(f"t{i}", max_retries=3)) for i in range(20)]
        assert manager.wait(ids, timeout=10.0).complete
        records = [manager.task(t) for t in ids]
        assert all(r.state is TaskState.DONE for r in records)
        assert {r.assigned_pilot for r in records} == {"b"}
    finally:
        manager.shutdown()


def test_a_pilot_that_expires_between_fits_and_assign_raises_nowhere(monkeypatch):
    # The walltime ends right after placement's fits says yes: on the first
    # placement (in submit_task) and on the retry's (in the worker's callback).
    clock = SimulatedClock()
    fits, expire_next = PilotAgent.fits, []

    def fits_then_expire(agent, task):
        ok = fits(agent, task)
        if ok and expire_next:
            expire_next.pop()
            clock.sleep(agent.allocation.expires_at_s - clock.now() + 1.0)
        return ok

    def fail_then_expire():
        expire_next.append(True)
        raise RuntimeError("first attempt")

    monkeypatch.setattr(PilotAgent, "fits", fits_then_expire)
    manager = PilotManager(clock=clock, functions={"one": lambda: 1, "fail": fail_then_expire})
    try:
        manager.create_pilot(local_desc("a", cores=1, walltime_s=10.0))
        expire_next.append(True)
        first = manager.submit_task(fn_task("s"))
        assert manager.wait([first], timeout=5.0).complete
        manager.create_pilot(local_desc("b", cores=1, walltime_s=10.0))
        second = manager.submit_task(fn_task("r", "fail", target="b", max_retries=1))
        assert manager.wait([second], timeout=5.0).complete
        for tid, pilot in ((first, "a"), (second, "b")):
            record = manager.task(tid)
            assert record.state is TaskState.FAILED
            assert record.assigned_pilot == pilot
            assert record.error.startswith("WalltimeExpired")
    finally:
        manager.shutdown()


def test_a_worker_starts_no_task_once_placement_refuses_its_pilot():
    # At now == expires_at_s the walltime has ended for placement and for dispatch alike.
    clock = SimulatedClock()
    manager = PilotManager(clock=clock, functions={"one": lambda: 1})
    try:
        manager.create_pilot(local_desc("p", cores=1, latency_s=5.0, walltime_s=10.0))
        ids = [manager.submit_task(fn_task(f"w{i}")) for i in range(3)]
        assert manager.wait(ids, timeout=5.0).complete
        assert manager.feasible_pilots(fn_task("t")) == []
        records = [manager.task(t) for t in ids]
        assert [r.state for r in records] == [TaskState.DONE, TaskState.DONE, TaskState.FAILED]
        assert records[2].error.startswith("WalltimeExpired")
        assert records[2].timestamps.start_s is None
        assert records[2].timestamps.end_s == 10.0
        assert clock.now() == 10.0
    finally:
        manager.shutdown()


@pytest.mark.parametrize("simulated", [False, True], ids=["wall", "simulated"])
def test_an_expired_pilot_hands_its_queue_back(simulated):
    # One worker, 6 s per task, a 10 s walltime (0.06 s and 0.1 s on the wall
    # clock): the task popped after expiry fails, the rest go to the live pilot.
    clock = SimulatedClock() if simulated else None
    scale = 1.0 if simulated else 0.01
    manager = PilotManager(clock=clock, functions={"one": lambda: 1})
    try:
        manager.create_pilot(
            local_desc("a", cores=1, latency_s=6.0 * scale, walltime_s=10.0 * scale)
        )
        ids = [manager.submit_task(fn_task(f"w{i}")) for i in range(5)]
        manager.create_pilot(local_desc("b", cores=1))
        assert manager.wait(ids, timeout=10.0).complete
        records = [manager.task(t) for t in ids]
        failed = [i for i, r in enumerate(records) if r.state is TaskState.FAILED]
        if simulated:
            assert failed == [2]
        assert len(failed) == 1  # only the task a worker had popped
        expired = records[failed[0]]
        assert expired.assigned_pilot == "a" and expired.error.startswith("WalltimeExpired")
        before, after = records[: failed[0]], records[failed[0] + 1 :]
        assert all(r.state is TaskState.DONE and r.assigned_pilot == "a" for r in before)
        assert after and all(r.state is TaskState.DONE and r.assigned_pilot == "b" for r in after)
        events = manager.log.records
        requeued = [(e.entity_id, e.attrs) for e in events if e.event == "task_requeued"]
        assert requeued == [(r.task_id, {"reason": "pilot a walltime ended"}) for r in after]
        assert audit_events(events, sim_qubits=SIM_QUBITS) == []
        live = {tid: rec.state for tid, rec in manager.store.snapshot().items()}
        assert replay_task_states(events) == live
    finally:
        manager.shutdown()


def test_qpu_latency_paces_one_worker_on_a_simulated_clock():
    clock = SimulatedClock()
    manager = PilotManager(clock=clock)
    try:
        manager.create_pilot(qpu_desc("q", qubits=2, cores=1, latency_s=3.0))
        ids = [manager.submit_task(quantum_task(f"s{i}", shots=16, seed=i)) for i in range(3)]
        assert manager.wait(ids, timeout=5.0).complete
        records = [manager.task(t) for t in ids]
        assert [r.timestamps.end_s for r in records] == [3.0, 6.0, 9.0]
        assert all(r.result.exec_s >= 3.0 for r in records)
    finally:
        manager.shutdown()
