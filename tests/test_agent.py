"""Pilot agent: worker pool behaviour, payload execution, cancellation."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import local_desc, monotone, qpu_desc, zero_task
import pilotq
from pilotq.agent import PilotAgent, task_seed
from pilotq.backends import ResourceBackend, run_registered
from pilotq.clock import SimulatedClock
from pilotq.errors import AgentStopped, ValidationError, WorkerOversubscription
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
    backend = backend or ResourceBackend()
    alloc = backend.provision(desc)
    return PilotAgent(
        alloc,
        workers,
        functions=functions or {},
        backend=backend,
        on_terminal=on_terminal,
    ).start()


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
        assert monotone(rec.timestamps)
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
        metrics = agent.shutdown()
    # the counters and slots move in the same locked block as the task's end
    done = [r for r in agent.store.snapshot().values() if r.state is TaskState.DONE]
    assert (metrics.tasks_done, metrics.tasks_failed, metrics.busy_cores) == (len(done), 0, 0)


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
    be = ResourceBackend()
    desc = local_desc("p", cores=2)
    alloc = be.provision(desc)
    with pytest.raises(WorkerOversubscription):
        PilotAgent(alloc, workers=3, backend=be)


def test_startup_delay_gates_readiness():
    clock = SimulatedClock(start=0.0)
    be = ResourceBackend(clock=clock)
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
    be = ResourceBackend()
    batch = PilotDescription(
        name="b",
        backend_kind=BackendKind.BATCH_SIM,
        cores_per_node=2,
        queue_model=QueueModel(base_delay_s=30.0),
    )
    agent = PilotAgent(be.provision(batch), backend=be).start()
    assert not agent.wait_ready(timeout=0.05)  # both workers now wait for the grant
    t0 = time.monotonic()
    agent.shutdown(drain=False)
    assert time.monotonic() - t0 < 1.0
    assert not agent.wait_ready(timeout=0)


def test_drain_shutdown_of_an_idle_agent_skips_the_grant():
    clock = SimulatedClock()
    log = EventLog(clock=clock)
    be = ResourceBackend(clock=clock)
    batch = PilotDescription(name="b", backend_kind=BackendKind.BATCH_SIM, cores_per_node=2)
    agent = PilotAgent(be.provision(batch), clock=clock, log=log, backend=be).start()
    agent.shutdown(drain=True)
    assert clock.now() == 0.0
    assert [e.event for e in log.records] == ["agent_stopped"]
    assert not agent.wait_ready(timeout=0)


def test_drain_shutdown_ends_the_wait_for_a_distant_grant():
    be = ResourceBackend()
    batch = PilotDescription(
        name="b",
        backend_kind=BackendKind.BATCH_SIM,
        cores_per_node=2,
        queue_model=QueueModel(base_delay_s=30.0),
    )
    agent = PilotAgent(be.provision(batch), backend=be).start()
    assert not agent.wait_ready(timeout=0.05)  # both workers now wait for the grant
    t0 = time.monotonic()
    agent.shutdown(drain=True)
    assert time.monotonic() - t0 < 1.0


def test_wait_ready_ends_when_the_agent_stops_before_its_grant():
    be = ResourceBackend()
    batch = PilotDescription(
        name="b",
        backend_kind=BackendKind.BATCH_SIM,
        cores_per_node=2,
        queue_model=QueueModel(base_delay_s=30.0),
    )
    agent = PilotAgent(be.provision(batch), backend=be).start()
    outcomes = []
    waiters = [
        threading.Thread(target=lambda t=t: outcomes.append(agent.wait_ready(t)), daemon=True)
        for t in (5.0, None)
    ]
    for w in waiters:
        w.start()
    time.sleep(0.05)  # both waiters now wait for the grant
    t0 = time.monotonic()
    agent.shutdown(drain=True)
    for w in waiters:
        w.join(5.0)
    assert time.monotonic() - t0 < 1.0
    assert outcomes == [False, False]


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
    clock = SimulatedClock(start=0.0)
    be = ResourceBackend(clock=clock)
    alloc = be.provision(local_desc("p", cores=1, walltime_s=10.0))
    clock.sleep(11.0)  # past expires_at_s: the agent fails each task fast after scheduling
    agent = PilotAgent(alloc, clock=clock, store=_CancelAfterSchedule("late"), backend=be).start()
    try:
        submit(agent, TaskDescription(task_id="late", kind=TaskKind.ZERO_COMPUTE))
        assert agent.store.wait_terminal(["late"], timeout=2.0)
        assert agent.store.get("late").state is TaskState.CANCELED
        # the one worker lives on to fail the next task itself
        tid = submit(agent, zero_task(1))
        assert agent.store.wait_terminal([tid], timeout=2.0)
        assert agent.store.get(tid).error.startswith("WalltimeExpired")
        assert agent.metrics().tasks_failed == 1
    finally:
        agent.shutdown()


def test_assign_rejects_a_task_that_can_never_fit():
    agent = make_agent(local_desc("p", cores=2, gpus_per_node=1), workers=1)
    qpu = make_agent(qpu_desc("q", qubits=3))
    try:
        for desc in (
            zero_task(0, requires_cores=2),
            zero_task(1, requires_gpus=2),
            zero_task(2, target="other"),
        ):
            with pytest.raises(ValidationError):
                agent.assign(new_record(desc, at=0.0))
        assert agent.load() == 0
        for desc in (
            _quantum_desc("wide", random_circuit(4, 2, seed=0), shots=16),
            _quantum_desc("exact", random_circuit(2, 2, seed=0)),
            zero_task(3, target="p"),
        ):
            assert not qpu.fits(desc)
            with pytest.raises(ValidationError):
                qpu.assign(new_record(desc, at=0.0))
        assert qpu.load() == 0
        assert agent.fits(zero_task(4, target="p"))
        assert qpu.fits(_quantum_desc("sampled", random_circuit(3, 2, seed=0), shots=16))
    finally:
        agent.shutdown()
        qpu.shutdown()


# --- registered functions: host worker processes or the worker thread ----------
#
# A module-level function of an importable module runs in a host worker
# process; any other function runs in the agent's worker thread.


def child_pid():
    return os.getpid()


def child_sys_path():
    return sys.path


def raise_boom():
    raise ValueError("boom")


class TwoPartError(Exception):
    def __init__(self, first, second):  # unpickling calls it with one argument
        super().__init__(f"{first}-{second}")


def raise_two_part():
    raise TwoPartError("a", "b")


def exit_three():
    os._exit(3)


def print_and_double(x):
    print(f"doubling {x}")
    return 2 * x


def _run_functions(functions, calls):
    """Run each (name, args) call as a classical task; the terminal records in order."""
    agent = make_agent(local_desc("p", cores=1), functions=functions)
    try:
        ids = []
        for i, (name, args) in enumerate(calls):
            desc = TaskDescription(
                task_id=f"f{i}",
                kind=TaskKind.CLASSICAL_FN,
                payload=ClassicalPayload(function=name, args=args),
            )
            ids.append(submit(agent, desc))
        assert agent.store.wait_terminal(ids, timeout=30.0)
        return [agent.store.get(tid) for tid in ids]
    finally:
        agent.shutdown()


def test_a_module_level_function_runs_in_a_host_process():
    (rec,) = _run_functions({"pid": child_pid}, [("pid", ())])
    assert rec.state is TaskState.DONE
    assert rec.result.data != os.getpid()
    (path,) = _run_functions({"path": child_sys_path}, [("path", ())])
    assert path.result.data == sys.path


def test_lambdas_closures_and_main_functions_run_in_the_worker_thread():
    def closure():
        return os.getpid()

    namespace = {"__name__": "__main__", "os": os}
    exec("def main_pid():\n    return os.getpid()\n", namespace)
    main_pid = namespace["main_pid"]
    assert main_pid.__module__ == "__main__"
    functions = {"lambda": lambda: os.getpid(), "closure": closure, "main": main_pid}
    recs = _run_functions(functions, [(name, ()) for name in functions])
    assert [r.result.data for r in recs] == [os.getpid()] * 3


def test_an_exception_in_a_host_process_reads_as_in_thread():
    def in_thread():
        raise ValueError("boom")

    recs = _run_functions({"child": raise_boom, "thread": in_thread}, [("child", ()), ("thread", ())])
    assert [r.state for r in recs] == [TaskState.FAILED] * 2
    assert [r.error for r in recs] == ["ValueError: boom"] * 2


def test_an_exception_that_cannot_be_pickled_comes_back_as_a_runtime_error():
    (rec,) = _run_functions({"two": raise_two_part}, [("two", ())])
    assert rec.error == "RuntimeError: TwoPartError: a-b"


def test_a_host_process_that_exits_fails_only_its_own_task():
    recs = _run_functions(
        {"exit": exit_three, "pid": child_pid}, [("exit", ()), ("pid", ()), ("pid", ())]
    )
    assert recs[0].state is TaskState.FAILED
    assert recs[0].error.startswith("HostProcessExited")
    assert "status 3" in recs[0].error
    assert [r.state for r in recs[1:]] == [TaskState.DONE] * 2
    assert recs[1].result.data != os.getpid()


def test_a_host_process_killed_while_idle_is_replaced_for_the_next_task():
    (first,) = _run_functions({"pid": child_pid}, [("pid", ())])
    pid = first.result.data
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, and not yet reaped by its owner
    (second,) = _run_functions({"pid": child_pid}, [("pid", ())])
    assert second.state is TaskState.DONE
    assert second.result.data not in (pid, os.getpid())


def test_a_function_that_prints_still_returns_its_result():
    (rec,) = _run_functions({"double": print_and_double}, [("double", (21,))])
    assert rec.state is TaskState.DONE
    assert rec.result.data == 42


def test_concurrent_callers_share_at_most_one_host_process_per_core():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pids, errors = [], []

        def caller():
            try:
                for _ in range(10):
                    pids.append(run_registered(child_pid))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(2 * (os.cpu_count() or 1) + 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(pids) == 10 * len(threads)
    assert os.getpid() not in pids
    assert len(set(pids)) <= (os.cpu_count() or 1)


_LEAK_SCRIPT = """
import json, os, sys
sys.path[:0] = [{src!r}, {tests!r}, {tmp!r}]
from helpers import local_desc
from pilotq import ClassicalPayload, PilotManager, TaskDescription, TaskKind
import pidfn

manager = PilotManager(functions={{"pid": pidfn.pid}})
manager.create_pilot(local_desc("p", cores=2))
ids = [
    manager.submit_task(
        TaskDescription(
            task_id=f"t{{i}}", kind=TaskKind.CLASSICAL_FN, payload=ClassicalPayload(function="pid")
        )
    )
    for i in range(4)
]
outcome = manager.wait(ids, timeout=60.0)
manager.shutdown()
print(json.dumps({{"me": os.getpid(), "children": sorted({{r.result.data for r in outcome.records.values()}})}}))
"""


def test_no_host_process_outlives_the_interpreter(tmp_path):
    (tmp_path / "pidfn.py").write_text("import os\n\n\ndef pid():\n    return os.getpid()\n")
    script = _LEAK_SCRIPT.format(
        src=str(Path(pilotq.__file__).parent.parent),
        tests=str(Path(__file__).parent),
        tmp=str(tmp_path),
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    pids = json.loads(done.stdout.splitlines()[-1])
    assert pids["children"] and pids["me"] not in pids["children"]
    for pid in pids["children"]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# pilotq found through a relative sys.path entry, then the cwd changes before
# the first registered call starts a host process.
_RELATIVE_PATH_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
import pilotq.agent
from pilotq.backends import run_registered
os.chdir({elsewhere!r})
print(run_registered(pilotq.agent.task_seed, "x"))
"""


def test_a_host_process_resolves_a_relative_sys_path_entry_after_chdir(tmp_path):
    src = Path(pilotq.__file__).parent.parent
    script = _RELATIVE_PATH_SCRIPT.format(src=src.name, elsewhere=str(tmp_path))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=src.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(task_seed("x"))]


# A host process that cannot import pilotq: a directory put first on sys.path
# after the parent's import shadows the package with one that fails.
_BROKEN_IMPORT_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import pilotq.agent
from pilotq.backends import run_registered
sys.path.insert(0, {shadow!r})
try:
    run_registered(pilotq.agent.task_seed, "x")
except Exception as exc:
    print(type(exc).__name__, exc)
sys.path.remove({shadow!r})
print(run_registered(pilotq.agent.task_seed, "x"))
"""


def test_a_host_process_that_cannot_start_reports_why(tmp_path):
    (tmp_path / "pilotq").mkdir()
    (tmp_path / "pilotq" / "__init__.py").write_text('raise ImportError("boom")\n')
    script = _BROKEN_IMPORT_SCRIPT.format(
        src=str(Path(pilotq.__file__).parent.parent), shadow=str(tmp_path)
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    failure, answer = done.stdout.splitlines()
    assert failure.startswith("HostProcessExited ")
    assert "ImportError: boom" in failure
    # the dead process is replaced at the next call, which now imports pilotq
    assert answer == str(task_seed("x"))
