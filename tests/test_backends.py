"""Resource-backend provisioning, release, and the sampling QPU stand-in."""

import os
import threading
import time
from dataclasses import replace

import pytest

from helpers import local_desc, qpu_desc
from pilotq import backends
from pilotq.backends import ResourceBackend, simulate_readout, startup_delay
from pilotq.clock import SimulatedClock
from pilotq.errors import DoubleRelease, QubitCapacityExceeded, ValidationError
from pilotq.model import BackendKind, PilotDescription, QueueModel
from pilotq.qsim.circuit import Circuit, Gate, random_circuit
from pilotq.qsim.simulate import zero_state


def test_provision_and_release_track_granted_totals():
    be = ResourceBackend()
    a = be.provision(local_desc("a", cores=4))
    b = be.provision(local_desc("b", cores=2))
    assert a.total_cores == 4 and b.total_cores == 2
    assert {x.pilot_name for x in be.live_allocations()} == {"a", "b"}
    be.release(a)
    assert {x.pilot_name for x in be.live_allocations()} == {"b"}
    be.release(b)
    assert be.live_allocations() == []


def test_release_twice_is_an_error():
    be = ResourceBackend()
    alloc = be.provision(local_desc())
    be.release(alloc)
    with pytest.raises(DoubleRelease):
        be.release(alloc)


def test_one_backend_provisions_every_kind():
    clock = SimulatedClock()
    be = ResourceBackend(clock=clock)
    descs = [
        local_desc("l"),
        PilotDescription(name="b", backend_kind=BackendKind.BATCH_SIM),
        qpu_desc("q"),
    ]
    allocs = [be.provision(d) for d in descs]
    assert [a.backend_kind for a in allocs] == [d.backend_kind for d in descs]
    assert [a.granted_at_s for a in allocs] == [0.0, 37.0, 0.0]  # each kind's startup delay
    assert {a.pilot_name for a in be.live_allocations()} == {"l", "b", "q"}
    for alloc in allocs:
        be.release(alloc)
    assert be.live_allocations() == []


def test_invalid_description_is_rejected_before_any_grant():
    be = ResourceBackend()
    with pytest.raises(ValidationError):
        be.provision(PilotDescription(name="", backend_kind=BackendKind.LOCAL))
    assert be.live_allocations() == []


def test_local_pilots_start_immediately():
    assert startup_delay(local_desc()) == 0.0


def test_batch_pilots_wait_out_the_default_queue():
    desc = PilotDescription(name="b", backend_kind=BackendKind.BATCH_SIM)
    assert startup_delay(desc) == 37.0


def test_jittered_delay_is_deterministic_and_bounded():
    desc = PilotDescription(
        name="b",
        backend_kind=BackendKind.BATCH_SIM,
        queue_model=QueueModel(base_delay_s=10.0, jitter_s=3.0),
        seed=123,
    )
    d1, d2 = startup_delay(desc), startup_delay(desc)
    assert d1 == d2
    assert 7.0 <= d1 <= 13.0
    other = startup_delay(
        PilotDescription(
            name="b",
            backend_kind=BackendKind.BATCH_SIM,
            queue_model=QueueModel(base_delay_s=10.0, jitter_s=3.0),
            seed=124,
        )
    )
    assert other != d1


def test_delay_never_goes_negative():
    desc = PilotDescription(
        name="b",
        backend_kind=BackendKind.BATCH_SIM,
        queue_model=QueueModel(base_delay_s=0.5, jitter_s=5.0),
        seed=0,
    )
    for seed in range(20):
        d = startup_delay(
            PilotDescription(
                name="b",
                backend_kind=desc.backend_kind,
                queue_model=desc.queue_model,
                seed=seed,
            )
        )
        assert d >= 0.0


def test_allocation_stamps_come_from_the_clock():
    clock = SimulatedClock(start=100.0)
    be = ResourceBackend(clock=clock)
    desc = PilotDescription(name="b", backend_kind=BackendKind.BATCH_SIM, walltime_s=600.0)
    alloc = be.provision(desc)
    assert alloc.granted_at_s == 100.0 + 37.0
    assert alloc.expires_at_s == alloc.granted_at_s + 600.0


# --- qpu execution -------------------------------------------------------------------


def _qpu_backend(latency=0.0):
    be = ResourceBackend()
    alloc = be.provision(qpu_desc("q", qubits=4, latency_s=latency))
    return be, alloc


def test_qpu_execute_counts_sum_to_shots_and_repeat_per_seed():
    be, alloc = _qpu_backend()
    circ = random_circuit(3, 4, seed=7)
    r1 = be.qpu_execute(circ, 500, alloc, rng_seed=9)
    r2 = be.qpu_execute(circ, 500, alloc, rng_seed=9)
    r3 = be.qpu_execute(circ, 500, alloc, rng_seed=10)
    assert sum(r1.counts.values()) == 500
    assert r1.counts == r2.counts
    assert r1.counts != r3.counts


def test_qpu_execute_validates_shots_width_and_kind():
    be, alloc = _qpu_backend()
    circ = Circuit(5, (Gate("H", (0,)),))
    with pytest.raises(QubitCapacityExceeded):
        be.qpu_execute(circ, 10, alloc, rng_seed=0)  # 5 qubits on a 4-qubit device
    with pytest.raises(ValidationError):
        be.qpu_execute(Circuit(1, ()), 0, alloc, rng_seed=0)
    local = ResourceBackend()
    local_alloc = local.provision(local_desc())
    with pytest.raises(ValidationError):
        local.qpu_execute(Circuit(1, ()), 10, local_alloc, rng_seed=0)


def test_qpu_execute_reports_latency_in_exec_time():
    be, alloc = _qpu_backend(latency=0.05)
    report = be.qpu_execute(Circuit(2, (Gate("H", (0,)),)), 32, alloc, rng_seed=1)
    assert report.exec_s >= 0.05
    assert report.queue_wait_s == 0.0


def test_qpu_queue_wait_is_the_seeded_startup_draw():
    clock = SimulatedClock()
    be = ResourceBackend(clock=clock)
    desc = PilotDescription(
        name="q",
        backend_kind=BackendKind.QPU_SIM,
        qpu_qubits=2,
        queue_model=QueueModel(base_delay_s=0.5, jitter_s=2.0),
    )
    alloc = be.provision(desc)
    circ = Circuit(2, (Gate("H", (0,)),))
    waits = []
    for seed in range(8):
        before = clock.now()
        report = be.qpu_execute(circ, 16, alloc, rng_seed=seed)
        wait = report.queue_wait_s
        assert clock.now() - before == pytest.approx(wait)  # spent on the clock
        assert be.qpu_execute(circ, 16, alloc, rng_seed=seed).queue_wait_s == wait
        assert 0.0 <= wait <= 2.5
        assert wait == startup_delay(replace(desc, seed=seed))
        waits.append(wait)
    assert 0.0 in waits  # a draw below zero is clamped
    assert len(set(waits)) > 2  # and the rest are jittered


def _until(predicate, what, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


def test_simulations_are_admitted_up_to_the_cores_in_arrival_order(monkeypatch):
    # Each worker thread runs two simulations back to back, as an agent
    # worker takes its next task. A freed core must go to the oldest waiter,
    # not to the worker that just gave it up.
    cores = os.cpu_count() or 1
    workers = cores + 2
    circuits = [Circuit(1, ()) for _ in range(2 * workers)]
    index = {id(c): k for k, c in enumerate(circuits)}
    go = [threading.Event() for _ in circuits]
    started, running, peak = [], [0], [0]
    lock = threading.Lock()

    def stand_in(circuit):
        k = index[id(circuit)]
        with lock:
            started.append(k)
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        go[k].wait(10.0)
        with lock:
            running[0] -= 1
        return zero_state(1)

    monkeypatch.setattr(backends, "run_circuit", stand_in)
    waiting = backends._HOST_CORES._waiters

    def worker(w):
        for k in (w, workers + w):
            simulate_readout(circuits[k], 0, 0)

    threads = [threading.Thread(target=worker, args=(w,), daemon=True) for w in range(workers)]
    for w, t in enumerate(threads):
        t.start()  # arrivals in worker order: each is running or queued before the next
        if w < cores:
            _until(lambda: len(started) == w + 1, f"worker {w} to start")
        else:
            _until(lambda: len(waiting) == w - cores + 1, f"worker {w} to queue")
    # The first round in arrival order, then each worker's second call in
    # the order its first one finished.
    expected = list(range(workers)) + [workers + w for w in range(workers)]
    for n in range(len(circuits)):
        go[started[n]].set()
        # The freed core's next holder has started, and the released
        # worker's second call has arrived, before the next release.
        _until(
            lambda: len(started) == min(len(circuits), cores + n + 1)
            and len(started) + len(waiting) == min(len(circuits), workers + n + 1),
            "the next admission",
        )
        assert started == expected[: len(started)]
    for t in threads:
        t.join(10.0)
    assert started == expected
    assert peak[0] == cores


def test_a_raising_block_still_hands_its_core_on():
    cores = os.cpu_count() or 1
    host_cores = backends._HostCores(cores)
    others = [host_cores.held() for _ in range(cores - 1)]
    for hold in others:
        hold.__enter__()
    got = []

    def wait_for_a_core():
        with host_cores.held() as core:
            got.append(core)

    waiter = threading.Thread(target=wait_for_a_core, daemon=True)
    with pytest.raises(RuntimeError, match="boom"):
        with host_cores.held() as last:
            waiter.start()
            _until(lambda: len(host_cores._waiters) == 1, "the waiter to queue")
            raise RuntimeError("boom")
    waiter.join(10.0)
    assert got == [last]
    for hold in others:
        hold.__exit__(None, None, None)

    # 1,000 raising blocks from more threads than cores: every core comes back
    failures = []
    n_threads = cores + 2

    def raise_in_blocks():
        for i in range(-(-1000 // n_threads)):
            try:
                with host_cores.held():
                    raise ValueError(i)
            except ValueError:
                continue
            failures.append(i)

    threads = [threading.Thread(target=raise_in_blocks, daemon=True) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert not failures and not any(t.is_alive() for t in threads)
    assert sorted(host_cores._free) == list(range(cores)) and not host_cores._waiters


def host_pid():
    return os.getpid()


def test_simulations_and_host_calls_share_one_core_budget(monkeypatch):
    # Every core holds a simulation, so a host-process call must queue until
    # one of them gives its core up: across both kinds, no more computations
    # run at once than there are cores.
    cores = os.cpu_count() or 1
    circuits = [Circuit(1, ()) for _ in range(cores)]
    index = {id(c): k for k, c in enumerate(circuits)}
    go = [threading.Event() for _ in circuits]
    running, peak = [0], [0]
    lock = threading.Lock()

    def computing(work, *args):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            return work(*args)
        finally:
            with lock:
                running[0] -= 1

    def stand_in(circuit):
        go[index[id(circuit)]].wait(10.0)
        return zero_state(1)

    host_call = backends._HostProcess.call
    monkeypatch.setattr(backends, "run_circuit", lambda circuit: computing(stand_in, circuit))
    monkeypatch.setattr(
        backends._HostProcess, "call", lambda child, *call: computing(host_call, child, *call)
    )
    waiting = backends._HOST_CORES._waiters
    simulations = [
        threading.Thread(target=simulate_readout, args=(c, 0, 0), daemon=True) for c in circuits
    ]
    for t in simulations:
        t.start()
    _until(lambda: running[0] == cores, "every core to hold a simulation")
    pids = []
    host = threading.Thread(target=lambda: pids.append(backends.run_registered(host_pid)), daemon=True)
    host.start()
    _until(lambda: len(waiting) == 1, "the host call to queue")
    host.join(0.2)
    assert host.is_alive() and pids == []
    go[0].set()
    host.join(30.0)
    assert pids and pids[0] != os.getpid()
    for g in go:
        g.set()
    for t in simulations:
        t.join(10.0)
    assert peak[0] == cores
