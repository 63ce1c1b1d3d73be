"""Acceptance gate: ten quantitative criteria, one test per criterion.

Each test prints a single pass line with its measured numbers; pytest -v
gives the per-criterion pass/fail verdicts. Tolerances and time budgets
are asserted, not just reported.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    assignments_by_pilot,
    audit_events,
    local_desc,
    nontiming_columns,
    parameters,
    qpu_desc,
    read_csv,
    zero_task,
)
from pilotq.bench.runners import cmd_circuits, cmd_throughput
from pilotq.bench.vqc import VqcConfig, _batch_slices, batch_gradient, make_blobs, train_vqc
from pilotq.cli import main as cli_main
from pilotq.cutting import (
    WIRE_CUT_TERMS,
    CutPlan,
    FragmentSpec,
    clustered_circuit,
    find_cuts,
    fragment_values,
    generate_subexperiments,
    reconstruct,
    run_cut_workflow,
)
from pilotq.events import EventLog, read_events
from pilotq.manager import PilotManager
from pilotq.model import (
    ClassicalPayload,
    QuantumPayload,
    TaskDescription,
    TaskKind,
    TaskState,
    TERMINAL_STATES,
)
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable, sel_circuit
from pilotq.qsim.gradients import adjoint_gradient
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    expectation,
    probabilities,
    run_circuit,
    sample,
    sim_qubit_capacity,
)

SIM_QUBITS = sim_qubit_capacity(DEFAULT_MEMORY_CAP_BYTES)


def _random_observable(rng, n: int) -> PauliObservable:
    count = int(rng.integers(1, n + 1))
    qubits = rng.choice(n, size=count, replace=False)
    letters = {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
    return PauliObservable.single(n, letters)


def _exact_cut_value(circuit, observable, max_width: int) -> float:
    plan = find_cuts(circuit, observable, max_width)
    subs, terms = generate_subexperiments(plan)
    values = []
    for sub in subs:
        probs = probabilities(run_circuit(sub.circuit))
        values.append(fragment_values(sub, probabilities=probs))
    return reconstruct(terms, values)


def test_criterion_01_cut_reconstruction_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        sizes = [2] * (k + 1)
        for _ in range(int(rng.integers(0, 12 - sum(sizes) + 1))):
            sizes[int(rng.integers(len(sizes)))] += 1
        n = sum(sizes)
        assert n <= 12 and k <= 3
        circuit = clustered_circuit(sizes, reps=int(rng.integers(1, 3)), seed=int(rng.integers(1 << 30)))
        observable = _random_observable(rng, n)
        got = _exact_cut_value(circuit, observable, max_width=max(sizes) + 1)
        want = expectation(run_circuit(circuit), observable)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 120.0
    print(f"criterion 1: PASS (50 circuits, max |error| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_wire_cut_identity_completeness():
    s = 1 / math.sqrt(2)
    pauli = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    kets = {
        "0": np.array([1, 0], dtype=complex),
        "1": np.array([0, 1], dtype=complex),
        "+": np.array([s, s], dtype=complex),
        "-": np.array([s, -s], dtype=complex),
        "+i": np.array([s, 1j * s], dtype=complex),
        "-i": np.array([s, -1j * s], dtype=complex),
    }
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        rebuilt = np.zeros((2, 2), dtype=complex)
        for term in WIRE_CUT_TERMS:
            ket = kets[term.prep]
            rebuilt += term.coeff * np.trace(pauli[term.measure] @ rho) * np.outer(ket, ket.conj())
        worst = max(worst, float(np.max(np.abs(rebuilt - rho))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"criterion 2: PASS (100 density matrices, max deviation {worst:.2e}, {elapsed * 1000:.0f}ms)")


def test_criterion_03_sampling_overhead_law():
    # k = 0: a plan with no cuts is a single whole-circuit fragment
    circuit = clustered_circuit([4], reps=1, seed=0)
    whole = FragmentSpec(circuit=circuit, letters={0: "Z"})
    plans = [CutPlan(observable=PauliObservable.single(4, {0: "Z"}), fragments=(whole,))]
    for k in range(1, 5):
        sizes = [2] * (k + 1)
        n = sum(sizes)
        plans.append(
            find_cuts(
                clustered_circuit(sizes, reps=1, seed=k),
                PauliObservable.single(n, {0: "Z", n - 1: "Z"}),
                max_width=3,
            )
        )
    for k, plan in enumerate(plans):
        assert plan.num_cuts == k
        assert plan.sampling_overhead == 16.0**k  # exact float equality

    # shot-mode error scaling on a fixed single-cut plan
    circuit = clustered_circuit([3, 3], reps=1, seed=33)
    observable = PauliObservable.single(6, {0: "Z", 5: "Z"})
    plan = find_cuts(circuit, observable, max_width=4)
    subs, terms = generate_subexperiments(plan)
    states = [run_circuit(sub.circuit) for sub in subs]
    exact = expectation(run_circuit(circuit), observable)

    def error_at(shots: int, seed: int) -> float:
        values = []
        for i, sub in enumerate(subs):
            counts = sample(states[i], shots, seed=seed * 100 + i)
            values.append(fragment_values(sub, counts=counts))
        return abs(reconstruct(terms, values) - exact)

    s_small, s_big = 256, 1024
    med_small = float(np.median([error_at(s_small, seed) for seed in range(50)]))
    med_big = float(np.median([error_at(s_big, seed) for seed in range(50)]))
    assert med_big <= med_small / 1.5
    print(
        f"criterion 3: PASS (16^k exact for k=0..4; median |error| "
        f"{med_small:.4f}@{s_small} -> {med_big:.4f}@{s_big}, ratio {med_small / med_big:.2f})"
    )


def _central_fd(circuit, observable, h: float = 1e-5) -> np.ndarray:
    base = np.asarray(parameters(circuit), dtype=float)
    out = np.zeros(len(base))
    for i in range(len(base)):
        shift = np.zeros(len(base))
        shift[i] = h
        plus = expectation(run_circuit(circuit.bind(base + shift)), observable)
        minus = expectation(run_circuit(circuit.bind(base - shift)), observable)
        out[i] = (plus - minus) / (2.0 * h)
    return out


def test_criterion_04_adjoint_gradients_match_finite_differences():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()

    circuit = Circuit(1, (Gate("RY", (0,), math.pi / 2, param_index=0),))
    (slope,) = adjoint_gradient(circuit, PauliObservable.single(1, {0: "Z"}))
    assert abs(slope - (-1.0)) <= 1e-9

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        layers = int(rng.integers(1, max(60 // (3 * n), 1) + 1))
        num_params = 3 * n * layers
        assert num_params <= 60
        params = rng.uniform(0.0, 2.0 * np.pi, num_params)
        circuit = sel_circuit(n, layers, params)
        observable = _random_observable(rng, n)
        adj = adjoint_gradient(circuit, observable)
        fd = _central_fd(circuit, observable)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(adj - fd))) / scale)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS (RY(pi/2) slope -1.0; 20 circuits, "
        f"max rel err {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_05_scheduler_safety_and_balance(tmp_path):
    # homogeneous batch scheduled in one pass over idle homogeneous pilots:
    # assignment spread <= 1
    balance_log = EventLog()
    manager = PilotManager(log=balance_log, auto_schedule=False)
    try:
        manager.create_pilot(local_desc("h0", cores=4))
        manager.create_pilot(local_desc("h1", cores=4))
        manager.wait_pilots_ready()
        ids = [manager.submit_task(zero_task(i, prefix="h")) for i in range(600)]
        manager.schedule_pending()
        manager.wait(ids)
    finally:
        manager.shutdown()
    counts = assignments_by_pilot(balance_log.records)
    spread = max(counts.values()) - min(counts.values())
    assert spread <= 1
    assert audit_events(balance_log.records, sim_qubits=SIM_QUBITS) == []

    # 10,000-task randomized stress with pilots added and removed mid-run
    rng = np.random.default_rng(505)
    log_path = tmp_path / "stress.jsonl"
    log = EventLog(path=log_path)
    manager = PilotManager(
        log=log,
        functions={
            "mul": lambda a, b: a * b,
            "nap": lambda t: time.sleep(t),
        },
    )
    bell = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    zz = PauliObservable.single(2, {0: "Z", 1: "Z"})
    ids = []
    try:
        manager.create_pilot(local_desc("p0", cores=4))
        manager.create_pilot(local_desc("p1", cores=4))
        manager.wait_pilots_ready()
        for i in range(10_000):
            draw = rng.random()
            if draw < 0.85:
                desc = zero_task(i, prefix="s")
            elif draw < 0.95:
                desc = TaskDescription(
                    task_id=f"s{i}",
                    kind=TaskKind.CLASSICAL_FN,
                    payload=ClassicalPayload(function="mul", args=(i, 2)),
                )
            elif draw < 0.975:
                desc = TaskDescription(
                    task_id=f"s{i}",
                    kind=TaskKind.QUANTUM_CIRCUIT,
                    payload=QuantumPayload(circuit=bell, shots=64),
                    requires_qubits=2,
                )
            else:
                desc = TaskDescription(
                    task_id=f"s{i}",
                    kind=TaskKind.QUANTUM_CIRCUIT,
                    payload=QuantumPayload(circuit=bell, observable=zz),
                    requires_qubits=2,
                )
            ids.append(manager.submit_task(desc))
            if i == 3_000:
                manager.create_pilot(local_desc("p2", cores=4))
                manager.create_pilot(qpu_desc("q0", qubits=4, cores=2))
            if i == 6_000:
                # pin some work in p1's queue so removal has tasks to hand back
                for j in range(40):
                    ids.append(
                        manager.submit_task(
                            TaskDescription(
                                task_id=f"nap{j}",
                                kind=TaskKind.CLASSICAL_FN,
                                payload=ClassicalPayload(function="nap", args=(0.01,)),
                            )
                        )
                    )
                manager.remove_pilot("p1", drain=False)
        outcome = manager.wait(ids, timeout=120.0)
        assert outcome.complete
        records = [manager.task(tid) for tid in ids]
    finally:
        manager.shutdown()
        log.close()

    assert len(records) == 10_040
    non_terminal = [r.task_id for r in records if r.state not in TERMINAL_STATES]
    assert non_terminal == []
    failed = [r for r in records if r.state is TaskState.FAILED]
    assert failed == []

    stream = list(read_events(log_path))
    violations = audit_events(stream, sim_qubits=SIM_QUBITS)
    assert violations == []
    print(
        f"criterion 5: PASS (balance spread {spread}; {len(records)} stress tasks "
        f"terminal, {len(stream)} events, 0 audit violations)"
    )


def test_criterion_06_throughput_desk_scale(tmp_path):
    out = tmp_path / "tp.csv"
    t0 = time.perf_counter()
    cmd_throughput(
        [256, 8192],
        pilots=1,
        workers=8,
        out_path=out,
        seed=0,
        session_path=tmp_path / "s.json",
    )
    elapsed = time.perf_counter() - t0
    small, big = read_csv(out)
    assert small["tasks"] == "256" and big["tasks"] == "8192"
    assert small["failed"] == "0" and big["failed"] == "0"
    assert big["done"] == "8192"
    ratio = float(big["tasks_per_s"]) / float(small["tasks_per_s"])
    assert ratio >= 0.25
    assert float(small["median_dispatch_ms"]) < 10.0
    assert float(big["median_dispatch_ms"]) < 10.0
    assert elapsed < 180.0
    print(
        f"criterion 6: PASS (0 failures, throughput ratio {ratio:.2f}, median dispatch "
        f"{float(big['median_dispatch_ms']):.3f}ms, {elapsed:.1f}s)"
    )


def test_criterion_07_circuit_scaling_shape(tmp_path):
    out = tmp_path / "circ.csv"
    cmd_circuits(
        [12, 14, 16],
        count=8,
        depth=10,
        shots=256,
        qpu_latency_s=3.0,  # queue-delay regime: latency dwarfs the sampling cost
        workers=8,
        out_path=out,
        seed=7,
        session_path=tmp_path / "s.json",
    )
    rows = read_csv(out)
    local = {int(r["qubits"]): float(r["mean_s"]) for r in rows if r["backend"] == "local"}
    qpu = {int(r["qubits"]): float(r["mean_s"]) for r in rows if r["backend"] == "qpu_sim"}
    assert all(r["failed"] == "0" for r in rows)
    growth = local[16] / local[12]
    flatness = max(qpu.values()) / min(qpu.values())
    assert growth >= 4.0
    assert flatness <= 1.2
    print(
        f"criterion 7: PASS (local 16q/12q ratio {growth:.1f}, "
        f"qpu_sim spread {flatness:.3f} over 12..16q)"
    )


def test_criterion_08_cutting_parallel_speedup():
    circuit = clustered_circuit([6, 6], reps=1, seed=8)
    observable = PauliObservable.single(12, {0: "Z", 11: "Z"})
    walls = {}
    manager = PilotManager()
    try:
        for workers in (1, 4):
            name = f"w{workers}"
            manager.create_pilot(
                local_desc(name, cores=workers, latency_s=0.1), workers=workers
            )
            manager.wait_pilots_ready()
            result = run_cut_workflow(
                manager, circuit, observable, max_width=7, task_prefix=name
            )
            assert result.abs_error <= 1e-9
            assert result.num_subexperiments == 9
            walls[workers] = result.exec_s
            manager.remove_pilot(name)
    finally:
        manager.shutdown()
    assert walls[4] < walls[1] / 1.3
    print(
        f"criterion 8: PASS (exec wall 1 worker {walls[1]:.2f}s vs "
        f"4 workers {walls[4]:.2f}s, speedup {walls[1] / walls[4]:.2f}x)"
    )


def test_criterion_09_vqc_training():
    config = VqcConfig()  # 4 qubits, 2 layers, 200 samples, 50 epochs, fixed seed
    assert (config.n_qubits, config.layers, config.samples, config.epochs) == (4, 2, 200, 50)
    run = train_vqc(config)
    assert run.final_accuracy >= 0.9
    assert run.final_loss < run.initial_loss

    features, labels = make_blobs(config.samples, config.n_qubits, config.seed)
    rng = np.random.default_rng(config.seed + 1)
    params = rng.uniform(-0.1, 0.1, config.num_params)
    full = batch_gradient(
        params, features, labels, config.n_qubits, config.layers, config.softmax_scale
    )
    summed = np.zeros(config.num_params)
    loss_sum = 0.0
    correct = 0
    for lo, hi in _batch_slices(config.samples, config.batch_size):
        part = batch_gradient(
            params,
            features[lo:hi],
            labels[lo:hi],
            config.n_qubits,
            config.layers,
            config.softmax_scale,
        )
        summed += np.asarray(part["grad"])
        loss_sum += part["loss_sum"]
        correct += part["correct"]
    gap = float(np.max(np.abs(summed - np.asarray(full["grad"]))))
    assert gap <= 1e-9
    assert abs(loss_sum - full["loss_sum"]) <= 1e-9
    assert correct == full["correct"]
    print(
        f"criterion 9: PASS (accuracy {run.final_accuracy:.3f}, loss "
        f"{run.initial_loss:.3f} -> {run.final_loss:.3f}, batch-sum gap {gap:.1e})"
    )


def test_criterion_10_subcommand_determinism(tmp_path, monkeypatch):
    commands = {
        "throughput": ["throughput", "--tasks", "6", "--workers", "2", "--seed", "5"],
        "circuits": [
            "circuits", "--qubits", "2,3", "--count", "2", "--depth", "4",
            "--qpu-latency", "0", "--workers", "2", "--seed", "5",
        ],
        "gradients": ["gradients", "--qubits", "2:3", "--layers", "1", "--seed", "5"],
        "cut": [
            "cut", "--sizes", "2,2", "--workers", "1,2", "--task-latency", "0",
            "--seed", "5",
        ],
        "vqc": [
            "vqc", "--qubits", "2", "--layers", "1", "--samples", "6", "--epochs", "2",
            "--batch-size", "3", "--workers", "2", "--seed", "5",
        ],
    }

    def run_once(name, argv, run_dir):
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert cli_main(argv + ["--out", f"{name}.csv"]) == 0
        rows = nontiming_columns(read_csv(run_dir / f"{name}.csv"))
        session = json.loads((run_dir / ".pq-session.json").read_text())
        stable = {
            "command": session["command"],
            "seed": session["seed"],
            "tallies": {
                k: v
                for k, v in session["metrics"].items()
                if k not in ("phase_s", "throughput_tasks_per_s")
            },
        }
        return rows, stable

    for name, argv in commands.items():
        first = run_once(name, argv, tmp_path / f"{name}-a")
        second = run_once(name, argv, tmp_path / f"{name}-b")
        assert first == second, f"{name} differs between seeded runs"

    # status replays the session file it is pointed at
    monkeypatch.chdir(tmp_path / "vqc-b")
    assert cli_main(["status"]) == 0
    print(f"criterion 10: PASS ({len(commands)} subcommands reproduce non-timing columns)")
