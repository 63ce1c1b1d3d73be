"""Benchmark runners: metrics bookkeeping, CSV/session plumbing, VQC training."""

import dataclasses
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import classifier_circuit, local_desc, nontiming_columns, read_csv
from pilotq.bench.runners import (
    RunMetrics,
    cmd_circuits,
    cmd_cut,
    cmd_gradients,
    cmd_status,
    cmd_throughput,
    cmd_vqc,
    load_session,
    write_csv,
    write_session,
)
from pilotq.bench import vqc
from pilotq.bench.vqc import (
    BATCH_GRADIENT_FN,
    VqcConfig,
    _ansatz_tables,
    _batch_slices,
    batch_gradient,
    evaluate,
    make_blobs,
    train_vqc,
)
from pilotq.errors import NoActiveSession, ValidationError, WidthExceeded
from pilotq.events import read_events, replay_tallies
from pilotq.manager import PilotManager
from pilotq.qsim import PauliObservable, adjoint_gradient, expectation, run_circuit
from pilotq.qsim import simulate
from pilotq.qsim.simulate import memory_bytes


# --- RunMetrics -----------------------------------------------------------------------


def test_metrics_reject_mismatched_tallies():
    with pytest.raises(ValidationError):
        RunMetrics(
            workload="x", params={}, phase_s={}, tasks_total=5, tasks_done=3, tasks_failed=1
        )


def test_metrics_throughput_and_wall():
    m = RunMetrics(
        workload="x",
        params={},
        phase_s={"startup": 1.0, "execute": 3.0},
        tasks_total=12,
        tasks_done=10,
        tasks_failed=1,
        tasks_canceled=1,
    )
    assert m.total_wall_s == pytest.approx(4.0)
    assert m.throughput_tasks_per_s == pytest.approx(2.5)
    d = m.to_json_dict()
    assert d["tasks_done"] == 10
    assert d["throughput_tasks_per_s"] == pytest.approx(2.5)


def test_metrics_zero_wall_is_zero_throughput():
    m = RunMetrics(
        workload="x", params={}, phase_s={}, tasks_total=3, tasks_done=3, tasks_failed=0
    )
    assert m.throughput_tasks_per_s == 0.0


# --- CSV / session plumbing -----------------------------------------------------------


def test_csv_round_trip_with_none_as_empty(tmp_path):
    path = tmp_path / "out.csv"
    rows = [{"a": 1, "b": None, "c": "x"}, {"a": 2, "b": 0.5, "c": ""}]
    write_csv(path, ["a", "b", "c"], rows)
    back = read_csv(path)
    assert back == [{"a": "1", "b": "", "c": "x"}, {"a": "2", "b": "0.5", "c": ""}]


def test_nontiming_view_strips_wall_clock_columns():
    rows = [
        {
            "tasks": "8",
            "tasks_per_s": "100.0",
            "runtime_incl_s": "0.1",
            "median_dispatch_ms": "0.2",
            "status": "ok",
        }
    ]
    assert nontiming_columns(rows) == [{"tasks": "8", "status": "ok"}]


def test_session_round_trip_and_missing_file(tmp_path):
    path = tmp_path / "session.json"
    write_session({"command": "x", "seed": 3}, path)
    assert load_session(path) == {"command": "x", "seed": 3}
    with pytest.raises(NoActiveSession):
        load_session(tmp_path / "absent.json")


# --- throughput runner ------------------------------------------------------------------


def test_throughput_rows_and_tallies(tmp_path):
    out = tmp_path / "tp.csv"
    session = tmp_path / "session.json"
    metrics = cmd_throughput(
        [4, 6], pilots=1, workers=2, out_path=out, seed=0, session_path=session
    )
    assert metrics.tasks_total == 10
    assert metrics.tasks_done == 10
    assert metrics.tasks_failed == 0
    rows = read_csv(out)
    assert [r["tasks"] for r in rows] == ["4", "6"]
    assert all(r["done"] == r["tasks"] for r in rows)
    assert set(rows[0]) == {
        "tasks",
        "pilots",
        "workers",
        "done",
        "failed",
        "runtime_incl_s",
        "runtime_excl_s",
        "tasks_per_s",
        "median_dispatch_ms",
        "p99_dispatch_ms",
    }
    payload = json.loads(session.read_text())
    assert payload["command"] == "throughput"
    assert payload["metrics"]["tasks_done"] == 10
    assert payload["out_csv"] == str(out)


def test_throughput_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValidationError):
        cmd_throughput([0], out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    with pytest.raises(ValidationError):
        cmd_throughput([], out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    with pytest.raises(ValidationError):
        cmd_throughput(
            [4], pilots=0, out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json"
        )
    with pytest.raises(ValidationError, match="task count list repeats 8"):
        cmd_throughput([8, 8], out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    assert not (tmp_path / "x.csv").exists()


def test_throughput_nontiming_columns_repeat(tmp_path):
    kwargs = dict(pilots=1, workers=2, seed=9)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cmd_throughput([5], out_path=a, session_path=tmp_path / "sa.json", **kwargs)
    cmd_throughput([5], out_path=b, session_path=tmp_path / "sb.json", **kwargs)
    assert nontiming_columns(read_csv(a)) == nontiming_columns(read_csv(b))


# --- circuits runner ----------------------------------------------------------------------


def test_circuits_rows_per_backend_and_size(tmp_path):
    out = tmp_path / "circ.csv"
    metrics = cmd_circuits(
        [2, 3],
        count=2,
        depth=4,
        shots=64,
        qpu_latency_s=0.0,
        workers=2,
        out_path=out,
        seed=1,
        session_path=tmp_path / "s.json",
    )
    rows = read_csv(out)
    assert [(r["backend"], r["qubits"]) for r in rows] == [
        ("local", "2"),
        ("local", "3"),
        ("qpu_sim", "2"),
        ("qpu_sim", "3"),
    ]
    assert all(r["failed"] == "0" for r in rows)
    assert {r["shots"] for r in rows if r["backend"] == "local"} == {"0"}
    assert {r["shots"] for r in rows if r["backend"] == "qpu_sim"} == {"64"}
    assert all(float(r["mean_s"]) >= 0.0 for r in rows)
    assert metrics.tasks_total == 8
    assert metrics.tasks_done == 8


def test_circuits_single_task_has_no_spread(tmp_path):
    out = tmp_path / "circ.csv"
    cmd_circuits(
        [2],
        count=1,
        backends=("local",),
        depth=3,
        out_path=out,
        session_path=tmp_path / "s.json",
    )
    (row,) = read_csv(out)
    assert row["std_s"] == ""
    assert row["mean_s"] != ""


def test_circuits_rejects_unknown_backend(tmp_path):
    with pytest.raises(ValidationError):
        cmd_circuits(
            [2],
            backends=("local", "tpu"),
            out_path=tmp_path / "x.csv",
            session_path=tmp_path / "s.json",
        )
    with pytest.raises(ValidationError):
        cmd_circuits([2], count=0, out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    with pytest.raises(ValidationError):
        cmd_circuits(
            [2], backends=(), out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json"
        )
    with pytest.raises(ValidationError, match="qubit count list repeats 3"):
        cmd_circuits([3, 3], out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    with pytest.raises(ValidationError, match="backend list repeats local"):
        cmd_circuits(
            [2],
            backends=("local", "local"),
            out_path=tmp_path / "x.csv",
            session_path=tmp_path / "s.json",
        )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"qpu_latency_s": float("inf")}, id="qpu_latency_inf"),
        pytest.param({"shots": 0, "qpu_latency_s": 0.0}, id="shots_0"),
        pytest.param({"shots": -3, "qpu_latency_s": 0.0}, id="shots_-3"),
    ],
)
def test_circuits_rejects_a_bad_qpu_pilot_before_any_task_runs(tmp_path, bad):
    log = tmp_path / "ev.jsonl"
    with pytest.raises(ValidationError):
        cmd_circuits(
            [2, 4],
            count=2,
            **bad,
            out_path=tmp_path / "x.csv",
            log_path=log,
            session_path=tmp_path / "s.json",
        )
    events = list(read_events(log)) if log.exists() else []
    assert not [e for e in events if e.event == "task_submitted"]


# --- gradients runner -----------------------------------------------------------------


def test_gradients_rows_verify_against_fd(tmp_path):
    out = tmp_path / "grad.csv"
    cmd_gradients([2, 3], layers=1, out_path=out, seed=0, session_path=tmp_path / "s.json")
    rows = read_csv(out)
    assert [r["n"] for r in rows] == ["2", "3"]
    for row in rows:
        assert row["status"] == "ok"
        assert int(row["num_params"]) == 3 * int(row["n"])
        assert float(row["grad_fd_max_rel_err"]) <= 1e-5


def test_gradients_memory_status_ladder(tmp_path):
    def status_at(cap):
        out = tmp_path / f"g{cap}.csv"
        cmd_gradients(
            [2],
            layers=1,
            out_path=out,
            memory_cap_bytes=cap,
            session_path=tmp_path / "s.json",
        )
        return read_csv(out)[0]

    # one 2-qubit state takes 64 bytes; the gradient pass holds three states
    oom = status_at(64)
    assert oom["status"] == "oom"
    assert oom["expect_s"] == "" and oom["grad_s"] == ""
    grad_oom = status_at(128)
    assert grad_oom["status"] == "grad:oom"
    assert grad_oom["expect_s"] != "" and grad_oom["grad_s"] == ""
    ok = status_at(1024)
    assert ok["status"] == "ok"


# --- cut runner -----------------------------------------------------------------------


def test_cut_baseline_row_then_worker_rows(tmp_path):
    out = tmp_path / "cut.csv"
    metrics = cmd_cut(
        [2, 2],
        workers_list=(1, 2),
        task_latency_s=0.0,
        out_path=out,
        seed=0,
        session_path=tmp_path / "s.json",
    )
    rows = read_csv(out)
    assert [r["workers"] for r in rows] == ["0", "1", "2"]
    base = rows[0]
    assert base["subexperiments"] == "1"
    assert base["num_cuts"] == "0"
    assert float(base["abs_error"]) == 0.0
    assert base["value"] == base["oracle_value"]
    for row in rows[1:]:
        assert row["num_cuts"] == "1"
        assert row["subexperiments"] == "9"
        assert float(row["sampling_overhead"]) == 16.0
        assert float(row["abs_error"]) <= 1e-9
    assert metrics.tasks_total == 18  # 9 subexperiments per worker configuration


def test_cut_single_cluster_is_baseline_only(tmp_path):
    out = tmp_path / "cut.csv"
    metrics = cmd_cut([3], out_path=out, session_path=tmp_path / "s.json")
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["workers"] == "0"
    assert metrics.tasks_total == 0


def test_cut_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValidationError):
        cmd_cut([0, 2], out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    with pytest.raises(ValidationError):
        cmd_cut([2, 2], shots=-1, out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    with pytest.raises(ValidationError):
        cmd_cut(
            [2, 2],
            workers_list=(0,),
            out_path=tmp_path / "x.csv",
            session_path=tmp_path / "s.json",
        )
    # DuplicateTaskId is a ValidationError too, so the message tells them apart
    with pytest.raises(ValidationError, match="worker count list repeats 2"):
        cmd_cut(
            [2, 2],
            workers_list=(2, 2),
            out_path=tmp_path / "x.csv",
            session_path=tmp_path / "s.json",
        )
    assert not (tmp_path / "x.csv").exists()


def test_a_failed_cut_run_stops_its_pilots(tmp_path):
    before = {t.name for t in threading.enumerate()}
    with pytest.raises(WidthExceeded):
        cmd_cut([2, 2], max_width=2, out_path=tmp_path / "x.csv", session_path=tmp_path / "s.json")
    assert {t.name for t in threading.enumerate()} == before


# --- vqc pieces ------------------------------------------------------------------------


def test_blobs_are_balanced_and_deterministic():
    x1, y1 = make_blobs(20, 3, seed=5)
    x2, y2 = make_blobs(20, 3, seed=5)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert x1.shape == (20, 3)
    assert int(y1.sum()) == 10
    x3, _ = make_blobs(20, 3, seed=6)
    assert not np.array_equal(x1, x3)


def test_batch_slices_cover_with_short_tail():
    assert _batch_slices(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert _batch_slices(4, 4) == [(0, 4)]
    assert _batch_slices(3, 5) == [(0, 3)]


def test_config_validation_and_param_count():
    assert VqcConfig(n_qubits=3, layers=2).num_params == 18
    for bad in (
        dict(n_qubits=1),
        dict(samples=1),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(optimizer="adam"),
        dict(epochs=-1),
        # non-finite values compare False against every bound, so each is named
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(momentum=float("nan")),
        dict(momentum=float("-inf")),
        dict(softmax_scale=float("nan")),
        dict(softmax_scale=float("inf")),
        # the pilot and `pq` seed rule: an unsigned 64-bit integer
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed=1.5),
    ):
        with pytest.raises(ValidationError):
            VqcConfig(**bad)
    cfg = VqcConfig(n_qubits=2, layers=1, samples=10)
    assert VqcConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_gradient_output_is_loss_slope():
    cfg = VqcConfig(n_qubits=2, layers=1, samples=4, batch_size=4, seed=3)
    features, labels = make_blobs(cfg.samples, cfg.n_qubits, cfg.seed)
    rng = np.random.default_rng(0)
    params = rng.uniform(-0.5, 0.5, cfg.num_params)
    out = batch_gradient(
        params, features, labels, cfg.n_qubits, cfg.layers, cfg.softmax_scale
    )
    assert len(out["grad"]) == cfg.num_params
    assert 0 <= out["correct"] <= cfg.samples
    h = 1e-6
    for i in (0, cfg.num_params - 1):
        shift = np.zeros(cfg.num_params)
        shift[i] = h
        up = batch_gradient(
            params + shift, features, labels, cfg.n_qubits, cfg.layers, cfg.softmax_scale
        )["loss_sum"]
        down = batch_gradient(
            params - shift, features, labels, cfg.n_qubits, cfg.layers, cfg.softmax_scale
        )["loss_sum"]
        assert out["grad"][i] == pytest.approx((up - down) / (2 * h), abs=1e-4)


def _per_sample_reference(params, features, labels, n_qubits, layers, scale):
    """batch_gradient's result, one circuit and one adjoint_gradient per sample."""
    z = [PauliObservable.single(n_qubits, {q: "Z"}) for q in (0, 1)]
    grad = np.zeros(len(params))
    loss_sum, correct = 0.0, 0
    for x, y in zip(features, labels):
        circuit = classifier_circuit(x, params, n_qubits, layers)
        state = run_circuit(circuit)
        logits = scale * np.array([expectation(state, obs) for obs in z])
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        loss_sum -= math.log(probs[y])
        correct += int(np.argmax(probs) == y)
        weights = scale * (probs - np.eye(2)[y])
        weighted = PauliObservable(
            terms=tuple((float(w), obs.terms[0][1]) for w, obs in zip(weights, z))
        )
        grad += adjoint_gradient(circuit, weighted)
    return grad, loss_sum, correct


@pytest.mark.parametrize("rows", [25, 1, 200])
def test_batched_gradient_matches_per_sample_circuits(rows):
    cfg = VqcConfig()  # 4 qubits, 2 layers
    features, labels = make_blobs(cfg.samples, cfg.n_qubits, cfg.seed)
    params = np.random.default_rng(rows).uniform(-1.0, 1.0, cfg.num_params)
    args = (params, features[:rows], labels[:rows], cfg.n_qubits, cfg.layers, cfg.softmax_scale)
    out = batch_gradient(*args)
    grad, loss_sum, correct = _per_sample_reference(*args)
    assert np.max(np.abs(np.asarray(out["grad"]) - grad)) <= 1e-9
    assert abs(out["loss_sum"] - loss_sum) <= 1e-9
    assert out["correct"] == correct
    assert isinstance(out["loss_sum"], float) and isinstance(out["correct"], int)
    assert all(isinstance(g, float) for g in out["grad"])
    # Ansatz of at most four qubits take the tables, wider ones the sweep over
    # the stack; forced onto the sweep, each narrow one must give the same.
    for n_qubits in (2, 3, 4):
        for layers in (1, 2, 6):
            shape = VqcConfig(n_qubits=n_qubits, layers=layers)
            features, labels = make_blobs(shape.samples, n_qubits, shape.seed)
            params = np.random.default_rng(rows).uniform(-1.0, 1.0, shape.num_params)
            args = (params, features[:rows], labels[:rows], n_qubits, layers, shape.softmax_scale)
            tables = batch_gradient(*args)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(vqc, "_TABLE_QUBITS", 0)
                stack = batch_gradient(*args)
            assert np.max(np.abs(np.subtract(tables["grad"], stack["grad"]))) <= 1e-12
            assert abs(tables["loss_sum"] - stack["loss_sum"]) <= 1e-12
            assert tables["correct"] == stack["correct"]


def test_batched_gradient_rejects_a_short_feature_row():
    features = [[0.1, 0.2], [0.3]]
    with pytest.raises(ValidationError):
        batch_gradient(np.zeros(6), features, [0, 1], 2, 1, 4.0)
    # a label other than 0 or 1 would train as one class and never count as
    # correct (-1), be truncated (0.5) or index past the two classes (2)
    features = [[0.1, 0.2], [0.3, 0.4]]
    for bad in (-1, 0.5, 2):
        with pytest.raises(ValidationError):
            batch_gradient(np.zeros(6), features, [0, bad], 2, 1, 4.0)


@pytest.mark.parametrize(
    "labels,params,match",
    [
        pytest.param([0], np.zeros(6), "2 feature rows but 1 labels", id="label_count"),
        pytest.param([0, 1], np.zeros(5), "6 parameters required", id="param_shape"),
    ],
)
def test_batched_gradient_rejects_mismatched_inputs(labels, params, match):
    with pytest.raises(ValidationError, match=match):
        batch_gradient(params, [[0.1, 0.2], [0.3, 0.4]], labels, 2, 1, 4.0)


def test_batched_gradient_applies_each_gate_once_per_batch(monkeypatch):
    calls = []
    apply = simulate._apply

    def counted(*args):
        calls.append(1)
        apply(*args)

    # Every 1q, CNOT and CZ application, forward or adjoint, goes through
    # this entry point, whichever layout serves it.
    monkeypatch.setattr(simulate, "_apply", counted)

    def applies(cfg, params, rows, offset=0):
        features, labels = make_blobs(cfg.samples, cfg.n_qubits, cfg.seed)
        calls.clear()
        chosen = slice(offset, offset + rows)
        batch_gradient(params, features[chosen], labels[chosen], cfg.n_qubits, cfg.layers, 4.0)
        return len(calls)

    # Four qubits: the tables are built once at new parameters; a second
    # batch at the same parameters, on other rows, applies no gate at all.
    _ansatz_tables.cache_clear()
    cfg = VqcConfig()
    params = np.random.default_rng(5).uniform(-1.0, 1.0, cfg.num_params)
    assert applies(cfg, params, 1) > 0
    assert applies(cfg, params, 25, offset=1) == 0
    # Five qubits take the sweep: one pass over the stack whatever its rows.
    cfg = VqcConfig(n_qubits=5)
    params = np.zeros(cfg.num_params)
    per_batch = [applies(cfg, params, rows) for rows in (1, 25)]
    assert per_batch[0] > 0
    assert per_batch[0] == per_batch[1]


def test_batch_gradient_from_cached_tables_matches_fresh_tables():
    cfg = VqcConfig()
    features, labels = make_blobs(cfg.samples, cfg.n_qubits, cfg.seed)
    rng = np.random.default_rng(11)
    a, b = (rng.uniform(-1.0, 1.0, cfg.num_params) for _ in range(2))

    def run(params, lo):
        args = (features[lo : lo + 25], labels[lo : lo + 25], cfg.n_qubits, cfg.layers, 4.0)
        return batch_gradient(params, *args)

    calls = ((a, 0), (a, 75), (b, 25), (a, 50))
    _ansatz_tables.cache_clear()
    cached = [run(params, lo) for params, lo in calls]
    assert _ansatz_tables.cache_info().hits == 1  # the second call
    fresh = []
    for params, lo in calls:
        _ansatz_tables.cache_clear()
        fresh.append(run(params, lo))
    assert cached == fresh
    unitary, tables = _ansatz_tables(cfg.n_qubits, cfg.layers, tuple(a.tolist()))
    assert not unitary.flags.writeable and not tables.flags.writeable
    with pytest.raises(ValueError):
        tables[0, 0, 0] = 1.0


def test_batched_gradient_on_tables_holds_what_its_cap_counts():
    cfg = VqcConfig()
    rows = 4096
    rng = np.random.default_rng(3)
    features = rng.normal(0.0, 1.0, (rows, cfg.n_qubits))
    labels = rng.integers(0, 2, rows)
    params = rng.uniform(-1.0, 1.0, cfg.num_params)
    _ansatz_tables.cache_clear()
    tracemalloc.start()
    try:
        batch_gradient(params, features, labels, cfg.n_qubits, cfg.layers, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unitary, tables = _ansatz_tables(cfg.n_qubits, cfg.layers, tuple(params.tolist()))
    # check_memory_cap counts 3 stacks of rows; add the tables and one chunk.
    bound = 3 * rows * memory_bytes(cfg.n_qubits) + unitary.nbytes + tables.nbytes
    assert peak <= bound + 16 * simulate._CHUNK


def test_training_paths_agree_exactly():
    tiny = VqcConfig(n_qubits=2, layers=1, samples=8, batch_size=3, epochs=2, seed=2)
    # the default shape (4 qubits, 2 layers) takes the tables in each process
    for cfg in (tiny, VqcConfig(epochs=2)):
        inline = train_vqc(cfg)
        manager = PilotManager(functions={BATCH_GRADIENT_FN: batch_gradient})
        try:
            from helpers import local_desc

            manager.create_pilot(local_desc("vqc", cores=2))
            manager.wait_pilots_ready()
            managed = train_vqc(cfg, manager)
        finally:
            manager.shutdown()
        assert np.array_equal(inline.params, managed.params)
        assert [s.loss for s in inline.history] == [s.loss for s in managed.history]


def test_momentum_training_agrees_inline_and_on_a_pilot():
    cfg = VqcConfig(optimizer="momentum", epochs=3)
    inline = train_vqc(cfg)
    manager = PilotManager(functions={BATCH_GRADIENT_FN: batch_gradient})
    try:
        manager.create_pilot(local_desc("vqc", cores=2))
        managed = train_vqc(cfg, manager)
    finally:
        manager.shutdown()
    assert np.array_equal(inline.params, managed.params)
    assert [s.loss for s in inline.history] == [s.loss for s in managed.history]

    # the first two updates: v <- mu v - eta g, theta <- theta + v
    features, labels = make_blobs(cfg.samples, cfg.n_qubits, cfg.seed)

    def mean_grad(params):
        grad = np.zeros_like(params)
        for lo, hi in _batch_slices(cfg.samples, cfg.batch_size):
            out = batch_gradient(
                params, features[lo:hi], labels[lo:hi], cfg.n_qubits, cfg.layers, cfg.softmax_scale
            )
            grad += np.asarray(out["grad"])
        return grad / cfg.samples

    theta = np.random.default_rng(cfg.seed + 1).uniform(-0.1, 0.1, cfg.num_params)
    velocity = np.zeros_like(theta)
    for epochs in (1, 2):
        velocity = cfg.momentum * velocity - cfg.learning_rate * mean_grad(theta)
        theta = theta + velocity
        trained = train_vqc(dataclasses.replace(cfg, epochs=epochs)).params
        np.testing.assert_allclose(trained, theta, rtol=0, atol=1e-12)


def test_training_loss_falls_on_tiny_problem():
    cfg = VqcConfig(n_qubits=2, layers=1, samples=16, batch_size=8, epochs=8, seed=1)
    run = train_vqc(cfg)
    assert run.final_loss < run.initial_loss
    assert run.final_accuracy >= 0.5
    features, labels = make_blobs(cfg.samples, cfg.n_qubits, cfg.seed)
    loss, acc = evaluate(cfg, run.params, features, labels)
    assert loss == pytest.approx(run.final_loss, abs=0.2)  # one step behind the history
    assert math.isfinite(loss) and 0.0 <= acc <= 1.0


def test_vqc_runner_epochs_zero_reports_untrained_model(tmp_path):
    out = tmp_path / "vqc.csv"
    session = tmp_path / "s.json"
    cfg = VqcConfig(n_qubits=2, layers=1, samples=6, batch_size=3, epochs=0)
    metrics = cmd_vqc(cfg, workers=2, out_path=out, session_path=session)
    assert read_csv(out) == []
    assert out.read_text().startswith("epoch,loss,train_accuracy,grad_norm,epoch_s")
    payload = json.loads(session.read_text())
    assert "untrained_loss" in payload["summary"]
    assert 0.0 <= payload["summary"]["untrained_accuracy"] <= 1.0
    assert metrics.tasks_total == 0


def test_vqc_runner_writes_epoch_rows(tmp_path):
    out = tmp_path / "vqc.csv"
    cfg = VqcConfig(n_qubits=2, layers=1, samples=6, batch_size=3, epochs=2, seed=4)
    metrics = cmd_vqc(cfg, workers=2, out_path=out, session_path=tmp_path / "s.json")
    rows = read_csv(out)
    assert [r["epoch"] for r in rows] == ["0", "1"]
    assert all(float(r["grad_norm"]) >= 0 for r in rows)
    assert metrics.tasks_done == 4  # two batches per epoch
    assert metrics.tasks_failed == 0


# --- session and log contract ------------------------------------------------------------


_CONTRACT_RUNS = {
    "throughput": lambda **kw: cmd_throughput([3, 5], workers=2, seed=1, **kw),
    "circuits": lambda **kw: cmd_circuits(
        [2, 3], count=2, depth=3, shots=32, qpu_latency_s=0.0, workers=2, seed=1, **kw
    ),
    "gradients": lambda log_path, **kw: cmd_gradients([2], layers=1, seed=1, **kw),
    "cut": lambda **kw: cmd_cut([2, 2], workers_list=(1, 2), task_latency_s=0.0, seed=1, **kw),
    "vqc": lambda **kw: cmd_vqc(
        VqcConfig(n_qubits=2, layers=1, samples=6, batch_size=3, epochs=1, seed=1),
        workers=2,
        **kw,
    ),
}


@pytest.mark.parametrize("command", sorted(_CONTRACT_RUNS))
def test_session_file_and_event_log_agree_with_the_metrics(tmp_path, command):
    session = tmp_path / "s.json"
    log = tmp_path / "events.jsonl"
    metrics = _CONTRACT_RUNS[command](
        out_path=tmp_path / "out.csv", log_path=log, session_path=session
    )
    payload = json.loads(session.read_text())
    assert set(payload) == {
        "command",
        "finished_at_s",
        "out_csv",
        "event_log",
        "seed",
        "snapshot",
        "metrics",
        "summary",
    }
    assert payload["command"] == command
    assert payload["metrics"] == metrics.to_json_dict()
    assert (payload["snapshot"] is None) == (command == "gradients")
    if command != "gradients":
        assert metrics.tasks_done > 0
        assert replay_tallies(read_events(log))["DONE"] == metrics.tasks_done
        session_tallies = {
            state: payload["metrics"][f"tasks_{state.lower()}"]
            for state in ("DONE", "FAILED", "CANCELED")
            if payload["metrics"][f"tasks_{state.lower()}"]
        }
        assert replay_tallies(read_events(log)) == session_tallies
        assert sum(session_tallies.values()) == metrics.tasks_total
    if command == "cut":  # the snapshot is the last worker count's fleet
        assert [p["name"] for p in payload["snapshot"]["pilots"]] == ["cut-w2"]


# --- status ---------------------------------------------------------------------------


def test_status_prefers_live_manager(tmp_path):
    manager = PilotManager()
    try:
        snap = cmd_status(manager=manager)
        assert snap["source"] == "live"
        assert snap["pilots"] == []
    finally:
        manager.shutdown()


def test_status_falls_back_to_session_file(tmp_path):
    session = tmp_path / "s.json"
    write_session({"command": "throughput", "seed": 1}, session)
    snap = cmd_status(session_path=session)
    assert snap["source"] == str(session)
    assert snap["command"] == "throughput"
    with pytest.raises(NoActiveSession):
        cmd_status(session_path=tmp_path / "gone.json")
