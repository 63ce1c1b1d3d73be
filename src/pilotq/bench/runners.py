"""Benchmark drivers behind the `pq` subcommands.

Every run writes a CSV (header row, UTF-8, '.' decimal point) and a session
snapshot file that `pq status` reads back. Column names ending in `_s` or
`_ms` are wall-clock measurements and excluded from determinism guarantees;
every other column is reproducible for a fixed seed.

The drivers share one skeleton. `_fleet` opens the event log, builds a
manager, creates its pilots (one worker per core) and waits until they are
ready; leaving it shuts the manager down and closes the log. A run that
finished drains the pilots' queues first; a run that raised (a failed
workflow, a diverging loss, Ctrl-C) stops its pilots without draining, so
no worker thread outlives it. `_finish` writes the CSV and the session
file, and is the only code that knows the session format.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pilotq.bench.vqc import (
    BATCH_GRADIENT_FN,
    VqcConfig,
    batch_gradient,
    evaluate,
    make_blobs,
    train_vqc,
)
from pilotq.codec import JsonRecord
from pilotq.cutting import clustered_circuit, run_cut_workflow
from pilotq.errors import NoActiveSession, ValidationError
from pilotq.events import EventLog
from pilotq.manager import PilotManager
from pilotq.model import (
    BackendKind,
    PilotDescription,
    QuantumPayload,
    QueueModel,
    TaskDescription,
    TaskKind,
    TaskState,
)
from pilotq.qsim.circuit import PauliObservable, random_circuit, sel_circuit
from pilotq.qsim.gradients import adjoint_gradient
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    expectation,
    memory_bytes,
    run_circuit,
)

SESSION_FILE = ".pq-session.json"
TIMING_SUFFIXES = ("_s", "_ms")


@dataclass(frozen=True)
class RunMetrics(JsonRecord):
    """Aggregate outcome of one benchmark run."""

    workload: str
    params: dict[str, str]
    phase_s: dict[str, float]
    tasks_total: int
    tasks_done: int
    tasks_failed: int
    tasks_canceled: int = 0

    def __post_init__(self):
        if self.tasks_done + self.tasks_failed + self.tasks_canceled != self.tasks_total:
            raise ValidationError("task tallies must add up to tasks_total")

    @property
    def total_wall_s(self) -> float:
        return sum(self.phase_s.values())

    @property
    def throughput_tasks_per_s(self) -> float:
        wall = self.total_wall_s
        return self.tasks_done / wall if wall > 0 else 0.0

    def to_json_dict(self) -> dict:
        """The fields plus the derived throughput, for session files."""
        return {**super().to_json_dict(), "throughput_tasks_per_s": self.throughput_tasks_per_s}


# --- CSV and session helpers ---------------------------------------------------


def write_csv(path, fieldnames, rows) -> None:
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def nontiming_columns(rows: list[dict]) -> list[dict]:
    """Rows with wall-clock columns removed; the determinism comparison view."""
    return [
        {k: v for k, v in row.items() if not k.endswith(TIMING_SUFFIXES)} for row in rows
    ]


def write_session(payload: dict, session_path=SESSION_FILE) -> None:
    with open(session_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_session(session_path=SESSION_FILE) -> dict:
    p = Path(session_path)
    if not p.is_file():
        raise NoActiveSession(f"no session file at {p}; run a benchmark first")
    try:
        with open(p, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise NoActiveSession(f"cannot read session file {p}: {exc}") from exc
    if not isinstance(payload, dict):
        raise NoActiveSession(f"session file {p} must hold a JSON object")
    return payload


# --- the run skeleton -----------------------------------------------------------


def _positive_ints(values, what) -> list[int]:
    """`values` as ints; ValidationError if there are none or any is below 1."""
    ints = [int(v) for v in values]
    if not ints or any(v < 1 for v in ints):
        raise ValidationError(f"every {what} must be >= 1")
    return ints


def _local_pilot(name, cores, latency_s=0.0, seed=0) -> PilotDescription:
    return PilotDescription(
        name=name,
        backend_kind=BackendKind.LOCAL,
        cores_per_node=cores,
        queue_model=QueueModel(per_task_latency_s=latency_s),
        seed=seed,
    )


@contextmanager
def _fleet(log_path, *pilots: PilotDescription, functions=None):
    """A manager with `pilots` created, one worker per core, and ready.

    On exit the manager shuts down, draining the queues if the block
    finished and not if it raised, and then the event log closes. The log
    appends, so fleets opened one after another write one stream.
    """
    with EventLog(path=log_path) as log:
        manager = PilotManager(log=log, functions=functions)
        finished = False
        try:
            for desc in pilots:
                manager.create_pilot(desc)
            manager.wait_pilots_ready()
            yield manager
            finished = True
        finally:
            manager.shutdown(drain=finished)


def _finish(
    command,
    rows,
    metrics: RunMetrics,
    *,
    out_path,
    session_path,
    seed,
    log_path=None,
    snapshot=None,
    summary=None,
    fieldnames=None,
) -> RunMetrics:
    """Write the CSV and the session file (the one place that knows its keys)."""
    write_csv(out_path, fieldnames or rows[0].keys(), rows)
    write_session(
        {
            "command": command,
            "finished_at_s": time.time(),
            "out_csv": str(out_path) if out_path else None,
            "event_log": str(log_path) if log_path else None,
            "seed": seed,
            "snapshot": snapshot,
            "metrics": metrics.to_json_dict(),
            "summary": summary or {},
        },
        session_path,
    )
    return metrics


# --- throughput ---------------------------------------------------------------------


def cmd_throughput(
    tasks_list=(256, 1024, 8192),
    pilots: int = 1,
    workers: int = 8,
    out_path="throughput.csv",
    log_path=None,
    seed: int = 0,
    session_path=SESSION_FILE,
) -> RunMetrics:
    """Zero-compute task storm; one CSV row and one fleet per task count.

    runtime_incl_s counts pilot startup, runtime_excl_s only the
    submit-to-done window that throughput is computed from.
    """
    counts = _positive_ints(tasks_list, "task count")
    if pilots < 1:
        raise ValidationError("pilots must be >= 1")

    rows = []
    startup_total = 0.0
    for count in counts:
        descs = [_local_pilot(f"tp{count}-{p}", cores=workers, seed=seed) for p in range(pilots)]
        t0 = time.perf_counter()
        with _fleet(log_path, *descs) as manager:
            t_ready = time.perf_counter()
            ids = [
                manager.submit_task(
                    TaskDescription(task_id=f"t{count}-{i}", kind=TaskKind.ZERO_COMPUTE)
                )
                for i in range(count)
            ]
            manager.wait(ids)
            t_end = time.perf_counter()
            records = [manager.task(tid) for tid in ids]
            snapshot = manager.status_snapshot()

        done = sum(r.state is TaskState.DONE for r in records)
        dispatch_ms = sorted(
            (r.timestamps.start_s - r.timestamps.schedule_s) * 1000.0
            for r in records
            if r.timestamps.start_s is not None
        )
        execute_s = t_end - t_ready
        rows.append(
            {
                "tasks": count,
                "pilots": pilots,
                "workers": workers,
                "done": done,
                "failed": sum(r.state is TaskState.FAILED for r in records),
                "runtime_incl_s": t_end - t0,
                "runtime_excl_s": execute_s,
                "tasks_per_s": done / execute_s if execute_s > 0 else 0.0,
                "median_dispatch_ms": statistics.median(dispatch_ms) if dispatch_ms else None,
                "p99_dispatch_ms": dispatch_ms[int(0.99 * (len(dispatch_ms) - 1))]
                if dispatch_ms
                else None,
            }
        )
        startup_total += t_ready - t0

    metrics = RunMetrics(
        workload="throughput",
        params={"tasks": ",".join(map(str, counts)), "pilots": str(pilots), "workers": str(workers)},
        phase_s={"startup": startup_total, "execute": sum(r["runtime_excl_s"] for r in rows)},
        tasks_total=sum(counts),
        tasks_done=sum(r["done"] for r in rows),
        tasks_failed=sum(r["failed"] for r in rows),
    )
    return _finish(
        "throughput", rows, metrics,
        out_path=out_path, session_path=session_path, seed=seed,
        log_path=log_path, snapshot=snapshot,
    )


# --- circuit-execution scaling ----------------------------------------------------------


def _circuit_task_seed(seed: int, num_qubits: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, num_qubits, index]).generate_state(1)[0])


def cmd_circuits(
    qubits_list=tuple(range(2, 17, 2)),
    count: int = 16,
    backends=("local", "qpu_sim"),
    depth: int = 10,
    shots: int = 256,
    qpu_latency_s: float = 0.2,
    workers: int = 4,
    out_path="circuits.csv",
    log_path=None,
    seed: int = 0,
    session_path=SESSION_FILE,
) -> RunMetrics:
    """Random-circuit execution times per backend and qubit count.

    The local backend simulates exactly (exponential cost in qubits); the
    qpu_sim backend samples shots behind a fixed per-task latency, so its
    mean stays flat while the latency dominates. mean_s/std_s aggregate the
    per-task backend execution times of DONE tasks (for qpu_sim: modelled
    latency plus host simulation wall time); std_s is empty when count == 1.
    Every circuit and task description is built before the first submit,
    and each backend runs on its own fleet.
    """
    sizes = _positive_ints(qubits_list, "qubit count")
    if count < 1:
        raise ValidationError("count must be >= 1")
    if not backends:
        raise ValidationError("backends must name at least one of local, qpu_sim")
    bad = set(backends) - {"local", "qpu_sim"}
    if bad:
        raise ValidationError(f"unknown backends: {sorted(bad)}")

    pilots = [
        PilotDescription(
            name=f"sim-{backend}",
            backend_kind=BackendKind(backend),
            cores_per_node=workers,
            qpu_qubits=max(sizes) if backend == "qpu_sim" else 0,
            queue_model=QueueModel(
                per_task_latency_s=qpu_latency_s if backend == "qpu_sim" else 0.0
            ),
            seed=seed,
        )
        for backend in backends
    ]

    # Built before any task runs: building is pure Python, and doing it between
    # submits would hold the GIL against the tasks already running.
    circuits = {
        n: [random_circuit(n, depth, _circuit_task_seed(seed, n, i)) for i in range(count)]
        for n in sizes
    }
    rows = []
    done_total = failed_total = 0
    execute_total = 0.0
    for backend, pilot in zip(backends, pilots):
        qpu = backend == "qpu_sim"
        task_shots = shots if qpu else 0
        descs_by_size = {
            n: [
                TaskDescription(
                    task_id=f"{backend}-q{n}-{i}",
                    kind=TaskKind.QUANTUM_CIRCUIT,
                    payload=QuantumPayload(
                        circuit=circuit,
                        shots=task_shots,
                        observable=None if qpu else PauliObservable.single(n, {0: "Z"}),
                    ),
                    requires_qubits=n,
                )
                for i, circuit in enumerate(circuits[n])
            ]
            for n in sizes
        }
        with _fleet(log_path, pilot) as manager:
            t0 = time.perf_counter()
            manager.wait(
                [manager.submit_task(d) for descs in descs_by_size.values() for d in descs]
            )
            execute_total += time.perf_counter() - t0
            records_by_size = {
                n: [manager.task(d.task_id) for d in descs] for n, descs in descs_by_size.items()
            }
            snapshot = manager.status_snapshot()

        for n, records in records_by_size.items():
            exec_times = [
                r.result.exec_s
                for r in records
                if r.state is TaskState.DONE and r.result is not None
            ]
            failed = sum(r.state is TaskState.FAILED for r in records)
            rows.append(
                {
                    "backend": backend,
                    "qubits": n,
                    "tasks": count,
                    "failed": failed,
                    "depth": depth,
                    "shots": task_shots,
                    "mean_s": statistics.fmean(exec_times) if exec_times else None,
                    "std_s": statistics.stdev(exec_times) if len(exec_times) > 1 else None,
                }
            )
            done_total += len(exec_times)
            failed_total += failed

    metrics = RunMetrics(
        workload="circuits",
        params={
            "qubits": ",".join(map(str, sizes)),
            "count": str(count),
            "backends": ",".join(backends),
            "depth": str(depth),
        },
        phase_s={"execute": execute_total},
        tasks_total=count * len(rows),
        tasks_done=done_total,
        tasks_failed=failed_total,
    )
    return _finish(
        "circuits", rows, metrics,
        out_path=out_path, session_path=session_path, seed=seed,
        log_path=log_path, snapshot=snapshot,
    )


# --- gradient benchmark ------------------------------------------------------------------


def cmd_gradients(
    qubits_list=tuple(range(2, 9)),
    layers: int = 2,
    out_path="gradients.csv",
    seed: int = 0,
    fd_check: bool = True,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
    session_path=SESSION_FILE,
) -> RunMetrics:
    """Expectation-only vs adjoint-gradient timing for random SEL circuits.

    Rows whose state vector fits but whose three gradient vectors do not are
    marked status=grad:oom with the gradient columns empty; rows that cannot
    even hold one state are status=oom. grad_fd_max_rel_err is the largest
    |adjoint - central_fd| scaled by the largest |central_fd| component.
    """
    sizes = _positive_ints(qubits_list, "qubit count")
    if layers < 1:
        raise ValidationError("layers must be >= 1")

    rng = np.random.default_rng(seed)
    rows = []
    wall_start = time.perf_counter()
    for n in sizes:
        row = {
            "n": n,
            "num_params": 3 * n * layers,
            "status": "oom",
            "expect_s": None,
            "grad_s": None,
            "grad_fd_max_rel_err": None,
        }
        rows.append(row)
        if memory_bytes(n) >= memory_cap_bytes:
            continue
        params = rng.uniform(0.0, 2.0 * np.pi, row["num_params"])
        circuit = sel_circuit(n, layers, params)
        observable = PauliObservable.single(n, {0: "Z"})

        t0 = time.perf_counter()
        state = run_circuit(circuit, memory_cap_bytes=memory_cap_bytes)
        expectation(state, observable)
        row.update(status="grad:oom", expect_s=time.perf_counter() - t0)
        if 3 * memory_bytes(n) >= memory_cap_bytes:
            continue

        t1 = time.perf_counter()
        grad = adjoint_gradient(circuit, observable, memory_cap_bytes=memory_cap_bytes)
        row.update(status="ok", grad_s=time.perf_counter() - t1)
        if fd_check:
            fd = _central_fd(circuit, observable, params, memory_cap_bytes)
            scale = max(float(np.max(np.abs(fd))), 1e-12)
            row["grad_fd_max_rel_err"] = float(np.max(np.abs(grad - fd)) / scale)

    metrics = RunMetrics(
        workload="gradients",
        params={"qubits": ",".join(map(str, sizes)), "layers": str(layers)},
        phase_s={"execute": time.perf_counter() - wall_start},
        tasks_total=0,
        tasks_done=0,
        tasks_failed=0,
    )
    return _finish(
        "gradients", rows, metrics,
        out_path=out_path, session_path=session_path, seed=seed,
        summary={"rows": len(rows)},
    )


def _central_fd(circuit, observable, params, memory_cap_bytes) -> np.ndarray:
    h = 1e-5
    out = np.zeros(len(params))
    for i in range(len(params)):
        shift = np.zeros(len(params))
        shift[i] = h
        plus = expectation(
            run_circuit(circuit.bind(params + shift), memory_cap_bytes=memory_cap_bytes),
            observable,
        )
        minus = expectation(
            run_circuit(circuit.bind(params - shift), memory_cap_bytes=memory_cap_bytes),
            observable,
        )
        out[i] = (plus - minus) / (2.0 * h)
    return out


# --- cutting ---------------------------------------------------------------------------


def cmd_cut(
    cluster_sizes=(6, 6),
    reps: int = 1,
    max_width: int | None = None,
    shots: int = 0,
    workers_list=(1, 4),
    task_latency_s: float = 0.1,
    out_path="cut.csv",
    log_path=None,
    seed: int = 0,
    session_path=SESSION_FILE,
) -> RunMetrics:
    """Cut workflow per worker count, next to an uncut full-simulation baseline.

    The observable is Z on the first and last qubit. A single cluster has
    nothing to cut and yields only the baseline row. The baseline's value is
    the oracle every row's abs_error is measured against, so the uncut
    circuit is simulated once. Pilot per-task latency stands in for the
    per-fragment backend cost that makes distributing subexperiments
    worthwhile.
    """
    sizes = _positive_ints(cluster_sizes, "cluster size")
    workers_list = _positive_ints(workers_list, "worker count") if workers_list else []
    if shots < 0:
        raise ValidationError("shots must be >= 0")

    n = sum(sizes)
    circuit = clustered_circuit(sizes, reps=reps, seed=seed)
    observable = PauliObservable.single(n, {0: "Z", n - 1: "Z"})
    config = ",".join(map(str, sizes))
    if max_width is None:
        max_width = max(sizes) + 1

    t0 = time.perf_counter()
    oracle_value = expectation(run_circuit(circuit), observable)
    baseline_s = time.perf_counter() - t0

    def row(workers, value, exec_s, plan_s=None, reconstruct_s=None, num_cuts=0,
            subexperiments=1, sampling_overhead=1.0):
        return {
            "config": config,
            "reps": reps,
            "shots": shots,
            "workers": workers,
            "num_cuts": num_cuts,
            "subexperiments": subexperiments,
            "sampling_overhead": sampling_overhead,
            "value": value,
            "oracle_value": oracle_value,
            "abs_error": abs(value - oracle_value),
            "plan_s": plan_s,
            "exec_s": exec_s,
            "reconstruct_s": reconstruct_s,
            "total_s": sum(t for t in (plan_s, exec_s, reconstruct_s) if t is not None),
        }

    rows = [row(0, oracle_value, baseline_s)]
    snapshot = None
    with _fleet(log_path) as manager:
        if len(sizes) >= 2:
            for w in workers_list:
                pilot = manager.create_pilot(
                    _local_pilot(f"cut-w{w}", cores=w, latency_s=task_latency_s, seed=seed)
                )
                manager.wait_pilots_ready()
                result = run_cut_workflow(
                    manager,
                    circuit,
                    observable,
                    max_width=max_width,
                    shots=shots,
                    oracle=False,
                    task_prefix=f"w{w}",
                )
                rows.append(
                    row(
                        w,
                        result.value,
                        result.exec_s,
                        plan_s=result.plan_s,
                        reconstruct_s=result.reconstruct_s,
                        num_cuts=result.num_cuts,
                        subexperiments=result.num_subexperiments,
                        sampling_overhead=result.sampling_overhead,
                    )
                )
                manager.remove_pilot(pilot)
            snapshot = manager.status_snapshot()

    subexperiments = sum(r["subexperiments"] for r in rows[1:])
    metrics = RunMetrics(
        workload="cut",
        params={
            "config": config,
            "reps": str(reps),
            "shots": str(shots),
            "workers": ",".join(map(str, workers_list)),
        },
        phase_s={"execute": sum(r["exec_s"] for r in rows)},
        tasks_total=subexperiments,
        tasks_done=subexperiments,
        tasks_failed=0,
    )
    return _finish(
        "cut", rows, metrics,
        out_path=out_path, session_path=session_path, seed=seed,
        log_path=log_path, snapshot=snapshot,
    )


# --- vqc -------------------------------------------------------------------------------


def cmd_vqc(
    config: VqcConfig,
    workers: int = 4,
    out_path="vqc.csv",
    log_path=None,
    session_path=SESSION_FILE,
) -> RunMetrics:
    """Train the blob classifier through the manager; one CSV row per epoch."""
    rows = []
    with _fleet(
        log_path,
        _local_pilot("vqc", cores=workers, seed=config.seed),
        functions={BATCH_GRADIENT_FN: batch_gradient},
    ) as manager:
        t0 = time.perf_counter()
        run = train_vqc(
            config,
            manager,
            on_epoch=lambda s: rows.append(
                {
                    "epoch": s.epoch,
                    "loss": s.loss,
                    "train_accuracy": s.accuracy,
                    "grad_norm": s.grad_norm,
                    "epoch_s": s.epoch_s,
                }
            ),
        )
        train_s = time.perf_counter() - t0
        snapshot = manager.status_snapshot()

    summary = {
        "initial_loss": run.initial_loss,
        "final_loss": run.final_loss,
        "final_accuracy": run.final_accuracy,
        "epochs": config.epochs,
    }
    if config.epochs == 0:  # run.params is still the initial draw
        features, labels = make_blobs(config.samples, config.n_qubits, config.seed)
        loss, acc = evaluate(config, run.params, features, labels)
        summary.update({"untrained_loss": loss, "untrained_accuracy": acc})
    tallies = snapshot.get("tasks", {})
    done = int(tallies.get(TaskState.DONE.value, 0))
    failed = int(tallies.get(TaskState.FAILED.value, 0))
    metrics = RunMetrics(
        workload="vqc",
        params={k: str(v) for k, v in config.to_json_dict().items()},
        phase_s={"train": train_s},
        tasks_total=done + failed,
        tasks_done=done,
        tasks_failed=failed,
    )
    return _finish(
        "vqc", rows, metrics,
        out_path=out_path, session_path=session_path, seed=config.seed,
        log_path=log_path, snapshot=snapshot, summary=summary,
        fieldnames=["epoch", "loss", "train_accuracy", "grad_norm", "epoch_s"],
    )


# --- status ------------------------------------------------------------------------------


def cmd_status(manager: PilotManager | None = None, session_path=SESSION_FILE) -> dict:
    """Live snapshot when a manager is in-process, else the last session file."""
    if manager is not None:
        snap = manager.status_snapshot()
        snap["source"] = "live"
        return snap
    payload = load_session(session_path)
    payload["source"] = str(session_path)
    return payload
