"""Statistics, the per-layer analysis of a traced run, and the host fingerprint."""

from __future__ import annotations

import os
import platform
import statistics
import sys
from collections import defaultdict

import numpy as np

LAYERS = ("model", "store", "events", "manager", "agent", "backends", "qsim", "cutting", "bench.vqc")
PAYLOAD_LAYERS = ("qsim", "backends", "bench.vqc")
TRACKED_QUBITS = (4, 14, 16, 18)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def summarize(samples) -> dict:
    """p50 plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": None, "n": 0}
    arr = np.asarray(samples, dtype=float)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    p50, tail = np.percentile(arr, [50.0, pct])
    return {"p50": float(p50), "tail": float(tail), "tail_pct": pct, "n": n}


class LayerAnalysis:
    """Accumulates per-layer samples round by round from spans, records and events."""

    # timing sample name -> unit; each is reported as p50 and tail
    TIMINGS = {
        "model.transition_us": "us",
        "store.advance_us": "us",
        "events.emit_us": "us",
        "manager.submit_us": "us",
        "manager.submit_self_us": "us",
        "agent.queue_wait_ms": "ms",
        "agent.dispatch_ms": "ms",
        "agent.run_ms": "ms",
        "agent.overhead_ms": "ms",
        "backends.provision_ms": "ms",
        "backends.qpu_execute_ms": "ms",
        **{f"qsim.run_circuit_ms.q{n}": "ms" for n in TRACKED_QUBITS},
        "qsim.sample_ms": "ms",
        "qsim.expectation_ms": "ms",
        "qsim.probabilities_ms": "ms",
        "qsim.adjoint_gradient_ms": "ms",
        "cutting.find_cuts_ms": "ms",
        "cutting.generate_subexperiments_ms": "ms",
        "cutting.fragment_values_ms": "ms",
        "cutting.reconstruct_ms": "ms",
        "cutting.fanout_ms": "ms",
        "vqc.batch_gradient_ms": "ms",
    }
    # ratio sample name -> unit; reported as p50 only
    RATIOS = {
        **{f"qsim.ns_per_amp_gate.q{n}": "ns" for n in TRACKED_QUBITS},
        "qsim.adjoint_per_forward": "1",
        "vqc.compute_share": "1",
        "agent.busy_share": "1",
        "cutting.subexperiments": "count",
        "cutting.terms": "count",
    }

    # spans whose duration is a timing sample as is, in the given scale
    _DIRECT = {
        "model.transition": ("model.transition_us", 1e6),
        "events.emit": ("events.emit_us", 1e6),
        "manager.submit_task": ("manager.submit_us", 1e6),
        "backends.provision": ("backends.provision_ms", 1e3),
        "backends.qpu_execute": ("backends.qpu_execute_ms", 1e3),
        "qsim.sample": ("qsim.sample_ms", 1e3),
        "qsim.expectation": ("qsim.expectation_ms", 1e3),
        "qsim.probabilities": ("qsim.probabilities_ms", 1e3),
        "qsim.adjoint_gradient": ("qsim.adjoint_gradient_ms", 1e3),
        "cutting.find_cuts": ("cutting.find_cuts_ms", 1e3),
        "cutting.generate_subexperiments": ("cutting.generate_subexperiments_ms", 1e3),
        "cutting.reconstruct": ("cutting.reconstruct_ms", 1e3),
        "bench.vqc.batch_gradient": ("vqc.batch_gradient_ms", 1e3),
    }

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.advance_calls = 0
        self.task_emits = 0
        self.amp_gates = 0

    def add_round(self, spans, rnd, workers: int) -> None:
        samples = self.samples
        child_s: dict[int, float] = defaultdict(float)
        by_id = {}
        for span in spans:
            by_id[span[0]] = span
            if span[1] != -1:
                child_s[span[1]] += span[4] - span[3]
        payload_roots = defaultdict(list)  # task id -> (start, end) of payload calls
        all_roots = defaultdict(list)
        fragment_s = 0.0
        for sid, parent, name, t0, t1, rid, _thread, note in spans:
            dur = t1 - t0
            own = dur - child_s.get(sid, 0.0)
            layer = layer_of(name)
            self.self_s[layer] += own
            if parent == -1 and rid is not None:
                all_roots[rid].append((t0, t1))
                if layer in PAYLOAD_LAYERS:
                    payload_roots[rid].append((t0, t1))
            direct = self._DIRECT.get(name)
            if direct is not None:
                samples[direct[0]].append(dur * direct[1])
            if name == "store.advance" or name == "store.try_advance":
                if name == "store.advance":
                    self.advance_calls += 1
                if parent == -1 or by_id[parent][2] != "store.try_advance":
                    samples["store.advance_us"].append(dur * 1e6)
            elif name == "events.emit" and note == "task":
                self.task_emits += 1
            elif name == "manager.submit_task":
                samples["manager.submit_self_us"].append(own * 1e6)
            elif name == "qsim.run_circuit":
                n, gates = note
                self.amp_gates += gates * 2**n
                if n in TRACKED_QUBITS:
                    samples[f"qsim.run_circuit_ms.q{n}"].append(dur * 1e3)
                    samples[f"qsim.ns_per_amp_gate.q{n}"].append(own * 1e9 / (gates * 2**n))
                if parent != -1 and by_id[parent][2] == "qsim.adjoint_gradient":
                    grad = by_id[parent]
                    samples["qsim.adjoint_per_forward"].append((grad[4] - grad[3]) / dur)
            elif name == "cutting.generate_subexperiments":
                samples["cutting.subexperiments"].append(note[0])
                samples["cutting.terms"].append(note[1])
            elif name == "cutting.fragment_values":
                fragment_s += dur
        if "exec_s" in rnd.extra:
            samples["cutting.fragment_values_ms"].append(fragment_s * 1e3)
            samples["cutting.fanout_ms"].append((rnd.extra["exec_s"] - fragment_s) * 1e3)
        for start, end in rnd.extra.get("epochs", ()):
            busy = sum(s[7] for s in spans if s[2] == "bench.vqc.batch_gradient" and start <= s[3] < end)
            samples["vqc.compute_share"].append(busy / (end - start))
        if rnd.manager is not None:
            self._add_tasks(rnd, workers, payload_roots, all_roots)

    def _add_tasks(self, rnd, workers, payload_roots, all_roots) -> None:
        """Agent metrics from the program's own event log and task timestamps."""
        samples = self.samples
        seen: dict[str, dict[str, float]] = defaultdict(dict)
        for ev in rnd.manager.log.records:
            if ev.entity == "task":
                seen[ev.entity_id][ev.event] = ev.ts_s
        run_total = 0.0
        for tid, rec in rnd.manager.store.snapshot().items():
            ts, ev = rec.timestamps, seen[tid]
            if "task_done" not in ev:
                continue
            started, done = ev["task_started"], ev["task_done"]
            run = done - started
            run_total += run
            samples["agent.queue_wait_ms"].append((started - ev["task_assigned"]) * 1e3)
            samples["agent.dispatch_ms"].append((ts.start_s - ts.schedule_s) * 1e3)
            samples["agent.run_ms"].append(run * 1e3)
            payload = sum(t1 - t0 for t0, t1 in payload_roots.get(tid, ()))
            samples["agent.overhead_ms"].append((run - payload) * 1e3)
            covered = sum(
                max(0.0, min(t1, done) - max(t0, started)) for t0, t1 in all_roots.get(tid, ())
            )
            self.self_s["agent"] += run - covered
        samples["agent.busy_share"].append(run_total / (workers * rnd.window_s))

    def metrics(self, ops: int, tasks: int, cpu_util: float) -> dict:
        """name -> {value, unit, n, stat}."""
        out = {}
        for name, unit in self.TIMINGS.items():
            s = summarize(self.samples.get(name, ()))
            out[name] = {"value": s["p50"], "unit": unit, "n": s["n"], "stat": "p50"}
            tail_stat = f"p{s['tail_pct']:g}" if s["tail_pct"] is not None else "none"
            out[f"{name}.tail"] = {"value": s["tail"], "unit": unit, "n": s["n"], "stat": tail_stat}
        for name, unit in self.RATIOS.items():
            s = summarize(self.samples.get(name, ()))
            out[name] = {"value": s["p50"], "unit": unit, "n": s["n"], "stat": "p50"}
        per_task = max(tasks, 1)
        counts = {
            "store.advance_per_task": (self.advance_calls / per_task, "1/task"),
            "events.emit_per_task": (self.task_emits / per_task, "1/task"),
            "qsim.amp_gates": (self.amp_gates / max(ops, 1), "count/op"),
            "qsim.bytes_computed": (32 * self.amp_gates / max(ops, 1), "B/op"),
            "proc.cpu_util": (cpu_util, "1"),
        }
        for name, (value, unit) in counts.items():
            out[name] = {"value": value, "unit": unit, "n": 1, "stat": "total"}
        for layer in LAYERS:
            out[f"self_ms_per_op.{layer}"] = {
                "value": self.self_s.get(layer, 0.0) * 1e3 / max(ops, 1),
                "unit": "ms/op",
                "n": ops,
                "stat": "mean",
            }
        return out


def host_fingerprint() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
