"""pilotq benchmark: seeded workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cut --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0

A single run measures one workload in this process and prints, as the last
line of standard output, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. The line before it is
the full report (`# report {...}`: host fingerprint, sample counts and tail
percentiles); a readable table goes to standard error. `--all` runs every
workload untraced and traced, one process each, and prints every metric with
its unit and sample count plus the tracing overhead. It includes `storm`,
which BENCHMARK.json does not list: its timings follow the host's load too
closely to hold a bound (see README.md).

pilotq is imported from `src/` of the checkout; without it the benchmark
exits with an error before measuring anything. BLAS and OpenMP threading
variables are left exactly as found.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
REPORT_PREFIX = "# report "


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_pilotq():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import pilotq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pilotq from {src}: {exc}")
    if not Path(pilotq.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported pilotq from {pilotq.__file__}, not from {src}")
    return pilotq


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import measure
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed)

    setup_s = []
    for _ in range(wl.setup_reps):
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.inputs()
        manager = wl.fleet(inputs)
        setup_s.append(time.perf_counter() - t0)
        manager.shutdown()

    tracer = analysis = spans_fh = None

    def one_round():
        gc.collect()
        if tracer is not None:
            tracer.active = True
        manager = wl.fleet(inputs)
        try:
            return wl.round(inputs, manager)
        finally:
            manager.shutdown()
            if tracer is not None:
                tracer.active = False

    warm = one_round()
    attempted, failed = warm.attempted, warm.failed

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        analysis = measure.LayerAnalysis()
        SPANS_DIR.mkdir(exist_ok=True)
        spans_fh = gzip.open(SPANS_DIR / f"spans-{name}.tsv.gz", "wt", compresslevel=1, encoding="utf-8")

    rounds = []
    measured = 0.0
    began = time.perf_counter()
    try:
        while measured < seconds and time.perf_counter() - began < 2 * seconds:
            rnd = one_round()
            if tracer is not None:
                spans = tracer.drain()
                analysis.add_round(spans, rnd, wl.workers)
                tracing.write_spans(spans_fh, spans)
            rnd.manager = None
            rounds.append(rnd)
            measured += rnd.window_s
            attempted += rnd.attempted
            failed += rnd.failed
    finally:
        if spans_fh is not None:
            spans_fh.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [op for rnd in rounds for op in rnd.ops_s]
    op_stats = measure.summarize([op * 1e3 for op in ops])
    e2e = {
        "setup_s": {"value": measure.median(setup_s), "unit": "s", "n": len(setup_s), "stat": "p50"},
        "tasks_per_s": {
            "value": measure.median([r.tasks_done / r.window_s for r in rounds]),
            "unit": "1/s",
            "n": len(rounds),
            "stat": "p50",
        },
        "op_p50_ms": {"value": op_stats["p50"], "unit": "ms", "n": op_stats["n"], "stat": "p50"},
        "op_tail_ms": {
            "value": op_stats["tail"],
            "unit": "ms",
            "n": op_stats["n"],
            "stat": f"p{op_stats['tail_pct']:g}" if op_stats["tail_pct"] else "none",
        },
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB", "n": 1, "stat": "max"},
        "failed_ratio": {"value": failed / max(attempted, 1), "unit": "1", "n": attempted, "stat": "ratio"},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": measure.host_fingerprint(),
        "setup_reps": wl.setup_reps,
        "rounds": len(rounds),
        "measured_s": measured,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
    }
    if trace:
        cpu = sum(r.cpu_s for r in rounds)
        tasks = sum(r.tasks_done for r in rounds)
        report["per_layer"] = analysis.metrics(len(ops), tasks, cpu / measured)
        report["bindings"] = tracer.bindings
    return report


def format_table(metrics: dict) -> str:
    return "\n".join(
        f"  {name:<38} {m['value']:>14.6g} {m['unit']:<9} {m['stat']:>6}  n={m['n']}"
        for name, m in metrics.items()
    )


def result_line(report: dict, spec: dict) -> dict:
    key, source = ("per_layer", report.get("per_layer", {})) if report["trace"] else ("end_to_end", report["e2e"])
    metrics = {}
    for entry in spec[key]:
        got = source.get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise SystemExit(f"perfbench: metric {entry['name']} [{entry['unit']}] was not measured")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run_all(spec: dict, seed: int, seconds: float) -> int:
    import workloads

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    status = 0
    host = None
    for name in workloads.WORKLOADS:
        reports = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            line = next((ln for ln in proc.stdout.splitlines() if ln.startswith(REPORT_PREFIX)), None)
            if proc.returncode != 0 or line is None:
                print(f"{name} trace={trace}: exited {proc.returncode} without a report")
                status = 1
                continue
            reports[trace] = json.loads(line[len(REPORT_PREFIX):])
        if len(reports) < 2:
            continue
        plain, traced = reports[0], reports[1]
        host = plain["host"]
        status |= plain["failed"] != 0 or traced["failed"] != 0
        print(f"\n== {name} (seed {seed}): {whys.get(name, 'not in BENCHMARK.json, see perfbench/README.md')}")
        print(" end to end, untraced:")
        print(format_table(plain["e2e"]))
        print(" tracing overhead (traced minus untraced):")
        for name, m in plain["e2e"].items():
            t = traced["e2e"][name]["value"]
            rel = f"{(t - m['value']) / m['value']:+.1%}" if m["value"] else "n/a"
            print(f"  {name:<38} {t - m['value']:>+14.6g} {m['unit']:<9} {rel:>7}")
        print(" per layer, traced:")
        print(format_table(traced["per_layer"]))
    if host is not None:
        print("\nhost: " + json.dumps(host))
    return int(status)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="storm, circuits, cut or vqc")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_pilotq()
    if args.all:
        return run_all(spec, args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"give --all or --workload, one of {', '.join(workloads.WORKLOADS)}")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: end to end", file=sys.stderr)
    print(format_table(report["e2e"]), file=sys.stderr)
    if args.trace:
        print("per layer:", file=sys.stderr)
        print(format_table(report["per_layer"]), file=sys.stderr)
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps(result_line(report, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
