"""Smoke test of the benchmark harness in perfbench/, which this suite only reads.

perfbench drives pilotq through its public API (pilot creation with
`workers=`, `run_cut_workflow` keywords, traced methods such as
`ResourceBackend.qpu_execute`), so a rename there fails here first.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_benchmark_workload_runs_correctly(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_a_traced_cut_run_counts_its_plan():
    # the tracer reads generate_subexperiments' (subs, reconstruction) and
    # the reconstruction's len for the plan's size
    result = _run("cut", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["cutting.subexperiments"]["value"] == 81
    assert result["metrics"]["cutting.terms"]["value"] == 32768


def test_every_traced_name_resolves_in_pilotq():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, (owner, attr) in tracing.TRACED.items():
        module_name, _, cls_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if cls_name:
            target = getattr(target, cls_name)
        assert callable(getattr(target, attr, None)), f"{span}: {owner}.{attr} is gone"
