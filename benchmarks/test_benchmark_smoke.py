"""Smoke test for the benchmark: every workload at the shrunken "smoke" size,
the traced run's metric set, the span recorder's self-time arithmetic, and
that BENCHMARK.json agrees with the code."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, bench_dir=HERE):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_checks_out(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert result["metrics"]["setup_s"]["value"] > 0
    assert result["metrics"]["code_words"]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = run_bench("table", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    assert metrics["ipsolve.solves"] > 0 and metrics["constructions.greedy.calls"] > 0
    assert metrics["table.cache.bytes"] > 0


def test_broken_codes_must_be_rejected():
    ops = workloads.build("codes", 0, "smoke", Path("unused"))
    outcomes = [workloads.Outcome(0, "{}") for _ in ops]
    bad, _, _ = workloads.check("codes", "smoke", ops, outcomes)
    assert sorted(bad) == [6, 7]  # the two broken verifications must exit 2


def test_self_time_subtracts_children():
    # root 0..10 holds a 1..4 child (which holds 2..3) and a 6..9 child
    tree = [
        {"id": 0, "name": "cli", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "exact", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "ipsolve", "parent": 1, "start": 2.0, "end": 3.0, "key": "plus:6:1", "nodes": 5},
        {"id": 3, "name": "ipsolve", "parent": 0, "start": 6.0, "end": 9.0, "key": "plus:6:1", "nodes": 7},
    ]
    assert spans.self_times(tree) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0}
    layers = spans.layer_metrics(tree)
    assert layers["cli.self_s"] == 4.0 and layers["exact.self_s"] == 2.0
    assert layers["ipsolve.self_s"] == 4.0 and layers["ipsolve.nodes"] == 12
    assert layers["ipsolve.nodes_per_s"] == 3.0 and layers["ipsolve.distinct_ratio"] == 0.5


def test_recorder_nests_and_restores():
    import asymcover.exact as exact

    original = exact.exact_kplus
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        exact.exact_kplus(4, 1)
    assert exact.exact_kplus is original
    root = recorder.spans[0]
    assert root["name"] == "exact" and root["parent"] is None and root["settled"]
    children = {s["name"] for s in recorder.spans if s["parent"] == root["id"]}
    assert {"constructions.greedy", "ipsolve"} <= children


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    layers = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(layers) == sorted([*spans.layer_metrics([]), "trace.overhead_s"])


def test_fails_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("codes", trace=0, cwd=tmp_path, bench_dir=tmp_path / "benchmarks")
    assert proc.returncode != 0
    assert proc.stdout == ""
