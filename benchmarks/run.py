"""Benchmark entry point for asymcover.

    python3 benchmarks/run.py --workload {table,exact,codes} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a source tree.  A run makes a fixed number of
repetitions of the workload, S divided by the workload's nominal repetition
time and at least two, so every run does the same work whatever the host's
speed.  Each repetition runs in a fresh interpreter (benchmarks/rep.py)
with the tree's src/ on its path, ASYMCOVER_CACHE removed from its
environment and a new temporary cache, so no repetition starts warm.  Every
output is checked.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics, the end-to-end metrics with --trace 0 and the
per-layer ones with --trace 1.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 9


def source_digest() -> str:
    """Identifies the program and benchmark version, so counts are compared only within one."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spawn(args, mode: str, out: Path, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ASYMCOVER_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), args.workload, str(args.seed), args.size,
           mode, repr(spawned_at), str(out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text(encoding="utf-8"))


def check_counts(args, reps: list[dict], record: bool) -> list[str]:
    """Counts must repeat exactly within this run and across runs of one version and seed.

    A run's counts join the history only if `record`, so that a failed run
    cannot make later correct runs look wrong.
    """
    problems = []
    counts = reps[0]["counts"]
    if any(rep["counts"] != counts for rep in reps):
        problems.append(f"counts differ between repetitions: {[r['counts'] for r in reps]}")
    key = {"source": source_digest(), "workload": args.workload, "size": args.size,
           "seed": args.seed}
    history = WORK / "history.jsonl"
    earlier = []
    if history.exists():
        for line in history.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if all(entry.get(k) == v for k, v in key.items()):
                earlier.append(entry["counts"])
    if any(old != counts for old in earlier):
        problems.append(f"counts {counts} differ from an earlier run of this version and seed: {earlier}")
    if record and not problems:
        with history.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({**key, "counts": counts}) + "\n")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    if not (ROOT / "src" / "asymcover" / "cli.py").is_file():
        print(f"no asymcover source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    repetitions = max(2, round(args.seconds / SIZES[args.size]["rep_s"][args.workload]))
    mode = "traced" if args.trace else "plain"
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        probes = [] if args.trace else [
            spawn(args, "probe", rundir / f"probe{i}.json", deadline - time.monotonic())
            for i in range(SETUP_PROBES)
        ]
        reps = [spawn(args, mode, rundir / f"rep{i}.json", deadline - time.monotonic())
                for i in range(repetitions)]
    finally:
        shutil.rmtree(rundir)

    failures = [reason for rep in reps for reason in rep["failures"].values()]
    problems = failures + check_counts(args, reps, record=not failures)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    raw = [r["wall_raw_s"] for r in reps]
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in reps)
                  for name in reps[0]["layers"]}
        (WORK / f"trace-{args.workload}.json").write_text(
            json.dumps(reps[-1]["spans"]), encoding="utf-8")
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "bracket_gap": reps[0]["counts"]["bracket_gap"],
            "code_words": reps[0]["counts"]["code_words"],
        }
    print(f"{args.workload} seed {args.seed}: {len(reps)} {mode} repetitions, unscaled wall_s"
          f" min {min(raw):.3f} median {statistics.median(raw):.3f} max {max(raw):.3f},"
          f" unscaled setup_s median"
          f" {statistics.median(r['setup_raw_s'] for r in probes + reps):.4f},"
          f" {len(probes)} setup probes, counts {reps[0]['counts']}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
