"""One repetition of a workload, run by run.py in a fresh interpreter.

    python3 benchmarks/rep.py WORKLOAD SEED SIZE MODE SPAWNED_AT OUT_JSON

MODE is "probe" (set up, then stop), "plain" (node-count sources wrapped
only) or "traced" (every layer wrapped).  SPAWNED_AT is the parent's
time.monotonic() just before it started this interpreter; both ends read
the same system-wide clock, so setup_s covers interpreter start, imports and
input generation.  The result goes to OUT_JSON.

Other tenants of a shared host slow this process down, by up to 60%, for
seconds to minutes at a time, and the guest cannot see it.  So every
repetition also times fixed pure-Python loops (`calibrate`) right after
set-up and again after every operation.  It reports its times scaled by
REFERENCE_LOOP_S / (the loops' time): seconds on a host where the loops take
REFERENCE_LOOP_S.  Set-up is scaled by the loop time that follows it, each
operation by the mean of the loop times just before and just after it.  The
raw times are kept next to the scaled ones.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# The calibration's typical time on the baseline machine (README.md).
REFERENCE_LOOP_S = 0.009


def calibrate(rounds: int = 6) -> float:
    """Seconds that two fixed pure-Python loops take, each its best of `rounds`.

    One loop is integer arithmetic, the other dict reads and writes keyed by
    bit slices of a 40-bit integer.  Together they slow down with the host
    much as the program does (README.md has the measurement).
    """
    keys = [0x912265B1F5] * 20_000
    arith = table = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        arith = min(arith, time.perf_counter() - start)
        start = time.perf_counter()
        counts = {}
        for key in keys:
            counts[key & 0xFFFFF] = counts.get(key >> 20, 0) + 1
        table = min(table, time.perf_counter() - start)
    return arith + table


def main(argv: list[str]) -> int:
    workload, seed, size, mode, spawned_at, out_path = argv
    out_path = Path(out_path)

    import asymcover.cli

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(asymcover.cli.__file__).resolve().parents:
        print(f"asymcover was imported from {asymcover.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    import spans
    import workloads

    workdir = out_path.parent / f"{out_path.stem}-files"
    workdir.mkdir()
    ops = workloads.build(workload, int(seed), size, workdir)
    setup_s = time.monotonic() - float(spawned_at)
    loop_s = [calibrate()]
    result = {"setup_raw_s": setup_s, "setup_s": setup_s * REFERENCE_LOOP_S / loop_s[0]}
    if mode != "probe":
        recorder = spans.Recorder()
        sites = spans.SITES if mode == "traced" else spans.COUNT_SITES
        outcomes, op_s, errors = [], [], {}
        with spans.instrumented(recorder, sites):
            for i, op in enumerate(ops):
                if op.prepare is not None:
                    op.prepare()
                stdout = io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                        code = asymcover.cli.main(op.argv)
                except Exception:  # a crash is a failed operation, not a failed run
                    code, errors[i] = None, traceback.format_exc()
                op_s.append(time.perf_counter() - start)
                outcomes.append(workloads.Outcome(code, stdout.getvalue()))
                loop_s.append(calibrate())
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scaled = [t * REFERENCE_LOOP_S * 2 / (before + after)
                  for t, before, after in zip(op_s, loop_s, loop_s[1:])]
        try:
            bad, gap, words = workloads.check(workload, size, ops, outcomes)
        except Exception:
            bad, gap, words = {i: traceback.format_exc() for i in range(len(ops))}, 0, 0
        bad.update(errors)
        layers = spans.layer_metrics(recorder.spans)
        result.update(
            wall_raw_s=sum(op_s),
            wall_s=sum(scaled),
            peak_rss_mb=peak_kb / 1024,
            attempted=len(ops),
            failures={str(i): reason for i, reason in sorted(bad.items())},
            counts={
                "bracket_gap": gap,
                "code_words": words,
                "ipsolve.nodes": layers["ipsolve.nodes"],
                "exact.nodes": layers["exact.nodes"],
            },
        )
        if mode == "traced":
            layers["trace.overhead_s"] = len(recorder.spans) * spans.wrapper_cost()
            result.update(layers=layers, spans=recorder.spans)
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
