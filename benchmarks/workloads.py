"""The benchmark's workloads: what one repetition asks of `asymcover.cli.main`
and how its answers are checked.

`build` turns (workload, seed, size) into a list of operations, each one
argv for `cli.main` plus the exit code it must return.  `check` reads the
captured outputs and written files after the last operation and returns the
failures per operation and the two quality figures: `bracket_gap` (sum of
upper - lower) and `code_words` (total size of the codes behind the upper
bounds).  README.md says why each workload looks the way it does.
"""

from __future__ import annotations

import ast
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("table", "exact", "codes")


def _acceptance_data() -> tuple[dict, set]:
    """The reference K+(n, R) brackets and the analytically settled cells,
    read from the acceptance tests so that the benchmark checks the same data."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    found = {node.targets[0].id: node.value for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    settled = set(ast.literal_eval(found["SETTLED_CELLS"])) | {(4, 1)}
    return ast.literal_eval(found["REFERENCE_BRACKETS"]), settled


# "full" is what the benchmark measures; "smoke" is the same shape shrunk so
# the smoke test finishes in seconds.  Exact cells are (n, R, node limit, lo,
# hi): without a node limit the search must settle on a value in lo..hi,
# with one it may return a bracket that meets lo..hi.  rep_s is about how
# long one repetition of each workload takes on the baseline machine (see
# README.md); a run makes --seconds / rep_s repetitions, at least two.
SIZES = {
    "full": {
        "table_n_max": 10,
        "exact": ((6, 1, None, 18, 18), (7, 3, None, 7, 7),
                  (7, 2, 20_000, 13, 15), (7, 1, 20_000, 30, 34)),
        "greedy": (12, 3),
        "nu": (16, 4),
        "diagonal": (17, 4),
        "rep_s": {"table": 2.0, "exact": 2.5, "codes": 3.0},
    },
    "smoke": {
        "table_n_max": 6,
        "exact": ((4, 1, None, 6, 6), (5, 2, None, 5, 5), (6, 2, 2_000, 8, 8)),
        "greedy": (8, 2),
        "nu": (9, 2),
        "diagonal": (10, 4),
        "rep_s": {"table": 1.0, "exact": 1.0, "codes": 1.0},
    },
}

EXIT_OK, EXIT_VERIFY, EXIT_BUDGET = 0, 2, 3


@dataclass
class Op:
    argv: list[str]
    exits: tuple[int, ...]
    prepare: Callable[[], None] | None = None  # runs just before the operation, untimed


def build(workload: str, seed: int, size: str, workdir: Path) -> list[Op]:
    p = SIZES[size]
    if workload == "table":
        argv = [
            "table", "--n-min", "2", "--n-max", str(p["table_n_max"]),
            "--r-min", "1", "--r-max", "11", "--nu-seeds", "2", "--seed", str(seed),
            "--time-limit", "10", "--workers", "1", "--json",
            "--cache", str(workdir / "cache.json"),
        ]
        return [Op(argv, (EXIT_OK,)), Op(list(argv), (EXIT_OK,))]
    if workload == "exact":
        ops = []
        for n, R, limit, _, _ in p["exact"]:
            argv = ["exact", "--n", str(n), "--r", str(R), "--json",
                    "--out", str(workdir / f"witness-{n}-{R}.json")]
            if limit is None:
                ops.append(Op(argv, (EXIT_OK,)))
            else:
                ops.append(Op(argv + ["--node-limit", str(limit)], (EXIT_OK, EXIT_BUDGET)))
        return ops  # no random input: node limits make every run repeat exactly
    if workload == "codes":
        (gn, gr), (nn, nr), (dn, dc) = p["greedy"], p["nu"], p["diagonal"]
        greedy, nu, diag, broken = (str(workdir / f"{name}.json")
                                    for name in ("greedy", "nu", "diagonal", "broken"))
        return [
            Op(["construct", "--method", "greedy", "--n", str(gn), "--r", str(gr),
                "--json", "--out", greedy], (EXIT_OK,)),
            Op(["construct", "--method", "nu-random", "--n", str(nn), "--r", str(nr),
                "--seed", str(seed), "--json", "--out", nu], (EXIT_OK,)),
            Op(["construct", "--method", "diagonal", "--n", str(dn), "--coradius", str(dc),
                "--json", "--out", diag], (EXIT_OK,)),
            Op(["verify", greedy, "--json"], (EXIT_OK,)),
            Op(["verify", nu, "--json"], (EXIT_OK,)),
            Op(["verify", diag, "--json"], (EXIT_OK,)),
            Op(["verify", diag, "--r", str(dn - dc - 1), "--json"], (EXIT_VERIFY,)),
            Op(["verify", broken, "--json"], (EXIT_VERIFY,),
               prepare=lambda: _drop_tenth(greedy, broken, seed)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _drop_tenth(src: str, dst: str, seed: int) -> None:
    """Copy a code file without a seed-chosen tenth of its words."""
    obj = json.loads(Path(src).read_text(encoding="utf-8"))
    words = obj["words"]
    gone = set(random.Random(seed).sample(range(len(words)), max(1, len(words) // 10)))
    obj["words"] = [w for i, w in enumerate(words) if i not in gone]
    Path(dst).write_text(json.dumps(obj), encoding="utf-8")


@dataclass
class Outcome:
    """What one operation returned: exit code (None on exception) and stdout."""

    exit: int | None
    stdout: str


def check(workload: str, size: str, ops: list[Op], outcomes: list[Outcome]):
    """Return ({op index: reason}, bracket_gap, code_words) for one repetition."""
    bad: dict[int, str] = {}
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if out.exit not in op.exits:
            bad[i] = f"exit {out.exit}, expected one of {op.exits}"
    if bad:
        return bad, 0, 0
    payloads = [json.loads(out.stdout) for out in outcomes]
    p = SIZES[size]
    return {"table": _check_table, "exact": _check_exact, "codes": _check_codes}[workload](
        p, ops, outcomes, payloads, bad
    )


def _check_table(p, ops, outcomes, payloads, bad):
    reference, settled = _acceptance_data()
    cold = payloads[0]
    grid = {(rec["n"], rec["R"]): rec for rec in cold.values()}
    wrong = []
    for cell, (lo, hi) in reference.items():
        if cell[0] > p["table_n_max"]:
            continue
        rec = grid.get(cell)
        if rec is None or rec["lower"] > hi or rec["upper"] < lo:
            wrong.append(f"{cell} misses reference {lo}-{hi}")
        elif cell in settled and not rec["lower"] == rec["upper"] == lo == hi:
            wrong.append(f"{cell} is {rec['lower']}-{rec['upper']}, settled value {lo}")
    if wrong:
        bad[0] = "; ".join(wrong)
    if outcomes[1].stdout != outcomes[0].stdout:
        bad[1] = "warm (cached) output differs from the cold output"
    cells = [rec for rec in cold.values() if 1 <= rec["R"] < rec["n"]]
    return bad, sum(r["upper"] - r["lower"] for r in cells), sum(r["upper"] for r in cells)


def _check_exact(p, ops, outcomes, payloads, bad):
    from asymcover.codefiles import load_code
    from asymcover.cube import covers

    cells = {(n, R): (limit, lo, hi) for n, R, limit, lo, hi in p["exact"]}
    gap = words = 0
    for i, (op, out) in enumerate(zip(ops, payloads)):
        limit, lo, hi = cells[out["n"], out["R"]]
        witness = load_code(op.argv[op.argv.index("--out") + 1])
        if out["status"] == "exact":
            found = (out["value"], out["value"])
        elif limit is not None:
            found = tuple(out["bracket"])
        else:
            bad[i] = "no exact value without a node limit"
            continue
        if (out["status"] == "exact") != (outcomes[i].exit == EXIT_OK):
            bad[i] = f"status {out['status']} with exit {outcomes[i].exit}"
        elif found[0] > hi or found[1] < lo:
            bad[i] = f"answer {found} misses {lo}-{hi}"
        elif len(witness) != found[1] or not covers(witness, out["R"]):
            bad[i] = "witness file does not cover at the claimed size"
        gap += found[1] - found[0]
        words += out["witness_size"]
    return bad, gap, words


def _check_codes(p, ops, outcomes, payloads, bad):
    from asymcover.bounds import asym_sphere_bound, superdiag_lower

    built = payloads[:3]
    gap = sum(c["size"] - max(asym_sphere_bound(c["n"], c["r"]), superdiag_lower(c["n"], c["r"]))
              for c in built)
    for i, (made, seen) in enumerate(zip(built, payloads[3:6]), start=3):
        if not (seen["covers"] and seen["size"] == made["size"] and seen["r"] == made["r"]):
            bad[i] = f"verify of a built code reports {seen}"
    for i in (6, 7):
        if payloads[i]["covers"] or payloads[i].get("uncovered", 0) < 1:
            bad[i] = "broken code not reported as uncovering"
    return bad, gap, sum(c["size"] for c in built)
