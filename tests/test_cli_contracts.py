"""The command line's contracts: what each command prints and the code it
exits with, checked through `cli.main` as a user's shell would see them.

A check is a short script of rows, run in order in one fresh working
directory, so that a `construct` row writes the file that the `verify` row
after it reads.  A row is (argv, exit code, output): the exact stdout lines,
given as a dict for a --json command, or for a refusal (exit 1) the one
stderr line, with nothing on stdout.  A command that exits nonzero leaves
the directory as it found it, and a refused one reaches no bound source and
no builder.  The checks that
need real processes run the package twice, under two hash seeds, and compare
the two stdouts byte for byte.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from asymcover import bounds, cli, exact, ipsolve
from test_table_cli import run_cli

SRC = Path(__file__).resolve().parent.parent / "src"


def verify_json(n, r, profile, radius=True):
    """`verify --json`'s payload for a code that covers at its radius `r`;
    the radius sweep reports only up to n = 26."""
    ones = sum(level * count for level, count in enumerate(profile))
    payload = {"covers": True, "level_profile": profile, "n": n, "ones_total": ones, "r": r,
               "size": sum(profile), "zeros_total": n * sum(profile) - ones}
    return {**payload, "radius": r} if radius else payload


def diagonal_profile(n, coradius):
    """The zero-diagonal code's levels: the all-ones word and one word at each
    of n-1 .. n-coradius."""
    return [0] * (n - coradius) + [1] * (coradius + 1)


CHECKS = [
    # the covering count and the code-file codecs
    [("construct --method diagonal --n 17 --coradius 4 --out d.json", 0,
      ["5 words (n=17, R=13) -> d.json"]),
     ("verify d.json --json", 0, verify_json(17, 13, diagonal_profile(17, 4)))],
    # the 6-word diagonal code at the sweep's cap, counted by inclusion-exclusion
    [("construct --method diagonal --n 28 --coradius 5 --out d28.json", 0,
      ["6 words (n=28, R=23) -> d28.json"]),
     ("verify d28.json --json", 0, verify_json(28, 23, diagonal_profile(28, 5), radius=False))],
    # past the sweep's cap a code of at most 22 words is still counted by
    # inclusion-exclusion: the 11-word zero-diagonal code at n = 62
    [("construct --method diagonal --n 62 --coradius 10 --out d62.json", 0,
      ["11 words (n=62, R=52) -> d62.json"]),
     ("verify d62.json", 0,
      ["size: 11", f"level profile: {' '.join(map(str, diagonal_profile(62, 10)))}",
       "zeros total: 55", "ones total: 627", "covers: true (R=52)"])],
    # greedy's one-block pass at n = 10 and at its cutoff n = 12, then its
    # blocked loop at n = 13, each checked by the covering sweep
    [("construct --method greedy --n 10 --r 3 --out g.json", 0,
      ["36 words (n=10, R=3) -> g.json"]),
     ("verify g.json --json", 0, verify_json(10, 3, [1, 0, 0, 0, 4, 4, 9, 8, 7, 2, 1]))],
    [("construct --method greedy --n 12 --r 3 --out g12.json", 0,
      ["105 words (n=12, R=3) -> g12.json"]),
     ("verify g12.json --json", 0,
      verify_json(12, 3, [0, 0, 0, 1, 4, 9, 15, 21, 25, 17, 8, 4, 1]))],
    [("construct --method greedy --n 13 --r 3 --out g13.json", 0,
      ["184 words (n=13, R=3) -> g13.json"]),
     ("verify g13.json --json", 0,
      verify_json(13, 3, [0, 0, 0, 1, 5, 10, 21, 32, 39, 35, 23, 14, 3, 1]))],
    # a greedy code has at least its sphere bound's words, 2^24 at (24, 0):
    # refused before a word is built, as general refuses past the word cap
    [("construct --method greedy --n 24 --r 0 --out g24.json", 1,
      ["error: greedy code of at least 16777216 words exceeds the word cap 8388608"])],
    # the coradius builder's product of zero runs: parts 3 and 3 at n = 14,
    # then coradius 0, the all-ones word alone
    [("construct --method general --n 14 --coradius 6 --out gen.json", 0,
      ["16 words (n=14, R=8) -> gen.json"]),
     ("verify gen.json --r 8", 0,
      ["size: 16", "level profile: 0 0 0 0 0 0 0 0 1 2 3 4 3 2 1", "zeros total: 48",
       "ones total: 176", "radius: 8", "covers: true (R=8)"])],
    [("construct --method general --n 6 --coradius 0 --out gen0.json", 0,
      ["1 words (n=6, R=6) -> gen0.json"]),
     ("verify gen0.json", 0,
      ["size: 1", "level profile: 0 0 0 0 0 0 1", "zeros total: 0", "ones total: 6",
       "radius: 6", "covers: true (R=6)"])],
    # a code file of 2^18 words is written in four pieces of 2^16 words and
    # read back whole
    [("construct --method general --n 18 --coradius 18 --out gen18.json", 0,
      ["262144 words (n=18, R=0) -> gen18.json"]),
     ("verify gen18.json", 0,
      ["size: 262144",
       "level profile: 1 18 153 816 3060 8568 18564 31824 43758 48620 43758 31824 18564 8568"
       " 3060 816 153 18 1",
       "zeros total: 2359296", "ones total: 2359296", "radius: 0", "covers: true (R=0)"])],
    # the coradius theorem settles (n, 10) up to n = 15; past it a node limit
    # of 1 stops phi at the open steps (16, 18 and 19, 10), which take their
    # LP value, and greedy; (20, 10)'s own step needs no program, so its tag
    # is "mono", and exit 3 says the limit was hit down the column
    [("bound --n 20 --r 10 --node-limit 1", 3, ["20-144[mono/general]"])],
    # greedy's node limit bounds its setup too: a one-node limit at (24, 12)
    # stops greedy at its first group, where listing every group's block
    # terms first took about 6 s and 480 MB
    [("bound --n 24 --r 12 --node-limit 1", 3, ["31-256[mono/general]"])],
    # past n = 26 no greedy runs, and every chain step of the (27, 19) column
    # is proved without the program, so no source stops: exit 0 at the default
    # limit, where phi once ran out of its 10^8 nodes at each step
    [("bound --n 27 --r 19", 0, ["10-25[superdiag/general]"])],
    # greedy's (14, 9) code stops at a 1,000-node limit and leaves the
    # closed-form upper bound: the record's limit_hit makes bound exit 3,
    # although no chain step took phi's LP value; the default limit settles it
    [("bound --n 14 --r 9 --node-limit 1000", 3, ["7-12[superdiag/general]"])],
    [("bound --n 14 --r 9", 0, ["7[superdiag/g]"])],
    # no exact search runs inside bound, so the limit binds the chain and
    # greedy at (4, 1) and (5, 2) as at every other cell without a stored proof
    [("bound --n 4 --r 1 --node-limit 1", 3, ["5-6[superdiag/general]"])],
    # at 20 nodes phi settles (4, 1)'s step in 6 and greedy stops, but the
    # chain meets the closed-form upper bound, and a closed bracket is not
    # flagged, as no larger limit can tighten it
    [("bound --n 4 --r 1 --node-limit 20", 0, ["6[mono/general]"])],
    [("bound --n 5 --r 2 --node-limit 1", 3, ["5-6[superdiag/general]"])],
    # the open (5, 1), (6, R) and (7, R) cells are stored exact proofs, which
    # bound reads without a search and whatever the node limit
    [("bound --n 7 --r 2", 0, ["14[e/e]"])],
    [("bound --n 6 --r 1 --node-limit 1", 0, ["18[e/e]"])],
    [("bound --n 7 --r 1 --node-limit 1", 0, ["31[e/e]"])],
    # a cell past the cube's dimension cap of 62 is refused before any bound
    # source runs, even where the R = 0 or coradius shortcut needs no kernel call
    [("bound --n 1000 --r 1000", 1, ["error: need 1 <= n <= 62, got n=1000"])],
    [("bound --n 100 --r 0", 1, ["error: need 1 <= n <= 62, got n=100"])],
    # and a table reaching past it before its first cell, not after the
    # chains below n = 63, which take minutes at the default limit
    [("table --n-min 99 --n-max 100 --r-min 0 --r-max 0", 1,
      ["error: need 1 <= n <= 62, got n=100"])],
    [("table --n-max 63 --r-max 1", 1, ["error: need 1 <= n <= 62, got n=63"])],
    # exact search settles (6, 1) in 6,435 nodes and (7, 3) in 5,901; a
    # 20,000-node limit stops (7, 2) with its bracket, and exit 3 says so
    [("exact --n 6 --r 1", 0, ["18"])],
    [("exact --n 7 --r 2 --node-limit 20000", 3, ["13-15 (bracket)"])],
    [("exact --n 7 --r 3", 0, ["7"])],
]

# what a command does before it prints: a refused one reaches none of these
WORK = [(bounds, "greedy_code"), (exact, "exact_kplus"), (ipsolve, "ip_phi"), (cli, "greedy_code")]


def no_work(*args, **kwargs):
    raise AssertionError("a refused command did work before it refused")


@pytest.mark.parametrize("rows", CHECKS, ids=[rows[0][0] for rows in CHECKS])
def test_cli_prints_and_exits_as_its_contract_says(rows, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, code, want in rows:
        before = sorted(os.listdir())
        with monkeypatch.context() as patch:
            if code == cli.EXIT_USAGE:
                for module, name in WORK:
                    patch.setattr(module, name, no_work)
            rc, out, err = run_cli(shlex.split(argv), capsys)
        if isinstance(want, dict):
            want = json.dumps(want, indent=1, sort_keys=True).splitlines()
        if code == cli.EXIT_USAGE:
            assert (rc, out, err.splitlines()) == (code, "", want), argv
        else:
            assert (rc, out.splitlines()) == (code, want), argv
        if code != cli.EXIT_OK:
            assert sorted(os.listdir()) == before, argv


def run_twice(argv, tmp_path):
    """(exit code, stdout) of two processes running `python -m asymcover argv`
    in `tmp_path`, the first under hash seed 0 and the second under 1, so that
    output that depends on set order shows as a difference."""
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "asymcover", *shlex.split(argv)],
                              capture_output=True, env=env, cwd=tmp_path, timeout=120)
        runs.append((proc.returncode, proc.stdout))
    return runs


def test_table_prints_the_same_json_cold_and_from_its_cache(tmp_path):
    # the benchmark's table request as a process, cold and then answered from its cache
    (cold, first), (warm, second) = run_twice(
        "table --n-max 10 --r-max 11 --json --cache t.json", tmp_path)
    assert (cold, warm) == (0, 0)
    assert first == second


def test_exact_json_is_the_same_in_two_processes(tmp_path):
    # exact --json holds no time: two processes stopped by one node limit
    # print the same bytes
    (first_rc, first), (second_rc, second) = run_twice(
        "exact --n 7 --r 2 --node-limit 20000 --json", tmp_path)
    assert (first_rc, second_rc) == (3, 3)
    assert first == second
