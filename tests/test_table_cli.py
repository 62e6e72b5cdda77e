"""Grid assembly, cache files, rendering, and the command-line surface."""

import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time

import pytest

import asymcover
from asymcover import cli, constructions, ipsolve
from asymcover.bounds import BoundRecord, best_bounds
from asymcover.codefiles import load_code, save_code
from asymcover.constructions import diagonal_code
from asymcover.cube import Code, sweep, union_count
from asymcover.exact import exact_kplus
from asymcover.table import (
    TableSpec,
    build_grid,
    cell_dicts,
    load_cache,
    render_cell,
    render_table,
    save_cache,
)

SMALL = TableSpec(n_min=2, n_max=5, r_min=1, r_max=4)


def test_every_exported_name_resolves():
    missing = [name for name in asymcover.__all__ if not hasattr(asymcover, name)]
    assert missing == []


def test_tablespec_domain_includes_working_margin():
    cells = build_grid(SMALL).keys()
    assert (1, 0) in cells  # below the rendered window
    assert (5, 0) in cells
    assert (3, 3) in cells
    assert (3, 4) not in cells  # outside the triangle
    assert max(n for n, _ in cells) == 5


def test_tablespec_validation():
    with pytest.raises(ValueError):
        TableSpec(n_min=0, n_max=3, r_min=1, r_max=2)
    with pytest.raises(ValueError):
        TableSpec(n_min=2, n_max=1, r_min=1, r_max=2)
    with pytest.raises(ValueError):
        TableSpec(n_min=1, n_max=3, r_min=2, r_max=1)


@pytest.mark.parametrize("node_limit", [0, -5])
def test_build_grid_refuses_a_node_limit_below_one_before_it_writes_a_cache(tmp_path, node_limit):
    path = tmp_path / "cache.json"
    with pytest.raises(ValueError, match="node_limit must be positive"):
        build_grid(TableSpec(1, 8, 0, 3, node_limit=node_limit, cache_path=str(path)))
    assert not path.exists()


def test_render_cell_formats():
    assert render_cell(BoundRecord(4, 1, 6, 6, "mono", "e")) == "6[mono/e]"
    assert render_cell(BoundRecord(7, 2, 13, 15, "mono", "g")) == "13-15[mono/g]"
    assert render_cell(BoundRecord(3, 0, 8, 8, "sphere", "sphere")) == "8"
    assert render_cell(BoundRecord(3, 3, 1, 1, "superdiag", "d")) == "1"


def test_build_grid_small_block():
    grid = build_grid(SMALL)
    want = {
        (2, 1): 2,
        (3, 1): 3,
        (4, 1): 6,
        (5, 1): 10,
        (3, 2): 2,
        (4, 2): 3,
        (5, 2): 5,
        (4, 3): 2,
        (5, 3): 3,
        (5, 4): 2,
    }
    for cell, value in want.items():
        rec = grid[cell]
        assert (rec.lower, rec.upper) == (value, value), cell


def test_render_table_layout():
    grid = build_grid(SMALL)
    text = render_table(grid, SMALL)
    lines = text.splitlines()
    assert lines[0].split() == ["R\\n", "2", "3", "4", "5"]
    assert len(lines) == 5
    first_row = lines[1].split()
    assert first_row[0] == "1"
    assert first_row[1] == "2[superdiag/d]"
    # R > n corner renders the constant cell
    wide = TableSpec(n_min=2, n_max=3, r_min=1, r_max=4)
    corner = render_table(build_grid(wide), wide).splitlines()[-1].split()
    assert corner == ["4", "1", "1"]


def test_record_dict_round_trip():
    for rec in build_grid(SMALL).values():
        d = rec.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(BoundRecord)] + ["exact"]
        assert d["exact"] is rec.exact
        assert BoundRecord.from_dict(d) == rec


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    spec = TableSpec(n_min=2, n_max=4, r_min=1, r_max=3, cache_path=path)
    first = build_grid(spec)
    assert os.path.exists(path)
    assert load_cache(path, ipsolve.DEFAULT_NODE_CAP) == first
    assert load_cache(path, 1000) == {}  # another node limit reuses nothing
    second = build_grid(spec)
    assert second == first


def test_warm_table_leaves_its_cache_file_alone(tmp_path):
    path = tmp_path / "cache.json"
    spec = TableSpec(n_min=2, n_max=4, r_min=1, r_max=3, cache_path=str(path))
    first = build_grid(spec)
    os.utime(path, ns=(1, 1))  # a rewrite, even within one clock tick, would reset this
    text = path.read_bytes()
    assert build_grid(spec) == first
    assert (path.read_bytes(), path.stat().st_mtime_ns) == (text, 1)

    wider = dataclasses.replace(spec, n_max=5)
    assert build_grid(wider).keys() > first.keys()
    assert path.stat().st_mtime_ns != 1
    assert load_cache(str(path), ipsolve.DEFAULT_NODE_CAP) == build_grid(wider)


def test_table_chains_from_its_own_grid():
    # (7,1) is the anchor 31 where the chain from the exact K+(6,1) = 18 has
    # 30, so the R = 1 column sits one above that chain from n = 7 on
    grid = build_grid(TableSpec(n_min=1, n_max=10, r_min=0, r_max=10))
    assert [grid[(n, 1)].lower for n in range(7, 11)] == [31, 53, 94, 169]
    # bound runs the same chain down its own column, so only the table's
    # propagated upper bound can be tighter: (8,1) is 53-62[mono/s] there and
    # 53-64[mono/g] from bound
    for (n, R), rec in grid.items():
        alone = best_bounds(n, R)
        assert alone.lower <= rec.lower <= rec.upper <= alone.upper, (rec, alone)
    assert render_cell(grid[(8, 1)]) == "53-62[mono/s]"
    assert render_cell(best_bounds(8, 1)) == "53-64[mono/g]"


def lower_brackets(records):
    return [(rec.n, rec.R, rec.lower, rec.lower_tag) for rec in records]


def test_bound_has_the_tables_lower_bound(acceptance_grid):
    # one chain: bound steps from the (n-1, R) lower bound it proves itself,
    # the table from its grid's, and the two agree on every open cell
    grid = acceptance_grid
    cells = [(n, R) for (n, R) in grid if 0 < R < n]
    assert len(cells) == 77
    assert lower_brackets(best_bounds(n, R) for n, R in cells) == lower_brackets(
        grid[cell] for cell in cells)
    # the grid is `table --n-max 13 --r-max 11`'s: its --json stdout, byte for
    # byte; a change that moves a bracket re-pins it and names the cells moved
    out = json.dumps(cell_dicts(grid), indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4a32870ab6dd1c8d1fceda13f96f16097a7ab126f3a04ba661979138e525fd28")


@pytest.mark.parametrize("node_limit, n_max, count", [(1, 20, 189), (1000, 16, 119)])
def test_bound_has_the_tables_lower_bound_under_a_small_limit(node_limit, n_max, count):
    # where phi runs out, bound's column and the table's grid tag a step alike
    grid = build_grid(TableSpec(1, n_max, 0, n_max - 2, node_limit=node_limit))
    cells = [(n, R) for (n, R) in grid if 0 < R < n]
    assert len(cells) == count
    assert lower_brackets(best_bounds(n, R, node_limit) for n, R in cells) == (
        lower_brackets(grid[cell] for cell in cells))


def test_bound_and_the_table_part_only_past_the_program_cap():
    # up to MAX_IP_DIMENSION both chain the same lower bound; past it no step is
    # proved, and the table's propagate lifts a cell by monotonicity over its
    # grid, which bound does not walk
    grid = build_grid(TableSpec(1, 41, 0, 14, node_limit=1))
    cells = [(n, R) for (n, R) in grid if 12 <= R <= 14 and R < n <= ipsolve.MAX_IP_DIMENSION]
    assert len(cells) == 81
    assert lower_brackets(best_bounds(n, R, 1) for n, R in cells) == (
        lower_brackets(grid[cell] for cell in cells))
    past = [(41, R) for R in (12, 13, 14)]
    assert [(grid[cell].lower, grid[cell].lower_tag) for cell in past] == [
        (12496, "mono"), (5854, "mono"), (2900, "mono")]
    assert [(rec.lower, rec.lower_tag) for rec in (best_bounds(*cell, 1) for cell in past)] == [
        (11651, "sphere"), (4741, "sphere"), (2002, "sphere")]


@pytest.mark.parametrize("n_cached", [6, 8])
def test_table_over_a_partial_cache_equals_a_cold_one(tmp_path, n_cached):
    # a cached (n-1, R) record is propagated, a cold one is not; the chain
    # that starts from either gives the same table
    path = str(tmp_path / "cache.json")
    build_grid(TableSpec(n_min=1, n_max=n_cached, r_min=0, r_max=10, cache_path=path))
    cold = build_grid(TableSpec(n_min=1, n_max=10, r_min=0, r_max=10))
    warm = build_grid(TableSpec(n_min=1, n_max=10, r_min=0, r_max=10, cache_path=path))
    assert warm == cold


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_cache_write_is_clean(tmp_path):
    path = str(tmp_path / "c.json")
    save_cache(path, {(2, 1): BoundRecord(2, 1, 2, 2, "e", "e")}, 1000)
    assert sorted(os.listdir(tmp_path)) == ["c.json"]
    raw = read_json(path)
    assert sorted(raw) == ["cells", "node_limit", "version"]
    assert raw["node_limit"] == 1000
    assert raw["cells"]["2,1"]["exact"] is True


def run_cli(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_bound_text(capsys):
    rc, out, _ = run_cli(["bound", "--n", "6", "--r", "3"], capsys)
    assert rc == 0
    assert out.strip() == "4[superdiag/d]"


def test_cli_bound_steps_from_its_own_column(capsys):
    # from the (7, 1) anchor 31, not the 30 that the chain from K+(6, 1) = 18 gives
    rc, out, _ = run_cli(["bound", "--n", "8", "--r", "1"], capsys)
    assert (rc, out) == (0, "53-64[mono/g]\n")


def test_cli_bound_json(capsys):
    rc, out, _ = run_cli(["bound", "--n", "4", "--r", "1", "--json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["lower"] == data["upper"] == 6
    assert data["exact"] is True


@pytest.mark.parametrize("n,R,value", [(4, 1, 6), (5, 1, 10), (5, 2, 5), (6, 1, 18), (6, 2, 8)])
def test_cli_bound_settles_every_open_cell_up_to_n_6(n, R, value, capsys):
    # the coradius theorem leaves these open: the chain and greedy settle (4, 1)
    # and (5, 2), and stored proofs the rest
    rc, out, _ = run_cli(["bound", "--n", str(n), "--r", str(R), "--json"], capsys)
    data = json.loads(out)
    assert (rc, data["lower"], data["upper"]) == (0, value, value)


def test_cli_usage_errors(capsys):
    assert run_cli([], capsys)[0] == 1
    assert run_cli(["bound", "--n", "4"], capsys)[0] == 1
    assert run_cli(["nosuch"], capsys)[0] == 1
    assert run_cli(["verify", "no-such-file.json"], capsys)[0] == 1
    assert run_cli(["bound", "--n", "80", "--r", "1"], capsys)[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--n", "4", "--r", "1", "--seed", "1"],
        ["linear", "--n", "4", "--r", "1", "--time-limit", "1"],
        ["bound", "--n", "4", "--r", "1", "--cache", "c.json"],
        ["construct", "--method", "greedy", "--n", "3", "--r", "1", "--out", "g.json",
         "--node-limit", "5"],
        ["verify", "g.json", "--seed", "9"],
        ["exact", "--n", "4", "--r", "1", "--workers", "1"],
        ["bound", "--n", "4", "--r", "1", "--nu-seeds", "2"],
        ["bound", "--n", "4", "--r", "1", "--seed", "1"],
        ["bound", "--n", "6", "--r", "1", "--exact"],
        ["table", "--n-max", "3", "--no-exact"],
        ["bound", "--n", "4", "--r", "1", "--time-limit", "5"],
        ["bound", "--n", "4", "--r", "1", "--no-ip"],  # retired with the budget switches
        ["table", "--n-max", "3", "--no-greedy"],
        ["exact", "--n", "7", "--r", "2", "--time-limit", "5"],
    ],
)
def test_cli_rejects_a_flag_its_command_does_not_read(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == "" and "unrecognized arguments" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [["exact", "--n", "6", "--r", "1"]])
def test_cli_rejects_a_non_positive_limit(command, capsys):
    for value in ("-1", "0"):
        rc, out, err = run_cli([*command, "--node-limit", value], capsys)
        assert (rc, out) == (1, ""), value
        assert "argument --node-limit: must be positive" in err


def test_cli_construct_and_verify(tmp_path, capsys):
    out_path = str(tmp_path / "d.json")
    rc, out, _ = run_cli(
        ["construct", "--method", "diagonal", "--n", "6", "--coradius", "3",
         "--out", out_path],
        capsys,
    )
    assert rc == 0
    assert "4 words" in out
    code = load_code(out_path)
    assert len(code) == 4 and code.r == 3

    rc, out, _ = run_cli(["verify", out_path], capsys)
    assert rc == 0
    assert "covers: true (R=3)" in out
    assert "radius: 3" in out

    rc, out, _ = run_cli(["verify", out_path, "--r", "2"], capsys)
    assert rc == 2
    assert "covers: false (R=2)" in out


def test_cli_verify_counts_zeros_and_ones_per_word(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    assert run_cli(["construct", "--method", "greedy", "--n", "7", "--r", "2", "--out", path],
                   capsys)[0] == 0
    code = load_code(path)
    rc, out, _ = run_cli(["verify", path, "--json"], capsys)
    payload = json.loads(out)
    assert rc == 0
    assert payload["ones_total"] == sum(w.bit_count() for w in code.words)
    assert payload["zeros_total"] == sum(code.n - w.bit_count() for w in code.words)


def test_cli_verify_payload_is_the_same_on_either_count_path(tmp_path, capsys, monkeypatch):
    def swept(code, R, want_radius):
        at_R, radius = sweep(code, R, want_radius)
        return at_R.bit_count(), radius

    path = str(tmp_path / "d.json")
    save_code(path, diagonal_code(17, 4))
    runs = {}
    for name, count in (("union", union_count), ("sweep", swept)):
        monkeypatch.setattr(cli, "covered_count", count)
        runs[name] = [run_cli(["verify", path, "--r", r, "--json"], capsys) for r in ("12", "13")]
    assert runs["union"] == runs["sweep"]
    (rc12, out12, _), (rc13, out13, _) = runs["union"]
    assert (rc12, rc13) == (2, 0)
    assert json.loads(out12)["uncovered"] > 0 and json.loads(out13)["covers"] is True
    assert json.loads(out12)["radius"] == json.loads(out13)["radius"] == 13


def test_cli_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_code("d.json", diagonal_code(6, 3))
    calls = [
        ["bound", "--n", "6", "--r", "2"],
        ["--help"],
        ["bound", "--n", "x", "--r", "2"],
        ["construct", "--method", "greedy", "--n", "5", "--out", "g.json"],
        ["bound", "--n", "6", "--r", "2", "--json"],
        ["verify", "d.json"],
    ]
    cli.build_parser()
    built = cli.build_parser.cache_info().misses
    reused = [run_cli(argv, capsys) for argv in calls]
    assert cli.build_parser.cache_info().misses == built
    assert [rc for rc, _, _ in reused] == [0, 0, 1, 1, 0, 0]
    assert "invalid int value: 'x'" in reused[2][2]
    assert reused[3][2] == "error: method 'greedy' requires --r\n"
    # the same calls, each on a parser of its own
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run_cli(argv, capsys) for argv in calls] == reused


def test_cli_construct_needs_inputs(tmp_path, capsys):
    rc, _, err = run_cli(
        ["construct", "--method", "directsum", "--in1", "x.json",
         "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert rc == 1
    assert "--in2" in err


def test_cli_construct_rejects_invalid_patch(tmp_path, capsys):
    s_path = str(tmp_path / "s.json")
    t_path = str(tmp_path / "t.json")
    inner_path = str(tmp_path / "i.json")
    save_code(s_path, Code.from_words(2, [3]))   # misses vertex 00 at R=1
    save_code(t_path, Code.from_words(2, []))    # empty patch cannot absorb it
    save_code(inner_path, diagonal_code(3, 2))
    rc, _, err = run_cli(
        ["construct", "--method", "semidirect", "--s-in", s_path, "--t-in", t_path,
         "--code-in", inner_path, "--r", "1", "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert rc == 2
    assert "verification failure" in err


# method: (its flags, stdout, SHA-256 of the file it writes); the inputs come from
# construct_inputs, and every run writes o.json in the working directory
CONSTRUCT_RUNS = {
    "diagonal": (
        ["--n", "6", "--coradius", "3"],
        "4 words (n=6, R=3) -> o.json\n",
        "e5913e55c85165900cd34da7a26a39c18bfcb2f1b4b8dd51dafb60affa14b729",
    ),
    "directsum": (
        ["--in1", "a.json", "--in2", "b.json"],
        "12 words (n=9, R=4) -> o.json\n",
        "5f74f4290fb82e6fa155494e3b9802ebcf4269c80cc113be34c935d70c8c50f9",
    ),
    "semidirect": (
        ["--s-in", "s.json", "--t-in", "t.json", "--code-in", "c.json", "--r", "1"],
        "11 words (n=5, R=1) -> o.json\n",
        "bc63379d7f130940b47abfbae49c6a1a8547ce44710e2f6a4c79ef2c9cd9ddee",
    ),
    "greedy": (
        ["--n", "6", "--r", "2"],
        "9 words (n=6, R=2) -> o.json\n",
        "5d0e9297a6c6c67ec51ccd75a668d60047946d534d582bb8a37b7dd7082c3bd2",
    ),
    "nu-random": (
        ["--n", "8", "--r", "2", "--seed", "3"],
        "60 words (n=8, R=2) -> o.json\n",
        "14a479832c2b052630f121890a46b3ab84ae8f6ad74b3f73e48dc538e069e6c7",
    ),
    "power2": (
        ["--m", "2", "--r", "1", "--seed", "1", "--trials", "4"],
        "6 words (n=4, R=1) -> o.json\n",
        "2fda0cd9c94ae0c3d4d1d62ef99d2041b6a6f70369daa20f38943d9308300151",
    ),
    "general": (
        ["--n", "10", "--coradius", "5"],
        "12 words (n=10, R=5) -> o.json\n",
        "14eaab8c706e50e937104302702f9f8fc0d675b50e82fb57c208789ef65a4d17",
    ),
}
CONSTRUCT_NEEDS = {
    "diagonal": "--n, --coradius",
    "directsum": "--in1, --in2",
    "semidirect": "--s-in, --t-in, --code-in, --r",
    "greedy": "--n, --r",
    "nu-random": "--n, --r",
    "power2": "--m, --r",
    "general": "--n, --coradius",
}


@pytest.fixture
def construct_inputs(tmp_path, monkeypatch):
    """The input files of directsum and semidirect, in a fresh working directory."""
    monkeypatch.chdir(tmp_path)
    save_code("a.json", diagonal_code(3, 2))
    save_code("b.json", diagonal_code(6, 3))
    save_code("s.json", Code.from_words(2, [3]))  # misses 00 at R=1 ...
    save_code("t.json", Code.from_words(2, [0]))  # ... which the patch holds
    save_code("c.json", diagonal_code(3, 2))
    return tmp_path


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("method", CONSTRUCT_RUNS)
def test_cli_construct_method_pins(method, construct_inputs, capsys):
    flags, stdout, digest = CONSTRUCT_RUNS[method]
    rc, out, err = run_cli(["construct", "--method", method, *flags, "--out", "o.json"], capsys)
    assert (rc, out, err) == (0, stdout, "")
    assert _sha256("o.json") == digest


def test_cli_construct_general_at_coradius_zero(construct_inputs, capsys):
    # K+(6, 6) = 1: the all-ones word alone
    rc, out, err = run_cli(["construct", "--method", "general", "--n", "6", "--coradius", "0",
                            "--out", "o.json"], capsys)
    assert (rc, out, err) == (0, "1 words (n=6, R=6) -> o.json\n", "")
    assert load_code("o.json").words == (63,)


def test_cli_construct_general_refuses_past_its_word_cap(construct_inputs, capsys):
    # 2^62 words: refused from the split's size before a word is built
    rc, out, err = run_cli(["construct", "--method", "general", "--n", "62", "--coradius", "62",
                            "--out", "o.json"], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: general code of {1 << 62} words exceeds the word cap {1 << 23}\n"
    assert not os.path.exists("o.json")


def test_cli_construct_greedy_builds_a_code_at_the_word_cap(construct_inputs, capsys,
                                                           monkeypatch):
    # the sphere bound of (23, 0) is 2^23 words, the cap itself: greedy is still
    # called there, and (24, 0) is refused (test_cli_contracts.py)
    built = []
    monkeypatch.setattr(cli, "greedy_code", lambda n, R: built.append((n, R)) or Code.from_words(
        1, [1], r=1))
    rc, out, err = run_cli(["construct", "--method", "greedy", "--n", "23", "--r", "0",
                            "--out", "o.json"], capsys)
    assert (rc, out, err, built) == (0, "1 words (n=1, R=1) -> o.json\n", "", [(23, 0)])


@pytest.mark.parametrize("coradius", [20, 27])
def test_cli_construct_general_refuses_a_code_covers_cannot_count(coradius, construct_inputs,
                                                                   capsys, monkeypatch):
    # past n = 28 covers counts at most 22 words: 12,288 words at coradius 20 and
    # 3,188,646 at 27 are refused before a word is built, where building the
    # latter before covers refused it took about 8 s and 350 MB
    built = []
    monkeypatch.setattr(constructions, "all_ones", lambda n: built.append(n) or (1 << n) - 1)
    rc, out, err = run_cli(["construct", "--method", "general", "--n", "40",
                            "--coradius", str(coradius), "--out", "o.json"], capsys)
    assert (rc, out, built) == (1, "", [])
    assert err == "error: covering sweep steps sets of 2^40 bits; cap is n <= 28\n"
    assert not os.path.exists("o.json")
    # a code of at most 22 words is still built and counted there
    rc, out, err = run_cli(["construct", "--method", "general", "--n", "40", "--coradius", "5",
                            "--out", "o.json"], capsys)
    assert (rc, out, err, built) == (0, "6 words (n=40, R=35) -> o.json\n", "", [40])


@pytest.mark.parametrize("method", CONSTRUCT_NEEDS)
def test_cli_construct_method_needs_its_flags(method, construct_inputs, capsys):
    before = sorted(os.listdir(construct_inputs))
    rc, out, err = run_cli(["construct", "--method", method, "--out", "o.json"], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: method {method!r} requires {CONSTRUCT_NEEDS[method]}\n"
    flags = CONSTRUCT_RUNS[method][0]
    rc, out, err = run_cli(["construct", "--method", method, *flags[2:], "--out", "o.json"],
                           capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: method {method!r} requires {flags[0]}\n"
    assert sorted(os.listdir(construct_inputs)) == before


def test_cli_construct_refuses_an_unknown_method(construct_inputs, capsys):
    rc, out, err = run_cli(["construct", "--method", "nosuch", "--out", "o.json"], capsys)
    assert (rc, out) == (1, "")
    assert "argument --method: invalid choice: 'nosuch'" in err
    assert not os.path.exists("o.json")


def test_cli_construct_semidirect_refuses_an_invalid_patch(construct_inputs, capsys):
    save_code("t.json", Code.from_words(2, [1]))  # the patch misses 00
    rc, out, err = run_cli(["construct", "--method", "semidirect",
                            *CONSTRUCT_RUNS["semidirect"][0], "--out", "o.json"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("verification failure: patch invalid: "
                   "some vertex is neither covered by S nor in T\n")
    assert not os.path.exists("o.json")


@pytest.mark.parametrize("r", [1, None], ids=["misses-a-vertex", "no-radius"])
def test_cli_construct_refuses_a_code_that_does_not_cover(r, construct_inputs, capsys,
                                                          monkeypatch):
    # the all-ones word alone misses 000 at R = 1; a code with no radius covers nothing
    monkeypatch.setattr(cli, "greedy_code", lambda n, R: Code.from_words(n, [(1 << n) - 1], r=r))
    rc, out, err = run_cli(["construct", "--method", "greedy", "--n", "3", "--r", "1",
                            "--out", "o.json"], capsys)
    assert (rc, out) == (2, "")
    assert err == "verification failure: construction does not cover\n"
    assert not os.path.exists("o.json")


@pytest.mark.parametrize("flag", ["--in1", "--in2"])
def test_cli_construct_directsum_names_the_unannotated_input(flag, construct_inputs, capsys):
    path = "a.json" if flag == "--in1" else "b.json"
    save_code(path, Code.from_words(2, [3]))  # no radius annotation
    rc, out, err = run_cli(["construct", "--method", "directsum",
                            *CONSTRUCT_RUNS["directsum"][0], "--out", "o.json"], capsys)
    assert (rc, out) == (1, "")
    assert err == (f"error: {flag} {path} has no radius annotation;"
                   " directsum inputs must carry one\n")
    assert not os.path.exists("o.json")


def test_cli_construct_semidirect_names_an_inner_code_of_another_radius(construct_inputs,
                                                                       capsys):
    rc, out, err = run_cli(["construct", "--method", "semidirect", "--s-in", "s.json",
                            "--t-in", "t.json", "--code-in", "b.json", "--r", "1",
                            "--out", "o.json"], capsys)
    assert (rc, out) == (1, "")
    assert err == ("error: --code-in b.json has radius 3 but --r is 1:"
                   " the inner code must carry the patched code's radius\n")
    assert not os.path.exists("o.json")


def test_cli_construct_semidirect_gives_an_unannotated_inner_code_its_r(construct_inputs,
                                                                         capsys):
    save_code("c.json", Code.from_words(3, diagonal_code(3, 2).words))  # no radius annotation
    assert load_code("c.json").r is None
    flags, stdout, digest = CONSTRUCT_RUNS["semidirect"]
    rc, out, err = run_cli(["construct", "--method", "semidirect", *flags, "--out", "o.json"],
                           capsys)
    assert (rc, out, err) == (0, stdout, "")
    assert _sha256("o.json") == digest


def test_cli_construct_semidirect_names_a_patch_in_another_cube(construct_inputs, capsys):
    save_code("t.json", Code.from_words(3, [0]))
    rc, out, err = run_cli(["construct", "--method", "semidirect",
                            *CONSTRUCT_RUNS["semidirect"][0], "--out", "o.json"], capsys)
    assert (rc, out) == (1, "")
    assert err == ("error: --t-in t.json has n=3 but --s-in s.json has n=2:"
                   " S and T must live in the same cube\n")
    assert not os.path.exists("o.json")


def test_cli_leaves_unset_limits_to_the_library(tmp_path, capsys, monkeypatch):
    # the search has one limit, and the CLI's default for it is the library's
    seen = []
    real = cli.exact_kplus
    monkeypatch.setattr(cli, "exact_kplus", lambda n, R, **kw: seen.append(kw) or real(n, R, **kw))
    run_cli(["exact", "--n", "4", "--r", "1"], capsys)
    run_cli(["exact", "--n", "4", "--r", "1", "--node-limit", "5"], capsys)
    assert [sorted(kw) for kw in seen] == [["node_limit", "on_progress"]] * 2
    library_default = inspect.signature(exact_kplus).parameters["node_limit"].default
    assert [kw["node_limit"] for kw in seen] == [library_default, 5]
    cache = str(tmp_path / "cache.json")
    assert run_cli(["table", "--n-max", "3", "--cache", cache], capsys)[0] == 0
    assert read_json(cache)["node_limit"] == library_default


def test_cli_help_states_each_limit_default(capsys):
    rc, out, _ = run_cli(["exact", "--help"], capsys)
    text = " ".join(out.split())
    assert rc == 0
    assert (
        "--node-limit NODE_LIMIT node cap shared with the searches down the (n, R) column,"
        " checked at every node (default 100,000,000)"
    ) in text
    # one constant caps the profile programs and the search, and the limit is
    # checked at every node, so a stopped search has visited exactly its limit
    assert ipsolve.DEFAULT_NODE_CAP == 10**8
    assert inspect.signature(exact_kplus).parameters["node_limit"].default == 10**8
    assert exact_kplus(6, 1, node_limit=1).nodes == 1
    # bound and table take the same one node limit, for the chain's phi and greedy
    for other in ("bound", "table"):
        rc, out, _ = run_cli([other, "--help"], capsys)
        text = " ".join(out.split())
        assert rc == 0
        flags = {word.strip("[]") for word in out.split() if word.startswith(("--", "[--"))}
        cells = {"--n", "--r"} if other == "bound" else {"--n-min", "--n-max", "--r-min",
                                                         "--r-max", "--cache"}
        assert flags == {"--help", "--json", "--node-limit"} | cells, other
        assert (
            "--node-limit NODE_LIMIT node limit of each bound source: the zero-count program"
            " of a chain step that its closed-form bounds leave open, which keeps the last step"
            " it proved past it, and greedy's scored candidates (default 100,000,000)"
        ) in text, other


def test_cli_exact_and_witness(tmp_path, capsys):
    witness = str(tmp_path / "w.json")
    rc, out, err = run_cli(["exact", "--n", "4", "--r", "1", "--out", witness], capsys)
    assert rc == 0
    assert out.strip() == "6"
    assert "nodes:" in err
    code = load_code(witness)
    assert len(code) == 6 and code.r == 1


def test_cli_exact_bracket_exit(capsys):
    rc, out, _ = run_cli(
        ["exact", "--n", "6", "--r", "1", "--node-limit", "100"], capsys
    )
    assert rc == 3
    assert "bracket" in out


def test_cli_exact_reports_progress(capsys):
    rc, out, err = run_cli(["exact", "--n", "6", "--r", "1"], capsys)
    assert (rc, out) == (0, "18\n")
    # the nodes include the searches of (2..5, 1) down the column
    assert err.startswith("progress: lower 18, incumbent 18, nodes 6435\n")
    # the timing line is the command's own: the search result holds no time
    assert re.fullmatch(r"nodes: 6435, elapsed: \d+\.\d\ds", err.splitlines()[-1])


def test_cli_bound_exits_3_when_a_program_runs_out_of_nodes(capsys, monkeypatch):
    # the (8, 2) step needs no program, but the (9, 2) step does: it takes
    # phi's LP value, and the bracket is still printed
    def exhausted(n, R, node_cap=ipsolve.DEFAULT_NODE_CAP, cutoff=None):
        raise ipsolve.BudgetExceededError(f"IP node budget {node_cap} exceeded")

    monkeypatch.setattr(ipsolve, "ip_phi", exhausted)
    assert run_cli(["bound", "--n", "8", "--r", "2"], capsys) == (0, "21-24[mono/g]\n", "")
    rc, out, err = run_cli(["bound", "--n", "9", "--r", "2"], capsys)
    assert (rc, out, err) == (3, "32-45[lp/g]\n", "")


def test_cli_bound_and_table_exit_3_past_the_node_limit(capsys):
    # the (8, 2) step needs no program, and greedy's (8, 2) code takes 914
    # nodes: at 1 and at 500, greedy stops
    runs = {limit: run_cli(["bound", "--n", "8", "--r", "2", "--node-limit", limit], capsys)
            for limit in ("1", "500", "1000")}
    assert runs == {"1": (3, "21-36[mono/general]\n", ""),
                    "500": (3, "21-36[mono/general]\n", ""),
                    "1000": (0, "21-24[mono/g]\n", "")}
    # phi's (9, R) steps need the program, which stops at one node
    rc, out, _ = run_cli(["table", "--n-max", "9", "--r-max", "2", "--node-limit", "1"], capsys)
    assert rc == 3 and "[lp/" in out
    assert run_cli(["table", "--n-max", "8", "--r-max", "2", "--node-limit", "1000"],
                   capsys)[0] == 0
    rc, _, err = run_cli(["bound", "--n", "8", "--r", "2", "--node-limit", "0"], capsys)
    assert rc == 1 and "must be positive" in err


def test_cli_bound_runs_greedy_once(capsys, monkeypatch):
    # the (n-1, R) column asks for lower bounds alone and stops at the (7, 1)
    # anchor, so no search runs and greedy builds the (13, 1) code alone
    from asymcover import bounds, exact

    calls = []
    for module in (bounds, exact):
        real = getattr(module, "greedy_code")
        monkeypatch.setattr(module, "greedy_code", lambda n, R, *a, _real=real, _m=module: (
            calls.append((_m.__name__, n)) or _real(n, R, *a)))
    rc, out, _ = run_cli(["bound", "--n", "13", "--r", "1"], capsys)
    assert (rc, out) == (0, "1047-1560[mono/g]\n")
    assert calls == [("asymcover.bounds", 13)]


def test_cli_bound_answers_at_20_10_within_a_node_limit():
    # in a fresh process, as a user runs it: the open chain steps down to
    # (16, 10) are decided within the limit, (19, 10)'s in 43,726 nodes, and
    # greedy stops at it, so the call answers in seconds; (20, 10)'s own step
    # needs no program, so its tag is "mono"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")])}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "asymcover.cli", "bound", "--n", "20", "--r", "10",
         "--node-limit", "1000000"], capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "22-144[mono/general]\n", "")
    assert elapsed < 10.0


def test_python_m_asymcover_runs_the_cli():
    # the package's __main__ module runs cli.main, as the installed script does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "asymcover", "bound", "--n", "6", "--r", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4[superdiag/d]\n", "")


def test_cli_linear(capsys):
    rc, out, _ = run_cli(["linear", "--n", "5", "--r", "2", "--exhaustive"], capsys)
    assert rc == 0
    assert out == (
        "k+ = 3 (exhaustive agrees)\n"
        "basis: 00001 00010 11100\n"
        "covering radius: 2 (<= R: true)\n"
        "self-complementary: true\n"
    )

    rc, out, _ = run_cli(["linear", "--n", "9", "--r", "3", "--json"], capsys)
    assert rc == 0
    assert json.loads(out) == {
        "n": 9,
        "R": 3,
        "k_plus": 6,
        "dim": 6,
        "basis": [
            "000000001",
            "000000010",
            "000000100",
            "000001000",
            "000010000",
            "111100000",
        ],
        "covering_radius": 3,
        "self_complementary": True,
        "exhaustive_agrees": None,
    }

    # past the 2^20 span cap, then past the radius sweep's n = 26 cap
    for n, r, message in [
        ("22", "1", "span of dimension 21 exceeds the 2^20 cap"),
        ("27", "10", "covering radius sweep capped at n = 26"),
    ]:
        rc, out, err = run_cli(["linear", "--n", n, "--r", r], capsys)
        assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_cli_table_text_and_cache(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "cache.json")
    rc, out, _ = run_cli(
        ["table", "--n-max", "4", "--r-max", "3", "--cache", cache], capsys
    )
    assert rc == 0
    assert out.splitlines()[0].split()[0] == "R\\n"
    assert os.path.exists(cache)

    # only --cache names a cache: a run without it writes no file, whatever the
    # environment holds
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ASYMCOVER_CACHE", str(tmp_path / "env.json"))
    rc, _, _ = run_cli(["table", "--n-max", "3", "--r-max", "2"], capsys)
    assert rc == 0
    assert os.listdir(tmp_path) == ["cache.json"]


def test_cli_table_json(capsys):
    rc, out, _ = run_cli(["table", "--n-max", "4", "--r-max", "2", "--json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["4,1"]["lower"] == 6


def test_cli_table_json_is_the_cache_cells(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    rc, out, _ = run_cli(
        ["table", "--n-max", "5", "--r-max", "3", "--json", "--cache", str(cache)], capsys
    )
    assert rc == 0
    assert json.loads(out) == json.loads(cache.read_text())["cells"]


def test_cli_table_recomputes_a_cache_from_another_budget(tmp_path, capsys):
    # a one-node limit starves greedy past the n = 7 anchors, so its cells differ
    args = ["table", "--n-max", "8", "--r-max", "3", "--json"]
    weak = ["--node-limit", "1"]
    cache = str(tmp_path / "cache.json")
    _, fresh, _ = run_cli(args, capsys)
    rc, weak_out, _ = run_cli(args + weak + ["--cache", cache], capsys)
    assert rc == 3 and weak_out != fresh
    assert json.loads(weak_out)["8,2"]["limit_hit"]  # greedy stopped there
    assert read_json(cache)["node_limit"] == 1
    assert run_cli(args + weak + ["--cache", cache], capsys)[:2] == (3, weak_out)  # reused
    rc, reused, _ = run_cli(args + ["--cache", cache], capsys)
    assert rc == 0
    assert reused == fresh
    assert read_json(cache)["node_limit"] == ipsolve.DEFAULT_NODE_CAP  # overwritten


@pytest.mark.parametrize(
    "stale",
    [
        {"budget": {"use_ip": True, "use_greedy": True, "use_exact": True,
                    "exact_time_limit": 60.0, "exact_node_limit": None}},
        {"budget": {"use_ip": True, "use_greedy": True, "exact_time_limit": 60.0,
                    "exact_node_limit": None}},
        {"budget": {"use_ip": True, "use_greedy": True}, "version": "0.2.0"},
    ],
    ids=["use_exact", "search_limits", "budget-0.2.0"],
)
def test_cli_table_recomputes_a_cache_whose_budget_holds_a_retired_field(stale, tmp_path,
                                                                         capsys):
    # the keys that older versions wrote: a "budget" in place of the node limit is
    # another key, so no cell is reused and the cache is overwritten, not refused
    args = ["table", "--n-max", "6", "--r-max", "3", "--json"]
    _, fresh, _ = run_cli(args, capsys)
    cache = tmp_path / "cache.json"
    loose = BoundRecord(6, 1, 17, 18, "mono", "g").to_dict()
    cache.write_text(json.dumps({**stale, "cells": {"6,1": loose}}))
    rc, out, err = run_cli(args + ["--cache", str(cache)], capsys)
    assert (rc, out, err) == (0, fresh, "")
    written = read_json(cache)
    assert {k: v for k, v in written.items() if k != "cells"} == {
        "node_limit": ipsolve.DEFAULT_NODE_CAP, "version": asymcover.__version__}
    assert written["cells"]["6,1"]["lower"] == 18


@pytest.mark.parametrize("version, old", [
    (None, BoundRecord(7, 1, 29, 31, "mono", "g")),
    ("0.1.0", BoundRecord(7, 1, 29, 31, "mono", "g")),
    ("0.4.0", BoundRecord(7, 1, 30, 31, "mono", "g")),
    ("0.5.0", BoundRecord(4, 1, 6, 6, "e", "e")),
], ids=["no-version", "older-version", "0.4.0", "0.5.0"])
def test_cli_table_recomputes_a_cache_of_another_version(version, old, tmp_path, capsys):
    # a change to the package can move records under the same node limit: version
    # 0.1.0 chained (7,1) up from K+(1,1) to 29, caches before it stored no
    # version, 0.4.0 chained it from K+(6,1) to 30, below the anchor's 31, and
    # 0.5.0 searched (4,1), tags "e"/"e", where the chain and greedy now settle it
    args = ["table", "--n-max", "7", "--r-max", "3", "--json"]
    _, fresh, _ = run_cli(args, capsys)
    cache = tmp_path / "cache.json"
    key = f"{old.n},{old.R}"
    stale = {"node_limit": ipsolve.DEFAULT_NODE_CAP, "cells": {key: old.to_dict()}}
    if version is not None:
        stale["version"] = version
    cache.write_text(json.dumps(stale))
    rc, out, err = run_cli(args + ["--cache", str(cache)], capsys)
    assert (rc, out, err) == (0, fresh, "")
    written = read_json(cache)
    assert written["version"] == asymcover.__version__ == "0.8.0"
    assert written["cells"][key] == best_bounds(old.n, old.R).to_dict() != old.to_dict()
    assert load_cache(str(cache), ipsolve.DEFAULT_NODE_CAP) == build_grid(TableSpec(1, 7, 0, 3))


def test_cli_table_recomputes_a_cache_of_0_3_0(tmp_path, capsys):
    # 0.3.0's records have no limit_hit: its version is another key, so they are
    # never parsed but recomputed, and the cut greedy of (14, 9) exits 3
    args = ["table", "--n-max", "14", "--r-max", "9", "--node-limit", "1000", "--json"]
    fresh = run_cli(args, capsys)
    assert fresh[0] == 3
    cache = tmp_path / "cache.json"
    cells = {key: {k: v for k, v in d.items() if k != "limit_hit"}
             for key, d in json.loads(fresh[1]).items()}
    cache.write_text(json.dumps({"node_limit": 1000, "version": "0.3.0", "cells": cells}))
    assert run_cli(args + ["--cache", str(cache)], capsys) == fresh
    written = read_json(cache)
    assert written["version"] == asymcover.__version__
    assert written["cells"]["14,9"]["limit_hit"] is True


def test_cli_table_exits_3_from_a_warm_cache_as_from_a_cold_one(tmp_path, capsys):
    # the verdict is cached with its record: greedy's (14, 9) code stops at 1,000
    # nodes, and the split that tightens the cell to 7-10 keeps the verdict
    cache = str(tmp_path / "cache.json")
    args = ["table", "--n-max", "14", "--r-max", "9", "--node-limit", "1000", "--cache", cache]
    cold = run_cli(args, capsys)
    assert cold[0] == 3 and "7-10[superdiag/s]" in cold[1]
    assert read_json(cache)["cells"]["14,9"]["limit_hit"] is True
    before = os.stat(cache).st_mtime_ns
    assert run_cli(args, capsys) == cold
    assert os.stat(cache).st_mtime_ns == before  # the warm run changed no record


def test_cli_table_keeps_cached_cells_outside_its_window(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    args = ["table", "--r-max", "3", "--json", "--cache", cache]
    rc, _, _ = run_cli(args + ["--n-max", "7"], capsys)
    assert rc == 0 and len(read_json(cache)["cells"]) == 25
    rc, small, _ = run_cli(args + ["--n-max", "4"], capsys)
    assert rc == 0 and len(read_json(cache)["cells"]) == 25
    assert len(json.loads(small)) == 13


def test_cli_table_without_exact_search_never_solves_the_size_program(capsys, monkeypatch):
    # the zero-count chain is at or above ip_plus, so best_bounds never solves it
    solved = []
    real = ipsolve.ip_plus

    def traced(n, R):
        solved.append((n, R, inspect.currentframe().f_back.f_code.co_name))
        return real(n, R)

    monkeypatch.setattr(ipsolve, "ip_plus", traced)
    rc, out, _ = run_cli(["table", "--n-max", "9", "--r-max", "8", "--json"], capsys)
    assert rc == 0
    assert solved == []
    cells = json.loads(out)
    pinned = {
        "8,2": (21, 24, "mono", "g"),
        "8,3": (10, 13, "mono", "g"),
        "9,1": (94, 120, "mono", "g"),
        "9,3": (15, 21, "mono", "g"),
    }
    for key, want in pinned.items():
        cell = cells[key]
        assert (cell["lower"], cell["upper"], cell["lower_tag"], cell["upper_tag"]) == want, key


def test_cli_table_ignores_its_retired_flags(tmp_path, capsys):
    # --nu-seeds, --seed, --workers and --time-limit still parse, and change neither
    # stdout nor the cache
    runs = []
    for name, retired in (("a.json", []),
                          ("b.json", ["--nu-seeds", "2", "--seed", "7", "--workers", "1"]),
                          ("c.json", ["--time-limit", "10"]),
                          ("d.json", ["--time-limit", "2.5"])):
        cache = tmp_path / name
        rc, out, _ = run_cli(["table", "--n-max", "7", "--json", "--cache", str(cache), *retired],
                             capsys)
        assert rc == 0
        runs.append((out, cache.read_bytes()))
    assert runs[1:] == [runs[0]] * 3


GOOD_CELL = {"n": 2, "R": 1, "lower": 2, "upper": 2, "lower_tag": "mono", "upper_tag": "g",
             "limit_hit": False, "exact": True}


def _cache_text(cell):
    # under the current key, so that every cell is read
    return json.dumps({"node_limit": ipsolve.DEFAULT_NODE_CAP, "version": asymcover.__version__,
                       "cells": {"2,1": cell}})


@pytest.mark.parametrize(
    "text,named",
    [
        (_cache_text({k: v for k, v in GOOD_CELL.items() if k != "upper"}), "'upper'"),
        (_cache_text({k: v for k, v in GOOD_CELL.items() if k != "limit_hit"}), "'limit_hit'"),
        (_cache_text({**GOOD_CELL, "lower": "2"}), "'lower'"),
        (_cache_text({**GOOD_CELL, "n": True}), "'n'"),
        (_cache_text({**GOOD_CELL, "limit_hit": 1}), "'limit_hit'"),
        (_cache_text({**GOOD_CELL, "limit_hit": "true"}), "'limit_hit'"),
        (_cache_text({**GOOD_CELL, "upper_tag": "x"}), "'upper_tag'"),
        (_cache_text({**GOOD_CELL, "lower_tag": "i"}), "'lower_tag'"),  # a retired tag
        (_cache_text({**GOOD_CELL, "upper_tag": "nu"}), "'upper_tag'"),  # a retired tag
        (_cache_text({**GOOD_CELL, "n": 3}), "'2,1'"),
        (_cache_text([GOOD_CELL]), "JSON object"),
        (json.dumps([GOOD_CELL]), "node_limit"),
        (json.dumps({"2,1": GOOD_CELL}), "node_limit"),  # a cache without its key
        ('{"n": 2, "words": ["11"]}', "node_limit"),  # a code file
        ("11\n01\n", "not a bound cache"),
    ],
    ids=["missing-field", "missing-limit-hit", "string-lower", "bool-n", "int-limit-hit",
         "string-limit-hit", "unknown-tag", "retired-tag",
         "retired-upper-tag", "key-mismatch", "list-record", "top-level-list", "no-budget",
         "code-json", "code-text"],
)
def test_cli_table_refuses_a_malformed_cache(tmp_path, capsys, text, named):
    cache = tmp_path / "cache.json"
    cache.write_text(text)
    rc, out, err = run_cli(["table", "--n-max", "3", "--r-max", "2", "--cache", str(cache)], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and str(cache) in err and named in err
    assert cache.read_text() == text  # never overwritten


OLD_VERSION = {"node_limit": ipsolve.DEFAULT_NODE_CAP, "version": "0.6.0"}
LIMIT_1000 = {"node_limit": 1000, "version": asymcover.__version__}


# a cell outside the window stays in the file when a cache is reused
OUTSIDE = {"9,1": {**GOOD_CELL, "n": 9, "lower": 1, "upper": 512, "exact": False}}


@pytest.mark.parametrize(
    "stale, limit",
    [
        ({**OLD_VERSION, "cells": {"2,1": {**GOOD_CELL, "lower_tag": "i"}}}, None),
        ({**OLD_VERSION, "cells": {"2,1": {**GOOD_CELL, "upper_tag": "nu"}}}, None),
        ({**OLD_VERSION, "cells": {"2,1": {k: v for k, v in GOOD_CELL.items()
                                            if k != "limit_hit"}}}, None),
        ({**LIMIT_1000, "cells": {"2,1": [GOOD_CELL], "3,1": {**GOOD_CELL, "n": 4}}}, None),
        ({"budget": [], "cells": {}}, None),
        ({"cells": {"2,1": "?"}}, None),
        # JSON's true and 1000.0 equal 1 and 1000 in Python, but are not node limits
        ({"node_limit": True, "version": asymcover.__version__, "cells": OUTSIDE}, 1),
        ({"node_limit": 1000.0, "version": asymcover.__version__, "cells": OUTSIDE}, 1000),
    ],
    ids=["retired-tag", "retired-upper-tag", "no-limit-hit", "another-node-limit",
         "list-budget", "no-key", "bool-node-limit", "float-node-limit"],
)
def test_cli_table_recomputes_a_cache_under_another_key_whatever_its_cells_hold(
        stale, limit, tmp_path, capsys):
    # the key is judged before any cell: under another key no cell is read, so
    # the cache is recomputed and overwritten whatever it holds, not refused
    args = ["table", "--n-max", "3", "--r-max", "2", "--json"]
    if limit is not None:
        args += ["--node-limit", str(limit)]
    cold = run_cli(args + ["--cache", str(tmp_path / "cold.json")], capsys)
    assert cold[0] == 0
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps(stale))
    assert run_cli(args + ["--cache", str(cache)], capsys) == cold
    assert cache.read_bytes() == (tmp_path / "cold.json").read_bytes()
