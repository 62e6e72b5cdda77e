"""Grid assembly, cache files, rendering, and the command-line surface."""

import dataclasses
import hashlib
import inspect
import json
import os

import pytest

import asymcover
from asymcover import cli, ipsolve
from asymcover.bounds import BoundRecord, Budget
from asymcover.codefiles import load_code, save_code
from asymcover.constructions import diagonal_code
from asymcover.cube import Code
from asymcover.exact import LIMIT_CHECK_NODES, exact_kplus
from asymcover.table import (
    TableSpec,
    build_grid,
    load_cache,
    render_cell,
    render_table,
    save_cache,
)

SMALL = TableSpec(n_min=2, n_max=5, r_min=1, r_max=4, budget=Budget())


def test_every_exported_name_resolves():
    missing = [name for name in asymcover.__all__ if not hasattr(asymcover, name)]
    assert missing == []


def test_tablespec_domain_includes_working_margin():
    cells = SMALL.cells()
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
    wide = TableSpec(n_min=2, n_max=3, r_min=1, r_max=4, budget=Budget())
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
    spec = TableSpec(n_min=2, n_max=4, r_min=1, r_max=3, budget=Budget(), cache_path=path)
    first = build_grid(spec)
    assert os.path.exists(path)
    assert load_cache(path, Budget()) == first
    assert load_cache(path, Budget(use_ip=False)) == {}  # another budget reuses nothing
    second = build_grid(spec)
    assert second == first


def test_warm_table_leaves_its_cache_file_alone(tmp_path):
    path = tmp_path / "cache.json"
    spec = TableSpec(n_min=2, n_max=4, r_min=1, r_max=3, budget=Budget(),
                     cache_path=str(path))
    first = build_grid(spec)
    os.utime(path, ns=(1, 1))  # a rewrite, even within one clock tick, would reset this
    text = path.read_bytes()
    assert build_grid(spec) == first
    assert (path.read_bytes(), path.stat().st_mtime_ns) == (text, 1)

    wider = dataclasses.replace(spec, n_max=5)
    assert build_grid(wider).keys() > first.keys()
    assert path.stat().st_mtime_ns != 1
    assert load_cache(str(path), Budget()) == build_grid(wider)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_cache_write_is_clean(tmp_path):
    path = str(tmp_path / "c.json")
    save_cache(path, {(2, 1): BoundRecord(2, 1, 2, 2, "e", "e")}, Budget())
    assert sorted(os.listdir(tmp_path)) == ["c.json"]
    raw = read_json(path)
    assert raw["budget"] == dataclasses.asdict(Budget())
    assert raw["cells"]["2,1"]["exact"] is True


def run_cli(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_bound_text(capsys):
    rc, out, _ = run_cli(["bound", "--n", "6", "--r", "3"], capsys)
    assert rc == 0
    assert out.strip() == "4[superdiag/d]"


def test_cli_bound_json(capsys):
    rc, out, _ = run_cli(["bound", "--n", "4", "--r", "1", "--json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["lower"] == data["upper"] == 6
    assert data["exact"] is True


@pytest.mark.parametrize("n,R,value", [(4, 1, 6), (5, 1, 10), (5, 2, 5), (6, 1, 18), (6, 2, 8)])
def test_cli_bound_settles_every_open_cell_up_to_n_6(n, R, value, capsys):
    # the coradius theorem leaves these open; exact search settles them with no flag
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
        ["bound", "--n", "4", "--r", "1", "--node-limit", "5"],
        ["table", "--n-max", "3", "--node-limit", "5"],
    ],
)
def test_cli_rejects_a_flag_its_command_does_not_read(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == "" and "unrecognized arguments" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [["exact", "--n", "6", "--r", "1"]])
def test_cli_rejects_a_non_positive_limit(command, capsys):
    for flag in ("--time-limit", "--node-limit"):
        for value in ("-1", "0"):
            rc, out, err = run_cli([*command, flag, value], capsys)
            assert (rc, out) == (1, ""), (flag, value)
            assert f"argument {flag}: must be positive" in err


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
    # each search limit has one default, in the library; the CLI passes only what it is given
    seen = []
    real = cli.exact_kplus
    monkeypatch.setattr(cli, "exact_kplus", lambda n, R, **kw: seen.append(kw) or real(n, R, **kw))
    run_cli(["exact", "--n", "4", "--r", "1"], capsys)
    run_cli(["exact", "--n", "4", "--r", "1", "--time-limit", "5"], capsys)
    assert [sorted(kw) for kw in seen] == [["on_progress"], ["on_progress", "time_limit"]]
    assert seen[1]["time_limit"] == 5.0
    cache = str(tmp_path / "cache.json")
    assert run_cli(["table", "--n-max", "3", "--cache", cache], capsys)[0] == 0
    assert read_json(cache)["budget"] == dataclasses.asdict(Budget())


WHOLE_SEARCH = inspect.signature(exact_kplus).parameters["time_limit"].default


@pytest.mark.parametrize(
    "command,time_help",
    [("exact", f"seconds for the whole search (default {WHOLE_SEARCH:g})")],
)
def test_cli_help_states_each_limit_default(command, time_help, capsys):
    rc, out, _ = run_cli([command, "--help"], capsys)
    text = " ".join(out.split())
    assert rc == 0
    assert f"--time-limit TIME_LIMIT {time_help} --node-limit" in text
    assert (
        f"--node-limit NODE_LIMIT search node cap, checked every {LIMIT_CHECK_NODES:,} nodes "
        "(default: no cap)"
    ) in text
    # the library default caps no nodes, and a limit shows only at a check
    assert inspect.signature(exact_kplus).parameters["node_limit"].default is None
    assert exact_kplus(6, 1, node_limit=1).nodes == LIMIT_CHECK_NODES
    # the searches inside bound and table run to completion and take no limit
    for other in ("bound", "table"):
        rc, out, _ = run_cli([other, "--help"], capsys)
        assert rc == 0 and "limit" not in out, other


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
    assert err.startswith("progress: lower 18, incumbent 18, nodes 6420\n")


def test_cli_bound_exits_3_when_a_program_runs_out_of_nodes(capsys, monkeypatch):
    def exhausted(n, R):
        raise ipsolve.BudgetExceededError("IP node budget 1 exceeded")

    monkeypatch.setattr(ipsolve, "diff_chain_lower", exhausted)
    rc, out, err = run_cli(["bound", "--n", "8", "--r", "2"], capsys)
    assert (rc, out) == (3, "")
    assert err == "budget exceeded: IP node budget 1 exceeded\n"


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

    env_cache = str(tmp_path / "env.json")
    monkeypatch.setenv("ASYMCOVER_CACHE", env_cache)
    rc, _, _ = run_cli(["table", "--n-max", "3", "--r-max", "2"], capsys)
    assert rc == 0
    assert os.path.exists(env_cache)


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
    args = ["table", "--n-max", "7", "--r-max", "3", "--json"]
    weak = ["--no-ip", "--no-greedy"]
    cache = str(tmp_path / "cache.json")
    _, fresh, _ = run_cli(args, capsys)
    rc, weak_out, _ = run_cli(args + weak + ["--cache", cache], capsys)
    assert rc == 0 and weak_out != fresh
    rc, reused, _ = run_cli(args + ["--cache", cache], capsys)
    assert rc == 0
    assert reused == fresh
    assert read_json(cache)["budget"]["use_ip"] is True  # overwritten


@pytest.mark.parametrize(
    "stale",
    [
        {"use_ip": True, "use_greedy": True, "use_exact": True, "exact_time_limit": 60.0,
         "exact_node_limit": None},
        {"use_ip": True, "use_greedy": True, "exact_time_limit": 60.0, "exact_node_limit": None},
    ],
    ids=["use_exact", "search_limits"],
)
def test_cli_table_recomputes_a_cache_whose_budget_holds_a_retired_field(stale, tmp_path,
                                                                         capsys):
    # the budgets that older versions wrote; a budget with a field that Budget no
    # longer has is another budget, so no cell is reused
    args = ["table", "--n-max", "6", "--r-max", "3", "--json"]
    _, fresh, _ = run_cli(args, capsys)
    cache = tmp_path / "cache.json"
    loose = BoundRecord(6, 1, 17, 18, "mono", "g").to_dict()
    cache.write_text(json.dumps({"budget": stale, "cells": {"6,1": loose}}))
    rc, out, err = run_cli(args + ["--cache", str(cache)], capsys)
    assert (rc, out, err) == (0, fresh, "")
    written = read_json(cache)
    assert written["budget"] == dataclasses.asdict(Budget()) == {"use_ip": True,
                                                                "use_greedy": True}
    assert written["cells"]["6,1"]["lower"] == 18


def test_cli_table_keeps_cached_cells_outside_its_window(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    args = ["table", "--r-max", "3", "--json", "--cache", cache]
    rc, _, _ = run_cli(args + ["--n-max", "7"], capsys)
    assert rc == 0 and len(read_json(cache)["cells"]) == 25
    rc, small, _ = run_cli(args + ["--n-max", "4"], capsys)
    assert rc == 0 and len(read_json(cache)["cells"]) == 25
    assert len(json.loads(small)) == 13


def test_cli_table_without_exact_search_never_solves_the_size_program(capsys, monkeypatch):
    # the zero-count chain is at or above ip_plus, so best_bounds reads only the chain;
    # ip_plus is solved only inside exact search, once per searched cell (ROADMAP item 10)
    solved = []
    real = ipsolve.ip_plus

    def traced(n, R):
        solved.append((n, R, inspect.currentframe().f_back.f_code.co_name))
        return real(n, R)

    monkeypatch.setattr(ipsolve, "ip_plus", traced)
    rc, out, _ = run_cli(["table", "--n-max", "9", "--r-max", "8", "--json"], capsys)
    assert rc == 0
    searched = [(4, 1), (5, 1), (5, 2), (6, 1), (6, 2)]
    assert solved == [(n, R, "exact_kplus") for n, R in searched]
    cells = json.loads(out)
    pinned = {
        "8,2": (20, 24, "mono", "g"),
        "8,3": (9, 13, "mono", "g"),
        "9,1": (92, 120, "mono", "g"),
        "9,3": (14, 21, "mono", "g"),
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
             "exact": True}


def _cache_text(cell):
    return json.dumps({"budget": dataclasses.asdict(Budget()), "cells": {"2,1": cell}})


@pytest.mark.parametrize(
    "text,named",
    [
        (_cache_text({k: v for k, v in GOOD_CELL.items() if k != "upper"}), "'upper'"),
        (_cache_text({**GOOD_CELL, "lower": "2"}), "'lower'"),
        (_cache_text({**GOOD_CELL, "n": True}), "'n'"),
        (_cache_text({**GOOD_CELL, "upper_tag": "x"}), "'upper_tag'"),
        (_cache_text({**GOOD_CELL, "lower_tag": "i"}), "'lower_tag'"),  # a retired tag
        (_cache_text({**GOOD_CELL, "upper_tag": "nu"}), "'upper_tag'"),  # a retired tag
        (_cache_text({**GOOD_CELL, "n": 3}), "'2,1'"),
        (_cache_text([GOOD_CELL]), "JSON object"),
        (json.dumps([GOOD_CELL]), "budget"),
        (json.dumps({"2,1": GOOD_CELL}), "budget"),  # a cache without its budget
        (json.dumps({"budget": [], "cells": {}}), "budget"),
        ('{"n": 2, "words": ["11"]}', "budget"),  # a code file
        ("11\n01\n", "not a bound cache"),
    ],
    ids=["missing-field", "string-lower", "bool-n", "unknown-tag", "retired-tag",
         "retired-upper-tag", "key-mismatch", "list-record", "top-level-list", "no-budget",
         "list-budget", "code-json", "code-text"],
)
def test_cli_table_refuses_a_malformed_cache(tmp_path, capsys, text, named):
    cache = tmp_path / "cache.json"
    cache.write_text(text)
    rc, out, err = run_cli(["table", "--n-max", "3", "--r-max", "2", "--cache", str(cache)], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and str(cache) in err and named in err
    assert cache.read_text() == text  # never overwritten
