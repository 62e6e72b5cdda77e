"""Grid assembly, cache files, rendering, and the command-line surface."""

import dataclasses
import inspect
import json
import os

import pytest

import asymcover
from asymcover import cli
from asymcover.bounds import BoundRecord, Budget, FULL_BUDGET
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

SMALL = TableSpec(n_min=2, n_max=5, r_min=1, r_max=4, budget=FULL_BUDGET)


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
    assert render_cell(BoundRecord(4, 1, 6, 6, "i", "e")) == "6[i/e]"
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
    wide = TableSpec(n_min=2, n_max=3, r_min=1, r_max=4, budget=FULL_BUDGET)
    corner = render_table(build_grid(wide), wide).splitlines()[-1].split()
    assert corner == ["4", "1", "1"]


def test_record_dict_round_trip():
    for rec in build_grid(SMALL).values():
        d = rec.to_dict()
        assert d["exact"] is rec.exact
        assert BoundRecord.from_dict(d) == rec


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    spec = TableSpec(
        n_min=2, n_max=4, r_min=1, r_max=3, budget=FULL_BUDGET, cache_path=path
    )
    first = build_grid(spec)
    assert os.path.exists(path)
    assert load_cache(path, FULL_BUDGET) == first
    assert load_cache(path, Budget()) == {}  # another budget reuses nothing
    second = build_grid(spec)
    assert second == first


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_cache_write_is_clean(tmp_path):
    path = str(tmp_path / "c.json")
    save_cache(path, {(2, 1): BoundRecord(2, 1, 2, 2, "e", "e")}, FULL_BUDGET)
    assert sorted(os.listdir(tmp_path)) == ["c.json"]
    raw = read_json(path)
    assert raw["budget"] == dataclasses.asdict(FULL_BUDGET)
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
    rc, out, _ = run_cli(["bound", "--n", "4", "--r", "1", "--exact", "--json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["lower"] == data["upper"] == 6
    assert data["exact"] is True


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
    ],
)
def test_cli_rejects_a_flag_its_command_does_not_read(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == "" and "unrecognized arguments" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command",
    [
        ["exact", "--n", "6", "--r", "1"],
        ["bound", "--n", "6", "--r", "1", "--exact"],
        ["table", "--n-max", "3"],
    ],
)
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
    assert read_json(cache)["budget"] == dataclasses.asdict(Budget(use_exact=True))


PER_CELL = Budget().exact_time_limit
WHOLE_SEARCH = inspect.signature(exact_kplus).parameters["time_limit"].default


@pytest.mark.parametrize(
    "command,time_help",
    [
        ("bound", f"seconds per exact search (default {PER_CELL:g}); read only with --exact"),
        ("table", f"seconds per exact search (default {PER_CELL:g})"),
        ("exact", f"seconds for the whole search (default {WHOLE_SEARCH:g})"),
    ],
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
    # neither library default caps the nodes, and a limit shows only at a check
    assert Budget().exact_node_limit is None
    assert inspect.signature(exact_kplus).parameters["node_limit"].default is None
    assert exact_kplus(6, 1, node_limit=1).nodes == LIMIT_CHECK_NODES


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


def test_cli_linear(capsys):
    rc, out, _ = run_cli(["linear", "--n", "5", "--r", "2", "--exhaustive"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k+ = 3 (exhaustive agrees)"
    assert any(line.startswith("basis:") for line in lines)
    assert "self-complementary: true" in out


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
    rc, out, _ = run_cli(
        ["table", "--n-max", "4", "--r-max", "2", "--json", "--no-exact"], capsys
    )
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
    weak = ["--no-ip", "--no-greedy", "--no-exact"]
    cache = str(tmp_path / "cache.json")
    _, fresh, _ = run_cli(args, capsys)
    rc, weak_out, _ = run_cli(args + weak + ["--cache", cache], capsys)
    assert rc == 0 and weak_out != fresh
    rc, reused, _ = run_cli(args + ["--cache", cache], capsys)
    assert rc == 0
    assert reused == fresh
    assert read_json(cache)["budget"]["use_ip"] is True  # overwritten


def test_cli_table_keeps_cached_cells_outside_its_window(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    args = ["table", "--r-max", "3", "--no-exact", "--json", "--cache", cache]
    rc, _, _ = run_cli(args + ["--n-max", "7"], capsys)
    assert rc == 0 and len(read_json(cache)["cells"]) == 25
    rc, small, _ = run_cli(args + ["--n-max", "4"], capsys)
    assert rc == 0 and len(read_json(cache)["cells"]) == 25
    assert len(json.loads(small)) == 13


GOOD_CELL = {"n": 2, "R": 1, "lower": 2, "upper": 2, "lower_tag": "i", "upper_tag": "g",
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
        (_cache_text({**GOOD_CELL, "n": 3}), "'2,1'"),
        (_cache_text([GOOD_CELL]), "JSON object"),
        (json.dumps([GOOD_CELL]), "budget"),
        (json.dumps({"2,1": GOOD_CELL}), "budget"),  # a cache without its budget
        (json.dumps({"budget": [], "cells": {}}), "budget"),
        ('{"n": 2, "words": ["11"]}', "budget"),  # a code file
        ("11\n01\n", "not a bound cache"),
    ],
    ids=["missing-field", "string-lower", "bool-n", "unknown-tag", "key-mismatch",
         "list-record", "top-level-list", "no-budget", "list-budget", "code-json",
         "code-text"],
)
def test_cli_table_refuses_a_malformed_cache(tmp_path, capsys, text, named):
    cache = tmp_path / "cache.json"
    cache.write_text(text)
    rc, out, err = run_cli(["table", "--n-max", "3", "--r-max", "2", "--cache", str(cache)], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and str(cache) in err and named in err
    assert cache.read_text() == text  # never overwritten
