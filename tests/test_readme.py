"""README's `$ asymcover` examples parse, and each one that reads no missing
file prints the stdout and exits with the code that README shows."""

import os
import shlex
from pathlib import Path

import pytest

from asymcover import cli

README = Path(__file__).resolve().parent.parent / "README.md"
# the argparse dests that name a file a command reads
INPUTS = ("file", "in1", "in2", "s_in", "t_in", "code_in")


def examples() -> list[tuple[list[str], list[str], int]]:
    """(argv, stdout lines, exit code) for each `$ asymcover` line of README's
    sh blocks.  A command goes on over lines that end in a backslash; its
    output is the lines up to the next blank, comment or `$` line, and a
    `$ echo $?` right after it gives its exit code, 0 when there is none."""
    lines = README.read_text(encoding="utf-8").splitlines()
    found, in_sh, i = [], False, 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        if not (in_sh and line.startswith("$ asymcover ")):
            continue
        while line.endswith("\\"):
            line = line[:-1] + lines[i]
            i += 1
        out = []
        while lines[i] and not lines[i].startswith(("$", "#", "```")):
            out.append(lines[i])
            i += 1
        code = 0
        if lines[i] == "$ echo $?":
            code = int(lines[i + 1])
            i += 2
        found.append((shlex.split(line)[2:], out, code))
    return found


EXAMPLES = examples()


def test_readme_shows_the_documented_examples():
    shown = {" ".join(argv): (out, code) for argv, out, code in EXAMPLES}
    assert shown["bound --n 8 --r 2"] == (["21-24[mono/g]"], 0)
    assert shown["exact --n 6 --r 1 --node-limit 100"] == (["17-18 (bracket)"], 3)
    assert shown["linear --n 5 --r 2 --exhaustive"][1] == 0
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize("argv", [argv for argv, _, _ in EXAMPLES], ids=" ".join)
def test_readme_example_parses(argv):
    # a flag the command line no longer has cannot linger in the docs
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README example does not parse (exit {exc.code}): {' '.join(argv)}")


def test_readme_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    # in README's order, so that a file one example writes is there for the next
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, out, code in EXAMPLES:
        args = cli.build_parser().parse_args(argv)
        if any(getattr(args, dest, None) and not os.path.exists(getattr(args, dest))
               for dest in INPUTS):
            continue
        capsys.readouterr()
        rc = cli.main(argv)
        assert (rc, capsys.readouterr().out.splitlines()) == (code, out), argv
        ran.append(argv[0])
    # only semidirect, whose S and T files README does not write, is skipped
    assert len(ran) == len(EXAMPLES) - 1
