"""Command-line surface: bound, construct, verify, table, exact, linear.

Exit codes: 0 success, 1 usage or argument error, 2 verification failure,
3 node limit reached (exact search returned a bracket instead of a value, or
some bound source of a cell of bound or table stopped at its node limit).
Every command takes --json for machine-readable output on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import codefiles
from .bounds import asym_sphere_bound, best_bounds
from .constructions import (
    GENERAL_MAX_WORDS,
    GREEDY_MAX_N,
    PatchedCode,
    diagonal_code,
    direct_sum,
    general_upper_code,
    general_upper_size,
    greedy_code,
    inductive_power2,
    random_code_nu,
    semi_direct_sum,
)
from .cube import (
    MAX_DIMENSION, RADIUS_MAX_N, Code, all_ones, check_countable, code_covering_radius,
    covered_count, covers, level_profile,
)
from .exact import exact_kplus
from .ipsolve import DEFAULT_NODE_CAP
from .linear import a_code, min_linear_dim, span
from .table import TableSpec, build_grid, cell_dicts, render_cell, render_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


def _positive(text: str) -> int:
    """An argparse type: an int, refused unless it is above zero."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


_positive.__name__ = "int"  # argparse names the type in its messages


def _add_node_limit(sub: argparse.ArgumentParser, what: str) -> None:
    sub.add_argument("--node-limit", type=_positive, default=DEFAULT_NODE_CAP,
                     help=f"{what} (default {DEFAULT_NODE_CAP:,})")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


_LIMIT_HELP = ("node limit of each bound source: the zero-count program of a chain step"
               " that its closed-form bounds leave open, which keeps the last step it proved"
               " past it, and greedy's scored candidates")


def _exit_code(records) -> int:
    """EXIT_BUDGET when some record's bracket is open and a bound source
    behind it stopped at its node limit, so a larger limit may tighten it.
    `table` passes its whole grid: a record's flag covers only its own cell."""
    return EXIT_BUDGET if any(rec.limit_hit for rec in records) else EXIT_OK


def cmd_bound(args) -> int:
    rec = best_bounds(args.n, args.r, args.node_limit)
    _emit(args, rec.to_dict(), render_cell(rec))
    return _exit_code([rec])


class _VerificationFailure(Exception):
    pass


def _directsum(args) -> Code:
    c1, c2 = codefiles.load_code(args.in1), codefiles.load_code(args.in2)
    for flag, path, code in (("--in1", args.in1, c1), ("--in2", args.in2, c2)):
        if code.r is None:
            raise ValueError(f"{flag} {path} has no radius annotation;"
                             " directsum inputs must carry one")
    return direct_sum(c1, c2)


def _semidirect(args) -> Code:
    s, t = codefiles.load_code(args.s_in), codefiles.load_code(args.t_in)
    inner = codefiles.load_code(args.code_in)
    if t.n != s.n:
        raise ValueError(f"--t-in {args.t_in} has n={t.n} but --s-in {args.s_in} has n={s.n}:"
                         " S and T must live in the same cube")
    if inner.r is None:
        inner = Code.from_words(inner.n, inner.words, r=args.r)
    elif inner.r != args.r:
        raise ValueError(f"--code-in {args.code_in} has radius {inner.r} but --r is {args.r}:"
                         " the inner code must carry the patched code's radius")
    patched = PatchedCode(n=s.n, R=args.r, S=s, T=t)
    if not patched.is_valid():
        raise _VerificationFailure("patch invalid: some vertex is neither covered by S nor in T")
    return semi_direct_sum(patched, inner)


def _general(args) -> Code:
    # `covers` checks every built code: one it could not count is refused from
    # the split's size, before a word is built.  Past the dimension or word cap
    # general_upper_code's own refusal speaks first.
    n, coradius = args.n, args.coradius
    if n <= MAX_DIMENSION and (size := general_upper_size(n, coradius)) <= GENERAL_MAX_WORDS:
        check_countable(n, size)
    return general_upper_code(n, coradius)


def _greedy(args) -> Code:
    # a greedy code has at least the sphere bound's words, 2^n at R = 0: past
    # general's word cap it is refused before a word is built.  Past the sweep
    # cap, or at a radius outside 0..n, greedy_code's own refusal speaks.
    n, R = args.n, args.r
    if 1 <= n <= GREEDY_MAX_N and 0 <= R <= n and (
            size := asym_sphere_bound(n, R)) > GENERAL_MAX_WORDS:
        raise ValueError(
            f"greedy code of at least {size} words exceeds the word cap {GENERAL_MAX_WORDS}")
    return greedy_code(n, R)


# Each construct method: the options it requires (by argparse dest) and its
# builder.  Builders look their library function up when called, so a
# wrapper set on this module's attribute sees the call.
_METHODS = {
    "diagonal": (("n", "coradius"), lambda args: diagonal_code(args.n, args.coradius)),
    "directsum": (("in1", "in2"), _directsum),
    "semidirect": (("s_in", "t_in", "code_in", "r"), _semidirect),
    "greedy": (("n", "r"), _greedy),
    "nu-random": (("n", "r"), lambda args: random_code_nu(args.n, args.r, args.seed)),
    "power2": (("m", "r"), lambda args: inductive_power2(args.m, args.r, args.seed, args.trials)),
    "general": (("n", "coradius"), _general),
}


def cmd_construct(args) -> int:
    needs, build = _METHODS[args.method]
    missing = [f"--{name.replace('_', '-')}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"method {args.method!r} requires {', '.join(missing)}")
    try:
        code = build(args)
    except _VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if code.r is None or not covers(code, code.r):
        print("verification failure: construction does not cover", file=sys.stderr)
        return EXIT_VERIFY
    codefiles.save_code(args.out, code, fmt=args.format)
    payload = {"size": len(code), "n": code.n, "r": code.r, "path": args.out}
    _emit(args, payload, f"{len(code)} words (n={code.n}, R={code.r}) -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    code = codefiles.load_code(args.file)
    radius_claim = args.r if args.r is not None else code.r
    profile = level_profile(code)
    ones = sum(level * count for level, count in enumerate(profile))
    zeros = code.n * len(code) - ones
    payload = {
        "n": code.n,
        "size": len(code),
        "level_profile": list(profile),
        "zeros_total": zeros,
        "ones_total": ones,
    }
    lines = [
        f"size: {len(code)}",
        f"level profile: {' '.join(map(str, profile))}",
        f"zeros total: {zeros}",
        f"ones total: {ones}",
    ]
    want_radius = code.n <= RADIUS_MAX_N
    if want_radius or radius_claim is not None:  # one count answers both
        covered, rad = covered_count(code, radius_claim, want_radius)
    if want_radius:
        payload["radius"] = None if rad == float("inf") else rad
        lines.append(f"radius: {rad if rad != float('inf') else 'inf'}")
    ok = True
    if radius_claim is not None:
        misses = (1 << code.n) - covered
        ok = misses == 0
        payload["r"] = radius_claim
        payload["covers"] = ok
        if ok:
            lines.append(f"covers: true (R={radius_claim})")
        else:
            payload["uncovered"] = misses
            lines.append(f"covers: false (R={radius_claim}), {misses} uncovered")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_table(args) -> int:
    spec = TableSpec(
        n_min=args.n_min,
        n_max=args.n_max,
        r_min=args.r_min,
        r_max=args.r_max,
        node_limit=args.node_limit,
        cache_path=args.cache,
    )
    grid = build_grid(spec)
    _emit(args, cell_dicts(grid), render_table(grid, spec))
    return _exit_code(grid.values())


def cmd_exact(args) -> int:
    def progress(lower, incumbent, nodes):
        print(f"progress: lower {lower}, incumbent {incumbent}, nodes {nodes}", file=sys.stderr)

    start = time.monotonic()
    res = exact_kplus(args.n, args.r, node_limit=args.node_limit, on_progress=progress)
    print(f"nodes: {res.nodes}, elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    if args.out:
        codefiles.save_code(args.out, res.witness)
    settled = res.status == "exact"
    payload = {
        "n": res.n,
        "R": res.R,
        "status": res.status,
        "value": res.upper if settled else None,
        "bracket": None if settled else [res.lower, res.upper],
        "witness_size": len(res.witness),
        "nodes": res.nodes,
    }
    if settled:
        _emit(args, payload, str(res.upper))
        return EXIT_OK
    _emit(args, payload, f"{res.lower}-{res.upper} (bracket)")
    return EXIT_BUDGET


def cmd_linear(args) -> int:
    k = min_linear_dim(args.n, args.r)
    basis = a_code(args.n, args.r)
    code = span(basis, args.n)
    rad = code_covering_radius(code)
    verified = rad <= args.r
    agrees = None
    if args.exhaustive:
        found = min_linear_dim(args.n, args.r, exhaustive=True)
        agrees = found == k
        headline = (
            f"k+ = {k} (exhaustive agrees)"
            if agrees
            else f"k+ = {k} (exhaustive found {found})"
        )
    else:
        headline = f"k+ = {k}"
    bits = codefiles.words_to_bits(basis, args.n)
    self_complementary = all_ones(args.n) in code
    lines = [
        headline,
        f"basis: {' '.join(bits)}",
        f"covering radius: {rad} (<= R: {str(verified).lower()})",
        f"self-complementary: {str(self_complementary).lower()}",
    ]
    payload = {
        "n": args.n,
        "R": args.r,
        "k_plus": k,
        "dim": len(basis),
        "basis": bits,
        "covering_radius": rad if rad != float("inf") else None,
        "self_complementary": self_complementary,
        "exhaustive_agrees": agrees,
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if verified and agrees is not False else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built by the first call and shared by all later ones.

    `main` reuses it: `parse_args` keeps no state between calls, and each
    `cmd_*` looks up the library functions it calls (`exact_kplus`,
    `best_bounds`, ...) when it runs, so a patch on those names of this module
    still takes effect.  The handlers bound by `set_defaults` and every
    `choices` list are fixed when the parser is built; do not change the
    returned parser, since every later call shares it.
    """
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="machine-readable output")
    parser = argparse.ArgumentParser(prog="asymcover", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bound", parents=[json_flag], help="best bounds for one cell")
    _add_node_limit(p, _LIMIT_HELP)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("construct", parents=[json_flag], help="build and save a code")
    p.add_argument("--seed", type=int, default=0, help="base PRNG seed")
    p.add_argument("--method", required=True, choices=list(_METHODS))
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--coradius", type=int)
    p.add_argument("--m", type=int, help="power2 exponent: the cube is Q_{2^m}")
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--in1", help="first directsum input file")
    p.add_argument("--in2", help="second directsum input file")
    p.add_argument("--s-in", dest="s_in", help="semidirect covering part S")
    p.add_argument("--t-in", dest="t_in", help="semidirect patch part T")
    p.add_argument("--code-in", dest="code_in", help="semidirect inner code")
    p.add_argument("--out", required=True, help="output code file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("verify", parents=[json_flag], help="check a code file")
    p.add_argument("file", help="code file (json or plain text)")
    p.add_argument("--r", type=int, default=None, help="radius to verify at")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("table", parents=[json_flag], help="bound table over a grid")
    _add_node_limit(p, _LIMIT_HELP)
    p.add_argument("--cache", default=None, help="bounds cache file")
    # retired flags, parsed and ignored whatever their value so that the benchmark's
    # command line still runs; they go with its next change (ROADMAP item 8)
    for retired in ("--nu-seeds", "--seed", "--workers", "--time-limit"):
        p.add_argument(retired, help=argparse.SUPPRESS)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--r-min", type=int, default=1)
    p.add_argument("--r-max", type=int, default=6)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("exact", parents=[json_flag], help="exact K+(n,R) by search")
    _add_node_limit(p, "node cap shared with the searches down the (n, R) column,"
                       " checked at every node")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default=None, help="write the witness code here")
    p.set_defaults(func=cmd_exact)

    p = subs.add_parser("linear", parents=[json_flag], help="minimum-dimension linear cover")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true", help="confirm by subspace enumeration (n <= 6)")
    p.set_defaults(func=cmd_linear)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on bad arguments: a usage error
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
