"""Analytic bounds, their aggregation, and grid propagation."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from asymcover.bounds import (
    BoundRecord,
    Budget,
    EXACT_SEARCH_MAX_N,
    LOWER_TAG_ORDER,
    UPPER_TAG_ORDER,
    asym_sphere_bound,
    best_bounds,
    propagate,
    superdiag_exact,
    superdiag_lower,
)
from asymcover.cube import weight
from asymcover.ipsolve import diff_chain_lower, diff_lower, ip_plus
from asymcover.table import TableSpec, build_grid


def brute_ball_down_size(n, l, R):
    c = (1 << l) - 1
    return sum(
        1 for v in range(1 << n) if v & c == v and l - weight(v) <= R
    )


def brute_asym_sphere(n, R):
    total = Fraction(0)
    for l in range(n + 1):
        denom = brute_ball_down_size(n, min(n, l + R), R)
        total += Fraction(math.comb(n, l), denom)
    return math.ceil(total)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_asym_sphere_matches_brute_force(n):
    for R in range(n + 1):
        assert asym_sphere_bound(n, R) == brute_asym_sphere(n, R)


def fraction_asym_sphere(n, R):
    """The levelwise sphere bound summed in Fractions, the reference formula."""
    total = sum(
        Fraction(math.comb(n, l), sum(math.comb(min(n, l + R), j) for j in range(R + 1)))
        for l in range(n + 1)
    )
    return math.ceil(total)


def test_asym_sphere_matches_fraction_formula():
    for n in range(1, 41):
        for R in range(n + 1):
            assert asym_sphere_bound(n, R) == fraction_asym_sphere(n, R), (n, R)


def symmetric_sphere_bound(n, R):
    """ceil(2^n / sum_{j<=R} C(n,j)): the bound when every ball has the same size."""
    return -(-(1 << n) // sum(math.comb(n, j) for j in range(R + 1)))


def test_asym_sphere_dominates_symmetric():
    for n in range(1, 13):
        for R in range(1, n + 1):
            assert asym_sphere_bound(n, R) >= symmetric_sphere_bound(n, R)


def test_superdiag_values():
    assert superdiag_lower(6, 3) == 4
    assert superdiag_exact(6, 3)
    assert superdiag_lower(5, 2) == 5
    assert not superdiag_exact(5, 2)
    assert superdiag_lower(3, 1) == 3
    assert superdiag_lower(4, 4) == 1
    assert superdiag_exact(4, 4)


def test_diff_lower_arithmetic():
    assert diff_lower(6, 10, 17) == 13
    assert diff_lower(6, 10, 18) == 13
    assert diff_lower(6, 10, 19) == 14
    assert diff_lower(5, 3, 0) == 3
    with pytest.raises(ValueError):
        diff_lower(0, 1, 1)
    with pytest.raises(ValueError):
        diff_lower(3, 1, -1)


def test_diff_chain_beats_plain_ip_at_61():
    assert ip_plus(6, 1).value == 16
    assert diff_chain_lower(6, 1) == 17


def test_diff_chain_stays_below_known_optima():
    known = {(2, 1): 2, (3, 1): 3, (4, 1): 6, (5, 1): 10, (6, 1): 18, (5, 2): 5, (6, 2): 8}
    for (n, R), value in known.items():
        assert diff_chain_lower(n, R) <= value
    assert diff_chain_lower(3, 3) == 1


def test_bound_record_validation():
    rec = BoundRecord(4, 1, 6, 6, "mono", "e")
    assert rec.exact
    assert not BoundRecord(4, 1, 5, 6, "mono", "g").exact
    with pytest.raises(ValueError):
        BoundRecord(4, 1, 7, 6, "mono", "g")
    with pytest.raises(ValueError):
        BoundRecord(4, 1, 0, 6, "mono", "g")
    with pytest.raises(ValueError):
        BoundRecord(4, 1, 6, 17, "mono", "g")
    # a tag that load_cache would refuse cannot be built, so save_cache cannot write it
    with pytest.raises(ValueError, match="'lower_tag'"):
        BoundRecord(4, 1, 6, 6, "i", "e")
    with pytest.raises(ValueError, match="'upper_tag'"):
        BoundRecord(4, 1, 6, 6, "mono", "i")


def test_best_bounds_pinned_cells():
    rec = best_bounds(6, 3, Budget())
    assert (rec.lower, rec.upper, rec.lower_tag, rec.upper_tag) == (4, 4, "superdiag", "d")
    rec = best_bounds(4, 1, Budget())
    assert (rec.lower, rec.upper, rec.lower_tag, rec.upper_tag) == (6, 6, "e", "e")


def test_best_bounds_settles_superdiag_cells_without_search(monkeypatch):
    from asymcover import bounds, exact, ipsolve

    def forbidden(*args, **kwargs):
        raise AssertionError("a settled cell ran a bound source")

    monkeypatch.setattr(bounds, "greedy_code", forbidden)
    monkeypatch.setattr(ipsolve, "ip_plus", forbidden)
    monkeypatch.setattr(ipsolve, "diff_chain_lower", forbidden)
    monkeypatch.setattr(exact, "exact_kplus", forbidden)
    settled = [(n, R) for n in range(1, 12) for R in range(1, n + 1) if superdiag_exact(n, R)]
    for n, R in settled:
        r = n - R
        want = BoundRecord(n, R, r + 1, r + 1, "superdiag", "d")
        assert best_bounds(n, R, Budget()) == want


# best_bounds(n, R) at every cell n <= 6 that the coradius theorem leaves open,
# as it was when greedy and the chain ran beside the search
SEARCHED_CELLS = {
    (4, 1): BoundRecord(4, 1, 6, 6, "e", "e"),
    (5, 1): BoundRecord(5, 1, 10, 10, "e", "e"),
    (5, 2): BoundRecord(5, 2, 5, 5, "superdiag", "e"),
    (6, 1): BoundRecord(6, 1, 18, 18, "e", "e"),
    (6, 2): BoundRecord(6, 2, 8, 8, "e", "e"),
}


def test_best_bounds_runs_greedy_and_the_chain_once_inside_the_search(monkeypatch):
    from asymcover import bounds, exact, ipsolve

    calls, searching = [], [False]

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append((label, searching[0]))
            return fn(*args, **kwargs)
        return wrapper

    def search(*args, _search=exact.exact_kplus, **kwargs):
        searching[0] = True
        try:
            return _search(*args, **kwargs)
        finally:
            searching[0] = False

    monkeypatch.setattr(exact, "exact_kplus", search)
    for module, name in ((bounds, "greedy_code"), (exact, "greedy_code"),
                         (ipsolve, "diff_chain_lower")):
        label = f"{module.__name__.rpartition('.')[2]}.{name}"
        monkeypatch.setattr(module, name, counted(label, getattr(module, name)))
    cells = [(n, R) for n in range(1, 7) for R in range(1, n + 1) if not superdiag_exact(n, R)]
    assert cells == list(SEARCHED_CELLS)
    # whatever the budget says of greedy and the chain
    budgets = [Budget(use_ip=ip, use_greedy=greedy) for ip in (True, False)
               for greedy in (True, False)]
    for budget in budgets:
        for n, R in cells:
            calls.clear()
            assert best_bounds(n, R, budget) == SEARCHED_CELLS[n, R]
            assert sorted(calls) == [("exact.greedy_code", True),
                                     ("ipsolve.diff_chain_lower", True)]


def test_best_bounds_and_the_table_do_not_read_the_clock(monkeypatch):
    # each search runs to completion, so a clock that jumps 1,000 s per read
    # changes no record; a per-cell time limit once left (6,1) at 17-18[e/g]
    from asymcover import exact

    spec = TableSpec(n_min=1, n_max=7, r_min=0, r_max=7)
    steady = build_grid(spec)
    ticks = itertools.count(step=1000.0)
    monkeypatch.setattr(exact.time, "monotonic", lambda: next(ticks))
    for (n, R), want in SEARCHED_CELLS.items():
        assert best_bounds(n, R) == want
    assert build_grid(spec) == steady
    assert next(ticks) > 0  # the search did read the jumping clock


def test_best_bounds_radius_zero():
    rec = best_bounds(5, 0)
    assert (rec.lower, rec.upper) == (32, 32)
    assert rec.lower_tag == rec.upper_tag == "sphere"


def test_best_bounds_default_budget_82():
    rec = best_bounds(8, 2)
    assert (rec.lower, rec.lower_tag) == (20, "mono")
    assert (rec.upper, rec.upper_tag) == (24, "g")


def test_best_bounds_budget_gating():
    no_ip = best_bounds(8, 2, Budget(use_ip=False))
    assert no_ip.lower_tag in ("sphere", "superdiag")
    analytic = best_bounds(9, 2, Budget(use_ip=False, use_greedy=False))
    assert analytic.upper_tag in ("d", "general")


def test_best_bounds_tags_come_from_known_orders():
    for n in range(1, 9):
        for R in range(n + 1):
            rec = best_bounds(n, R)
            assert rec.lower_tag in LOWER_TAG_ORDER
            assert rec.upper_tag in UPPER_TAG_ORDER


def test_best_bounds_brackets_nest_as_budget_grows():
    # past EXACT_SEARCH_MAX_N no search settles the cell, so the budget shows
    assert 7 > EXACT_SEARCH_MAX_N
    lean = best_bounds(7, 2, Budget(use_ip=False, use_greedy=False))
    chain = best_bounds(7, 2, Budget(use_greedy=False))
    greedy = best_bounds(7, 2, Budget(use_ip=False))
    default = best_bounds(7, 2)
    assert lean.lower == greedy.lower < chain.lower == default.lower
    assert lean.upper == chain.upper > greedy.upper == default.upper
    assert not default.exact


def seed_grid(n_max, r_max):
    grid = {}
    for n in range(1, n_max + 1):
        for R in range(1, min(n, r_max) + 1):
            grid[(n, R)] = BoundRecord(
                n, R, superdiag_lower(n, R), 1 << n, "superdiag", "sphere"
            )
    return grid


def looped_propagate(grid):
    """Reference: apply propagate's rules over the whole grid until nothing moves."""

    def value(cells, n, R, field):
        rec = cells.get((n, R))
        if rec is not None:
            return getattr(rec, field)
        return 1 if R >= n else (1 << n) if R == 0 else None

    out = dict(grid)
    changed = True
    while changed:
        changed = False
        for key in sorted(out):
            n, R = key
            rec = out[key]
            lower, ltag = rec.lower, rec.lower_tag
            upper, utag = rec.upper, rec.upper_tag
            if R < n:
                for src in (value(out, n - 1, R, "lower"), value(out, n, R + 1, "lower")):
                    if src is not None and src + 1 > lower:
                        lower, ltag = src + 1, "mono"
            for n1 in range(1, n):
                for r1 in range(R + 1):
                    u1 = value(out, n1, r1, "upper")
                    u2 = value(out, n - n1, R - r1, "upper")
                    if u1 is not None and u2 is not None and u1 * u2 < upper:
                        upper, utag = u1 * u2, "s"
            if lower != rec.lower or upper != rec.upper:
                out[key] = replace(rec, lower=lower, upper=upper, lower_tag=ltag, upper_tag=utag)
                changed = True
    return out


def chain_grid():
    # (3,2) lifts (4,2), which in turn lifts (4,1); with (3,1) absent, a pass
    # that visits (4,1) before (4,2) stops short of the fixed point
    return {
        (3, 2): BoundRecord(3, 2, 2, 2, "e", "e"),
        (4, 1): BoundRecord(4, 1, 1, 16, "sphere", "sphere"),
        (4, 2): BoundRecord(4, 2, 1, 16, "sphere", "sphere"),
    }


@pytest.mark.parametrize(
    "grid",
    [seed_grid(10, 9), seed_grid(13, 12), chain_grid()],
    ids=["seed-10", "seed-13", "chain"],
)
def test_propagate_one_pass_matches_the_fixed_point_loop(grid):
    assert propagate(grid) == looped_propagate(grid)


def test_propagate_reaches_13_8():
    out = propagate(seed_grid(13, 12))
    assert out[(13, 8)].lower >= 7


def test_propagate_monotone_and_idempotent():
    first = propagate(seed_grid(10, 9))
    for key, rec in first.items():
        seeded = seed_grid(10, 9)[key]
        assert rec.lower >= seeded.lower
        assert rec.upper <= seeded.upper
    second = propagate(first)
    assert {k: (r.lower, r.upper) for k, r in second.items()} == {
        k: (r.lower, r.upper) for k, r in first.items()
    }


def test_propagate_split_upper():
    grid = {
        (2, 1): BoundRecord(2, 1, 1, 2, "sphere", "d"),
        (4, 2): BoundRecord(4, 2, 1, 16, "sphere", "sphere"),
    }
    out = propagate(grid)
    assert out[(4, 2)].upper == 4
    assert out[(4, 2)].upper_tag == "s"


def test_propagate_uses_virtual_cells():
    grid = {(3, 2): BoundRecord(3, 2, 1, 8, "sphere", "sphere")}
    out = propagate(grid)
    # lower: the virtual (3,3)=1 cell forces >= 2
    assert out[(3, 2)].lower >= 2
    # upper: split with the virtual (1,0) cell (2 words) and (2,2) cell (1 word)
    assert out[(3, 2)].upper <= 4


def test_propagate_rejects_contradiction():
    grid = {
        (3, 1): BoundRecord(3, 1, 3, 3, "e", "e"),
        (4, 1): BoundRecord(4, 1, 1, 3, "sphere", "g"),
    }
    with pytest.raises(ValueError):
        propagate(grid)


def test_propagate_leaves_tight_grid_alone():
    grid = {
        (2, 1): BoundRecord(2, 1, 2, 2, "e", "e"),
        (3, 1): BoundRecord(3, 1, 3, 3, "e", "e"),
    }
    out = propagate(grid)
    assert out[(2, 1)] == grid[(2, 1)]
    assert out[(3, 1)] == grid[(3, 1)]
