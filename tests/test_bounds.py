"""Analytic bounds, their aggregation, and grid propagation."""

import dataclasses
import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from asymcover.bounds import (
    BoundRecord,
    EXACT_ANCHORS,
    LOWER_TAG_ORDER,
    UPPER_TAG_ORDER,
    _bracket,
    asym_sphere_bound,
    best_bounds,
    propagate,
    superdiag_exact,
    superdiag_lower,
)
from asymcover import ipsolve
from asymcover.constructions import GREEDY_MAX_N, general_upper_size
from asymcover.cube import DimensionCapError
from asymcover.ipsolve import DEFAULT_NODE_CAP, MAX_IP_DIMENSION, ip_plus, phi_step
from asymcover.table import TableSpec, build_grid


def brute_ball_down_size(n, l, R):
    c = (1 << l) - 1
    return sum(
        1 for v in range(1 << n) if v & c == v and l - v.bit_count() <= R
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


def test_diff_chain_beats_plain_ip_at_61():
    # one step from K+(5, 1) = 10
    assert ip_plus(6, 1).value == 16
    assert 10 + phi_step(6, 1)[0] == 17


def test_diff_chain_stays_below_known_optima():
    # one step from each known K+(n-1, R), so also the chain from K+(R, R) = 1
    known = {(1, 1): 1, (2, 1): 2, (3, 1): 3, (4, 1): 6, (5, 1): 10, (6, 1): 18,
             (2, 2): 1, (3, 2): 2, (4, 2): 3, (5, 2): 5, (6, 2): 8}
    for (n, R), value in known.items():
        if n > R:
            assert known[n - 1, R] + phi_step(n, R)[0] <= value, (n, R)
    assert 1 + phi_step(3, 3)[0] == 1


def test_bound_record_validation():
    rec = BoundRecord(4, 1, 6, 6, "mono", "e")
    assert rec.exact
    # no larger node limit can tighten a closed bracket, so it is never flagged
    assert not BoundRecord(4, 1, 6, 6, "mono", "general", limit_hit=True).limit_hit
    assert BoundRecord(4, 1, 5, 6, "superdiag", "general", limit_hit=True).limit_hit
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
    with pytest.raises(ValueError, match=r"^need n >= 1 and R >= 0$"):
        BoundRecord(0, 0, 1, 1, "sphere", "sphere")
    with pytest.raises(ValueError, match=r"^need n >= 1 and R >= 0$"):
        BoundRecord(4, -1, 6, 6, "mono", "e")


# the fields a record must name: from_dict fills in no default
RECORD_FIELDS = ("n", "R", "lower", "upper", "lower_tag", "upper_tag", "limit_hit")


def test_record_dict_is_the_fields_plus_exact():
    rec = BoundRecord(4, 1, 5, 6, "mono", "g")
    assert [f.name for f in dataclasses.fields(BoundRecord)] == list(RECORD_FIELDS)
    assert rec.to_dict() == {"n": 4, "R": 1, "lower": 5, "upper": 6, "lower_tag": "mono",
                             "upper_tag": "g", "limit_hit": False, "exact": False}


@pytest.mark.parametrize("field", RECORD_FIELDS)
def test_from_dict_names_a_missing_field(field):
    d = BoundRecord(4, 1, 5, 6, "mono", "g").to_dict()
    del d[field]
    with pytest.raises(ValueError, match=f"^record has no '{field}'$"):
        BoundRecord.from_dict(d)


@pytest.mark.parametrize("field", ["n", "R", "lower", "upper"])
@pytest.mark.parametrize("value", ["4", 4.0, True])
def test_from_dict_names_a_field_that_is_not_an_int(field, value):
    d = {**BoundRecord(4, 1, 5, 6, "mono", "g").to_dict(), field: value}
    with pytest.raises(ValueError, match=f"^record '{field}' must be an int"):
        BoundRecord.from_dict(d)


@pytest.mark.parametrize("n,R", [(0, 0), (3, -1), (3, 4)])
def test_cell_checks_raise(n, R):
    for bound in (asym_sphere_bound, superdiag_exact):
        with pytest.raises(ValueError, match=r"^need 1 <= n and 0 <= R <= n$"):
            bound(n, R)


@pytest.mark.parametrize("n,R", [(63, 1), (100, 0), (1000, 1000)])
def test_cells_past_the_dimension_cap_are_refused(n, R):
    # before the R = 0 and coradius shortcuts, which need no kernel call
    for bound in (asym_sphere_bound, superdiag_exact, best_bounds):
        with pytest.raises(DimensionCapError, match=f"^need 1 <= n <= 62, got n={n}$"):
            bound(n, R)
    with pytest.raises(DimensionCapError, match=f"^need 1 <= n <= 62, got n={n}$"):
        TableSpec(n, n, R, R)


def test_best_bounds_pinned_cells():
    rec = best_bounds(6, 3)
    assert (rec.lower, rec.upper, rec.lower_tag, rec.upper_tag) == (4, 4, "superdiag", "d")
    # the chain lifts K+(3, 1) = 3 to 6, and greedy's code meets it
    rec = best_bounds(4, 1)
    assert (rec.lower, rec.upper, rec.lower_tag, rec.upper_tag) == (6, 6, "mono", "g")


def test_best_bounds_settles_superdiag_cells_without_search(monkeypatch):
    from asymcover import bounds, exact, ipsolve

    def forbidden(*args, **kwargs):
        raise AssertionError("a settled cell ran a bound source")

    monkeypatch.setattr(bounds, "greedy_code", forbidden)
    for name in ("ip_plus", "ip_phi", "phi_step"):
        monkeypatch.setattr(ipsolve, name, forbidden)
    monkeypatch.setattr(exact, "exact_kplus", forbidden)
    settled = [(n, R) for n in range(1, 12) for R in range(1, n + 1) if superdiag_exact(n, R)]
    for n, R in settled:
        r = n - R
        want = BoundRecord(n, R, r + 1, r + 1, "superdiag", "d")
        assert best_bounds(n, R) == want


def test_best_bounds_reads_an_anchor_and_runs_no_bound_source(monkeypatch):
    # a stored proof is read as a finished search, whatever the node limit and
    # the (n-1, R) bound: no search, no chain step and no greedy
    from asymcover import bounds, exact, ipsolve

    def forbidden(*args, **kwargs):
        raise AssertionError("an anchored cell ran a bound source")

    monkeypatch.setattr(bounds, "greedy_code", forbidden)
    for name in ("ip_plus", "ip_phi", "ip_phi_lp", "ip_phi_upper", "phi_step"):
        monkeypatch.setattr(ipsolve, name, forbidden)
    monkeypatch.setattr(exact, "exact_kplus", forbidden)
    for (n, R), value in EXACT_ANCHORS.items():
        want = BoundRecord(n, R, value, value, "e", "e")
        for node_limit in (DEFAULT_NODE_CAP, 1):
            assert best_bounds(n, R, node_limit) == want
            assert best_bounds(n, R, node_limit, below=1) == want
    # the (6, R) records are the ones the search gave when it ran there
    assert best_bounds(6, 1) == BoundRecord(6, 1, 18, 18, "e", "e")
    assert best_bounds(6, 2) == BoundRecord(6, 2, 8, 8, "e", "e")


# best_bounds(n, R) at every cell n <= 5 that the coradius theorem leaves
# open: the chain and greedy settle (4, 1) and (5, 2), and leave (5, 1) at
# 10-11, so its stored proof settles it
OPEN_CELLS_TO_5 = {
    (4, 1): BoundRecord(4, 1, 6, 6, "mono", "g"),
    (5, 1): BoundRecord(5, 1, 10, 10, "e", "e"),
    (5, 2): BoundRecord(5, 2, 5, 5, "superdiag", "g"),
}


def test_best_bounds_settles_every_cell_up_to_the_search_cap_without_general():
    # every cell n <= 7 is settled, so its upper bound is never the closed
    # form's: a shortcut, greedy at (4, 1) and (5, 2), or an anchor at the
    # open cells of n = 5..7
    assert {n for n, _ in EXACT_ANCHORS} == {5, 6, 7}
    records = [best_bounds(n, R) for n in range(1, 8) for R in range(n + 1)]
    assert all(rec.exact for rec in records)
    assert {rec.upper_tag for rec in records} == {"sphere", "d", "e", "g"}
    for cell, want in OPEN_CELLS_TO_5.items():
        assert best_bounds(*cell) == want
    # a computed source heeds the node limit, and only a stored proof ignores
    # it: phi takes 6 nodes at (4, 1), and greedy 36 there and 85 at (5, 2);
    # a bracket that the chain closes is not flagged, as no larger limit can
    # tighten it, though greedy stopped
    assert best_bounds(4, 1, 5) == BoundRecord(4, 1, 5, 6, "superdiag", "general", True)
    assert best_bounds(4, 1, 6) == BoundRecord(4, 1, 6, 6, "mono", "general", False)
    assert best_bounds(4, 1, 35) == BoundRecord(4, 1, 6, 6, "mono", "general", False)
    assert best_bounds(5, 2, 84) == BoundRecord(5, 2, 5, 6, "superdiag", "general", True)


def test_a_table_and_bound_run_no_exact_search(monkeypatch):
    # bounds reads stored proofs and never searches: the acceptance grid, and
    # best_bounds at every cell n <= 7, run with exact search made to fail
    from asymcover import exact

    def forbidden(*args, **kwargs):
        raise AssertionError("a bound or table ran exact search")

    monkeypatch.setattr(exact, "exact_kplus", forbidden)
    grid = build_grid(TableSpec(n_min=1, n_max=13, r_min=0, r_max=11))
    for n in range(1, 8):
        for R in range(n + 1):
            assert best_bounds(n, R) == grid[n, R], (n, R)


# node limit -> cells at 7 <= n <= 15 whose greedy stops at it: at 1,000
# nodes every open cell from n = 9 on, and at 100,000 three where phi
# finishes; a BudgetExceededError from greedy_code drops its upper bound
GREEDY_CUT = {
    1000: {(n, R) for n in range(9, 16) for R in range(1, n) if not superdiag_exact(n, R)},
    100_000: {(13, 2), (14, 1), (14, 9)},
}


def test_limit_hit_is_set_where_phi_or_greedy_stops():
    # at 1,000 nodes every open cell of 7 <= n <= 15: the verdict is a cut phi,
    # tag "lp", or a cut greedy; at 100,000 the greedy cuts, where phi finishes
    for n in range(7, 16):
        for R in range(1, n):
            rec = best_bounds(n, R, 1000)
            assert rec.limit_hit == (rec.lower_tag == "lp" or (n, R) in GREEDY_CUT[1000]), rec
    for n, R in GREEDY_CUT[100_000]:
        rec = best_bounds(n, R, 100_000)
        assert rec.limit_hit and rec.lower_tag != "lp" and rec.upper_tag == "general", rec


def test_limit_hit_is_set_where_phi_stops_but_another_lower_bound_wins():
    # a larger limit may lift the chain past superdiag, so the verdict stands;
    # past n = 26 no greedy runs, so phi's stop alone sets it at (29, 20)
    rec = best_bounds(29, 20, 1)
    assert (rec.lower, rec.upper, rec.lower_tag, rec.upper_tag, rec.limit_hit) == (
        11, 30, "superdiag", "general", True)
    assert ipsolve.phi_step(29, 20, 1) == (1, True)
    # every chain step of the (27, 19) column is proved without the program,
    # so no limit can move that bracket
    assert best_bounds(27, 19, 1) == BoundRecord(27, 19, 10, 25, "superdiag", "general")
    assert not best_bounds(14, 9).limit_hit


def test_limit_hit_is_carried_up_the_column():
    # bound steps from its own column, so a step below that took phi's LP value
    # weakens every lower bound above it: at a one-node limit each record whose
    # column took such a step is flagged, though the cell's own step is proved
    # without the program, and past n = 26 no greedy stops to flag it instead
    carried_alone = 0
    for R in range(1, MAX_IP_DIMENSION):
        took_lp = False
        for n in range(R + 1, MAX_IP_DIMENSION + 1):
            rec = best_bounds(n, R, 1)
            if superdiag_exact(n, R) or (n, R) in EXACT_ANCHORS:
                took_lp = False  # the column above steps from this exact value
                continue
            if took_lp:
                assert rec.limit_hit and not rec.exact, rec
                carried_alone += n > GREEDY_MAX_N and not ipsolve.phi_step(n, R, 1)[1]
            took_lp = took_lp or ipsolve.phi_step(n, R, 1)[1]
    assert carried_alone == 49


def test_best_bounds_and_the_table_do_not_read_the_clock(monkeypatch):
    # no bound source reads the clock, so one that jumps 1,000 s per read
    # changes no record; a per-cell time limit once left (6,1) at 17-18[e/g]
    from asymcover import exact

    def stopped(n, R):
        return exact.exact_kplus(n, R, node_limit=20_000)

    spec = TableSpec(n_min=1, n_max=7, r_min=0, r_max=7)
    steady = build_grid(spec)
    # searches stopped by their node limit, which a 600 s deadline once cut short
    brackets = {(7, 2): stopped(7, 2), (7, 1): stopped(7, 1)}
    ticks = itertools.count(step=1000.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
    for (n, R), want in OPEN_CELLS_TO_5.items():
        assert best_bounds(n, R) == want
    assert build_grid(spec) == steady
    assert {cell: stopped(*cell) for cell in brackets} == brackets
    assert next(ticks) == 0  # nothing read the jumping clock


@pytest.mark.parametrize("node_limit", [0, -5])
def test_best_bounds_refuses_a_node_limit_below_one(node_limit):
    # as exact_kplus does
    with pytest.raises(ValueError, match="node_limit must be positive"):
        best_bounds(8, 2, node_limit=node_limit)


def test_best_bounds_radius_zero():
    rec = best_bounds(5, 0)
    assert (rec.lower, rec.upper) == (32, 32)
    assert rec.lower_tag == rec.upper_tag == "sphere"


def test_best_bounds_default_budget_82():
    # one chain step from the (7, 2) anchor, 14
    rec = best_bounds(8, 2)
    assert (rec.lower, rec.lower_tag) == (21, "mono")
    assert (rec.upper, rec.upper_tag) == (24, "g")


def test_best_bounds_greedy_takes_a_tie_with_general(monkeypatch):
    # general's (8, 2) code has 36 words; "g" comes before "general" in its order
    from asymcover import bounds

    for size, want in ((36, (36, "g")), (37, (36, "general"))):
        monkeypatch.setattr(bounds, "greedy_code", lambda n, R, limit, _k=size: [0] * _k)
        rec = best_bounds(8, 2)
        assert (rec.upper, rec.upper_tag) == want, size


def test_best_bounds_budget_gating():
    # past the node limit greedy drops out; the (8, 2) step needs no program,
    # but (9, 2)'s does, and takes phi's LP value, one below phi's own step
    starved = best_bounds(8, 2, node_limit=1)
    assert (starved.lower, starved.lower_tag) == (21, "mono")
    assert (starved.upper, starved.upper_tag) == (36, "general")
    assert (best_bounds(9, 2, 1).lower, best_bounds(9, 2, 1).lower_tag) == (32, "lp")
    assert (best_bounds(9, 2).lower, best_bounds(9, 2).lower_tag) == (33, "mono")
    analytic = best_bounds(9, 2, node_limit=1)
    assert analytic.upper_tag in ("d", "general")


def test_best_bounds_tags_come_from_known_orders():
    for n in range(1, 9):
        for R in range(n + 1):
            rec = best_bounds(n, R)
            assert rec.lower_tag in LOWER_TAG_ORDER
            assert rec.upper_tag in UPPER_TAG_ORDER


def test_lp_fallback_is_never_above_the_default_lower_bound():
    # under a one-node limit every chain step past n = 6 takes phi's LP value,
    # which is at most phi's integer optimum, so no lower bound can rise
    from test_acceptance import REFERENCE_BRACKETS

    for n in range(1, 13):
        for R in range(n + 1):
            starved, default = best_bounds(n, R, node_limit=1), best_bounds(n, R)
            assert starved.lower <= default.lower, (n, R)
            if (n, R) in REFERENCE_BRACKETS:
                assert starved.lower <= REFERENCE_BRACKETS[n, R][1], (n, R)
            open_cell = not superdiag_exact(n, R) and R > 0 and (n, R) not in EXACT_ANCHORS
            if open_cell:
                assert starved.upper_tag == "general", (n, R)  # greedy dropped out


def test_the_chain_or_the_search_beats_the_sphere_bound_wherever_they_run():
    # each cell steps from its column's lower bound, as the table does; a
    # one-node limit puts every chain step on phi's LP value, the weakest chain
    for R in range(1, MAX_IP_DIMENSION):
        below = 1  # K+(R, R)
        for n in range(R + 1, MAX_IP_DIMENSION + 1):
            rec = _bracket(n, R, 1, below)
            assert rec.lower >= asym_sphere_bound(n, R) and rec.lower_tag != "sphere", (n, R)
            below = rec.lower


def test_cells_past_the_ip_cap_take_the_closed_forms(monkeypatch):
    from asymcover import bounds, exact, ipsolve

    def refuse(*args, **kwargs):
        raise AssertionError("no search, program or greedy past MAX_IP_DIMENSION")

    for module, name in ((ipsolve, "ip_phi"), (exact, "exact_kplus"), (bounds, "greedy_code")):
        monkeypatch.setattr(module, name, refuse)
    assert best_bounds(45, 3) == BoundRecord(
        45, 3, 14_117_860_416, general_upper_size(45, 42), "sphere", "general")
    rec = best_bounds(45, 35)
    assert (rec.lower, rec.lower_tag) == (12, "superdiag")


def test_chain_step_takes_the_tag_of_its_own_phi(monkeypatch):
    # a step whose own phi finishes is "mono" even where the (n-1, R) bound it
    # lifts took the LP value: a cell's tag is one function of (n, R), the
    # node limit and the (n-1, R) lower bound, whoever supplies that bound.
    # (9, 2) and (10, 2) are open steps, which run the program; the (9, 2)
    # step that took the LP value still flags the column above it
    real = ipsolve.ip_phi

    def starved_at_9(n, R, node_cap=DEFAULT_NODE_CAP, cutoff=None):
        return real(n, R, 0 if n == 9 else node_cap, cutoff)

    monkeypatch.setattr(ipsolve, "ip_phi", starved_at_9)
    assert best_bounds(10, 2) == BoundRecord(10, 2, 52, 79, "mono", "g", True)
    # handed a proven (9, 2) bound, as a table does, the step lifts that bound
    assert best_bounds(10, 2, below=33) == BoundRecord(10, 2, 53, 79, "mono", "g")


def test_best_bounds_brackets_nest_as_budget_grows():
    # no anchor settles the cell, so the node limit shows: the phi step of
    # (9, 2) takes 180 nodes, that of (8, 2) none, and greedy's (9, 2) code
    # 1,933; at (8, 2) phi's LP value and its optimum lift the (7, 2) anchor
    # to the same 21
    assert (9, 2) not in EXACT_ANCHORS
    lean = best_bounds(9, 2, node_limit=1)
    chain = best_bounds(9, 2, node_limit=1000)
    default = best_bounds(9, 2)
    assert (lean.lower_tag, chain.lower_tag, default.lower_tag) == ("lp", "mono", "mono")
    assert (lean.upper_tag, chain.upper_tag, default.upper_tag) == ("general", "general", "g")
    assert lean.lower < chain.lower == default.lower
    assert lean.upper == chain.upper > default.upper
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


def test_propagate_clears_the_limit_flag_of_a_bracket_it_closes():
    # greedy stops at (9, 5) under 1,000 nodes and leaves 6-9; the table's
    # direct-sum split closes it at 6, and a closed bracket keeps no flag
    assert best_bounds(9, 5, 1000) == BoundRecord(9, 5, 6, 9, "superdiag", "general", True)
    grid = build_grid(TableSpec(n_min=1, n_max=9, r_min=0, r_max=5, node_limit=1000))
    assert grid[9, 5] == BoundRecord(9, 5, 6, 6, "superdiag", "s")


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
