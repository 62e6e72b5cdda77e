"""The proof ledger: every cell of the acceptance table whose bracket passes
the reference, with its bound and source, re-proved here by a second path.

A bound past `REFERENCE_BRACKETS` is a claim that the independently reported
values do not back, so each one is rebuilt without the table: an upper bound
as a code checked by `covers`, a lower bound as its difference chain redone
step by step with the tuple-window reference solver from a stored exact
proof, and each stored proof by exact search (`test_exact.py` re-proves
every anchor).  A cell that passes the reference and is not listed here
fails the test until it is listed and re-proved.
"""

from pathlib import Path

import pytest

from asymcover.bounds import EXACT_ANCHORS
from asymcover.codefiles import load_code
from asymcover.constructions import direct_sum, greedy_code
from asymcover.cube import Code, covers
from test_acceptance import REFERENCE_BRACKETS
from test_ipsolve import objectives, reference_solve

DATA = Path(__file__).resolve().parent / "data"

# (n, R) -> (bound, tag) for each end of the bracket that passes the reference
# in `table --n-max 13 --r-max 11`: the (7, R) anchors, and the chain steps
# that lift them up their columns
LOWER_PAST_REFERENCE = {
    (7, 1): (31, "e"), (8, 1): (53, "mono"), (9, 1): (94, "mono"), (10, 1): (169, "mono"),
    (11, 1): (307, "mono"), (12, 1): (564, "mono"), (13, 1): (1047, "mono"),
    (7, 2): (14, "e"), (8, 2): (21, "mono"), (9, 2): (33, "mono"), (10, 2): (53, "mono"),
    (11, 2): (88, "mono"), (12, 2): (149, "mono"), (13, 2): (255, "mono"),
    (7, 3): (7, "e"), (8, 3): (10, "mono"), (9, 3): (15, "mono"), (10, 3): (23, "mono"),
    (11, 3): (35, "mono"), (12, 3): (55, "mono"), (13, 3): (89, "mono"),
}
UPPER_PAST_REFERENCE = {
    (7, 1): (31, "e"), (7, 2): (14, "e"), (8, 1): (62, "s"), (8, 2): (24, "g"),
    (9, 1): (120, "g"), (9, 2): (45, "g"), (10, 2): (79, "g"), (11, 3): (61, "g"),
    (11, 4): (29, "g"), (11, 5): (14, "g"), (12, 2): (259, "g"), (12, 5): (26, "g"),
    (12, 6): (14, "g"), (13, 1): (1560, "g"), (13, 2): (474, "g"), (13, 3): (184, "g"),
    (13, 5): (42, "g"),
}
# the cells whose upper bound greedy's code rebuilds: its own, and (7, 1),
# where greedy's 31 words meet the anchor
GREEDY_CELLS = [(7, 1)] + [cell for cell, (_, tag) in UPPER_PAST_REFERENCE.items() if tag == "g"]


def test_every_cell_past_the_reference_is_in_the_ledger(acceptance_grid):
    lower_past, upper_past = {}, {}
    for cell, (ref_lower, ref_upper) in REFERENCE_BRACKETS.items():
        rec = acceptance_grid[cell]
        if rec.lower > ref_lower:
            lower_past[cell] = (rec.lower, rec.lower_tag)
        if rec.upper < ref_upper:
            upper_past[cell] = (rec.upper, rec.upper_tag)
    assert lower_past == LOWER_PAST_REFERENCE
    assert upper_past == UPPER_PAST_REFERENCE


@pytest.mark.parametrize("n, R", GREEDY_CELLS)
def test_a_greedy_upper_bound_is_rebuilt_and_covers(n, R):
    code = greedy_code(n, R)
    assert len(code) == UPPER_PAST_REFERENCE[n, R][0]
    assert covers(code, R)


def test_the_direct_sum_upper_bound_at_8_1_is_rebuilt_and_covers():
    # Q_1 whole covers at radius 0; beside greedy's (7, 1) code the radii add to 1
    code = direct_sum(Code(1, (0, 1)), greedy_code(7, 1))
    assert len(code) == UPPER_PAST_REFERENCE[8, 1][0] == 2 * 31
    assert covers(code, 1)


def test_an_exact_bound_is_an_anchor_with_a_witness_that_covers():
    # the anchor's value is re-proved by exact search in test_exact.py; an exact
    # upper bound is rebuilt here from the shipped witness of that search.  The
    # (6, R) anchors equal the reference, so only the (7, R) ones pass it
    exact_cells = {cell for cells in (LOWER_PAST_REFERENCE, UPPER_PAST_REFERENCE)
                   for cell, (_, tag) in cells.items() if tag == "e"}
    past = {cell for cell, value in EXACT_ANCHORS.items()
            if REFERENCE_BRACKETS[cell] != (value, value)}
    assert exact_cells == past == {cell for cell in EXACT_ANCHORS if cell[0] == 7}
    for cells in (LOWER_PAST_REFERENCE, UPPER_PAST_REFERENCE):
        for cell, (value, tag) in cells.items():
            assert tag != "e" or value == EXACT_ANCHORS[cell], cell
    for (n, R), (value, tag) in UPPER_PAST_REFERENCE.items():
        if tag == "e":
            code = load_code(str(DATA / f"kplus-{n}-{R}.json"))
            assert (code.n, len(code)) == (n, value)
            assert covers(code, R)


def test_the_chained_lower_bounds_are_rederived_from_the_anchors_by_the_reference_solver():
    # each step lifts the (7, R) anchor by ceil(phi(k, R) / k), with phi solved
    # by the tuple-window DP, not by ipsolve.solve
    chained = {cell for cell, (_, tag) in LOWER_PAST_REFERENCE.items() if tag == "mono"}
    assert chained == {(k, R) for k in range(8, 14) for R in (1, 2, 3)}
    for R in (1, 2, 3):
        lower = EXACT_ANCHORS[7, R]
        for k in range(8, 14):
            lower += -(-reference_solve(k, R, objectives(k)[1]).value // k)
            assert lower == LOWER_PAST_REFERENCE[k, R][0], (k, R)
