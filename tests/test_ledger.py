"""The proof ledger: every cell of the acceptance table whose bracket passes
the reference, with its bound and source, re-proved here by a second path.

A bound past `REFERENCE_BRACKETS` is a claim that the independently reported
values do not back, so each one is rebuilt without the table: an upper bound
as a code checked by `covers`, a lower bound as its difference chain redone
step by step with the tuple-window reference solver.  A cell that passes the
reference and is not listed here fails the test until it is listed and
re-proved.
"""

import pytest

from asymcover.constructions import direct_sum, greedy_code
from asymcover.cube import Code, covers
from asymcover.exact import exact_kplus
from asymcover.ipsolve import diff_lower
from asymcover.table import TableSpec, build_grid
from test_acceptance import REFERENCE_BRACKETS
from test_ipsolve import objectives, reference_solve

# (n, R) -> (bound, tag) for each end of the bracket that passes the reference
# in `table --n-max 13 --r-max 11`
LOWER_PAST_REFERENCE = {(10, 1): (168, "mono")}
UPPER_PAST_REFERENCE = {
    (7, 1): (31, "g"), (8, 1): (62, "s"), (8, 2): (24, "g"), (9, 1): (120, "g"),
    (9, 2): (45, "g"), (10, 2): (79, "g"), (11, 3): (61, "g"), (11, 4): (29, "g"),
    (11, 5): (14, "g"), (12, 2): (259, "g"), (12, 5): (26, "g"), (12, 6): (14, "g"),
    (13, 1): (1560, "g"), (13, 2): (474, "g"), (13, 3): (184, "g"), (13, 5): (42, "g"),
}
GREEDY_CELLS = [cell for cell, (_, tag) in UPPER_PAST_REFERENCE.items() if tag == "g"]


@pytest.fixture(scope="module")
def grid():
    return build_grid(TableSpec(1, 13, 0, 11))


def test_every_cell_past_the_reference_is_in_the_ledger(grid):
    lower_past, upper_past = {}, {}
    for cell, (ref_lower, ref_upper) in REFERENCE_BRACKETS.items():
        rec = grid[cell]
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


def test_the_chained_lower_bound_at_10_1_is_rederived_by_the_reference_solver():
    # exact search settles (6, 1); each step lifts it by ceil(phi(k, 1) / k),
    # with phi solved by the tuple-window DP, not by ipsolve.solve
    lower = exact_kplus(6, 1).lower
    assert lower == 18
    phis, steps = [], []
    for k in range(7, 11):
        phis.append(reference_solve(k, 1, objectives(k)[1]).value)
        lower = diff_lower(k, lower, phis[-1])
        steps.append(lower)
    assert phis == [84, 174, 363, 741]
    assert steps == [30, 52, 93, 168]
    assert lower == LOWER_PAST_REFERENCE[10, 1][0]
