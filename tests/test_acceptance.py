"""Acceptance checks: one pass/fail line per criterion (run pytest -s to see them).

Reference brackets are the best independently reported lower/upper values for
K+(n, R); acceptance asks our computed brackets to intersect them, to match
exactly on analytically settled cells, and to finish inside stated budgets.
"""

import math
import time

from asymcover.bounds import (
    asym_sphere_bound,
    propagate,
    superdiag_lower,
)
from asymcover.bounds import BoundRecord
from asymcover.constructions import (
    diagonal_code,
    greedy_code,
    nu,
    random_code_nu,
)
from asymcover.cube import ball_size_down, ball_size_up, code_covering_radius, covers
from asymcover.exact import exact_kplus
from asymcover.ipsolve import ip_plus
from asymcover.linear import a_code, min_linear_dim, span
from asymcover.table import TableSpec, build_grid

REFERENCE_BRACKETS = {
    (2, 1): (2, 2), (3, 1): (3, 3), (4, 1): (6, 6), (5, 1): (10, 10),
    (6, 1): (18, 18), (7, 1): (30, 34),
    (3, 2): (2, 2), (4, 2): (3, 3), (5, 2): (5, 5), (6, 2): (8, 8),
    (7, 2): (13, 15),
    (4, 3): (2, 2), (5, 3): (3, 3), (6, 3): (4, 4), (7, 3): (6, 7),
    (5, 4): (2, 2), (6, 4): (3, 3), (7, 4): (4, 4),
    (6, 5): (2, 2), (7, 5): (3, 3), (7, 6): (2, 2),
    (8, 1): (52, 67), (9, 1): (93, 121), (10, 1): (162, 229),
    (11, 1): (306, 433), (12, 1): (563, 813), (13, 1): (1046, 1626),
    (8, 2): (20, 25), (9, 2): (32, 46), (10, 2): (52, 81),
    (11, 2): (87, 141), (12, 2): (148, 262), (13, 2): (254, 524),
    (8, 3): (9, 13), (9, 3): (14, 21), (10, 3): (22, 36),
    (11, 3): (34, 64), (12, 3): (54, 105), (13, 3): (88, 210),
    (8, 4): (6, 6), (9, 4): (8, 11), (10, 4): (12, 16),
    (11, 4): (17, 30), (12, 4): (26, 49), (13, 4): (40, 83),
    (8, 5): (4, 4), (9, 5): (6, 6), (10, 5): (8, 9),
    (11, 5): (11, 16), (12, 5): (15, 27), (13, 5): (22, 48),
    (8, 6): (3, 3), (9, 6): (4, 4), (10, 6): (5, 5),
    (11, 6): (7, 8), (12, 6): (10, 15), (13, 6): (14, 23),
    (8, 7): (2, 2), (9, 7): (3, 3), (10, 7): (4, 4),
    (11, 7): (5, 5), (12, 7): (7, 7), (13, 7): (9, 12),
    (9, 8): (2, 2), (10, 8): (3, 3), (11, 8): (4, 4),
    (12, 8): (5, 5), (13, 8): (7, 7),
    (10, 9): (2, 2), (11, 9): (3, 3), (12, 9): (4, 4), (13, 9): (5, 5),
    (11, 10): (2, 2), (12, 10): (3, 3), (13, 10): (4, 4),
    (12, 11): (2, 2), (13, 11): (3, 3),
}

# cells whose reference upper comes from the one-block zero-diagonal set,
# where the value is settled analytically and equality is required
SETTLED_CELLS = [
    (3, 1), (4, 2), (6, 3), (7, 4), (8, 5), (10, 6), (11, 7), (12, 8), (13, 9),
]


def symmetric_sphere_bound(n, R):
    """ceil(2^n / sum_{j<=R} C(n,j)): the bound when every ball has the same size."""
    return -(-(1 << n) // sum(math.comb(n, j) for j in range(R + 1)))


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_small_block():
    start = time.monotonic()
    values = {(2, 1): 2, (3, 1): 3, (4, 1): 6, (5, 1): 10, (5, 2): 5,
              (6, 2): 8, (6, 3): 4}
    wrong = []
    for (n, R), want in values.items():
        res = exact_kplus(n, R)
        if (res.lower, res.upper) != (want, want) or not covers(res.witness, R):
            wrong.append(((n, R), res.lower, res.upper))
    for n in range(1, 8):
        for R, want in ((n, 1), (n - 1, 2)) if n >= 2 else ((n, 1),):
            res = exact_kplus(n, R)
            if (res.lower, res.upper) != (want, want):
                wrong.append(((n, R), res.lower, res.upper))
    elapsed = time.monotonic() - start
    ok = not wrong and elapsed < 60.0
    report(1, ok, f"exact small block in {elapsed:.1f}s (limit 60s), mismatches {wrong}")


def test_criterion_2_exact_6_1():
    start = time.monotonic()
    res = exact_kplus(6, 1)
    elapsed = time.monotonic() - start
    lo, hi = res.lower, res.upper
    if res.status == "exact":
        ok = hi == 18 and elapsed < 600.0
        detail = f"K+(6,1) = {hi} exact in {elapsed:.1f}s (limit 600s)"
    else:
        ok = lo <= 18 <= hi and hi - lo <= 4
        detail = f"K+(6,1) bracketed {lo}-{hi} in {elapsed:.1f}s (width limit 4)"
    report(2, ok, detail)


def test_criterion_3_profile_program_values():
    targets = {(4, 1): 6, (7, 3): 6, (8, 3): 9, (9, 3): 14}
    wrong = []
    slow = []
    for (n, R), want in targets.items():
        start = time.monotonic()
        got = ip_plus(n, R).value
        dt = time.monotonic() - start
        if got != want:
            wrong.append(((n, R), got))
        if dt >= 10.0:
            slow.append(((n, R), dt))
    ok = not wrong and not slow
    report(3, ok, f"profile program values {targets}, mismatches {wrong}, over-budget {slow}")


def test_criterion_4_profile_program_dominates_sphere():
    bad = []
    for n in range(1, 13):
        for R in range(1, n + 1):
            if ip_plus(n, R).value < asym_sphere_bound(n, R):
                bad.append((n, R))
    report(4, not bad, f"profile lower >= levelwise sphere for n <= 12, failures {bad}")


def test_criterion_5_diagonal_and_below_threshold():
    start = time.monotonic()
    bad = []
    for coradius in range(1, 6):
        n = coradius * (coradius + 1) // 2
        code = diagonal_code(n, coradius)
        if len(code) != coradius + 1 or not covers(code, n - coradius):
            bad.append(("diagonal", coradius))
    # one dimension below the threshold the diagonal value is no longer
    # attainable: the minimum rises to coradius + 2
    for coradius in (2, 3):
        n = coradius * (coradius + 1) // 2 - 1
        got = exact_kplus(n, n - coradius)
        if (got.lower, got.upper) != (coradius + 2, coradius + 2):
            bad.append(("below", coradius, got.lower, got.upper))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    report(5, ok, f"diagonal optimality checks in {elapsed:.1f}s (limit 60s), failures {bad}")


def test_criterion_6_reference_table():
    start = time.monotonic()
    spec = TableSpec(n_min=2, n_max=13, r_min=1, r_max=11)
    grid = build_grid(spec)
    disjoint, behind = [], []
    for cell, (lo, hi) in REFERENCE_BRACKETS.items():
        rec = grid[cell]
        if rec.lower > hi or rec.upper < lo:
            disjoint.append((cell, (rec.lower, rec.upper)))
        if rec.lower < lo:
            behind.append((cell, rec.lower, lo))
    unequal = []
    for cell in SETTLED_CELLS + [(4, 1)]:
        rec = grid[cell]
        lo, hi = REFERENCE_BRACKETS[cell]
        if not (rec.lower == rec.upper == lo == hi):
            unequal.append((cell, (rec.lower, rec.upper)))
    overweight = []
    for (n, R), (lo, hi) in REFERENCE_BRACKETS.items():
        if n > 10:
            continue
        heuristic = min(
            len(greedy_code(n, R)),
            min(len(random_code_nu(n, R, s)) for s in range(2)),
        )
        if heuristic > 1.5 * hi:
            overweight.append(((n, R), heuristic, hi))
    elapsed = time.monotonic() - start
    ok = not disjoint and not behind and not unequal and not overweight and elapsed < 1800.0
    report(
        6,
        ok,
        f"table n<=13 R<=11 in {elapsed:.0f}s (limit 1800s); disjoint {disjoint}, "
        f"lower bounds behind the reference {behind}, unequal {unequal}, "
        f"heuristics over 1.5x {overweight}",
    )


def test_criterion_7_randomized_size_bound():
    start = time.monotonic()
    bad = []
    for n in (8, 10):
        R = 2
        limit = (n * math.log(2) + 1) * float(nu(n, R))
        best = min(len(random_code_nu(n, R, seed)) for seed in range(50))
        if best > limit:
            bad.append((n, best, limit))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 120.0
    report(7, ok, f"randomized covers within (n ln2 + 1)nu in {elapsed:.1f}s, failures {bad}")


def test_criterion_8_linear_covers():
    start = time.monotonic()
    bad = []
    for n in range(1, 6):
        for R in range(1, n + 1):
            if min_linear_dim(n, R, exhaustive=True) != max(1, n - R):
                bad.append(("exhaustive", n, R))
    for n in range(1, 15):
        for R in range(1, n + 1):
            if code_covering_radius(span(a_code(n, R), n)) > R:
                bad.append(("radius", n, R))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    report(8, ok, f"linear covers in {elapsed:.1f}s (limit 60s), failures {bad}")


def test_criterion_9_property_sweep():
    start = time.monotonic()
    bad = []
    for n in range(1, 11):
        for l in range(n + 1):
            for R in range(n + 1):
                if ball_size_up(n, l, R) != ball_size_down(n, n - l, R):
                    bad.append(("duality", n, l, R))
    for n in range(1, 13):
        for R in range(1, n + 1):
            if asym_sphere_bound(n, R) < symmetric_sphere_bound(n, R):
                bad.append(("sphere", n, R))
    for n in range(2, 8):
        for R in range(1, n):
            code = greedy_code(n, R)
            if not covers(code, R) or not covers(code, R + 1):
                bad.append(("greedy-monotone", n, R))
    seeded = {
        (n, R): BoundRecord(n, R, superdiag_lower(n, R), 1 << n, "superdiag", "sphere")
        for n in range(1, 11)
        for R in range(1, n + 1)
    }
    once = propagate(seeded)
    twice = propagate(once)
    if once != twice:
        bad.append(("propagate-idempotent",))
    for key, rec in once.items():
        if rec.lower < seeded[key].lower or rec.upper > seeded[key].upper:
            bad.append(("propagate-loosened", key))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    report(9, ok, f"property sweep in {elapsed:.1f}s (limit 60s), failures {bad}")
