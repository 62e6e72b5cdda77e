"""GF(2) linear codes under the downward covering order.

A subspace is its reduced basis, a list of masks with pivots descending,
and its span, a `Code`.  Includes the doubling construction attaining the
minimum dimension max(1, n-R) and an exhaustive minimum-dimension search
over all subspaces for small n.  A subspace's covering radius is the cube
kernel's `code_covering_radius` of its span, infinite when the span misses
the all-ones vector, whose top vertex can then never be covered.
"""

from __future__ import annotations

from itertools import combinations

from .cube import MAX_DIMENSION, Code, DimensionCapError, all_ones, covers

SPAN_MAX_GENS = 20
SUBSPACE_ENUM_MAX_N = 6


def span(basis: list[int], n: int) -> Code:
    """Every XOR combination of the independent basis rows, as a code."""
    if len(basis) > SPAN_MAX_GENS:
        raise DimensionCapError(
            f"span of dimension {len(basis)} exceeds the 2^{SPAN_MAX_GENS} cap"
        )
    words = [0]
    for g in basis:
        words += [w ^ g for w in words]
    return Code.from_words(n, words)


def a_code(n: int, R: int) -> list[int]:
    """Reduced basis of dimension max(1, n-R) whose span covers at radius R.

    Base: the two-word code {0̂, 1̂} on min(n, R+1) coordinates.  Each further
    coordinate is adjoined freely, which preserves the covering radius and
    adds one dimension.
    """
    if n < 1 or R < 1:
        raise ValueError("need n >= 1 and R >= 1")
    base = min(n, R + 1)
    return [1 << i for i in range(n - 1, base - 1, -1)] + [all_ones(base)]


def enumerate_subspaces(n: int, dim: int):
    """Yield the span of every dim-dimensional subspace of Q_n exactly once.

    Canonical reduced bases: choose descending pivot positions, then fill
    each row's sub-pivot non-pivot positions freely.
    """
    if n > SUBSPACE_ENUM_MAX_N:
        raise DimensionCapError(f"exhaustive search capped at n = {SUBSPACE_ENUM_MAX_N}")
    for pivots in combinations(range(n - 1, -1, -1), dim):
        pivot_set = set(pivots)
        free = [
            [p for p in range(pivot) if p not in pivot_set] for pivot in pivots
        ]
        slots = sum(len(f) for f in free)
        for fill in range(1 << slots):
            rows = []
            used = 0
            for pivot, positions in zip(pivots, free):
                row = 1 << pivot
                for p in positions:
                    if fill >> used & 1:
                        row |= 1 << p
                    used += 1
                rows.append(row)
            yield span(rows, n)


def min_linear_dim(n: int, R: int, exhaustive: bool = False) -> int:
    """Least dimension of a subspace covering Q_n at radius R.

    The formula branch returns max(1, n-R) directly.  The exhaustive branch
    (n <= 6) scans all subspaces by increasing dimension and returns the
    first dimension that covers.
    """
    if n < 1 or R < 1:
        raise ValueError("need n >= 1 and R >= 1")
    if not exhaustive:
        if n > MAX_DIMENSION:
            raise DimensionCapError(f"formula branch capped at n = {MAX_DIMENSION}")
        return max(1, n - R)
    for dim in range(n + 1):
        if any(covers(code, R) for code in enumerate_subspaces(n, dim)):
            return dim
    raise AssertionError("unreachable: the full space covers at any radius")
