"""GF(2) linear codes under the downward covering order.

Subspaces are handled as XOR-closed sets of masks with canonical reduced
bases.  Includes the doubling construction attaining the minimum dimension
max(1, n-R), an exhaustive minimum-dimension search over all subspaces for
small n, and the asymmetric covering radius with an infinity sentinel for
codes that miss the all-ones vector (whose top vertex can never be covered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .cube import MAX_DIMENSION, Code, DimensionCapError, all_ones, covers, sweep

SPAN_MAX_GENS = 20
RADIUS_MAX_N = 26  # a radius sweep may take n steps: about 8 s at the cap
SUBSPACE_ENUM_MAX_N = 6


def reduce_basis(generators, n: int) -> list[int]:
    """Canonical reduced basis (unique per subspace), pivots descending."""
    pivots: dict[int, int] = {}
    for g in generators:
        if not 0 <= g < (1 << n):
            raise ValueError(f"generator {g} outside Q_{n}")
        v = g
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = v
                break
            v ^= pivots[p]
    rows = [pivots[p] for p in sorted(pivots, reverse=True)]
    for i in range(len(rows)):
        for j in range(i):
            if rows[j] >> (rows[i].bit_length() - 1) & 1:
                rows[j] ^= rows[i]
    return rows


@dataclass(frozen=True)
class LinearCode:
    """A subspace of Q_n: canonical generators, dimension, enumerated span."""

    n: int
    generators: tuple[int, ...]
    dim: int
    span: Code


def span(generators, n: int) -> LinearCode:
    """Reduce the generators and enumerate the full subspace."""
    basis = reduce_basis(generators, n)
    if len(basis) > SPAN_MAX_GENS:
        raise DimensionCapError(
            f"span of dimension {len(basis)} exceeds the 2^{SPAN_MAX_GENS} cap"
        )
    return LinearCode(n=n, generators=tuple(basis), dim=len(basis), span=_close(basis, n))


def is_self_complementary(code: LinearCode) -> bool:
    """A subspace equals its ones-complement exactly when it contains 1̂."""
    return all_ones(code.n) in code.span


def code_covering_radius(code: Code) -> int | float:
    """Smallest R at which `code` downward R-covers Q_n; inf if none exists.

    Counts the steps of the cube kernel's covering sweep until the covered
    set is full; if a step stops growing the set first, no radius covers.
    The value is finite iff 1̂ is a codeword.
    """
    if code.n > RADIUS_MAX_N:
        raise DimensionCapError(f"covering radius sweep capped at n = {RADIUS_MAX_N}")
    return sweep(code, want_radius=True)[1]


def asym_covering_radius(code: LinearCode) -> int | float:
    """Covering radius of the subspace; math.inf when 1̂ is not in the span."""
    if not is_self_complementary(code):
        return math.inf
    return code_covering_radius(code.span)


def a_code(n: int, R: int) -> LinearCode:
    """Doubling construction of dimension max(1, n-R) covering at radius R.

    Base: the two-word code {0̂, 1̂} on min(n, R+1) coordinates.  Each further
    coordinate is adjoined freely, which preserves the covering radius and
    adds one dimension.
    """
    if n < 1 or R < 1:
        raise ValueError("need n >= 1 and R >= 1")
    base = min(n, R + 1)
    generators = [all_ones(base)]
    generators.extend(1 << i for i in range(base, n))
    return span(generators, n)


def enumerate_subspaces(n: int, dim: int):
    """Yield every dim-dimensional subspace of Q_n exactly once.

    Canonical reduced bases: choose descending pivot positions, then fill
    each row's sub-pivot non-pivot positions freely.
    """
    if n > SUBSPACE_ENUM_MAX_N:
        raise DimensionCapError(f"subspace enumeration capped at n = {SUBSPACE_ENUM_MAX_N}")
    if dim == 0:
        yield span([], n)
        return
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
            yield LinearCode(
                n=n,
                generators=tuple(rows),
                dim=dim,
                span=_close(rows, n),
            )


def _close(rows: list[int], n: int) -> Code:
    """Every XOR combination of the rows, as a code."""
    words = [0]
    for g in rows:
        words += [w ^ g for w in words]
    return Code.from_words(n, words)


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
    if n > SUBSPACE_ENUM_MAX_N:
        raise DimensionCapError(
            f"exhaustive search capped at n = {SUBSPACE_ENUM_MAX_N}"
        )
    for dim in range(n + 1):
        for candidate in enumerate_subspaces(n, dim):
            if covers(candidate.span, R):
                return dim
    raise AssertionError("unreachable: the full space covers at any radius")
