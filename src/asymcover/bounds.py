"""Analytic bounds on K+(n,R) and bound aggregation.

Lower bounds: the levelwise sphere-covering bound, the superdiagonal values,
exact search, and the difference chain built from the zero-count program,
which is never below the size program `ipsolve.ip_plus` where both were
solved.  Upper bounds: diagonal codes, coradius splits, greedy codes, exact
search, and direct-sum splits applied during grid propagation.
Every bound value is computed with exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import exact, ipsolve
from .constructions import GREEDY_MAX_N, general_upper_size, greedy_code
from .cube import ball_size_down, binomial

LOWER_TAG_ORDER = ("superdiag", "e", "mono", "sphere")
UPPER_TAG_ORDER = ("d", "e", "g", "s", "general", "sphere")
EXACT_SEARCH_MAX_N = 6  # best_bounds runs exact search on cells up to this n


@dataclass(frozen=True)
class BoundRecord:
    """Bracket for one K+(n,R) cell with provenance tags for both ends."""

    n: int
    R: int
    lower: int
    upper: int
    lower_tag: str
    upper_tag: str

    def __post_init__(self) -> None:
        if self.n < 1 or self.R < 0:
            raise ValueError("need n >= 1 and R >= 0")
        if not 1 <= self.lower <= self.upper <= (1 << self.n):
            raise ValueError(
                f"invalid bracket [{self.lower}, {self.upper}] at (n={self.n}, R={self.R})"
            )
        for key, order in (("lower_tag", LOWER_TAG_ORDER), ("upper_tag", UPPER_TAG_ORDER)):
            tag = getattr(self, key)
            if tag not in order:
                raise ValueError(f"record {key!r} must be one of {order}, got {tag!r}")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_dict(self) -> dict:
        """The record as a JSON object: its fields plus the derived `exact`."""
        return {
            "n": self.n,
            "R": self.R,
            "lower": self.lower,
            "upper": self.upper,
            "lower_tag": self.lower_tag,
            "upper_tag": self.upper_tag,
            "exact": self.lower == self.upper,
        }

    @classmethod
    def from_dict(cls, d) -> "BoundRecord":
        """Inverse of to_dict; raises ValueError naming the first bad key."""
        if not isinstance(d, dict):
            raise ValueError(f"a record must be a JSON object, got {type(d).__name__}")
        for key in ("n", "R", "lower", "upper", "lower_tag", "upper_tag"):
            if key not in d:
                raise ValueError(f"record has no {key!r}")
        for key in ("n", "R", "lower", "upper"):
            if type(d[key]) is not int:
                raise ValueError(f"record {key!r} must be an int, got {d[key]!r}")
        return cls(d["n"], d["R"], d["lower"], d["upper"], d["lower_tag"], d["upper_tag"])


@dataclass(frozen=True)
class Budget:
    """Which bound sources a cell is allowed to spend time on.

    Each open cell with n <= EXACT_SEARCH_MAX_N gets an exact search under the
    two limits.  It runs greedy and the chain itself whatever `use_ip` and
    `use_greedy` say, which costs milliseconds at those n.
    """

    use_ip: bool = True
    use_greedy: bool = True
    exact_time_limit: float = 60.0
    exact_node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.exact_time_limit is not None and self.exact_time_limit <= 0:
            raise ValueError("exact_time_limit must be positive")
        if self.exact_node_limit is not None and self.exact_node_limit <= 0:
            raise ValueError("exact_node_limit must be positive")


def _check_cell(n: int, R: int) -> None:
    if n < 1 or R < 0 or R > n:
        raise ValueError("need 1 <= n and 0 <= R <= n")


def asym_sphere_bound(n: int, R: int) -> int:
    """Levelwise sphere bound: ceil of sum_l C(n,l) / b-(min(n, l+R), R).

    Vertices of weight l can only be covered from levels l..l+R, and a word
    there covers at most b-(min(n, l+R), R) = sum_{j<=R} C(min(n, l+R), j)
    of them.  The sum is taken in integers over the LCM of those ball sizes.
    """
    _check_cell(n, R)
    sizes = [ball_size_down(n, min(l + R, n), R) for l in range(n + 1)]
    D = math.lcm(*sizes)
    return -(-sum(binomial(n, l) * (D // size) for l, size in enumerate(sizes)) // D)


def superdiag_lower(n: int, R: int) -> int:
    """Coradius-driven lower bound, exact at and beyond the threshold.

    With coradius r = n - R: K+(n,R) = r+1 once n >= r(r+1)/2, and
    K+(n,R) >= r+2 below that threshold.
    """
    return max(n - R, 0) + (1 if superdiag_exact(n, R) else 2)


def superdiag_exact(n: int, R: int) -> bool:
    """True when superdiag_lower(n, R) equals K+(n, R)."""
    _check_cell(n, R)
    r = n - R
    return r <= 0 or n >= r * (r + 1) // 2


def best_bounds(n: int, R: int, budget: Budget = Budget()) -> BoundRecord:
    """Best bracket one cell can get from every in-budget bound source."""
    _check_cell(n, R)
    if R == 0:
        full = 1 << n
        return BoundRecord(n, R, full, full, "sphere", "sphere")
    r = n - R
    if superdiag_exact(n, R):
        # the coradius theorem settles the cell, and its tags head both orders
        return BoundRecord(n, R, r + 1, r + 1, "superdiag", "d")

    lowers = [
        (asym_sphere_bound(n, R), "sphere"),
        (superdiag_lower(n, R), "superdiag"),
    ]
    uppers = [(general_upper_size(n, r), "general")]
    if n <= EXACT_SEARCH_MAX_N:
        # the search starts at or above the chain and from greedy's code, and
        # "e" comes before "mono" and "g" on a tie, so neither runs beside it
        res = exact.exact_kplus(
            n,
            R,
            time_limit=budget.exact_time_limit,
            node_limit=budget.exact_node_limit,
        )
        lowers.append((res.lower, "e"))
        # an unsettled search still holds greedy's code as its incumbent
        uppers.append((res.upper, "e" if res.status == "exact" else "g"))
    else:
        if budget.use_ip and n <= ipsolve.MAX_IP_DIMENSION:
            lowers.append((ipsolve.diff_chain_lower(n, R), "mono"))
        if budget.use_greedy and n <= GREEDY_MAX_N:
            uppers.append((len(greedy_code(n, R)), "g"))

    # the best value; on a tie, the tag that comes first in its order
    lower, ltag = max(lowers, key=lambda c: (c[0], -LOWER_TAG_ORDER.index(c[1])))
    upper, utag = min(uppers, key=lambda c: (c[0], UPPER_TAG_ORDER.index(c[1])))
    if lower > upper:
        raise ValueError(
            f"inconsistent bounds at (n={n}, R={R}): lower {lower} > upper {upper}"
        )
    return BoundRecord(n, R, lower, upper, ltag, utag)


def _virtual(grid, n: int, R: int, field: str) -> int | None:
    """The grid's `field` ("lower" or "upper") at (n, R), or its definitional value."""
    rec = grid.get((n, R))
    if rec is not None:
        return getattr(rec, field)
    if R >= n:
        return 1
    if R == 0:
        return 1 << n
    return None


def propagate(grid: dict[tuple[int, int], BoundRecord]) -> dict[tuple[int, int], BoundRecord]:
    """Tighten a grid to its monotonicity / direct-sum fixed point.

    Rules: for R < n, lower(n,R) must exceed both lower(n-1,R) and
    lower(n,R+1); upper(n,R) is at most the best product
    upper(n1,R1) * upper(n-n1,R-R1) over all splits.  Cells absent from the
    grid contribute their definitional values when R = 0 or R >= n.  Every
    rule reads cells of smaller n, or of the same n and larger R, so one pass
    in that order (n ascending, R descending) reaches the fixed point.
    Never loosens a bound; raises on lower > upper.
    """
    out = dict(grid)
    for key in sorted(out, key=lambda cell: (cell[0], -cell[1])):
        n, R = key
        rec = out[key]
        lower, ltag = rec.lower, rec.lower_tag
        upper, utag = rec.upper, rec.upper_tag
        if R < n:
            for src in (_virtual(out, n - 1, R, "lower"), _virtual(out, n, R + 1, "lower")):
                if src is not None and src + 1 > lower:
                    lower, ltag = src + 1, "mono"
        for n1 in range(1, n):
            for r1 in range(R + 1):
                u1 = _virtual(out, n1, r1, "upper")
                u2 = _virtual(out, n - n1, R - r1, "upper")
                if u1 is not None and u2 is not None and u1 * u2 < upper:
                    upper, utag = u1 * u2, "s"
        if lower > upper:
            raise ValueError(
                f"inconsistent bounds at (n={n}, R={R}): lower {lower} > upper {upper}"
            )
        if lower != rec.lower or upper != rec.upper:
            out[key] = replace(rec, lower=lower, upper=upper, lower_tag=ltag, upper_tag=utag)
    return out
