"""Analytic bounds on K+(n,R) and bound aggregation.

Lower bounds: the levelwise sphere-covering bound, the superdiagonal values,
the stored exact proofs of `EXACT_ANCHORS`, and the difference chain, which
lifts a proven lower bound on K+(n-1, R) (the table's own, or else the lower
end of `_bracket(n-1, R)`, the function that builds every cell) by
`ipsolve.phi_step`: ceil(phi / n) for the zero-count program's optimum phi,
proved by two closed-form bounds on phi where they agree, else by the
program deciding each n * k, or the last k it proved past its nodes.  Upper
bounds: diagonal codes, coradius splits, greedy codes, the stored exact
proofs, and direct-sum splits applied during grid propagation.  Every
bound value is computed with exact integer arithmetic.  No exact search
runs here: `exact.exact_kplus` is the prover of the anchors, which the
tests re-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import ipsolve
from .constructions import GREEDY_MAX_N, general_upper_size, greedy_code
from .cube import ball_size_down, binomial, check_dimension

LOWER_TAG_ORDER = ("superdiag", "e", "mono", "lp", "sphere")
UPPER_TAG_ORDER = ("d", "e", "g", "s", "general", "sphere")
# K+(n, R) proved by exact_kplus at its default node limit, at the open cells
# that the chain and greedy leave unsettled: (5, 1) takes 15 nodes but they
# leave it at 10-11, (6, 1) takes 6,435 and (7, 2) 4,497,154.  The tests
# re-prove each value and check its witness.
EXACT_ANCHORS = {(5, 1): 10, (6, 1): 18, (6, 2): 8, (7, 1): 31, (7, 2): 14, (7, 3): 7}


@dataclass(frozen=True)
class BoundRecord:
    """Bracket for one K+(n,R) cell with provenance tags for both ends."""

    n: int
    R: int
    lower: int
    upper: int
    lower_tag: str
    upper_tag: str
    # some bound source behind an open bracket stopped at its node limit
    limit_hit: bool = False

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
        if self.exact:
            # no larger node limit can tighten a closed bracket
            object.__setattr__(self, "limit_hit", False)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_dict(self) -> dict:
        """The record as a JSON object: its fields plus the derived `exact`."""
        return {**vars(self), "exact": self.exact}

    @classmethod
    def from_dict(cls, d) -> "BoundRecord":
        """Inverse of to_dict; raises ValueError naming the first bad key.
        Every field is required: a cache under an older key is never parsed."""
        if not isinstance(d, dict):
            raise ValueError(f"a record must be a JSON object, got {type(d).__name__}")
        for f in fields(cls):
            if f.name not in d:
                raise ValueError(f"record has no {f.name!r}")
            # the annotations are strings; __post_init__ checks the tags
            kind = {"int": "an int", "bool": "a bool"}.get(f.type)
            if kind and type(d[f.name]).__name__ != f.type:
                raise ValueError(f"record {f.name!r} must be {kind}, got {d[f.name]!r}")
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _check_cell(n: int, R: int) -> None:
    if n < 1 or R < 0 or R > n:
        raise ValueError("need 1 <= n and 0 <= R <= n")
    check_dimension(n)  # before the R = 0 and coradius shortcuts answer


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


def best_bounds(
    n: int, R: int, node_limit: int = ipsolve.DEFAULT_NODE_CAP, below: int | None = None
) -> BoundRecord:
    """Best bracket one cell can get from every bound source: `_bracket`'s,
    with greedy's code added where no shortcut or anchor settled the cell.

    A cell of `EXACT_ANCHORS` takes its stored proof, tags "e"/"e", and runs
    nothing.  The difference chain steps from `below`, a proven lower bound
    on K+(n-1, R) such as a table's own.  Without it, the chain steps from
    `_bracket`'s bracket of (n-1, R), down the column, where no greedy runs.
    The chain's phi program, run only at a step that its closed-form bounds
    leave open, and greedy each stop after `node_limit` nodes: a chain step
    then takes the last step proved, tag "lp", and greedy's bound drops out.
    Either sets the record's `limit_hit` while its bracket is open, and so
    does an "lp" step down the column that the chain walks itself.  The
    limit binds every computed source; only a stored proof ignores it.
    """
    if node_limit <= 0:
        raise ValueError("node_limit must be positive")
    rec = _bracket(n, R, node_limit, below)
    # a record settled by a shortcut or an anchor has another upper tag than "general"
    if n <= GREEDY_MAX_N and rec.upper_tag == "general":
        try:
            size = len(greedy_code(n, R, node_limit))
        except ipsolve.BudgetExceededError:
            return replace(rec, limit_hit=True)
        if size <= rec.upper:  # "g" comes before "general" in its order
            return replace(rec, upper=size, upper_tag="g")
    return rec


def _bracket(n: int, R: int, node_limit: int, below: int | None) -> BoundRecord:
    """The bracket of one cell from every bound source but greedy.  Without
    `below`, the chain steps from this function's bracket of (n-1, R)."""
    _check_cell(n, R)
    if R == 0:
        full = 1 << n
        return BoundRecord(n, R, full, full, "sphere", "sphere")
    r = n - R
    if superdiag_exact(n, R):
        # the coradius theorem settles the cell, and its tags head both orders
        return BoundRecord(n, R, r + 1, r + 1, "superdiag", "d")
    lowers = [(asym_sphere_bound(n, R), "sphere"), (superdiag_lower(n, R), "superdiag")]
    uppers = [(general_upper_size(n, r), "general")]
    limit_hit = False
    if (n, R) in EXACT_ANCHORS:
        # a stored proof, read as a finished search: no chain step beside it
        lowers.append((EXACT_ANCHORS[n, R], "e"))
        uppers.append((EXACT_ANCHORS[n, R], "e"))
    elif n <= ipsolve.MAX_IP_DIMENSION:
        if below is None:
            # the column's own walk: a step below that stopped weakens this one too
            column = _bracket(n - 1, R, node_limit, None)
            below, limit_hit = column.lower, column.limit_hit
        step, stopped = ipsolve.phi_step(n, R, node_limit)
        lowers.append((below + step, "lp" if stopped else "mono"))
        limit_hit = limit_hit or stopped
    # the greatest lower and least upper value; on a tie, the tag that comes first in its order
    lower, ltag = max(lowers, key=lambda c: (c[0], -LOWER_TAG_ORDER.index(c[1])))
    upper, utag = min(uppers, key=lambda c: (c[0], UPPER_TAG_ORDER.index(c[1])))
    return BoundRecord(n, R, lower, upper, ltag, utag, limit_hit)


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
    Never loosens a bound; raises ValueError, from BoundRecord, on lower > upper.
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
        # u(n1, r1) * u(n - n1, R - r1) is symmetric, so n1 <= n - n1 finds every product
        for n1 in range(1, n // 2 + 1):
            for r1 in range(R + 1):
                u1 = _virtual(out, n1, r1, "upper")
                u2 = _virtual(out, n - n1, R - r1, "upper")
                if u1 is not None and u2 is not None and u1 * u2 < upper:
                    upper, utag = u1 * u2, "s"
        if lower != rec.lower or upper != rec.upper:
            out[key] = replace(rec, lower=lower, upper=upper, lower_tag=ltag, upper_tag=utag)
    return out
