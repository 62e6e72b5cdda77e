"""Exact K+(n,R) by branch-and-bound set cover over downward balls.

The universe of Q_n vertices is one big bitmask; candidate centers for an
uncovered vertex y are the supersets of y within R extra ones.  Search is
iterative deepening on the code size with a transposition table (TT) of
proven infeasibility depths and a lower bound per state from the size
program's optimal LP dual prices, exact integers over one denominator D:
a state whose uncovered set u has |u ∩ level_l| vertices on level l needs
at least ceil(sum_l price_l |u ∩ level_l| / D) more words.  Each node
carries that priced total down the tree, and a child's total is its
parent's less the priced vertices its new ball covers, which lie on the
R + 1 levels of the ball alone, so no node recounts u.  Each node branches on the centers that
cover one vertex of its top uncovered level, largest gain first, and makes
each child's checks in its own loop: the node count and the limit check,
an empty u (a cover), an exhausted size budget, and the cut by the TT entry
or the bound.  Only a child that passes them is searched by a call.  Each
size tried starts at the whole cube, whose one candidate is the all-ones
word, so the root (the cube less its ball) is the cube's only child and
passes the same checks as any other; the TT also keeps the whole cube.
Budgets never produce a wrong exact claim: exhausting them yields a
bracket.

Coordinate permutations map downward covers to downward covers.  Each node
carries the partition of the coordinates into cells that every chosen word
respects: one cell at the root, where only the all-ones word is chosen,
refined by each new word, so permuting coordinates inside the cells fixes
the uncovered set.  Such a permutation that also fixes the branching vertex
y maps a candidate c onto every candidate with the same counts |c & cell|
(each candidate contains y, so equal counts over the cells are equal counts
over the cells split by y), and only the first candidate of each count key
is tried: orbital branching over this Young subgroup (Ostrowski, Linderoth,
Rossi and Smriglio, Math. Programming 126, 2011).  A skipped candidate is
the image of an earlier one that failed, so it fails too.  The search thus
returns the same witness as without the skipping, and the transposition
table stays sound, as infeasibility depends on the uncovered set alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import ipsolve
from .constructions import greedy_code
from .cube import Code, all_ones, ball_down, full_set, subset_tables, weight

EXACT_MAX_N = 8
# at n = 8 a key is a 256-bit int of about 60 bytes, so a full table takes
# roughly 0.5 GB; a 60 s search at (8,3) peaks at about 430 MB
TT_CAP = 5_000_000
DEFAULT_TIME_LIMIT = 600.0  # seconds for the whole search
LIMIT_CHECK_NODES = 4096  # the time and node limits are checked this often


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search: the proven bracket lower..upper.

    The witness covers with `upper` words; the value is settled, status
    "exact", when lower == upper, and a search stopped by its limits leaves
    status "bracket".
    """

    n: int
    R: int
    lower: int
    upper: int
    witness: Code
    nodes: int
    elapsed: float

    @property
    def status(self) -> str:
        return "exact" if self.lower == self.upper else "bracket"


class _BudgetHit(Exception):
    pass


def _orbit_key(c: int, cells: tuple[int, ...]) -> tuple[int, ...]:
    """The counts |c & cell| over the cells.  Two candidates that contain the
    branching vertex y have equal keys exactly when a permutation inside the
    cells that fixes y maps one onto the other."""
    return tuple((c & cell).bit_count() for cell in cells)


def exact_kplus(
    n: int,
    R: int,
    time_limit: float | None = DEFAULT_TIME_LIMIT,
    node_limit: int | None = None,
    on_progress=None,
) -> ExactResult:
    """Minimum number of downward R-balls covering Q_n, with witness.

    Accepts R = 0 (the answer is 2^n, every vertex covering only itself).
    Iterative deepening proves minimality: a value v is exact only after
    every budget below v has been exhausted.  `on_progress`, when given, is
    called with (proven_lower, incumbent_size, nodes) after each exhausted
    size budget.  A time or node limit, checked every LIMIT_CHECK_NODES
    nodes, stops the search with the bracket proven so far.
    """
    if not 0 <= R <= n:
        raise ValueError("need 0 <= R <= n")
    if n < 1 or n > EXACT_MAX_N:
        raise ValueError(f"exact search supports 1 <= n <= {EXACT_MAX_N}")
    if time_limit is not None and time_limit <= 0:
        raise ValueError("time_limit must be positive")
    if node_limit is not None and node_limit <= 0:
        raise ValueError("node_limit must be positive")
    start = time.monotonic()
    deadline = start + time_limit if time_limit is not None else None

    size = 1 << n
    top = all_ones(n)
    if R == 0:
        witness = Code.from_words(n, range(size), r=R)
        return ExactResult(n, R, size, size, witness, 0, time.monotonic() - start)

    incumbent = greedy_code(n, R)
    best = len(incumbent)
    # the zero-count chain is at or above ip_plus at every n <= 12, so the max
    # is the chain; ip_plus stays only because the benchmark's trace test
    # expects a size-program solve under every search (ROADMAP item 10)
    proven_lower = max(ipsolve.ip_plus(n, R).value, ipsolve.diff_chain_lower(n, R))

    down, at_least = subset_tables(n)
    ball_mask = [down[c] & at_least[max(0, weight(c) - R)] for c in range(size)]
    # the centers that can cover y, ascending: the mirror image of a ball
    candidates_of = [
        [top ^ x for x in reversed(ball_down(top ^ y, R, n))] for y in range(size)
    ]
    level_mask = [at_least[l] ^ at_least[l + 1] for l in range(n + 1)]
    # the size program's LP dual prices: any extra centers covering u_l
    # vertices per level cost at least ceil(sum u_l * p_l / D), by weak duality
    price, D = ipsolve.lp_prices(n, R, (1,) * (n + 1))

    # per center, its ball on each level of nonzero price: a child's priced
    # total is its parent's less what the new ball covers on those levels
    priced_ball = [
        [(ball_mask[c] & level_mask[l], price[l])
         for l in range(max(0, weight(c) - R), weight(c) + 1) if price[l]]
        for c in range(size)
    ]

    cube = full_set(n)
    cube_total = sum(p * m.bit_count() for m, p in zip(level_mask, price))
    tt: dict[int, int] = {}
    nodes = 0

    def check_limits() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetHit
        if node_limit is not None and nodes > node_limit:
            raise _BudgetHit

    def dfs(u: int, budget: int, cells: tuple[int, ...], total: int) -> list[int] | None:
        # the caller has counted this node (the whole cube is not counted) and
        # admitted it: u != 0, budget > 0, and its TT entry, or ceil(total / D)
        # without one, is at most budget
        nonlocal nodes
        for l in range(n, -1, -1):
            at_level = u & level_mask[l]
            if at_level:
                y = (at_level & -at_level).bit_length() - 1
                break
        # one candidate per count key over the cells (see the module
        # docstring); singleton cells leave nothing to permute
        seen = set()
        split = len(cells) < n
        # largest gain first; the sort is stable, so ties keep ascending center order
        for c in sorted(candidates_of[y], key=lambda c: -(ball_mask[c] & u).bit_count()):
            if split:
                key = _orbit_key(c, cells)
                if key in seen:
                    continue
                seen.add(key)
            # the child's own checks, made here so that a cut child costs no call
            v = u & ~ball_mask[c]
            nodes += 1
            if nodes % LIMIT_CHECK_NODES == 0:
                check_limits()
            if v == 0:
                return [c]
            if budget == 1:
                continue
            child_total = total
            for m, p in priced_ball[c]:
                child_total -= p * (u & m).bit_count()
            lb = tt.get(v)
            if lb is None:
                lb = -(-child_total // D)
            if lb >= budget:  # over the child's budget - 1
                continue
            child = cells
            if split:
                child = tuple(part for cell in cells for part in (cell & c, cell & ~c) if part)
            sol = dfs(v, budget - 1, child, child_total)
            if sol is not None:
                return [c] + sol
        # tt.get(u, 0) <= budget here, or the parent would have cut u;
        # and u cannot recur below itself, as every child covers more
        if len(tt) < TT_CAP:
            tt[u] = budget + 1
        return None

    try:
        # no cover smaller than proven_lower exists; a cover of that size settles the value
        while proven_lower < best:
            sol = dfs(cube, proven_lower, (top,), cube_total)
            if sol is not None:
                incumbent = Code.from_words(n, sol, r=R)
                best = proven_lower
                break
            proven_lower += 1
            if on_progress is not None:
                on_progress(proven_lower, best, nodes)
    except _BudgetHit:
        pass
    elapsed = time.monotonic() - start
    return ExactResult(n, R, proven_lower, best, incumbent, nodes, elapsed)
