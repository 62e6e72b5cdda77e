"""Exact K+(n,R) by branch-and-bound set cover over downward balls.

The universe of Q_n vertices is one big bitmask; candidate centers for an
uncovered vertex y are the supersets of y within R extra ones.  Search is
iterative deepening on the code size with a transposition table (TT) of
proven infeasibility depths and a lower bound per state from the size
program's optimal LP dual prices, exact integers over one denominator D: a
state whose uncovered set u has |u ∩ level_l| vertices on level l needs at
least ceil(sum_l price_l |u ∩ level_l| / D) more words.  Each node carries
that priced total down the tree, and a child's total is its parent's less
the priced vertices its new ball covers, which lie on the R + 1 levels of
the ball alone, so no node recounts u.  Each node branches on the centers
that cover one vertex of its top uncovered level, found by scanning down
from its parent's, as a child's uncovered set lies inside its parent's;
a center's ball on the priced levels is built when one of its children
first reaches the priced sum.  A node tries its centers largest gain
first (one sort on the packed key (2^n - gain) << n | c, which also carries
the gain), and makes each child's checks in its own loop: the node limit,
checked before the child is counted; a gain equal to |u| (a cover); an exhausted
size budget; a pre-cut by one multiply, as the priced gain is at most the
gain times the largest price on the ball's levels; the priced total itself;
and only then a TT probe, on the uncovered set built for a child that the
price leaves open.  The price may go first, as a TT entry is stored one
above a budget that its state was admitted under, so it always exceeds that
state's priced bound: a child the price cuts the TT would cut too, and the
cuts are those of "TT entry, else price".  Only a child that passes them is
searched by a call.  Each size tried starts at the whole cube, whose one
candidate is the all-ones word, so the root (the cube less its ball) is
the cube's only child and passes the same checks as any other; the TT also
keeps the whole cube.  The search stops on its node count alone, never on
the clock, so a result does not change with host speed, and a stopped
search has visited exactly its limit of nodes.  Stopping never makes a
wrong exact claim: it yields the bracket proven so far.  The first size
tried is one difference-chain step above the lower bound on K+(n-1, R)
that a search of (n-1, R) proves under the same limit; where greedy's code
already meets it, nothing is searched and no table is built.

This module is the prover behind the `exact` command and the stored proofs
of `bounds.EXACT_ANCHORS`, which the tests re-prove with it; `bound` and
`table` never search.

Coordinate permutations map downward covers to downward covers.  Each node
carries the partition of the coordinates into cells that every chosen word
respects: one cell at the root, where only the all-ones word is chosen,
refined by each new word, so permuting coordinates inside the cells fixes
the uncovered set.  Such a permutation that also fixes the branching vertex
y maps a candidate c onto every candidate with the same counts |c & cell|
(each candidate contains y, so equal counts over the cells are equal counts
over the cells split by y), and as it fixes u the two have one gain.  A node
keeps the least candidate of each key, which its sort would reach first, and
drops the rest before sorting: orbital branching over this Young subgroup
(Ostrowski, Linderoth, Rossi and Smriglio, Math. Programming 126, 2011).  A
dropped candidate is the image of a kept one that failed, so it fails too,
and the witness is as without the dropping; the transposition table stays
sound, as infeasibility depends on the uncovered set alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ipsolve
from .constructions import greedy_code
from .cube import Code, DimensionCapError, all_ones, ball_down, ball_sets, full_set, subset_tables

EXACT_MAX_N = 8
# at n = 8 a key is a 256-bit int of about 60 bytes, so a full table takes
# roughly 0.5 GB; the default 10^8 nodes at (8,3) peak at about 480 MB
TT_CAP = 5_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search: the proven bracket lower..upper.

    The witness covers with `upper` words; the value is settled, status
    "exact", when lower == upper, and a search stopped by its node limit
    leaves status "bracket".  It holds no time, so equal arguments give
    equal results.
    """

    n: int
    R: int
    lower: int
    upper: int
    witness: Code
    nodes: int

    @property
    def status(self) -> str:
        return "exact" if self.lower == self.upper else "bracket"


def _orbit_key(c: int, cells: tuple[int, ...]) -> tuple[int, ...]:
    """The counts |c & cell| over the cells.  Two candidates that contain the
    branching vertex y have equal keys exactly when a permutation inside the
    cells that fixes y maps one onto the other."""
    return tuple([(c & cell).bit_count() for cell in cells])


def exact_kplus(
    n: int,
    R: int,
    node_limit: int = ipsolve.DEFAULT_NODE_CAP,
    on_progress=None,
) -> ExactResult:
    """Minimum number of downward R-balls covering Q_n, with witness.

    Accepts R = 0 (the answer is 2^n, every vertex covering only itself).
    Iterative deepening proves minimality: a value v is exact only after
    every budget below v has been exhausted.  It starts one difference-chain
    step above the bound that it first proves by searching (n-1, R), and so
    on down the column.  `on_progress`, when given, is called with
    (proven_lower, incumbent_size, nodes) after each exhausted size budget.
    The node limit, checked at every node and shared with the column's
    searches, stops the search with the bracket proven so far.
    """
    if not 0 <= R <= n:
        raise ValueError("need 0 <= R <= n")
    if n < 1 or n > EXACT_MAX_N:
        raise DimensionCapError(f"exact search supports 1 <= n <= {EXACT_MAX_N}")
    if node_limit <= 0:
        raise ValueError("node_limit must be positive")
    return _search(n, R, node_limit, on_progress)


def _search(n: int, R: int, node_limit: int, on_progress) -> ExactResult:
    """exact_kplus on checked arguments.  The column below is searched by a
    call of this helper, so each request enters exact_kplus once."""
    size = 1 << n
    top = all_ones(n)
    if R == 0:
        witness = Code.from_words(n, range(size), r=R)
        return ExactResult(n, R, size, size, witness, 0)

    below, nodes = 1, 0  # K+(R, R) = 1
    if R < n - 1:
        column = _search(n - 1, R, node_limit, None)
        below, nodes = column.lower, column.nodes
    incumbent = greedy_code(n, R)
    best = len(incumbent)
    # the zero-count chain is at or above ip_plus at every n <= 12
    proven_lower = below + ipsolve.phi_step(n, R)[0]
    if proven_lower >= best:
        # greedy meets the chain: nothing to search, so no tables to build
        return ExactResult(n, R, proven_lower, best, incumbent, nodes)

    ball_mask = ball_sets(n, R)
    at_least = subset_tables(n)[1]
    # per branching vertex y, the centers that can cover it, ascending: the
    # mirror image of a ball, built when y first branches
    candidates_of: list[list[int] | None] = [None] * size
    level_mask = [at_least[l] ^ at_least[l + 1] for l in range(n + 1)]
    # the size program's LP dual prices: any extra centers covering u_l
    # vertices per level cost at least ceil(sum u_l * p_l / D), by weak duality
    price, D = ipsolve.lp_prices(n, R, (1,) * (n + 1))
    # per center, its ball on each level of nonzero price, built when one of
    # its children first reaches the priced sum: a child's priced total is its
    # parent's less what the new ball covers on those levels
    priced_of: list[list[tuple[int, int]] | None] = [None] * size
    # the largest price on a ball's levels, w - R..w for a center of weight w:
    # a priced gain is at most it times the gain; taken once per weight and
    # spread over the centers, so the child loop reads it with one index
    pmax_of_weight = [max(price[max(0, w - R):w + 1]) for w in range(n + 1)]
    pmax = [pmax_of_weight[c.bit_count()] for c in range(size)]

    cube = full_set(n)
    cube_total = sum(p * m.bit_count() for m, p in zip(level_mask, price))
    tt: dict[int, int] = {}

    def dfs(u: int, budget: int, cells: tuple[int, ...], total: int, l: int) -> list[int] | None:
        # the caller has counted this node (the whole cube is not counted) and
        # admitted it: u != 0, budget > 0, and ceil(total / D) and its TT
        # entry, if any, are at most budget; no vertex of u lies above level
        # l, the parent's top uncovered level, as u is a subset of its parent's
        nonlocal nodes
        at_level = u & level_mask[l]
        while not at_level:
            l -= 1
            at_level = u & level_mask[l]
        y = (at_level & -at_level).bit_length() - 1
        candidates = candidates_of[y]
        if candidates is None:
            candidates = [top ^ x for x in reversed(ball_down(top ^ y, R, n))]
            candidates_of[y] = candidates
        left = u.bit_count()
        # a child fits its budget - 1 words while its priced total is at most this
        room = D * (budget - 1)
        # one candidate per orbit (module docstring); singleton cells leave none to drop
        split = len(cells) < n
        if split:
            candidates = {_orbit_key(c, cells): c for c in reversed(candidates)}.values()
        # largest gain first, ties by ascending center
        for packed in sorted([(size - (ball_mask[c] & u).bit_count()) << n | c for c in candidates]):
            c = packed & top
            # the child's own checks, made here so that a cut child costs no call
            if nodes >= node_limit:
                raise ipsolve.BudgetExceededError(f"exact node limit {node_limit} exceeded")
            nodes += 1
            gain = size - (packed >> n)
            if gain == left:
                return [c]
            if budget == 1 or total - pmax[c] * gain > room:
                continue
            levels = priced_of[c]
            if levels is None:
                w = c.bit_count()
                levels = [(ball_mask[c] & level_mask[k], price[k])
                          for k in range(max(0, w - R), w + 1) if price[k]]
                priced_of[c] = levels
            child_total = total
            for m, p in levels:
                child_total -= p * (u & m).bit_count()
            if child_total > room:
                continue
            v = u & ~ball_mask[c]
            if tt.get(v, 0) >= budget:  # over the child's budget - 1
                continue
            child = cells
            if split:
                child = tuple(part for cell in cells for part in (cell & c, cell & ~c) if part)
            sol = dfs(v, budget - 1, child, child_total, l)
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
            sol = dfs(cube, proven_lower, (top,), cube_total, n)
            if sol is not None:
                incumbent = Code.from_words(n, sol, r=R)
                best = proven_lower
                break
            proven_lower += 1
            if on_progress is not None:
                on_progress(proven_lower, best, nodes)
    except ipsolve.BudgetExceededError:
        pass
    finally:
        # dfs reaches itself through its closure cell: free its tables now, not at a collection
        del dfs
    return ExactResult(n, R, proven_lower, best, incumbent, nodes)
