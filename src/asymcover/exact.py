"""Exact K+(n,R) by branch-and-bound set cover over downward balls.

The universe of Q_n vertices is one big bitmask; candidate centers for an
uncovered vertex y are the supersets of y within R extra ones.  Search is
iterative deepening on the code size with a transposition table of proven
infeasibility depths, a lower bound per state from the size program's LP
dual prices (certified in integers) on its uncovered levels, and dominance
filtering among branch candidates.  Budgets never produce a wrong exact
claim: exhausting them yields a bracket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import ipsolve
from .constructions import greedy_code
from .cube import Code, all_ones, ball_down, vertex_set, weight

EXACT_MAX_N = 7
TT_CAP = 5_000_000
_TIME_CHECK_MASK = 0xFFF


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search: a proven value or an honest bracket."""

    n: int
    R: int
    status: str  # "exact" | "bracket"
    value: int | None
    bracket: tuple[int, int] | None
    witness: Code
    nodes: int
    elapsed: float


class _BudgetHit(Exception):
    pass


def exact_kplus(
    n: int,
    R: int,
    time_limit: float | None = 600.0,
    node_limit: int | None = None,
    on_progress=None,
) -> ExactResult:
    """Minimum number of downward R-balls covering Q_n, with witness.

    Accepts R = 0 (the answer is 2^n, every vertex covering only itself).
    Iterative deepening proves minimality: a value v is exact only after
    every budget below v has been exhausted.  `on_progress`, when given, is
    called with (proven_lower, incumbent_size, nodes) after each exhausted
    size budget.
    """
    if not 0 <= R <= n:
        raise ValueError("need 0 <= R <= n")
    if n < 1 or n > EXACT_MAX_N:
        raise ValueError(f"exact search supports 1 <= n <= {EXACT_MAX_N}")
    start = time.monotonic()
    deadline = start + time_limit if time_limit is not None else None

    size = 1 << n
    top = all_ones(n)
    if R == 0 or R >= n:
        witness = Code.from_words(n, range(size) if R == 0 else [top], r=R)
        elapsed = time.monotonic() - start
        return ExactResult(n, R, "exact", len(witness), None, witness, 0, elapsed)

    incumbent = greedy_code(n, R)
    best = len(incumbent)
    # by weak duality ip_plus already dominates the sphere bound
    proven_lower = max(ipsolve.ip_plus_value(n, R), ipsolve.diff_chain_lower(n, R))

    ball_mask = [vertex_set(n, ball_down(c, R, n)) for c in range(size)]
    # the centers that can cover y, ascending: the mirror image of a ball
    candidates_of = [
        [top ^ x for x in reversed(ball_down(top ^ y, R, n))] for y in range(size)
    ]
    level_mask = [0] * (n + 1)
    for v in range(size):
        level_mask[weight(v)] |= 1 << v
    # the size program's LP dual prices: any extra centers covering u_l
    # vertices per level cost at least ceil(sum u_l * p_l / D), by weak duality
    price, D = ipsolve.lp_prices(ipsolve.CoveringIP.size_objective(n, R))

    universe = (1 << size) - 1
    root = universe & ~ball_mask[top]  # the top word is forced into every cover
    tt: dict[int, int] = {}
    nodes = 0

    def state_lb(u: int) -> int:
        total = 0
        for l in range(n + 1):
            cnt = (u & level_mask[l]).bit_count()
            if cnt:
                total += cnt * price[l]
        return -(-total // D)

    def dfs(u: int, budget: int) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if nodes & _TIME_CHECK_MASK == 0:
            if deadline is not None and time.monotonic() > deadline:
                raise _BudgetHit
            if node_limit is not None and nodes > node_limit:
                raise _BudgetHit
        if u == 0:
            return []
        if budget == 0:
            return None
        lb = tt.get(u)
        if lb is None:
            lb = state_lb(u)
        if lb > budget:
            return None
        for l in range(n - 1, -1, -1):
            at_level = u & level_mask[l]
            if at_level:
                y = (at_level & -at_level).bit_length() - 1
                break
        cands = []
        for c in candidates_of[y]:
            rem = ball_mask[c] & u
            if rem:
                cands.append((c, rem))
        kept = []
        for i, (c, rem) in enumerate(cands):
            dominated = False
            for j, (c2, rem2) in enumerate(cands):
                if i == j or rem & ~rem2:
                    continue
                if rem != rem2 or c2 < c:
                    dominated = True
                    break
            if not dominated:
                kept.append((c, rem))
        kept.sort(key=lambda cr: (-cr[1].bit_count(), cr[0]))
        for c, _ in kept:
            sol = dfs(u & ~ball_mask[c], budget - 1)
            if sol is not None:
                return [c] + sol
        if len(tt) < TT_CAP:
            prev = tt.get(u, 0)
            if budget + 1 > prev:
                tt[u] = budget + 1
        return None

    status = "exact"
    try:
        target = proven_lower
        while target < best:
            sol = dfs(root, target - 1)
            if sol is not None:
                incumbent = Code.from_words(n, [top] + sol, r=R)
                best = target
                break
            proven_lower = target + 1
            target += 1
            if on_progress is not None:
                on_progress(proven_lower, best, nodes)
    except _BudgetHit:
        status = "bracket"

    elapsed = time.monotonic() - start
    if status == "exact" or proven_lower == best:
        return ExactResult(n, R, "exact", best, None, incumbent, nodes, elapsed)
    return ExactResult(
        n, R, "bracket", None, (proven_lower, best), incumbent, nodes, elapsed
    )
