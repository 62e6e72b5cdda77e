"""Exact solvers for the level-profile covering programs of K+(n, R).

For any code that downward R-covers Q_n, the level counts a_l must satisfy

    sum_{j=0..R, l+j<=n}  C(l+j, j) * a_{l+j}  >=  C(n, l)      for 0 <= l <= n

because a codeword at level l+j covers at most C(l+j, j) vertices of level l.
The rows and their demand C(n, l) are fixed by (n, R); only the cost vector
varies.  `solve(n, R, costs)` minimizes sum costs_l * a_l over nonnegative
integers by a memoized DP over levels n down to 0: `ip_plus` uses costs 1 and
lower-bounds K+(n, R), `ip_phi` uses costs n - l and lower-bounds the total
zero count phi(n, R).  A state is the residual demand of the R rows that a_l
and the levels below can still pay, packed into one int with a field of
n + 1 bits per row; every residual demand stays at most C(n, t) < 2^n, so
the values tried for a_l stay at most C(n, l).  Each row below level l is
paid off at its own point t_j, and between two such points a child window is
one subtraction away from the last.

`lp_prices` gives optimal dual prices of the LP relaxation in closed form,
a back-substitution in integers checked for feasibility.  They bound the
exact search, priced over the uncovered vertices of each level, and
`ip_phi_lp` sums them into the ceiling of the LP optimum, a lower bound on
phi(n, R), and `ip_phi_upper` the zero count of one feasible profile.
`phi_step` takes one difference-chain step, ceil(phi / n), from those two
where their ceilings meet and from `ip_phi` only where they do not.  Each
caller steps from a K+(n-1, R) bound it proved itself, so the module
keeps no state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cube import binomial

DEFAULT_NODE_CAP = 10**8
MAX_IP_DIMENSION = 40


class BudgetExceededError(RuntimeError):
    """The node budget ran out before the search finished."""


@dataclass(frozen=True)
class IPSolution:
    value: int
    node_count: int


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def lp_prices(n: int, R: int, costs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Optimal dual prices of the program's LP relaxation on its full demand, as (p, D).

    Maximizes sum C(n, t) * y_t subject to sum_{j<=R} C(m, j) * y_{m-j} <= cost_m
    for every variable a_m and y >= 0, and returns y_t = p_t / D in lowest
    terms.  Constraints n down to R are made tight from the top: y_n = cost_n,
    y_{n-1} = ... = y_{n-R} = 0, and constraint m fixes y_{m-R}, with D grown
    by C(m, R) / gcd when a step needs a smaller unit.  The profile a_n = 1,
    a_m = 0 for m < R, rows 0..n-R-1 tight, is their primal partner for any
    costs, so feasible prices are optimal by complementary slackness; the
    tests certify the pair for both objectives at every n <= 40.  Prices
    that are negative or break a constraint m < R raise ValueError, as only
    feasible prices bound the program (weak duality).
    """
    if len(costs) != n + 1 or not 0 <= R <= n:
        raise ValueError(f"need n + 1 = {n + 1} costs and 0 <= R <= n, got R={R}, {costs!r}")
    p = [0] * (n + 1)
    p[n], D = costs[n], 1
    for m in range(n - 1, R - 1, -1):
        c = binomial(m, R)
        rest = costs[m] * D - sum(binomial(m, j) * p[m - j] for j in range(R))
        f = c // math.gcd(rest, c)
        if f > 1:
            p = [x * f for x in p]
            D *= f
        p[m - R] = rest * f // c
    g = math.gcd(D, *p)
    p = [x // g for x in p]
    D //= g
    if min(p) < 0 or any(
        sum(binomial(m, j) * p[m - j] for j in range(m + 1)) > costs[m] * D for m in range(R)
    ):
        raise ValueError(f"the closed-form prices are infeasible for costs {costs!r}")
    return tuple(p), D


def solve(n: int, R: int, costs: tuple[int, ...], node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Minimize sum costs_l * a_l over the program for K+(n, R), for n + 1
    nonnegative integer costs: a memoized DP over levels n down to 0.

    A state at level l is its window: the residual demands of rows
    l..l-R+1 in one int, row l - i in the (n + 1)-bit field at i * (n + 1).
    Each state tries every a_l = v from row l's residual up to `needed`, the
    value that pays all R rows below it, and keeps the cheapest; every value
    tried counts as one node.  Row l - j, with residual r_j, is paid off from
    its pay-off point t_j = ceil(r_j / C(l, j)) on, and below t_j its
    residual r_j - C(l, j) * v stays positive.  So between two pay-off
    points the child window is rest - v * paid, where rest packs the
    residuals and paid the per-word payments of the rows still unpaid, and
    no field borrows from the next.  The last value, needed = max(row l's
    residual, t_j), leaves the empty window.  One dict per level memoizes
    each window's optimum, and a child is looked up there before any call.
    """
    _check_params(n, R)
    if len(costs) != n + 1 or not all(isinstance(c, int) and c >= 0 for c in costs):
        raise ValueError(f"need n + 1 = {n + 1} nonnegative integer costs, got {costs!r}")
    F = n + 1
    mask = (1 << F) - 1
    demand = [binomial(n, t) for t in range(n + 1)]
    # row l - R's demand enters the last field of level l's child window;
    # a row below level 0 has none
    fresh = [demand[l - R] << F * (R - 1) if l >= R else 0 for l in range(n + 1)]
    # pays[l]: (shift, C(l, j), C(l, j) << shift) for the rows l - j >= 0 that
    # one word at level l pays, at row l - j's field of the child window
    pays = [
        [(F * (j - 1), binomial(l, j), binomial(l, j) << F * (j - 1)) for j in range(1, min(R, l) + 1)]
        for l in range(n + 1)
    ]
    # memo[l] maps a window at level l to its optimum; memo[-1] is below
    # level 0, where the only window is empty and costs nothing
    memo: list[dict[int, int]] = [{} for _ in range(n + 2)]
    memo[-1][0] = 0
    nodes = 0

    def rec(l: int, window: int) -> int:
        nonlocal nodes
        # residuals of rows l-1..l-R before a_l pays C(l, j) * a_l to row l-j
        below = window >> F | fresh[l]
        v = lo = window & mask
        cost_l = costs[l]
        lookup = memo[l - 1].get
        rest = paid = 0
        stops = []
        for shift, c, c_field in pays[l]:
            r = below >> shift & mask
            if r > c * lo:  # row l - j is still unpaid at v = lo
                r_field = r << shift
                stops.append((-(-r // c), r_field, c_field))
                rest += r_field
                paid += c_field
        stops.sort()
        best = -1
        for t, r_field, c_field in stops:
            if t > v:
                nodes += t - v  # one node per value of the run, counted before it
                if nodes > node_cap:
                    raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
                child = rest - v * paid
                for v in range(v, t):
                    sub = lookup(child)
                    if sub is None:
                        sub = rec(l - 1, child)
                    total = cost_l * v + sub
                    if best < 0 or total < best:
                        best = total
                    child -= paid
                v = t
            rest -= r_field
            paid -= c_field
        # the last value, needed = max(lo, t_j), pays every row, so its child
        # owes nothing; needed <= C(n, l), as each residual is at most C(n, t)
        # and C(n, l-j) <= C(n, l) * C(l, j)
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
        sub = lookup(0)
        if sub is None:
            sub = rec(l - 1, 0)
        total = cost_l * v + sub
        if best < 0 or total < best:
            best = total
        memo[l][window] = best
        return best

    window = sum(demand[n - i] << F * i for i in range(R))  # R <= n
    try:
        return IPSolution(rec(n, window), nodes)
    finally:
        # rec reaches itself through its closure cell; emptying the cell breaks
        # that cycle, so the memo is freed now rather than by the cyclic collector
        del rec


def _check_params(n: int, R: int) -> None:
    if not 1 <= R <= n <= MAX_IP_DIMENSION:
        raise ValueError(f"need 1 <= R <= n <= {MAX_IP_DIMENSION}, got n={n}, R={R}")


def ip_plus(n: int, R: int) -> IPSolution:
    """Exact minimum of sum a_l: the level-profile lower bound on K+(n, R)."""
    return solve(n, R, (1,) * (n + 1))


def ip_phi(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Exact minimum of sum (n-l) a_l: the lower bound on phi(n, R)."""
    return solve(n, R, tuple(n - l for l in range(n + 1)), node_cap)


def ip_phi_lp(n: int, R: int) -> int:
    """Ceiling of the LP relaxation's optimum of ip_phi, a lower bound on phi(n, R)
    that needs no search: sum_t C(n, t) * p_t / D at the optimal dual prices."""
    _check_params(n, R)
    p, D = lp_prices(n, R, tuple(n - l for l in range(n + 1)))
    return _ceildiv(sum(binomial(n, t) * x for t, x in enumerate(p)), D)


def ip_phi_upper(n: int, R: int) -> int:
    """Zero count of a feasible integer profile, an upper bound on ip_phi's
    optimum that needs no search.  a_n = 1 pays rows n - R..n; then each row
    t < n - R, bottom up, takes the fewest words at level t + R that its
    residual needs, and a_m = 0 for m < R.  A profile that fails a row
    raises ValueError, as only a feasible one bounds the program."""
    _check_params(n, R)
    a = [0] * (n + 1)
    a[n] = 1
    for t in range(n - R):
        rest = binomial(n, t) - sum(binomial(t + j, j) * a[t + j] for j in range(R))
        a[t + R] = max(0, _ceildiv(rest, binomial(t + R, R)))
    if any(
        sum(binomial(l + j, j) * a[l + j] for j in range(min(R, n - l) + 1)) < binomial(n, l)
        for l in range(n + 1)
    ):
        raise ValueError(f"the bottom-up profile is infeasible at n={n}, R={R}")
    return sum((n - l) * x for l, x in enumerate(a))


def phi_step(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP) -> tuple[int, bool]:
    """One difference-chain step, (step, stopped): a lower bound on
    K+(n-1, R) plus `step` is one on K+(n, R).  The step is ceil(phi / n)
    for ip_phi's optimum phi, which is at most the largest zero count of a
    minimum code: deleting a coordinate loses at most one word per zero,
    averaged over the n coordinates.  Where the ceilings of ip_phi_lp and
    ip_phi_upper meet, that is the step; elsewhere ip_phi runs under
    `node_cap`, past which the step is the LP's and `stopped` is True."""
    low = _ceildiv(ip_phi_lp(n, R), n)
    if _ceildiv(ip_phi_upper(n, R), n) == low:
        return low, False
    try:
        return _ceildiv(ip_phi(n, R, node_cap).value, n), False
    except BudgetExceededError:
        return low, True
