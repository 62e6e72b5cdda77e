"""Exact solvers for the level-profile covering programs of K+(n, R).

For any code that downward R-covers Q_n, the level counts a_l must satisfy

    sum_{j=0..R, l+j<=n}  C(l+j, j) * a_{l+j}  >=  C(n, l)      for 0 <= l <= n

because a codeword at level l+j covers at most C(l+j, j) vertices of level l.
The rows and their demand C(n, l) are fixed by (n, R); only the cost vector
varies.  `solve(n, R, costs)` minimizes sum costs_l * a_l over nonnegative
integers by a memoized DP over residual windows: `ip_plus` uses costs 1 and
lower-bounds K+(n, R), `ip_phi` uses costs n - l and lower-bounds the total
zero count phi(n, R).  Every residual demand stays at most C(n, t), so an
optimal profile has a_l <= C(n, l).

`lp_prices` gives the LP-optimal dual prices kept as integers over a common
denominator; they bound only the exact search, priced over the uncovered
vertices of each level.  The difference chain built from the zero-count
program lives here too.  Only phi's value is memoized, by `ip_phi_value`:
the chain to K+(n, R) reads phi(k, R) for every k <= n, so a table's cells
share those solves.  `ip_plus` is not: `best_bounds` and exact search each
solve it once per cell, and a solve answered from an earlier caller's
memo would be missing from a trace of the later one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cube import binomial

DEFAULT_NODE_CAP = 10**8
MAX_IP_DIMENSION = 40


class BudgetExceededError(RuntimeError):
    """The node budget ran out before the search finished."""


@dataclass(frozen=True)
class IPSolution:
    value: int
    profile: tuple[int, ...]
    node_count: int


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def _simplex_max(c: list[float], A: list[list[float]], b: list[float]) -> list[float]:
    """Maximize c.y subject to A y <= b, y >= 0, for b >= 0 and a bounded
    program: a dense tableau started from the slack basis, pivoting by
    Bland's rule so that degenerate vertices cannot cycle."""
    rows, cols = len(A), len(c)
    width = cols + rows
    tab = [A[i] + [1.0 if k == i else 0.0 for k in range(rows)] + [b[i]] for i in range(rows)]
    z = [-x for x in c] + [0.0] * (rows + 1)
    basis = [cols + i for i in range(rows)]
    eps = 1e-12 * max(map(abs, c), default=1.0)
    for _ in range(50 * width):  # Bland's rule terminates; this only caps float noise
        enter = next((k for k in range(width) if z[k] < -eps), None)
        if enter is None:
            break
        leave, best = -1, math.inf
        for i in range(rows):
            a = tab[i][enter]
            if a > 1e-12:
                ratio = tab[i][-1] / a
                if ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            raise ValueError("unbounded program")
        pivot = tab[leave]
        inv = 1.0 / pivot[enter]
        pivot[:] = [x * inv for x in pivot]
        for row in [*tab, z]:
            f = row[enter]
            if row is not pivot and f:
                row[:] = [x - f * p for x, p in zip(row, pivot)]
        basis[leave] = enter
    y = [0.0] * cols
    for i, var in enumerate(basis):
        if var < cols:
            y[var] = tab[i][-1]
    return y


def lp_prices(n: int, R: int, costs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Optimal dual prices of the program's LP relaxation on its full demand, as (p, D).

    Maximizes sum C(n, t) * y_t subject to sum_{j<=R} C(m,j) * y_{m-j} <= cost_m
    for every variable a_m and y >= 0 in floats, then repairs the result in
    integers: each y_t * 2^40 is floored, the rows that a zero-cost variable
    covers are priced 0, and all prices are scaled by min_m cost_m * D / lhs_m where
    that is below 1, so every column is feasible by exact arithmetic and a
    float error can only weaken the bound.
    """
    cols = [[(m - j, binomial(m, j)) for j in range(min(R, m) + 1)] for m in range(n + 1)]
    A = [[0.0] * (n + 1) for _ in cols]
    for row, col in zip(A, cols):
        for t, coef in col:
            row[t] = float(coef)
    y = _simplex_max([float(binomial(n, t)) for t in range(n + 1)], A, [float(x) for x in costs])

    scale = 1 << 40
    p = [max(0, math.floor(v * scale)) for v in y]
    for m, col in enumerate(cols):
        if costs[m] == 0:
            for t, _ in col:
                p[t] = 0
    c, D = 1, scale  # scale factor c * scale / D, compared by cross-multiplying
    for col, cost in zip(cols, costs):
        lhs = sum(coef * p[t] for t, coef in col)
        if cost * D < c * lhs:
            c, D = cost, lhs
    p = [x * c for x in p]
    g = math.gcd(D, *p)
    return tuple(x // g for x in p), D // g


def solve(n: int, R: int, costs: tuple[int, ...], node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Minimize sum costs_l * a_l over the program for K+(n, R), for
    nonnegative integer costs: a memoized DP over levels n down to 0.

    State is the residual-demand window of the R partially paid rows.  Each
    state tries every a_l from row l's residual up to the value that pays all
    R rows below it, and keeps the cheapest, the smaller a_l on a tie; every
    value tried counts as one node.
    """
    _check_params(n, R)
    demand = [binomial(n, t) for t in range(n + 1)]
    cvar = [[binomial(l, j) for j in range(R + 1)] for l in range(n + 1)]
    memo: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    nodes = 0

    def child_window(l: int, window: tuple[int, ...], v: int) -> tuple[int, ...]:
        # residuals of rows l-1..l-R once a_l = v pays C(l, j) * v to row l-j
        child = []
        for j2 in range(R):
            t = l - 1 - j2
            if t < 0:
                child.append(0)
                continue
            src = window[j2 + 1] if j2 + 1 < R else demand[t]
            pay = cvar[l][j2 + 1] * v
            child.append(src - pay if src > pay else 0)
        return tuple(child)

    def rec(l: int, window: tuple[int, ...]) -> int:
        nonlocal nodes
        if l < 0:
            return 0
        key = (l, window)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        lo = needed = window[0]
        for j in range(1, min(R, l) + 1):
            res_t = window[j] if j < R else demand[l - R]
            if res_t:
                d = _ceildiv(res_t, cvar[l][j])
                if d > needed:
                    needed = d
        cost_l = costs[l]
        best = best_v = -1
        # needed <= C(n, l): each residual is at most C(n, t), and C(n, l-j) <= C(n, l) * C(l, j)
        for v in range(lo, needed + 1):
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
            total = cost_l * v + rec(l - 1, child_window(l, window, v))
            if best < 0 or total < best:
                best, best_v = total, v
        memo[key] = (best, best_v)
        return best

    window0 = tuple(demand[n - j] for j in range(R))  # R <= n
    value = rec(n, window0)

    profile = [0] * (n + 1)
    l, window = n, window0
    while l >= 0:
        v = memo[(l, window)][1]
        profile[l] = v
        l, window = l - 1, child_window(l, window, v)
    return IPSolution(value, tuple(profile), nodes)


def _check_params(n: int, R: int) -> None:
    if not 1 <= R <= n <= MAX_IP_DIMENSION:
        raise ValueError(f"need 1 <= R <= n <= {MAX_IP_DIMENSION}, got n={n}, R={R}")


def ip_plus(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Exact minimum of sum a_l: the level-profile lower bound on K+(n, R)."""
    return solve(n, R, (1,) * (n + 1), node_cap)


def ip_phi(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Exact minimum of sum (n-l) a_l: the lower bound on phi(n, R)."""
    return solve(n, R, tuple(n - l for l in range(n + 1)), node_cap)


@lru_cache(maxsize=None)
def ip_phi_value(n: int, R: int) -> int:
    """ip_phi(n, R).value, solved once per cell."""
    return ip_phi(n, R).value


def diff_lower(n: int, R: int, lower_prev: int, phi_lb: int) -> int:
    """Lift a K+(n-1,R) lower bound by ceil(phi_lb / n).

    Valid whenever phi_lb is at most the largest total zero count over
    minimum codes: deleting a coordinate of a minimum code loses at most
    one word per zero, averaged over the n coordinates.
    """
    if n < 1 or phi_lb < 0:
        raise ValueError("need n >= 1 and phi_lb >= 0")
    return lower_prev + _ceildiv(phi_lb, n)


def diff_chain_lower(n: int, R: int) -> int:
    """Chain diff_lower from the anchor K+(R, R) = 1 up to n."""
    if R < 1 or n < R:
        raise ValueError("need 1 <= R <= n")
    value = 1
    for k in range(R + 1, n + 1):
        value = diff_lower(k, R, value, ip_phi_value(k, R))
    return value
