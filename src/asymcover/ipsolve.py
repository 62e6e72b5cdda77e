"""Exact solvers for the banded level-profile covering programs.

For any code that downward R-covers Q_n, the level counts a_l must satisfy

    sum_{j=0..R, l+j<=n}  C(l+j, j) * a_{l+j}  >=  C(n, l)      for 0 <= l <= n

because a codeword at level l+j covers at most C(l+j, j) vertices of level l.
Minimizing sum a_l over nonnegative integers with a_l <= C(n, l) lower-bounds
K+(n, R); minimizing sum (n-l) a_l lower-bounds the total zero count phi(n, R).

One price vector, the LP-optimal dual prices kept as integers over a common
denominator, prunes the branch and bound (priced over a residual window) and
bounds the exact search (priced over the uncovered vertices of each level).
The cached program values and the difference chain built from the
zero-count program live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cube import binomial

DEFAULT_NODE_CAP = 10**8
MAX_IP_DIMENSION = 40
INF = float("inf")


class BudgetExceededError(RuntimeError):
    """The node budget ran out before the search finished."""


@dataclass(frozen=True)
class CoveringIP:
    """A banded covering instance over the level variables a_0..a_n."""

    n: int
    R: int
    objective: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= self.R <= n:
            raise ValueError(f"need 0 <= R <= n, got R={self.R}, n={n}")
        for name in ("objective", "rhs"):
            vec = getattr(self, name)
            if len(vec) != n + 1:
                raise ValueError(f"{name} must have length n+1 = {n + 1}")
            if any(x < 0 for x in vec):
                raise ValueError(f"{name} entries must be >= 0")

    @classmethod
    def size_objective(cls, n: int, R: int) -> "CoveringIP":
        """Objective sum a_l: lower bound on K+(n, R)."""
        binoms = tuple(binomial(n, l) for l in range(n + 1))
        return cls(n, R, (1,) * (n + 1), binoms)

    @classmethod
    def zeros_objective(cls, n: int, R: int) -> "CoveringIP":
        """Objective sum (n-l) a_l: lower bound on the zero count phi(n, R)."""
        binoms = tuple(binomial(n, l) for l in range(n + 1))
        return cls(n, R, tuple(n - l for l in range(n + 1)), binoms)


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
        leave, best = -1, INF
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


def lp_prices(ip: CoveringIP) -> tuple[tuple[int, ...], int]:
    """Optimal dual prices of the program's LP relaxation on its full demand, as (p, D).

    Maximizes sum rhs_t * y_t subject to sum_{j<=R} C(m,j) * y_{m-j} <= cost_m
    for every variable a_m and y >= 0 in floats, then repairs the result in
    integers: each y_t * 2^40 is floored, the rows that a zero-cost variable
    covers are priced 0, and all prices are scaled by min_m cost_m * D / lhs_m where
    that is below 1, so every column is feasible by exact arithmetic and a
    float error can only weaken the bound.
    """
    n, R, costs = ip.n, ip.R, ip.objective
    cols = [[(m - j, binomial(m, j)) for j in range(min(R, m) + 1)] for m in range(n + 1)]
    A = [[0.0] * (n + 1) for _ in cols]
    for row, col in zip(A, cols):
        for t, coef in col:
            row[t] = float(coef)
    y = _simplex_max([float(x) for x in ip.rhs], A, [float(x) for x in costs])

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


def solve(ip: CoveringIP, node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Depth-first branch and bound, levels fixed from n down to 0.

    State is the residual-demand window of the R partially paid rows; states
    are memoized, values branch ascending from the row-l implied minimum, and
    the ceiling of the integer-priced residual demand prunes non-improving
    values.
    """
    n, R = ip.n, ip.R
    rhs, costs = ip.rhs, ip.objective
    cvar = [[binomial(l, j) for j in range(R + 1)] for l in range(n + 1)]
    price, D = lp_prices(ip)
    suffix = [0] * (n + 2)  # suffix[k+1] = sum_{t<=k} p_t * rhs_t
    for t in range(n + 1):
        suffix[t + 1] = suffix[t] + price[t] * rhs[t]

    memo: dict[tuple[int, tuple[int, ...]], tuple[float, int]] = {}
    nodes = 0

    def child_window(l: int, window: tuple[int, ...], v: int) -> tuple[int, ...]:
        # residuals of rows l-1..l-R once a_l = v pays C(l, j) * v to row l-j
        child = []
        for j2 in range(R):
            t = l - 1 - j2
            if t < 0:
                child.append(0)
                continue
            src = window[j2 + 1] if j2 + 1 < R else rhs[t]
            pay = cvar[l][j2 + 1] * v
            child.append(src - pay if src > pay else 0)
        return tuple(child)

    def dual_bound(l: int, window: tuple[int, ...]) -> int:
        # rows l..l-R+1 carry window residuals; rows below are untouched.
        # Every completion costs an integer, so the ceiling still bounds it.
        total = suffix[l - R + 1] if l - R + 1 > 0 else 0
        for j in range(R):
            t = l - j
            if t >= 0 and window[j]:
                total += price[t] * window[j]
        return _ceildiv(total, D)

    def rec(l: int, window: tuple[int, ...]) -> float | int:
        nonlocal nodes
        if l < 0:
            return 0
        key = (l, window)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        res_l = window[0] if R else rhs[l]
        lo = res_l if res_l > 0 else 0
        needed = lo
        for j in range(1, min(R, l) + 1):
            res_t = window[j] if j < R else rhs[l - R]
            if res_t > 0:
                d = _ceildiv(res_t, cvar[l][j])
                if d > needed:
                    needed = d
        best: float | int = INF
        best_v = -1
        cost_l = costs[l]
        # needed <= C(n, l) when rhs_t <= C(n, t): C(n, l-j) <= C(n, l) * C(l, j)
        for v in range(lo, needed + 1):
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
            if cost_l and cost_l * v >= best:
                break
            child_t = child_window(l, window, v)
            if best is not INF and cost_l * v + dual_bound(l - 1, child_t) >= best:
                continue
            sub = rec(l - 1, child_t)
            if sub is not INF:
                total = cost_l * v + sub
                if total < best:
                    best, best_v = total, v
        memo[key] = (best, best_v)
        return best

    window0 = tuple(rhs[n - j] if n - j >= 0 else 0 for j in range(R))
    value = rec(n, window0)
    if value is INF:
        raise ValueError("infeasible covering instance")

    profile = [0] * (n + 1)
    l, window = n, window0
    while l >= 0:
        v = memo[(l, window)][1]
        profile[l] = v
        l, window = l - 1, child_window(l, window, v)
    return IPSolution(int(value), tuple(profile), nodes)


def _check_params(n: int, R: int) -> None:
    if not 1 <= R <= n <= MAX_IP_DIMENSION:
        raise ValueError(f"need 1 <= R <= n <= {MAX_IP_DIMENSION}, got n={n}, R={R}")


def ip_plus(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Exact minimum of sum a_l: the level-profile lower bound on K+(n, R)."""
    _check_params(n, R)
    return solve(CoveringIP.size_objective(n, R), node_cap)


def ip_phi(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Exact minimum of sum (n-l) a_l: the lower bound on phi(n, R)."""
    _check_params(n, R)
    return solve(CoveringIP.zeros_objective(n, R), node_cap)


@lru_cache(maxsize=None)
def ip_plus_value(n: int, R: int) -> int:
    """ip_plus(n, R).value, solved once per cell."""
    return ip_plus(n, R).value


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
