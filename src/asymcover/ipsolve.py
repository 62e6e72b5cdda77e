"""Exact solvers for the banded level-profile covering programs.

For any code that downward R-covers Q_n, the level counts a_l must satisfy

    sum_{j=0..R, l+j<=n}  C(l+j, j) * a_{l+j}  >=  C(n, l)      for 0 <= l <= n

because a codeword at level l+j covers at most C(l+j, j) vertices of level l.
Minimizing sum a_l over nonnegative integers with a_l <= C(n, l) lower-bounds
K+(n, R); minimizing sum (n-l) a_l lower-bounds the total zero count phi(n, R).
The dual prices of the size program also bound the exact search: it prices
each still-uncovered vertex of level l at y_l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cube import ball_size_down, binomial

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
    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= self.R <= n:
            raise ValueError(f"need 0 <= R <= n, got R={self.R}, n={n}")
        for name in ("objective", "rhs", "caps"):
            vec = getattr(self, name)
            if len(vec) != n + 1:
                raise ValueError(f"{name} must have length n+1 = {n + 1}")
            if any(x < 0 for x in vec):
                raise ValueError(f"{name} entries must be >= 0")

    @classmethod
    def size_objective(cls, n: int, R: int) -> "CoveringIP":
        """Objective sum a_l: lower bound on K+(n, R)."""
        binoms = tuple(binomial(n, l) for l in range(n + 1))
        return cls(n, R, (1,) * (n + 1), binoms, binoms)

    @classmethod
    def zeros_objective(cls, n: int, R: int) -> "CoveringIP":
        """Objective sum (n-l) a_l: lower bound on the zero count phi(n, R)."""
        binoms = tuple(binomial(n, l) for l in range(n + 1))
        return cls(n, R, tuple(n - l for l in range(n + 1)), binoms, binoms)


@dataclass(frozen=True)
class IPSolution:
    value: int
    profile: tuple[int, ...]
    node_count: int


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def _dual_vector(ip: CoveringIP) -> list[Fraction]:
    """Feasible dual prices y_t, one per row.

    y_t = (min objective coefficient among row t's variables) / b-(min(t+R,n), R).
    For any variable a_m: sum_{j<=R} C(m,j) y_{m-j} <= cost_m, since each
    denominator is at least b-(m, R) and each numerator at most cost_m, so
    sum res_t * y_t never exceeds the cost of any feasible completion.
    """
    n, R = ip.n, ip.R
    out = []
    for t in range(n + 1):
        cmin = min(ip.objective[m] for m in range(t, min(t + R, n) + 1))
        out.append(Fraction(cmin, ball_size_down(n, min(t + R, n), R)))
    return out


def solve(ip: CoveringIP, node_cap: int = DEFAULT_NODE_CAP) -> IPSolution:
    """Depth-first branch and bound, levels fixed from n down to 0.

    State is the residual-demand window of the R partially paid rows; states
    are memoized, values branch ascending from the row-l implied minimum, and
    a rational dual bound prunes non-improving values.
    """
    n, R = ip.n, ip.R
    rhs, caps, costs = ip.rhs, ip.caps, ip.objective
    cvar = [[binomial(l, j) for j in range(R + 1)] for l in range(n + 1)]
    y = _dual_vector(ip)
    suffix = [Fraction(0)] * (n + 2)  # suffix[k+1] = sum_{t<=k} y_t * rhs_t
    for t in range(n + 1):
        suffix[t + 1] = suffix[t] + y[t] * rhs[t]

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

    def dual_bound(l: int, window: tuple[int, ...]) -> Fraction:
        # rows l..l-R+1 carry window residuals; rows below are untouched
        total = suffix[l - R + 1] if l - R + 1 > 0 else Fraction(0)
        for j in range(R):
            t = l - j
            if t >= 0 and window[j]:
                total += y[t] * window[j]
        return total

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
        hi = caps[l] if caps[l] < needed else needed
        best: float | int = INF
        best_v = -1
        cost_l = costs[l]
        for v in range(lo, hi + 1):
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
