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

`lp_prices` gives optimal dual prices of the LP relaxation, solved in
integers; they bound only the exact search, priced over the uncovered
vertices of each level.  The difference chain built from the zero-count
program lives here too.  Only phi's value is memoized, by `ip_phi_value`:
the chain to K+(n, R) reads phi(k, R) for every k <= n, so a table's cells
share those solves.  `ip_plus` is not: only exact search solves it, once per
call, and a solve answered from an earlier call's memo would be missing
from a trace of the later one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cube import binomial

DEFAULT_NODE_CAP = 10**8
MAX_IP_DIMENSION = 40
# degenerate simplex pivots in a row before `_simplex_max` turns to Bland's rule;
# over the programs n <= 40 Dantzig's rule took 37,183 pivots against Bland's 61,073
BLAND_AFTER = 50


class BudgetExceededError(RuntimeError):
    """The node budget ran out before the search finished."""


@dataclass(frozen=True)
class IPSolution:
    value: int
    node_count: int


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def _simplex_max(c: list[int], A: list[list[int]], b: list[int]) -> tuple[list[int], int]:
    """Maximize c.y subject to A y <= b, y >= 0, for b >= 0 and a bounded
    program, as (numerators, D): a dense integer tableau started from the
    slack basis.  The entering column has the most negative reduced cost
    (Dantzig's rule); after BLAND_AFTER degenerate pivots in a row it is the
    first negative one (Bland's rule) until a pivot gains, so degenerate
    vertices cannot cycle.  The leaving row has the least ratio, ties to the
    least basic variable.  Each row is a positive multiple of its equation,
    kept divided by its gcd, so ratios are compared by cross-multiplying."""
    rows, cols = len(A), len(c)
    width = cols + rows
    tab = [A[i] + [int(k == i) for k in range(rows)] + [b[i]] for i in range(rows)]
    z = [-x for x in c] + [0] * (rows + 1)
    basis = [cols + i for i in range(rows)]
    stalled = 0  # degenerate pivots in a row
    while negative := [k for k in range(width) if z[k] < 0]:
        enter = negative[0] if stalled >= BLAND_AFTER else min(negative, key=z.__getitem__)
        leave = -1
        for i, row in enumerate(tab):
            if row[enter] > 0:
                if leave < 0:
                    leave = i
                    continue
                best = tab[leave]
                diff = row[-1] * best[enter] - best[-1] * row[enter]
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ValueError("unbounded program")
        pivot = tab[leave]
        stalled = stalled + 1 if pivot[-1] == 0 else 0
        a = pivot[enter]
        for row in [*tab, z]:
            f = row[enter]
            if row is not pivot and f:
                row[:] = [x * a - f * q for x, q in zip(row, pivot)]
                g = math.gcd(*row)
                if g > 1:
                    row[:] = [x // g for x in row]
        basis[leave] = enter
    D = math.lcm(*(tab[i][v] for i, v in enumerate(basis) if v < cols))
    y = [0] * cols
    for i, v in enumerate(basis):
        if v < cols:
            y[v] = tab[i][-1] * (D // tab[i][v])
    return y, D


def lp_prices(n: int, R: int, costs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Optimal dual prices of the program's LP relaxation on its full demand, as (p, D).

    Maximizes sum C(n, t) * y_t subject to sum_{j<=R} C(m, j) * y_{m-j} <= cost_m
    for every variable a_m and y >= 0, exactly, and returns y_t = p_t / D in
    lowest terms.
    """
    A = [[binomial(m, m - t) if m - t <= R else 0 for t in range(n + 1)] for m in range(n + 1)]
    y, D = _simplex_max([binomial(n, t) for t in range(n + 1)], A, list(costs))
    g = math.gcd(D, *y)
    return tuple(x // g for x in y), D // g


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
                child = rest - v * paid
                for v in range(v, t):
                    nodes += 1
                    if nodes > node_cap:
                        raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
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
    return IPSolution(rec(n, window), nodes)


def _check_params(n: int, R: int) -> None:
    if not 1 <= R <= n <= MAX_IP_DIMENSION:
        raise ValueError(f"need 1 <= R <= n <= {MAX_IP_DIMENSION}, got n={n}, R={R}")


def ip_plus(n: int, R: int) -> IPSolution:
    """Exact minimum of sum a_l: the level-profile lower bound on K+(n, R)."""
    return solve(n, R, (1,) * (n + 1))


def ip_phi(n: int, R: int) -> IPSolution:
    """Exact minimum of sum (n-l) a_l: the lower bound on phi(n, R)."""
    return solve(n, R, tuple(n - l for l in range(n + 1)))


@lru_cache(maxsize=None)
def ip_phi_value(n: int, R: int) -> int:
    """ip_phi(n, R).value, solved once per cell."""
    return ip_phi(n, R).value


def diff_lower(n: int, lower_prev: int, phi_lb: int) -> int:
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
        value = diff_lower(k, value, ip_phi_value(k, R))
    return value
