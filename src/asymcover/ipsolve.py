"""Exact solvers for the level-profile covering programs of K+(n, R).

For any code that downward R-covers Q_n, the level counts a_l must satisfy

    sum_{j=0..R, l+j<=n}  C(l+j, j) * a_{l+j}  >=  C(n, l)      for 0 <= l <= n

because a codeword at level l+j covers at most C(l+j, j) vertices of level l.
Only the cost vector varies.  `solve(n, R, costs)` minimizes sum costs_l * a_l
over nonnegative integers by a memoized DP over packed residual windows, or
under a cutoff decides whether the minimum is at most that, fail-soft:
`ip_plus` uses costs 1 and lower-bounds K+(n, R), `ip_phi` uses costs n - l
and lower-bounds the total zero count phi(n, R).

`lp_prices` gives optimal dual prices of the LP relaxation in closed form,
a back-substitution in integers checked for feasibility.  They bound the
exact search and cut the cutoff search, and `ip_phi_lp` sums them into a
lower bound on phi(n, R); `ip_phi_upper` is the zero count of one feasible
profile.  `phi_step` takes one difference-chain step, ceil(phi / n), from
those two where their ceilings meet, and elsewhere asks `ip_phi` whether
phi <= n * k.  Each caller steps from a K+(n-1, R) bound it proved itself,
so the module keeps no state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

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
        c = comb(m, R)
        rest = costs[m] * D - sum(comb(m, j) * p[m - j] for j in range(R))
        f = c // math.gcd(rest, c)
        if f > 1:
            p = [x * f for x in p]
            D *= f
        p[m - R] = rest * f // c
    g = math.gcd(D, *p)
    p = [x // g for x in p]
    D //= g
    if min(p) < 0 or any(
        sum(comb(m, j) * p[m - j] for j in range(m + 1)) > costs[m] * D for m in range(R)
    ):
        raise ValueError(f"the closed-form prices are infeasible for costs {costs!r}")
    return tuple(p), D


def solve(n: int, R: int, costs: tuple[int, ...], node_cap: int = DEFAULT_NODE_CAP,
          cutoff: int | None = None) -> IPSolution:
    """Minimize sum costs_l * a_l over the program for K+(n, R), for n + 1
    nonnegative integer costs, by a memoized DP over levels n down to 0.
    Under a `cutoff` B, for costs that `lp_prices` can price, it is
    fail-soft: the value is the optimum if that is at most B, else a lower
    bound on it above B.

    A state at level l is its window: the residual demands of rows
    l..l-R+1 in one int, row l - i in the (n + 1)-bit field at i * (n + 1).
    It tries each a_l = v from row l's residual up, one node per value.  Row
    l - j, with residual r_j, is paid off from t_j = ceil(r_j / C(l, j)) on,
    so between two pay-off points the child window is rest - v * paid, where
    rest packs the residuals and paid the per-word payments of the rows
    still unpaid, and no field borrows from the next.  The last value,
    needed = max(row l's residual, t_j), leaves the empty window.

    Under budget b (B less the cost above it), a state prices each child at
    the LP dual prices (p, D): every column below keeps its dual constraint,
    so cost_l * v + ceil(priced child / D) bounds value v's total (weak
    duality).  That bound is linear in v between two pay-off points, so a
    run is cut in O(1) where it passes b, and never falls as v grows, as
    reduced costs are >= 0: the first value cut ends the state and bounds
    every value from it on.  A state's value at most b is its optimum, and
    above b a lower bound, each kind memoized in one dict per level.
    Without a cutoff the prices are zero and B is past every profile's
    cost, so nothing is cut.
    """
    _check_params(n, R)
    if len(costs) != n + 1 or not all(isinstance(c, int) and c >= 0 for c in costs):
        raise ValueError(f"need n + 1 = {n + 1} nonnegative integer costs, got {costs!r}")
    F = n + 1
    mask = (1 << F) - 1
    demand = [comb(n, t) for t in range(n + 1)]
    # all of Q_n as words; no value tried exceeds C(n, l), so nor does a total or bound
    top = sum(c * d for c, d in zip(costs, demand)) + 1
    if cutoff is None:  # zero prices are dual feasible for any costs
        p, D, cutoff = (0,) * (n + 1), 1, top - 1
    else:
        p, D = lp_prices(n, R, costs)
    # row l - R's demand enters the last field of level l's child window;
    # a row below level 0 has none
    fresh = [demand[l - R] << F * (R - 1) if l >= R else 0 for l in range(n + 1)]
    # tail[l]: the priced demand of rows 0..l-R-1, below level l's child window
    tail = [sum(p[t] * demand[t] for t in range(l - R)) for l in range(n + 1)]
    # pays[l]: (shift, C(l, j), C(l, j) << shift, p_{l-j}, C(l, j) * p_{l-j}) for
    # each row l - j >= 0 that a word at level l pays, at its child window field
    pays = [
        [(F * (j - 1), c, c << F * (j - 1), p[l - j], c * p[l - j])
         for j in range(1, min(R, l) + 1) for c in (comb(l, j),)]
        for l in range(n + 1)
    ]
    # exact[l] and lower[l] map a window at level l to its optimum or a lower
    # bound on it; exact[-1] is below level 0, where the empty window costs 0
    exact: list[dict[int, int]] = [{} for _ in range(n + 2)]
    lower: list[dict[int, int]] = [{} for _ in range(n + 2)]
    exact[-1][0] = 0
    nodes = 0

    def rec(l: int, window: int, budget: int) -> int:
        nonlocal nodes
        # residuals of rows l-1..l-R before a_l pays C(l, j) * a_l to row l-j
        below = window >> F | fresh[l]
        v = lo = window & mask
        cost_l = costs[l]
        lookup, bound_of = exact[l - 1].get, lower[l - 1].get
        rest = paid = rest_p = paid_p = 0
        stops = []
        for shift, c, c_field, price, c_price in pays[l]:
            r = below >> shift & mask
            if r > c * lo:  # row l - j is still unpaid at v = lo, and t_j > lo
                r_field, r_price = r << shift, r * price
                stops.append((-(-r // c), r_field, c_field, r_price, c_price))
                rest += r_field
                paid += c_field
                rest_p += r_price
                paid_p += c_price
        stops.sort()
        room_d = budget * D - tail[l]
        best = top
        for t, r_field, c_field, r_p, c_p in stops:
            if t > v:
                # value v is cut once cost_l * v * D + the priced child passes budget * D
                slope, gap = cost_l * D - paid_p, room_d - rest_p
                end = t if (t - 1) * slope <= gap else gap // slope + 1 if slope else v
                if end > v:
                    nodes += end - v  # one node per value of the run, counted before it
                    if nodes > node_cap:
                        raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
                    child = rest - v * paid
                    for v in range(v, end):
                        sub = lookup(child)
                        if sub is None:
                            sub = bound_of(child)
                            room = budget - cost_l * v
                            if sub is None or sub <= room:
                                sub = rec(l - 1, child, room)
                        total = cost_l * v + sub
                        if total < best:
                            best = total
                        child -= paid
                    v = end
                if v < t:
                    break
            rest -= r_field
            paid -= c_field
            rest_p -= r_p
            paid_p -= c_p
        else:
            # the last value, needed = max(lo, t_j), pays every row: its child owes
            # nothing.  needed <= C(n, l), as C(n, l-j) <= C(n, l) * C(l, j)
            if cost_l * v * D <= room_d:
                nodes += 1
                if nodes > node_cap:
                    raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
                sub = lookup(0)
                if sub is None:
                    sub = bound_of(0)
                    room = budget - cost_l * v
                    if sub is None or sub <= room:
                        sub = rec(l - 1, 0, room)
                total = cost_l * v + sub
                if total < best:
                    best = total
                v = -1  # no value was cut
        if v >= 0:  # the first value cut bounds every value from it on
            total = cost_l * v + _ceildiv(rest_p - v * paid_p + tail[l], D)
            if total < best:
                best = total
        (exact if best <= budget else lower)[l][window] = best
        return best

    window = sum(demand[n - i] << F * i for i in range(R))  # R <= n
    try:
        return IPSolution(rec(n, window, cutoff), nodes)
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


def ip_phi(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP, cutoff: int | None = None) -> IPSolution:
    """Exact minimum of sum (n-l) a_l: the lower bound on phi(n, R).  Under a
    cutoff, the minimum where it is at most the cutoff, else a bound above it."""
    return solve(n, R, tuple(n - l for l in range(n + 1)), node_cap, cutoff)


def ip_phi_lp(n: int, R: int) -> int:
    """Ceiling of the LP relaxation's optimum of ip_phi, a lower bound on phi(n, R)
    that needs no search: sum_t C(n, t) * p_t / D at the optimal dual prices."""
    _check_params(n, R)
    p, D = lp_prices(n, R, tuple(n - l for l in range(n + 1)))
    return _ceildiv(sum(comb(n, t) * x for t, x in enumerate(p)), D)


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
        rest = comb(n, t) - sum(comb(t + j, j) * a[t + j] for j in range(R))
        a[t + R] = max(0, _ceildiv(rest, comb(t + R, R)))
    if any(
        sum(comb(l + j, j) * a[l + j] for j in range(min(R, n - l) + 1)) < comb(n, l)
        for l in range(n + 1)
    ):
        raise ValueError(f"the bottom-up profile is infeasible at n={n}, R={R}")
    return sum((n - l) * x for l, x in enumerate(a))


def phi_step(n: int, R: int, node_cap: int = DEFAULT_NODE_CAP) -> tuple[int, bool]:
    """One difference-chain step, (step, stopped): a lower bound on
    K+(n-1, R) plus `step` is one on K+(n, R).  The step is ceil(phi / n)
    for ip_phi's optimum phi, at most the largest zero count of a minimum
    code: deleting a coordinate loses at most one word per zero, averaged
    over the n coordinates.  Where ip_phi_lp's and ip_phi_upper's ceilings
    differ, ip_phi asks "phi <= n * k?" from the LP's k up, and each no
    lifts k to its fail-soft bound's ceiling, all under one `node_cap`;
    past it the step is the last one proved, and `stopped` is True."""
    k, up = _ceildiv(ip_phi_lp(n, R), n), _ceildiv(ip_phi_upper(n, R), n)
    while k < up:
        try:
            sol = ip_phi(n, R, node_cap, cutoff=n * k)
        except BudgetExceededError:
            return k, True
        if sol.value <= n * k:
            break
        k, node_cap = _ceildiv(sol.value, n), node_cap - sol.node_count
    return k, False
