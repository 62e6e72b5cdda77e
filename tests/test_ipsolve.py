"""Level-profile covering programs checked against an exhaustive enumerator."""

import dataclasses
import gc
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from asymcover import ipsolve
from asymcover.bounds import asym_sphere_bound
from asymcover.cube import binomial
from asymcover.ipsolve import (
    DEFAULT_NODE_CAP,
    MAX_IP_DIMENSION,
    BudgetExceededError,
    IPSolution,
    ip_phi,
    ip_plus,
    lp_prices,
    solve,
)


def oracle_minimum(n, R, objective):
    """Enumerate feasible level profiles top down; no pruning tricks beyond
    the running objective, so the result is an independent check."""
    caps = [math.comb(n, l) for l in range(n + 1)]
    need = caps
    a = [0] * (n + 1)
    best = [math.inf]

    def rec(l, cost):
        if cost >= best[0]:
            return
        if l < 0:
            best[0] = cost
            return
        for v in range(caps[l] + 1):
            a[l] = v
            row = sum(
                math.comb(l + j, j) * a[l + j] for j in range(R + 1) if l + j <= n
            )
            if row >= need[l]:
                rec(l - 1, cost + objective[l] * v)
        a[l] = 0

    rec(n, 0)
    return best[0]


def objectives(n):
    """The cost vectors of ip_plus (code size) and ip_phi (zero count)."""
    return (1,) * (n + 1), tuple(n - l for l in range(n + 1))


@pytest.mark.parametrize(
    "n,R",
    [(n, R) for n in range(1, 6) for R in range(1, n + 1)] + [(6, 2), (6, 3)],
)
def test_ip_plus_matches_enumeration(n, R):
    want = oracle_minimum(n, R, [1] * (n + 1))
    assert ip_plus(n, R).value == want


@pytest.mark.parametrize(
    "n,R",
    [(n, R) for n in range(1, 6) for R in range(1, n + 1)] + [(6, 2)],
)
def test_ip_phi_matches_enumeration(n, R):
    want = oracle_minimum(n, R, [n - l for l in range(n + 1)])
    assert ip_phi(n, R).value == want


def test_ip_plus_reference_values():
    assert ip_plus(4, 1).value == 6
    assert ip_plus(7, 3).value == 6
    assert ip_phi(2, 1).value == 1


def test_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        ip_plus(0, 1)
    with pytest.raises(ValueError):
        ip_plus(4, 5)


def ball_prices(n, R, costs):
    """Reference dual prices y_t = (cheapest cost of row t) / b-(min(t+R, n), R), as (p, D)."""
    sizes = [sum(math.comb(min(t + R, n), j) for j in range(R + 1)) for t in range(n + 1)]
    D = math.lcm(*sizes)
    price = tuple(min(costs[t : min(t + R, n) + 1]) * (D // s) for t, s in enumerate(sizes))
    return price, D


def full_demand_value(n, prices):
    price, D = prices
    return Fraction(sum(p * math.comb(n, t) for t, p in enumerate(price)), D)


def test_lp_relaxation_is_a_lower_bound():
    # both price vectors are LP-feasible, so pricing the full demand bounds the optimum
    for n in range(2, 8):
        for R in range(1, n):
            size = (1,) * (n + 1)
            for prices in (ball_prices(n, R, size), lp_prices(n, R, size)):
                assert full_demand_value(n, prices) <= ip_plus(n, R).value
    # the exact prices that exact search uses at (6,1), (7,1) and (7,2)
    assert lp_prices(6, 1, (1,) * 7) == ((19, 11, 8, 6, 6, 0, 30), 30)
    assert lp_prices(7, 1, (1,) * 8) == ((91, 53, 38, 30, 24, 24, 0, 144), 144)
    assert lp_prices(7, 2, (1,) * 8) == ((22, 9, 5, 3, 3, 0, 0, 45), 45)


# degenerate pivots in a row before reference_prices turns to Bland's rule
BLAND_AFTER = 50


def reference_prices(n, R, costs):
    """The LP optimum by a simplex tableau in Fractions from the slack basis,
    each pivot row divided by its pivot, as reduced (p, D): Dantzig's entering
    column, Bland's after BLAND_AFTER degenerate pivots in a row."""
    size = n + 1
    tab = [
        [Fraction(math.comb(m, m - t)) if 0 <= m - t <= R else Fraction(0) for t in range(size)]
        + [Fraction(int(k == m)) for k in range(size)]
        + [Fraction(costs[m])]
        for m in range(size)
    ]
    z = [Fraction(-math.comb(n, t)) for t in range(size)] + [Fraction(0)] * (size + 1)
    basis = list(range(size, 2 * size))
    stalled = 0
    while negative := [k for k, x in enumerate(z[:-1]) if x < 0]:
        enter = negative[0] if stalled >= BLAND_AFTER else min(negative, key=z.__getitem__)
        rows = [i for i in range(size) if tab[i][enter] > 0]
        leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        stalled = stalled + 1 if tab[leave][-1] == 0 else 0
        pivot = tab[leave] = [x / tab[leave][enter] for x in tab[leave]]
        for i, row in enumerate([*tab, z]):
            if i != leave:
                f = row[enter]
                row[:] = [x - f * q for x, q in zip(row, pivot)]
        basis[leave] = enter
    y = [Fraction(0)] * size
    for i, var in enumerate(basis):
        if var < size:
            y[var] = tab[i][-1]
    D = math.lcm(*(x.denominator for x in y))
    return tuple(int(x * D) for x in y), D


def test_lp_prices_are_the_lp_optimum():
    # below R = n the LP optimum is the tableau's vertex; at R = n the LP has
    # several optima, and the prices reach the same full-demand value
    for n in range(1, 11):
        for R in range(n + 1):
            for costs in objectives(n):
                got, want = lp_prices(n, R, costs), reference_prices(n, R, costs)
                if R < n:
                    assert got == want, (n, R, costs)
                else:
                    assert full_demand_value(n, got) == full_demand_value(n, want), (n, costs)


def primal_profile(n, R):
    """The profile a_n = 1, a_m = 0 for m < R, each row l < n - R tight, as
    integers over one denominator E: (a, E)."""
    a, E = [0] * (n + 1), 1
    a[n] = 1
    for l in range(n - R):
        c = math.comb(l + R, R)
        rest = math.comb(n, l) * E - sum(math.comb(l + j, j) * a[l + j] for j in range(R))
        f = c // math.gcd(rest, c)
        a, E = [x * f for x in a], E * f
        a[l + R] = rest * f // c
    return a, E


def test_lp_prices_are_certified_by_a_primal_profile():
    # weak duality both ways: a feasible profile of cost equal to the prices'
    # full-demand value proves both optimal, at every n <= 40 with no simplex
    for n in range(1, MAX_IP_DIMENSION + 1):
        for R in range(n + 1):
            a, E = primal_profile(n, R)
            assert min(a) >= 0, (n, R)
            for l in range(n + 1):
                row = sum(math.comb(l + j, j) * a[l + j] for j in range(min(R, n - l) + 1))
                assert row >= math.comb(n, l) * E, (n, R, l)
            for costs in objectives(n):
                price, D = lp_prices(n, R, costs)
                primal = sum(c * x for c, x in zip(costs, a))
                dual = sum(math.comb(n, t) * p for t, p in enumerate(price))
                assert primal * D == dual * E, (n, R, costs)


def test_lp_prices_refuse_what_the_closed_form_cannot_serve():
    # feasible LP, but the top-down prices would make y_0 = 1 against cost_0 = 0
    with pytest.raises(ValueError):
        lp_prices(2, 1, (0, 1, 1))
    with pytest.raises(ValueError):  # n + 1 = 4 costs are needed
        lp_prices(3, 1, (1, 1, 1))


@pytest.mark.parametrize("n", range(1, MAX_IP_DIMENSION + 1))
def test_lp_prices_are_feasible_and_dominate_the_ball_prices(n):
    # every column checked in integers: sum_j C(m, j) * p_{m-j} <= cost_m * D
    for R in range(n + 1):
        for costs in objectives(n):
            price, D = lp_prices(n, R, costs)
            assert min(price) >= 0 and D > 0
            for m in range(n + 1):
                lhs = sum(math.comb(m, j) * price[m - j] for j in range(min(R, m) + 1))
                assert lhs <= costs[m] * D, (n, R, m)
            ball = ball_prices(n, R, costs)
            assert full_demand_value(n, (price, D)) >= full_demand_value(n, ball)


@pytest.mark.parametrize(
    "n,R,sphere,lp",
    [
        (14, 6, 7, 15),
        (20, 10, 5, 16),
        (24, 8, 130, 228),
        (36, 21, 2, 23),
        (40, 12, 7222, 12483),
        (40, 20, 13, 108),
        (40, 21, 7, 71),
        (40, 25, 2, 18),
    ],
)
def test_lp_prices_reach_the_lp_bound(n, R, sphere, lp):
    # the LP optimum of the size program, against the paper's sphere bound
    assert math.ceil(full_demand_value(n, lp_prices(n, R, (1,) * (n + 1)))) == lp
    assert asym_sphere_bound(n, R) == sphere


def test_node_budget_raises():
    with pytest.raises(BudgetExceededError):
        solve(9, 1, (1,) * 10, node_cap=3)


def test_node_budget_boundary():
    # the budget admits exactly node_count nodes: one fewer raises
    count = solve(9, 1, (1,) * 10).node_count
    with pytest.raises(BudgetExceededError):
        solve(9, 1, (1,) * 10, node_cap=count - 1)
    assert solve(9, 1, (1,) * 10, node_cap=count).node_count == count


@pytest.mark.parametrize("n,R", [(5, 2), (8, 2), (10, 3), (11, 5), (12, 4)])
@pytest.mark.parametrize("objective", ["plus", "phi"])
def test_node_budget_boundary_over_runs_of_values(n, R, objective):
    # a run of values is counted before it is searched, so a cap still admits
    # exactly node_count nodes, whichever run or level passes it
    costs = (1,) * (n + 1) if objective == "plus" else tuple(n - l for l in range(n + 1))
    count = solve(n, R, costs).node_count
    assert solve(n, R, costs, node_cap=count) == solve(n, R, costs)
    with pytest.raises(BudgetExceededError):
        solve(n, R, costs, node_cap=count - 1)


def test_solve_frees_its_memo_when_it_returns():
    # with the cyclic collector off, nothing of phi(12, 5)'s 78,494-node memo may
    # outlive the call
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert ip_phi(12, 5) == IPSolution(48, 78_494)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 100_000


def test_ip_phi_lp_is_the_ceiling_of_the_lp_optimum():
    # the chain's fallback: at most phi's integer optimum, and equal to the
    # LP optimum computed over Fractions
    for n in range(2, 11):
        for R in range(1, n):
            costs = tuple(n - l for l in range(n + 1))
            p, D = lp_prices(n, R, costs)
            want = math.ceil(sum(Fraction(binomial(n, t) * x, D) for t, x in enumerate(p)))
            assert ipsolve.ip_phi_lp(n, R) == want <= ip_phi(n, R).value, (n, R)
    assert ipsolve.ip_phi_lp(20, 10) == 83  # ceil(83 / 20) = 5, the chain's step at (20, 10)


@pytest.mark.parametrize(
    "costs",
    [(0, 0, 0, -1), (1, 1, 1, 1, 1), (1, 1, 1), (1, 1, 1.5, 1), (1, "1", 1, 1)],
)
def test_solve_rejects_bad_costs(costs):
    with pytest.raises(ValueError):
        solve(3, 1, costs)


def test_solution_reports_node_count():
    assert ip_plus(5, 2).node_count > 0


def test_dual_prices_are_the_ball_size_ratios():
    # y_t = (cheapest cost of row t's variables) / b-(min(t+R, n), R)
    for n in range(1, 10):
        for R in range(n + 1):
            for costs in objectives(n):
                price, D = ball_prices(n, R, costs)
                for t in range(n + 1):
                    top = min(t + R, n)
                    ball = sum(math.comb(top, j) for j in range(R + 1))
                    assert Fraction(price[t], D) == Fraction(min(costs[t : top + 1]), ball)
            # the sphere bound is these prices on the size program's full demand
            size_prices = ball_prices(n, R, (1,) * (n + 1))
            assert asym_sphere_bound(n, R) == math.ceil(full_demand_value(n, size_prices))


def test_profile_programs_pinned():
    # SHA-256 of both values of every cell n = 2..12, 1 <= R <= n, and the
    # node counts summed over those cells; a solution is its value and its
    # node count alone.  Unpruned, both programs visit the same states, so
    # their node counts agree cell by cell.  The difference chain
    # 1 + sum_{k=R+1..n} ceil(phi(k, R) / k), built from these phi values, is
    # at or above the size program in every cell: that is why best_bounds
    # solves only phi.
    assert [f.name for f in dataclasses.fields(IPSolution)] == ["value", "node_count"]
    digest = hashlib.sha256()
    nodes_plus = nodes_phi = 0
    chain = {}
    for n in range(2, 13):
        for R in range(1, n + 1):
            a, b = ip_plus(n, R), ip_phi(n, R)
            assert a.node_count == b.node_count, (n, R)
            chain[n, R] = 1 if R == n else chain.get((n - 1, R), 1) + -(-b.value // n)
            assert chain[n, R] >= a.value, (n, R)
            digest.update(repr((n, R, a.value, b.value)).encode())
            nodes_plus += a.node_count
            nodes_phi += b.node_count
    assert digest.hexdigest() == "344774fa31edd858ab50f0605a81d6d69fff4a11f2b003c721a77e34488dce6e"
    assert (nodes_plus, nodes_phi) == (447_576, 447_576)


def reference_solve(n, R, costs, node_cap=DEFAULT_NODE_CAP):
    """The DP over tuple windows that solve replaced, kept as its reference:
    same states, same order of values, one node per value tried."""
    demand = [binomial(n, t) for t in range(n + 1)]
    # pays[l][j - 1] = C(l, j): what one word at level l pays to row l - j
    pays = [[binomial(l, j) for j in range(1, R + 1)] for l in range(n + 1)]
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    nodes = 0

    def rec(l: int, window: tuple[int, ...]) -> int:
        nonlocal nodes
        if l < 0:
            return 0
        key = (l, window)
        best = memo.get(key)
        if best is not None:
            return best
        # residuals of rows l-1..l-R before a_l pays C(l, j) * a_l to row l-j;
        # a row below level 0 has none, so its zero C(l, j) is never divided by
        below = window[1:] + (demand[l - R] if l >= R else 0,)
        pay = pays[l]
        lo = needed = window[0]
        for res, c in zip(below, pay):
            if res:
                d = -(-res // c)
                if d > needed:
                    needed = d
        cost_l = costs[l]
        best = -1
        # needed <= C(n, l): each residual is at most C(n, t), and C(n, l-j) <= C(n, l) * C(l, j)
        for v in range(lo, needed + 1):
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceededError(f"IP node budget {node_cap} exceeded")
            child = tuple([r - c * v if r > c * v else 0 for r, c in zip(below, pay)])
            total = cost_l * v + rec(l - 1, child)
            if best < 0 or total < best:
                best = total
        memo[key] = best
        return best

    return IPSolution(rec(n, tuple(demand[n - j] for j in range(R))), nodes)  # R <= n


def cost_vectors(n, seed):
    """Both objectives and three seeded random vectors over 0..5, each with a zero."""
    rng = random.Random(seed)
    vectors = list(objectives(n))
    for _ in range(3):
        costs = [rng.randrange(6) for _ in range(n + 1)]
        costs[rng.randrange(n + 1)] = 0
        vectors.append(tuple(costs))
    return vectors


@pytest.mark.parametrize("n", range(1, 10))
def test_solve_matches_the_tuple_window_reference(n):
    for R in range(1, n + 1):
        for costs in cost_vectors(n, seed=100 * n + R):
            assert solve(n, R, costs) == reference_solve(n, R, costs), (n, R, costs)


@pytest.mark.parametrize("n,R", [(40, 38), (40, 39)])
def test_solve_matches_the_reference_at_the_dimension_cap(n, R):
    # residuals up to C(40, 20) fill the widest fields of the packed window
    assert n == MAX_IP_DIMENSION
    for costs in objectives(n):
        assert solve(n, R, costs) == reference_solve(n, R, costs)


def test_profile_programs_pinned_at_13_5():
    assert ip_plus(13, 5) == IPSolution(19, 501_985)
    assert ip_phi(13, 5) == IPSolution(79, 501_985)


def bottom_up_profile(n, R):
    """The profile that ip_phi_upper prices: a_n = 1, then each row t < n - R
    paid by the fewest words at level t + R that its residual needs."""
    a = [0] * (n + 1)
    a[n] = 1
    for t in range(n - R):
        rest = math.comb(n, t) - sum(math.comb(t + j, j) * a[t + j] for j in range(R))
        a[t + R] = max(0, -(-rest // math.comb(t + R, R)))
    return a


def test_ip_phi_upper_prices_a_feasible_profile_above_the_lp():
    # every row of the profile checked here, so its zero count bounds phi from
    # above at every n <= 40, and the LP bound lies below it
    for n in range(1, MAX_IP_DIMENSION + 1):
        for R in range(1, n + 1):
            a = bottom_up_profile(n, R)
            assert min(a) >= 0, (n, R)
            for l in range(n + 1):
                row = sum(math.comb(l + j, j) * a[l + j] for j in range(min(R, n - l) + 1))
                assert row >= math.comb(n, l), (n, R, l)
            upper = ipsolve.ip_phi_upper(n, R)
            assert upper == sum((n - l) * x for l, x in enumerate(a)), (n, R)
            assert ipsolve.ip_phi_lp(n, R) <= upper, (n, R)


def test_phi_step_is_the_programs_own_step():
    # the two closed forms bracket phi, and the step is ceil(phi / n) whether
    # they settle it or the program runs; at n <= 9 phi is also the reference's
    for n in range(2, 13):
        for R in range(1, n):
            phi = ip_phi(n, R).value
            assert ipsolve.ip_phi_lp(n, R) <= phi <= ipsolve.ip_phi_upper(n, R), (n, R)
            assert ipsolve.phi_step(n, R) == (-(-phi // n), False), (n, R)
            if n <= 9:
                want = reference_solve(n, R, objectives(n)[1]).value
                assert ipsolve.phi_step(n, R)[0] == -(-want // n), (n, R)


def test_phi_step_takes_the_lp_step_where_the_program_stops():
    # (9, 2) is open: the LP bound is 98 and the profile's zero count 106,
    # phi itself, whose ceilings over 9 are 11 and 12
    assert (ipsolve.ip_phi_lp(9, 2), ipsolve.ip_phi_upper(9, 2)) == (98, 106)
    assert ipsolve.phi_step(9, 2, 1) == (11, True)
    assert ipsolve.phi_step(9, 2) == (12, False)
    # (8, 2) is settled without the program, so no limit stops it
    assert ipsolve.phi_step(8, 2, 1) == ipsolve.phi_step(8, 2) == (7, False)


def test_a_table_runs_the_program_only_at_the_open_steps(monkeypatch):
    # the n <= 10, R <= 11 grid: every other chain step is settled where the
    # LP bound and the bottom-up profile give one ceiling over n, and each
    # open step asks at n * k from the LP's k; only (10, 1) jumps and asks twice
    from asymcover.table import TableSpec, build_grid

    seen = []
    real = ipsolve.solve

    def traced(n, R, costs, node_cap=DEFAULT_NODE_CAP, cutoff=None):
        seen.append((n, R, cutoff))
        return real(n, R, costs, node_cap, cutoff)

    monkeypatch.setattr(ipsolve, "solve", traced)
    build_grid(TableSpec(n_min=1, n_max=10, r_min=0, r_max=11))
    assert sorted(seen) == [(4, 1, 8), (9, 1, 360), (9, 2, 99), (9, 5, 9), (10, 1, 730),
                            (10, 1, 740), (10, 2, 190), (10, 3, 70), (10, 4, 30)]


@pytest.mark.parametrize("n", range(1, 10))
def test_a_cutoff_search_is_fail_soft(n):
    # at or above the optimum, the value is the optimum; below it, a bound
    # that lies above the cutoff and at most the optimum
    for R in range(1, n + 1):
        for costs in objectives(n):
            opt = reference_solve(n, R, costs).value
            for cutoff in range(opt - 2, opt + 2):
                got = solve(n, R, costs, cutoff=cutoff).value
                if opt <= cutoff:
                    assert got == opt, (n, R, costs, cutoff)
                else:
                    assert cutoff < got <= opt, (n, R, costs, cutoff)


def test_phi_step_shares_one_node_cap_across_its_questions():
    # (10, 1) asks at 730 (77 nodes), jumps to the bound 731's step 74, and
    # asks at 740 (481 nodes); a stop keeps the last step proved
    assert (ipsolve.ip_phi_lp(10, 1), ipsolve.ip_phi_upper(10, 1)) == (729, 741)
    assert ipsolve.ip_phi(10, 1, cutoff=730) == IPSolution(731, 77)
    assert ipsolve.phi_step(10, 1, 558) == (75, False)
    assert ipsolve.phi_step(10, 1, 557) == (74, True)
    assert ipsolve.phi_step(10, 1, 76) == (73, True)


def test_phi_step_decides_steps_past_the_full_programs_reach():
    # full solves take 24 M nodes at (15, 6) and pass 10^8 at (19, 10)
    assert ipsolve.phi_step(15, 6, node_cap=10**6) == (8, False)
    assert ipsolve.phi_step(19, 10, node_cap=10**6) == (4, False)
    assert ipsolve.phi_step(16, 10, node_cap=10**6) == (2, False)
