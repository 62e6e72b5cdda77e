"""Level-profile covering programs checked against an exhaustive enumerator."""

import hashlib
import math
from fractions import Fraction

import pytest

from asymcover.bounds import asym_sphere_bound
from asymcover.ipsolve import (
    MAX_IP_DIMENSION,
    BudgetExceededError,
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


def profile_is_feasible(n, R, profile):
    for l in range(n + 1):
        row = sum(
            math.comb(l + j, j) * profile[l + j]
            for j in range(R + 1)
            if l + j <= n
        )
        if row < math.comb(n, l):
            return False
    return all(profile[l] <= math.comb(n, l) for l in range(n + 1))


def objectives(n):
    """The cost vectors of ip_plus (code size) and ip_phi (zero count)."""
    return (1,) * (n + 1), tuple(n - l for l in range(n + 1))


@pytest.mark.parametrize(
    "n,R",
    [(n, R) for n in range(1, 6) for R in range(1, n + 1)] + [(6, 2), (6, 3)],
)
def test_ip_plus_matches_enumeration(n, R):
    want = oracle_minimum(n, R, [1] * (n + 1))
    sol = ip_plus(n, R)
    assert sol.value == want
    assert profile_is_feasible(n, R, sol.profile)
    assert sum(sol.profile) == sol.value


@pytest.mark.parametrize(
    "n,R",
    [(n, R) for n in range(1, 6) for R in range(1, n + 1)] + [(6, 2)],
)
def test_ip_phi_matches_enumeration(n, R):
    want = oracle_minimum(n, R, [n - l for l in range(n + 1)])
    sol = ip_phi(n, R)
    assert sol.value == want
    assert profile_is_feasible(n, R, sol.profile)
    assert sum((n - l) * sol.profile[l] for l in range(n + 1)) == sol.value


def test_ip_plus_reference_values():
    assert ip_plus(4, 1).value == 6
    assert ip_plus(7, 3).value == 6
    assert ip_phi(2, 1).value == 1


def test_ip_plus_profile_41():
    sol = ip_plus(4, 1)
    assert sol.profile == (1, 0, 3, 1, 1)


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
    "n,R,sphere,lp", [(14, 6, 7, 15), (20, 10, 5, 16), (24, 8, 130, 228), (40, 12, 7222, 12483)]
)
def test_lp_prices_reach_the_lp_bound(n, R, sphere, lp):
    # the LP optimum of the size program, against the paper's sphere bound
    assert math.ceil(full_demand_value(n, lp_prices(n, R, (1,) * (n + 1)))) == lp
    assert asym_sphere_bound(n, R) == sphere


def test_node_budget_raises():
    with pytest.raises(BudgetExceededError):
        solve(9, 1, (1,) * 10, node_cap=3)


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
    # SHA-256 of every (value, profile) for n = 2..12, 1 <= R <= n, as solved
    # with rational ball-size dual prices before they became integers, and the
    # node counts summed over those cells; every profile meets every row and
    # stays within its level, a_l <= C(n, l).  Unpruned, both programs visit
    # the same states, so their node counts agree cell by cell.
    digest = hashlib.sha256()
    nodes_plus = nodes_phi = 0
    for n in range(2, 13):
        for R in range(1, n + 1):
            a, b = ip_plus(n, R), ip_phi(n, R)
            assert profile_is_feasible(n, R, a.profile), (n, R)
            assert profile_is_feasible(n, R, b.profile), (n, R)
            assert a.node_count == b.node_count, (n, R)
            digest.update(repr((n, R, a.value, a.profile, b.value, b.profile)).encode())
            nodes_plus += a.node_count
            nodes_phi += b.node_count
    assert digest.hexdigest() == "15abb99cca1a5c3a584f44cfe220a1a8a048200905fef990649d8a2b48b749ff"
    assert (nodes_plus, nodes_phi) == (447_576, 447_576)
