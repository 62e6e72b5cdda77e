"""Level-profile covering programs checked against an exhaustive enumerator."""

import hashlib
import math
from fractions import Fraction

import pytest

from asymcover.ipsolve import (
    BudgetExceededError,
    CoveringIP,
    dual_prices,
    ip_phi,
    ip_plus,
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


def profile_is_feasible(ip, profile):
    for l in range(ip.n + 1):
        row = sum(
            math.comb(l + j, j) * profile[l + j]
            for j in range(ip.R + 1)
            if l + j <= ip.n
        )
        if row < ip.rhs[l]:
            return False
    return all(profile[l] <= math.comb(ip.n, l) for l in range(ip.n + 1))


@pytest.mark.parametrize(
    "n,R",
    [(n, R) for n in range(1, 6) for R in range(1, n + 1)] + [(6, 2), (6, 3)],
)
def test_ip_plus_matches_enumeration(n, R):
    want = oracle_minimum(n, R, [1] * (n + 1))
    sol = ip_plus(n, R)
    assert sol.value == want
    assert profile_is_feasible(CoveringIP.size_objective(n, R), sol.profile)
    assert sum(sol.profile) == sol.value


@pytest.mark.parametrize(
    "n,R",
    [(n, R) for n in range(1, 6) for R in range(1, n + 1)] + [(6, 2)],
)
def test_ip_phi_matches_enumeration(n, R):
    want = oracle_minimum(n, R, [n - l for l in range(n + 1)])
    sol = ip_phi(n, R)
    assert sol.value == want
    assert profile_is_feasible(CoveringIP.zeros_objective(n, R), sol.profile)
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
        CoveringIP(3, 1, (1, 1, 1), (1, 3, 3, 1))
    with pytest.raises(ValueError):
        CoveringIP(3, 1, (1,) * 4, (1, 3, -3, 1))
    with pytest.raises(ValueError):
        CoveringIP(3, 4, (1,) * 4, (1, 3, 3, 1))
    with pytest.raises(ValueError):
        ip_plus(0, 1)
    with pytest.raises(ValueError):
        ip_plus(4, 5)


def test_lp_relaxation_is_a_lower_bound():
    # the dual prices are LP-feasible, so pricing the full demand bounds the optimum
    for n in range(2, 8):
        for R in range(1, n):
            price, D = dual_prices(CoveringIP.size_objective(n, R))
            lp = sum(Fraction(price[t] * math.comb(n, t), D) for t in range(n + 1))
            assert lp <= ip_plus(n, R).value


def test_node_budget_raises():
    with pytest.raises(BudgetExceededError):
        solve(CoveringIP.size_objective(9, 1), node_cap=3)


def test_solution_reports_node_count():
    assert ip_plus(5, 2).node_count > 0


def test_dual_prices_are_the_ball_size_ratios():
    # y_t = (cheapest cost of row t's variables) / b-(min(t+R, n), R)
    for n in range(1, 10):
        for R in range(n + 1):
            for ip in (CoveringIP.size_objective(n, R), CoveringIP.zeros_objective(n, R)):
                price, D = dual_prices(ip)
                for t in range(n + 1):
                    top = min(t + R, n)
                    ball = sum(math.comb(top, j) for j in range(R + 1))
                    assert Fraction(price[t], D) == Fraction(min(ip.objective[t : top + 1]), ball)


def test_profile_programs_pinned():
    # SHA-256 of every (value, profile) for n = 2..12, 1 <= R <= n, as solved
    # with rational dual prices before they became integers, and the node
    # counts summed over those cells as searched with an explicit a_l <= C(n, l)
    digest = hashlib.sha256()
    nodes_plus = nodes_phi = 0
    for n in range(2, 13):
        for R in range(1, n + 1):
            a, b = ip_plus(n, R), ip_phi(n, R)
            digest.update(repr((n, R, a.value, a.profile, b.value, b.profile)).encode())
            nodes_plus += a.node_count
            nodes_phi += b.node_count
    assert digest.hexdigest() == "15abb99cca1a5c3a584f44cfe220a1a8a048200905fef990649d8a2b48b749ff"
    assert (nodes_plus, nodes_phi) == (444_427, 447_360)
