"""Exact minimum covers checked against a subset-enumeration oracle."""

import hashlib
import json
from itertools import combinations
from pathlib import Path

import pytest

from asymcover import cli
from asymcover.cube import Code, ball_down, covers
from asymcover.exact import EXACT_MAX_N, ExactResult, exact_kplus
from asymcover.ipsolve import ip_plus


def verify_optimal(result):
    """The witness has the claimed size and covers, and the program allows the claim.

    Minimality itself is the search's certificate and is not re-proven here.
    """
    if result.status != "exact":
        raise ValueError("verify_optimal expects an exact result")
    return (
        len(result.witness) == result.value
        and covers(result.witness, result.R)
        and (result.R == 0 or ip_plus(result.n, result.R).value <= result.value)
    )


def brute_kplus(n, R):
    """Smallest covering subset, found by trying all subsets small-first."""
    size = 1 << n
    full = (1 << size) - 1
    balls = []
    for c in range(size):
        m = 0
        for v in ball_down(c, R, n):
            m |= 1 << v
        balls.append(m)
    for k in range(1, size + 1):
        for combo in combinations(range(size), k):
            u = 0
            for c in combo:
                u |= balls[c]
            if u == full:
                return k
    raise AssertionError("unreachable")


@pytest.mark.parametrize(
    "n,R",
    [(n, R) for n in (1, 2, 3) for R in range(0, n + 1)]
    + [(4, 1), (4, 2), (4, 3), (4, 4)],
)
def test_exact_matches_enumeration(n, R):
    want = brute_kplus(n, R)
    res = exact_kplus(n, R)
    assert res.status == "exact"
    assert res.value == want
    assert len(res.witness) == want
    assert covers(res.witness, R)


def test_exact_small_reference_block():
    values = {
        (2, 1): 2,
        (3, 1): 3,
        (4, 1): 6,
        (5, 1): 10,
        (5, 2): 5,
        (6, 2): 8,
        (6, 3): 4,
    }
    for (n, R), want in values.items():
        res = exact_kplus(n, R)
        assert res.value == want, (n, R)
        assert covers(res.witness, R)


def test_exact_diagonal_rows():
    for n in range(1, 7):
        assert exact_kplus(n, n).value == 1
        if n >= 2:
            assert exact_kplus(n, n - 1).value == 2


def test_exact_radius_zero():
    res = exact_kplus(3, 0)
    assert res.value == 8
    assert covers(res.witness, 0)


def test_exact_rejects_bad_parameters():
    with pytest.raises(ValueError):
        exact_kplus(3, 4)
    with pytest.raises(ValueError):
        exact_kplus(3, -1)
    with pytest.raises(ValueError):
        exact_kplus(EXACT_MAX_N + 1, 1)
    with pytest.raises(ValueError):
        exact_kplus(0, 0)


def test_exact_is_deterministic():
    a = exact_kplus(5, 1)
    b = exact_kplus(5, 1)
    assert a.value == b.value
    assert a.witness == b.witness
    assert a.nodes == b.nodes


def test_exact_reports_node_and_time():
    # (4,1): the analytic lower already meets the greedy incumbent, so the
    # search proves optimality without expanding a single node
    assert exact_kplus(4, 1).nodes == 0
    res = exact_kplus(5, 1)
    assert res.nodes > 0
    assert res.elapsed >= 0.0


def test_bracket_mode_on_tiny_node_budget():
    res = exact_kplus(6, 1, node_limit=200)
    assert res.status == "bracket"
    lo, hi = res.bracket
    assert lo <= 18 <= hi
    assert res.value is None
    assert len(res.witness) == hi
    assert covers(res.witness, 1)


def test_bracket_mode_on_tiny_time_budget():
    # (6,1) now settles in about 10 ms, before the first clock check; (7,1) needs a second
    res = exact_kplus(7, 1, time_limit=0.01)
    assert res.status == "bracket"
    assert res.bracket[0] <= 31 <= res.bracket[1]


def test_progress_callback_sees_increasing_lowers():
    seen = []
    exact_kplus(6, 1, on_progress=lambda lo, inc, nodes: seen.append((lo, inc, nodes)))
    assert seen
    lowers = [lo for lo, _, _ in seen]
    assert lowers == sorted(lowers)
    assert all(lo <= inc for lo, inc, _ in seen)


def test_verify_optimal():
    for n, R in ((4, 1), (4, 0), (5, 5), (6, 2)):
        assert verify_optimal(exact_kplus(n, R))
    bracket = exact_kplus(6, 1, node_limit=100)
    with pytest.raises(ValueError):
        verify_optimal(bracket)
    fake = ExactResult(
        n=4,
        R=1,
        status="exact",
        value=5,
        bracket=None,
        witness=Code.from_words(4, [15, 14, 13, 12, 11], r=1),
        nodes=1,
        elapsed=0.0,
    )
    assert not verify_optimal(fake)


# (status, value, bracket, nodes, SHA-256 of the witness words), node limit per cell
EXACT_PINS = {
    (5, 1, None): ("exact", 10, None, 12, "26f966fa79d8e498"),
    (6, 1, None): ("exact", 18, None, 6474, "46bd09f549d12971"),
    (6, 2, None): ("exact", 8, None, 8, "e4681bd3d8b79c80"),
    (7, 3, None): ("exact", 7, None, 46996, "cbadf07f83a4571e"),
    (7, 2, 20_000): ("bracket", None, (13, 15), 20480, "2461c3108caa0082"),
    (7, 1, 20_000): ("bracket", None, (29, 31), 20480, "25339eef745efd63"),
}


@pytest.mark.parametrize("n,R,limit", list(EXACT_PINS))
def test_exact_pinned(n, R, limit):
    res = exact_kplus(n, R, time_limit=None, node_limit=limit)
    digest = hashlib.sha256(repr(res.witness.words).encode()).hexdigest()[:16]
    assert (res.status, res.value, res.bracket, res.nodes, digest) == EXACT_PINS[n, R, limit]


def test_exact_proves_kplus_7_1():
    res = exact_kplus(7, 1, time_limit=None)
    assert (res.status, res.value, len(res.witness)) == ("exact", 31, 31)
    assert covers(res.witness, 1)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("R,size", [(1, 31), (2, 14)])
def test_shipped_witness_verifies(R, size, capsys):
    # K+(7,1) = 31 is proved above; K+(7,2) = 14 by an 8.8 M-node search too slow for this suite
    assert cli.main(["verify", str(DATA / f"kplus-7-{R}.json"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["covers"], out["size"], out["r"]) == (True, size, R)
