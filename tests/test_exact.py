"""Exact minimum covers checked against a subset-enumeration oracle."""

import hashlib
import json
from itertools import combinations, permutations
from pathlib import Path

import pytest

from asymcover import cli, exact, ipsolve
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
        len(result.witness) == result.upper
        and covers(result.witness, result.R)
        and (result.R == 0 or ip_plus(result.n, result.R).value <= result.upper)
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
    assert res.lower == res.upper == want
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
        assert (res.lower, res.upper) == (want, want), (n, R)
        assert covers(res.witness, R)


def test_exact_diagonal_rows():
    for n in range(1, 7):
        res = exact_kplus(n, n)
        assert (res.lower, res.upper) == (1, 1)
        if n >= 2:
            res = exact_kplus(n, n - 1)
            assert (res.lower, res.upper) == (2, 2)


def test_exact_radius_zero():
    res = exact_kplus(3, 0)
    assert res.lower == res.upper == 8
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


@pytest.mark.parametrize(
    "limits",
    [{"node_limit": 0}, {"node_limit": -5}, {"time_limit": 0}, {"time_limit": -1.0}],
    ids=["nodes-0", "nodes-negative", "time-0", "time-negative"],
)
def test_exact_refuses_non_positive_limits(limits):
    # each of these once returned a 17-18 bracket at (6,1) after 4,096 nodes
    with pytest.raises(ValueError, match="must be positive"):
        exact_kplus(6, 1, **limits)


def test_exact_is_deterministic():
    a = exact_kplus(5, 1)
    b = exact_kplus(5, 1)
    assert (a.lower, a.upper, a.witness, a.nodes) == (b.lower, b.upper, b.witness, b.nodes)


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
    assert res.lower <= 18 <= res.upper
    assert len(res.witness) == res.upper
    assert covers(res.witness, 1)


def test_bracket_mode_on_tiny_time_budget():
    # (6,1) now settles in about 10 ms, before the first clock check; (7,1) needs a second
    res = exact_kplus(7, 1, time_limit=0.01)
    assert res.status == "bracket"
    assert res.lower <= 31 <= res.upper


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
        lower=5,
        upper=5,
        witness=Code.from_words(4, [15, 14, 13, 12, 11], r=1),
        nodes=1,
        elapsed=0.0,
    )
    assert not verify_optimal(fake)


# (lower, upper, nodes, SHA-256 of the witness words), node limit per cell
EXACT_PINS = {
    (5, 1, None): (10, 10, 15, "26f966fa79d8e498"),
    (6, 1, None): (18, 18, 6_420, "46bd09f549d12971"),
    (6, 2, None): (8, 8, 8, "e4681bd3d8b79c80"),
    (7, 3, None): (7, 7, 5_885, "cbadf07f83a4571e"),
    (7, 2, 20_000): (13, 15, 20480, "2461c3108caa0082"),
    (7, 1, 20_000): (29, 31, 20480, "25339eef745efd63"),
}


@pytest.mark.parametrize("n,R,limit", list(EXACT_PINS))
def test_exact_pinned(n, R, limit):
    res = exact_kplus(n, R, time_limit=None, node_limit=limit)
    digest = hashlib.sha256(repr(res.witness.words).encode()).hexdigest()[:16]
    assert (res.lower, res.upper, res.nodes, digest) == EXACT_PINS[n, R, limit]


def _digest(code):
    return hashlib.sha256(repr(code.words).encode()).hexdigest()[:16]


# (lower, upper, SHA-256 of the witness words) of every cell with n <= 6, as
# the search found them before it skipped symmetric candidates
SMALL_PINS = {
    (1, 0): (2, 2, "a5cabe61309cbdb1"), (1, 1): (1, 1, "28cb03b06c288e88"),
    (2, 0): (4, 4, "c5c25158dde5b90a"), (2, 1): (2, 2, "1f1868f06925b617"),
    (2, 2): (1, 1, "4079e4af87d7d813"),
    (3, 0): (8, 8, "71347777824d0062"), (3, 1): (3, 3, "28d8b2453baa2c28"),
    (3, 2): (2, 2, "c335c2cd654ba506"), (3, 3): (1, 1, "24a6ade6d35f1e5e"),
    (4, 0): (16, 16, "f564ce1656cb7499"), (4, 1): (6, 6, "d12412604c4f5c90"),
    (4, 2): (3, 3, "9c273730e7e54689"), (4, 3): (2, 2, "5593595ecefa804f"),
    (4, 4): (1, 1, "4fdda04c7f662284"),
    (5, 0): (32, 32, "57923ae6ab3ccb0a"), (5, 1): (10, 10, "26f966fa79d8e498"),
    (5, 2): (5, 5, "acb7eaf8c0d05e08"), (5, 3): (3, 3, "191b67f790cef981"),
    (5, 4): (2, 2, "1a254effc608ec8e"), (5, 5): (1, 1, "f56a3e9962be711f"),
    (6, 0): (64, 64, "5f3006cab71f62de"), (6, 1): (18, 18, "46bd09f549d12971"),
    (6, 2): (8, 8, "e4681bd3d8b79c80"), (6, 3): (4, 4, "402d7f607737577a"),
    (6, 4): (3, 3, "b1e0c8e3f92be364"), (6, 5): (2, 2, "c28daf61effda2c5"),
    (6, 6): (1, 1, "9138ff35047962e2"),
}


def test_exact_small_cells_keep_their_witnesses():
    assert sorted(SMALL_PINS) == [(n, R) for n in range(1, 7) for R in range(n + 1)]
    for (n, R), want in SMALL_PINS.items():
        res = exact_kplus(n, R, time_limit=None)
        assert (res.lower, res.upper, _digest(res.witness)) == want, (n, R)


# nodes with no transposition table
TT_OFF_NODES = {(5, 1): 15, (6, 1): 12_562, (6, 2): 8, (7, 3): 6_289}


@pytest.mark.parametrize("n,R", list(TT_OFF_NODES))
def test_orbit_skipping_needs_no_transposition_table(n, R, monkeypatch):
    # with no proven-infeasible states stored, the skipped candidates must still
    # be exactly the ones whose subtrees fail: the witnesses cannot move, and
    # the bound alone cuts the same children
    monkeypatch.setattr(exact, "TT_CAP", 0)
    res = exact_kplus(n, R, time_limit=None)
    lower, upper, _, digest = EXACT_PINS[n, R, None]
    assert (res.lower, res.upper, res.nodes, _digest(res.witness)) == (
        lower, upper, TT_OFF_NODES[n, R], digest)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _permute(word, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if word >> i & 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_key_matches_the_orbits(n):
    # equal keys exactly when a permutation that keeps every cell and fixes y
    # maps one superset of y onto the other: a coarser key would skip a
    # candidate that no symmetry relates to one already tried
    for partition in _set_partitions(list(range(n))):
        cells = tuple(sum(1 << i for i in cell) for cell in partition)
        keeping = [
            perm for perm in permutations(range(n))
            if all(_permute(cell, perm) == cell for cell in cells)
        ]
        for y in range(1 << n):
            group = [perm for perm in keeping if _permute(y, perm) == y]
            supersets = [c for c in range(1 << n) if c & y == y]
            for c in supersets:
                orbit = {_permute(c, perm) for perm in group}
                for c2 in supersets:
                    same_key = exact._orbit_key(c, cells) == exact._orbit_key(c2, cells)
                    assert same_key == (c2 in orbit), (cells, y, c, c2)


def test_exact_bracket_at_n_8():
    # the table's bracket is 9-13; a 60 s search proves 11-13
    res = exact_kplus(8, 3, time_limit=None, node_limit=400_000)
    assert (res.lower, res.upper, res.nodes, _digest(res.witness)) == (
        10, 13, 401_408, "e1a5bdbc92a89c42")
    assert covers(res.witness, 3)


def test_exact_solves_the_size_program_on_every_call(monkeypatch):
    # a cell solved before in the same process must not hide the search's own solve
    exact_kplus(5, 1)
    seen = []
    real = ipsolve.ip_plus
    monkeypatch.setattr(ipsolve, "ip_plus", lambda n, R: seen.append((n, R)) or real(n, R))
    assert exact_kplus(5, 1).upper == 10
    assert seen == [(5, 1)]


def test_exact_proves_kplus_7_1():
    res = exact_kplus(7, 1, time_limit=None)
    assert (res.status, res.upper, len(res.witness)) == ("exact", 31, 31)
    assert covers(res.witness, 1)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("R,size", [(1, 31), (2, 14)])
def test_shipped_witness_verifies(R, size, capsys):
    # K+(7,1) = 31 is proved above; K+(7,2) = 14 by a 4.5 M-node search too slow for this suite
    assert cli.main(["verify", str(DATA / f"kplus-7-{R}.json"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["covers"], out["size"], out["r"]) == (True, size, R)
