"""Exact minimum covers checked against a subset-enumeration oracle."""

import gc
import hashlib
import json
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import pytest

from asymcover import cli, exact, ipsolve
from asymcover.bounds import EXACT_ANCHORS
from asymcover.codefiles import load_code
from asymcover.cube import Code, DimensionCapError, ball_down, ball_sets, covers, full_set
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
    with pytest.raises(DimensionCapError, match=f"^exact search supports 1 <= n <= {EXACT_MAX_N}$"):
        exact_kplus(EXACT_MAX_N + 1, 1)
    with pytest.raises(ValueError):
        exact_kplus(0, 0)


@pytest.mark.parametrize(
    "limits",
    [{"node_limit": 0}, {"node_limit": -5}],
    ids=["nodes-0", "nodes-negative"],
)
def test_exact_refuses_non_positive_limits(limits):
    # each of these once returned a 17-18 bracket at (6,1) after 4,096 nodes
    with pytest.raises(ValueError, match="must be positive"):
        exact_kplus(6, 1, **limits)


def test_exact_is_deterministic():
    # the result holds no time: equal arguments give equal results, witness
    # and node count included
    assert exact_kplus(5, 1) == exact_kplus(5, 1)
    assert exact_kplus(6, 1, node_limit=200) == exact_kplus(6, 1, node_limit=200)


def test_exact_reports_node_and_time():
    # (4,1): the analytic lower already meets the greedy incumbent, so the
    # search proves optimality without expanding a single node
    assert exact_kplus(4, 1).nodes == 0
    assert exact_kplus(5, 1).nodes > 0


def test_bracket_mode_on_tiny_node_budget():
    res = exact_kplus(6, 1, node_limit=200)
    assert res.status == "bracket"
    assert res.lower <= 18 <= res.upper
    assert len(res.witness) == res.upper
    assert covers(res.witness, 1)


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
    )
    assert not verify_optimal(fake)


# (lower, upper, nodes, SHA-256 of the witness words), node limit per cell
# (None: the default); the nodes include the searches down the column, and
# a stopped search visits exactly its limit of nodes
EXACT_PINS = {
    (5, 1, None): (10, 10, 15, "26f966fa79d8e498"),
    (6, 1, None): (18, 18, 6_435, "46bd09f549d12971"),
    (6, 2, None): (8, 8, 8, "e4681bd3d8b79c80"),
    (7, 3, None): (7, 7, 5_901, "cbadf07f83a4571e"),
    (7, 2, 20_000): (13, 15, 20_000, "2461c3108caa0082"),
    (7, 1, 20_000): (30, 31, 20_000, "25339eef745efd63"),
}


@pytest.mark.parametrize("n,R,limit", list(EXACT_PINS))
def test_exact_pinned(n, R, limit):
    res = exact_kplus(n, R, node_limit=limit or ipsolve.DEFAULT_NODE_CAP)
    digest = hashlib.sha256(repr(res.witness.words).encode()).hexdigest()[:16]
    assert (res.lower, res.upper, res.nodes, digest) == EXACT_PINS[n, R, limit]


# SHA-256 of `exact --json`'s stdout for the benchmark's four exact commands,
# with their exit codes: the output holds no time, so it is a function of argv
JSON_DIGESTS = {
    "--n 6 --r 1": (0, "5066612b578ab21730ce91ccd95b0f1734b3a256d4e60eafe6420cc6e2ce2c84"),
    "--n 7 --r 3": (0, "4d797b28a5a25270e562c054b8c5e2e2070bb5b206b518d0de43e5c17eefc392"),
    "--n 7 --r 2 --node-limit 20000":
        (3, "7a8472599f88dca9e88d9042f88476d2ffc614f92648d5a978d0d17eab624a37"),
    "--n 7 --r 1 --node-limit 20000":
        (3, "6d8b18983d924e07153bb57f6610eb019d780e5eaff652da55d8d840ab508b6f"),
}


@pytest.mark.parametrize("args", list(JSON_DIGESTS))
def test_exact_json_is_byte_reproducible(args, capsys):
    for _ in range(2):
        rc = cli.main(["exact", *args.split(), "--json"])
        out = capsys.readouterr().out
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == JSON_DIGESTS[args]


def test_a_request_enters_exact_kplus_once(monkeypatch):
    # the column below is searched by a private helper, so a wrapper on the
    # public name, such as a tracer's, sees one call per request
    entered = []
    real = exact.exact_kplus

    def counted(*args, **kwargs):
        entered.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exact, "exact_kplus", counted)
    res = exact.exact_kplus(7, 1, node_limit=20_000)
    assert entered == [(7, 1)]
    assert (res.lower, res.upper, res.nodes) == (30, 31, 20_000)


def test_the_column_shares_the_node_limit():
    # the searches of (2..6, 1) count against the limit of (7, 1): stopped in
    # (6, 1), the search still starts no lower than the bare chain's 29
    res = exact_kplus(7, 1, node_limit=100)
    assert (res.lower, res.upper, res.nodes) == (29, 31, 100)
    # (6, 1) settles at 18 in 6,435 of the 20,000 nodes, one above the chain's 17
    res = exact_kplus(7, 1, node_limit=20_000)
    assert (res.lower, res.upper, res.nodes) == (30, 31, 20_000)


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
        res = exact_kplus(n, R)
        assert (res.lower, res.upper, _digest(res.witness)) == want, (n, R)


# nodes with no transposition table
TT_OFF_NODES = {(5, 1): 15, (6, 1): 12_577, (6, 2): 8, (7, 3): 6_305}


@pytest.mark.parametrize("n,R", list(TT_OFF_NODES))
def test_orbit_skipping_needs_no_transposition_table(n, R, monkeypatch):
    # with no proven-infeasible states stored, the skipped candidates must still
    # be exactly the ones whose subtrees fail: the witnesses cannot move, and
    # the bound alone cuts the same children
    monkeypatch.setattr(exact, "TT_CAP", 0)
    res = exact_kplus(n, R)
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


@pytest.mark.parametrize("n", range(1, 6))
def test_candidates_with_one_orbit_key_have_one_gain(n):
    # dfs keeps only the least candidate of each key and then sorts by gain,
    # which is sound only if every candidate of a key covers as much of u: here
    # u is the cube less the balls of the all-ones word and of up to two unions
    # of cells, as a node's chosen words are
    top = (1 << n) - 1
    for R in range(1, n + 1):
        balls = ball_sets(n, R)
        for partition in _set_partitions(list(range(n))):
            cells = tuple(sum(1 << i for i in cell) for cell in partition)
            unions = [sum(cell for i, cell in enumerate(cells) if pick >> i & 1)
                      for pick in range(1 << len(cells))]
            rest = full_set(n) & ~balls[top]
            for u in {rest} | {rest & ~balls[a] & ~balls[b] for a in unions for b in unions}:
                for y in (y for y in range(1 << n) if u >> y & 1):
                    gains = {}
                    for c in (top ^ x for x in ball_down(top ^ y, R, n)):
                        key = exact._orbit_key(c, cells)
                        gains.setdefault(key, set()).add((balls[c] & u).bit_count())
                    assert all(len(g) == 1 for g in gains.values()), (R, cells, u, y)


def test_exact_bracket_at_n_8():
    # the table's bracket is 9-13; the default node limit proves 11-13
    res = exact_kplus(8, 3, node_limit=400_000)
    assert (res.lower, res.upper, res.nodes, _digest(res.witness)) == (
        10, 13, 400_000, "e1a5bdbc92a89c42")
    assert covers(res.witness, 3)


# (n, R, node limit): (lower, upper, witness digest); a stopped search visits
# exactly its limit, so a child loop that counted one node more or less
# would move the limit at which each bracket closes
LIMIT_BOUNDARIES = {
    # the column's (6, 1) proof completes at node 6,435 and lifts the start to 30
    (7, 1, 6_434): (29, 31, "25339eef745efd63"),
    (7, 1, 6_435): (30, 31, "25339eef745efd63"),
    (7, 3, 5_900): (6, 7, "cbadf07f83a4571e"),
    (7, 3, 5_901): (7, 7, "cbadf07f83a4571e"),
    (8, 2, 50_000): (20, 24, "24fc783f17282e4c"),
    (8, 1, 50_000): (52, 64, "0c2f94c956236ffe"),
}


@pytest.mark.parametrize("n,R,limit", list(LIMIT_BOUNDARIES))
def test_node_limit_boundaries(n, R, limit):
    res = exact_kplus(n, R, node_limit=limit)
    lower, upper, digest = LIMIT_BOUNDARIES[n, R, limit]
    assert (res.lower, res.upper, res.nodes, _digest(res.witness)) == (lower, upper, limit, digest)


def test_exact_solves_its_zero_count_chain_on_every_call(monkeypatch):
    # a cell searched before in the same process must not hide the search's own
    # solves: it starts from the chain's steps at (k, 1), k = 2..5, never from
    # ip_plus, and of those only (4, 1) needs the program, as the closed-form
    # bounds on phi settle the others
    exact_kplus(5, 1)
    seen = []

    def traced(name):
        real = getattr(ipsolve, name)
        return lambda n, R, *a, **kw: seen.append((name, n, R)) or real(n, R, *a, **kw)

    for name in ("ip_plus", "ip_phi", "phi_step"):
        monkeypatch.setattr(ipsolve, name, traced(name))
    assert exact_kplus(5, 1).upper == 10
    assert seen == [("phi_step", 2, 1), ("phi_step", 3, 1), ("phi_step", 4, 1),
                    ("ip_phi", 4, 1), ("phi_step", 5, 1)]


def test_a_column_level_with_nothing_to_search_solves_no_lp(monkeypatch):
    # at (2..4, 1) greedy meets the chain's start, so those levels build no
    # tables and solve no size-program LP; (5, 1), (6, 1) and (7, 1) search.
    # Every level's chain step prices the zero-count program, which is not traced
    seen = []
    real = ipsolve.lp_prices

    def traced(n, R, costs):
        if costs == (1,) * (n + 1):
            seen.append((n, R))
        return real(n, R, costs)

    monkeypatch.setattr(ipsolve, "lp_prices", traced)
    res = exact_kplus(7, 1, node_limit=20_000)
    assert (res.lower, res.upper, res.nodes) == (30, 31, 20_000)
    assert seen == [(5, 1), (6, 1), (7, 1)]


def test_exact_frees_its_tables_when_it_returns():
    # with the cyclic collector off, nothing of a stopped (7, 1) search's
    # transposition table and per-vertex tables may outlive the call
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = exact_kplus(7, 1, node_limit=50_000)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert (res.status, res.nodes) == ("bracket", 50_000)
    assert kept < 200_000  # about 0.96 MB when the tables outlived the call


DATA = Path(__file__).resolve().parent / "data"


# what each anchor's proof pins beyond its value: the node count, column
# included, and a shipped witness that the search's own must equal, where the
# anchor passes the reference
ANCHOR_PROOFS = {(5, 1): (15, None), (6, 1): (6_435, None), (6, 2): (8, None),
                 (7, 2): (4_497_154, "kplus-7-2.json")}


@pytest.mark.parametrize("n,R", list(EXACT_ANCHORS))
def test_exact_reproves_every_anchor(n, R):
    # from scratch at the default limit: the table reads these values without
    # searching, so this run is their proof
    res = exact_kplus(n, R)
    value = EXACT_ANCHORS[n, R]
    assert (res.status, res.lower, res.upper) == ("exact", value, value)
    assert len(res.witness) == res.upper
    assert covers(res.witness, R)
    if (n, R) in ANCHOR_PROOFS:
        nodes, witness = ANCHOR_PROOFS[n, R]
        assert res.nodes == nodes
        if witness:
            assert res.witness.words == load_code(str(DATA / witness)).words


@pytest.mark.parametrize("n,R", [cell for cell in EXACT_ANCHORS if cell != (7, 2)])
def test_exact_reproves_the_anchors_without_the_transposition_table(n, R, monkeypatch):
    # a second proof of each anchor, by a search that stores no proven-infeasible
    # state: (5, 1) takes 15 nodes, (6, 1) 12,577, (6, 2) 8, (7, 3) 6,305 and
    # (7, 1) 2,799,530, about 2 s.  (7, 2) would take 14.8 M nodes, about 7 s,
    # so it keeps the one proof above, whose witness equals the shipped one
    monkeypatch.setattr(exact, "TT_CAP", 0)
    res = exact_kplus(n, R)
    value = EXACT_ANCHORS[n, R]
    assert (res.status, res.lower, res.upper) == ("exact", value, value)
    assert covers(res.witness, R)


@pytest.mark.parametrize("R,size", [(1, 31), (2, 14)])
def test_shipped_witness_verifies(R, size, capsys):
    # K+(7,1) = 31 and K+(7,2) = 14 are re-proved above, the latter with this very witness
    assert cli.main(["verify", str(DATA / f"kplus-7-{R}.json"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["covers"], out["size"], out["r"]) == (True, size, R)
