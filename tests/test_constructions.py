"""Constructions checked against brute-force oracles and frozen small values."""

import hashlib
import math
from fractions import Fraction

import pytest

from asymcover import constructions
from asymcover.constructions import (
    GREEDY_MAX_N,
    PatchedCode,
    coradius_split,
    diagonal_code,
    direct_sum,
    estimate_alpha,
    general_upper_code,
    general_upper_size,
    greedy_code,
    inductive_power2,
    nu,
    random_code_nu,
    random_patched,
    semi_direct_sum,
)
from asymcover.cube import (
    Code,
    DimensionCapError,
    all_ones,
    ball_down,
    covers,
    uncovered,
)
from asymcover.ipsolve import BudgetExceededError


def brute_nu(n, R):
    """Sum over vertices of 1 / |upward ball|, counted explicitly."""
    total = Fraction(0)
    for v in range(1 << n):
        up = sum(
            1
            for u in range(1 << n)
            if v & u == v and u.bit_count() - v.bit_count() <= R
        )
        total += Fraction(1, up)
    return total


def eager_greedy(n, R):
    """Reference greedy: rescore every mask each round, smallest mask wins ties."""
    covered = [False] * (1 << n)
    chosen = []
    while not all(covered):
        best_gain, best_mask = -1, None
        for c in range(1 << n):
            g = sum(1 for v in ball_down(c, R, n) if not covered[v])
            if g > best_gain:
                best_gain, best_mask = g, c
        chosen.append(best_mask)
        for v in ball_down(best_mask, R, n):
            covered[v] = True
    return sorted(chosen)


def min_split_product(n, coradius):
    """Least prod(r_i + 1) over all exact splits whose triangular dimensions fit."""
    best = [None]

    def rec(rest, max_part, dims_left, product):
        if rest == 0:
            if best[0] is None or product < best[0]:
                best[0] = product
            return
        for part in range(min(rest, max_part), 0, -1):
            tri = part * (part + 1) // 2
            if tri <= dims_left:
                rec(rest - part, part, dims_left - tri, product * (part + 1))

    rec(coradius, coradius, n, 1)
    return best[0]


def general_upper_value(n, coradius):
    """Formula target (floor(r/M)+1)^M with M = ceil(r^2/(2n-r)).

    This is the split-size formula evaluated at the smallest part count; in
    dimensions where no exact coradius split fits that part count the
    constructive size exceeds it, so bound aggregation uses the constructed
    size (general_upper_size), never this formula.
    """
    m = max(1, -(-(coradius * coradius) // (2 * n - coradius)))
    return (coradius // m + 1) ** m


def test_diagonal_pinned_q3():
    code = diagonal_code(3, 2)
    assert code.words == (1, 6, 7)
    assert code.r == 1
    assert covers(code, 1)


@pytest.mark.parametrize("coradius", [0, 1, 2, 3, 4, 5])
def test_diagonal_at_threshold(coradius):
    n = max(1, coradius * (coradius + 1) // 2)
    code = diagonal_code(n, coradius)
    assert len(code) == coradius + 1
    assert code.r == n - coradius
    assert covers(code, code.r)
    if code.r > 0:
        assert not covers(code, code.r - 1)


def test_diagonal_above_threshold():
    code = diagonal_code(9, 3)
    assert len(code) == 4
    assert covers(code, 6)


def test_diagonal_rejects_small_dimension():
    with pytest.raises(ValueError):
        diagonal_code(5, 3)


def test_direct_sum_layout_and_cover():
    c1 = diagonal_code(3, 2)  # r = 1
    c2 = diagonal_code(3, 1)  # r = 2
    s = direct_sum(c1, c2)
    assert s.n == 6
    assert s.r == 3
    assert len(s) == len(c1) * len(c2)
    want = {x | (y << 3) for x in c1.words for y in c2.words}
    assert set(s.words) == want
    assert covers(s, 3)


def test_direct_sum_radius_needs_both_annotations():
    c1 = diagonal_code(3, 2)
    bare = Code.from_words(2, [3])
    assert direct_sum(c1, bare).r is None


@pytest.mark.parametrize("n,R", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_nu_matches_brute_force(n, R):
    assert nu(n, R) == brute_nu(n, R)


def test_nu_pinned():
    assert nu(4, 1) == Fraction(31, 5)


def test_alpha_pinned_and_oracle():
    for R in (1, 2):
        terms = [brute_nu(m, R) * m**R / Fraction(2**m) for m in range(1, 9)]
        assert estimate_alpha(R) >= max(terms)
    assert nu(1, 1) / 2 == Fraction(3, 4)  # the first term of the scan at R = 1


def test_alpha_grows_with_scan_cap():
    # the scanned quantity increases toward its limit, so the estimate is the
    # last term of the scan; its value is frozen here
    def term(m):
        return nu(m, 1) * m / Fraction(2**m)

    assert term(10) <= term(30) <= estimate_alpha(1) == term(40)
    assert float(estimate_alpha(1)) == pytest.approx(1.951219, abs=1e-5)
    assert float(estimate_alpha(2)) == pytest.approx(8.410212, abs=1e-5)


def test_random_patched_small_delta_keeps_only_the_top_word():
    # delta n^R / alpha <= 1 puts probability 0 below the top level, and the
    # top word is always kept; the patch takes everything else it misses
    for delta in (0, Fraction(1, 10**9)):
        p = random_patched(6, 1, delta, seed=3)
        assert p.S.words == (all_ones(6),)
        assert set(p.T.words) == set(uncovered(p.S, 1))
        assert p.is_valid()


def test_random_patched_is_valid_and_deterministic():
    p1 = random_patched(6, 1, Fraction(1, 2), seed=5)
    p2 = random_patched(6, 1, Fraction(1, 2), seed=5)
    assert p1 == p2
    assert p1.is_valid()
    assert set(p1.T.words) == set(uncovered(p1.S, 1))


def test_patched_code_validation():
    s = Code.from_words(2, [3])
    with pytest.raises(ValueError):
        PatchedCode(n=3, R=1, S=s, T=s)
    with pytest.raises(ValueError):
        PatchedCode(n=2, R=-1, S=s, T=s)
    with pytest.raises(ValueError):
        random_patched(3, 1, Fraction(-1), seed=0)


def test_semi_direct_sum_smallest_case():
    p = PatchedCode(n=1, R=1, S=Code.from_words(1, [1]), T=Code.from_words(1, []))
    inner = Code.from_words(1, [1], r=1)
    out = semi_direct_sum(p, inner)
    assert out.n == 2
    assert set(out.words) == {2, 3}
    assert covers(out, 1)


def test_semi_direct_sum_layout_oracle():
    p = random_patched(4, 1, Fraction(1, 2), seed=11)
    inner = diagonal_code(3, 2)  # r = 1
    out = semi_direct_sum(p, inner)
    k = inner.n
    want = set()
    for x in p.S.words:
        want.update((x << k) | u for u in range(1 << k))
    for x in p.T.words:
        want.update((x << k) | u for u in inner.words)
    assert set(out.words) == want
    assert out.n == p.n + k
    assert covers(out, 1)


def test_semi_direct_sum_requires_matching_radius():
    p = random_patched(3, 1, Fraction(1, 2), seed=0)
    with pytest.raises(ValueError):
        semi_direct_sum(p, Code.from_words(2, [3]))
    with pytest.raises(ValueError):
        semi_direct_sum(p, Code.from_words(2, [3], r=2))


def test_inductive_power2():
    base = inductive_power2(0, 1, seed=0)
    assert base.n == 1 and base.words == (1,)
    for m in (1, 2, 3):
        code = inductive_power2(m, 1, seed=4)
        assert code.n == 1 << m
        assert covers(code, 1)
        again = inductive_power2(m, 1, seed=4)
        assert code == again


def test_random_code_nu_always_covers():
    for seed in range(3):
        code = random_code_nu(7, 2, seed)
        assert covers(code, 2)
        assert code.r == 2
    assert random_code_nu(7, 2, 1) == random_code_nu(7, 2, 1)


def words_digest(code):
    return hashlib.sha256(",".join(map(str, code.words)).encode()).hexdigest()


@pytest.mark.parametrize(
    "n,R,seed,size,digest",
    [
        # ln(2^n / nu) < 1 at these two, so even the top word is drawn with
        # probability below 1 and the patch may add words it would cover
        (3, 1, 1, 6, "b7bcded7172f128ad30be97adad7cb2d6375d3dbc175af610f749069602b7382"),
        (4, 1, 2, 9, "48f9b6e1d67023287dcfaf8ade76ba0648e6217add165229d28e1b2669f48b97"),
        (7, 2, 0, 31, "4d9291b3311770629d2404eb30bfea7e43e3454cee9623202b70311ea6355187"),
        (7, 2, 1, 38, "eb7828209b973bdb34b67a2df6391ab79ce8bb188a7562d1f94672ffd695706a"),
        (7, 2, 2, 35, "47fa63c318da5d11cf393a5052aeb140bbca2eb16749220b85509b9bec179a60"),
        (12, 3, 0, 502, "3830cb618dae0256eb68029665fee3be9cc3aeb119a1ca1346f24338c78d37bc"),
        (12, 3, 1, 522, "bafd61590327296af065ad6b76c4276a3c72fb6bb5d442c8deec1620b3676bf0"),
        (12, 3, 2, 482, "2d48b5a0cd455eaa92ffeb9704d68f36a6dafabac4c02cd7e69a5cc0102e724d"),
        (16, 4, 0, 3427, "33e11eb32c806284a200165224a64bca3aada50ce3a1eb5a7fed0981ad36f5c9"),
        (16, 4, 1, 3475, "1d7b2725b447121c08a1827bfcae2c41b0c41105f2ae455e6c262f7f186ac908"),
        (16, 4, 2, 3406, "a91c4e36da7020195e180854260cc00839ef3690c14a7531a23fdcd29474f8e7"),
    ],
)
def test_random_code_nu_pinned(n, R, seed, size, digest):
    # the words the nu sampler drew when it walked Q_n through RandomModel
    code = random_code_nu(n, R, seed)
    assert len(code) == size
    assert words_digest(code) == digest


def test_random_patched_pinned():
    p = random_patched(6, 1, Fraction(1, 2), seed=5)
    assert len(p.S) == 10
    assert words_digest(p.S) == "147d1bcb7bc2fa2d3b7e01fc4c1de870299a1cf530ee088044a005d3a548e576"
    assert len(p.T) == 24
    assert words_digest(p.T) == "3f30bcffefa3b1407b9f2cb01c03c25df26fbec450212f7f61d3a66ff2002db2"


@pytest.mark.parametrize(
    "m,size,digest",
    [
        (1, 2, "46584c88c62d575eca10a01b7c96b76ee70c876d24e57e8448b4fade22eba959"),
        (2, 6, "cfbed55925bc7b6f1f3874b8dc0ad75de62c8887615bbd91c04405296bca3d0a"),
        (3, 82, "cdec46d6a465779379101097b91ecd2dc27cf6b75ec658946eb7b9a3bbca566e"),
        (4, 17470, "c4d93702c89d902db53baef75324a8e0990e7e384599c2eb543438a6398c8d71"),
    ],
)
def test_inductive_power2_pinned(m, size, digest):
    code = inductive_power2(m, 1, seed=4)
    assert len(code) == size
    assert words_digest(code) == digest


def test_greedy_pinned_q3():
    assert greedy_code(3, 1).words == (1, 6, 7)


@pytest.mark.parametrize(
    "n,R",
    [
        (1, 0), (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2),
        (6, 0), (6, 1), (7, 1), (8, 2), (9, 4), (10, 10), (11, 8), (12, 9),
    ],
)
def test_greedy_matches_eager_reference(n, R):
    lazy = greedy_code(n, R)
    assert list(lazy.words) == eager_greedy(n, R)
    assert covers(lazy, R)
    assert lazy.r == R


GREEDY_12_3 = "9140e2b9b4fabf014d2a0c8439fc6cfb9b44c1a4d1f33fa4526f9beec752c562"


def test_greedy_pinned_12_3():
    # the words greedy chose at (12, 3) before its gains moved to bitsets
    code = greedy_code(12, 3)
    assert len(code) == 105
    assert words_digest(code) == GREEDY_12_3


@pytest.mark.parametrize(
    "n,R,size,digest",
    [
        (12, 6, 14, "cd6a038314835916274bd2700b02b14269b7aee81abbef723e0065e68a7a1fc4"),
        (14, 2, 874, "b6697ef8f9593bdf3c1978a527e0f72fffe99c40a7449bf08a390986d8da7bd6"),
        (16, 1, 10933, "29b185ed4b2ded5bd7dd7d76930cd9b545d35d8a339f4ece70b50e91225858d7"),
        (14, 6, 36, "b0c377bc677412954b5a75c0dcd0f7b919f11913a6cfa0e46d3b2b779e468f64"),
        (15, 6, 59, "ec29bbff578c6cd596ab86683bb7bbf90f349d2a23ff969c690e9a58e2cce7fa"),
    ],
    ids=["12-6", "14-2", "16-1", "14-6", "15-6"],
)
def test_greedy_pinned_large(n, R, size, digest):
    # the words greedy chose when it counted these gains over ball_down per
    # candidate, and at (14,6) and (15,6) when it kept a count of covered
    # vertices per center
    code = greedy_code(n, R)
    assert len(code) == size
    assert hashlib.sha256(",".join(map(str, code.words)).encode()).hexdigest() == digest


def grid_digest(n_max):
    """Digest of greedy's words at every cell 2 <= n <= n_max, 1 <= R < n."""
    h = hashlib.sha256()
    for n in range(2, n_max + 1):
        for R in range(1, n):
            words = greedy_code(n, R).words
            h.update(f"{n},{R}:{','.join(map(str, words))}\n".encode())
    return h.hexdigest()


def test_greedy_pinned_grid():
    # the words greedy chose at every cell 2 <= n <= 13, 1 <= R < n when it kept a
    # count of covered vertices per center; n <= 12 is one block, n = 13 several
    assert grid_digest(13) == "a4d485dc6a4d9a996c74c3c59041ee40c0ecfafb89c98fb0a1b0fd24984fde8b"


def test_greedy_one_block_matches_the_blocked_loop(monkeypatch):
    # with the one-block cutoff at 4, n = 5..12 take the blocked loop, in blocks
    # of 2^4 bits and at n = 11, 12 also of 2^10, and its words must be the
    # one-block pass's at every radius
    cells = [(n, R) for n in range(5, 13) for R in range(n + 2)]
    one_block = {cell: greedy_code(*cell).words for cell in cells}
    monkeypatch.setattr(constructions, "GREEDY_ONE_BLOCK_MAX_N", 4)
    monkeypatch.setattr(constructions, "_greedy_one_block", None)  # a call would fail
    assert {cell: greedy_code(*cell).words for cell in cells if cell[0] > 10} == {
        cell: words for cell, words in one_block.items() if cell[0] > 10}
    monkeypatch.setattr(constructions, "GREEDY_BLOCK_BITS", 4)
    assert {cell: greedy_code(*cell).words for cell in cells} == one_block


@pytest.mark.parametrize("n, R", [(13, 1), (13, 3)])
def test_greedy_blocked_loop_raises_on_a_miscounted_gain(n, R, monkeypatch):
    """A block listed twice in a ball counts twice in the gain but is cleared
    once, so the blocked loop's count of uncovered vertices runs ahead of
    them; the loop ends with its buckets and names the cell.  A block left
    out of a ball keeps the gains and the clears in step, and greedy still
    covers with more words."""
    ball_down = constructions.ball_down
    monkeypatch.setattr(constructions, "ball_down", lambda b, r, m: ball_down(b, r, m)[1:])
    assert covers(greedy_code(n, R), R)
    monkeypatch.setattr(constructions, "ball_down",
                        lambda b, r, m: ball_down(b, r, m)[:1] + ball_down(b, r, m))
    with pytest.raises(RuntimeError, match=rf"\(n, R\) = \({n}, {R}\)"):
        greedy_code(n, R)


def test_greedy_node_limit_boundary_at_8_2():
    # one node per candidate scored per bucket: (8, 2) scores 914 candidates
    assert greedy_code(8, 2, 914) == greedy_code(8, 2)
    with pytest.raises(BudgetExceededError):
        greedy_code(8, 2, 913)


@pytest.mark.parametrize("n, R, nodes", [(11, 2, 9_980), (12, 3, 21_849)])
def test_greedy_node_limit_boundary_in_one_block(n, R, nodes):
    # up to n = 12 greedy covers Q_n in one block: one node per candidate
    # scored per bucket, as at (8, 2)
    assert greedy_code(n, R, nodes) == greedy_code(n, R)
    with pytest.raises(BudgetExceededError):
        greedy_code(n, R, nodes - 1)


@pytest.mark.parametrize("n, R, nodes", [(13, 1, 72_115), (13, 3, 172_895)])
def test_greedy_node_limit_boundary_in_blocks(n, R, nodes):
    # one node per candidate scored against one block term, counted per group;
    # a candidate scored after a pick in its group waits at its exact gain
    assert greedy_code(n, R, nodes) == greedy_code(n, R)
    with pytest.raises(BudgetExceededError):
        greedy_code(n, R, nodes - 1)


def test_greedy_node_limit_bounds_the_blocked_loops_setup(monkeypatch):
    # a group with no candidate lists no block terms: at (16, 8) the first
    # bucket holds the top word alone, so one ball is listed before the limit
    calls = []
    ball_down = constructions.ball_down
    monkeypatch.setattr(constructions, "ball_down", lambda *a: calls.append(a) or ball_down(*a))
    with pytest.raises(BudgetExceededError):
        greedy_code(16, 8, node_limit=1)
    assert len(calls) == 1


def test_greedy_runs_at_n_20():
    assert greedy_code(20, 20).words == (all_ones(20),)


def test_sweep_caps():
    with pytest.raises(DimensionCapError):
        greedy_code(GREEDY_MAX_N + 1, 3)
    with pytest.raises(DimensionCapError):
        random_code_nu(GREEDY_MAX_N + 1, 3, seed=0)
    with pytest.raises(DimensionCapError):
        random_patched(GREEDY_MAX_N + 1, 3, 1, seed=0)


def test_greedy_radius_zero():
    assert len(greedy_code(3, 0)) == 8


def test_coradius_split_postconditions():
    for n in range(1, 31):
        for c in range(1, n + 1):
            parts = coradius_split(n, c)
            assert sum(parts) == c
            assert all(p >= 1 for p in parts)
            assert sum(p * (p + 1) // 2 for p in parts) <= n
            assert parts == sorted(parts, reverse=True)
            assert max(parts) - min(parts) <= 1
            # fewest balanced part count that fits, no fewer
            m = len(parts)
            m0 = max(1, math.ceil(c * c / (2 * n - c)))
            assert m >= m0
            for fewer in range(m0, m):
                q, s = divmod(c, fewer)
                trial = [q + 1] * s + [q] * (fewer - s)
                assert sum(p * (p + 1) // 2 for p in trial) > n


def test_general_upper_code_covers_and_counts():
    for n, c in [(1, 1), (4, 3), (6, 3), (8, 5), (10, 4), (12, 6), (13, 7), (14, 12)]:
        code = general_upper_code(n, c)
        assert code.n == n
        assert len(code) == general_upper_size(n, c)
        assert code.r == n - c
        if n <= 14:
            assert covers(code, n - c)


def test_general_upper_code_refuses_past_its_word_cap(monkeypatch):
    # the size comes from the split, so a refused code allocates nothing
    monkeypatch.setattr(constructions, "GENERAL_MAX_WORDS", 16)
    assert len(general_upper_code(14, 6)) == 16
    with pytest.raises(DimensionCapError, match="general code of 36 words exceeds the word cap 16"):
        general_upper_code(14, 7)


def zero_run_oracle(n, coradius):
    """The coradius family built block by block: each block's zero runs written
    out one word at a time, blocks joined by direct_sum, the first block
    holding the leftover coordinates."""
    parts = coradius_split(n, coradius)
    dims = [p * (p + 1) // 2 for p in parts]
    dims[0] += n - sum(dims)
    code = None
    for dim, part in zip(dims, parts):
        top = all_ones(dim)
        words = [top ^ ((1 << i) - 1) << ((i - 1) * i // 2) for i in range(part + 1)]
        block = Code.from_words(dim, words, r=dim - part)
        code = block if code is None else direct_sum(code, block)
    return code


def test_coradius_builders_match_the_zero_run_oracle():
    for n in range(1, 41):
        for c in range(1, n + 1):
            if general_upper_size(n, c) > 20_000:
                continue
            want = zero_run_oracle(n, c)
            codes = [general_upper_code(n, c)]
            if n >= c * (c + 1) // 2:
                codes.append(diagonal_code(n, c))
            for code in codes:
                assert (code.n, code.r, code.words) == (want.n, want.r, want.words), (n, c)


@pytest.mark.parametrize("n", [1, 6, 62])
def test_coradius_zero_is_the_all_ones_word(n):
    # K+(n, n) = 1: the top word alone covers Q_n at radius n
    assert coradius_split(n, 0) == []
    assert general_upper_size(n, 0) == 1
    for code in (general_upper_code(n, 0), diagonal_code(n, 0)):
        assert (code.n, code.r, code.words) == (n, n, (all_ones(n),))


def test_general_upper_pinned_sizes():
    assert general_upper_size(6, 3) == 4       # one block
    assert general_upper_size(12, 6) == 16     # two blocks of coradius 3
    assert general_upper_size(4, 3) == 6       # split 2+1
    assert general_upper_size(8, 5) == 18      # split 2+2+1
    assert general_upper_size(14, 12) == 2304  # split 2+2+1*8
    for n in range(1, 20):
        assert general_upper_size(n, 1) == 2


def test_general_upper_never_beats_best_split():
    for n in range(1, 21):
        for c in range(1, n + 1):
            assert general_upper_size(n, c) >= min_split_product(n, c)
            assert general_upper_size(n, c) <= 2**c  # the all-ones split


def test_general_upper_equals_formula_on_divisible_fits():
    # when the minimal part count divides the coradius and its balanced split
    # fits, the constructed size matches the closed-form target
    for n in range(1, 21):
        for c in range(1, n + 1):
            m0 = max(1, math.ceil(c * c / (2 * n - c)))
            q, s = divmod(c, m0)
            fits = sum(p * (p + 1) // 2 for p in [q + 1] * s + [q] * (m0 - s)) <= n
            if s == 0 and fits:
                assert general_upper_size(n, c) == general_upper_value(n, c)


def test_formula_target_is_not_a_valid_bound():
    # at n=8, coradius 5 the closed form gives 8, but no exact split attains
    # it and the profile program already proves 9 codewords are required;
    # bound aggregation therefore only ever uses constructed sizes
    from asymcover.ipsolve import ip_plus

    assert general_upper_value(8, 5) == 8
    assert min_split_product(8, 5) > 8
    assert ip_plus(8, 3).value == 9


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: diagonal_code(5, -1), ValueError, "coradius must be nonnegative"),
        (lambda: direct_sum(Code.from_words(62, [0]), Code.from_words(1, [0])),
         DimensionCapError, "need 1 <= n <= 62, got n=63"),
        (lambda: semi_direct_sum(
            PatchedCode(62, 1, Code.from_words(62, [0]), Code.from_words(62, [])),
            Code.from_words(1, [1], r=1)),
         DimensionCapError, "need 1 <= n <= 62, got n=63"),
        (lambda: general_upper_code(63, 1), DimensionCapError, "need 1 <= n <= 62, got n=63"),
        (lambda: nu(-1, 1), ValueError, "parameters must be nonnegative"),
        (lambda: nu(3, -1), ValueError, "parameters must be nonnegative"),
        (lambda: estimate_alpha(0), ValueError, "radius must be at least 1"),
        (lambda: random_patched(4, 0, 1, seed=0), ValueError, "radius must be at least 1"),
        (lambda: random_code_nu(4, 0, seed=0), ValueError, "radius must be at least 1"),
        (lambda: random_code_nu(0, 1, seed=0), ValueError, "dimension must be at least 1"),
        (lambda: inductive_power2(1, 0, seed=0), ValueError, "radius must be at least 1"),
        (lambda: inductive_power2(-1, 1, seed=0), ValueError, "m must be nonnegative"),
        (lambda: inductive_power2(1, 1, seed=0, trials=0), ValueError,
         "trials must be at least 1"),
        (lambda: inductive_power2(5, 1, seed=0), DimensionCapError,
         f"dimension 32 exceeds the sweep cap {GREEDY_MAX_N}"),
        (lambda: greedy_code(4, -1), ValueError, "radius must be nonnegative"),
        (lambda: coradius_split(4, -1), ValueError, "need 0 <= coradius <= n"),
        (lambda: coradius_split(4, 5), ValueError, "need 0 <= coradius <= n"),
        (lambda: nu(0, 1), ValueError, "dimension must be at least 1"),
    ],
    ids=["diagonal-coradius", "direct-sum-cap", "semi-direct-sum-cap", "general-cap",
         "nu-n", "nu-R", "alpha-R", "patched-R", "nu-code-R", "sweep-dim", "power2-R",
         "power2-m", "power2-trials", "power2-cap", "greedy-R", "split-negative",
         "split-past-n", "nu-n-0"],
)
def test_construction_input_checks_raise(call, error, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
