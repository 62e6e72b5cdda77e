"""Hypercube primitives checked against brute-force set oracles."""

import math
import random
import re
from itertools import combinations

import pytest

from asymcover import cube
from asymcover.constructions import (
    diagonal_code, general_upper_code, greedy_code, random_code_nu
)
from asymcover.cube import (
    BITMAP_MAX_N,
    Code,
    DimensionCapError,
    MAX_DIMENSION,
    all_ones,
    ball_down,
    ball_sets,
    ball_size_down,
    ball_size_up,
    binomial,
    check_countable,
    covered_count,
    covers,
    full_set,
    level_profile,
    members,
    steps_down,
    subset_tables,
    sweep,
    uncovered,
    union_count,
    union_counts,
    vertex_set,
)


def brute_ball_down(c, R, n):
    return sorted(
        v for v in range(1 << n) if v & c == v and c.bit_count() - v.bit_count() <= R
    )


def brute_covered(code, x, R):
    return any(x & c == x and c.bit_count() - x.bit_count() <= R for c in code.words)


def test_all_ones():
    assert all_ones(0) == 0
    assert all_ones(5) == 0b11111


def test_binomial_matches_stdlib():
    for n in range(12):
        for k in range(-2, n + 3):
            want = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == want


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_ball_sizes_by_counting(n):
    for l in range(n + 1):
        c = all_ones(l)  # any representative of level l works
        for R in range(n + 1):
            down = [v for v in range(1 << n) if v & c == v and l - v.bit_count() <= R]
            up = [
                v for v in range(1 << n) if c & v == c and v.bit_count() - l <= R
            ]
            assert ball_size_down(n, l, R) == len(down)
            assert ball_size_up(n, l, R) == len(up)


def test_ball_size_duality():
    for n in range(1, 10):
        for l in range(n + 1):
            for R in range(n + 1):
                assert ball_size_up(n, l, R) == ball_size_down(n, n - l, R)


def test_ball_down_matches_brute_force():
    for n in range(1, 9):
        for c in range(1 << n):
            for R in (0, 1, n // 2, n, n + 1):
                assert ball_down(c, R, n) == brute_ball_down(c, R, n)


def test_subset_tables_give_the_balls_and_levels():
    for n in range(1, 7):
        down, at_least, of_weight = subset_tables(n)
        assert len(down) == 1 << n and len(at_least) == n + 2
        assert at_least[0] == full_set(n) and at_least[n + 1] == 0
        for l in range(n + 1):
            assert of_weight[l] == [v for v in range(1 << n) if v.bit_count() == l]
            assert at_least[l] ^ at_least[l + 1] == vertex_set(n, of_weight[l])
        assert ball_sets(n, n) == down  # every ball at R = n reaches vertex 0
        for R in (0, 1, n // 2, n, n + 1):
            assert ball_sets(n, R) == [vertex_set(n, brute_ball_down(c, R, n)) for c in range(1 << n)]


def test_ball_down_works_past_the_bitset_caps():
    assert ball_down(3, 1, 40) == [1, 2, 3]
    top = all_ones(MAX_DIMENSION)
    got = ball_down(top, 1, MAX_DIMENSION)
    assert got == sorted([top] + [top ^ 1 << i for i in range(MAX_DIMENSION)])
    assert len(ball_down(top, 2, MAX_DIMENSION)) == ball_size_down(MAX_DIMENSION, MAX_DIMENSION, 2)


def test_ball_down_is_sorted_and_deduped():
    got = ball_down(0b1011, 2, 4)
    assert got == sorted(set(got))


def test_level_checks_raise():
    with pytest.raises(ValueError):
        ball_size_up(4, 5, 1)
    with pytest.raises(ValueError):
        ball_size_down(4, -1, 1)
    with pytest.raises(ValueError):
        ball_size_up(4, 2, -1)


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        Code.from_words(MAX_DIMENSION + 1, [0])
    big = Code.from_words(BITMAP_MAX_N + 1, [all_ones(BITMAP_MAX_N + 1)])
    with pytest.raises(DimensionCapError):
        uncovered(big, 1)
    # past the cap only codes of more than BITMAP_MAX_N - 6 words are swept
    many = Code.from_words(BITMAP_MAX_N + 1, range(BITMAP_MAX_N - 5))
    with pytest.raises(DimensionCapError):
        covers(many, 1)


def test_code_basics():
    c = Code.from_words(3, [6, 1, 7, 6])
    assert c.n == 3
    assert c.words == (1, 6, 7)  # sorted, unique
    assert len(c) == 3
    assert 6 in c.words
    assert c.r is None
    annotated = Code.from_words(3, [6, 1, 7], r=1)
    assert annotated.r == 1


def test_code_rejects_out_of_range_words():
    with pytest.raises(ValueError):
        Code.from_words(3, [8])
    with pytest.raises(ValueError):
        Code.from_words(3, [-1])


@pytest.mark.parametrize(
    "words,message",
    [
        ((1, 2, 8), "word 8 outside Q_3"),
        ((-1, 2, 5), "word -1 outside Q_3"),
        ((1, 9, 4, 7), "word 9 outside Q_3"),  # ends in range, middle not
        ((1, 3, 3, 5), "words must be strictly ascending; use Code.from_words"),
        ((1, 6, 4, 9), "words must be strictly ascending; use Code.from_words"),
    ],
)
def test_code_names_its_first_bad_word(words, message):
    with pytest.raises(ValueError) as caught:
        Code(3, words)
    assert str(caught.value) == message
    assert Code(3, (0, 1, 7)).words == (0, 1, 7) and Code(3, ()).words == ()


def test_level_profile():
    c = Code.from_words(3, [0, 1, 2, 7])
    assert level_profile(c) == (1, 2, 0, 1)


def test_diagonal_style_cover_q3():
    # {111, 011, 100} downward 1-covers the whole 3-cube
    c = Code.from_words(3, [7, 6, 1])
    assert covers(c, 1)
    assert uncovered(c, 1) == []
    assert not covers(c, 0)
    assert uncovered(c, 0) == [0, 2, 3, 4, 5]


def random_codes(n, count, seed):
    """Seeded random codes of Q_n: varied sizes, with and without the top word."""
    rng = random.Random(seed)
    size = 1 << n
    for _ in range(count):
        k = rng.randint(1, min(size, 12))
        yield Code.from_words(n, rng.sample(range(size), k))


@pytest.mark.parametrize("n", range(1, 9))
def test_covers_matches_brute_force(n):
    top = all_ones(n)
    codes = [
        Code.from_words(n, [top]),  # single word, the top
        Code.from_words(n, [0]),  # single word, the bottom
        Code.from_words(n, [top ^ 1, top >> 1]),  # no top word
        Code.from_words(n, [top, 0b1]),
        Code.from_words(n, list(range(0, 1 << n, 3))),
        Code.from_words(n, range(1 << n)),  # every vertex
        *random_codes(n, 6, seed=n),
    ]
    for code in codes:
        for R in range(n + 2):  # R = 0 through R > n
            brute_miss = [
                x for x in range(1 << n) if not brute_covered(code, x, R)
            ]
            assert uncovered(code, R) == brute_miss, (code, R)
            assert covers(code, R) == (not brute_miss), (code, R)


@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_matches_brute_force(n):
    top = all_ones(n)
    codes = [
        Code.from_words(n, [top]),
        Code.from_words(n, [top ^ 1]),  # no top word: radius inf
        Code.from_words(n, range(1 << n)),
        *random_codes(n, 4, seed=50 + n),
    ]
    for code in codes:
        radius = next(
            (R for R in range(n + 1) if all(brute_covered(code, x, R) for x in range(1 << n))),
            math.inf,
        )
        assert sweep(code, want_radius=True) == (None, radius)
        assert sweep(code) == (None, None)
        for R in range(n + 3):  # past the step where the sweep stops
            want = [x for x in range(1 << n) if brute_covered(code, x, R)]
            got, got_radius = sweep(code, R, True)
            assert members(got) == want and got_radius == radius, (code, R)
            assert sweep(code, R) == (got, None)


def test_cover_monotone_in_radius():
    c = Code.from_words(5, [31, 21, 10, 4])
    for R in range(5):
        if covers(c, R):
            assert covers(c, R + 1)
        assert len(uncovered(c, R + 1)) <= len(uncovered(c, R))


def test_full_ball_covers_alone():
    for n in range(1, 7):
        top = Code.from_words(n, [all_ones(n)])
        assert covers(top, n)
        assert not covers(top, n - 1) or n == 0


def test_top_is_never_covered_without_the_top_word():
    for n in range(1, 9):
        code = Code.from_words(n, range(all_ones(n)))  # everything but the top
        for R in (0, n, n + 3):
            assert uncovered(code, R) == [all_ones(n)]
            assert not covers(code, R)


def test_step_down_adds_exactly_the_one_step_shadow():
    rng = random.Random(11)
    for n in range(1, 8):
        for _ in range(5):
            words = rng.sample(range(1 << n), rng.randint(1, 1 << n))
            want = set(words) | {w & ~(1 << i) for w in words for i in range(n) if w >> i & 1}
            assert members(steps_down(vertex_set(n, words), n, 1)[0]) == sorted(want)


def test_vertex_set_and_members_round_trip():
    rng = random.Random(3)
    assert members(0) == []
    assert members(full_set(4)) == list(range(16))
    for n in (1, 5, 9, 13):
        words = sorted(rng.sample(range(1 << n), rng.randint(1, min(1 << n, 40))))
        assert members(vertex_set(n, words)) == words


def reference_step_down(s, n):
    """One downward step with the masks derived inline, kept as the
    reference of `steps_down`."""
    out, mask = s, full_set(n)
    for i in range(n - 1, -1, -1):
        mask ^= mask >> (1 << i)
        out |= (s & mask) >> (1 << i)
    return out


def reference_sweep(code, R=None, want_radius=False):
    """The covering sweep with one radius per pass and a popcount test of
    fullness, kept as the reference of `sweep`."""
    n, size = code.n, 1 << code.n
    limit = None if want_radius else R or 0
    s = vertex_set(n, code.words)
    at_R = s if R == 0 else None
    steps = 0
    while steps != limit and s.bit_count() < size:
        nxt = reference_step_down(s, n)
        if nxt == s:
            break
        s = nxt
        steps += 1
        if steps == R:
            at_R = s
    if R is not None and at_R is None:
        at_R = s
    radius = None
    if want_radius:
        radius = steps if s.bit_count() == size else math.inf
    return at_R, radius


def assert_sweeps_match_reference(code):
    for R in (None, *range(code.n + 2)):
        for want_radius in (False, True):
            got = sweep(code, R, want_radius)
            assert got == reference_sweep(code, R, want_radius), (code, R, want_radius)


def test_steps_down_takes_the_steps_one_at_a_time():
    rng = random.Random(12)
    for n in range(1, 9):
        for L in (1, 2, 3, n + 1):
            words = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 4)))
            s = want = vertex_set(n, words)
            layers = []
            for _ in range(L):
                want = reference_step_down(want, n)
                layers.append(want)
            assert steps_down(s, n, L) == layers, (n, words, L)


@pytest.mark.parametrize("layers", [1, 2, 3, 8])
def test_sweep_matches_the_one_radius_reference(layers, monkeypatch):
    """Every pass length gives the one-radius sweep's answers: on random
    codes, on codes without 1̂ (which stall inside a pass), and on codes whose
    radius is far past the lightest word's weight, so that R, the stall or
    the radius falls inside a pass."""
    monkeypatch.setattr(cube, "sweep_layers", lambda n: layers)
    rng = random.Random(40 + layers)
    for n in range(1, 9):
        top = all_ones(n)
        codes = [
            *random_codes(n, 8, seed=100 * layers + n),
            Code.from_words(n, [top]),
            Code.from_words(n, [top ^ 1 << rng.randrange(n)]),  # no 1̂
            Code.from_words(n, rng.sample(range(top), min(top, 3))),  # no 1̂
            Code.from_words(n, [top, 1]),  # radius n - 1 from a word of weight 1
            Code.from_words(n, []),
        ]
        if n > 2:
            codes.append(diagonal_code(n, 2))
        for code in codes:
            assert_sweeps_match_reference(code)


def test_sweep_matches_the_reference_on_the_benchmark_codes():
    greedy = greedy_code(12, 3)
    codes = [
        greedy,
        random_code_nu(16, 4, seed=1),
        diagonal_code(17, 4),
        Code.from_words(12, random.Random(1).sample(greedy.words, len(greedy) * 9 // 10)),
    ]
    for code in codes:
        assert_sweeps_match_reference(code)


def swept_count(code, R=None, want_radius=False):
    """The sweep's answer as a count: the reference of `union_count`."""
    at_R, radius = sweep(code, R, want_radius)
    return (None if at_R is None else at_R.bit_count()), radius


def test_union_count_matches_the_sweep():
    """Inclusion–exclusion gives the sweep's count and radius on random codes,
    on codes without 1̂ (radius inf) and on the empty code, at every R and
    with no R, with and without the radius."""
    rng = random.Random(36)
    for n in range(1, 11):
        top = all_ones(n)
        codes = [
            *random_codes(n, 12, seed=360 + n),
            Code.from_words(n, [top ^ 1 << rng.randrange(n)]),  # no 1̂
            Code.from_words(n, rng.sample(range(top), min(top, 5))),  # no 1̂
            Code.from_words(n, []),
        ]
        for code in codes:
            for R in (None, *range(n + 2)):
                for want_radius in (False, True):
                    want = swept_count(code, R, want_radius)
                    assert union_count(code, R, want_radius) == want, (code, R, want_radius)


@pytest.mark.parametrize("n", range(17, 25))
def test_union_count_matches_the_sweep_on_diagonal_codes(n):
    """One radius below the cover, where every ball still misses vertices,
    with the radius from the same call."""
    for code in (diagonal_code(n, 4), general_upper_code(n, 6)):
        want = swept_count(code, code.r - 1, True)
        assert want[1] == code.r
        assert union_count(code, code.r - 1, True) == want, (n, len(code))


def test_covered_count_sweeps_only_codes_past_n_minus_6_words(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept")

    small = diagonal_code(17, 4)  # 5 words
    large = greedy_code(12, 3)
    monkeypatch.setattr(cube, "sweep", no_sweep)
    assert covers(small, 13) and not covers(small, 12)
    assert covered_count(small, 12, True) == union_count(small, 12, True)
    assert covered_count(Code.from_words(12, range(6)), 0) == (6, None)
    with pytest.raises(AssertionError, match="swept"):
        covered_count(Code.from_words(12, range(7)), 0)
    with pytest.raises(AssertionError, match="swept"):
        covers(large, 3)
    # past the sweep's cap a code of at most BITMAP_MAX_N - 6 words is counted:
    # the zero-diagonal code's words clear disjoint runs of lengths 0..10, so
    # at R = 51 a vertex of weight w <= 10 escapes them iff it has a single one in
    # each of the w longest runs and none elsewhere: sum of 10!/(10 - w)!
    big = diagonal_code(62, 10)
    assert covers(big, 52) and not covers(big, 51)
    misses = sum(math.perm(10, w) for w in range(11))
    assert covered_count(big, 51) == ((1 << 62) - misses, None)
    assert not covers(Code.from_words(BITMAP_MAX_N + 1, range(BITMAP_MAX_N - 6)), 1)
    with pytest.raises(AssertionError, match="swept"):
        covered_count(Code.from_words(BITMAP_MAX_N + 1, range(BITMAP_MAX_N - 5)), 1)


def test_check_countable_refuses_what_covered_count_cannot_count():
    # union_counts is the routing rule the test above checks through
    # covered_count; check_countable refuses, with covers' message, only a
    # code past the sweep's cap that union_counts does not admit
    assert union_counts(12, 6) and not union_counts(12, 7)
    assert union_counts(MAX_DIMENSION, BITMAP_MAX_N - 6)
    assert not union_counts(MAX_DIMENSION, BITMAP_MAX_N - 5)
    for n, size in [(1, 2), (BITMAP_MAX_N, 1 << 40), (BITMAP_MAX_N + 1, BITMAP_MAX_N - 6),
                    (MAX_DIMENSION, BITMAP_MAX_N - 6)]:
        check_countable(n, size)
    message = re.escape(f"covering sweep steps sets of 2^40 bits; cap is n <= {BITMAP_MAX_N}")
    with pytest.raises(DimensionCapError, match=message):
        check_countable(40, BITMAP_MAX_N - 5)
    with pytest.raises(DimensionCapError, match=message):
        covers(Code.from_words(40, range(BITMAP_MAX_N - 5)), 1)


def test_ball_sizes_match_the_summed_binomials():
    for n in range(1, MAX_DIMENSION + 1):
        for l in range(n + 1):
            down = up = 0  # sum_{j<=R} C(l, j) and sum_{j<=R} C(n-l, j)
            for R in range(n + 3):
                down += math.comb(l, R)
                up += math.comb(n - l, R)
                assert ball_size_down(n, l, R) == down, (n, l, R)
                assert ball_size_up(n, l, R) == up, (n, l, R)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: binomial(63, 1), DimensionCapError, "binomial needs 0 <= n <= 62, got n=63"),
        (lambda: ball_down(3, -1, 2), ValueError, "radius must be >= 0, got -1"),
        (lambda: sweep(Code.from_words(3, [7]), -1), ValueError, "radius must be >= 0, got -1"),
        (lambda: union_count(Code.from_words(3, [7]), -1), ValueError,
         "radius must be >= 0, got -1"),
        (lambda: ball_down(0, 1, 0), DimensionCapError, "need 1 <= n <= 62, got n=0"),
        (lambda: ball_down(0, 1, 63), DimensionCapError, "need 1 <= n <= 62, got n=63"),
        (lambda: ball_down(4, 1, 2), ValueError, "vertex 4 outside Q_2"),
        (lambda: ball_down(-1, 1, 2), ValueError, "vertex -1 outside Q_2"),
        (lambda: Code(3, (7,), r=-1), ValueError, "radius annotation must be >= 0, got -1"),
    ],
    ids=["binomial-cap", "ball-R", "sweep-R", "union-R", "vertex-n-0", "vertex-n-63",
         "vertex-past-top", "vertex-negative", "code-r"],
)
def test_cube_input_checks_raise(call, error, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
