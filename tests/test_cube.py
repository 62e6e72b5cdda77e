"""Hypercube primitives checked against brute-force set oracles."""

import math
import random
from itertools import combinations

import pytest

from asymcover.cube import (
    BITMAP_MAX_N,
    Code,
    DimensionCapError,
    MAX_DIMENSION,
    all_ones,
    ball_down,
    ball_size_down,
    ball_size_up,
    binomial,
    covers,
    full_set,
    level_profile,
    members,
    step_down,
    subset_tables,
    sweep,
    uncovered,
    vertex_set,
    weight,
)


def brute_ball_down(c, R, n):
    return sorted(
        v for v in range(1 << n) if v & c == v and weight(c) - weight(v) <= R
    )


def brute_covered(code, x, R):
    return any(x & c == x and weight(c) - weight(x) <= R for c in code.words)


def test_all_ones_and_weight():
    assert all_ones(0) == 0
    assert all_ones(5) == 0b11111
    assert weight(0) == 0
    assert weight(0b1011) == 3


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
            down = [v for v in range(1 << n) if v & c == v and l - weight(v) <= R]
            up = [
                v for v in range(1 << n) if c & v == c and weight(v) - l <= R
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
        down, at_least = subset_tables(n)
        assert len(down) == 1 << n and len(at_least) == n + 2
        assert at_least[0] == full_set(n) and at_least[n + 1] == 0
        for l in range(n + 1):
            level = vertex_set(n, (v for v in range(1 << n) if weight(v) == l))
            assert at_least[l] ^ at_least[l + 1] == level
        for c in range(1 << n):
            for R in (0, 1, n // 2, n, n + 1):
                ball = down[c] & at_least[max(0, weight(c) - R)]
                assert ball == vertex_set(n, brute_ball_down(c, R, n))


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
        covers(big, 1)
    with pytest.raises(DimensionCapError):
        uncovered(big, 1)


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
            assert members(step_down(vertex_set(n, words), n)) == sorted(want)


def test_vertex_set_and_members_round_trip():
    rng = random.Random(3)
    assert members(0) == []
    assert members(full_set(4)) == list(range(16))
    for n in (1, 5, 9, 13):
        words = sorted(rng.sample(range(1 << n), rng.randint(1, min(1 << n, 40))))
        assert members(vertex_set(n, words)) == words
