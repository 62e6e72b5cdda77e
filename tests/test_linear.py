"""Linear covers: reduced bases, spans, radii, subspace enumeration."""

import math
import random
from itertools import combinations

import pytest

from asymcover.cube import (
    MAX_DIMENSION,
    RADIUS_MAX_N,
    Code,
    DimensionCapError,
    all_ones,
    code_covering_radius,
    covers,
)
from asymcover.linear import a_code, enumerate_subspaces, min_linear_dim, span


def brute_span(generators):
    words = {0}
    for _ in range(len(generators)):
        words |= {w ^ g for w in words for g in generators}
    return words


def brute_radius(code):
    worst = 0
    for v in range(1 << code.n):
        best = math.inf
        for c in code.words:
            if v & c == v:
                best = min(best, c.bit_count() - v.bit_count())
        worst = max(worst, best)
    return worst


def gaussian_binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (2 ** (n - i) - 1) // (2 ** (i + 1) - 1)
    return out


def is_reduced(basis):
    """Pivots strictly descending, and no row holds another row's pivot."""
    pivots = [g.bit_length() - 1 for g in basis]
    return (
        all(p >= 0 for p in pivots)
        and pivots == sorted(set(pivots), reverse=True)
        and all(not g >> p & 1 for g, own in zip(basis, pivots) for p in pivots if p != own)
    )


def test_span_matches_brute_force():
    for basis in [[0b101, 0b011], [0b111], [], [0b1000, 0b0111]]:
        code = span(basis, 4)
        assert set(code.words) == brute_span(basis)
        assert len(code) == 1 << len(basis)
        for w in code.words:
            assert w in code


def test_span_contains_and_rejects():
    code = span([0b101, 0b011], 3)
    assert 0 in code
    assert 0b110 in code
    assert 0b100 not in code
    assert 0b111 not in code  # above the largest word


def test_self_complementary():
    # a subspace equals its ones-complement exactly when it contains 1̂
    assert all_ones(3) in span([0b111], 3)
    assert all_ones(3) not in span([0b110], 3)


@pytest.mark.parametrize(
    "words,n",
    [
        ([7, 6, 1], 3),
        ([15], 4),
        ([15, 3, 12], 4),
        ([31, 7], 5),
    ],
)
def test_code_covering_radius_matches_brute_force(words, n):
    code = Code.from_words(n, words)
    assert code_covering_radius(code) == brute_radius(code)


def test_code_covering_radius_infinite_without_top():
    code = Code.from_words(3, [3, 5])
    assert code_covering_radius(code) == math.inf
    assert code_covering_radius(span([0b011], 3)) == math.inf


@pytest.mark.parametrize("n", range(1, 9))
def test_code_covering_radius_matches_brute_force_on_random_codes(n):
    rng = random.Random(100 + n)
    top = all_ones(n)
    codes = [
        Code.from_words(n, [top]),  # single word: radius n
        Code.from_words(n, [0]),  # single word without the top: inf
        Code.from_words(n, range(1 << n)),  # radius 0
    ]
    for _ in range(8):
        words = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 10)))
        codes.append(Code.from_words(n, words))
        codes.append(Code.from_words(n, words + [top]))
    for code in codes:
        radius = code_covering_radius(code)
        assert radius == brute_radius(code), code
        assert (radius == math.inf) == (top not in code.words)
        if radius != math.inf:
            assert covers(code, radius) and (radius == 0 or not covers(code, radius - 1))


def test_code_covering_radius_cap():
    big = Code.from_words(RADIUS_MAX_N + 1, [all_ones(RADIUS_MAX_N + 1)])
    with pytest.raises(DimensionCapError):
        code_covering_radius(big)


def test_a_code_shape_and_radius():
    for n in range(1, 9):
        for R in range(1, n + 1):
            basis = a_code(n, R)
            assert is_reduced(basis)
            assert len(basis) == max(1, n - R)
            code = span(basis, n)
            assert all_ones(n) in code
            rad = code_covering_radius(code)
            assert rad <= R
            assert rad == brute_radius(code)


def test_a_code_pinned_5_2():
    assert a_code(5, 2) == [0b10000, 0b01000, 0b00111]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_subspaces_counts(n):
    for dim in range(n + 1):
        seen = list(enumerate_subspaces(n, dim))
        assert len(seen) == gaussian_binomial(n, dim)
        assert len({code.words for code in seen}) == len(seen)  # no subspace repeats
        for code in seen:
            assert len(code) == 1 << dim


def test_enumerate_subspaces_cap():
    with pytest.raises(DimensionCapError):
        list(enumerate_subspaces(7, 2))


def test_min_linear_dim_formula_equals_exhaustive():
    for n in range(1, 6):
        for R in range(1, n + 1):
            assert min_linear_dim(n, R) == max(1, n - R)
            assert min_linear_dim(n, R, exhaustive=True) == max(1, n - R)


def test_min_linear_dim_validation():
    with pytest.raises(ValueError):
        min_linear_dim(0, 1)
    with pytest.raises(ValueError):
        min_linear_dim(3, 0)
    with pytest.raises(DimensionCapError):
        min_linear_dim(7, 1, exhaustive=True)


def test_min_linear_dim_formula_runs_past_the_radius_cap():
    assert min_linear_dim(27, 3) == 24
    with pytest.raises(DimensionCapError, match=rf"^need 1 <= n <= {MAX_DIMENSION}, got n=63$"):
        min_linear_dim(MAX_DIMENSION + 1, 3)


def test_linear_cover_beats_no_smaller_subspace():
    # spot check the meaning of the exhaustive result at (4, 2)
    want = min_linear_dim(4, 2, exhaustive=True)
    assert want == 2
    assert not any(covers(code, 2) for code in enumerate_subspaces(4, 1))
    assert any(covers(code, 2) for code in enumerate_subspaces(4, 2))


@pytest.mark.parametrize("n,R", [(0, 1), (3, 0)])
def test_a_code_checks_its_arguments(n, R):
    with pytest.raises(ValueError, match=r"^need n >= 1 and R >= 1$"):
        a_code(n, R)
