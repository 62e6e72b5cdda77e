"""Linear covers: canonical bases, spans, radii, subspace enumeration."""

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
    weight,
)
from asymcover.linear import (
    LinearCode,
    a_code,
    enumerate_subspaces,
    is_self_complementary,
    min_linear_dim,
    reduce_basis,
    span,
)


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
                best = min(best, weight(c) - weight(v))
        worst = max(worst, best)
    return worst


def gaussian_binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (2 ** (n - i) - 1) // (2 ** (i + 1) - 1)
    return out


def test_reduce_basis_is_canonical():
    gens = [0b1011, 0b0110, 0b1101]
    basis = reduce_basis(gens, 4)
    # mixing generators by invertible combinations leaves the basis unchanged
    mixed = [gens[0] ^ gens[1], gens[1], gens[2] ^ gens[0] ^ gens[1], gens[0]]
    assert reduce_basis(mixed, 4) == basis
    assert len(basis) == len(set(basis))
    pivots = [g.bit_length() - 1 for g in basis]
    assert pivots == sorted(pivots, reverse=True)
    # reduced: no row contains another row's pivot
    for g in basis:
        for other in basis:
            if other is not g:
                assert not g >> (other.bit_length() - 1) & 1


def test_reduce_basis_drops_dependent_rows():
    assert reduce_basis([0b11, 0b01, 0b10], 2) == reduce_basis([0b01, 0b10], 2)
    assert reduce_basis([0, 0], 3) == []


def test_span_matches_brute_force():
    for gens in [[0b101, 0b011], [0b111], [], [0b1000, 0b0111, 0b1111]]:
        lc = span(gens, 4)
        assert set(lc.span.words) == brute_span(gens)
        assert len(lc.span) == 1 << lc.dim
        for w in lc.span.words:
            assert w in lc.span


def test_span_contains_and_rejects():
    lc = span([0b110, 0b011], 3)
    assert 0 in lc.span
    assert 0b101 in lc.span
    assert 0b100 not in lc.span
    assert 0b111 not in lc.span  # above the largest word


def test_self_complementary():
    assert is_self_complementary(span([0b111], 3))
    assert not is_self_complementary(span([0b110], 3))


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
    assert code_covering_radius(span([0b011], 3).span) == math.inf


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
            lc = a_code(n, R)
            assert lc.dim == max(1, n - R)
            assert is_self_complementary(lc)
            rad = code_covering_radius(lc.span)
            assert rad <= R
            assert rad == brute_radius(lc.span)


def test_a_code_pinned_5_2():
    lc = a_code(5, 2)
    assert sorted(lc.generators) == [0b00111, 0b01000, 0b10000]
    assert lc.dim == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_subspaces_counts(n):
    for dim in range(n + 1):
        seen = [lc for lc in enumerate_subspaces(n, dim)]
        assert len(seen) == gaussian_binomial(n, dim)
        spans = {lc.span.words for lc in seen}
        assert len(spans) == len(seen)  # no subspace repeats
        for lc in seen:
            assert lc.dim == dim
            assert len(lc.span) == 1 << dim


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
    with pytest.raises(DimensionCapError):
        min_linear_dim(MAX_DIMENSION + 1, 3)


def test_linear_cover_beats_no_smaller_subspace():
    # spot check the meaning of the exhaustive result at (4, 2)
    want = min_linear_dim(4, 2, exhaustive=True)
    assert want == 2
    assert not any(covers(lc.span, 2) for lc in enumerate_subspaces(4, 1))
    assert any(covers(lc.span, 2) for lc in enumerate_subspaces(4, 2))
