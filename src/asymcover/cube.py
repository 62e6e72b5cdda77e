"""Bit-level primitives for the hypercube Q_n under the downward covering order.

Vertices are int bitmasks; coordinate 1 is the least significant bit.  A word c
downward R-covers y when y <= c coordinate-wise and weight(c) - weight(y) <= R.

A set of vertices is one 2^n-bit int whose bit v is set when vertex v is in
the set.  A covering sweep grows a code's set by downward steps, S | OR_i
(S & M_i) >> 2^i with M_i the set of vertices with bit i set: `steps_down`
takes L steps in one walk over the coordinates, n(3L + 2) big-int operations,
and `sweep` takes `sweep_layers(n)` radii a pass (8 up to n = 23, then 4 and
2), holding about L + 5 sets, 2 MB each at n = 24.  `uncovered` lists what it
misses.  `covers` and `code_covering_radius` only count: through
`covered_count`, a code of at most min(n, BITMAP_MAX_N) - 6 words is counted
by inclusion–exclusion over its subsets of words (`union_count`), with no
2^n-bit set, so up to 22 words are counted past the sweep's cap.

A single ball is listed by `ball_down`, at the cost of its size, for every n
up to MAX_DIMENSION.  Its mirror image is the up-set of v, the centers that
cover v: top ^ x for x in ball_down(top ^ v, R, n), with top the all-ones
word; exact search's candidates are built from it.  As sets, every vertex's
ball comes from `ball_sets`, over the tables of `subset_tables`: exact search
takes its balls from it, and greedy counts its gains with them on blocks of
the cube, listing with `ball_down` only the blocks a ball meets.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations, islice, repeat
from operator import lt

MAX_DIMENSION = 62  # masks and binomials stay inside unsigned 64-bit range
BITMAP_MAX_N = 28   # a sweep steps 2^n-bit sets: 32 MB each, 65 s a call at the cap
RADIUS_MAX_N = 26  # a radius sweep may take n steps: about 6 s at the cap


class DimensionCapError(ValueError):
    """An operation would exceed its documented dimension cap."""


def all_ones(n: int) -> int:
    """Top element of Q_n: every coordinate set."""
    return (1 << n) - 1


def binomial(n: int, k: int) -> int:
    """Exact C(n, k), zero outside 0 <= k <= n."""
    if not 0 <= n <= MAX_DIMENSION:
        raise DimensionCapError(f"binomial needs 0 <= n <= {MAX_DIMENSION}, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@functools.cache  # _tails(m)[j] = sum_{k >= j} C(m, k), j = 0..m
def _tails(m: int) -> list[int]:
    return list(accumulate(map(math.comb, repeat(m), range(m, -1, -1))))[::-1]


def ball_size_up(n: int, l: int, R: int) -> int:
    """Vertices within R upward steps of a level-l vertex: sum_{j<=R} C(n-l, j)."""
    _check_level(n, l, R)
    return _tails(n - l)[max(0, n - l - R)]


def ball_size_down(n: int, l: int, R: int) -> int:
    """Vertices within R downward steps of a level-l vertex: sum_{j<=R} C(l, j)."""
    _check_level(n, l, R)
    return _tails(l)[max(0, l - R)]


def check_dimension(n: int) -> None:
    """Raise DimensionCapError unless 1 <= n <= MAX_DIMENSION: the one dimension check,
    made by Code, the bound cells, the table spec, the constructions and min_linear_dim."""
    if not 1 <= n <= MAX_DIMENSION:
        raise DimensionCapError(f"need 1 <= n <= {MAX_DIMENSION}, got n={n}")


def _check_level(n: int, l: int, R: int) -> None:
    check_dimension(n)
    if not 0 <= l <= n:
        raise ValueError(f"level {l} outside 0..{n}")
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")


def _masks(n: int):
    """Yield (2^i, M_i) for i = n-1 down to 0.

    M_i is the set of vertices of Q_n with bit i set.  Starting from the full
    set as M_n, each is derived from the one before as M_{i+1} ^ (M_{i+1} >>
    2^i): v and v + 2^i differ in bit i+1 exactly when bit i of v is set.
    Only the current mask is alive at a time.
    """
    mask = full_set(n)
    for i in range(n - 1, -1, -1):
        mask ^= mask >> (1 << i)
        yield 1 << i, mask


def steps_down(s: int, n: int, L: int) -> list[int]:
    """[P_1, ..., P_L]: P_j is the set s plus every vertex of Q_n at most j
    downward steps below a member.

    After coordinates n-1..i, P_j holds s plus every vertex that clears at
    most j of those coordinates of a member, so each layer takes its moves
    across coordinate i from the layer below it.
    """
    layers = [s] * (L + 1)
    for shift, mask in _masks(n):
        for j in range(L, 0, -1):
            layers[j] |= (layers[j - 1] & mask) >> shift
    return layers[1:]


def ball_down(c: int, R: int, n: int) -> list[int]:
    """All vertices downward R-covered by c, ascending.

    Clears each subset of at most R set bits of c with one XOR of the
    subset's sum, so the cost is the ball size itself rather than 2^n, at
    every n up to MAX_DIMENSION.
    """
    check_dimension(n)
    if not 0 <= c < (1 << n):
        raise ValueError(f"vertex {c} outside Q_{n}")
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    bits = [1 << i for i in range(n) if c >> i & 1]
    out = [
        c ^ sum(drop)
        for j in range(min(R, len(bits)) + 1)
        for drop in combinations(bits, j)
    ]
    out.sort()
    return out


@functools.cache  # callers only read the tables
def subset_tables(n: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Three tables of Q_n: (down, at_least, of_weight).

    down[a] is the set of every vertex below a, at_least[k], k = 0..n+1, the
    set of vertices of weight at least k (at_least[n+1] is empty), and
    of_weight[l] the vertices of weight l, ascending.  Each down[a] is one
    doubling of down[a ^ hb], with hb the high bit of a; the weight classes
    double the same way, one coordinate at a time.
    """
    down = [1]
    levels = [1]  # the weight classes as sets
    of_weight = [[0]]
    for i in range(n):
        hb = 1 << i
        down += [d | d << hb for d in down]
        levels = [lo | hi << hb for lo, hi in zip(levels + [0], [0] + levels)]
        of_weight = [lo + [v | hb for v in hi]
                     for lo, hi in zip(of_weight + [[]], [[]] + of_weight)]
    at_least = [0]
    for level in reversed(levels):
        at_least.append(at_least[-1] | level)
    return down, at_least[::-1], of_weight


def ball_sets(n: int, R: int) -> list[int]:
    """The downward R-ball of every vertex c of Q_n as a set, indexed by c:
    down[c] & at_least[weight(c) - R], all of down[c] when R >= weight(c)."""
    down, at_least, _ = subset_tables(n)
    return [down[c] & at_least[k] if k > 0 else down[c] for c in range(1 << n)
            for k in [c.bit_count() - R]]


def full_set(n: int) -> int:
    """The set of every vertex of Q_n."""
    return (1 << (1 << n)) - 1


def vertex_set(n: int, vertices) -> int:
    """The set holding the given vertices of Q_n."""
    flags = bytearray(((1 << n) + 7) // 8)
    for v in vertices:
        flags[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(flags, "little")


def members(s: int) -> list[int]:
    """The vertices of the set s, ascending."""
    bits = bin(s)[:1:-1]
    out = []
    v = bits.find("1")
    while v >= 0:
        out.append(v)
        v = bits.find("1", v + 1)
    return out


@dataclass(frozen=True)
class Code:
    """A duplicate-free vertex set of Q_n with an optional radius annotation.

    words is kept sorted ascending, so iteration order is deterministic.
    """

    n: int
    words: tuple[int, ...]
    r: int | None = None

    def __post_init__(self) -> None:
        check_dimension(self.n)
        if self.r is not None and self.r < 0:
            raise ValueError(f"radius annotation must be >= 0, got {self.r}")
        words = self.words
        top = 1 << self.n
        if words and (words[0] < 0 or words[-1] >= top
                      or not all(map(lt, words, islice(words, 1, None)))):
            prev = -1  # find the first offending word
            for w in words:
                if not 0 <= w < top:
                    raise ValueError(f"word {w} outside Q_{self.n}")
                if w <= prev:
                    raise ValueError("words must be strictly ascending; use Code.from_words")
                prev = w

    @classmethod
    def from_words(cls, n: int, words, r: int | None = None) -> "Code":
        return cls(n, tuple(sorted(set(words))), r)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.words, v)
        return i < len(self.words) and self.words[i] == v


def level_profile(code: Code) -> tuple[int, ...]:
    """Count of codewords per level, index 0..n."""
    counts = [0] * (code.n + 1)
    for w in code.words:
        counts[w.bit_count()] += 1
    return tuple(counts)


def sweep_layers(n: int) -> int:
    """Radii per pass of the covering sweep of Q_n: as many layers as fit in
    2^26 bits (8 MB), from two to eight.  Past eight a pass gains little,
    and the cap keeps a sweep's peak memory near the one-radius sweep's."""
    return min(8, max(2, 1 << max(0, 26 - n)))


def _check_sweep_cap(n: int) -> None:
    if n > BITMAP_MAX_N:
        raise DimensionCapError(
            f"covering sweep steps sets of 2^{n} bits; cap is n <= {BITMAP_MAX_N}"
        )


def union_counts(n: int, size: int) -> bool:
    """True when `covered_count` counts a code of `size` words in Q_n by
    inclusion–exclusion; any other code it sweeps, up to n = BITMAP_MAX_N."""
    return size <= min(n, BITMAP_MAX_N) - 6


def check_countable(n: int, size: int) -> None:
    """Raise DimensionCapError, as `covers` would, unless `covered_count` can
    count a code of `size` words in Q_n; no word is needed to tell."""
    if not union_counts(n, size):
        _check_sweep_cap(n)


def sweep(code: Code, R: int | None = None, want_radius: bool = False):
    """One covering sweep of `code`: (covered set at radius R, covering radius).

    Grows the covered set from the code's words by `steps_down`, several
    radii a pass.  The sweep stops at the full cube, or at a step that leaves
    the set unchanged: every larger radius covers that same set, so if that
    happens before R steps the last set is the one at R.  Without
    `want_radius` it also stops after R steps.  The radius is the number of
    steps to the full cube, inf if the set stalls first.  The set is None
    when R is None, the radius None when it is not wanted.
    """
    n = code.n
    if R is not None and R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    _check_sweep_cap(n)
    full = full_set(n)
    s = vertex_set(n, code.words)
    limit = None if want_radius else R or 0
    # A pass ends at R, or with no R at the weight of the lightest word: no
    # sweep stops before it has covered vertex 0, which takes that many
    # steps.  Past that the stop is unknown, so a pass takes at most as many
    # layers as there are steps past it, and wastes no more.
    aim = R if R is not None else min(map(int.bit_count, code.words), default=0)
    most = sweep_layers(n)
    at_R = s if R == 0 else None
    steps = 0
    done = s == full
    while not done and steps != limit:
        layers = aim - steps if steps < aim else max(1, steps - aim)
        for nxt in steps_down(s, n, min(most, layers)):
            if nxt == s:
                done = True
                break
            s = nxt
            steps += 1
            if steps == R:
                at_R = s
            if s == full:
                done = True
                break
    if R is not None and at_R is None:
        at_R = s
    radius = None
    if want_radius:
        radius = steps if s == full else math.inf
    return at_R, radius


def union_count(code: Code, R: int | None = None, want_radius: bool = False):
    """`covered_count` by inclusion–exclusion: the R-balls of a set S of words
    share sum_{k >= t - R} C(m, k) vertices, m the weight of S's AND and t its
    largest weight.  Subsets grow depth-first by ascending weight, so t - m only
    rises, cut past the largest radius asked; (m, t) keys the terms for all R."""
    n = code.n
    if R is not None and R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    finite = want_radius and all_ones(n) in code  # nothing but 1̂ covers 1̂
    rmax = n if finite else -1 if R is None else R
    ranked = sorted((w.bit_count(), w) for w in code.words)
    terms = {}  # (m, t) -> sum of (-1)^{|S|+1}
    stack = [(0, all_ones(n), 1)]
    while stack:
        start, meet, sign = stack.pop()
        for i in range(start, len(ranked)):
            t, w = ranked[i]
            m = (meet & w).bit_count()
            if t - m <= rmax:
                terms[m, t] = terms.get((m, t), 0) + sign
                stack.append((i + 1, meet & w, -sign))

    def count(r: int) -> int:
        return sum(c * _tails(m)[max(0, t - r)] for (m, t), c in terms.items() if t - r <= m)

    radius = math.inf if want_radius else None
    if finite:  # vertex 0 needs the lightest word's weight; 1̂ alone covers at n
        radius = next(r for r in range(ranked[0][0], n + 1) if count(r) == 1 << n)
    return (None if R is None else count(R)), radius


def covered_count(code: Code, R: int | None = None, want_radius: bool = False):
    """`sweep`'s set size at R and radius, each None when not asked; codes of
    at most min(n, BITMAP_MAX_N) - 6 words go to `union_count` (`union_counts`):
    faster up to the sweep's cap, and past it the only count, as it builds no
    2^n-bit set."""
    if union_counts(code.n, len(code)):
        return union_count(code, R, want_radius)
    at_R, radius = sweep(code, R, want_radius)  # past the cap `sweep` raises
    return (None if at_R is None else at_R.bit_count()), radius


def covers(code: Code, R: int) -> bool:
    """True iff every vertex of Q_n is downward R-covered by some codeword."""
    return covered_count(code, R)[0] == 1 << code.n


def uncovered(code: Code, R: int) -> list[int]:
    """Vertices not downward R-covered, ascending; empty iff covers(code, R)."""
    return members(sweep(code, R)[0] ^ full_set(code.n))


def code_covering_radius(code: Code) -> int | float:
    """Smallest R at which `code` downward R-covers Q_n; inf unless 1̂ is a word."""
    if code.n > RADIUS_MAX_N:
        raise DimensionCapError(f"covering radius sweep capped at n = {RADIUS_MAX_N}")
    return covered_count(code, want_radius=True)[1]
