"""Bit-level primitives for the hypercube Q_n under the downward covering order.

Vertices are int bitmasks; coordinate 1 is the least significant bit.  A word c
downward R-covers y when y <= c coordinate-wise and weight(c) - weight(y) <= R.

A set of vertices is one 2^n-bit int whose bit v is set when vertex v is in
the set.  Every covering question about a whole code is answered by one
kernel, a downward step that adds to a set every vertex one step below a
member: S | OR_i (S & M_i) >> 2^i, where M_i is the set of vertices with bit
i set.  `step_down` takes it over all n coordinates for `sweep`, which
answers `covers`, `uncovered` and `code_covering_radius`.  A sweep derives
each M_i from the one before inside the step, so it holds about six 2^n-bit
ints at its peak (13 MB at n = 24).

A single ball is listed by `ball_down`, at the cost of its size, for every n
up to MAX_DIMENSION.  Its mirror image is the up-set of v, the centers that
cover v: top ^ x for x in ball_down(top ^ v, R, n), with top the all-ones
word.  Greedy's gains and exact search's balls and candidates are built
from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

MAX_DIMENSION = 62  # masks and binomials stay inside unsigned 64-bit range
BITMAP_MAX_N = 28   # covers()/uncovered() step 2^n-bit sets: 32 MB each at the cap
RADIUS_MAX_N = 26  # a radius sweep may take n steps: about 8 s at the cap


class DimensionCapError(ValueError):
    """An operation would exceed its documented dimension cap."""


def all_ones(n: int) -> int:
    """Top element of Q_n: every coordinate set."""
    return (1 << n) - 1


def weight(v: int) -> int:
    """Number of ones of a vertex (its level)."""
    return v.bit_count()


def binomial(n: int, k: int) -> int:
    """Exact C(n, k), zero outside 0 <= k <= n."""
    if not 0 <= n <= MAX_DIMENSION:
        raise DimensionCapError(f"binomial needs 0 <= n <= {MAX_DIMENSION}, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def ball_size_up(n: int, l: int, R: int) -> int:
    """Vertices within R upward steps of a level-l vertex: sum_{j<=R} C(n-l, j)."""
    _check_level(n, l, R)
    return sum(binomial(n - l, j) for j in range(min(R, n - l) + 1))


def ball_size_down(n: int, l: int, R: int) -> int:
    """Vertices within R downward steps of a level-l vertex: sum_{j<=R} C(l, j)."""
    _check_level(n, l, R)
    return sum(binomial(l, j) for j in range(min(R, l) + 1))


def _check_level(n: int, l: int, R: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise DimensionCapError(f"need 1 <= n <= {MAX_DIMENSION}, got n={n}")
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


def step_down(s: int, n: int) -> int:
    """The set s plus every vertex of Q_n one downward step below a member."""
    out = s
    for shift, mask in _masks(n):
        out |= (s & mask) >> shift
    return out


def ball_down(c: int, R: int, n: int) -> list[int]:
    """All vertices downward R-covered by c, ascending.

    Clears each subset of at most R set bits of c with one XOR of the
    subset's sum, so the cost is the ball size itself rather than 2^n, at
    every n up to MAX_DIMENSION.
    """
    _check_vertex(c, n)
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


def _check_vertex(v: int, n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise DimensionCapError(f"need 1 <= n <= {MAX_DIMENSION}, got n={n}")
    if not 0 <= v < (1 << n):
        raise ValueError(f"vertex {v} outside Q_{n}")


@dataclass(frozen=True)
class Code:
    """A duplicate-free vertex set of Q_n with an optional radius annotation.

    words is kept sorted ascending, so iteration order is deterministic.
    """

    n: int
    words: tuple[int, ...]
    r: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_DIMENSION:
            raise DimensionCapError(f"need 1 <= n <= {MAX_DIMENSION}, got n={self.n}")
        if self.r is not None and self.r < 0:
            raise ValueError(f"radius annotation must be >= 0, got {self.r}")
        top = 1 << self.n
        prev = -1
        for w in self.words:
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

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.words, v)
        return i < len(self.words) and self.words[i] == v


def level_profile(code: Code) -> tuple[int, ...]:
    """Count of codewords per level, index 0..n."""
    counts = [0] * (code.n + 1)
    for w in code.words:
        counts[w.bit_count()] += 1
    return tuple(counts)


def sweep(code: Code, R: int | None = None, want_radius: bool = False):
    """One covering sweep of `code`: (covered set at radius R, covering radius).

    Grows the covered set from the code's words one `step_down` at a time.
    The sweep stops after the full cube, or after a step that leaves the set
    unchanged: every larger radius covers that same set, so if that happens
    before R steps the last set is the one at R.  Without `want_radius` it
    also stops after R steps.  The radius is the number of steps to the full
    cube, inf if the set stalls first.  The set is None when R is None, the
    radius None when it is not wanted.
    """
    n = code.n
    if R is not None and R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    if n > BITMAP_MAX_N:
        raise DimensionCapError(
            f"covering sweep steps sets of 2^{n} bits; cap is n <= {BITMAP_MAX_N}"
        )
    size = 1 << n
    limit = None if want_radius else R or 0
    s = vertex_set(n, code.words)
    at_R = s if R == 0 else None
    steps = 0
    while steps != limit and s.bit_count() < size:
        nxt = step_down(s, n)
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


def covers(code: Code, R: int) -> bool:
    """True iff every vertex of Q_n is downward R-covered by some codeword."""
    return sweep(code, R)[0].bit_count() == 1 << code.n


def uncovered(code: Code, R: int) -> list[int]:
    """Vertices not downward R-covered, ascending; empty iff covers(code, R)."""
    return members(sweep(code, R)[0] ^ full_set(code.n))


def code_covering_radius(code: Code) -> int | float:
    """Smallest R at which `code` downward R-covers Q_n; inf if none exists.

    Counts the steps of the covering sweep until the covered set is full; if
    a step stops growing the set first, no radius covers.  The value is
    finite iff 1̂ is a codeword.
    """
    if code.n > RADIUS_MAX_N:
        raise DimensionCapError(f"covering radius sweep capped at n = {RADIUS_MAX_N}")
    return sweep(code, want_radius=True)[1]
