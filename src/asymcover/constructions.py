"""Constructions of downward covering codes.

Deterministic builders (diagonal codes, direct sums, coradius splits) plus
the randomized ones (patched sampling, the nu-based sampler, the inductive
power-of-two recursion) and greedy set cover.  Both samplers draw through
one sample-and-patch helper.  Every randomized operation takes an explicit
seed and is reproducible bit for bit.
"""

from __future__ import annotations

import collections
import functools
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .cube import (
    Code,
    DimensionCapError,
    all_ones,
    ball_down,
    ball_sets,
    ball_size_down,
    ball_size_up,
    binomial,
    check_dimension,
    covers,
    full_set,
    subset_tables,
    uncovered,
)
from .ipsolve import BudgetExceededError

GREEDY_MAX_N = 26  # greedy / sampling sweeps touch every vertex of Q_n
# general_upper_code's word cap: on an 8 GB, 2-vCPU VM, 2^22 words built in
# 1.7 s (403 MB peak with the covers check) and 2^23 in 3.9 s and 758 MB, so
# 2^26 would need about 6 GB; greedy's code at its cap, (26, 1), has at least
# 4,615,954 words (its sphere bound)
GENERAL_MAX_WORDS = 1 << 23
# greedy covers Q_n in one block up to this n; in two sets of runs on a 2-vCPU
# VM, the one-block pass took 0.57-0.76x the blocked loop's time at every R of
# n = 11 and 0.64-0.94x at n = 12, but 0.61-1.27x at n = 13, slower at (13,1)
GREEDY_ONE_BLOCK_MAX_N = 12
# low coordinates per block of greedy's blocked loop; measured on a 2-vCPU VM,
# blocks of 2^13 bits took 1.4x as long at (17,1) and 1.6x at (18,1), blocks
# of 2^8 bits 1.4x at (14,6) and 1.5x at (16,4)
GREEDY_BLOCK_BITS = 10


def diagonal_code(n: int, coradius: int) -> Code:
    """Code of size coradius+1 whose i-th extra word has i consecutive zeros.

    Word i+1 (i = 0..coradius) is all ones except for i zeros occupying
    coordinates (i-1)i/2 + 1 through (i-1)i/2 + i.  The zero blocks are
    pairwise disjoint, which is what makes the set cover at radius
    n - coradius; that requires n >= coradius(coradius+1)/2.
    """
    if coradius < 0:
        raise ValueError("coradius must be nonnegative")
    need = coradius * (coradius + 1) // 2
    if n < need:
        raise ValueError(f"dimension {n} too small for coradius {coradius}: need n >= {need}")
    return general_upper_code(n, coradius)  # its split is the one part [coradius]


def direct_sum(c1: Code, c2: Code) -> Code:
    """All concatenations x|y; covering radii add when both are annotated."""
    n = c1.n + c2.n
    check_dimension(n)
    r = c1.r + c2.r if c1.r is not None and c2.r is not None else None
    words = [x | (y << c1.n) for y in c2.words for x in c1.words]
    return Code.from_words(n, words, r=r)


@dataclass(frozen=True)
class PatchedCode:
    """Pair (S, T) where S covers everything outside the patch set T."""

    n: int
    R: int
    S: Code
    T: Code

    def __post_init__(self) -> None:
        if self.S.n != self.n or self.T.n != self.n:
            raise ValueError("S and T must live in the same cube as the patched code")
        if self.R < 0:
            raise ValueError("radius must be nonnegative")

    def is_valid(self) -> bool:
        """True when every vertex is covered by S or belongs to T."""
        patch = set(self.T.words)
        return all(v in patch for v in uncovered(self.S, self.R))


def nu(n: int, R: int) -> Fraction:
    """Exact value of sum_j C(n,j) / b+(j,R), the fractional cover measure."""
    if n < 0 or R < 0:
        raise ValueError("parameters must be nonnegative")
    if n == 0:
        raise ValueError("dimension must be at least 1")
    return sum(
        Fraction(binomial(n, j), ball_size_up(n, j, R)) for j in range(n + 1)
    )


@functools.cache
def estimate_alpha(R: int) -> Fraction:
    """Empirical surrogate for the sampling constant: max of nu(m,R) m^R / 2^m.

    The true constant is a supremum over all m with no closed form; scanning
    m <= 40 keeps the value exact and is safe for the sampler because the
    patch step restores covering regardless of the constant used.  Memoized
    per R: every trial of inductive_power2 needs it.
    """
    if R < 1:
        raise ValueError("radius must be at least 1")
    return max(nu(m, R) * m**R / Fraction(2**m) for m in range(1, 41))


def _check_sweep_dim(n: int) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > GREEDY_MAX_N:
        raise DimensionCapError(f"dimension {n} exceeds the sweep cap {GREEDY_MAX_N}")


def _level_probs(n: int, R: int, ratio: Fraction) -> list[float]:
    """Probabilities min{ln(ratio) / b+(j,R), 1} for the levels j = 0..n.

    A ratio at or below 1 gives probability 0; the patch absorbs the slack.
    """
    log_term = math.log(max(ratio, 1))
    return [min(1.0, log_term / ball_size_up(n, j, R)) for j in range(n + 1)]


def _sample_and_patch(n: int, R: int, probs: list[float], seed: int) -> tuple[Code, list[int]]:
    """Keep each vertex v of Q_n with probability probs[w(v)], then list the misses.

    One draw per vertex in mask order, so a seed fixes the sample bit for bit.
    Returns the sample S and every vertex S fails to R-cover.
    """
    rng = random.Random(seed)
    sample = [v for v in range(1 << n) if rng.random() < probs[v.bit_count()]]
    s_code = Code.from_words(n, sample, r=R)
    return s_code, uncovered(s_code, R)


def random_patched(n: int, R: int, delta, seed: int) -> PatchedCode:
    """Sample S at ln(delta n^R / alpha) / b+(j,R), then patch: T = what S misses."""
    if R < 1:
        raise ValueError("radius must be at least 1")
    _check_sweep_dim(n)
    d = Fraction(delta)
    if d < 0:
        raise ValueError("delta must be nonnegative")
    probs = _level_probs(n, R, d * n**R / estimate_alpha(R))
    probs[n] = 1.0  # the top word is covered only by itself, so S always keeps it
    s_code, missing = _sample_and_patch(n, R, probs, seed)
    return PatchedCode(n=n, R=R, S=s_code, T=Code.from_words(n, missing))


def semi_direct_sum(p: PatchedCode, c: Code) -> Code:
    """(S x Q_k) united with (T x c), with c's k coordinates placed first.

    A vertex (u, x) with x covered by S is handled by (u, s); otherwise x is
    in the patch T and u is covered by c, so (cword, x) works.  Either way
    the result downward R-covers Q_{n+k}.  Requires c annotated with the same
    radius R.
    """
    if c.r is None or c.r != p.R:
        raise ValueError("inner code must carry the same radius annotation as the patched code")
    k = c.n
    n = p.n + k
    check_dimension(n)
    words = set()
    for x in p.S.words:
        base = x << k
        words.update(base | u for u in range(1 << k))
    for x in p.T.words:
        base = x << k
        words.update(base | u for u in c.words)
    return Code.from_words(n, words, r=p.R)


def _subseed(base: int, index: int) -> int:
    """Stable 64-bit stream of per-trial seeds derived from a base seed."""
    import hashlib  # here, not at the top: it loads OpenSSL, and only power2 needs it

    digest = hashlib.sha256(f"trial:{base}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def inductive_power2(m: int, R: int, seed: int, trials: int = 32) -> Code:
    """Cover of Q_{2^m} by repeated semi-direct doubling from the base {1}.

    Step j doubles a cover C of Q_{2^j} by pairing it with the best of
    `trials` sampled patched codes at delta = |C| / 2^{2^j}; "best" means
    least |S| + delta |T|, first trial winning ties.  The output is verified
    to cover before it is returned.
    """
    if R < 1:
        raise ValueError("radius must be at least 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_sweep_dim(1 << m)
    code = Code.from_words(1, [1], r=R)
    for j in range(m):
        nj = 1 << j
        delta = Fraction(len(code), 1 << nj)
        best = None
        for t in range(trials):
            cand = random_patched(nj, R, delta, _subseed(seed + j, t))
            w = len(cand.S) + delta * len(cand.T)
            if best is None or w < best[0]:
                best = (w, cand)
        code = semi_direct_sum(best[1], code)
    if not covers(code, R):
        raise RuntimeError("power-of-two construction produced a non-covering code")
    return code


def random_code_nu(n: int, R: int, seed: int) -> Code:
    """Sample with levelwise probability ln(2^n/nu)/b+(w,R), patch the misses.

    Always returns a covering code: every vertex left uncovered by the random
    part is added verbatim.
    """
    if R < 1:
        raise ValueError("radius must be at least 1")
    _check_sweep_dim(n)
    probs = _level_probs(n, R, Fraction(2**n) / nu(n, R))
    s_code, missing = _sample_and_patch(n, R, probs, seed)
    return Code.from_words(n, list(s_code.words) + missing, r=R)


def greedy_code(n: int, R: int, node_limit: int | None = None) -> Code:
    """Classic greedy set cover over downward R-balls.

    Repeatedly selects the center covering the most still-uncovered vertices,
    breaking ties toward the smallest mask.  Candidates wait in gain buckets:
    bucket g holds those whose stored gain is g, an upper bound on the exact
    gain since gains only fall.  The highest non-empty bucket is scanned in
    mask order, and a candidate whose exact gain is g is selected: none gains
    more, and every smaller mask in the bucket gains less.  Every other
    candidate moves to the bucket of its exact gain, a lower one, and a gain
    of 0 drops it.  At n <= GREEDY_ONE_BLOCK_MAX_N the uncovered set is one
    int, and `_greedy_one_block` scores each candidate at its turn, in one AND
    and one popcount, after every selection before it.  That cutoff is 12, not
    the block width 10: the one pass took 0.57-0.76x the blocked loop's time
    at every R of n = 11 and 0.64-0.94x at n = 12, but up to 1.27x at n = 13.

    Above it the uncovered set is kept in blocks.  A vertex is (b, a), with
    a its low h = GREEDY_BLOCK_BITS coordinates and b the rest, and unc[x] is
    the set of a with (x, a) uncovered, a 2^h-bit int.  The ball of a center
    (b, a) meets block x, for each x in `ball_down(b, R, n - h)` at distance
    d = weight(b) - weight(x), in rows[d][a], the (R - d)-ball of a in Q_h
    from `ball_sets(h, R - d)`.  A gain is the sum of the popcounts of those
    sets against the blocks, and selecting a center clears them.  A vertex is
    listed only when the bucket of its ball size becomes current.  A bucket
    is scanned one group of candidates with the same b at a time, so a group
    shares its block terms and is sorted by a alone; a group with no
    candidate is skipped before its terms are listed.  Each candidate is
    scored at its turn, after every selection before it, as in one block.  A
    waiting candidate is its a, 4 bytes, and the blocks take 2^n bits.

    A node is one candidate scored against one block term, counted once per
    group (in one block, one candidate scored per bucket): past `node_limit`
    the call raises BudgetExceededError.  Without a limit it runs to the end.
    """
    if R < 0:
        raise ValueError("radius must be nonnegative")
    _check_sweep_dim(n)
    if n <= GREEDY_ONE_BLOCK_MAX_N:
        return _greedy_one_block(n, R, node_limit)
    h = GREEDY_BLOCK_BITS
    lows_of_weight = subset_tables(h)[2]
    # rows[d][a]: the ball of (b, a) inside a block at distance d below b
    rows = [ball_sets(h, R - d) for d in range(min(R, n - h) + 1)]
    unc = [full_set(h)] * (1 << (n - h))
    blocks = {}  # b -> [(x, rows[weight(b) - weight(x)])] over the ball of b in Q_{n-h}, b left out
    # a vertex enters the buckets only when its weight's ball size is the current gain
    fresh_at = collections.defaultdict(list)
    for w in range(n + 1):
        fresh_at[ball_size_down(n, w, R)].append(w)
    # g -> b -> a for the candidates (b, a) whose stored gain is g; "I" appends an int
    # without the format parse that "i" takes
    buckets = collections.defaultdict(lambda: collections.defaultdict(functools.partial(array, "I")))
    remaining = 1 << n
    chosen = array("I")  # 4 bytes a word where a list holds an int object
    nodes = 0
    for g in range(max(fresh_at), 0, -1):  # a gain of 0 is never bucketed
        if not remaining:
            break
        if g not in buckets and g not in fresh_at:
            continue
        bucket, fresh = buckets.pop(g, {}), fresh_at.pop(g, ())
        for b in range(1 << (n - h)) if fresh else sorted(bucket):
            wb = b.bit_count()
            current = list(bucket.pop(b, ()))
            for w in fresh:
                if 0 <= w - wb <= h:
                    current += lows_of_weight[w - wb]
            if not current:
                continue
            current.sort()
            terms = blocks.get(b)
            if terms is None:  # b's own block, the last of its ball, is scored apart
                terms = blocks[b] = [(x, rows[wb - x.bit_count()]) for x in ball_down(b, R, n - h)[:-1]]
            nodes += len(current) * (len(terms) + 1)
            if node_limit is not None and nodes > node_limit:
                raise BudgetExceededError(f"greedy node limit {node_limit} exceeded")
            ub, row0 = unc[b], rows[0]
            for a in current:
                e = (ub & row0[a]).bit_count()
                for x, row in terms:
                    e += (unc[x] & row[a]).bit_count()
                if e == g:
                    chosen.append(b << h | a)
                    remaining -= g
                    ub &= ~row0[a]
                    for x, row in terms:
                        unc[x] &= ~row[a]
                elif e:
                    buckets[e][b].append(a)
            unc[b] = ub
            if not remaining:
                break
    if any(unc):  # a miscounted gain, not a hang
        raise RuntimeError(f"greedy left vertices uncovered at (n, R) = ({n}, {R})")
    return Code.from_words(n, chosen, r=R)


def _greedy_one_block(n: int, R: int, node_limit: int | None) -> Code:
    """`greedy_code` at n <= GREEDY_ONE_BLOCK_MAX_N: buckets[g] lists the masks whose
    stored gain is g, each vertex at its ball size from the start."""
    of_weight = subset_tables(n)[2]
    row = ball_sets(n, R)
    buckets = [[] for _ in range(ball_size_down(n, n, R) + 1)]
    for w in range(n + 1):
        buckets[ball_size_down(n, w, R)] += of_weight[w]
    u = full_set(n)
    chosen = []
    nodes = 0
    for g in range(len(buckets) - 1, 0, -1):
        if not (current := buckets[g]):
            continue
        nodes += len(current)
        if node_limit is not None and nodes > node_limit:
            raise BudgetExceededError(f"greedy node limit {node_limit} exceeded")
        current.sort()
        for a in current:
            e = (u & row[a]).bit_count()
            if e == g:
                chosen.append(a)
                u &= ~row[a]
            elif e:
                buckets[e].append(a)
        if not u:
            break
    return Code.from_words(n, chosen, r=R)


def coradius_split(n: int, coradius: int) -> list[int]:
    """Balanced parts r_i with sum(r_i) = coradius whose diagonal blocks fit.

    Uses the fewest parts M >= ceil(coradius^2 / (2n - coradius)) such that
    the per-part dimension floors r_i(r_i+1)/2 sum to at most n.  M = coradius
    (all parts 1, total floor coradius <= n) always fits, so the scan
    terminates.  Takes coradius 0..n; coradius 0 has no parts.
    """
    if not 0 <= coradius <= n:
        raise ValueError("need 0 <= coradius <= n")
    if coradius == 0:
        return []
    d = 2 * n - coradius
    m0 = max(1, -(-(coradius * coradius) // d))
    for m in range(m0, coradius + 1):
        q, s = divmod(coradius, m)
        parts = [q + 1] * s + [q] * (m - s)
        if sum(p * (p + 1) // 2 for p in parts) <= n:
            return parts
    raise AssertionError("unreachable: the all-ones split always fits")


def general_upper_size(n: int, coradius: int) -> int:
    """Size of general_upper_code(n, coradius) without building it."""
    return math.prod(p + 1 for p in coradius_split(n, coradius))


def general_upper_code(n: int, coradius: int) -> Code:
    """Direct sum of diagonal blocks realizing an exact coradius split.

    Each part r_i gets a block of dimension r_i(r_i+1)/2 (the first block
    absorbs leftover coordinates), so the blocks' coradii sum to exactly
    `coradius` and the result downward (n - coradius)-covers Q_n with
    size = prod(r_i + 1): a word is the all-ones word with one of the zero
    runs of `diagonal_code(dim_i, r_i)` cleared in each block.  Refuses,
    before building, a code of more than GENERAL_MAX_WORDS words.
    """
    check_dimension(n)
    if (size := general_upper_size(n, coradius)) > GENERAL_MAX_WORDS:
        raise DimensionCapError(
            f"general code of {size} words exceeds the word cap {GENERAL_MAX_WORDS}")
    parts = coradius_split(n, coradius)
    dims = [p * (p + 1) // 2 for p in parts[1:]]
    words, start = [all_ones(n)], 0
    for p, dim in zip(parts, [n - sum(dims)] + dims):
        words = [w ^ ((1 << j) - 1) << (start + (j - 1) * j // 2) for w in words for j in range(p + 1)]
        start += dim
    return Code.from_words(n, words, r=n - coradius)
