"""Reduced-fraction machinery shared by the stage-set modules.

The unions the experiments measure are unions of balls centred at
rationals.  Working with reduced fractions instead of raw (p, q) pairs
collapses duplicate centres, and the mediant structure of the Farey
sequence gives exact integer formulas for the gaps between neighbouring
centres: consecutive reduced fractions a/b < a'/b' with denominators at
most Q satisfy a'b - ab' = 1, so the gap is exactly 1/(bb').  Everything
performance-critical here is vectorised numpy over int64/float64 with
the exactness argument spelled out where it matters:

* F_Q is built from its left half a/b <= 1/2: one boolean mask over
  rows b and columns a <= b/2 strikes every pair sharing a prime, and
  the right half is the exact reflection a/b -> (b - a)/b of the left
  (1/2 is its own mirror and appears once);
* that half is ordered by one integer sort of packed keys
  (floor(a 2^kb / b) << db) | b, with db = bitlen(Q) and kb = 2 db.
  Distinct fractions with denominators <= Q differ by at least
  1/(b b') > 2^-kb, so their scaled floors differ and the keys are
  distinct and in value order; b comes back from the low db bits and
  a = ceil(floor(a 2^kb / b) b / 2^kb) exactly, since b < 2^kb.  Every
  intermediate, and the key of 1/2 (the largest, 2^(3 db - 1) + 2),
  stays below 2^63 while 3 db <= 63, i.e. for Q <= PACKED_KEY_QMAX;
* int64 products like b * b' stay below 2^62 for every Q the package
  accepts, so merge decisions on gaps are exact integer comparisons;
* `prime_factor_pairs` reads the distinct primes of every denominator
  off one smallest-prime-factor sieve; striking their multiples is the
  sweep's coprimality test (see `systems`);
* float sweep measures carry an explicit error budget of a few ulps per
  interval, reported alongside the value.  `union_length` visits the
  intervals in (lo, index) order, which a stable sort would give, but
  sorts with the default unstable argsort: equal lo values form one
  contiguous run in any sorted order, so one int64 sort of the keys
  (run << 32) | index over the tied positions alone restores index
  order inside every run, and the positive gains and their pairwise
  sum are the stable sort's bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError, size_text)

# packed int64 sort keys of a/b are exact up to this denominator bound
# (bitlen(Q) <= 21); the mask there alone would take 2 TB
PACKED_KEY_QMAX = 2 ** 21 - 1
# largest totient sieve any caller may request (phi and its cumsum take
# 8 bytes per entry each)
MAX_SIEVE = 100_000_000
# gaps per slice of the Farey adjacency check (16 MB per int64 product)
_ADJACENCY_CHUNK = 1 << 20


def check_sieve(limit: int, what: str) -> None:
    """Refuse, before allocating, a sieve beyond MAX_SIEVE."""
    if limit > MAX_SIEVE:
        raise ResourceCapError("%s needs a totient sieve up to %s (cap %d)"
                               % (what, size_text(limit), MAX_SIEVE))


def _primes(limit: int) -> np.ndarray:
    """Primes p <= limit, ascending (Eratosthenes)."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return np.flatnonzero(is_prime)


def totient_sieve(limit: int) -> np.ndarray:
    """phi[0..limit] as int64 (phi[0] = 0)."""
    if limit < 0:
        raise UsageError("limit must be nonnegative")
    check_sieve(limit, "totient_sieve")
    phi = np.arange(limit + 1, dtype=np.int64)
    # rest[n] = n with every prime <= sqrt(limit) divided out; int32 is
    # exact because limit <= MAX_SIEVE < 2^31
    rest = np.arange(limit + 1, dtype=np.int32)
    for p in _primes(math.isqrt(limit)).tolist():
        phi[p::p] -= phi[p::p] // p
        pk = p
        while pk <= limit:
            rest[pk::pk] //= p
            pk *= p
    # at most one prime factor above sqrt(limit) is left, and it divides
    # phi[n] here: phi[n] = P * phi(n / P) so far
    big = np.flatnonzero(rest > 1)
    phi[big] -= phi[big] // rest[big]
    return phi


def packed_keys(num, den, qmax: int):
    """Value-ordered keys (floor(a 2^(2 db) / b) << db) | b, db =
    bitlen(qmax), of a/b in [0, 1] with b <= qmax: below 2^(3 db + 1)
    (1/1 has 2^(3 db) + 1), so exact in int64 for qmax <= 2^20 - 1.
    Built in place on int64 arrays; the same values on Python ints."""
    db = qmax.bit_length()
    keys = num << 2 * db
    keys //= den
    keys <<= db
    keys |= den
    return keys


def reduced_fractions(qmax: int):
    """All reduced fractions a/b in [0,1] with b <= qmax, sorted.

    Returns (num, den) int64 arrays.  Includes 0/1 and 1/1.  Raises if
    qmax is past the bound where the packed sort keys stay exact.
    """
    if qmax < 1:
        raise UsageError("qmax must be >= 1")
    if qmax > PACKED_KEY_QMAX:
        raise UsageError(
            "qmax=%s exceeds the packed-key order-exactness bound %d"
            % (size_text(qmax), PACKED_KEY_QMAX))
    # ok[b, a] for 0 <= a <= b/2: strike pairs sharing a prime, the
    # empty row b = 0 and every a above b/2
    half = qmax // 2
    ok = np.ones((qmax + 1, half + 1), dtype=bool)
    ok[0] = False
    for p in _primes(qmax).tolist():
        ok[p::p, 0::p] = False
    ok &= 2 * np.arange(half + 1) <= np.arange(qmax + 1)[:, None]
    den, num = np.divmod(np.flatnonzero(ok), half + 1)
    del ok
    key = packed_keys(num, den, qmax)
    key.sort()
    db = qmax.bit_length()
    den = key & ((1 << db) - 1)
    num = -((-(key >> db) * den) >> 2 * db)
    del key
    # mirror a/b -> (b - a)/b; the last left term 1/2 (qmax >= 2) is its
    # own mirror
    mirror = slice(len(num) - 1 - (qmax >= 2), None, -1)
    num = np.concatenate((num, den[mirror] - num[mirror]))
    den = np.concatenate((den, den[mirror]))
    # neighbours a/b < a'/b' satisfy a'b - ab' = 1; checked in chunks so
    # the two int64 products never outweigh num and den themselves
    for start in range(0, len(num) - 1, _ADJACENCY_CHUNK):
        stop = min(start + _ADJACENCY_CHUNK, len(num) - 1)
        if not np.all(num[start + 1:stop + 1] * den[start:stop]
                      - num[start:stop] * den[start + 1:stop + 1] == 1):
            raise InternalInvariantError(
                "Farey adjacency failed: generation or sort is broken")
    return num, den


def min_multiple_above(den: np.ndarray, window_lo: int,
                       window_hi: int) -> np.ndarray:
    """Per denominator b, the smallest multiple of b in (window_lo,
    window_hi]; 0 where none exists."""
    q = den * (window_lo // den + 1)
    return np.where(q <= window_hi, q, 0)


def prime_factor_pairs(den: np.ndarray):
    """(row, p) int64 arrays: one pair for every row i and every
    distinct prime p dividing den[i], read off one smallest-prime-factor
    sieve up to max(den).  den holds integers in [1, MAX_SIEVE]; a row
    with den[i] = 1 has no pair."""
    limit = int(den.max(initial=1))
    check_sieve(limit, "prime_factor_pairs")
    # written from the largest prime down, so the smallest prime
    # dividing n is the last one written to spf[n]; a composite n has
    # a prime factor p with p^2 <= n, and primes keep spf[n] = n
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in _primes(math.isqrt(limit))[::-1].tolist():
        spf[p * p::p] = p
    row = np.flatnonzero(den > 1)
    rest = den[row].astype(np.int64)
    prev = np.zeros_like(rest)
    rows, primes = [row[:0]], [prev[:0]]
    # dividing out smallest prime factors meets each prime of a row in
    # one unbroken stretch, so a prime is new exactly when it differs
    # from the previous one
    while len(rest):
        p = spf[rest].astype(np.int64)
        new = p != prev
        rows.append(row[new])
        primes.append(p[new])
        rest //= p
        live = rest > 1
        rest, row, prev = rest[live], row[live], p[live]
    return np.concatenate(rows), np.concatenate(primes)


def union_length(lo: np.ndarray, hi: np.ndarray,
                 clip_lo: float = 0.0, clip_hi: float = 1.0) -> float:
    """Measure of the union of [lo_i, hi_i] clipped to [clip_lo, clip_hi].

    Float sweep; error is O(n ulps), a few 1e-16 per interval.  The
    intervals are visited in the (lo, index) order of a stable sort (lo
    holds no NaN), restored after an unstable one as the module
    docstring argues.  Its keys (run << 32) | index are exact in int64
    while n < 2^31; a sweep cell holds at most 10 * systems._CELL_BUDGET
    = 8e7 intervals.
    """
    if len(lo) == 0:
        return 0.0
    lo = np.clip(lo, clip_lo, clip_hi)
    hi = np.clip(hi, clip_lo, clip_hi)
    order = np.argsort(lo)
    lo_sorted = lo[order]
    # eq[i] = lo_sorted[i - 1] == lo_sorted[i], False at both ends
    eq = np.zeros(len(lo) + 1, dtype=bool)
    np.equal(lo_sorted[1:], lo_sorted[:-1], out=eq[1:-1])
    tied = np.flatnonzero(eq[:-1] | eq[1:])
    run = np.cumsum(~eq[tied])
    key = run << 32 | order[tied]
    key.sort()
    order[tied] = key & 0xFFFFFFFF
    # lo_sorted is already right: tied values are equal floats, up to a
    # sign of zero that no positive gain can see
    lo, hi = lo_sorted, hi[order]
    run_end = np.maximum.accumulate(hi)
    prev_end = np.empty_like(run_end)
    prev_end[0] = clip_lo
    prev_end[1:] = run_end[:-1]
    gain = hi - np.maximum(lo, prev_end)
    return float(gain[gain > 0].sum())


def union_length_error_budget(n_intervals: int) -> float:
    """Certified bound on the float sweep's absolute measure error."""
    return 4.0 * np.finfo(np.float64).eps * max(n_intervals, 1)
