"""Reduced-fraction machinery shared by the stage-set modules.

The unions the experiments measure are unions of balls centred at
rationals.  Working with reduced fractions instead of raw (p, q) pairs
collapses duplicate centres, and the mediant structure of the Farey
sequence gives exact integer formulas for the gaps between neighbouring
centres: consecutive reduced fractions a/b < a'/b' with denominators at
most Q satisfy a'b - ab' = 1, so the gap is exactly 1/(bb').  Everything
performance-critical here is vectorised numpy over int64/float64 with
the exactness argument spelled out where it matters:

* F_Q is built as its sorted packed keys (floor(a 2^kb / b) << db) | b,
  with db = bitlen(Q) and kb = 2 db, in one preallocated int64 array.
  Distinct fractions with denominators <= Q differ by at least
  1/(b b') > 2^-kb, so their scaled floors differ and the keys are
  distinct and in value order; b comes back from the low db bits and
  a = ceil(floor(a 2^kb / b) b / 2^kb) exactly, since b < 2^kb.  Every
  intermediate, and the key of 1/1 (the largest, 2^(3 db) + 1), stays
  below 2^63 while 3 db + 1 <= 63, i.e. for Q <= PACKED_KEY_QMAX;
* the array's left slot holds the left half a/b <= 1/2: one boolean
  mask over rows b and columns a <= b/2 strikes every pair sharing a
  prime, its set entries become keys a block at a time, and the slot
  is sorted in place;
* the right slot is the reflection a/b -> (b - a)/b of the left, read
  backwards (1/2 is its own mirror and appears once), straight off the
  keys with no division: floor((b - a) 2^kb / b) = 2^kb -
  floor(a 2^kb / b) - [b does not divide a 2^kb], and for gcd(a, b) = 1
  and b < 2^kb, b divides a 2^kb iff b is a power of 2, so
  key((b - a)/b) = 2^(3 db) - key(a/b) + 2b - [b is no power of 2] 2^db;
* the build then checks a'b - ab' = 1 over every gap of F_Q.  Each
  temporary of these passes spans one block of BLOCK points, so the
  build holds 8 bytes per point next to the mask and a few blocks;
* int64 products like b * b' stay below 2^62 for every Q the package
  accepts, so merge decisions on gaps are exact integer comparisons;
* one int32 sieve spf[n], the least prime of n, serves every prime and
  totient read: F_Q's mask strikes the primes n = spf[n];
  `prime_factor_pairs` reads each denominator's primes off it (striking
  their multiples is the sweep's coprimality test, see `systems`); and
  `totient_sieve` takes phi(n) = phi(m) (p if p | m, else p - 1), p =
  spf[n], m = n / p, over ranges [lo, lo + min(BLOCK, lo)), so m < lo;
* float sweep measures carry an explicit error budget of a few ulps per
  interval, reported alongside the value.  `union_length` takes one
  sort key per ball and visits the balls in the (lo, code) order of a
  stable sort, found by one in-place int64 sort.  t = (clip(lo) -
  clip_lo) + 0.0 is a float >= +0.0 (the + 0.0 turns -0.0 into +0.0;
  it is inf where the window's width overflows) and nondecreasing in
  lo, since rounding is monotone, so its int64 bit pattern is
  nondecreasing too.  Each ball has a code below 2^ib, and the keys
  (bits >> ib << ib) | code sort by (prefix, code); their low ib bits
  are the order.  Equal lo have equal t, so one prefix, so they come in
  code order; distinct lo may share a prefix too.  A smaller prefix
  means a smaller t, so a strictly smaller clipped lo: only positions
  inside runs of equal prefix can be out of order, and the runs' lo
  ranges are disjoint and increasing.  The sweep walks the sorted keys
  a block at a time, and a block ends where a run does: it takes BLOCK
  positions, head the last of them, and then every later key up to
  head | mask, mask = 2^ib - 1, the largest key with head's prefix
  (below 2^63), found by one binary search.  So a block holds whole
  runs, and one longer than BLOCK makes its block longer.  Inside a
  block the positions that share their prefix with a neighbour are
  read off the keys before the prefixes are masked away, and a stable
  argsort of their clipped lo alone puts each run, in code order so
  far, in (lo, code) order and keeps the runs' order.  The walk reads
  each block's lo and hi, fixes its ties, checks that lo is
  nondecreasing across the block and its edge with the last (an
  InternalInvariantError if not), and carries the running end.  A
  block's positive gains, at most as many as the positions read so
  far, go to the key array's read prefix viewed as float64, so the one
  sum over that prefix adds the stable sort's gains in its order: the
  same pairwise sum, bit for bit;
* a swept ball a/b of radius r (see `systems`) is stored as its key
  alone: its code is (row << wb) | col, row the plan index of b, col =
  a - a_lo[row] < 2^wb, and ib = bitlen(rows - 1) + wb.  Codes sort in
  the flat b-major, a-ascending order of the balls, so they tie-break
  as the balls' flat indices would.  `BallRows` decodes a block of
  codes from per-row float64 tables: c = (a_lo[row] + col) / b and lo,
  hi = c - r, c + r.  a_lo + col and b are integers below 2^53, so each
  float64 is exact, c is the true quotient of int64 a by b rounded
  once, and lo is bit for bit the lo its key was made from (`systems`
  builds it by the same operations).  Denominators stay at most
  MAX_SIEVE < 2^27, so ib <= 54, and a key, a float's pattern >= 0
  with its low ib bits replaced, stays below 2^63.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError, size_text)

# packed int64 sort keys of F_Q are exact up to this denominator bound
# (bitlen(Q) <= 20); the mask there alone would take 550 GB
PACKED_KEY_QMAX = 2 ** 20 - 1
# largest sieve any caller may request: the int32 smallest-prime-factor
# table takes 4 bytes per entry, and phi and its cumsum 8 each
MAX_SIEVE = 100_000_000
# points per block of every blocked pass over packed keys: 512 KB per
# int64 temporary, so a block's working set stays in cache
BLOCK = 1 << 16


def check_sieve(limit: int, what: str) -> None:
    """Refuse, before allocating, a sieve beyond MAX_SIEVE."""
    if limit > MAX_SIEVE:
        raise ResourceCapError("%s needs a totient sieve up to %s (cap %d)"
                               % (what, size_text(limit), MAX_SIEVE))


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[0..limit] as int32: spf[n] is the least prime dividing n for
    n >= 2 (spf[0] = 0, spf[1] = 1).  Struck in ascending order, so a p
    with spf[p] = p when it is reached is prime."""
    check_sieve(limit, "smallest_prime_factors")
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            tail = spf[p * p::p]
            np.minimum(tail, p, out=tail)
    return spf


def totient_sieve(limit: int,
                  spf: Optional[np.ndarray] = None) -> np.ndarray:
    """phi[0..limit] as int64 (phi[0] = 0), off spf, a
    `smallest_prime_factors` table reaching limit, sieved here if None."""
    if limit < 0:
        raise UsageError("limit must be nonnegative")
    check_sieve(limit, "totient_sieve")
    if spf is None:
        spf = smallest_prime_factors(limit)
    phi = np.empty(limit + 1, dtype=np.int64)
    phi[:2] = [0, 1][:limit + 1]
    # over [lo, lo + min(BLOCK, lo)) every m <= n / 2 < lo is done
    lo = 2
    while lo <= limit:
        hi = min(lo + min(BLOCK, lo), limit + 1)
        p = spf[lo:hi].astype(np.int64)
        m = np.arange(lo, hi) // p
        np.multiply(phi[m], p - (m % p != 0), out=phi[lo:hi])
        lo = hi
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


def unpack_keys(keys, qmax: int):
    """(num, den) of packed keys made with this qmax: den is the low db
    bits and num = ceil(floor(a 2^(2 db) / b) b / 2^(2 db)).  The same
    values on Python ints and on int64 arrays."""
    db = qmax.bit_length()
    den = keys & ((1 << db) - 1)
    return -((-(keys >> db) * den) >> 2 * db), den


def farey_keys(qmax: int) -> np.ndarray:
    """Packed keys (`packed_keys`) of all reduced fractions a/b in [0, 1]
    with b <= qmax, sorted, as one int64 array built in place (see the
    module docstring).  Raises if qmax is past the bound where the keys
    stay exact, before anything is allocated.
    """
    if qmax < 1:
        raise UsageError("qmax must be >= 1")
    if qmax > PACKED_KEY_QMAX:
        raise UsageError(
            "qmax=%s exceeds the packed-key order-exactness bound %d"
            % (size_text(qmax), PACKED_KEY_QMAX))
    # ok[b, a] for 0 <= a <= b/2: strike the empty row b = 0, every a
    # above b/2 and pairs sharing a prime (an n >= 2 with spf[n] = n)
    width = qmax // 2 + 1
    ok = np.ones((qmax + 1, width), dtype=bool)
    ok[0] = False
    for b in range(1, qmax + 1):
        ok[b, b // 2 + 1:] = False
    spf = smallest_prime_factors(qmax)
    for p in np.flatnonzero(spf == np.arange(qmax + 1))[2:].tolist():
        ok[p::p, 0::p] = False
    n_left = int(np.count_nonzero(ok))
    # 1/2 (qmax >= 2) ends the left half and is its own mirror
    keys = np.empty(2 * n_left - (qmax >= 2), dtype=np.int64)
    flat, pos = ok.reshape(-1), 0
    for start in range(0, len(flat), BLOCK):
        # flat position b * width + a of every set entry, then a
        at = np.flatnonzero(flat[start:start + BLOCK])
        at += start
        den = at // width
        at -= den * width
        keys[pos:pos + len(at)] = packed_keys(at, den, qmax)
        pos += len(at)
    del ok, flat
    keys[:n_left].sort()
    db = qmax.bit_length()
    top, low = 1 << 3 * db, (1 << db) - 1
    # right[j] mirrors left[j], read backwards from the end of the left
    # slot (before 1/2 when qmax >= 2)
    right = keys[n_left:]
    left = keys[len(right) - 1::-1]
    for start in range(0, len(right), BLOCK):
        key = left[start:start + BLOCK]
        den = key & low
        # [b is no power of 2] 2^db
        odd = np.minimum(den & (den - 1), 1) << db
        right[start:start + BLOCK] = top - key + 2 * den - odd
    # neighbours a/b < a'/b' satisfy a'b - ab' = 1 over every gap
    for start in range(0, len(keys) - 1, BLOCK):
        num, den = unpack_keys(keys[start:start + BLOCK + 1], qmax)
        if not np.all(num[1:] * den[:-1] - num[:-1] * den[1:] == 1):
            raise InternalInvariantError(
                "Farey adjacency failed: generation or sort is broken")
    return keys


def reduced_fractions(qmax: int):
    """All reduced fractions a/b in [0,1] with b <= qmax, sorted.

    Returns (num, den) int64 arrays, decoded from `farey_keys`.
    Includes 0/1 and 1/1.  Raises if qmax is past the bound where the
    packed sort keys stay exact.  No package code calls it; it stays
    because the benchmark's tracer wraps it by name.
    """
    return unpack_keys(farey_keys(qmax), qmax)


def min_multiple_above(den: np.ndarray, window_lo: int,
                       window_hi: int) -> np.ndarray:
    """Per denominator b, the smallest multiple of b in (window_lo,
    window_hi]; 0 where none exists."""
    q = window_lo // den
    q += 1
    q *= den
    q[q > window_hi] = 0
    return q


def prime_factor_pairs(den: np.ndarray, spf: np.ndarray):
    """(row, p) int64 arrays, in row order and each row's primes
    ascending: one pair for every row i and every distinct prime p
    dividing den[i], read off spf, a `smallest_prime_factors` table
    reaching max(den).  den holds integers >= 1; a row with den[i] = 1
    has no pair."""
    row = np.flatnonzero(den > 1)
    rest = den[row].astype(np.int64)
    rows, primes = [row[:0]], [rest[:0]]
    # each level divides out the full power of every row's least prime,
    # so every prime it meets is new to its row
    while len(rest):
        p = spf[rest].astype(np.int64)
        rows.append(row)
        primes.append(p)
        rest //= p
        hit = np.flatnonzero(rest % p == 0)
        while len(hit):
            rest[hit] //= p[hit]
            hit = hit[rest[hit] % p[hit] == 0]
        live = rest > 1
        rest, row = rest[live], row[live]
    rows, primes = np.concatenate(rows), np.concatenate(primes)
    by_row = np.argsort(rows, kind="stable")
    return rows[by_row], primes[by_row]


class BallRows(NamedTuple):
    """Per-row tables that decode a ball's code (row << wb) | col: the
    ball [c - r, c + r] with c = (num0[row] + col) / den[row] and r =
    radius[row], col < 2^wb.  The tables are float64; num0 and den hold
    integers below 2^53, so they are exact and c is the float64
    quotient of the integers a and b, bit for bit."""

    num0: np.ndarray
    den: np.ndarray
    radius: np.ndarray
    wb: int

    @property
    def ib(self) -> int:
        """Bits below a sort key's prefix: every code is below 2^ib."""
        return (len(self.den) - 1).bit_length() + self.wb

    def bounds(self, code: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> None:
        """Write each code's ball ends c - r and c + r into lo and hi,
        float64 arrays as long as code; code is left as it is."""
        # rows come off valid codes, so clip mode takes the same words as
        # raise mode, which buffers its output; lo and hi hold the
        # intermediates, and row, once read, c - r
        row = code >> self.wb
        col = hi.view(np.int64)
        np.bitwise_and(code, (1 << self.wb) - 1, out=col)
        np.take(self.num0, row, out=lo, mode="clip")
        lo += col
        np.take(self.den, row, out=hi, mode="clip")
        lo /= hi
        np.take(self.radius, row, out=hi, mode="clip")
        low = row.view(np.float64)
        np.subtract(lo, hi, out=low)
        np.add(lo, hi, out=hi)
        np.copyto(lo, low)


def sort_keys(lo: np.ndarray, code: np.ndarray, ib: int, clip_lo: float,
              clip_hi: float, out: np.ndarray) -> None:
    """Write into out (int64, as long as lo) the sort keys (bits >> ib <<
    ib) | code of intervals with left ends lo and codes below 2^ib,
    where bits is the int64 pattern of (clip(lo) - clip_lo) + 0.0 (see
    the module docstring).  lo may be out's own words read as float64."""
    t = out.view(np.float64)
    np.clip(lo, clip_lo, clip_hi, out=t)
    t -= clip_lo
    t += 0.0
    out >>= ib
    out <<= ib
    out |= code


def union_length(keys: np.ndarray, rows, clip_lo: float = 0.0,
                 clip_hi: float = 1.0) -> float:
    """Measure of the union of balls [lo, hi] clipped to [clip_lo,
    clip_hi], from one `sort_keys` key per ball, unsorted.

    rows decodes the keys' codes as a `BallRows` does: rows.ib is the
    code width, and rows.bounds(code, lo, hi) writes each code's ball
    ends into lo and hi with the float64 operations that made the keys,
    so bit for bit the lo they were made from (lo holds no NaN, the
    clip bounds are finite).  Float sweep; error is O(n ulps), a few
    1e-16 per interval.  The balls are visited in the (lo, code) order
    of a stable sort, found by one in-place int64 sort of the keys and
    certified as the module docstring argues.  The keys are sorted and
    overwritten in place, and the call holds no word per ball besides
    them, only a few words per position of one block: BLOCK positions,
    or more where a run of equal prefix crosses the block's end.
    """
    n = len(keys)
    if n == 0:
        return 0.0
    ib = rows.ib
    mask = (1 << ib) - 1
    keys.sort()
    # the gain of ball i is hi_i - max(lo_i, running end of the ones
    # before it, -inf for the first); block by block, the positive gains
    # go to the keys' words already read, as float64
    lo_blk, hi_blk, end_blk = np.empty((3, min(n, BLOCK)))
    gains = keys.view(np.float64)
    kept, last_lo, run_end = 0, -np.inf, -np.inf
    start = 0
    while start < n:
        # a block ends where a run of equal prefix does: head | mask is
        # the largest key with head's prefix, still below 2^63
        stop = start + BLOCK
        if stop < n:
            head = keys[stop - 1]
            stop += int(np.searchsorted(keys[stop:], head | mask,
                                        side="right"))
        at = keys[start:stop]
        m = len(at)
        if m > len(lo_blk):
            lo_blk, hi_blk, end_blk = np.empty((3, m))
        lo_b, hi_b, end_b = lo_blk[:m], hi_blk[:m], end_blk[:m]
        prefix = np.right_shift(at, ib, out=end_b.view(np.int64))
        same = prefix[1:] == prefix[:-1]
        at &= mask
        rows.bounds(at, lo_b, hi_b)
        np.clip(lo_b, clip_lo, clip_hi, out=lo_b)
        # the module docstring's fix: the positions that share their
        # prefix with a neighbour, in code order, stably argsorted by
        # clipped lo, put each run in (lo, code) order and keep the runs'
        if same.any():
            tied = np.flatnonzero(np.concatenate(([False], same))
                                  | np.concatenate((same, [False])))
            by_lo = tied[np.argsort(lo_b[tied], kind="stable")]
            lo_b[tied] = lo_b[by_lo]
            hi_b[tied] = hi_b[by_lo]
        if lo_b[0] < last_lo or not np.all(lo_b[1:] >= lo_b[:-1]):
            raise InternalInvariantError(
                "union_length order is not the stable sort's: clipped lo "
                "decreases after the tie fix")
        last_lo = lo_b[-1]
        np.clip(hi_b, clip_lo, clip_hi, out=hi_b)
        end_b[0] = run_end
        end_b[1:] = hi_b[:-1]
        np.maximum.accumulate(end_b, out=end_b)
        run_end = max(end_b[-1], hi_b[-1])
        np.maximum(lo_b, end_b, out=lo_b)
        hi_b -= lo_b
        got = hi_b[hi_b > 0]
        gains[kept:kept + len(got)] = got
        kept += len(got)
        start = stop
    return float(gains[:kept].sum())


def union_length_error_budget(n_intervals: int) -> float:
    """Certified bound on the float sweep's absolute measure error."""
    return 4.0 * np.finfo(np.float64).eps * max(n_intervals, 1)
