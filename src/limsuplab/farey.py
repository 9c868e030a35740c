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
* the left slot holds the left half a/b <= 1/2, n_left = 1 + [Q >= 2]
  + sum_{3 <= b <= Q} phi(b)/2 keys (any other count written raises):
  rows b = 1..Q of candidates a = 0..floor(b/2) through the coprimality
  strike below, kept a chunk at a time, then sorted in place;
* the right slot is the reflection a/b -> (b - a)/b of the left, read
  backwards (1/2 is its own mirror and appears once), which
  `mirror_keys`, also the open-gap list's mirror (`ubiquity`), writes
  straight off the keys with no division: floor((b - a) 2^kb / b) =
  2^kb - floor(a 2^kb / b) - [b does not divide a 2^kb], and for
  gcd(a, b) = 1 and b < 2^kb, b divides a 2^kb iff b is a power of 2, so
  key((b - a)/b) = 2^(3 db) - key(a/b) + 2b - [b is no power of 2] 2^db;
* the build then checks a'b - ab' = 1 over every gap of F_Q.  Each
  temporary of these passes spans one block of BLOCK points, so the
  build holds 8 bytes per point and a few blocks; the mirror and the
  check go a quarter block at a time, so freeing their four or five live
  temporaries never trims the heap, which refaulted each block's pages;
* int64 products like b * b' stay below 2^62 for every Q the package
  accepts, so merge decisions on gaps are exact integer comparisons;
* one int32 sieve spf[n], the least prime of n, serves every prime and
  totient read, and `stage_sieve`, the package's one way to its tables,
  fills it and then, in one `totient_sieve` pass, phi and a second int32
  table, strip: phi(n) = phi(m) (p if p | m, else p - 1) and strip[n] =
  strip[m] if p | m, else m (n with every factor p divided out), for p =
  spf[n] and m = n / p, over ranges [lo, lo + min(BLOCK, lo)), so m <
  lo.  m is the float64 quotient n / p, exact as p | n < 2^53, and p | m
  exactly when spf[m] = p.  `prime_factor_pairs` reads a denominator's
  distinct primes off spf and strip a level at a time, p = spf[rest] and
  then rest = strip[rest], until rest = 1.  spf and strip take 4 bytes
  per entry and phi 8.  The reader makes 5 numpy calls a level, and a
  denominator below MAX_SIEVE has at most 8 distinct primes;
* the coprimality strike (`coprime_runs`), the package's one test of
  gcd(c, b) = 1: a row's candidates c = first + t, 0 <= t < count, are
  consecutive, so the multiples of each prime p | b among them start
  off = (-first) mod p places in and number (count - 1 - off) // p + 1,
  and `strike` clears them; c = 0 falls for every b > 1, and b = 1 keeps
  all.  Rows go a chunk at a time, at most BLOCK candidates or one
  longer row, and a kept c comes out labelled: label + t, for its row's
  label.  F_Q's left half strikes rows b of candidates a and the
  open-gap list (`ubiquity`) rows b of b', both labelled by first, so c
  itself; the stage sweep (`BallRows.keys`) strikes rows b of a cell's
  a, labelled by first + (row << wb), so each ball's code;
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
  InternalInvariantError if not), and carries the running end: with
  end_i the largest hi of the balls up to i, ball i gains end_i -
  max(lo_i, end_i-1), which is positive exactly where the sweep's hi_i
  - max(lo_i, end_i-1) is, and then end_i = hi_i, so the two are the
  same float.  A block's positive gains, at most as many as the
  positions read so far, go to the key array's read prefix viewed as
  float64, so the one sum over that prefix adds the stable sort's
  gains in its order: the same pairwise sum, bit for bit;
* a swept ball a/b of radius r (see `systems`) is stored as its key
  alone: its code is (row << wb) | a, row the plan index of b, wb =
  bitlen(max b) > bitlen(a), and ib = bitlen(rows - 1) + wb.  Codes
  sort in the flat b-major, a-ascending order of the balls, so they
  tie-break as the balls' flat indices would.  `BallRows` builds the
  keys and decodes a block of codes from the same per-row float64
  tables: c = a / b and lo, hi = c - r, c + r.  a and b are integers
  below 2^53, so c is their true quotient rounded once, and both take
  lo by the same operations, so a decoded lo is bit for bit the lo its
  key was made from.  Denominators stay at most MAX_SIEVE < 2^27, so ib
  <= 54, and a key, a float's pattern >= 0 with its low ib bits
  replaced, stays below 2^63.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError, size_text)

# packed int64 sort keys of F_Q are exact up to this denominator bound
# (bitlen(Q) <= 20); the keys there alone would take 2.7 TB
PACKED_KEY_QMAX = 2 ** 20 - 1
# largest sieve any caller may request: the int32 smallest-prime-factor
# and strip tables take 4 bytes per entry, and the int64 phi 8
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


def totient_sieve(limit: int, spf: np.ndarray,
                  strip: np.ndarray) -> np.ndarray:
    """phi[0..limit] as int64 (phi[0] = 0), off spf, a
    `smallest_prime_factors` table reaching limit, filling in the same
    pass strip, an int32 array of limit + 1 words: strip[n] is n with
    every factor spf[n] divided out (strip[0] = 0, strip[1] = 1), the
    table `prime_factor_pairs` reads.  `stage_sieve` is its one caller."""
    phi = np.empty(limit + 1, dtype=np.int64)
    phi[:2] = strip[:2] = [0, 1][:limit + 1]
    # over [lo, lo + min(BLOCK, lo)) every m <= n / 2 < lo is done
    lo = 2
    while lo <= limit:
        hi = min(lo + min(BLOCK, lo), limit + 1)
        p = spf[lo:hi]
        # p | n and n < 2^53, so the float64 quotient n / p is m exactly
        m = (np.arange(lo, hi, dtype=np.float64) / p).astype(np.int64)
        # p divides m exactly when it is m's least prime too
        new = spf[m] != p
        np.multiply(phi[m], p - new, out=phi[lo:hi])
        # strip[n] = strip[m] if p | m, else m
        strip[lo:hi] = np.where(new, m, strip[m])
        lo = hi
    return phi


def packed_keys(num, den, qmax: int, out=None):
    """Value-ordered keys (floor(a 2^(2 db) / b) << db) | b, db =
    bitlen(qmax), of a/b in [0, 1] with b <= qmax: below 2^(3 db + 1)
    (1/1 has 2^(3 db) + 1), so exact in int64 for qmax <= 2^20 - 1.
    Built in place on int64 arrays, in out if given (an int64 array as
    long as num); the same values on Python ints."""
    db = qmax.bit_length()
    keys = num << 2 * db if out is None else np.left_shift(num, 2 * db,
                                                           out=out)
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


def stage_sieve(limit: int):
    """(spf, strip, phi) up to limit, limit >= 0, from one
    `totient_sieve` pass: the least-prime and strip tables
    `prime_factor_pairs` reads, and phi.  Refused past MAX_SIEVE before
    anything is allocated."""
    if limit < 0:
        raise UsageError("limit must be nonnegative")
    spf = smallest_prime_factors(limit)
    strip = np.empty_like(spf)
    return spf, strip, totient_sieve(limit, spf, strip)


def farey_keys(qmax: int, sieve=None) -> np.ndarray:
    """Packed keys (`packed_keys`) of all reduced fractions a/b in [0, 1]
    with b <= qmax, sorted, as one int64 array built in place (see the
    module docstring).  sieve is the caller's `stage_sieve(qmax)`, made
    here if None.  Raises if qmax is past the bound where the keys stay
    exact, before anything is allocated.
    """
    if qmax < 1:
        raise UsageError("qmax must be >= 1")
    if qmax > PACKED_KEY_QMAX:
        raise UsageError(
            "qmax=%s exceeds the packed-key order-exactness bound %d"
            % (size_text(qmax), PACKED_KEY_QMAX))
    spf, strip, phi = stage_sieve(qmax) if sieve is None else sieve
    # rows b with candidates a = 0..b/2: 0/1, 1/2 (qmax >= 2), which ends
    # the left half and is its own mirror, and phi(b)/2 for each b >= 3
    b = np.arange(1, qmax + 1, dtype=np.int64)
    count = b // 2 + 1
    first = np.zeros(qmax, dtype=np.int64)
    n_left = 1 + (qmax >= 2) + int(phi[3:qmax + 1].sum()) // 2
    keys = np.empty(2 * n_left - (qmax >= 2), dtype=np.int64)
    n = 0
    pairs = prime_factor_pairs(b, spf, strip)
    for i, j, a, kept in coprime_runs(first, count, pairs, first):
        n, at = n + len(a), n
        if n > n_left:
            break
        packed_keys(a, b[i:j].repeat(kept), qmax, keys[at:n])
    if n != n_left:
        raise InternalInvariantError(
            "F_Q's left half is not the %d points phi counts" % n_left)
    keys[:n_left].sort()
    # the right slot mirrors the left read backwards from its end, before
    # 1/2 when qmax >= 2
    mirror_keys(keys[n_left - 1 - (qmax >= 2)::-1], qmax, keys[n_left:])
    # neighbours a/b < a'/b' satisfy a'b - ab' = 1 over every gap
    for start in range(0, len(keys) - 1, BLOCK >> 2):
        num, den = unpack_keys(keys[start:start + (BLOCK >> 2) + 1], qmax)
        if not np.all(num[1:] * den[:-1] - num[:-1] * den[1:] == 1):
            raise InternalInvariantError(
                "Farey adjacency failed: generation or sort is broken")
    return keys


def mirror_keys(keys: np.ndarray, qmax: int, out: np.ndarray) -> None:
    """out[i] = key((b - a)/b) for keys[i] = key(a/b), keys made with this
    qmax, a quarter block at a time; int64, one length, no overlap."""
    db = qmax.bit_length()
    top, low, step = 1 << 3 * db, (1 << db) - 1, BLOCK >> 2
    for start in range(0, len(keys), step):
        key = keys[start:start + step]
        den = key & low
        # [b is no power of 2] 2^db
        odd = np.minimum(den & (den - 1), 1) << db
        out[start:start + step] = top - key + 2 * den - odd


def reduced_fractions(qmax: int):
    """All reduced fractions a/b in [0,1] with b <= qmax, sorted.

    Returns (num, den) int64 arrays, decoded from `farey_keys`.
    Includes 0/1 and 1/1.  Raises if qmax is past the bound where the
    packed sort keys stay exact.  No package code calls it; it stays
    because the benchmark's tracer wraps it by name.
    """
    return unpack_keys(farey_keys(qmax), qmax)


def prime_factor_pairs(den: np.ndarray, spf: np.ndarray,
                       strip: np.ndarray):
    """(row, p) int64 arrays, in row order and each row's primes
    ascending: one pair for every row i and every distinct prime p
    dividing den[i], read off spf and strip, the least-prime and strip
    tables of a `stage_sieve` reaching max(den).  den holds integers
    >= 1; a row with den[i] = 1 has no pair."""
    row = (den > 1).nonzero()[0]
    rest = den[row]
    rows, primes = [row], [spf[rest]]
    # each level reads one prime per row and strips its full power, so
    # the next level's least prime is new to the row and larger
    while True:
        rest = strip[rest]
        live = rest > 1
        row, rest = row[live], rest[live]
        if not len(row):
            break
        rows.append(row)
        primes.append(spf[rest])
    rows = np.concatenate(rows)
    by_row = rows.argsort(kind="stable")
    return rows[by_row], np.concatenate(primes, dtype=np.int64)[by_row]


def strike(keep: np.ndarray, first: np.ndarray, step: np.ndarray,
           count: np.ndarray) -> None:
    """keep[first[j] + t * step[j]] = False for 0 <= t < count[j], every
    position inside keep.  The positions are built in chunks of at most
    len(keep) (one pair strikes within one row, never more), each as one
    running sum of steps whose partial sums are the positions
    themselves, so every value stays within +-len(keep)."""
    live = count > 0
    first, step, count = first[live], step[live], count[live]
    ends = count.cumsum()
    j = 0
    while j < len(count):
        stop = int(ends.searchsorted(ends[j] - count[j] + len(keep),
                                     side="right"))
        c = count[j:stop]
        pos = step[j:stop].repeat(c)
        # each pair's run of positions starts at seg
        seg = ends[j:stop] - c
        seg -= seg[0]
        last = first[j:stop] + (c - 1) * step[j:stop]
        pos[0] = first[j]
        pos[seg[1:]] = first[j + 1:stop] - last[:-1]
        pos.cumsum(out=pos)
        keep[pos] = False
        j = stop


def coprime_runs(first: np.ndarray, count: np.ndarray, pairs,
                 label: np.ndarray):
    """The coprimality strike (module docstring) over rows r of
    candidates first[r] + t, 0 <= t < count[r] (first, count >= 0 and
    label, one per row, all int64), pairs the rows' `prime_factor_pairs`.
    Yields (i, j, got, kept) per chunk of rows i..j - 1: got holds
    label[r] + t for each candidate first[r] + t coprime to its row's
    denominator, in row order and ascending t, and kept, how many of
    them each row holds."""
    rows, primes = pairs
    # row r's candidates sit at flat positions flat[r] + t, and the one
    # at position x yields x + shift[r]
    flat = np.zeros(len(count) + 1, dtype=np.int64)
    count.cumsum(out=flat[1:])
    starts = flat[:-1]
    shift = label - starts
    # the pairs of rows i..j - 1 are rows[pair_at[i]:pair_at[j]]
    pair_at = rows.searchsorted(np.arange(len(count) + 1))
    off = -first[rows] % primes
    hit = starts[rows] + off
    strikes = (count[rows] - 1 - off) // primes + 1
    i = 0
    while i < len(count):
        base = int(starts[i])
        j = max(i + 1, int(flat.searchsorted(base + BLOCK,
                                             side="right")) - 1)
        keep = np.ones(int(flat[j]) - base, dtype=bool)
        at = slice(pair_at[i], pair_at[j])
        strike(keep, hit[at] - base, primes[at], strikes[at])
        # positions less base, labelled in the repeat's array: adding the
        # repeat into pos instead made F_Q builds refault the heap top more
        pos = keep.nonzero()[0]
        kept = pos.searchsorted(flat[i:j + 1] - base)
        kept = kept[1:] - kept[:-1]
        got = (shift[i:j] + base).repeat(kept)
        got += pos
        del pos
        yield i, j, got, kept
        i = j


class BallRows(NamedTuple):
    """Per-row tables that decode a ball's code (row << wb) | a: the ball
    [c - r, c + r] with c = a / den[row] and r = radius[row], a < 2^wb.
    The tables are float64; den holds integers below 2^53, so it is
    exact and c is the float64 quotient of the integers a and b, bit for
    bit."""

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
        # raise mode, which buffers its output; hi holds a, and row, once
        # read, c - r
        row = code >> self.wb
        num = np.bitwise_and(code, (1 << self.wb) - 1, out=hi.view(np.int64))
        self.den.take(row, out=lo, mode="clip")
        np.divide(num, lo, out=lo)
        self.radius.take(row, out=hi, mode="clip")
        low = row.view(np.float64)
        np.subtract(lo, hi, out=low)
        np.add(lo, hi, out=hi)
        np.copyto(lo, low)

    def keys(self, a_lo: np.ndarray, counts: np.ndarray, pairs,
             clip_lo: float, clip_hi: float) -> np.ndarray:
        """The `sort_keys` of the balls a/b with gcd(a, b) = 1 among the
        counts[r] candidates a_lo[r], a_lo[r] + 1, ... of each row r
        (int64 arrays), pairs the rows' `prime_factor_pairs`: unsorted,
        in code order, a prefix of one array sized for every candidate.
        Each kept ball's lo is written to its key's word, which then
        becomes the key."""
        label = np.arange(len(counts), dtype=np.int64)
        label <<= self.wb
        label += a_lo
        mask = (1 << self.wb) - 1
        keys = np.empty(int(counts.sum()), dtype=np.int64)
        n = 0
        for i, j, code, kept in coprime_runs(a_lo, counts, pairs, label):
            # code is (row << wb) | a, and lo = a / b - r: the operations
            # and bits of bounds
            key = keys[n:n + len(code)]
            lo = key.view(np.float64)
            np.divide(code & mask, self.den[i:j].repeat(kept), out=lo)
            lo -= self.radius[i:j].repeat(kept)
            sort_keys(lo, code, self.ib, clip_lo, clip_hi, key)
            n += len(code)
        return keys[:n]


def sort_keys(lo: np.ndarray, code: np.ndarray, ib: int, clip_lo: float,
              clip_hi: float, out: np.ndarray) -> None:
    """Write into out (int64, as long as lo) the sort keys (bits >> ib <<
    ib) | code of intervals with left ends lo and codes below 2^ib,
    where bits is the int64 pattern of (clip(lo) - clip_lo) + 0.0 (see
    the module docstring).  lo may be out's own words read as float64."""
    t = out.view(np.float64)
    np.maximum(lo, clip_lo, out=t)
    np.minimum(t, clip_hi, out=t)
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
    so bit for bit the lo they were made from (lo and hi hold no NaN,
    the clip bounds are finite).  Float sweep; error is O(n ulps), a few
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
    # block by block, lo and hi land at [1:] of two buffers whose [0]
    # carries the last lo and running end (-inf before the first), and
    # the positive gains go to the keys' words already read, as float64
    lo_at, end_at = np.empty((2, min(n, BLOCK) + 1))
    lo_at[0] = end_at[0] = -np.inf
    gains = keys.view(np.float64)
    kept = start = 0
    while start < n:
        # a block ends where a run of equal prefix does: head | mask is
        # the largest key with head's prefix, still below 2^63
        stop = start + BLOCK
        if stop < n:
            head = keys[stop - 1]
            stop += int(keys[stop:].searchsorted(head | mask, side="right"))
        at = keys[start:stop]
        m = len(at)
        if m >= len(lo_at):
            grown = np.empty((2, m + 1))
            grown[:, 0] = lo_at[0], end_at[0]
            lo_at, end_at = grown
        lo_b, hi_b, run = lo_at[1:m + 1], end_at[1:m + 1], end_at[:m + 1]
        prefix = np.right_shift(at, ib, out=lo_b.view(np.int64))
        same = prefix[1:] == prefix[:-1]
        at &= mask
        rows.bounds(at, lo_b, hi_b)
        np.maximum(lo_b, clip_lo, out=lo_b)
        np.minimum(lo_b, clip_hi, out=lo_b)
        # the module docstring's fix: the positions that share their
        # prefix with a neighbour, in code order, stably argsorted by
        # clipped lo, put each run in (lo, code) order and keep the runs'
        if same.any():
            tied = np.flatnonzero(np.concatenate(([False], same))
                                  | np.concatenate((same, [False])))
            by_lo = tied[np.argsort(lo_b[tied], kind="stable")]
            lo_b[tied] = lo_b[by_lo]
            hi_b[tied] = hi_b[by_lo]
        if not (lo_b >= lo_at[:m]).all():
            raise InternalInvariantError(
                "union_length order is not the stable sort's: clipped lo "
                "decreases after the tie fix")
        lo_at[0] = lo_b[-1]
        np.maximum(hi_b, clip_lo, out=hi_b)
        np.minimum(hi_b, clip_hi, out=hi_b)
        # the running ends; no hi is NaN, so fmax, the faster loop, is
        # maximum here
        np.fmax.accumulate(run, out=run)
        np.maximum(lo_b, run[:-1], out=lo_b)
        np.subtract(hi_b, lo_b, out=lo_b)
        got = lo_b[lo_b > 0]
        gains[kept:kept + len(got)] = got
        kept += len(got)
        end_at[0] = run[-1]
        start = stop
    return float(gains[:kept].sum())


def union_length_error_budget(n_intervals: int) -> float:
    """Certified bound on the float sweep's absolute measure error: 4
    float64 epsilons (2^-52) per interval, as a float."""
    return 4.0 * 2.0 ** -52 * max(n_intervals, 1)
