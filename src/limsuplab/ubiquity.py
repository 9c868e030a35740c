"""Local ubiquity ratios, computed exactly.

The uniform stage J(n) collects every resonant point of weight <= k^n
and draws the common radius rho(k^n) around each.  For both supported
systems the point set is the full Farey sequence F_Q (Q = largest
admissible denominator), which makes exact measure computation
tractable at scale:

  * consecutive Farey fractions a/b < a'/b' satisfy a'b - ab' = 1, so
    the gap between neighbouring centres is exactly 1/(bb');
  * a gap stays open (the two balls stay apart) iff 1/(bb') > 2r, i.e.
    bb' < theta = ceil(rd / (2 rn)) once r = rn/rd is cleared of
    denominators; bb' <= Q^2, so a theta past Q^2 + 1 is clamped to it
    before any int64 use (a radius of 10^-30 gives theta = 5 10^29);
  * maximal runs of joined gaps become single blocks
    [c_first - r, c_last + r], pairwise separated by more than 2r.

The engine stores a stage as its blocks: the sorted packed int64 key
(farey.packed_keys) of each block's first point, and, for the merged
blocks alone (two points or more), their block index and the key of
their last point.  A centre's denominator is its key's low bitlen(Q)
bits and its numerator is decoded off the key (farey.unpack_keys) where
a query reads it.  One totient pass up to Q (farey.stage_sieve) fills
the least-prime, strip and phi tables, which both builders read.  The
blocks come from one of two builders, picked before any per-point array
is allocated from the size of the lattice region below against |F_Q|,
which phi counts
(_lattice_is_cheaper: the list is taken up to one point of the half
b <= b' per 4 Farey points; the two measured even near 0.3):

  * the open gaps, listed directly (_lattice_blocks).  The neighbour
    pairs a/b < a'/b' of F_Q are in bijection with the coprime (b, b')
    with b, b' <= Q < b + b' (Hardy & Wright, ch. III): for such a pair
    a is the one residue in [0, b) with a b' = -1 (mod b), and
    a' = (1 + ab')/b <= b', so both points lie in [0, 1]; a'b - ab' = 1
    and b + b' > Q leave no fraction of denominator <= Q between them.
    So the open gaps are the coprime points of the lattice region
    {b, b' <= Q < b + b', bb' < theta}, each met once.  The half
    b <= b' is listed in numpy a chunk of rows b at a time: a row's b'
    are consecutive, so `farey`'s coprimality strike
    (farey.coprime_runs) keeps the coprime ones, and a =
    (-b')^(phi(b) - 1) mod b is an exact float64 modular power
    (_minus_inverse).  Every listed pair is checked exactly
    (a'b - ab' = 1, b + b' > Q, bb' < theta, both points in F_Q), so a
    wrong residue raises rather than passing.  One pass of F_Q's own
    mirror (farey.mirror_keys) then adds each gap's mirror, the gap
    (b' - a')/b' < (b - a)/b of (b', b), unlisted as b < b' once Q >= 2,
    unchecked as its check would test the same integers reordered:
    (b - a) b' - (b' - a') b = a'b - ab', and b' - a' >= 0 iff a' <= b'.
    The keys go into one array of 4 words per lattice candidate, 2 for
    0/1 and 1/1, whose unwritten tail is cut off.
    Sorted once, the keys of 0/1, of both ends of every open gap and
    of 1/1 run block start, block end, next start, ..., and that list
    is checked to be strictly increasing from block to block with
    start <= end in each; the starts then move to its front;
  * F_Q's keys (farey.farey_keys, certified there), compacted in place
    to the block starts by one blocked pass that also takes each merged
    block's index and last key (_farey_blocks); with no joined gap, as
    on a Ford stage at rho = r^-1, the keys are the starts.

A measure query against [lo, hi] finds L, the first block reaching lo,
and R, the last reaching hi, by one search of the start keys per end
(_rank); on a stage with merged blocks the block before L's candidate
is merged, and may reach lo, only if its end key says so.  Blocks L..R
are disjoint and every gap between them lies inside [lo, hi], so with
s_i, e_i the first and last centres of block i

  m(union ∩ [lo, hi]) = min(e_R + r, hi) - max(s_L - r, lo)
                        - (e_R - s_L) + sum_{L <= i <= R} (e_i - s_i)
                        + 2r (R - L):

each of the R - L open gaps adds 2r and only the merged blocks in
[L, R] add a span e_i - s_i.  The spans of merged blocks m_lo..m_hi - 1
sum to sum (a_e/b_e - a_s/b_s) = sum_b coef_b / b, the integer coef_b
being their numerators bucketed per denominator.  The ends are clipped,
and hi <= lo is told apart, by cross-products of integer numerators and
positive denominators.  A query whose [L, R] holds no merged block, as
every query on a Ford stage does, adds no span and is answered from
these integers alone.  The others, alone or in a batch, take all their
span sums from one sweep (union_measures):

  * the distinct m_lo and m_hi of the batch cut the merged blocks into
    segments, and each query's range is a run of whole segments;
  * a segment's coef is bucketed K = 2^bitlen(Q) (> Q) blocks at a time,
    decoded from their keys; |coef_b| <= M Q < 2^25 2^13 = 2^38 for M
    merged blocks (M < |F_Q| < 2^25 and Q <= 2^13 up to MAX_UNIFORM_Q),
    so int64 holds it;
  * sum_b coef_b / b over the nonzero coef_b is added by a pairwise tree
    of (num, den) pairs over the lcm of their denominators
    (_fraction_sum), so no lcm(1..Q) is formed;
  * the segment sums are put over D, the lcm of their denominators, as
    integer prefixes, and a query's span sum is one prefix difference
    over D.

Everything user-facing is a Fraction.

numpy and `farey` are imported by the engine's build, which keeps the
key decoder for its queries, so a stage refused at the denominator cap,
before any engine is built, loads neither.  `UbiquityReport` is a
NamedTuple, so no run loads `dataclasses`.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError, size_text)

# F_8192 has 2.04e7 points; its engine built from F_Q in 0.69-0.84 s and
# 188 MB peak RSS with no joined gap (radius 10^-9), 0.81-1.06 s and 206
# MB with 1.46e6 gaps joined (10^-8) and 0.99-1.16 s and 256 MB with 3.64e6
# merged blocks (1/8192^2) on 2 vCPUs: the keys, 8 bytes a point, next to
# the left half's mask or an index and end key per merged block.  10^-6
# builds from its 2,325 open gaps alone in 7-8 ms and 30 MB
MAX_UNIFORM_Q = 8192
# every ball is one exact query per stage, a stage's balls one batch:
# 1000 balls at the README stages 3..5 of 6 r^-2 with k = 6 took
# 0.81-1.25 s (median of 8 fresh CLI runs 1.15 s) and 45 MB on 2
# vCPUs, 0.66 s of a 1.41 s profile in the queries, 0.34 s of it in
# _fraction_sum
MAX_BALLS = 1_000


class UniformStageEngine:
    """Exact union-measure queries for one uniform stage: Farey centres
    up to q_max, common ball radius `radius`."""

    def __init__(self, q_max: int, radius: Fraction):
        self.q_max = _within_cap(q_max, MAX_UNIFORM_Q)
        self.radius = fn.exact(radius, "radius")
        self.empty = q_max < 1 or self.radius <= 0
        if self.empty:
            return
        from limsuplab import farey
        self._unpack = farey.unpack_keys  # the queries' key decoder
        self._db = q_max.bit_length()
        rn, rd = self.radius.numerator, self.radius.denominator
        theta = min(-((-rd) // (2 * rn)), q_max * q_max + 1)
        sieve = farey.stage_sieve(q_max)
        if _lattice_is_cheaper(q_max, theta, sieve[2]):
            blocks = _lattice_blocks(q_max, theta, sieve)
        else:
            blocks = _farey_blocks(q_max, theta, sieve)
        self._starts, self._merged, self._ends = blocks

    @property
    def block_count(self) -> int:
        return 0 if self.empty else len(self._starts)

    def _rank(self, xn: int, xd: int, inside: int) -> int:
        """Number of block starts a/b with a xd - xn b < inside (xd > 0):
        below xn/xd for inside 0, at most it for 1.  A start whose key
        floor floor(a 2^(2 db) / b) is below f, the query's, lies below
        it, and one whose floor is above f lies above it; only the next
        can share f (Farey points differ by > 2^(-2 db)), and only then
        is it decoded.  f, clamped to [-1, 2^(2 db)] with no division
        outside [0, 1], fits int64."""
        db, keys = self._db, self._starts
        f = -1 if xn < 0 else (xn << 2 * db) // xd if xn <= xd else 1 << 2 * db
        i = int(keys.searchsorted(f << db))
        if i < len(keys) and keys.item(i) >> db == f:
            a, b = self._unpack(keys.item(i), self.q_max)
            if a * xd - xn * b < inside:
                i += 1
        return i

    def _numerator_sums(self, i: int, j: int):
        """Per-denominator sums a_e - a_s over merged blocks i..j - 1,
        unpacked from their keys K = 2^db blocks at a time and bucketed
        in int64."""
        import numpy as np
        q, chunk = self.q_max, 1 << self._db
        sums = np.zeros(q + 1, dtype=np.int64)
        for at in range(i, j, chunk):
            part = slice(at, min(at + chunk, j))
            ae, be = self._unpack(self._ends[part], q)
            np.add.at(sums, be, ae)
            as_, bs = self._unpack(self._starts[self._merged[part]], q)
            np.subtract.at(sums, bs, as_)
        return sums

    def union_measure(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact Lebesgue measure of (union of balls) intersected with
        [lo, hi].  An interval that meets no merged block, as every one
        on a Ford stage, is answered from _outside_spans alone; one that
        meets some takes its span sum from the batch sweep."""
        part = self._outside_spans(lo, hi)
        num, den, m_lo, m_hi = part
        if m_lo == m_hi:
            return Fraction(num, den)
        return self._add_spans([part])[0]

    def union_measures(self, intervals) -> list[Fraction]:
        """union_measure of each (lo, hi) in `intervals`, every span sum
        from one sweep (module docstring)."""
        return self._add_spans(
            list(itertools.starmap(self._outside_spans, intervals)))

    def _add_spans(self, parts) -> list[Fraction]:
        """num / den plus the spans of merged blocks m_lo..m_hi - 1 for
        each (num, den, m_lo, m_hi) of `parts`: each segment between
        neighbouring cuts is bucketed once and summed by _fraction_sum,
        and prefix[m] / span_d sums the spans from the first cut to m."""
        cuts = sorted({m for _, _, m_lo, m_hi in parts if m_lo < m_hi
                       for m in (m_lo, m_hi)})
        if not cuts:
            return [Fraction(num, den) for num, den, _, _ in parts]
        sums = []
        for m_lo, m_hi in zip(cuts, cuts[1:]):
            coef = self._numerator_sums(m_lo, m_hi)
            dens = coef.nonzero()[0]
            sums.append(_fraction_sum(coef[dens], dens))
        span_d = math.lcm(*[d for _, d in sums])
        prefix = dict(zip(cuts, itertools.accumulate(
            [n * (span_d // d) for n, d in sums], initial=0)))
        return [Fraction(num * span_d + (prefix[m_hi] - prefix[m_lo]) * den,
                         den * span_d) if m_lo < m_hi else Fraction(num, den)
                for num, den, m_lo, m_hi in parts]

    def _outside_spans(self, lo: Fraction, hi: Fraction):
        """(num, den, m_lo, m_hi): the measure of the union in [lo, hi] is
        num / den plus the spans of merged blocks m_lo..m_hi - 1."""
        lo, hi = fn.exact(lo, "lo"), fn.exact(hi, "hi")
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        if self.empty or hn * ld <= ln * hd:
            return 0, 1, 0, 0
        rn, rd = self.radius.numerator, self.radius.denominator
        # L: the blocks starting below lo - r = reach_n / reach_d; R: those
        # starting at or below hi + r, less one
        reach_n, reach_d = ln * rd - rn * ld, ld * rd
        L = self._rank(reach_n, reach_d, 0)
        R = self._rank(hn * rd + rn * hd, hd * rd, 1) - 1
        # merged[m_lo:m_hi] are the merged blocks in [L, R]: none on a
        # Ford stage, where the block work is skipped
        merged, q = self._merged, self.q_max
        m_lo = m_hi = 0
        if len(merged):
            m_lo = int(merged.searchsorted(L - 1))
            if m_lo < len(merged) and merged.item(m_lo) == L - 1:
                # block L - 1 reaches lo iff its last centre does
                a, b = self._unpack(self._ends.item(m_lo), q)
                if a * reach_d >= reach_n * b:
                    L -= 1
                else:
                    m_lo += 1
            m_hi = int(merged.searchsorted(R, side="right"))
        if L > R:
            return 0, 1, 0, 0
        # s_L = al/bl and e_R = ar/br
        al, bl = self._unpack(self._starts.item(L), q)
        last = (self._ends.item(m_hi - 1)
                if m_lo < m_hi and merged.item(m_hi - 1) == R
                else self._starts.item(R))
        ar, br = self._unpack(last, q)
        # max(s_L - r, lo) = sn / sd and min(e_R + r, hi) = en / ed
        sn, sd = al * rd - rn * bl, bl * rd
        if sn * ld < ln * sd:
            sn, sd = ln, ld
        en, ed = ar * rd + rn * br, br * rd
        if en * hd > hn * ed:
            en, ed = hn, hd
        # end - start, less e_R - s_L, plus 2r per open gap
        num, den = en * sd - sn * ed, ed * sd
        gap_d = bl * br * rd
        gap_n = (al * br - ar * bl) * rd + 2 * (R - L) * rn * bl * br
        return num * gap_d + gap_n * den, den * gap_d, m_lo, m_hi


def _fraction_sum(nums, dens) -> tuple[int, int]:
    """sum of nums / dens over int64 arrays (|num| < 2^38, 1 <= den <= 2^13)
    as one (num, den) pair, (0, 1) for none, by a pairwise tree: each level
    adds neighbours over the lcm of their denominators, so den is the lcm
    of dens, not their product.  The first level runs in int64, where
    |n1 d2 + n2 d1| < 2^52, and the levels above on Python ints."""
    import numpy as np
    even = len(dens) - len(dens) % 2
    left, right = dens[0:even:2], dens[1:even:2]
    g = np.gcd(left, right)
    left = left // g
    terms = list(zip((nums[0:even:2] * (right // g)
                      + nums[1:even:2] * left).tolist(),
                     (left * right).tolist()))
    if even < len(dens):
        terms.append((int(nums[-1]), int(dens[-1])))
    while len(terms) > 1:
        paired = []
        for (n1, d1), (n2, d2) in zip(terms[0::2], terms[1::2]):
            g = math.gcd(d1, d2)
            paired.append((n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2))
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0] if terms else (0, 1)


def _open_gap_rows(q_max: int, theta: int):
    """Row b = 1..q_max of the half b <= b' of the lattice region
    {b, b' <= q_max < b + b', bb' < theta}, which is symmetric in b and
    b': (b, its first b', its count), as int64 arrays."""
    import numpy as np
    b = np.arange(1, q_max + 1, dtype=np.int64)
    first = np.maximum(q_max + 1 - b, b)
    count = np.minimum((theta - 1) // b, q_max) - first + 1
    return b, first, np.maximum(count, 0, out=count)


def _lattice_is_cheaper(q_max: int, theta: int, phi) -> bool:
    """Pick the builder from the size of the lattice half-region against
    |F_Q| = 1 + phi(1) + ... + phi(Q), phi the stage's totient table.
    Listing the open gaps measured 87-126 ns per point of the
    half-region and building F_Q's blocks 22-34 ns per Farey point (2
    vCPUs; Q = 1000, 3125 and 7776, theta from Q^2 / 10 to 3 Q^2 / 10,
    medians of 7 calls, 3 at Q = 7776): at 0.16 half-region points per
    Farey point the list took 0.49-0.59 of F_Q's time, at 0.21
    0.68-0.80 and at 0.27 0.88-0.90, so the two cross near 0.3, and the
    list is taken up to 1 in 4."""
    candidates = int(_open_gap_rows(q_max, theta)[2].sum())
    points = 1 + int(phi[1:].sum())
    return 4 * candidates <= points


def _minus_inverse(b, b2, phi):
    """a in [0, b) with a b2 = -1 (mod b), for coprime int64 arrays b, b2
    with 1 <= b, b2 <= MAX_UNIFORM_Q = 2^13, phi a totient table reaching
    max(b): a = c^(phi(b) - 1) mod b with c = b - b2 = -b2 (mod b),
    since b2^phi(b) = 1 (mod b) and phi(b) - 1 is odd for b >= 3 (for
    b <= 2, -1 = 1 mod b).

    The power is taken by square and multiply, from the exponent's top
    bit down, in float64, and it is exact.  Each step forms x = r^2 or
    r^2 c from the running residue 0 <= r < b and |c| < 2^13: an integer
    of magnitude below b^2 2^13 <= 2^39.  x / b, of magnitude below
    2^26, lies at least 1/b >= 2^-13 from the nearest integer unless it
    is one, and rounding moves it by at most 2^26 2^-53 = 2^-27, so the
    floor of the rounded quotient is floor(x / b), and the new residue
    x - b floor(x / b), in [0, b), is exact too."""
    import numpy as np
    den = b.astype(np.float64)
    quo = np.empty_like(den)
    base = den - b2
    # r starts at 1 mod b
    res = np.minimum(den - 1.0, 1.0)
    exp = phi[b] - 1
    bit = np.empty_like(exp)
    odd = np.empty(len(b), dtype=bool)
    for k in reversed(range(int(exp.max(initial=0)).bit_length())):
        res *= res
        np.bitwise_and(exp, 1 << k, out=bit)
        np.not_equal(bit, 0, out=odd)
        np.multiply(res, base, out=res, where=odd)
        np.divide(res, den, out=quo)
        np.floor(quo, out=quo)
        np.multiply(quo, den, out=quo)
        res -= quo
    return res.astype(np.int64)


def _lattice_blocks(q_max: int, theta: int, sieve):
    """(starts, merged, ends) from the open gaps alone: the coprime
    points of the lattice region, a chunk of rows at a time, checked and
    sorted as the module docstring argues.  sieve is the stage's
    `farey.stage_sieve`."""
    import numpy as np
    from limsuplab import farey
    spf, strip, phi = sieve
    b, first, count = _open_gap_rows(q_max, theta)
    # 0/1, 1/1, both ends of each listed gap and then their mirrors, but
    # for F_1's one gap, 0/1 < 1/1, its own: at most 4 keys per candidate,
    # in one array whose unwritten tail is never touched
    keys = np.empty(2 + 4 * int(count.sum()), dtype=np.int64)
    keys[:2] = farey.packed_keys(0, 1, q_max), farey.packed_keys(1, 1, q_max)
    n = 2
    pairs = farey.prime_factor_pairs(b, spf, strip)
    for i, j, den2, kept in farey.coprime_runs(first, count, pairs, first):
        den = b[i:j].repeat(kept)
        num = _minus_inverse(den, den2, phi)
        num2 = (1 + num * den2) // den
        # the listed half alone: a mirror's check repeats it (module docstring)
        if not np.all((num2 * den - num * den2 == 1) & (den + den2 > q_max)
                      & (den * den2 < theta) & (num >= 0) & (num2 <= den2)
                      & (den <= q_max) & (den2 <= q_max)):
            raise InternalInvariantError(
                "uniform stage: a listed pair is no open Farey gap")
        for part in (num, den), (num2, den2):
            farey.packed_keys(*part, q_max, keys[n:n + len(num)])
            n += len(num)
    if q_max >= 2:
        farey.mirror_keys(keys[2:n], q_max, keys[n:2 * n - 2])
        n = 2 * n - 2
    # the keys array is this function's own, and no view of it is left
    keys.resize(n, refcheck=False)
    keys.sort()
    starts, ends = keys[0::2], keys[1::2]
    if not (np.all(starts <= ends) and np.all(ends[:-1] < starts[1:])):
        raise InternalInvariantError(
            "uniform stage: the open gaps do not order into blocks")
    merged = np.flatnonzero(starts != ends)
    ends = ends[merged]
    # the starts move to the front in place, so they are never held
    # twice beside the keys: each block reads from twice its offset on,
    # and numpy buffers the first, which overlaps
    for at in range(0, len(starts), farey.BLOCK):
        part = starts[at:at + farey.BLOCK]
        keys[at:at + len(part)] = part
    del starts, part
    keys.resize(n // 2, refcheck=False)
    return keys, merged, ends


def _farey_blocks(q_max: int, theta: int, sieve):
    """(starts, merged, ends) from F_Q's keys in one blocked pass that
    compacts them in place to the block starts and takes each merged
    block's index and last key; with no joined gap the keys are the
    starts.  sieve is the stage's `farey.stage_sieve`."""
    import numpy as np
    from limsuplab import farey
    keys = farey.farey_keys(q_max, sieve)
    merged, ends = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
    if theta > q_max * q_max:
        return keys, merged[0], ends[0]
    mask = (1 << q_max.bit_length()) - 1  # key & mask is the denominator
    n, carry = 0, False
    for at in range(0, len(keys), farey.BLOCK):
        # joined[i]: the gap before point at + i is joined (none is before
        # 0/1 or after 1/1); a block starts where it is not
        den = keys[at:at + farey.BLOCK + 1] & mask
        points = min(farey.BLOCK, len(keys) - at)
        joined = np.zeros(points + 1, dtype=bool)
        joined[0] = carry
        np.greater_equal(den[:-1] * den[1:], theta, out=joined[1:len(den)])
        carry = joined[points]
        # the points f and l that begin and end merged blocks, in turn (a
        # block carried in has f = -1 and ends first).  A block's index is
        # n plus the starts before its f: f less l - f of each block before
        edge = np.flatnonzero(joined[:-1] != joined[1:])
        last = joined[edge]
        rank = np.cumsum(np.where(last, -edge, edge)) - joined[0]
        merged.append(rank[~last] + n)
        chunk = keys[at:at + points]
        ends.append(chunk[edge[last]])
        # a block's start sits at or after its slot, so it is read before
        # it could be overwritten
        starts = chunk[~joined[:-1]]
        keys[n:n + len(starts)] = starts
        n += len(starts)
    # the keys array is this function's own, and no view of it is left
    del chunk
    keys.resize(n, refcheck=False)
    return keys, np.concatenate(merged), np.concatenate(ends)


def _within_cap(q_max: int, cap: int) -> int:
    if q_max > cap:
        raise ResourceCapError(
            "uniform stage needs denominators up to %s (cap %s)"
            % (size_text(q_max), size_text(cap)))
    return q_max


def _uniform_q_max(system: sy.ResonantSystem, k: Fraction, n: int,
                   cap: int = MAX_UNIFORM_Q) -> int:
    """Largest denominator of stage n, refused far past `cap` before k^n
    is formed, then for a cap above MAX_UNIFORM_Q or below 0, then past
    the cap."""
    q_max = system.stage_q_top(k, n, cap, "uniform stage %s" % size_text(n))
    if cap > MAX_UNIFORM_Q:
        raise UsageError("q cap %s above MAX_UNIFORM_Q = %d; the cap can "
                         "only be lowered" % (size_text(cap), MAX_UNIFORM_Q))
    if cap < 0:
        raise UsageError("q cap %s below 0" % size_text(cap))
    return _within_cap(q_max, cap)


def _uniform_radius(rho: fn.FunctionForm, k: Fraction, n: int) -> Fraction:
    return fn.evaluate_rational(rho, k ** n)


def seeded_balls(count: int, min_measure, seed: int) -> list[tuple]:
    """`count` deterministic exact (center, radius) balls inside [0, 1] of
    measure at least min_measure; the inputs are checked before any draw."""
    if count < 1:
        raise UsageError("need at least one ball")
    if count > MAX_BALLS:
        raise ResourceCapError("%s balls (cap %d)"
                               % (size_text(count), MAX_BALLS))
    min_measure = fn.exact(min_measure, "min-measure")
    if not 0 < min_measure <= 1:
        raise UsageError("min-measure must lie in (0, 1]")
    rnd = random.Random(seed)
    lo = min_measure / 2
    balls = []
    for _ in range(count):
        radius = lo + (Fraction(1, 2) - lo) * Fraction(rnd.randrange(1000), 1000)
        span = 1 - 2 * radius
        center = radius + span * Fraction(rnd.randrange(10 ** 6), 10 ** 6)
        balls.append((center, radius))
    return balls


class UbiquityReport(NamedTuple):
    ball: tuple[Fraction, Fraction]
    per_n: tuple[tuple[int, Fraction], ...]
    kappa_hat: Fraction          # infimum ratio over the n-range
    n_min: Optional[int]         # first n whose ratio meets the target


def estimate_kappa(system: sy.ResonantSystem, rho: fn.FunctionForm,
                   k, balls: Sequence[tuple], n_range,
                   target=Fraction(1, 2),
                   q_cap: int = MAX_UNIFORM_Q) -> list[UbiquityReport]:
    """Per-ball infimum of the stage ratios over the n-range.

    One engine is built per stage and answers the whole ball sample as one
    batch (UniformStageEngine.union_measures), so the merged blocks are
    bucketed once per stage and each ball's span sum is one prefix
    difference.  The largest stage is built first, so a stage past q_cap
    is refused before any build, as are an empty range, a stage index
    below 1 and a non-decaying rho.
    """
    k = fn.exact(k, "k")
    target = fn.exact(target, "target")
    if not rho.tends_to_zero():
        raise UsageError("ubiquity radius function must decay")
    # a range stays lazy, so 10^9 stages are refused by the top one
    ns = (n_range if isinstance(n_range, range) and n_range.step > 0
          else sorted(set(int(n) for n in n_range)))
    if not ns:
        raise UsageError("empty stage range")
    if ns[0] < 1:
        raise UsageError("stage index must be >= 1")
    if not balls:
        raise UsageError("empty ball sample")
    checked = []
    for ball in balls:
        c, r = fn.exact(ball[0], "center"), fn.exact(ball[1], "radius")
        if r <= 0:
            raise UsageError("ball radius must be positive")
        if c - r < 0 or c + r > 1:
            raise UsageError("ball must sit inside [0,1]")
        checked.append((c, r))

    per_ball: list[list[tuple[int, Fraction]]] = [[] for _ in checked]
    for n in reversed(ns):
        engine = UniformStageEngine(_uniform_q_max(system, k, n, q_cap),
                                    _uniform_radius(rho, k, n))
        measures = engine.union_measures([(c - r, c + r) for c, r in checked])
        for rows, (_, r), m in zip(per_ball, checked, measures):
            rows.append((n, m / (2 * r)))

    reports = []
    for (c, r), rows in zip(checked, per_ball):
        rows.reverse()
        ratios = [ratio for _, ratio in rows]
        kappa = min(ratios)
        n_min = next((n for n, ratio in rows if ratio >= target), None)
        reports.append(UbiquityReport((c, r), tuple(rows), kappa, n_min))
    return reports


def empirical_kappa(reports: Sequence[UbiquityReport]) -> Fraction:
    """min kappa_hat over a ball sample: the observed ubiquity constant."""
    if not reports:
        raise UsageError("no reports")
    return min(r.kappa_hat for r in reports)
