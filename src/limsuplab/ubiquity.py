"""Local ubiquity ratios, computed exactly.

The uniform stage J(n) collects every resonant point of weight <= k^n
and draws the common radius rho(k^n) around each.  For both supported
systems the point set is the full Farey sequence F_Q (Q = largest
admissible denominator), which makes exact measure computation
tractable at scale:

  * consecutive Farey fractions a/b < a'/b' satisfy a'b - ab' = 1, so
    the gap between neighbouring centres is exactly 1/(bb');
  * a gap survives (the two balls stay apart) iff 1/(bb') > 2r, an
    integer comparison once r = rn/rd is cleared of denominators;
  * maximal runs of merged gaps become single blocks
    [c_first - r, c_last + r], pairwise separated by more than 2r.

The engine stores the sorted packed int64 keys of F_Q alone
(farey.farey_keys, 8 bytes per point): each centre's denominator is its
key's low bitlen(Q) bits and its numerator is decoded off the key
(farey.unpack_keys) where a query reads it.  Next to them it keeps the
(first, last) point indices of the merged blocks only, found by one
blocked pass over the keys: every other point is a block of its own, so
a stage without merging, such as the Ford stage at rho = r^-1, stores
no block at all, and the block count is N minus the number of merged
gaps.

A measure query against [lo, hi] finds l, the first ball reaching lo,
and r_, the last reaching hi, by one search of the keys (_rank).  Only
ball l reaches below lo and only ball r_ above hi, so with the gaps
g_i = c_{i+1} - c_i

  m(union ∩ [lo, hi]) = min(c_r_ + r, hi) - max(c_l - r, lo)
                        - (c_r_ - c_l) + sum_{l <= i < r_} min(g_i, 2r),

where min(g_i, 2r) is g_i on a joined gap and 2r on any other: only the
merged blocks meeting [l, r_], clipped to it, enter, by their spans
c_e - c_s.  Summing spans over millions of merged blocks stays exact and
fast by bucketing numerators per denominator:
sum (a_e/b_e - a_s/b_s) = sum_b coef_b / b with integer coefficients,
evaluated over the single common denominator lcm(1..Q).

Everything user-facing is a Fraction; the one float left is the weight
sum of bincount in the span sums, exact below 2^53.

numpy and `farey` are imported by the engine's build, which keeps the
key decoder for its queries, so a stage refused at the denominator cap,
before any engine is built, loads neither.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import ResourceCapError, UsageError, size_text

# F_8192 has 2.04e7 points; building its engine measured 0.7-0.8 s and
# 189-207 MB peak RSS, without merged gaps (radius 10^-9) or with
# (10^-6), on 2 vCPUs; the peak is the keys (8 bytes per point) next to
# the mask of the left half, or next to the joined-gap flags (1 byte per
# point) on a stage with merged gaps
MAX_UNIFORM_Q = 8192
# every ball is one exact query per stage: 1000 balls at the README
# stages 3..5 of 6 r^-2 with k = 6 measured 6.7-6.8 s and 198 MB on 2
# vCPUs
MAX_BALLS = 1_000


class UniformStageEngine:
    """Exact union-measure queries for one uniform stage: Farey centres
    up to q_max, common ball radius `radius`."""

    def __init__(self, q_max: int, radius: Fraction,
                 cap: int = MAX_UNIFORM_Q):
        if cap > MAX_UNIFORM_Q:
            raise UsageError("q cap %s above MAX_UNIFORM_Q = %d; the cap "
                             "can only be lowered"
                             % (size_text(cap), MAX_UNIFORM_Q))
        if q_max > cap:
            raise ResourceCapError(
                "uniform stage needs denominators up to %s (cap %s)"
                % (size_text(q_max), size_text(cap)))
        self.q_max = q_max
        self.radius = fn.exact(radius, "radius")
        self.empty = q_max < 1 or self.radius <= 0
        if self.empty:
            return
        import numpy as np
        from limsuplab import farey
        self._keys = keys = farey.farey_keys(q_max)
        self._unpack = farey.unpack_keys  # the queries' key decoder
        self._db = q_max.bit_length()
        mask = (1 << self._db) - 1  # key & mask is the denominator
        # gap i (between points i and i + 1) is joined iff
        # 1/(bb') <= 2r  <=>  bb' >= ceil(rd / (2 rn)); no product of two
        # denominators reaches q_max^2
        rn, rd = self.radius.numerator, self.radius.denominator
        threshold = -((-rd) // (2 * rn))
        none = np.zeros(0, dtype=np.intp)
        starts, ends = [none], [none]
        if threshold <= q_max * q_max:
            # joined[i + 1] for gap i, False at both ends; +1 in its
            # differences at the first point of a run of joined gaps, -1
            # at its last point: the merged block of two or more points
            joined = np.zeros(len(keys) + 1, dtype=bool)
            block = farey.BLOCK
            for at in range(0, len(keys), block):
                den = keys[at:at + block + 1] & mask
                np.greater_equal(den[:-1] * den[1:], threshold,
                                 out=joined[at + 1:at + len(den)])
                edge = np.diff(joined[at:at + block + 1].view(np.int8))
                starts.append(np.flatnonzero(edge == 1) + at)
                ends.append(np.flatnonzero(edge == -1) + at)
        self._mstarts = np.concatenate(starts)
        self._mends = np.concatenate(ends)

    @functools.cached_property
    def _lcm_table(self) -> tuple[int, list[int]]:
        """L = lcm(1..q_max) and [0, L // 1, ..., L // q_max], built on
        the first span sum."""
        lcm = math.lcm(*range(1, self.q_max + 1))
        return lcm, [0] + [lcm // b for b in range(1, self.q_max + 1)]

    @property
    def block_count(self) -> int:
        if self.empty:
            return 0
        return len(self._keys) - int((self._mends - self._mstarts).sum())

    def _rank(self, xn: int, xd: int, inside: int) -> int:
        """Number of centres a/b with a xd - xn b < inside (xd > 0): below
        xn/xd for inside 0, at most it for 1.  A centre whose key floor
        floor(a 2^(2 db) / b) is below f, the query's, lies below it, and
        one whose floor is above f lies above it; only the next can share
        f (centres differ by > 2^(-2 db)), and only then is it decoded.
        f, clamped to [-1, 2^(2 db)] with no division outside [0, 1],
        fits int64."""
        db, keys = self._db, self._keys
        f = -1 if xn < 0 else (xn << 2 * db) // xd if xn <= xd else 1 << 2 * db
        i = int(keys.searchsorted(f << db))
        if i < len(keys) and keys.item(i) >> db == f:
            a, b = self._unpack(keys.item(i), self.q_max)
            if a * xd - xn * b < inside:
                i += 1
        return i

    def _span_sum(self, s: np.ndarray, e: np.ndarray) -> int:
        """sum of c_e - c_s over the index pairs (s, e), as an exact
        numerator over lcm(1..q_max), via per-denominator bucketing."""
        import numpy as np
        size = self.q_max + 1
        ae, be = self._unpack(self._keys[e], self.q_max)
        as_, bs = self._unpack(self._keys[s], self.q_max)
        # numerator sums fit float64 exactly: <= n_points * q_max << 2^53
        plus = np.bincount(be, weights=ae, minlength=size).astype(np.int64)
        minus = np.bincount(bs, weights=as_, minlength=size).astype(np.int64)
        return sum(c * m for c, m in zip((plus - minus).tolist(),
                                         self._lcm_table[1]) if c)

    def union_measure(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact Lebesgue measure of (union of balls) intersected with
        [lo, hi], by the identity of the module docstring."""
        lo, hi = fn.exact(lo, "lo"), fn.exact(hi, "hi")
        if hi <= lo or self.empty:
            return Fraction(0)
        rn, rd = self.radius.numerator, self.radius.denominator
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        l = self._rank(ln * rd - rn * ld, ld * rd, 0)
        r_ = self._rank(hn * rd + rn * hd, hd * rd, 1) - 1
        if l > r_:
            return Fraction(0)
        # c_l = al/bl and c_r_ = ar/br
        al, bl = self._unpack(self._keys.item(l), self.q_max)
        ar, br = self._unpack(self._keys.item(r_), self.q_max)
        # max(c_l - r, lo) and min(c_r_ + r, hi) as (num, den) pairs
        start = (al * rd - rn * bl, bl * rd)
        if start[0] * ld < ln * start[1]:
            start = (ln, ld)
        end = (ar * rd + rn * br, br * rd)
        if end[0] * hd > hn * end[1]:
            end = (hn, hd)
        # the merged blocks sharing a gap with [l, r_]: none on a Ford stage
        m_lo = int(self._mends.searchsorted(l, side="right"))
        m_hi = int(self._mstarts.searchsorted(r_))
        joined = span = 0
        if m_lo < m_hi:
            import numpy as np
            s = np.maximum(self._mstarts[m_lo:m_hi], l)
            e = np.minimum(self._mends[m_lo:m_hi], r_)
            joined = int((e - s).sum())
            span = self._span_sum(s, e)
        # end - start, less c_r_ - c_l, plus 2r per unjoined gap
        num = end[0] * start[1] - start[0] * end[1]
        den = end[1] * start[1]
        gap_d = bl * br * rd
        gap_n = ((al * br - ar * bl) * rd
                 + 2 * (r_ - l - joined) * rn * bl * br)
        num, den = num * gap_d + gap_n * den, den * gap_d
        if span:
            lcm = self._lcm_table[0]
            num, den = num * lcm + span * den, den * lcm
        return Fraction(num, den)


def _uniform_q_max(system: sy.ResonantSystem, k: Fraction, n: int,
                   cap: int = MAX_UNIFORM_Q) -> int:
    """Largest denominator of stage n; a stage far past `cap` is refused
    before k^n is formed."""
    return system.stage_q_top(k, n, cap, "uniform stage %s" % size_text(n))


def _uniform_radius(rho: fn.FunctionForm, k: Fraction, n: int) -> Fraction:
    return fn.evaluate_rational(rho, k ** n)


def _check_ball(center: Fraction, radius: Fraction) -> None:
    if radius <= 0:
        raise UsageError("ball radius must be positive")
    if center - radius < 0 or center + radius > 1:
        raise UsageError("ball must sit inside [0,1]")


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


@dataclass(frozen=True)
class UbiquityReport:
    ball: tuple[Fraction, Fraction]
    per_n: tuple[tuple[int, Fraction], ...]
    kappa_hat: Fraction          # infimum ratio over the n-range
    n_min: Optional[int]         # first n whose ratio meets the target


def estimate_kappa(system: sy.ResonantSystem, rho: fn.FunctionForm,
                   k, balls: Sequence[tuple], n_range,
                   target=Fraction(1, 2),
                   q_cap: int = MAX_UNIFORM_Q) -> list[UbiquityReport]:
    """Per-ball infimum of the stage ratios over the n-range.

    One engine is built per stage and shared across the ball sample, so
    the cost is dominated by the largest stage, not the sample size.  It
    is built first, so a stage past q_cap is refused before any build,
    as are an empty range, a stage index below 1 and a non-decaying rho.
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
        _check_ball(c, r)
        checked.append((c, r))

    per_ball: list[list[tuple[int, Fraction]]] = [[] for _ in checked]
    for n in reversed(ns):
        engine = UniformStageEngine(_uniform_q_max(system, k, n, q_cap),
                                    _uniform_radius(rho, k, n), cap=q_cap)
        for i, (c, r) in enumerate(checked):
            ratio = engine.union_measure(c - r, c + r) / (2 * r)
            per_ball[i].append((n, ratio))

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
