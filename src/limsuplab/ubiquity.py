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

The engine stores the Farey numerators and denominators, one float
position per point, and the (first, last) point indices of the merged
blocks only: every other point is a block of its own, so a stage
without merging, such as the Ford stage at rho = r^-1, stores no block
at all, and the block count is N minus the number of merged gaps.

A measure query against a ball [lo, hi] finds the first ball reaching
lo and the last reaching hi by a float seed and an exact walk that
compares centres by integer cross-multiplication, then widens each to
its block by one search among the merged blocks.  It needs exact
endpoints for at most those two blocks, while every block strictly
between contributes (c_last - c_first) + 2r.  A single point spans
nothing, so only merged blocks enter the c-difference sum.  Summing
c-differences over millions of merged blocks stays exact and fast by
bucketing numerators per denominator:
sum (a_e/b_e - a_s/b_s) = sum_b coef_b / b with integer coefficients,
evaluated over the single common denominator lcm(1..Q).

Everything user-facing is a Fraction; no floating point enters any
measure or ratio, floats only seed searches that are re-checked
exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from limsuplab import farey
from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import ResourceCapError, UsageError, size_text

# F_8192 has 2.04e7 points; building its engine measured 1.2-1.3 s and
# 505-537 MB peak RSS, without merged gaps (radius 10^-9) or with
# (10^-6), on 2 vCPUs; the peak is the full-length num and den arrays
# next to their halves, then next to the engine's gap products
MAX_UNIFORM_Q = 8192


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
        nums, dens = farey.reduced_fractions(q_max)
        self._nums, self._dens = nums, dens
        # gap i (between points i and i + 1) is joined iff
        # 1/(bb') <= 2r  <=>  bb' >= ceil(rd / (2 rn)); no product of two
        # denominators reaches q_max^2
        rn, rd = self.radius.numerator, self.radius.denominator
        threshold = -((-rd) // (2 * rn))
        if threshold > q_max * q_max:
            edge = np.zeros(0, dtype=np.int8)
        else:
            joined = np.concatenate(
                ([False], dens[:-1] * dens[1:] >= threshold, [False]))
            # +1 at the first point of a run of joined gaps, -1 at its
            # last point: the merged block of two or more points
            edge = np.diff(joined.view(np.int8))
            del joined
        self._mstarts = np.flatnonzero(edge == 1)
        self._mends = np.flatnonzero(edge == -1)
        self._pos = nums / dens

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
        return len(self._nums) - int((self._mends - self._mstarts).sum())

    def _rank(self, xn: int, xd: int, side: str) -> int:
        """Number of centres a/b below xn/xd (side "left") or at most
        xn/xd (side "right"), xd > 0: a float seed, then an exact walk on
        the sign of a xd - xn b.  Every centre lies in [0, 1], so a point
        outside it ranks 0 or N with no float."""
        nums, dens = self._nums, self._dens
        if not 0 <= xn <= xd:
            return 0 if xn < 0 else len(nums)
        inside = 0 if side == "left" else 1    # a xd - xn b < inside
        i = int(self._pos.searchsorted(xn / xd, side=side))
        while i > 0 and (nums.item(i - 1) * xd
                         - xn * dens.item(i - 1)) >= inside:
            i -= 1
        while i < len(nums) and (nums.item(i) * xd
                                 - xn * dens.item(i)) < inside:
            i += 1
        return i

    def _block(self, i: int, m: int) -> tuple[int, int]:
        """(first, last) point of the block holding point i, where m is
        the last merged block starting at or before i (-1 if none)."""
        if m >= 0 and self._mends[m] >= i:
            return self._mstarts.item(m), self._mends.item(m)
        return i, i

    def _interior_span_sum(self, m_lo: int, m_hi: int) -> int:
        """sum of (c_end - c_start) over merged blocks m in [m_lo, m_hi),
        as an exact numerator over lcm(1..q_max), via per-denominator
        bucketing."""
        if m_lo >= m_hi:
            return 0
        s = self._mstarts[m_lo:m_hi]
        e = self._mends[m_lo:m_hi]
        size = self.q_max + 1
        # numerator sums fit float64 exactly: <= n_points * q_max << 2^53
        plus = np.bincount(self._dens[e], weights=self._nums[e],
                           minlength=size).astype(np.int64)
        minus = np.bincount(self._dens[s], weights=self._nums[s],
                            minlength=size).astype(np.int64)
        return sum(c * m for c, m in zip((plus - minus).tolist(),
                                         self._lcm_table[1]) if c)

    def union_measure(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact Lebesgue measure of (union of balls) intersected with
        [lo, hi]."""
        lo, hi = fn.exact(lo, "lo"), fn.exact(hi, "hi")
        if hi <= lo:
            return Fraction(0)
        if self.empty:
            return Fraction(0)
        rn, rd = self.radius.numerator, self.radius.denominator
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        # the block of the first ball reaching lo (c >= lo - r) is the
        # first block whose right end reaches lo; likewise on the right
        i_l = self._rank(ln * rd - rn * ld, ld * rd, "left")
        i_r = self._rank(hn * rd + rn * hd, hd * rd, "right") - 1
        if i_l > i_r:
            return Fraction(0)
        m_l, m_r = (self._mstarts.searchsorted((i_l, i_r), side="right")
                    - 1).tolist()
        s_l, e_l = self._block(i_l, m_l)
        s_r, e_r = self._block(i_r, m_r)
        nums, dens = self._nums, self._dens
        # the covered part runs from max(c_{s_l} - r, lo) to
        # min(c_{e_r} + r, hi); ends are (numerator, denominator) pairs
        a, b = nums.item(s_l), dens.item(s_l)
        start = (a * rd - rn * b, b * rd)
        if start[0] * ld < ln * start[1]:
            start = (ln, ld)
        a, b = nums.item(e_r), dens.item(e_r)
        end = (a * rd + rn * b, b * rd)
        if end[0] * hd > hn * end[1]:
            end = (hn, hd)
        num = end[0] * start[1] - start[0] * end[1]
        den = end[1] * start[1]
        if s_l == s_r:
            return Fraction(num, den)
        # less the uncovered stretch from c_{e_l} + r to c_{s_r} - r: all
        # of it but the blocks strictly between, each its span plus 2r
        m_lo, m_hi = m_l + 1, m_r + (s_r == e_r)
        inner = s_r - e_l - 1
        if m_lo < m_hi:
            inner -= int(self._mends[m_lo:m_hi].sum()
                         - self._mstarts[m_lo:m_hi].sum())
        a, b = nums.item(e_l), dens.item(e_l)
        a2, b2 = nums.item(s_r), dens.item(s_r)
        gap_d = b * b2 * rd
        gap_n = (a * b2 - a2 * b) * rd + 2 * (inner + 1) * rn * b * b2
        num, den = num * gap_d + gap_n * den, den * gap_d
        span = self._interior_span_sum(m_lo, m_hi)
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


@dataclass(frozen=True)
class UbiquityReport:
    ball: tuple[Fraction, Fraction]
    k: Fraction
    rho: fn.FunctionForm
    per_n: tuple[tuple[int, Fraction], ...]
    kappa_hat: Fraction          # infimum ratio over the n-range
    n_min: Optional[int]         # first n whose ratio meets the target
    target: Fraction


def estimate_kappa(system: sy.ResonantSystem, rho: fn.FunctionForm,
                   k, balls: Sequence[tuple], n_range,
                   target=Fraction(1, 2),
                   q_cap: int = MAX_UNIFORM_Q) -> list[UbiquityReport]:
    """Per-ball infimum of the stage ratios over the n-range.

    One engine is built per stage and shared across the ball sample, so
    the cost is dominated by the largest stage, not the sample size.  It
    is built first, so a stage past q_cap is refused before any build.
    """
    k = fn.exact(k, "k")
    target = fn.exact(target, "target")
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise UsageError("empty stage range")
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
        reports.append(UbiquityReport((c, r), k, rho, tuple(rows),
                                      kappa, n_min, target))
    return reports


def empirical_kappa(reports: Sequence[UbiquityReport]) -> Fraction:
    """min kappa_hat over a ball sample: the observed ubiquity constant."""
    if not reports:
        raise UsageError("no reports")
    return min(r.kappa_hat for r in reports)
