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
  * maximal runs of merged gaps become single intervals
    [c_first - r, c_last + r], pairwise separated by more than 2r.

A measure query against a ball [lo, hi] then needs exact endpoints for
at most two straddling runs, while every interior run contributes
(c_last - c_first) + 2r.  A run holding a single point spans nothing,
so only merged runs (two or more points) enter the c-difference sum; a
stage without merging, such as the Ford stage at rho = r^-1, sums
nothing at all.  Summing c-differences over millions of merged runs
stays exact and fast by bucketing numerators per denominator:
sum (a_e/b_e - a_s/b_s) = sum_b coef_b / b with integer coefficients,
evaluated over the single common denominator lcm(1..Q).

Everything user-facing is a Fraction; no floating point enters any
measure or ratio, floats only steer binary searches that are re-checked
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from limsuplab import farey
from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError)

# F_8192 has 2.04e7 points; building its engine measured 2.0-2.8 s and
# 0.73-1.45 GB peak RSS (the top with no merged gaps) on 2 vCPUs
MAX_UNIFORM_Q = 8192


class UniformStageEngine:
    """Exact union-measure queries for one uniform stage: Farey centres
    up to q_max, common ball radius `radius`."""

    def __init__(self, q_max: int, radius: Fraction,
                 cap: int = MAX_UNIFORM_Q):
        if cap > MAX_UNIFORM_Q:
            raise UsageError("q cap %d above MAX_UNIFORM_Q = %d; the cap "
                             "can only be lowered" % (cap, MAX_UNIFORM_Q))
        if q_max > cap:
            raise ResourceCapError(
                "uniform stage needs denominators up to %d (cap %d)"
                % (q_max, cap))
        self.q_max = q_max
        self.radius = fn.exact(radius, "radius")
        self.empty = q_max < 1 or self.radius <= 0
        if self.empty:
            return
        nums, dens = farey.reduced_fractions(q_max)
        self._nums, self._dens = nums, dens
        prod = dens[:-1] * dens[1:]
        # gap 1/(bb') <= 2r  <=>  bb' >= ceil(rd / (2 rn))
        rn, rd = self.radius.numerator, self.radius.denominator
        threshold = -((-rd) // (2 * rn))
        if threshold > int(prod.max(initial=0)):
            merged = np.zeros(len(prod), dtype=bool)
        else:
            merged = prod >= threshold
        cuts = np.flatnonzero(~merged)
        self._starts = np.concatenate(([0], cuts + 1))
        self._ends = np.concatenate((cuts, [len(nums) - 1]))
        # single-point blocks have zero span; only merged ones are summed
        self._merged = np.flatnonzero(self._starts != self._ends)
        pos = nums / dens
        rf = float(self.radius)
        self._left_f = pos[self._starts] - rf
        self._right_f = pos[self._ends] + rf
        self._lcm = math.lcm(*range(1, q_max + 1))
        self._lcm_over = [0] + [self._lcm // b for b in range(1, q_max + 1)]

    @property
    def block_count(self) -> int:
        return 0 if self.empty else len(self._starts)

    def _point(self, idx: int) -> Fraction:
        return Fraction(int(self._nums[idx]), int(self._dens[idx]))

    def _left(self, j: int) -> Fraction:
        return self._point(int(self._starts[j])) - self.radius

    def _right(self, j: int) -> Fraction:
        return self._point(int(self._ends[j])) + self.radius

    def _interior_span_sum(self, j_lo: int, j_hi: int) -> Fraction:
        """sum of (c_end - c_start) over blocks j in [j_lo, j_hi),
        exactly, via per-denominator bucketing of the merged blocks."""
        i_lo, i_hi = np.searchsorted(self._merged, (j_lo, j_hi))
        merged = self._merged[i_lo:i_hi]
        s = self._starts[merged]
        e = self._ends[merged]
        size = self.q_max + 1
        # numerator sums fit float64 exactly: <= n_points * q_max << 2^53
        plus = np.bincount(self._dens[e], weights=self._nums[e],
                           minlength=size).astype(np.int64)
        minus = np.bincount(self._dens[s], weights=self._nums[s],
                            minlength=size).astype(np.int64)
        coef = plus - minus
        total = 0
        for b in np.flatnonzero(coef):
            total += int(coef[b]) * self._lcm_over[b]
        return Fraction(total, self._lcm)

    def union_measure(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact Lebesgue measure of (union of balls) intersected with
        [lo, hi]."""
        lo, hi = fn.exact(lo, "lo"), fn.exact(hi, "hi")
        if hi <= lo:
            return Fraction(0)
        if self.empty:
            return Fraction(0)
        nb = self.block_count
        # first block with right endpoint >= lo (float seed, exact walk)
        j_l = int(np.searchsorted(self._right_f, float(lo), side="left"))
        j_l = min(j_l, nb - 1)
        while j_l > 0 and self._right(j_l - 1) >= lo:
            j_l -= 1
        while j_l < nb and self._right(j_l) < lo:
            j_l += 1
        # last block with left endpoint <= hi
        j_r = int(np.searchsorted(self._left_f, float(hi), side="right")) - 1
        j_r = max(j_r, 0)
        while j_r < nb - 1 and self._left(j_r + 1) <= hi:
            j_r += 1
        while j_r >= 0 and self._left(j_r) > hi:
            j_r -= 1
        if j_l >= nb or j_r < 0 or j_l > j_r:
            return Fraction(0)
        if j_l == j_r:
            seg = min(self._right(j_l), hi) - max(self._left(j_l), lo)
            return max(seg, Fraction(0))
        total = self._right(j_l) - max(self._left(j_l), lo)
        total += min(self._right(j_r), hi) - self._left(j_r)
        inner = j_r - j_l - 1
        if inner > 0:
            total += (self._interior_span_sum(j_l + 1, j_r)
                      + inner * 2 * self.radius)
        return total


def _uniform_q_max(system: sy.ResonantSystem, k: Fraction, n: int) -> int:
    if n < 1:
        raise UsageError("stage index must be >= 1")
    _, q_hi = system.q_interval(Fraction(0), k ** n)
    return q_hi


def _uniform_radius(rho: fn.FunctionForm, k: Fraction, n: int) -> Fraction:
    if not fn.is_rational_valued(rho):
        raise UsageError(
            "the exact uniform engine needs a rational-valued radius law "
            "(integer power, no log factors); got %s" % fn.format_function(rho))
    return fn.evaluate_rational(rho, k ** n)


def _check_ball(center: Fraction, radius: Fraction) -> None:
    if radius <= 0:
        raise UsageError("ball radius must be positive")
    if center - radius < 0 or center + radius > 1:
        raise UsageError("ball must sit inside [0,1]")


def ubiquity_ratio(system: sy.ResonantSystem, rho: fn.FunctionForm,
                   k, n: int, ball: tuple,
                   q_cap: int = MAX_UNIFORM_Q) -> Fraction:
    """m(B intersect union of B(x, rho(k^n)) over weights <= k^n) / m(B),
    as an exact Fraction.

    `ball` is (center, radius), both exact, with the ball inside [0,1].
    """
    report, = estimate_kappa(system, rho, k, [ball], [n], q_cap=q_cap)
    return report.kappa_hat


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
    if k <= 1:
        raise UsageError("k must exceed 1")
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
        engine = UniformStageEngine(_uniform_q_max(system, k, n),
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


def natural_cover_sum(f: Optional[fn.FunctionForm], psi: fn.FunctionForm,
                      system: sy.ResonantSystem, k, m_start: int,
                      m_end: int) -> float:
    """sum over stages n = m_start..m_end of
    (number of points with weight in (k^(n-1), k^n]) * f(psi(k^n)).

    f = None means the identity.  This is the natural-cover estimate of
    the Hausdorff f-content of the tail limsup set.
    """
    k = fn.exact(k, "k")
    if k <= 1:
        raise UsageError("k must exceed 1")
    if not (1 <= m_start <= m_end):
        raise UsageError("need 1 <= m_start <= m_end")
    if f is not None and not f.is_gauge():
        raise UsageError("f must be a dimension gauge (or None for identity)")
    reduced = (system.kind is sy.SystemKind.FORD) or system.coprime_only
    if reduced:
        _, q_top = system.q_interval(Fraction(0), k ** m_end)
        farey.check_sieve(q_top, "cover sum")
    total = 0.0
    for n in range(m_start, m_end + 1):
        count = system.count_window(k ** (n - 1), k ** n)
        if count == 0:
            continue
        r_val = fn.evaluate(psi, float(k) ** n)
        if r_val < 0:
            raise InternalInvariantError("negative radius from %s"
                                         % fn.format_function(psi))
        if f is None:
            term = r_val
        elif r_val == 0:
            term = 0.0       # gauges vanish at 0+; continuous extension
        else:
            term = fn.evaluate(f, r_val)
        total += count * term
    return total
