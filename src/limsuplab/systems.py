"""Resonant point systems and their stage sets.

A *system* is a countable family of points in [0,1] carrying positive
weights: the rationals p/q weighted by q, or the Ford configuration
where reduced p/q is weighted by 2q^2.  A *stage
spec* turns a system into the per-point stages of Khintchine and
Jarnik: stage n collects B(p/q, psi(weight)) over weights in one
geometric window (k^(n-1), k^n].  The uniform stages B(p/q, rho(k^n))
over all weights <= k^n, whose ubiquity the theorem needs, are measured
exactly in `ubiquity`.

The scan certifies two-sided bounds on the Lebesgue measure of every
stage in a range.  Stages too large to sweep exhaustively get a
certified lower bound from a denominator-truncated subfamily (a subset
of the union can only be smaller) and an upper bound from
per-denominator ball counts (a union is at most the sum of lengths).
Only a stage whose arrays and totient sieve would pass MAX_STAGE_BYTES
is refused, before anything is allocated.

Duplicate centres are collapsed before sweeping: every ball of the
stage sits inside the ball at the reduced centre whose radius comes
from the smallest weight the centre attains in the window, so for a
nonincreasing radius function the union over reduced centres equals
the raw union exactly.

The sweep takes, per denominator b, the candidates a in a window
[a_lo, a_hi] of each cell, and `farey.BallRows.keys` keeps a/b exactly
when gcd(a, b) == 1, so 0/1 and 1/1 stay, and stores each kept ball as
its `farey.union_length` sort key alone (its code, the order it gives
and its decoding: `farey`'s paragraph on swept balls).  The key array
is sized for the cell's candidates and built a chunk of them at a
time, and only the kept balls' words are written: a cell holds 8
bytes per candidate, about 6/pi^2 of which are kept, and a few blocks:
14.6 bytes per ball traced on the 2.97M-ball stage of q^-2, k = 5, n =
5.

numpy and `farey` are imported by the functions that build arrays, and
the symbolic `functions` by the two that read a stage's form
(`StageSpec`, `stage_measure_scan`), so the weight and
denominator algebra (`q_interval`), which the horoball counts use,
loads none of them.  The records are NamedTuples (`StageSpec` checks
its fields in `__new__`), so none loads `dataclasses`.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from limsuplab.errors import ResourceCapError, UsageError, exact, size_text

# float sweep budgets: full stages below FULL_SWEEP_CAP reduced balls are
# swept exhaustively; larger stages fall back to the densest prefix of
# denominators that stays below SUBSET_SWEEP_CAP balls.
FULL_SWEEP_CAP = 32_000_000
SUBSET_SWEEP_CAP = 64_000_000
_CELL_BUDGET = 8_000_000  # target flattened pairs per sweep cell
# a stage scan holds at most 96 bytes per denominator up to its q_hi:
# the plan's and the per-q bound's int64/float64 arrays, and one
# `farey.stage_sieve` of exactly that length (int32 least primes and
# strip table, the sweeps' prime pairs, and int64 phi, the stages' balls
# per denominator).  A one-stage q^-3 scan with subset_cap=0, which
# builds no plan, peaks in its per-q bound: at 28 bytes per q of
# ru_maxrss above the interpreter at q_hi = 2^22 (stage 22 of k = 2)
# and at 40 at 2^22 + 1 (stage 1 of k = 2^22 + 1), 28 and 40 traced.
# With subset_cap=1000, which sweeps, it peaks in the plan and its
# radii, at 57 at both (56 traced).
# The byte budget admits q_hi up to about 2.2e7, well inside
# farey.MAX_SIEVE.
_STAGE_BYTES_PER_Q = 96
MAX_STAGE_BYTES = 1 << 31
# an exact stage weight k^n is formed only up to this many bits
# (numerator plus denominator); CLI stages, with integer k and a
# denominator cap, stay below 200
MAX_WEIGHT_BITS = 1 << 20


# ---------------------------------------------------------------------------
# systems


class SystemKind(Enum):
    RATIONALS = "rationals"
    FORD = "ford-horoballs"


class ResonantSystem(NamedTuple):
    """A weighted family of rational points in [0,1]."""

    kind: SystemKind

    def q_interval(self, w_lo: Fraction, w_hi: Fraction) -> tuple[int, int]:
        """Inclusive denominator range with weight in (w_lo, w_hi]."""
        w_lo, w_hi = exact(w_lo, "w_lo"), exact(w_hi, "w_hi")
        if self.kind is SystemKind.RATIONALS:
            q_hi = w_hi.numerator // w_hi.denominator
            q_lo = w_lo.numerator // w_lo.denominator + 1
            return max(q_lo, 1), q_hi
        # Ford: 2q^2 <= w  <=>  q <= isqrt(floor(w / 2)), read off w's
        # own terms (its denominator is positive)
        def q_below(w: Fraction) -> int:
            if w.numerator <= 0:
                return 0
            return math.isqrt(w.numerator // (2 * w.denominator))
        return q_below(w_lo) + 1, q_below(w_hi)

    def stage_q_top(self, k: Fraction, n: int, cap: int, what: str) -> int:
        """Largest denominator of weight <= k^n, for k > 1 and n >= 1.

        Two O(1) tests refuse a stage far past a denominator cap before
        k^n is formed.  n times the bit size of k bounds that of k^n; and
        n log2(k) above 2 log2(cap + 1) + 2 puts k^n near or past
        4 (cap + 1)^2, above the weight (q or 2q^2) of denominator
        cap + 1 in either system.  The exact comparison with the cap is
        the caller's.
        """
        if k <= 1:
            raise UsageError("k must exceed 1")
        if n < 1:
            raise UsageError("stage index must be >= 1")
        p, q = k.numerator, k.denominator
        bits = n * (p.bit_length() + q.bit_length())
        if bits > MAX_WEIGHT_BITS:
            raise ResourceCapError(
                "%s needs an exact weight k^n of up to %s bits (cap %d)"
                % (what, size_text(bits), MAX_WEIGHT_BITS))
        log2_weight = n * (math.log2(p) - math.log2(q))
        if log2_weight > 2 * math.log2(max(cap, 1) + 1) + 2:
            raise ResourceCapError(
                "%s needs weights up to about 2^%.0f, far past the "
                "denominator cap %s" % (what, log2_weight, size_text(cap)))
        return self.q_interval(Fraction(0), k ** n)[1]


def classical_rationals() -> ResonantSystem:
    return ResonantSystem(SystemKind.RATIONALS)


def ford_horoballs() -> ResonantSystem:
    """Reduced rationals weighted by the Ford curvature: weight = 2q^2."""
    return ResonantSystem(SystemKind.FORD)


# ---------------------------------------------------------------------------
# stage specifications


class _StageFields(NamedTuple):
    form: fn.FunctionForm
    k: Fraction


class StageSpec(_StageFields):
    """How stage n is cut out of a system: balls B(x, psi(weight)) over
    weights in (k^(n-1), k^n]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        from limsuplab import functions as fn
        form, k = super().__new__(cls, *args, **kwargs)
        k = exact(k, "k")
        if k <= 1:
            raise UsageError("stage ratio k must exceed 1")
        if form.regime is not fn.Regime.LARGE:
            raise UsageError("stage radii are functions of a growing weight; "
                             "use a large-argument form")
        if not form.tends_to_zero():
            raise UsageError("stage radius function must decay")
        return super().__new__(cls, form, k)

    def window(self, n: int) -> tuple[Fraction, Fraction]:
        if n < 1:
            raise UsageError("stage index must be >= 1")
        return self.k ** (n - 1), self.k ** n


def per_point_stage(psi: fn.FunctionForm, k) -> StageSpec:
    return StageSpec(psi, k)


# ---------------------------------------------------------------------------
# measure scan


class StageMeasure(NamedTuple):
    """Certified measure bracket for one stage."""

    n: int
    count: int        # reduced balls making up the stage
    pairs: int        # raw (point, weight) pairs in the window
    lower: float      # certified lower bound on the stage measure
    upper: float      # certified upper bound
    value: Optional[float]  # sweep value when the full stage was swept
    method: str       # full-sweep, subset-sweep, per-q-upper or empty

    @property
    def truncated(self) -> bool:
        return self.method in ("subset-sweep", "per-q-upper")


class StageScan(NamedTuple):
    records: tuple[StageMeasure, ...]


def _stage_ball_plan(system: ResonantSystem, q_lo: int, q_hi: int):
    """Reduced-centre description of the stage whose window's
    denominators (`ResonantSystem.q_interval`) are q_lo..q_hi.

    Returns (b_vals, weights): the denominators of the reduced centres
    and the weight whose radius psi(weight) each ball takes (int64 on
    the rationals, float64 for Ford).  The union of balls over reduced
    centres equals the stage set exactly (the raw ball at p/q = a/b has
    radius at most the reduced ball's, because the radius function is
    nonincreasing on the window and the reduced ball uses the smallest
    weight the centre attains).  The scan counts a stage's balls
    without it (`_stage_count`), so a rationals stage that is not swept
    builds no plan.
    """
    import numpy as np
    if q_lo > q_hi:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if system.kind is SystemKind.RATIONALS:
        # a reduced denominator b <= q_hi appears via its smallest
        # multiple inside the window, whose weights are q_lo..q_hi
        b_vals = np.arange(1, q_hi + 1, dtype=np.int64)
        qmin = (q_lo - 1) // b_vals + 1
        qmin *= b_vals
        keep = qmin <= q_hi
        return b_vals[keep], qmin[keep]
    # Ford: reduced denominators live in the window themselves
    b_vals = np.arange(q_lo, q_hi + 1, dtype=np.int64)
    return b_vals, 2.0 * b_vals.astype(np.float64) ** 2


def _cell_edges(ncells: int) -> list:
    """The ncells + 1 edges of ncells equal cells of [0, 1]: i * (1 /
    ncells) for i < ncells, then 1.0, which are the float64s of
    np.linspace(0.0, 1.0, ncells + 1) bit for bit."""
    step = 1.0 / ncells
    return [i * step for i in range(ncells)] + [1.0]


def _cell_sweep(b_vals: np.ndarray, radii: np.ndarray, spf: np.ndarray,
                strip: np.ndarray) -> tuple[float, int]:
    """Measure of union of balls at reduced fractions a/b (gcd(a,b)=1,
    a/b in [0,1]) with per-denominator radii, clipped to [0, 1].
    Chunked over x-cells so memory stays bounded: a cell holds one word
    per candidate ball, of which only the kept balls' are touched, and
    a few blocks of farey.BLOCK, besides the per-denominator arrays.
    spf and strip are the least-prime and strip tables of the scan's
    `farey.stage_sieve`, reaching max(b_vals).

    Returns (measure, number of reduced balls processed).
    """
    import numpy as np
    from limsuplab import farey
    if len(b_vals) == 0:
        return 0.0, 0
    flat_fixed = float((2.0 * radii * b_vals).sum() + 3 * len(b_vals))
    b_float = b_vals.astype(np.float64)
    flat_sweep = float(b_float.sum())
    ncells = max(1, math.ceil(flat_sweep /
                              max(_CELL_BUDGET - flat_fixed, _CELL_BUDGET / 8)))
    edges = _cell_edges(ncells)
    pairs = farey.prime_factor_pairs(b_vals, spf, strip)
    # candidate a/b has code (row << wb) | a, a <= b <= max(b_vals)
    balls = farey.BallRows(b_float, radii, int(b_vals[-1]).bit_length())
    # a cell's row spans a_lo..a_hi, a_lo = floor(b (clo - r)) - 1 and
    # -a_hi = floor(b (-chi - r)) - 1, the negated ceil(b (chi + r)) + 1
    # since rounding is symmetric; clo <= 1, chi >= 0 and radii > 0 put
    # a_lo <= b - 1 and a_hi >= 1 already, so clipping both to [0, b]
    # takes one bound each, 0 and -b, in float before the integers
    span = np.empty((2, len(b_vals)))
    least = np.zeros((2, len(b_vals)))
    np.negative(b_float, out=least[1])
    total = 0.0
    n_balls = 0
    for i in range(ncells):
        clo, chi = edges[i], edges[i + 1]
        np.subtract([[clo], [-chi]], radii, out=span)
        span *= b_float
        np.floor(span, out=span)
        span -= 1.0
        np.maximum(span, least, out=span)
        a_lo, counts = span.astype(np.int64)
        counts += a_lo
        np.subtract(1, counts, out=counts)
        tot = int(counts.sum())
        if tot > 10 * _CELL_BUDGET:
            raise ResourceCapError(
                "sweep cell holds %d candidate balls; the stage radii are "
                "too large for the configured cell budget" % tot)
        keys = balls.keys(a_lo, counts, pairs, clo, chi)
        n_balls += len(keys)  # boundary balls counted per cell: budget
        total += farey.union_length(keys, balls, clo, chi)
        del keys
    return total, n_balls


def _per_q_upper(radii: np.ndarray, counts: np.ndarray) -> float:
    """Sum over i of counts[i] balls' length 2 radii[i], each term capped
    at 1 and the sum at 1: a certified upper bound on the measure of the
    union of those balls."""
    import numpy as np
    per_q = 2.0 * radii
    per_q *= counts
    np.minimum(per_q, 1.0, out=per_q)
    # one-ulp-per-term slack keeps the bound certified despite rounding;
    # per_q >= 0, so its max is its largest magnitude
    slack = len(per_q) * 4e-16 + float(per_q.max(initial=0.0)) * 1e-12
    return min(1.0, float(per_q.sum()) + slack)


def _stage_count(phi: np.ndarray, q_lo: int, q_hi: int, ford: bool) -> int:
    """The reduced balls of the stage whose window's denominators are
    q_lo..q_hi: phi, the scan's table with phi[1] = 2, summed over its
    plan's denominators (_stage_ball_plan) without building the plan.
    Ford's plan is the window.  The rationals' holds every b <= q_hi
    with a multiple in [q_lo, q_hi]: every b <= span = q_hi - q_lo + 1
    and every b >= q_lo, and between them the b with q_hi // b >
    (q_lo - 1) // b.  For k >= 2, 2 floor(k^(n-1)) <= floor(k^n) puts
    q_lo - 1 = floor(k^(n-1)) at most span, so none lies between and
    the plan is every b <= q_hi."""
    import numpy as np
    if q_lo > q_hi:
        return 0
    if ford:
        return int(phi[q_lo:q_hi + 1].sum())
    span = q_hi - q_lo + 1
    mid = np.arange(span + 1, q_lo, dtype=np.int64)
    mid = mid[q_hi // mid > (q_lo - 1) // mid]
    return (int(phi[1:span + 1].sum()) + int(phi[mid].sum())
            + int(phi[max(q_lo, span + 1):q_hi + 1].sum()))


def _truncate_plan(b_vals: np.ndarray, radii: np.ndarray,
                   counts: np.ndarray, cap: int):
    """Smallest-denominator prefix whose reduced-ball count fits cap;
    counts holds the plan's reduced balls per denominator.

    Small denominators carry the largest radii in every stage plan, so
    the prefix is the mass-greedy choice for a union lower bound.
    """
    import numpy as np
    if len(b_vals) == 0:
        return b_vals, radii
    running = counts.cumsum()
    idx = int(running.searchsorted(cap, side="right"))
    return b_vals[:idx], radii[:idx]


def stage_measure_scan(system: ResonantSystem, stage: StageSpec,
                       n_lo: int, n_hi: int, *,
                       full_cap: int = FULL_SWEEP_CAP,
                       subset_cap: int = SUBSET_SWEEP_CAP) -> StageScan:
    """Certified measure brackets for stages n_lo..n_hi.

    A stage whose reduced-ball count exceeds full_cap is reported from a
    truncated subfamily (lower bound) plus per-denominator sums (upper
    bound), flagged truncated.  Setting subset_cap to 0 skips sweeping
    for oversized stages entirely and reports the trivial lower bound 0
    with the certified upper bound.  The caps can only be lowered: a
    full_cap above FULL_SWEEP_CAP or a subset_cap above SUBSET_SWEEP_CAP
    is a UsageError, as is a cap below 0.  Raises ResourceCapError,
    before any stage is computed, when the last stage's arrays and
    totient sieve, all as long as its denominator range, would pass
    MAX_STAGE_BYTES.
    """
    import numpy as np
    from limsuplab import farey
    from limsuplab import functions as fn
    if n_hi < n_lo:
        raise UsageError("empty stage range")
    # the cell sweep's own arrays are outside the byte budget below
    for name, cap, top in (("full", full_cap, FULL_SWEEP_CAP),
                           ("subset", subset_cap, SUBSET_SWEEP_CAP)):
        if cap > top:
            raise UsageError("%s sweep cap %s above %d; the cap can only "
                             "be lowered" % (name, size_text(cap), top))
        if cap < 0:
            raise UsageError("%s sweep cap %s below 0"
                             % (name, size_text(cap)))
    # windows grow with n, so the last stage has the largest q_hi
    what = "stage %s" % size_text(n_hi)
    q_top = system.stage_q_top(stage.k, n_hi, farey.MAX_SIEVE, what)
    if _STAGE_BYTES_PER_Q * q_top > MAX_STAGE_BYTES:
        raise ResourceCapError(
            "%s needs about %d MB for denominators up to %d (budget %d MB)"
            % (what, _STAGE_BYTES_PER_Q * q_top >> 20, q_top,
               MAX_STAGE_BYTES >> 20))
    # one sieve serves the range: phi gives every stage its balls per
    # denominator, and spf and strip every sweep's primes
    spf, strip, phi = farey.stage_sieve(q_top)
    # 0/1 alongside 1/1, set after the pass, whose recurrence reads
    # phi(1); the slice is empty when q_top = 0
    phi[1:2] = 2
    ford = system.kind is SystemKind.FORD
    records = []
    for n in range(n_lo, n_hi + 1):
        q_lo, q_hi = system.q_interval(*stage.window(n))
        count = _stage_count(phi, q_lo, q_hi, ford)
        # a Ford point has one weight, so its pairs are its balls; the
        # rationals' are the sum of q + 1 over the window, 0 when empty
        # (q_lo = q_hi + 1)
        pairs = count if ford else (q_hi - q_lo + 1) * (q_lo + q_hi + 2) // 2
        if count == 0:
            records.append(StageMeasure(n, 0, pairs, 0.0, 0.0, 0.0, "empty"))
            continue
        full = count <= full_cap
        sweep = full or subset_cap > 0
        # the union over reduced centres is the stage set, so Ford's phi(q)
        # balls per denominator bound it; the rationals' plan regroups
        # denominators by their reduced form, so their bound takes the
        # window's q + 1 raw balls of radius psi(q), and a stage that is
        # not swept builds no plan
        if not ford:
            q = np.arange(q_lo, q_hi + 1, dtype=np.float64)
            psi = fn.evaluate_array(stage.form, q)
            q += 1.0
            upper = _per_q_upper(psi, q)
            del q, psi  # not held through the sweep
        if sweep or ford:
            b_vals, weights = _stage_ball_plan(system, q_lo, q_hi)
            radii = fn.evaluate_array(stage.form, weights)
        if ford:
            upper = _per_q_upper(radii, phi[b_vals])
        if not sweep:
            records.append(StageMeasure(
                n, count, pairs, 0.0, upper, None, "per-q-upper"))
            continue
        if not full:
            b_vals, radii = _truncate_plan(b_vals, radii, phi[b_vals],
                                           subset_cap)
        value, swept = _cell_sweep(b_vals, radii, spf, strip)
        budget = farey.union_length_error_budget(swept)
        lower = max(0.0, value - budget)
        if full:
            records.append(StageMeasure(
                n, count, pairs, lower, min(upper, value + budget), value,
                "full-sweep"))
        else:
            records.append(StageMeasure(
                n, count, pairs, lower, upper, None, "subset-sweep"))
    return StageScan(tuple(records))
