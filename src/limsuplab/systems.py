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

The sweep lists, per denominator b, the candidates a in a window
[a_lo, a_hi] in one flat b-major, a-ascending array and keeps a/b
exactly when gcd(a, b) == 1, i.e. when no prime factor p of b divides
a.  It strikes the multiples of every such p inside each window, which
is that test candidate for candidate: a = 0 is struck for every b > 1,
and b = 1 has no prime, so 0/1 and 1/1 stay.  A kept ball is stored
as one int64 alone, its `farey.union_length` sort key (its code, the
order it gives and its decoding: `farey`'s paragraph on swept balls).
The key array is sized for the cell's candidates and built a block of
them at a time, and only the kept balls' words are written: a cell
holds 8 bytes per candidate, about 6/pi^2 of which are kept, and a few
blocks: 14.6 bytes per ball traced on the 2.97M-ball stage of q^-2,
k = 5, n = 5.

numpy and `farey` are imported by the functions that build arrays, so
the weight and denominator algebra (`q_interval`), which the horoball
counts use, loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from limsuplab import functions as fn
from limsuplab.errors import ResourceCapError, UsageError, size_text

# float sweep budgets: full stages below FULL_SWEEP_CAP reduced balls are
# swept exhaustively; larger stages fall back to the densest prefix of
# denominators that stays below SUBSET_SWEEP_CAP balls.
FULL_SWEEP_CAP = 32_000_000
SUBSET_SWEEP_CAP = 64_000_000
_CELL_BUDGET = 8_000_000  # target flattened pairs per sweep cell
# a stage scan holds at most 96 bytes per denominator up to its q_hi:
# the plan's and the per-q bound's int64/float64 arrays, and one totient
# sieve of exactly that length (int32 least primes, kept for the sweeps'
# prime pairs, and int64 phi, summed in place); a q^-3 scan with
# subset_cap=0 peaked at 49 bytes per q of ru_maxrss above the
# interpreter at q_hi = 2^22 and at 61 at 2^22 + 1 (48 and 60 traced).
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


@dataclass(frozen=True)
class ResonantSystem:
    """A weighted family of rational points in [0,1]."""

    kind: SystemKind

    def q_interval(self, w_lo: Fraction, w_hi: Fraction) -> tuple[int, int]:
        """Inclusive denominator range with weight in (w_lo, w_hi]."""
        w_lo, w_hi = fn.exact(w_lo, "w_lo"), fn.exact(w_hi, "w_hi")
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

    def count_window(self, w_lo: Fraction, w_hi: Fraction,
                     cum: Optional[np.ndarray] = None) -> int:
        """Exact number of (point, weight) pairs with weight in (w_lo, w_hi].

        ``cum`` is a totient prefix sum reaching the window's largest
        denominator; without it one is sieved for this call."""
        q_lo, q_hi = self.q_interval(w_lo, w_hi)
        if q_lo > q_hi:
            return 0
        if self.kind is SystemKind.RATIONALS:
            m = q_hi - q_lo + 1
            return m * (q_lo + q_hi + 2) // 2  # sum of (q + 1)
        if cum is None:
            cum = _totient_cumsum(q_hi)
        total = int(cum[q_hi] - cum[q_lo - 1])
        if q_lo <= 1 <= q_hi:
            total += 1  # 0/1 alongside 1/1
        return total


def classical_rationals() -> ResonantSystem:
    return ResonantSystem(SystemKind.RATIONALS)


def ford_horoballs() -> ResonantSystem:
    """Reduced rationals weighted by the Ford curvature: weight = 2q^2."""
    return ResonantSystem(SystemKind.FORD)


def _totient_cumsum(limit: int, spf: Optional[np.ndarray] = None
                    ) -> np.ndarray:
    """phi(0) + ... + phi(q) for q = 0..limit, summed in place over
    `farey.totient_sieve(limit, spf)`."""
    import numpy as np
    from limsuplab import farey
    phi = farey.totient_sieve(limit, spf)
    return np.cumsum(phi, out=phi)


# ---------------------------------------------------------------------------
# stage specifications


@dataclass(frozen=True)
class StageSpec:
    """How stage n is cut out of a system: balls B(x, psi(weight)) over
    weights in (k^(n-1), k^n]."""

    form: fn.FunctionForm
    k: Fraction

    def __post_init__(self):
        object.__setattr__(self, "k", fn.exact(self.k, "k"))
        if self.k <= 1:
            raise UsageError("stage ratio k must exceed 1")
        if self.form.regime is not fn.Regime.LARGE:
            raise UsageError("stage radii are functions of a growing weight; "
                             "use a large-argument form")
        if not self.form.tends_to_zero():
            raise UsageError("stage radius function must decay")

    def window(self, n: int) -> tuple[Fraction, Fraction]:
        if n < 1:
            raise UsageError("stage index must be >= 1")
        return self.k ** (n - 1), self.k ** n


def per_point_stage(psi: fn.FunctionForm, k) -> StageSpec:
    return StageSpec(psi, k)


# ---------------------------------------------------------------------------
# measure scan


@dataclass(frozen=True)
class StageMeasure:
    """Certified measure bracket for one stage."""

    n: int
    count: int        # reduced balls making up the stage
    pairs: int        # raw (point, weight) pairs in the window
    lower: float      # certified lower bound on the stage measure
    upper: float      # certified upper bound
    value: Optional[float]  # sweep value when the full stage was swept
    method: str
    truncated: bool


@dataclass(frozen=True)
class StageScan:
    records: tuple[StageMeasure, ...]


def _stage_ball_plan(system: ResonantSystem, stage: StageSpec, n: int):
    """Reduced-centre description of stage n.

    Returns (b_vals, weights): the denominators of the reduced centres
    and the weight whose radius psi(weight) each ball takes (int64 on
    the rationals, float64 for Ford).  The union of balls over reduced
    centres equals the stage set exactly (the raw ball at p/q = a/b has
    radius at most the reduced ball's, because the radius function is
    nonincreasing on the window and the reduced ball uses the smallest
    weight the centre attains).  The radii are the caller's to
    evaluate, so a stage that is not swept never computes them.
    """
    import numpy as np
    from limsuplab import farey
    w_lo, w_hi = stage.window(n)
    q_lo, q_hi = system.q_interval(w_lo, w_hi)
    if q_lo > q_hi:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if system.kind is SystemKind.RATIONALS:
        # all reduced denominators up to q_hi appear, via their smallest
        # multiple inside the window
        b_vals = np.arange(1, q_hi + 1, dtype=np.int64)
        w_lo_floor = w_lo.numerator // w_lo.denominator
        qmin = farey.min_multiple_above(b_vals, w_lo_floor, q_hi)
        keep = qmin > 0
        return b_vals[keep], qmin[keep]
    # Ford: reduced denominators live in the window themselves
    b_vals = np.arange(q_lo, q_hi + 1, dtype=np.int64)
    return b_vals, 2.0 * b_vals.astype(np.float64) ** 2


def _cell_sweep(b_vals: np.ndarray, radii: np.ndarray,
                spf: np.ndarray) -> tuple[float, int]:
    """Measure of union of balls at reduced fractions a/b (gcd(a,b)=1,
    a/b in [0,1]) with per-denominator radii, clipped to [0, 1].
    Chunked over x-cells so memory stays bounded: a cell holds one word
    per candidate ball, of which only the kept balls' are touched, and
    a few blocks of farey.BLOCK, besides the per-denominator arrays.
    spf is the scan's `farey.smallest_prime_factors` table, reaching
    max(b_vals).

    Returns (measure, number of reduced balls processed).
    """
    import numpy as np
    from limsuplab import farey
    if len(b_vals) == 0:
        return 0.0, 0
    flat_fixed = float(np.sum(2.0 * radii * b_vals) + 3 * len(b_vals))
    b_float = b_vals.astype(np.float64)
    flat_sweep = float(b_float.sum())
    ncells = max(1, math.ceil(flat_sweep /
                              max(_CELL_BUDGET - flat_fixed, _CELL_BUDGET / 8)))
    edges = np.linspace(0.0, 1.0, ncells + 1)
    rows, primes = farey.prime_factor_pairs(b_vals, spf)
    # the pairs of rows i..j-1 are rows[pair_at[i]:pair_at[j]]
    pair_at = np.searchsorted(rows, np.arange(len(b_vals) + 1))
    total = 0.0
    n_balls = 0
    for i in range(ncells):
        clo, chi = float(edges[i]), float(edges[i + 1])
        # clo <= 1, chi >= 0 and radii > 0 put a_lo <= b - 1 and a_hi >= 1
        # already, so clipping both to [0, b] needs one bound each
        a_lo = np.floor(b_vals * (clo - radii)).astype(np.int64) - 1
        a_hi = np.ceil(b_vals * (chi + radii)).astype(np.int64) + 1
        np.maximum(a_lo, 0, out=a_lo)
        np.minimum(a_hi, b_vals, out=a_hi)
        counts = a_hi - a_lo + 1
        tot = int(counts.sum())
        if tot > 10 * _CELL_BUDGET:
            raise ResourceCapError(
                "sweep cell holds %d candidate balls; the stage radii are "
                "too large for the configured cell budget" % tot)
        # candidate a/b has code (row << wb) | (a - a_lo[row])
        balls = farey.BallRows(a_lo.astype(np.float64), b_float, radii,
                               int(counts.max() - 1).bit_length())
        keys = _cell_keys(balls, a_lo, counts, (rows, primes, pair_at),
                          clo, chi)
        n_balls += len(keys)  # boundary balls counted per cell: budget
        total += farey.union_length(keys, balls, clo, chi)
        del keys
    return total, n_balls


def _cell_keys(balls: farey.BallRows, a_lo: np.ndarray, counts: np.ndarray,
               pairs, clo: float, chi: float) -> np.ndarray:
    """The `farey.sort_keys` of one cell's reduced balls, unsorted and in
    code order, as a prefix of one array sized for the counts[r]
    candidates a_lo[r], a_lo[r] + 1, ... of each row r; pairs is (rows,
    primes, pair_at), the plan's prime pairs in row order and where each
    row's start.

    Built a chunk of rows at a time, at most farey.BLOCK candidates per
    chunk unless one row holds more: the multiples of each prime p | b
    are struck from the chunk's candidates, which leaves gcd(a, b) ==
    1, and each kept ball's lo is written to its key's word, which then
    becomes the key."""
    import numpy as np
    from limsuplab import farey
    rows, primes, pair_at = pairs
    ends = np.cumsum(counts)
    starts = ends - counts
    # candidate a of row r sits at starts[r] + a - a_lo[r]; the multiples
    # of p among them start off = (-a_lo) mod p places in
    off = -a_lo[rows] % primes
    first = starts[rows] + off
    strikes = (counts[rows] - 1 - off) // primes + 1
    keys = np.empty(int(ends[-1]), dtype=np.int64)
    n = i = 0
    while i < len(counts):
        base = int(starts[i])
        j = max(i + 1, int(np.searchsorted(ends, base + farey.BLOCK,
                                           side="right")))
        begin, stops = starts[i:j] - base, ends[i:j] - base
        keep = np.ones(int(stops[-1]), dtype=bool)
        at = slice(pair_at[i], pair_at[j])
        _strike(keep, first[at] - base, primes[at], strikes[at])
        pos = keep.nonzero()[0]
        del keep
        kept = pos.searchsorted(stops)  # kept balls per row
        kept[1:] -= kept[:-1].copy()
        # lo = (a_lo + col) / b - r with a = pos + a_lo - begin and b
        # exact in float64: the operations and bits of balls.bounds
        key = keys[n:n + len(pos)]
        lo = key.view(np.float64)
        np.add(pos, (balls.num0[i:j] - begin).repeat(kept), out=lo)
        lo /= balls.den[i:j].repeat(kept)
        lo -= balls.radius[i:j].repeat(kept)
        # the position of a/b in row r becomes its code (r << wb) | col
        pos -= (begin - (np.arange(i, j) << balls.wb)).repeat(kept)
        farey.sort_keys(lo, pos, balls.ib, clo, chi, key)
        n += len(pos)
        i = j
    return keys[:n]


def _strike(keep: np.ndarray, first: np.ndarray, step: np.ndarray,
            count: np.ndarray) -> None:
    """keep[first[j] + t * step[j]] = False for 0 <= t < count[j], every
    position inside keep.  The positions are built in chunks of at most
    len(keep) (one pair strikes within one row, never more), each as one
    running sum of steps whose partial sums are the positions
    themselves, so every value stays within +-len(keep)."""
    import numpy as np
    live = count > 0
    first, step, count = first[live], step[live], count[live]
    ends = np.cumsum(count)
    j = 0
    while j < len(count):
        stop = int(np.searchsorted(ends, ends[j] - count[j] + len(keep),
                                   side="right"))
        c = count[j:stop]
        pos = np.repeat(step[j:stop], c)
        seg = np.cumsum(c) - c
        last = first[j:stop] + (c - 1) * step[j:stop]
        pos[seg[0]] = first[j]
        pos[seg[1:]] = first[j + 1:stop] - last[:-1]
        np.cumsum(pos, out=pos)
        keep[pos] = False
        j = stop


def _per_q_upper(system: ResonantSystem, stage: StageSpec, n: int,
                 radii: np.ndarray, counts: np.ndarray) -> float:
    """Sum over denominators of (ball count) * (ball length), capped at 1
    per denominator and at 1 overall: a certified measure upper bound.

    radii and counts are the stage plan's per-denominator arrays.  The
    union over reduced centres is the same set, so phi(q) balls per
    denominator bound it from above; only the rationals, whose plan
    regroups denominators by their reduced form, count the q + 1 raw
    balls of radius psi(q) instead.
    """
    import numpy as np
    if system.kind is SystemKind.RATIONALS:
        q_lo, q_hi = system.q_interval(*stage.window(n))
        counts = np.arange(q_lo, q_hi + 1, dtype=np.float64)
        radii = fn.evaluate_array(stage.form, counts)
        counts += 1.0
    per_q = 2.0 * radii
    per_q *= counts
    np.minimum(per_q, 1.0, out=per_q)
    # one-ulp-per-term slack keeps the bound certified despite rounding;
    # per_q >= 0, so its max is its largest magnitude
    slack = len(per_q) * 4e-16 + float(per_q.max(initial=0.0)) * 1e-12
    return min(1.0, float(per_q.sum()) + slack)


def _reduced_ball_counts(b_vals: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """phi(b) per selected denominator (with both endpoints at b=1), from
    a totient prefix sum reaching b_vals[-1]."""
    import numpy as np
    if len(b_vals) == 0:
        return np.zeros(0, dtype=np.int64)
    counts = cum[b_vals]
    # cum[b - 1] read into b - 1's own words: clip mode writes in place
    # (raise mode buffers), and b - 1 >= 0 is a valid index
    below = b_vals - 1
    counts -= np.take(cum, below, out=below, mode="clip")
    if b_vals[0] == 1:
        counts[0] += 1
    return counts


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
    running = np.cumsum(counts)
    idx = int(np.searchsorted(running, cap, side="right"))
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
    is a UsageError.  Raises ResourceCapError, before any stage is
    computed, when the last stage's arrays and totient sieve, all as
    long as its denominator range, would pass MAX_STAGE_BYTES.
    """
    from limsuplab import farey
    if n_hi < n_lo:
        raise UsageError("empty stage range")
    # the cell sweep's own arrays are outside the byte budget below
    for name, cap, top in (("full", full_cap, FULL_SWEEP_CAP),
                           ("subset", subset_cap, SUBSET_SWEEP_CAP)):
        if cap > top:
            raise UsageError("%s sweep cap %s above %d; the cap can only "
                             "be lowered" % (name, size_text(cap), top))
    # windows grow with n, so the last stage has the largest q_hi
    what = "stage %s" % size_text(n_hi)
    q_top = system.stage_q_top(stage.k, n_hi, farey.MAX_SIEVE, what)
    if _STAGE_BYTES_PER_Q * q_top > MAX_STAGE_BYTES:
        raise ResourceCapError(
            "%s needs about %d MB for denominators up to %d (budget %d MB)"
            % (what, _STAGE_BYTES_PER_Q * q_top >> 20, q_top,
               MAX_STAGE_BYTES >> 20))
    # one smallest-prime-factor sieve serves the totient prefix sum,
    # which serves every stage of the range, and every sweep's primes
    spf = farey.smallest_prime_factors(q_top)
    cum = _totient_cumsum(q_top, spf)
    records = []
    for n in range(n_lo, n_hi + 1):
        pairs = system.count_window(*stage.window(n), cum=cum)
        b_vals, weights = _stage_ball_plan(system, stage, n)
        counts = _reduced_ball_counts(b_vals, cum)
        count = int(counts.sum())
        if count == 0:
            records.append(StageMeasure(n, 0, pairs, 0.0, 0.0, 0.0,
                                        "empty", False))
            continue
        full = count <= full_cap
        sweep = full or subset_cap > 0
        # the rationals' per-q bound evaluates its own radii, so a stage
        # that is not swept needs none of the plan's
        radii = (fn.evaluate_array(stage.form, weights)
                 if sweep or system.kind is SystemKind.FORD else None)
        upper = _per_q_upper(system, stage, n, radii, counts)
        if not sweep:
            records.append(StageMeasure(
                n, count, pairs, 0.0, upper, None, "per-q-upper", True))
            continue
        if not full:
            b_vals, radii = _truncate_plan(b_vals, radii, counts, subset_cap)
        value, swept = _cell_sweep(b_vals, radii, spf)
        budget = farey.union_length_error_budget(swept)
        lower = max(0.0, value - budget)
        if full:
            records.append(StageMeasure(
                n, count, pairs, lower, min(upper, value + budget), value,
                "full-sweep", False))
        else:
            records.append(StageMeasure(
                n, count, pairs, lower, upper, None, "subset-sweep", True))
    return StageScan(tuple(records))
