"""Reduced-fraction machinery shared by the stage-set modules.

The unions the experiments measure are unions of balls centred at
rationals.  Working with reduced fractions instead of raw (p, q) pairs
collapses duplicate centres, and the mediant structure of the Farey
sequence gives exact integer formulas for the gaps between neighbouring
centres: consecutive reduced fractions a/b < a'/b' with denominators at
most Q satisfy a'b - ab' = 1, so the gap is exactly 1/(bb').  Everything
performance-critical here is vectorised numpy over int64/float64 with
the exactness argument spelled out where it matters:

* sorting reduced fractions by their float64 value is exact for
  Q <= 3_000_000, because distinct fractions with denominators <= Q
  differ by at least 1/Q^2, far above the 2^-53 relative float error;
* int64 products like b * b' stay below 2^62 for every Q the package
  accepts, so merge decisions on gaps are exact integer comparisons;
* float sweep measures carry an explicit error budget of a few ulps per
  interval, reported alongside the value.
"""

from __future__ import annotations

import numpy as np

from limsuplab.errors import InternalInvariantError, UsageError

# float64 sorting of a/b is order-exact up to this denominator bound
FLOAT_ORDER_SAFE_QMAX = 3_000_000

_CHUNK = 1 << 22  # elements per generation chunk, ~32 MB of scratch


def totient_sieve(limit: int) -> np.ndarray:
    """phi[0..limit] as int64 (phi[0] = 0)."""
    if limit < 0:
        raise UsageError("limit must be nonnegative")
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def totient_sum(limit: int) -> int:
    """Exact sum of phi(q) for 1 <= q <= limit."""
    if limit <= 0:
        return 0
    return int(totient_sieve(limit)[1:].sum())


def coprime_count(limit: int) -> int:
    """Number of reduced fractions in [0,1] with denominator <= limit
    (both endpoints 0/1 and 1/1 counted)."""
    return totient_sum(limit) + 1


def reduced_fractions(qmax: int):
    """All reduced fractions a/b in [0,1] with b <= qmax, sorted.

    Returns (num, den) int64 arrays.  Includes 0/1 and 1/1.  Raises if
    qmax is large enough to endanger float-key sort exactness.
    """
    if qmax < 1:
        raise UsageError("qmax must be >= 1")
    if qmax > FLOAT_ORDER_SAFE_QMAX:
        raise UsageError(
            "qmax=%d exceeds the float64 order-exactness bound %d"
            % (qmax, FLOAT_ORDER_SAFE_QMAX))
    nums = [np.array([0, 1], dtype=np.int64)]
    dens = [np.array([1, 1], dtype=np.int64)]
    b = 2
    while b <= qmax:
        b_end = b
        total = 0
        while b_end <= qmax and total + b_end <= _CHUNK:
            total += b_end
            b_end += 1
        if total == 0:  # single huge b
            b_end = b + 1
        counts = np.arange(b, b_end, dtype=np.int64) - 1  # a in [1, b-1]
        den_chunk = np.repeat(np.arange(b, b_end, dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        num_chunk = np.arange(len(den_chunk), dtype=np.int64) \
            - np.repeat(starts, counts) + 1
        keep = np.gcd(num_chunk, den_chunk) == 1
        nums.append(num_chunk[keep])
        dens.append(den_chunk[keep])
        b = b_end
    num = np.concatenate(nums)
    den = np.concatenate(dens)
    order = np.argsort(num / den, kind="stable")
    num, den = num[order], den[order]
    det = num[1:] * den[:-1] - num[:-1] * den[1:]
    if not np.all(det == 1):
        raise InternalInvariantError(
            "Farey adjacency failed: generation or sort is broken")
    return num, den


def min_multiple_above(den: np.ndarray, window_lo: int,
                       window_hi: int) -> np.ndarray:
    """Per denominator b, the smallest multiple of b in (window_lo,
    window_hi]; 0 where none exists."""
    q = den * (window_lo // den + 1)
    return np.where(q <= window_hi, q, 0)


def union_length(lo: np.ndarray, hi: np.ndarray,
                 clip_lo: float = 0.0, clip_hi: float = 1.0) -> float:
    """Measure of the union of [lo_i, hi_i] clipped to [clip_lo, clip_hi].

    Float sweep; error is O(n ulps), a few 1e-16 per interval.
    """
    if len(lo) == 0:
        return 0.0
    lo = np.clip(lo, clip_lo, clip_hi)
    hi = np.clip(hi, clip_lo, clip_hi)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_end = np.maximum.accumulate(hi)
    prev_end = np.empty_like(run_end)
    prev_end[0] = clip_lo
    prev_end[1:] = run_end[:-1]
    gain = hi - np.maximum(lo, prev_end)
    return float(gain[gain > 0].sum())


def union_length_error_budget(n_intervals: int) -> float:
    """Certified bound on the float sweep's absolute measure error."""
    return 4.0 * np.finfo(np.float64).eps * max(n_intervals, 1)
