"""Counting denominators that approximate a point, and the matching
almost-everywhere asymptotic.

R(x, N) counts the q <= N admitting an integer p with |x - p/q| <
psi(q).  Under the multiplicity condition 2 q psi(q) < 1 the admissible
p is unique when it exists, and for almost every x the count grows like
2 sum q psi(q).  The experiment here draws seeded uniform samples and
reports the distribution of R/prediction.

Sub-seed contract: sample i uses the counter-based Philox stream with
key = seed and counter = i, so any subset of samples can be computed in
any order (or in parallel) and still reproduce the serial run bit for
bit.

A run counts its samples in batches against one (psi, N) grid, the
whole run serially or eight samples a pool job, and each batch walks the
grid through one set of chunk buffers (`count_batch`).  A run below
_POOL_MIN_WORK sample-denominators runs serially: its pool's start does
not pay.

numpy and the process pool are imported by the functions that use them,
after the inputs are checked: a refused run loads neither.  The records
are NamedTuples, so no run loads `dataclasses`.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional

from limsuplab import functions as fn
from limsuplab.errors import ResourceCapError, UsageError, size_text, text_echo

# a (psi, N) grid is two float64 arrays of length N, built once; at
# N = 10^6 the first count measured 0.02 s and 24 MB, each later one
# 2.4 ms, on 2 vCPUs
MAX_N = 1_000_000
# count_batch walks the grid in chunks through one set of chunk buffers
# per batch.  200 samples at N = 10^5 took 43-47 ms with chunks of 2^14
# or 2^15, 53-58 ms with 2^17 and 63-75 ms with 2^12, on 2 vCPUs, and
# 53-67 ms at 2^15 with fresh temporaries for every chunk
_COUNT_CHUNK = 1 << 15
# schmidt_experiment builds one record per sample: 2000 samples at
# N = 10^5 (ten times the README's 200) took 0.65-0.69 s for the whole
# `schmidt --workers 1` process on 2 vCPUs
MAX_SAMPLES = 2_000
# a pool job counts this many consecutive samples as one batch
_POOL_BATCH = 8
# a run below this many sample-denominators (samples x N) runs
# serially.  Whole `schmidt` processes, --workers 2 against 1, medians of
# 5 alternating runs on 2 vCPUs: 0.40 against 0.30 s at 200 x 10^5, tied
# at 10^8 (0.39 against 0.40 s at 1000 x 10^5), 0.40 against 0.49 s at
# 200 x 10^6 and 1.12 against 1.80 s at 1000 x 10^6.  Only serial
# against 2 processes was measured, so a run at or above it keeps one
# process per sample and per CPU.
_POOL_MIN_WORK = 2 * 10 ** 8


class CountRecord(NamedTuple):
    x: float
    N: int
    count: int
    prediction: float
    ratio: float


class SchmidtPrediction(NamedTuple):
    value: float
    first_violation: Optional[int]      # first q with 2 q psi(q) >= 1

    @property
    def condition_ok(self) -> bool:
        return self.first_violation is None


class SchmidtSummary(NamedTuple):
    mean_ratio: float
    stddev: float
    records: tuple[CountRecord, ...]
    prediction: SchmidtPrediction


# every sample of a schmidt run shares one (psi, N): schmidt_prediction
# fills the entry before a pool forks, and the workers inherit it
@lru_cache(maxsize=2)
def _q_psi(psi: fn.FunctionForm, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The float grid q = 1..N and q psi(q) on it, read-only; refuses N
    outside [1, MAX_N] first."""
    if N < 1:
        raise UsageError("N must be >= 1")
    if N > MAX_N:
        raise ResourceCapError("counting horizon N=%s (cap %d)"
                               % (size_text(N), MAX_N))
    import numpy as np
    qs = np.arange(1, N + 1, dtype=np.float64)
    bound = qs * fn.evaluate_array(psi, qs)
    qs.flags.writeable = bound.flags.writeable = False
    return qs, bound


def count_R(x, N: int, psi: fn.FunctionForm) -> int:
    """#{1 <= q <= N : |x - p/q| < psi(q) for some integer p}.

    Counts q, not (p, q) pairs.  The nearest integer to qx is the only
    candidate worth testing (any admissible p is within psi(q)·q < q/2
    of qx under the usual smallness of psi; at an exact half-integer tie
    both neighbours give the same distance, so the rounding choice is
    immaterial).  An int or Fraction x is reduced mod 1 exactly before
    its float is taken, so one past float range is counted.  A non-finite
    x is refused before any array work.  A batch of one `count_batch`.
    """
    return count_batch((x,), N, psi)[0]


def _finite_float(x) -> float:
    if isinstance(x, (int, Fraction)):
        x = x % 1
    xf = float(x)
    if not math.isfinite(xf):
        raise UsageError("x must be finite, got %s" % xf)
    return xf


def count_batch(xs, N: int, psi: fn.FunctionForm) -> list[int]:
    """`count_R` of each x in xs against one (psi, N) grid.

    Every x is checked before any array work.  The grid is walked in
    chunks of _COUNT_CHUNK, and one set of chunk buffers, made here,
    serves every x of the batch through ``out=``: the counts are those
    of the plain expression ``|qx - rint(qx)| < q psi(q)``, float for
    float.
    """
    xfs = [_finite_float(x) for x in xs]
    import numpy as np
    qs, bound = _q_psi(psi, N)
    size = min(len(qs), _COUNT_CHUNK)
    qx, dist = np.empty(size), np.empty(size)
    hit = np.empty(size, dtype=bool)
    chunks = []
    for lo in range(0, len(qs), size):
        q_c, b_c = qs[lo:lo + size], bound[lo:lo + size]
        n = len(q_c)
        chunks.append((q_c, b_c, qx[:n], dist[:n], hit[:n]))
    counts = []
    for xf in xfs:
        count = 0
        for q_c, b_c, qx_c, dist_c, hit_c in chunks:
            np.multiply(q_c, xf, out=qx_c)
            np.rint(qx_c, out=dist_c)
            np.subtract(qx_c, dist_c, out=dist_c)
            np.abs(dist_c, out=dist_c)
            np.less(dist_c, b_c, out=hit_c)
            count += int(np.count_nonzero(hit_c))
        counts.append(count)
    return counts


def schmidt_prediction(psi: fn.FunctionForm, N: int) -> SchmidtPrediction:
    """2 sum_{q<=N} q psi(q), with the multiplicity condition flagged; a
    sum past float range is a ResourceCapError naming the form."""
    _, qpsi = _q_psi(psi, N)
    import numpy as np
    # q psi(q) >= 1/2 picks the q of 2 q psi(q) >= 1 without doubling
    bad = np.flatnonzero(qpsi >= 0.5)
    with np.errstate(over="ignore"):  # an overflow is refused below
        value = 2.0 * float(qpsi.sum())
    if not math.isfinite(value):
        raise ResourceCapError(
            "the prediction 2 sum q psi(q) over q <= %d of %s is past "
            "float range" % (N, text_echo(fn.format_function(psi))))
    return SchmidtPrediction(value, int(bad[0]) + 1 if len(bad) else None)


def sample_x(seed: int, index: int) -> float:
    """Uniform sample i of the stream keyed by seed (see module docstring)."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))
    return float(gen.random())


def _count_samples(args) -> list[tuple[float, int]]:
    """(x, count) of samples `indices` of the stream keyed by seed, one
    `count_batch`."""
    seed, indices, N, psi = args
    xs = [sample_x(seed, i) for i in indices]
    return list(zip(xs, count_batch(xs, N, psi)))


def schmidt_experiment(psi: fn.FunctionForm, N: int, samples: int,
                       seed: int, workers: int = 1) -> SchmidtSummary:
    """Counts for samples 0..samples-1 of the seeded stream, each against
    the prediction.  With workers > 1 the samples run in a process pool
    of at most one process per sample and per CPU, unless samples x N
    is below _POOL_MIN_WORK: a run that small does not repay the pool's
    start and runs serially.  The sub-seed contract makes the records
    identical to a serial run.
    """
    if workers < 1:
        raise UsageError("workers must be >= 1, got %s" % size_text(workers))
    if samples < 0:
        raise UsageError("samples must be >= 0")
    if samples > MAX_SAMPLES:
        raise ResourceCapError("%s samples (cap %d)"
                               % (size_text(samples), MAX_SAMPLES))
    if not 0 <= seed < 2 ** 128:
        raise UsageError("seed must lie in [0, 2^128): it keys Philox")
    pred = schmidt_prediction(psi, N)
    # a fork pool starts all its processes at once
    workers = min(workers, samples, os.cpu_count() or 1)
    if workers > 1 and samples * N >= _POOL_MIN_WORK:
        from concurrent.futures import ProcessPoolExecutor
        jobs = [(seed, range(lo, min(lo + _POOL_BATCH, samples)), N, psi)
                for lo in range(0, samples, _POOL_BATCH)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counted = list(chain.from_iterable(
                pool.map(_count_samples, jobs)))
    else:
        counted = _count_samples((seed, range(samples), N, psi))
    value = pred.value
    records, ratios = [], []
    for x, c in counted:
        ratio = c / value if value > 0 else math.inf
        records.append(CountRecord(x, N, c, value, ratio))
        ratios.append(ratio)
    mean = sum(ratios) / len(ratios) if ratios else float("nan")
    var = (sum((r - mean) ** 2 for r in ratios) / len(ratios)
           if ratios else float("nan"))
    return SchmidtSummary(mean, math.sqrt(var) if ratios else float("nan"),
                          tuple(records), pred)
