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

numpy and the process pool are imported by the functions that use them,
after the inputs are checked: a refused run loads neither.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from limsuplab import functions as fn
from limsuplab.errors import ResourceCapError, UsageError, size_text

# a (psi, N) grid is two float64 arrays of length N, built once; at
# N = 10^6 the first count measured 0.02 s and 24 MB, each later one
# 2.4 ms, on 2 vCPUs
MAX_N = 1_000_000
# count_R walks the grid in chunks: full-length scratch arrays were
# page-faulted afresh on every sample, 4x the chunked time at N = 10^5
_COUNT_CHUNK = 1 << 15
# schmidt_experiment builds one job and one record per sample: 2000
# samples at N = 10^5 measured 8.5 s serial on 2 vCPUs (ten times the
# README's 200)
MAX_SAMPLES = 2_000


@dataclass(frozen=True)
class CountRecord:
    x: float
    N: int
    count: int
    prediction: float
    ratio: float


@dataclass(frozen=True)
class SchmidtPrediction:
    value: float
    first_violation: Optional[int]      # first q with 2 q psi(q) >= 1

    @property
    def condition_ok(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class SchmidtSummary:
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
    x is refused before any array work.
    """
    if isinstance(x, (int, Fraction)):
        x = x % 1
    xf = float(x)
    if not math.isfinite(xf):
        raise UsageError("x must be finite, got %s" % xf)
    import numpy as np
    qs, bound = _q_psi(psi, N)
    count = 0
    for lo in range(0, len(qs), _COUNT_CHUNK):
        qx = qs[lo:lo + _COUNT_CHUNK] * xf
        dist = np.rint(qx)
        np.subtract(qx, dist, out=dist)
        np.abs(dist, out=dist)
        count += int(np.count_nonzero(dist < bound[lo:lo + _COUNT_CHUNK]))
    return count


def schmidt_prediction(psi: fn.FunctionForm, N: int) -> SchmidtPrediction:
    """2 sum_{q<=N} q psi(q), with the multiplicity condition flagged."""
    _, qpsi = _q_psi(psi, N)
    import numpy as np
    bad = np.flatnonzero(2.0 * qpsi >= 1.0)
    return SchmidtPrediction(float(2.0 * qpsi.sum()),
                             int(bad[0]) + 1 if len(bad) else None)


def sample_x(seed: int, index: int) -> float:
    """Uniform sample i of the stream keyed by seed (see module docstring)."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))
    return float(gen.random())


def _count_sample(args) -> tuple[float, int]:
    seed, index, N, psi = args
    x = sample_x(seed, index)
    return x, count_R(x, N, psi)


def schmidt_experiment(psi: fn.FunctionForm, N: int, samples: int,
                       seed: int, workers: int = 1) -> SchmidtSummary:
    """Counts for samples 0..samples-1 of the seeded stream, each against
    the prediction.  With workers > 1 the samples run in a process pool
    of at most one process per sample and per CPU; the sub-seed contract
    makes the records identical to a serial run.
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
    jobs = [(seed, i, N, psi) for i in range(samples)]
    # a fork pool starts all its processes at once
    workers = min(workers, samples, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counted = list(pool.map(_count_sample, jobs, chunksize=8))
    else:
        counted = map(_count_sample, jobs)
    records = []
    for x, c in counted:
        ratio = c / pred.value if pred.value > 0 else math.inf
        records.append(CountRecord(x, N, c, pred.value, ratio))
    ratios = [r.ratio for r in records]
    mean = sum(ratios) / len(ratios) if ratios else float("nan")
    var = (sum((r - mean) ** 2 for r in ratios) / len(ratios)
           if ratios else float("nan"))
    return SchmidtSummary(mean, math.sqrt(var) if ratios else float("nan"),
                          tuple(records), pred)
