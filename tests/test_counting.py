"""Counting-function tests: brute-force oracle, closed-form cases, the
almost-everywhere ratio experiment, and the seeded splitting contract."""

import concurrent.futures
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import limsuplab.counting as counting
import limsuplab.functions as fn
from limsuplab.counting import (CountRecord, count_R, sample_x,
                                schmidt_experiment, schmidt_prediction)
from limsuplab.errors import UsageError
from oracles import count_R_exact, count_R_float, evaluate

PSI_QUARTER = fn.approximating(Fraction(1, 4), -1)   # 1/(4q)
PSI_CUBE = fn.approximating(1, -3)                   # q^-3
PSI_SQUARE = fn.approximating(1, -2)                 # q^-2


def brute_count(x: float, N: int, psi) -> int:
    """Reference count: scan every candidate numerator."""
    hits = 0
    for q in range(1, N + 1):
        bound = q * evaluate(psi, q)
        if any(abs(x - p / q) * q < bound for p in range(0, q + 1)):
            hits += 1
    return hits


# -- count_R ---------------------------------------------------------------

def test_count_zero_point_hits_everything():
    assert count_R(0, 100, PSI_CUBE) == 100
    assert count_R(0, 100, PSI_QUARTER) == 100


def test_count_one_half_parity():
    # even q land exactly on 1/2; odd q sit at distance 1/(2q) >= 1/(4q)
    assert count_R(0.5, 100, PSI_QUARTER) == 50
    assert count_R_exact(Fraction(1, 2), 100, PSI_QUARTER) == 50


def test_count_needs_positive_N():
    with pytest.raises(UsageError):
        count_R(0.3, 0, PSI_CUBE)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_count_refuses_non_finite_x(x, monkeypatch):
    # refused before the grid is built or read, so no numpy RuntimeWarning
    def no_grid(*args):
        raise AssertionError("the grid was built for a non-finite x")
    monkeypatch.setattr(counting, "_q_psi", no_grid)
    with pytest.raises(UsageError, match="x must be finite"):
        count_R(x, 100, PSI_CUBE)


@pytest.mark.parametrize("x", [10 ** 400, -10 ** 400 - 1,
                               Fraction(10 ** 400, 3), Fraction(-10 ** 400, 7),
                               Fraction(7, 3) + 10 ** 400])
def test_count_exact_x_past_float_range(x):
    # an int or a Fraction is reduced mod 1 before its float is taken;
    # with q psi(q) = 1/4 no q x mod 1 lies near a tie, so the float count
    # is the exact one
    assert count_R(x, 150, PSI_QUARTER) == count_R_exact(x, 150, PSI_QUARTER)
    if isinstance(x, int):
        assert count_R(x, 150, PSI_QUARTER) == 150


@pytest.mark.parametrize("psi", [PSI_QUARTER, PSI_CUBE, PSI_SQUARE])
def test_count_matches_brute_force(psi):
    rng = np.random.default_rng(20240817)
    for x in rng.random(50):
        assert count_R(x, 200, psi) == brute_count(float(x), 200, psi)


def brute_count_exact(x: Fraction, N: int, psi) -> int:
    hits = 0
    for q in range(1, N + 1):
        bound = q * fn.evaluate_rational(psi, q)
        if any(abs(x - Fraction(p, q)) * q < bound for p in range(0, q + 1)):
            hits += 1
    return hits


def test_exact_count_agrees_on_rationals():
    # x = 5/12 with psi = 1/(4q) puts two residue classes exactly on the
    # threshold each cycle; strict inequality must drop them all
    assert count_R_exact(Fraction(5, 12), 150, PSI_QUARTER) == 62
    for x in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 12),
              Fraction(1, 4), Fraction(9, 10)):
        for psi in (PSI_CUBE, PSI_QUARTER):
            assert count_R_exact(x, 150, psi) == brute_count_exact(x, 150, psi)


def test_exact_count_rejects_log_radii():
    with pytest.raises(UsageError):
        count_R_exact(Fraction(1, 3), 10, fn.approximating(1, -2, -1))


# x = m / 2^20 and q <= 400 make q x exact in float64 (29 bits), and
# psi = c q^-e with c = a/b, b odd, keeps every threshold q psi(q) =
# a / (b q^(e-1)) off the dyadic distances |q x - p|, by at least
# 1 / (2^20 b q^(e-1)): a relative gap near 1e-7, far above the few ulps
# of the float threshold, so no hit can flip
@settings(max_examples=60)
@given(m=st.integers(0, 2 ** 20), N=st.integers(1, 400),
       c=st.sampled_from([Fraction(a, b) for b in (3, 5, 7, 11, 13)
                          for a in range(1, b)]),
       e=st.integers(1, 3))
@example(m=2 ** 19, N=400, c=Fraction(1, 3), e=1)
@example(m=0, N=400, c=Fraction(2, 13), e=3)
def test_float_count_matches_exact_on_dyadics(m, N, c, e):
    x = Fraction(m, 2 ** 20)
    psi = fn.approximating(c, -e)
    assert count_R(float(x), N, psi) == count_R_exact(x, N, psi)


# the float 1/3 lies just below 1/3, so at q = 1 the exact distance
# 1/3 - x is under the bound 1/3, but the float bound rounds to x itself
# and the float comparison drops the hit
@pytest.mark.xfail(strict=True, reason="count_R decides near-ties in floats "
                   "with no error budget (ROADMAP item 15)")
@pytest.mark.parametrize("N,exact", [(1, 1), (10, 7), (1000, 667)])
def test_float_count_decides_the_one_third_tie(N, exact):
    psi = fn.approximating(Fraction(1, 3), -1)
    assert count_R_exact(Fraction(1 / 3), N, psi) == exact
    assert count_R(1 / 3, N, psi) == exact


def test_rational_point_floor_bound():
    # every multiple of the denominator scores a hit when psi > 0
    for a, b in ((1, 3), (2, 5), (3, 7), (5, 11)):
        assert count_R(a / b, 1000, PSI_CUBE) >= 1000 // b


def test_monotone_in_N():
    x = math.sqrt(2) - 1
    counts = [count_R(x, n, PSI_SQUARE) for n in (10, 100, 500, 2000)]
    assert counts == sorted(counts)


def test_monotone_in_psi():
    rng = np.random.default_rng(77)
    small = fn.approximating(Fraction(1, 8), -1)
    for x in rng.random(20):
        assert count_R(x, 300, PSI_CUBE) <= count_R(x, 300, PSI_SQUARE)
        assert count_R(x, 300, small) <= count_R(x, 300, PSI_QUARTER)


def test_golden_hits_are_convergent_denominators():
    # threshold 9/(20 q^2) sits just above the golden ratio's approximation
    # constant 1/sqrt(5), so hits exist; every hit q satisfies
    # |x - p/q| < 1/(2 q^2) and is therefore a convergent denominator
    # (here: a Fibonacci number).
    x = (math.sqrt(5) - 1) / 2
    psi = fn.approximating(Fraction(9, 20), -2)
    N = 10 ** 4
    qs = np.arange(1, N + 1, dtype=np.float64)
    dist = np.abs(qs * x - np.rint(qs * x))
    hit_qs = set((1 + np.flatnonzero(dist < qs * fn.evaluate_array(psi, qs))).tolist())

    fib = set()
    a, b = 1, 1
    while a <= N:
        fib.add(a)
        a, b = b, a + b
    assert hit_qs, "threshold above 1/sqrt(5) must admit hits"
    assert hit_qs <= fib
    assert count_R(x, N, psi) == len(hit_qs)


# -- the cached q-grid ------------------------------------------------------

GRID_FORMS = [PSI_QUARTER, PSI_CUBE, PSI_SQUARE,
              fn.approximating(Fraction(1, 3), -1),
              fn.approximating(Fraction(2, 7), Fraction(-3, 2))]


# each example interleaves several (psi, N) pairs, more than the cache
# holds, so a stale or evicted entry answering for another pair shows
@settings(max_examples=40)
@given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       grids=st.lists(st.tuples(st.sampled_from(GRID_FORMS),
                                st.integers(1, 3000)),
                      min_size=1, max_size=4))
@example(xs=[0.37123, 0.5], grids=[(PSI_QUARTER, 70_001),
                                   (PSI_CUBE, 2 * counting._COUNT_CHUNK)])
@example(xs=[0.25, 0.61], grids=[(PSI_QUARTER, 500), (PSI_CUBE, 500),
                                 (PSI_QUARTER, 501)])
def test_count_matches_uncached_formula(xs, grids):
    for x in xs:
        for psi, N in grids:
            assert count_R(x, N, psi) == count_R_float(x, N, psi), (x, psi, N)


def test_count_chunks_cover_the_grid(monkeypatch):
    for chunk in (1, 7, 999, 1000):
        monkeypatch.setattr(counting, "_COUNT_CHUNK", chunk)
        for x in (0.0, 0.5, 0.37123, 0.9):
            assert count_R(x, 1000, PSI_SQUARE) == \
                count_R_float(x, 1000, PSI_SQUARE), (chunk, x)


# one batch reuses one set of chunk buffers for every x: a count left
# over from the x before, or from a longer chunk, would show here
@settings(max_examples=40)
@given(xs=st.lists(st.floats(0.0, 1.0)
                   | st.fractions(0, 1, max_denominator=10 ** 6)
                   | st.integers(-10 ** 30, 10 ** 30), max_size=6),
       psi=st.sampled_from(GRID_FORMS), N=st.integers(1, 3000),
       chunk=st.sampled_from([1, 7, 999, counting._COUNT_CHUNK]))
@example(xs=[0.5, 0.37123, 0.0, 0.5], psi=PSI_QUARTER, N=70_001,
         chunk=counting._COUNT_CHUNK)
def test_batch_counts_match_count_R(xs, psi, N, chunk):
    saved = counting._COUNT_CHUNK
    counting._COUNT_CHUNK = chunk
    try:
        got = counting.count_batch(xs, N, psi)
        assert got == [count_R(x, N, psi) for x in xs]
    finally:
        counting._COUNT_CHUNK = saved
    assert got == [count_R_float(x % 1, N, psi) for x in xs]


def test_cached_grid_is_read_only():
    for arr in counting._q_psi(PSI_QUARTER, 500):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a later count still sees the original grid
    assert count_R(0.5, 500, PSI_QUARTER) == 250


def test_pool_rows_match_serial_from_a_cold_cache(monkeypatch):
    # the pool's workers inherit the grid that schmidt_prediction filled;
    # a lowered _POOL_MIN_WORK lets this small run start the pool
    monkeypatch.setattr(counting, "_POOL_MIN_WORK", 1)
    runs = {}
    for workers in (2, 1):
        counting._q_psi.cache_clear()
        schmidt_experiment(PSI_CUBE, 700, 3, seed=1)  # another entry first
        runs[workers] = schmidt_experiment(PSI_QUARTER, 2500, 9, seed=3,
                                           workers=workers).records
    assert runs[2] == runs[1]
    assert all(r.count == count_R_float(r.x, 2500, PSI_QUARTER)
               for r in runs[1])


# -- schmidt_prediction ----------------------------------------------------

def test_prediction_closed_form():
    # 2 * sum q * 1/(4q) = N/2
    p = schmidt_prediction(PSI_QUARTER, 10 ** 5)
    assert p.value == pytest.approx(50000.0)
    assert p.condition_ok and p.first_violation is None


def test_prediction_condition_violation():
    p = schmidt_prediction(fn.approximating(1, -1), 100)   # 2 q psi = 2
    assert not p.condition_ok
    assert p.first_violation == 1
    assert p.value == pytest.approx(200.0)


def test_prediction_cube_violates_only_at_one():
    p = schmidt_prediction(PSI_CUBE, 100)    # 2 q^-2 >= 1 only at q = 1
    assert not p.condition_ok
    assert p.first_violation == 1


# -- schmidt_experiment ------------------------------------------------------

def test_experiment_empty():
    s = schmidt_experiment(PSI_QUARTER, 100, 0, seed=1)
    assert s.records == ()
    assert math.isnan(s.mean_ratio) and math.isnan(s.stddev)


def test_experiment_mean_near_one():
    s = schmidt_experiment(PSI_QUARTER, 10 ** 4, 50, seed=20240817)
    assert 0.95 <= s.mean_ratio <= 1.05
    assert s.stddev < 0.05
    assert s.prediction.condition_ok
    assert all(isinstance(r, CountRecord) and 0 <= r.count <= r.N
               for r in s.records)


def test_experiment_reproducible_and_splittable(monkeypatch):
    monkeypatch.setattr(counting, "_POOL_MIN_WORK", 1)
    s1 = schmidt_experiment(PSI_QUARTER, 1000, 12, seed=99)
    s2 = schmidt_experiment(PSI_QUARTER, 1000, 12, seed=99)
    assert s1.records == s2.records
    # the process pool reproduces the serial run record for record
    pooled = schmidt_experiment(PSI_QUARTER, 1000, 12, seed=99, workers=2)
    assert pooled.records == s1.records
    # stream i is addressable without generating streams 0..i-1
    for i in (11, 3, 7):
        assert s1.records[i].x == sample_x(99, i)


def test_experiment_pool_bounded_by_samples_and_cpus(monkeypatch):
    # a stub pool records its size and maps serially, so no process
    # starts whatever the request
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # the pool class is imported from concurrent.futures when a run needs it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 3)
    # a pool from 400 sample-denominators: 5 x 100 and 4 x 100 get one
    # process per CPU, and 3 x 100 runs serially
    monkeypatch.setattr(counting, "_POOL_MIN_WORK", 400)
    serial = schmidt_experiment(PSI_QUARTER, 100, 5, seed=4)
    huge = schmidt_experiment(PSI_QUARTER, 100, 5, seed=4, workers=10 ** 6)
    edge = schmidt_experiment(PSI_QUARTER, 100, 4, seed=4, workers=10 ** 6)
    small = schmidt_experiment(PSI_QUARTER, 100, 3, seed=4, workers=10 ** 6)
    assert sizes == [3, 3]
    monkeypatch.setattr(counting, "_POOL_MIN_WORK", 1)
    two = schmidt_experiment(PSI_QUARTER, 100, 2, seed=4, workers=10 ** 6)
    assert sizes == [3, 3, 2]
    assert huge.records == serial.records
    assert edge.records == serial.records[:4]
    assert small.records == serial.records[:3]
    assert two.records == serial.records[:2]
    for bad in (0, -1, -10 ** 30):
        with pytest.raises(UsageError):
            schmidt_experiment(PSI_QUARTER, 100, 5, seed=4, workers=bad)
    assert sizes == [3, 3, 2]


def test_experiment_seed_matters():
    xs1 = [r.x for r in schmidt_experiment(PSI_QUARTER, 100, 5, seed=1).records]
    xs2 = [r.x for r in schmidt_experiment(PSI_QUARTER, 100, 5, seed=2).records]
    assert xs1 != xs2


def test_experiment_saturates_in_convergent_regime():
    # q^-3 sits outside the divergence hypothesis: the prediction is a
    # bounded series and the counts stop growing, so the flag must trip
    # and ratios stay put as N grows a hundredfold.
    s_small = schmidt_experiment(PSI_CUBE, 10 ** 3, 30, seed=5)
    s_big = schmidt_experiment(PSI_CUBE, 10 ** 5, 30, seed=5)
    assert not s_small.prediction.condition_ok
    assert not s_big.prediction.condition_ok
    assert abs(s_big.mean_ratio - s_small.mean_ratio) < 0.2
    assert s_big.records[0].prediction < 2 * math.pi ** 2 / 6 + 0.1


def test_experiment_rejects_negative_samples():
    with pytest.raises(UsageError):
        schmidt_experiment(PSI_QUARTER, 100, -1, seed=0)
