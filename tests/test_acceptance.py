"""Acceptance gate: one test per shipped guarantee, each at its stated
tolerance and budget, printing one PASS/FAIL line per criterion.

Everything here reuses only public package API and the geodesics
helpers that no command runs, which live in `oracles`; expected values
are either exact (rational equality, counts against independent
oracles) or carry the tolerance stated in the criterion.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

import limsuplab.counting as ct
import limsuplab.farey as fa
import limsuplab.functions as fn
import limsuplab.geodesics as geo
import limsuplab.horoballs as hb
import limsuplab.systems as sy
import limsuplab.ubiquity as ub
from oracles import (apply_word, gauss_kuzmin_probability,
                     hyperbolic_distance, sample_quotients)

SEED = 20260821


def _report(capsys, tag: str, ok: bool, detail: str) -> None:
    line = "criterion %-3s %s — %s" % (tag + ":", "PASS" if ok else "FAIL",
                                       detail)
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def test_criterion_01_ubiquity_constant(capsys):
    # k = 6, stage radius k^(1-2n) at weight k^n, i.e. rho(r) = 6 r^-2;
    # 20 seeded intervals with m(I) >= 0.1; every exact ratio >= 1/2.
    started = time.time()
    balls = ub.seeded_balls(20, Fraction(1, 10), SEED)
    assert all(2 * r >= Fraction(1, 10) for _, r in balls)
    reports = ub.estimate_kappa(sy.classical_rationals(),
                                fn.power_log(6, -2), 6, balls, range(3, 6))
    ratios = [r for rep in reports for _, r in rep.per_n]
    worst = min(ratios)
    elapsed = time.time() - started
    _report(capsys, "1", len(ratios) == 60 and worst >= Fraction(1, 2)
            and elapsed < 60,
            "min of 60 exact stage ratios = %.4f >= 0.5 (%.1fs)"
            % (float(worst), elapsed))


def test_criterion_02_khintchine_stage_dichotomy(capsys):
    started = time.time()
    # convergent regime: psi = q^-3, k = 2; the n = 16..20 stages are
    # certified by per-denominator upper bounds, so the partial-sum
    # increase is bounded above exactly.
    scan = sy.stage_measure_scan(sy.classical_rationals(),
                                 sy.per_point_stage(fn.approximating(1, -3), 2),
                                 1, 20, subset_cap=0)
    increase = float(sum(r.upper for r in scan.records if 15 < r.n <= 20))
    # divergent regime: psi = q^-2, k = 6; certified lower bounds.
    scan2 = sy.stage_measure_scan(sy.classical_rationals(),
                                  sy.per_point_stage(fn.approximating(1, -2), 6),
                                  2, 6)
    floor = min(float(r.lower) for r in scan2.records)
    elapsed = time.time() - started
    _report(capsys, "2", increase < 1e-3 and floor > 0.3 and elapsed < 120,
            "q^-3 partial-sum increase N=15->20 <= %.2e < 1e-3; "
            "q^-2 stage floor %.3f > 0.3 (%.1fs)" % (increase, floor, elapsed))


def test_criterion_03_schmidt_asymptotic(capsys):
    started = time.time()
    result = ct.schmidt_experiment(fn.approximating(Fraction(1, 4), -1),
                                   10 ** 5, 200, SEED)
    elapsed = time.time() - started
    _report(capsys, "3", 0.95 <= result.mean_ratio <= 1.05 and result.stddev < 0.05
            and elapsed < 120,
            "R(x,N)/prediction: mean %.5f in [0.95, 1.05], sd %.5f < 0.05 "
            "over 200 samples (%.1fs)"
            % (result.mean_ratio, result.stddev, elapsed))


def test_criterion_04_critical_exponents_exact(capsys):
    checks = []
    for tau in (Fraction(3), Fraction(5, 2), Fraction(10)):
        got = fn.critical_exponent(fn.power_log(1, -tau), 1)
        checks.append(got == 2 / tau)
    for n, tau in ((2, Fraction(3)), (3, Fraction(5, 2)), (4, Fraction(10))):
        got = fn.critical_exponent(fn.power_log(1, -tau), n - 1)
        checks.append(got == n / tau)
    for n, omega, want in ((1, 1, Fraction(1)), (1, 2, Fraction(1, 2)),
                           (3, 2, Fraction(3, 2))):
        checks.append(fn.log_critical_exponent(omega, n) == want)
    _report(capsys, "4", all(checks),
            "9 exact rational equalities: 2/tau, n/tau, n/omega")


def test_criterion_05_jarnik_discrimination(capsys):
    # tau = 3: psi_eps = r^-3 (log r)^(-3(1+eps)/2) against the gauge
    # f = r^(2/3) (log 1/r)^(1/10); the weighted sum reduces to
    # sum 1/(r (log r)^(1 + eps - 0.1)).
    gauge = fn.parse_function("r^(2/3) * log(1/r)^(1/10)")
    psi_01 = fn.parse_function("r^-3 * log(r)^(-33/20)")
    psi_02 = fn.parse_function("r^-3 * log(r)^(-9/5)")
    diverging = fn.series_classify(fn.SeriesSpec(Fraction(1), psi_01, gauge))
    converging = fn.series_classify(fn.SeriesSpec(Fraction(1), psi_02, gauge))
    _report(capsys, "5", diverging.verdict is fn.Verdict.DIVERGENT
            and converging.verdict is fn.Verdict.CONVERGENT,
            "eps=0.1 -> %s, eps=0.2 -> %s (symbolic)"
            % (diverging.verdict.name, converging.verdict.name))


def test_criterion_06_ford_exactness(capsys):
    started = time.time()
    rep = hb.disjointness_check(200)
    # independent oracles: point count from the totient sieve, tangency
    # count from mediant insertion (each new circle is tangent to the
    # two neighbours it splits, starting from the tangent pair 0/1, 1/1).
    phi = fa.stage_sieve(201)[2]
    points = 1 + int(phi[1:201].sum())
    elapsed = time.time() - started
    ok = (rep.overlap_pairs == 0
          and rep.points == points
          and rep.tangent_pairs == 2 * points - 3
          and rep.pairs == points * (points - 1) // 2
          and elapsed < 60)
    _report(capsys, "6", ok,
            "%d pairs at q <= 200: 0 overlaps, %d tangencies == 2N-3 "
            "(%.1fs)" % (rep.pairs, rep.tangent_pairs, elapsed))


def test_criterion_07_horoball_band(capsys):
    # lam = 1/4, R halved 11 times from 1/8: a hair over three decades.
    lam = Fraction(1, 4)
    phi = fa.stage_sieve(1024)[2]
    ratios = []
    R = Fraction(1, 8)
    for _ in range(11):
        rep = hb.band_counts((0, 1), R, Fraction(1, 2), 1, lam)[0]
        oracle = sum(int(phi[q]) for q in range(1, 1024)
                     if lam * R <= Fraction(1, 2 * q * q) < R)
        assert rep.count == oracle, (R, rep.count, oracle)
        ratios.append(float(rep.ratio))
        R /= 2
    spread = max(ratios) / min(ratios)
    _report(capsys, "7", spread <= 2,
            "count*R/m(B) in [%.4f, %.4f] (max/min %.3f <= 2), all 11 "
            "counts == totient oracle" % (min(ratios), max(ratios), spread))


def test_criterion_08_gauss_kuzmin_frequencies(capsys):
    started = time.time()
    rnd = random.Random(SEED)
    bits = 4096
    counts = {1: 0, 2: 0, 3: 0}
    total = 0
    for _ in range(10 ** 4):
        num = rnd.getrandbits(bits) or 1
        quots = geo.cf_expand(Fraction(num, 1 << bits), 1000).quotients
        total += len(quots)
        for a in quots:
            if a <= 3:
                counts[a] += 1
    worst = max(abs(counts[k] / total - gauss_kuzmin_probability(k))
                for k in (1, 2, 3))
    elapsed = time.time() - started
    _report(capsys, "8", worst < 0.01 and total >= 10 ** 7 and elapsed < 300,
            "1e4 seeded x, depth 1e3: max |empirical - law| = %.5f < 0.01 "
            "for k in {1,2,3} (%.1fs)" % (worst, elapsed))


def test_criterion_09a_golden_bounded(capsys):
    stats = [geo.loglaw_statistic([1] * 10500, 1e4),
             geo.loglaw_statistic([1] * 31300, 3e4)]
    _report(capsys, "9a", all(s <= 0.3 for s in stats),
            "golden direction statistic %.4f (T=1e4), %.4f (T=3e4), "
            "both <= 0.3" % (stats[0], stats[1]))


def test_criterion_09b_planted_quotient(capsys):
    planted = [1] * 8 + [10 ** 6] + [1] * 60
    records = geo.predicted_excursions(planted, 25.0)
    deep = [r for r in records if r.peak_pen > 10]
    diff = abs(deep[0].peak_pen - math.log(10 ** 6)) if deep else math.inf
    _report(capsys, "9b", len(deep) == 1 and diff <= geo.CF_PROXY_CONSTANT,
            "one deep excursion, |peakPen - log 1e6| = %.4f <= %.2f"
            % (diff, geo.CF_PROXY_CONSTANT))


def test_criterion_09c_random_directions_drift(capsys):
    started = time.time()
    low, high = [], []
    for i in range(100):
        quots = sample_quotients(SEED, i, 48000)
        low.append(geo.loglaw_statistic(quots, 1e3))
        high.append(geo.loglaw_statistic(quots, 1e5))
    med_low = statistics.median(low)
    med_high = statistics.median(high)
    elapsed = time.time() - started
    _report(capsys, "9c", med_high >= med_low,
            "100 directions: median statistic %.4f at T=1e5 >= %.4f at "
            "T=1e3 (%.1fs)" % (med_high, med_low, elapsed))


def test_criterion_10_geometry_oracles(capsys):
    rng = np.random.default_rng(SEED)
    dev = 0.0
    for _ in range(100):
        x = float(rng.random())
        s, t = sorted(rng.uniform(0.0, 20.0, size=2))
        d = hyperbolic_distance(geo.geodesic_point(x, s).z,
                                geo.geodesic_point(x, t).z)
        dev = max(dev, abs(d - (t - s)))
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(-30, 30), math.exp(rng.uniform(-6, 3)))
        reduced, word = geo.reduce_to_fundamental(z)
        worst = max(worst, abs(apply_word(word, z) - reduced))
    _report(capsys, "10", dev < 1e-9 and worst < 1e-12,
            "unit-speed deviation %.2e < 1e-9 (100 draws); reduction "
            "residual %.2e < 1e-12 (1000 draws)" % (dev, worst))
