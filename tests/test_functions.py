"""Tests for the symbolic function family.

Expected values for the convergence verdicts come from the integral
test worked by hand on the closed family (the (-1,-1,-1) boundary
rule); numeric evaluation is cross-checked against mpmath at 50 digits,
and the scalar float evaluation in `oracles` witnesses the exact
regularity, G and H^f(W) verdicts.
"""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from limsuplab import functions as F
from limsuplab.errors import CompositionError, DomainError, UsageError
from oracles import (classify_exponents, evaluate, evaluate_log, g_samples,
                     refined_log_gauge_verdict, regularity_ratios)

mpmath.mp.dps = 50


def mp_eval(form, r):
    """Independent high-precision evaluation oracle."""
    r = mpmath.mpf(r)
    if form.family is F.Family.EXP_POWER:
        return mpmath.exp(-(r ** mpmath.mpf(str(form.omega))))
    x = mpmath.log(r) if form.regime is F.Regime.LARGE else mpmath.log(1 / r)
    out = mpmath.mpf(form.scale.numerator) / form.scale.denominator
    out *= r ** (mpmath.mpf(form.power.numerator) / form.power.denominator)
    if form.log_power:
        out *= x ** (mpmath.mpf(form.log_power.numerator)
                     / form.log_power.denominator)
    if form.loglog_power:
        out *= mpmath.log(x) ** (mpmath.mpf(form.loglog_power.numerator)
                                 / form.loglog_power.denominator)
    return out


class TestEvaluate:
    def test_pure_power_at_e(self):
        psi = F.approximating(power=-2, log_power=-2)
        assert evaluate(psi, math.e) == pytest.approx(math.e ** -2)

    def test_against_mpmath_oracle(self):
        rng = random.Random(20240817)
        for _ in range(200):
            a = Fraction(rng.randint(-40, -1), rng.randint(1, 8))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            form = F.power_log(s, a, b, c)
            r = rng.uniform(3.0, 1e6)
            got = evaluate(form, r)
            want = float(mp_eval(form, r))
            assert got == pytest.approx(want, rel=1e-12)

    def test_small_regime_against_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            a = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            b = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            if a == 0 and b >= 0:
                continue
            form = F.power_log(1, a, b, regime=F.Regime.SMALL)
            r = rng.uniform(1e-9, 0.3)
            assert evaluate(form, r) == pytest.approx(
                float(mp_eval(form, r)), rel=1e-12)

    def test_exp_power(self):
        form = F.exp_power(Fraction(1, 2))
        assert evaluate(form, 0) == 1.0
        assert evaluate(form, 16.0) == pytest.approx(math.exp(-4.0))

    def test_evaluate_log_matches(self):
        form = F.approximating(Fraction(1, 4), -3, -2, 1)
        for r in (10.0, 1e4, 1e100):
            assert evaluate_log(form, r) == pytest.approx(
                math.log(evaluate(form, r)) if r < 1e50 else
                float(mpmath.log(mp_eval(form, r))), rel=1e-10)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            evaluate(F.power_log(1, -1, -1), 1.0)     # log r = 0
        with pytest.raises(DomainError):
            evaluate(F.power_log(1, -1, 0, -1), 2.0)  # loglog r < 0
        with pytest.raises(DomainError):
            evaluate(F.dimension_gauge(power=1, log_power=1), 1.5)
        # boundary examples that must work
        assert evaluate(F.power_log(1, -2, -2), math.e) \
            == pytest.approx(math.e ** -2)

    def test_domain_threshold_values(self):
        assert F.power_log(1, -1).domain_threshold == 0
        assert F.power_log(1, -1, -1).domain_threshold == 1
        assert F.power_log(1, -1, 0, -1).domain_threshold == math.e
        assert F.dimension_gauge(1, 0, -1, -1).domain_threshold \
            == pytest.approx(1 / math.e)

    def test_rational_evaluation(self):
        psi = F.approximating(power=-3)
        assert F.evaluate_rational(psi, 7) == Fraction(1, 343)
        rho = F.approximating(scale=6, power=-2)
        assert F.evaluate_rational(rho, 36) == Fraction(6, 1296)
        with pytest.raises(UsageError):
            F.evaluate_rational(F.approximating(power=-2, log_power=-1), 5)

    def test_floats_refused_as_exponents(self):
        with pytest.raises(UsageError):
            F.power_log(1, -2.5)


class TestConstructors:
    def test_approximating_must_decay(self):
        with pytest.raises(UsageError):
            F.approximating(power=1)
        with pytest.raises(UsageError):
            F.approximating(power=0, log_power=1)
        F.approximating(power=0, log_power=0, loglog_power=-1)  # fine

    def test_gauge_must_vanish(self):
        with pytest.raises(UsageError):
            F.dimension_gauge(power=0, log_power=2)
        g = F.dimension_gauge(power=Fraction(2, 3), log_power=5)
        assert g.is_gauge()
        g2 = F.dimension_gauge(log_power=-1)
        assert g2.is_gauge()

    def test_exp_power_validation(self):
        with pytest.raises(UsageError):
            F.exp_power(0)
        with pytest.raises(UsageError):
            F.exp_power(-1)


VERDICT_TABLE = [
    # (A, B, C) of the reduced summand -> convergent?
    ((-2, 0, 0), True),
    ((-1, -2, 0), True),
    ((-1, -1, -2), True),
    ((-1, -1, -1), False),
    ((-1, -1, 0), False),
    ((-1, 0, 0), False),
    ((-1, 5, -9), False),
    ((0, -5, -5), False),
    ((1, 2, 3), False),
    ((Fraction(-101, 100), 9, 9), True),
    ((Fraction(-99, 100), -9, -9), False),
]


def package_verdict(A, B, C):
    """series_classify on the bare summand r^A (log r)^B (loglog r)^C."""
    series = F.SeriesSpec(A, F.power_log(1, 0, B, C))
    return F.series_classify(series).verdict


def partial_sum_trend(A, B, C, r_hi):
    """Numeric probe: partial sums at r_hi and 4*r_hi (floats).

    Used only on comfortably non-boundary cases where the trend is
    visible at modest ranges.
    """
    def block(lo, hi):
        tot = 0.0
        r = lo
        while r < hi:
            tot += r ** A * math.log(r) ** B * math.log(math.log(r)) ** C
            r += 1
        return tot

    first = block(3, r_hi)
    second = block(r_hi, 4 * r_hi)
    return first, second


class TestSeriesClassify:
    @pytest.mark.parametrize("triple,conv", VERDICT_TABLE)
    def test_boundary_rule(self, triple, conv):
        want = F.Verdict.CONVERGENT if conv else F.Verdict.DIVERGENT
        assert classify_exponents(*triple) is want
        assert package_verdict(*triple) is want

    def test_numeric_trend_agrees_on_clear_cases(self):
        # convergent: increments die; divergent: second block comparable
        a, b = partial_sum_trend(-2.0, 0.0, 0.0, 2000)
        assert b < 0.01 * a
        a, b = partial_sum_trend(-1.0, 0.0, 0.0, 2000)
        assert b > 0.15 * a

    def test_weighted_sum_of_power(self):
        s = F.SeriesSpec(Fraction(1), F.approximating(power=-3))
        out = F.series_classify(s)
        assert out.convergent
        assert out.reduced.A == -2
        s = F.SeriesSpec(Fraction(1), F.approximating(power=-2))
        assert not F.series_classify(s).convergent

    def test_borderline_log_weight(self):
        # sum r * r^-2 (log r)^b: flips at b = -1
        for b, conv in [(-2, True), (-1, False), (0, False)]:
            s = F.SeriesSpec(Fraction(1),
                             F.approximating(power=-2, log_power=b))
            assert F.series_classify(s).convergent is conv

    def test_scale_discrimination_pair(self):
        # psi_i = r^-tau (log r)^(-tau(1+eps_i)/2) against the gauge
        # r^(2/tau) (log 1/r)^(eps_1): reduced exponents (-1, eps_1-1-eps_i)
        tau = Fraction(3)
        eps1, eps2 = Fraction(1, 10), Fraction(1, 5)
        gauge = F.dimension_gauge(power=2 / tau, log_power=eps1)
        verdicts = []
        for eps in (eps1, eps2):
            psi = F.approximating(power=-tau,
                                  log_power=-tau * (1 + eps) / 2)
            out = F.series_classify(F.SeriesSpec(Fraction(1), psi, gauge))
            assert out.reduced.A == -1
            assert out.reduced.B == eps1 - 1 - eps
            verdicts.append(out.verdict)
        assert verdicts == [F.Verdict.DIVERGENT, F.Verdict.CONVERGENT]

    def test_gauge_of_exponential_is_exact(self):
        # gauge (log 1/r)^-2 of exp(-r): summand r^u * r^-2
        gauge = F.dimension_gauge(log_power=-2)
        s = F.SeriesSpec(Fraction(0), F.exp_power(1), gauge)
        red = F.reduce_series(s)
        assert (red.A, red.B, red.C) == (-2, 0, 0)
        assert red.exp_coeff == 0
        assert F.series_classify(s).convergent

    def test_exponential_dominates(self):
        s = F.SeriesSpec(Fraction(50), F.exp_power(Fraction(1, 3)))
        out = F.series_classify(s)
        assert out.convergent
        assert out.reduced.exp_coeff == 1

    def test_composition_leaving_family_rejected(self):
        # log(1/psi) ~ loglog r already; loglog(1/psi) would need a
        # third-level log
        psi = F.approximating(power=0, log_power=-2)
        gauge = F.dimension_gauge(power=1, loglog_power=-1)
        with pytest.raises(CompositionError):
            F.series_classify(F.SeriesSpec(Fraction(1), psi, gauge))

    def test_monotonicity_in_exponents(self):
        # raising any reduced exponent never flips divergent->convergent
        rng = random.Random(99)
        for _ in range(300):
            A = Fraction(rng.randint(-12, 4), rng.randint(1, 6))
            B = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            C = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            dA = Fraction(rng.randint(0, 6), rng.randint(1, 6))
            dB = Fraction(rng.randint(0, 6), rng.randint(1, 6))
            dC = Fraction(rng.randint(0, 6), rng.randint(1, 6))
            small = classify_exponents(A, B, C)
            big = classify_exponents(A + dA, B + dB, C + dC)
            assert package_verdict(A, B, C) is small
            if small is F.Verdict.DIVERGENT:
                assert big is F.Verdict.DIVERGENT


class TestCriticalExponent:
    @pytest.mark.parametrize("tau,want", [
        (Fraction(3), Fraction(2, 3)),
        (Fraction(5, 2), Fraction(4, 5)),
        (Fraction(10), Fraction(1, 5)),
    ])
    def test_planar_rational_targets(self, tau, want):
        psi = F.approximating(power=-tau)
        assert F.critical_exponent(psi, 1) == want

    def test_log_factors_do_not_move_it(self):
        tau = Fraction(3)
        for b in (Fraction(-2), Fraction(0), Fraction(2)):
            psi = F.power_log(1, -tau, b)
            assert F.critical_exponent(psi, 1) == Fraction(2, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_weight_n_minus_one(self, n):
        tau = Fraction(7, 2)
        psi = F.approximating(power=-tau)
        assert F.critical_exponent(psi, n - 1) == Fraction(n) / tau

    def test_exponential_target(self):
        assert F.critical_exponent(F.exp_power(2), 5) == 0

    def test_pure_log_decay(self):
        psi = F.power_log(1, 0, -4)
        assert F.critical_exponent(psi, -1) == Fraction(1, 4)
        assert F.critical_exponent(psi, -2) == 0
        assert F.critical_exponent(psi, 0) == math.inf

    @pytest.mark.parametrize("omega,n,want", [
        (Fraction(1), 1, Fraction(1)),
        (Fraction(2), 1, Fraction(1, 2)),
        (Fraction(2), 3, Fraction(3, 2)),
        (Fraction(3, 2), 2, Fraction(4, 3)),
    ])
    def test_log_scale_critical_exponent(self, omega, n, want):
        assert F.log_critical_exponent(omega, n) == want

    def test_refined_log_gauge_flips_at_zero(self):
        for omega, n in [(Fraction(1), 1), (Fraction(2), 3)]:
            at0 = refined_log_gauge_verdict(omega, n, 0)
            assert at0.verdict is F.Verdict.DIVERGENT
            assert (at0.reduced.A, at0.reduced.B) == (-1, -1)
            up = refined_log_gauge_verdict(omega, n, Fraction(1, 2))
            assert up.verdict is F.Verdict.CONVERGENT


class TestKRegularity:
    def test_negative_power_regular(self):
        for k in (2, 6):
            for a in (Fraction(-2), Fraction(-1, 2)):
                form = F.power_log(1, a)
                assert F.is_k_regular(form, k) is True
                ratios = regularity_ratios(form, k)
                assert ratios[-1] < 1
                assert ratios[-1] == pytest.approx(float(k) ** float(a),
                                                   rel=1e-6)

    def test_pure_log_decay_not_regular(self):
        form = F.power_log(1, 0, -2)
        assert F.is_k_regular(form, 2) is False
        # ratios creep up toward 1
        ratios = regularity_ratios(form, 2)
        assert ratios[-1] > 0.9
        assert ratios[-1] > ratios[0]

    def test_exponential_regular(self):
        form = F.exp_power(Fraction(1, 4))
        assert F.is_k_regular(form, 2) is True
        assert regularity_ratios(form, 2)[-1] < 1e-6

    def test_log_corrections_do_not_change_verdict(self):
        form = F.power_log(1, -1, 3, -2)
        assert F.is_k_regular(form, 3) is True
        assert regularity_ratios(form, 3)[-1] == pytest.approx(1 / 3,
                                                               rel=0.1)


def assert_witnessed(kind, samples, limit=None):
    """The float samples of g(k^n) trend the way the exact kind says;
    a FINITE kind tends to the `limit` the test works out by hand."""
    assert len(samples) > 10
    first, last = samples[0][1], samples[-1][1]
    if kind is F.GrowthKind.FINITE:
        assert last == pytest.approx(limit, rel=1e-6)
    elif kind is F.GrowthKind.ZERO:
        assert last < first / 10
    else:
        assert last > 10 * first


class TestComputeG:
    def test_exact_critical_cancellation(self):
        # gauge r^(2/tau) of psi=r^-tau against rho=r^-2, delta=1: g == 1
        tau = Fraction(3)
        args = (F.dimension_gauge(power=2 / tau),
                F.approximating(power=-tau), F.approximating(power=-2), 1)
        kind = F.compute_G(*args)
        assert kind is F.GrowthKind.FINITE
        samples = g_samples(*args, k=6)
        assert all(g == pytest.approx(1.0, rel=1e-9) for _, g in samples)
        assert_witnessed(kind, samples, 1.0)

    def test_zero_and_infinite(self):
        tau = Fraction(3)
        psi = F.approximating(power=-tau)
        rho = F.approximating(power=-2)
        for gauge, want in [(F.dimension_gauge(power=1), F.GrowthKind.ZERO),
                            (F.dimension_gauge(power=Fraction(1, 2)),
                             F.GrowthKind.INFINITE)]:
            kind = F.compute_G(gauge, psi, rho, 1)
            assert kind is want
            assert_witnessed(kind, g_samples(gauge, psi, rho, 1, k=2))

    def test_log_tilt_decides(self):
        # A cancels exactly; the verdict moves to the log slot
        tau = Fraction(2)
        rho = F.approximating(power=-2)
        gauge = F.dimension_gauge(power=1)
        for b, want in [(Fraction(-1), F.GrowthKind.ZERO),
                        (Fraction(1), F.GrowthKind.INFINITE)]:
            psi = F.power_log(1, -tau, b)
            kind = F.compute_G(gauge, psi, rho, 1)
            assert kind is want
            assert_witnessed(kind, g_samples(gauge, psi, rho, 1, k=2))

    def test_exponential_psi_is_zero(self):
        # f(exp(-r)) = exp(-r/2) beats every power of r
        gauge = F.dimension_gauge(power=Fraction(1, 2))
        psi, rho = F.exp_power(1), F.approximating(power=-2)
        kind = F.compute_G(gauge, psi, rho, 1)
        assert kind is F.GrowthKind.ZERO
        assert_witnessed(kind, g_samples(gauge, psi, rho, 1, k=2))

    def test_finite_scale_tracks_constants(self):
        # psi = 4 r^-2, rho = r^-2, delta 1, identity gauge: g -> 4
        psi = F.approximating(scale=4, power=-2)
        rho = F.approximating(power=-2)
        kind = F.compute_G(None, psi, rho, 1)
        assert kind is F.GrowthKind.FINITE
        assert_witnessed(kind, g_samples(None, psi, rho, 1, k=2), 4.0)


def hausdorff(psi, gauge, weight=1):
    return F.hausdorff_case(F.parse_function(psi),
                            F.parse_function(gauge, F.Regime.SMALL), weight)


class TestHausdorffCase:
    @pytest.mark.parametrize("tau", [Fraction(5, 2), Fraction(3), Fraction(4)])
    def test_jarnik(self, tau):
        # f = r^s against psi = r^-tau: H^s(W) = infinity up to and at
        # s = 2/tau, the critical exponent, and 0 above it
        psi = F.approximating(power=-tau)
        crit = F.critical_exponent(psi, 1)
        assert crit == 2 / tau
        for s, want in [(crit / 2, math.inf), (crit, math.inf),
                        (crit + Fraction(1, 10), 0)]:
            case = F.hausdorff_case(psi, F.dimension_gauge(power=s), 1)
            assert case.measure == want
            assert case.series.convergent is (want == 0)

    @pytest.mark.parametrize("psi,gauge,kind,measure", [
        # Dirichlet: W = [0, 1], so H^1(W) = 1 and H^2(W) = 0
        ("r^-2", "r^1", F.GrowthKind.FINITE, 1),
        ("r^-1", "r^2", F.GrowthKind.FINITE, 0),
        ("r^-2", "2 * r^1", F.GrowthKind.FINITE, 2),
        ("r^-3", "r^(1/2)", F.GrowthKind.INFINITE, math.inf),
        # a = 1: the log slot of f(r)/r decides
        ("r^-2", "r^1 * log(1/r)^1", F.GrowthKind.INFINITE, math.inf),
        ("r^-2", "r^1 * log(1/r)^-1", F.GrowthKind.ZERO, 0),
        # the cli-mix job classify-gauge
        ("r^-3 * log(r)^(-33/20)", "r^(2/3) * log(1/r)^(1/10)",
         F.GrowthKind.ZERO, math.inf),
        # G = 0 with f(r)/r bounded: Khintchine gives full measure
        ("r^-2 * log(r)^-1", "r^1", F.GrowthKind.ZERO, 1),
        ("r^(-3/2)", "r^(4/3) * log(1/r)^-1", F.GrowthKind.ZERO, 0),
    ])
    def test_divergence_case(self, psi, gauge, kind, measure):
        case = hausdorff(psi, gauge)
        assert not case.series.convergent
        assert case.G is kind
        assert case.measure == measure
        assert case.measure == math.inf or isinstance(case.measure, Fraction)

    def test_convergence_case(self):
        case = hausdorff("r^-3 * log(r)^(-9/5)", "r^(2/3) * log(1/r)^(1/10)")
        assert case.series.convergent
        assert (case.G, case.measure) == (None, 0)

    @pytest.mark.parametrize("weight,convergent", [(2, False), (-2, True)])
    def test_weight_other_than_one_makes_no_claim(self, weight, convergent):
        case = hausdorff("r^-3", "r^(1/2)", weight)
        assert case.series.convergent is convergent
        assert (case.G, case.measure) == (None, None)
        assert case.why == "weight %d is not 1" % weight

    def test_psi_not_k_regular_makes_no_claim(self):
        case = hausdorff("log(r)^-2", "r^(1/2)")
        assert not F.is_k_regular(F.parse_function("log(r)^-2"), 2)
        assert not case.series.convergent
        assert (case.G, case.measure) == (None, None)
        assert case.why == "psi is not k-regular"


class TestGrammar:
    CASES = [
        "r^-2",
        "1/4 * r^-1",
        "r^(2/3) * log(r)^-2",
        "2 * r^-3 * log(r)^(1/2) * loglog(r)^-1",
        "exp(-r^2)",
        "exp(-r^(1/2))",
        "log(1/r)^-1",
        "r^(3/2) * log(1/r)^(1/10)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        form = F.parse_function(text)
        again = F.parse_function(F.format_function(form))
        assert again == form

    def test_decimal_scale_exact(self):
        form = F.parse_function("0.25 * r^-1")
        assert form.scale == Fraction(1, 4)

    def test_small_regime_spellings(self):
        form = F.parse_function("log(1/r)^-2")
        assert form.regime is F.Regime.SMALL
        assert form.log_power == -2

    def test_random_round_trip(self):
        rng = random.Random(4242)
        for _ in range(100):
            form = F.power_log(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                rng.choice([F.Regime.LARGE, F.Regime.SMALL]))
            assert F.parse_function(F.format_function(form),
                                    form.regime) == form

    def test_rejects_garbage(self):
        for bad in ["", "r^", "sin(r)", "log()^2", "r^2 * * r",
                    "log(r)^-1 * loglog(1/r)^-1", "r^(1/0)",
                    "log(r)^(1/0) * r^-2", "loglog(r)^(1/0) * r^-2",
                    "exp(-r^(1/0))", "1/0 * r^-2", "r^-" + "9" * 5000,
                    "1e10000000 * r^-2", "1e1_000_000 * r^-2", "nan * r^-2"]:
            with pytest.raises(UsageError):
                F.parse_function(bad)


class TestBoundedReader:
    def test_decimals_read_exactly(self):
        assert F.read_exact("0.25", "x") == Fraction(1, 4)
        assert F.read_exact("1e999", "x") == 10 ** 999
        assert F.read_exact("-1e-999", "x") == Fraction(-1, 10 ** 999)
        for text in ["1e1000", "1e-1000", "1e1_000", "1E+0001000"]:
            with pytest.raises(UsageError, match="exponent beyond 999"):
                F.read_exact(text, "x")

    def test_library_text_goes_through_the_reader(self):
        # exact() reads text with read_exact: a huge exponent is refused
        # before 10^exponent is formed, and garbage is a usage error
        assert F.exact("3/4", "x") == Fraction(3, 4)
        started = time.monotonic()
        with pytest.raises(UsageError, match="x: cannot read '1e10000000' "
                                             r"\(decimal exponent beyond 999\)"):
            F.exact("1e10000000", "x")
        assert time.monotonic() - started < 10
        with pytest.raises(UsageError, match="x: cannot read 'abc'"):
            F.exact("abc", "x")

    def test_decimals_go_through_the_reader(self):
        # a Decimal is read by its text: exact, and under the same caps
        assert F.exact(Decimal("-0.25"), "x") == Fraction(-1, 4)
        started = time.monotonic()
        with pytest.raises(UsageError, match=r"x: cannot read '1E\+1000000' "
                                             r"\(decimal exponent beyond 999\)"):
            F.exact(Decimal("1e1000000"), "x")
        assert time.monotonic() - started < 1
        for text in ["NaN", "Infinity", "-Infinity", "sNaN"]:
            with pytest.raises(UsageError, match="x: cannot read '%s'" % text):
                F.exact(Decimal(text), "x")

    def test_print_bound_edge(self):
        top = 2 ** F.MAX_PRINT_BITS - 1
        assert F.read_exact(str(top), "x") == top
        assert F.read_exact("-1/%d" % top, "x") == Fraction(-1, top)
        with pytest.raises(UsageError, match="x has 14285 bits, past the "
                                             "14284-bit bound"):
            F.read_exact(str(top + 1), "x")

    def test_readers_are_the_errors_module_ones(self):
        # the readers live in `errors`, so the CLI and the integer layers
        # read exact input without loading this module; these are re-exports
        from limsuplab import errors
        for name in ("exact", "read_exact", "height_bits", "MAX_PRINT_BITS"):
            assert getattr(F, name) is getattr(errors, name), name

    def test_field_bound_edge(self):
        top = 2 ** F.MAX_EXACT_BITS - 1
        psi = F.approximating(power=-2)
        for text in ["r^-%d", "r^(-1/%d)", "%d * r^-1", "r^-1 * log(r)^%d",
                     "r^-1 * loglog(r)^%d", "exp(-r^%d)"]:
            F.parse_function(text % top)
            with pytest.raises(UsageError, match="3572 bits, past the "
                                                 "3571-bit bound"):
                F.parse_function(text % (top + 1))
        for weight, past in [(top, top + 1),
                             (Fraction(1, top), Fraction(1, top + 1))]:
            F.SeriesSpec(weight, psi)
            F.critical_exponent(psi, weight)
            with pytest.raises(UsageError, match="weight_power has 3572"):
                F.SeriesSpec(past, psi)
            with pytest.raises(UsageError, match="weight_power has 3572"):
                F.critical_exponent(psi, past)
        assert F.log_critical_exponent(Fraction(1, top), 1) == top
        with pytest.raises(UsageError, match="n/omega has 3572"):
            F.log_critical_exponent(Fraction(1, top), 2)

    def test_running_product_held_to_the_bound(self):
        # each factor is in bounds; the scale is refused as it passes
        F.parse_function("1e999 * r^-1")
        with pytest.raises(UsageError, match="scale of .* has 6638 bits"):
            F.parse_function("1e999 * 1e999 * 1e999 * r^-1")
        with pytest.raises(UsageError, match="power of .* has"):
            F.parse_function(" * ".join(["r^(1/%d)" % p for p in
                                         (2 ** 2000 - 1, 2 ** 2001 - 1)]))
