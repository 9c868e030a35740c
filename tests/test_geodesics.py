"""Geodesic-side tests: certified continued fractions, the flow and the
fundamental domain, exact excursion records against hand-computed and
sampled oracles, the log-law statistic, and the two-function membership
counts of a brute-force sweep."""

import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import limsuplab.geodesics as geo
import limsuplab.functions as fn
from limsuplab.errors import (InternalInvariantError, PrecisionExhausted,
                              UsageError)
from limsuplab.geodesics import (CF_PROXY_CONSTANT, CFExpansion,
                                 ExcursionRecord,
                                 StepTooCoarseWarning, cf_expand, excursions,
                                 geodesic_point, loglaw_statistic,
                                 predicted_excursions, reduce_to_fundamental)
from oracles import (alpha_sweep, apply_word, cf_expansion, excursion_mp,
                     excursion_stream, gauss_kuzmin_probability,
                     hyperbolic_distance, quotients_value, sample_quotients,
                     state_columns, sampled_excursions,
                     euclid_quotients as oracle_euclid,
                     loglaw_statistic as oracle_loglaw)

GOLDEN = (math.sqrt(5) - 1) / 2          # [0; 1, 1, 1, ...]
LN_PHI = math.log((1 + math.sqrt(5)) / 2)


def fib_upto(n):
    out, a, b = [], 1, 1
    while a <= n:
        out.append(a)
        a, b = b, a + b
    return out


# F_300 / F_301 = [0; 1, ..., 1, 2]: all-ones quotients well past depth 120
GOLDEN_Q = Fraction(*fib_upto(10 ** 63)[299:301])


# -- continued fractions -----------------------------------------------------

def test_cf_golden_prefix_all_ones():
    cf = cf_expand(GOLDEN_Q, 120)
    assert cf.quotients == (1,) * 120
    assert not cf.terminated


def test_cf_sqrt2_prefix_all_twos():
    cf = cf_expand(Fraction(math.sqrt(2) - 1), 120)
    assert set(cf.quotients[:15]) == {2}


def test_cf_convergent_invariants():
    # coprime, Fibonacci-bounded denominators, classical error bound
    cf = cf_expand(GOLDEN_Q, 120)
    fib = fib_upto(10 ** 30)
    exact = GOLDEN_Q
    for n in range(1, len(cf.q)):
        assert math.gcd(cf.p[n], cf.q[n]) == 1
        assert cf.q[n] >= fib[n - 1]
        if n + 1 < len(cf.q):
            err = abs(exact - Fraction(cf.p[n], cf.q[n]))
            assert err < Fraction(1, cf.q[n] * cf.q[n + 1])


def test_cf_exact_rational_terminates():
    cf = cf_expand(Fraction(16, 113), 50)
    assert cf.terminated
    assert quotients_value(cf.quotients) == Fraction(16, 113)
    assert Fraction(cf.p[-1], cf.q[-1]) == Fraction(16, 113)


def test_cf_one_half():
    cf = cf_expand(Fraction(1, 2), 10)
    assert cf.quotients == (2,)
    assert (cf.p, cf.q) == ((0, 1), (1, 2))


def test_cf_depth_cuts_exact_expansion():
    full = cf_expand(Fraction(5, 8), 10)
    cut = cf_expand(Fraction(5, 8), 2)
    assert cut.quotients == full.quotients[:2]
    assert not cut.terminated


def test_cf_validation():
    with pytest.raises(UsageError):
        cf_expand(0.5, 0)
    for bad in (0.0, 1.0, -0.2, 1.5, Fraction(3, 2), Fraction(0)):
        with pytest.raises(UsageError):
            cf_expand(bad, 10)
    # a float is refused, not rounded or read as its dyadic value
    with pytest.raises(UsageError, match=r"Fraction\(x\)"):
        cf_expand(0.37, 10)


def test_quotients_value_round_trip():
    rng = np.random.default_rng(903)
    for _ in range(50):
        quots = [int(a) for a in rng.integers(1, 30, size=12)]
        if quots[-1] == 1:
            quots[-1] = 2   # canonical form: no trailing 1
        x = quotients_value(quots)
        cf = cf_expand(x, 40)
        assert list(cf.quotients) == quots


def test_quotients_value_validation():
    assert quotients_value([2]) == Fraction(1, 2)
    with pytest.raises(UsageError):
        quotients_value([])
    with pytest.raises(UsageError):
        quotients_value([3, 0, 2])
    with pytest.raises(UsageError):
        quotients_value([1.5])


BAD_ENTRY = "partial quotients must be integers >= 1, got %r"


@pytest.mark.parametrize("quots,message", [
    ([1, math.nan], BAD_ENTRY % math.nan),
    ([1, math.inf], BAD_ENTRY % math.inf),
    ([1, -math.inf], BAD_ENTRY % -math.inf),
    ([1, None], BAD_ENTRY % None),
    ([1, 2.5], BAD_ENTRY % 2.5),
    ([1, 0], BAD_ENTRY % 0),
    ([1, -3], BAD_ENTRY % -3),
    ([1, "3"], BAD_ENTRY % "3"),
    ([], "quotient sequence is empty"),
])
def test_bad_quotient_entry_is_a_usage_error(quots, message):
    # int() of NaN, inf and None raises ValueError, OverflowError and
    # TypeError: each ends as the usage error naming the entry.  At the
    # end of a 48,000-entry list, far past any horizon, it is refused too.
    long = [2] * 47_999 + quots[-1:] if quots else []
    for call in (quotients_value, lambda q: loglaw_statistic(q, 10.0),
                 lambda q: predicted_excursions(q, 10.0)):
        for q in (quots, long):
            with pytest.raises(UsageError) as err:
                call(q)
            assert str(err.value) == message


@pytest.mark.parametrize("entry", [True, np.int64(3), Fraction(3, 1),
                                   10 ** 400],
                         ids=["True", "int64", "Fraction", "10^400"])
def test_integral_quotient_entry_is_accepted(entry):
    out = geo._check_quotients((2, entry))
    assert list(out) == [2, int(entry)]
    assert all(type(a) is int for a in out)
    assert quotients_value([2, entry]) == 1 / (2 + Fraction(1, int(entry)))


@pytest.mark.parametrize("quots", [[1, 2, 10 ** 300], (3,) * 48_000],
                         ids=["list", "tuple"])
def test_int_quotients_are_read_in_place(quots):
    # a list or tuple of ints >= 1 is checked, not copied
    assert geo._check_quotients(quots) is quots
    assert geo._direction_data(quots).quots is quots


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.integers(1, 5), st.integers(1, 10 ** 300)),
                min_size=1, max_size=80))
@example([1] * 80)
@example([10 ** 300] * 64)
def test_start_float_is_the_rounded_64th_convergent(quots):
    # the intake divides p_64 by q_64 as ints; the exact value of the
    # 64-quotient prefix rounds to the same float
    assert geo._direction_data(quots).x0 == \
        float(quotients_value(quots[:64]))


def test_cf_expand_builds_no_convergents(monkeypatch):
    def refuse(quots):
        raise AssertionError("convergents built")

    monkeypatch.setattr(geo, "_convergent_arrays", refuse)
    rnd = random.Random(18)
    den = rnd.getrandbits(4096) | 1 << 4095
    x = Fraction(rnd.randrange(1, den), den)
    cf = cf_expand(x, 1000)
    want = cf_expansion(x, 1000)
    assert (cf.quotients, cf.terminated) == (want[0], want[3])
    assert len(cf.quotients) == 1000 and not cf.terminated


def test_cf_convergents_built_once_on_first_read(monkeypatch):
    calls = []
    build = geo._convergent_arrays

    def counted(quots):
        calls.append(quots)
        return build(quots)

    monkeypatch.setattr(geo, "_convergent_arrays", counted)
    cf = cf_expand(Fraction(16, 113), 50)
    assert calls == []
    p = cf.p
    q = cf.q
    assert calls == [cf.quotients]
    assert cf.p is p and cf.q is q
    assert Fraction(p[-1], q[-1]) == Fraction(16, 113)


def test_cf_expansions_compare_by_their_fields():
    rnd = random.Random(19)
    den = rnd.getrandbits(1024) | 1 << 1023
    x = Fraction(rnd.randrange(1, den), den)
    read, unread = cf_expand(x, 400), cf_expand(x, 400)
    read.q  # the cached convergents are no field
    assert read == unread and hash(read) == hash(unread)
    assert read != cf_expand(x, 399)
    assert repr(unread) == ("CFExpansion(x=%r, quotients=%r, terminated=False)"
                            % (x, unread.quotients))


# -- Gauss-Kuzmin sampling ---------------------------------------------------

def test_gk_probability_values():
    assert gauss_kuzmin_probability(1) == pytest.approx(math.log2(4 / 3))
    assert gauss_kuzmin_probability(2) == pytest.approx(math.log2(9 / 8))
    total = sum(gauss_kuzmin_probability(k) for k in range(1, 20000))
    assert total == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(UsageError):
        gauss_kuzmin_probability(0)


def test_sample_quotients_reproducible_and_split():
    a = sample_quotients(41, 7, 100)
    assert a == sample_quotients(41, 7, 100)
    assert a != sample_quotients(41, 8, 100)
    assert a != sample_quotients(42, 7, 100)
    assert all(q >= 1 for q in a)
    with pytest.raises(UsageError):
        sample_quotients(41, 7, 0)


def test_sample_quotients_frequencies():
    draws = []
    for i in range(100):
        draws.extend(sample_quotients(3, i, 1000))
    draws = np.asarray(draws)
    for k in (1, 2, 3):
        emp = float(np.mean(draws == k))
        assert abs(emp - gauss_kuzmin_probability(k)) < 0.01


# -- the flow and the fundamental domain -------------------------------------

def test_geodesic_point_base_and_vertical():
    assert geodesic_point(0.3, 0.0).z == pytest.approx(1j)
    z = geodesic_point(0.0, 3.0).z
    assert z == pytest.approx(1j * math.exp(-3.0))


def test_geodesic_point_unit_speed():
    rng = np.random.default_rng(555)
    for _ in range(100):
        x = float(rng.random())
        s, t = sorted(rng.uniform(0.0, 20.0, size=2))
        d = hyperbolic_distance(geodesic_point(x, s).z, geodesic_point(x, t).z)
        assert abs(d - (t - s)) < 1e-9


def test_geodesic_point_validation():
    with pytest.raises(UsageError):
        geodesic_point(0.3, -1.0)
    with pytest.raises(UsageError):
        geodesic_point(math.inf, 1.0)


def test_hyperbolic_distance_vertical():
    assert hyperbolic_distance(1j, 1j * math.e) == pytest.approx(1.0)
    assert hyperbolic_distance(2j, 2j) == 0.0
    with pytest.raises(UsageError):
        hyperbolic_distance(1j, 1 - 1j)


def test_reduce_examples():
    w, word = reduce_to_fundamental(1j)
    assert w == 1j and word == ((1, 0), (0, 1))
    w, word = reduce_to_fundamental(5 + 1j)
    assert w == pytest.approx(1j) and word == ((1, -5), (0, 1))
    w, word = reduce_to_fundamental(0.5j)
    assert w == pytest.approx(2j)
    assert word == ((0, -1), (1, 0))


def test_reduce_residual_det_membership():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        z = complex(rng.uniform(-30, 30), math.exp(rng.uniform(-6, 3)))
        w, word = reduce_to_fundamental(z)
        (a, b), (c, d) = word
        assert a * d - b * c == 1
        assert abs(apply_word(word, z) - w) < 1e-12
        assert abs(w.real) <= 0.5 + 1e-9
        assert abs(w) >= 1.0 - 1e-9


def test_reduce_idempotent():
    rng = np.random.default_rng(78)
    for _ in range(50):
        z = complex(rng.uniform(-5, 5), math.exp(rng.uniform(-4, 2)))
        w, _ = reduce_to_fundamental(z)
        w2, word2 = reduce_to_fundamental(w)
        assert w2 == w and word2 == ((1, 0), (0, 1))
    with pytest.raises(UsageError):
        reduce_to_fundamental(1 - 2j)


# -- exact excursion records --------------------------------------------------

def test_excursion_one_fifth_hand_case():
    # x = 1/5: one excursion through the cusp ball of 0/1; alpha_1 = 5,
    # xi_0 = 1/5, so the peak height is 2.6 and the times come out in
    # closed form: t_peak = log 5, t_exit = 2 log 5, t_enter = 0.
    recs = predicted_excursions(Fraction(1, 5), 10.0)
    assert len(recs) == 1
    r = recs[0]
    assert r.convergent_index == 0
    assert r.t_enter == 0.0
    assert r.peak_pen == pytest.approx(math.log(2.6), abs=1e-12)
    assert r.t_peak == pytest.approx(math.log(5), abs=1e-9)
    assert r.t_exit == pytest.approx(2 * math.log(5), abs=1e-9)


def test_excursion_golden_tangency_chain():
    # constant quotients ride the chain of mutually tangent cusp balls:
    # every peak is log(sqrt(5)/2), peaks are 2 log(phi) apart, and each
    # exit coincides with the next entry
    recs = predicted_excursions([1] * 120, 60.0)
    assert len(recs) == 62
    pen = math.log(math.sqrt(5) / 2)
    for r in recs:
        assert r.peak_pen == pytest.approx(pen, abs=1e-9)
    for a, b in zip(recs, recs[1:]):
        assert b.t_peak - a.t_peak == pytest.approx(2 * LN_PHI, abs=1e-9)
        assert b.t_enter == pytest.approx(a.t_exit, abs=1e-9)
    assert recs[0].t_peak == pytest.approx(LN_PHI, abs=1e-9)


def test_excursion_generic_rational_disjoint_windows():
    recs = predicted_excursions(Fraction(37, 100), 25.0)
    assert [r.convergent_index for r in recs] == [0, 2, 3, 5]
    for a, b in zip(recs, recs[1:]):
        assert a.t_exit <= b.t_enter + 1e-9
    assert [round(r.peak_pen, 6) for r in recs] == \
        [0.429410, 0.427520, 0.444661, 0.616066]
    # the dive into the cusp at 37/100 itself is not an excursion record
    assert all(r.convergent_index < 6 for r in recs)


def test_excursion_rational_terminal_dive_excluded():
    recs = predicted_excursions(Fraction(1, 2), 10.0)
    assert len(recs) == 1
    assert recs[0].convergent_index == 0
    assert recs[0].t_enter == 0.0


def test_excursion_planted_quotient():
    digits = [1] * 8 + [10 ** 6] + [1] * 60
    recs = predicted_excursions(digits, 60.0)
    big = [r for r in recs if r.peak_pen > 10]
    assert len(big) == 1
    r = big[0]
    assert r.convergent_index == 8
    assert abs(r.peak_pen - math.log(1e6)) <= CF_PROXY_CONSTANT
    assert r.peak_pen == pytest.approx(math.log(1e6) - math.log(2), abs=1e-3)


def test_excursion_peak_tracks_next_quotient():
    # frozen calibration: every peak is within CF_PROXY_CONSTANT of
    # log a_{n+1}
    assert CF_PROXY_CONSTANT == 0.75
    cases = [
        ([1] * 120, 60.0, [1] * 120),
        ([1] * 8 + [10 ** 6] + [1] * 60, 60.0, [1] * 8 + [10 ** 6] + [1] * 60),
        (Fraction(37, 100), 25.0, [2, 1, 2, 2, 1, 3]),
        (sample_quotients(19, 0, 200), 80.0, sample_quotients(19, 0, 200)),
        (sample_quotients(19, 1, 200), 80.0, sample_quotients(19, 1, 200)),
    ]
    for direction, horizon, quots in cases:
        recs = predicted_excursions(direction, horizon)
        assert recs
        for r in recs:
            gap = abs(r.peak_pen - math.log(quots[r.convergent_index]))
            assert gap <= CF_PROXY_CONSTANT


def test_excursion_quotient_list_too_short():
    with pytest.raises(PrecisionExhausted):
        predicted_excursions([1] * 10, 40.0)


def test_excursion_validation():
    with pytest.raises(UsageError):
        predicted_excursions(Fraction(1, 5), 0.0)
    with pytest.raises(UsageError):
        predicted_excursions(Fraction(3, 2), 5.0)
    with pytest.raises(UsageError):
        predicted_excursions([3, 0, 2], 5.0)
    with pytest.raises(UsageError):
        predicted_excursions([], 5.0)
    with pytest.raises(UsageError, match=r"Fraction\(x\)"):
        predicted_excursions(0.37, 5.0)


# -- sampled excursions vs the exact engine -----------------------------------

def test_sampled_matches_exact_engine():
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # any coarse-step warning fails
        got = excursions(0.37, 12.0, 2e-3)
    want = predicted_excursions(Fraction(0.37), 12.0)
    # the sampler may see one extra window still rising at T
    assert len(got) in (len(want), len(want) + 1)
    for a, b in zip(got, want):
        assert a.convergent_index == b.convergent_index
        assert a.t_enter == pytest.approx(b.t_enter, abs=1e-6)
        assert a.t_exit == pytest.approx(b.t_exit, abs=1e-6)
        assert a.t_peak == pytest.approx(b.t_peak, abs=1e-5)
        assert a.peak_pen == pytest.approx(b.peak_pen, abs=1e-9)
    if len(got) > len(want):
        tail = got[-1]
        assert tail.t_exit == pytest.approx(12.0, abs=1e-9)
        assert tail.t_peak > want[-1].t_exit


def test_sampled_golden_bounded_peaks():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepTooCoarseWarning)
        recs = excursions(GOLDEN, 10.0, 1e-3)
    assert recs
    top = math.log(math.sqrt(5) / 2)
    for r in recs:
        assert 0 < r.peak_pen <= top + 1e-6


def test_sampled_coarse_step_warns():
    # at step 1.0 the first golden window (0, 0.945) holds no grid point
    with pytest.warns(StepTooCoarseWarning):
        excursions(GOLDEN, 8.0, 1.0)


def test_sampled_validation():
    with pytest.raises(UsageError):
        excursions(1.2, 5.0)
    with pytest.raises(UsageError):
        excursions(0.3, -1.0)
    with pytest.raises(UsageError):
        excursions(0.3, 8.0, 2.0)     # step above T/8
    from limsuplab.errors import ResourceCapError
    with pytest.raises(ResourceCapError):
        excursions(0.3, 100.0, 1e-6)
    with pytest.raises(ResourceCapError):
        excursions(0.3, 1e308, 1e-3)  # T / step overflows to inf
    with pytest.raises(UsageError):
        excursions(0.3, math.inf)


# -- log-law statistic ---------------------------------------------------------

def test_loglaw_golden_bounded_and_horizon_free():
    # bounded quotients keep every peak at log(sqrt(5)/2); the maximum
    # locks in at the first window past t = e and never moves
    v50 = loglaw_statistic([1] * 12000, 50.0)
    v3 = loglaw_statistic([1] * 12000, 1e3)
    v4 = loglaw_statistic([1] * 12000, 1e4)
    assert v50 == pytest.approx(0.092180, abs=5e-4)
    assert v3 == pytest.approx(v50, abs=1e-12)
    assert v4 == pytest.approx(v50, abs=1e-12)
    assert v4 <= 0.3


def test_loglaw_high_alpha_negative():
    assert loglaw_statistic([1] * 100, 20.0, alpha=0.9) < 0.0


def test_loglaw_monotone_in_horizon():
    for idx in range(3):
        quots = sample_quotients(7, idx, 6000)
        small = loglaw_statistic(quots, 1e2)
        large = loglaw_statistic(quots, 1e4)
        assert large >= small


def test_loglaw_planted_spike_scores():
    # one huge quotient puts pen ~ log(1e6) at t ~ 21, so the statistic
    # clears pen/log t by a wide margin
    digits = [1] * 8 + [10 ** 6] + [1] * 60
    v = loglaw_statistic(digits, 60.0)
    assert v > 3.0


def test_loglaw_counts_excursion_in_progress_at_T():
    # the spike enters near t = 7.4 and peaks at t = 21.19 with pen
    # 13.12; at T = 20.19 the supremum is reached at T itself
    digits = [1] * 8 + [10 ** 6] + [1] * 60
    assert predicted_excursions(digits, 20.19)[-1].t_peak < 20
    assert loglaw_statistic(digits, 20.19) == pytest.approx(
        4.221873690977363, abs=1e-9)
    assert oracle_loglaw(digits, 20.19) == loglaw_statistic(digits, 20.19)


@pytest.mark.parametrize("k,m,T,alpha", [
    (11, 5, 12.0, 0.0), (13, 2000, 12.0, 0.0), (12, 777, 10.0, 0.3),
    # an excursion in progress at T wins in these
    (12, 6141, 6.7, 0.2), (14, 3072, 7.82, 0.0), (12, 551, 9.73, 0.0),
])
def test_loglaw_matches_sampled_grid_on_dyadics(k, m, T, alpha):
    # independent of the excursion formulas: pen(t) from the reduced
    # sampled geodesic on a grid over (e, T], T included.  pen is
    # 1-Lipschitz in t, so the score s(t) = (pen - alpha t)/log t has
    # |s'| <= (1 + alpha) + (P + alpha T)/e on t >= e, P the largest pen,
    # and the supremum exceeds the grid maximum by at most |s'| step.
    x = (2 * (m % 2 ** (k - 1)) + 1) / 2 ** k
    step = 1e-3
    ts = np.arange(math.e + step, T, step).tolist() + [T]
    im = geo._grid_im(x, ts)
    pen = np.where(im > 1.0, np.log(np.maximum(im, 1.0)), 0.0)
    scores = (pen - alpha * np.asarray(ts)) / np.log(ts)
    lipschitz = (1 + alpha) + (pen.max() + alpha * T) / math.e
    got = loglaw_statistic(Fraction(x), T, alpha)
    assert scores.max() <= got + 1e-9
    assert got <= max(scores.max(), -alpha * math.e) + lipschitz * step


def test_loglaw_float_direction():
    # a float is refused; its exact dyadic value is the Fraction
    x = 0.5377636563
    with pytest.raises(UsageError, match=r"Fraction\(x\)"):
        loglaw_statistic(x, 7.0)
    assert loglaw_statistic(Fraction(x), 7.0) > 0.0


def test_loglaw_validation():
    with pytest.raises(UsageError):
        loglaw_statistic([1] * 100, 2.0)
    with pytest.raises(UsageError):
        loglaw_statistic([1] * 100, 20.0, alpha=1.0)
    with pytest.raises(UsageError):
        loglaw_statistic([1] * 100, 20.0, alpha=-0.1)
    with pytest.raises(PrecisionExhausted):
        loglaw_statistic([1] * 20, 100.0)


# -- membership counts between the two approximating functions ----------------

def brute_sandwich(x, tau, eps, Q):
    """Reduced p/q, q <= Q, within psi(L) = (L log L)^-tau (hits) and
    psi_eps(L) = L^-tau (log L)^(-tau (1 + eps)) (violations), L = 2q^2."""
    x = float(x)
    hits = viol = 0
    for q in range(1, Q + 1):
        length = 2.0 * q * q
        ln_l = math.log(length)
        psi = math.exp(-tau * (ln_l + math.log(ln_l)))
        psi_e = math.exp(-tau * ln_l - tau * (1 + eps) * math.log(ln_l))
        base = math.floor(x * q)
        for p in range(base - 2, base + 3):
            if math.gcd(p, q) != 1:
                continue
            d = abs(x - p / q)
            if d < psi:
                hits += 1
            if d < psi_e:
                viol += 1
    return hits, viol


def test_sandwich_golden_tracks_convergents():
    assert brute_sandwich(GOLDEN, 1.0, 0.1, 1000) == (2, 2)
    # every hit denominator is a convergent denominator (Fibonacci)
    fib = set(fib_upto(1000))
    for q in range(1, 1001):
        length = 2.0 * q * q
        psi = math.exp(-(math.log(length) + math.log(math.log(length))))
        base = math.floor(GOLDEN * q)
        for p in range(base - 1, base + 2):
            if math.gcd(p, q) == 1 and abs(GOLDEN - p / q) < psi:
                assert q in fib


def test_sandwich_epsilon_monotone():
    counts = [brute_sandwich(0.2, 3.0, eps, 300) for eps in (0.1, 0.3, 0.5)]
    assert len({hits for hits, _ in counts}) == 1
    assert counts[0][1] >= counts[1][1] >= counts[2][1]


def test_sandwich_rational_saturates():
    small = brute_sandwich(Fraction(1, 3), 2.0, 0.1, 50)
    large = brute_sandwich(Fraction(1, 3), 2.0, 0.1, 500)
    assert small == large


# -- the fast engine against the scalar oracles --------------------------------

def _records(recs):
    return [(r.convergent_index, r.t_enter, r.t_peak, r.t_exit, r.peak_pen)
            for r in recs]


def _outcome(fn, *args):
    """The value of fn(*args), or the PrecisionExhausted message."""
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return "PrecisionExhausted: %s" % exc


# a float entry stands for its exact dyadic value Fraction(x)
ORACLE_DIRECTIONS = [
    (sample_quotients(5, 0, 3000), (1e2, 1e3)),
    (sample_quotients(5, 1, 3000), (1e2, 1e3)),
    ([1] * 3000, (50.0, 1e3)),
    ([1] * 8 + [10 ** 6] + [1] * 60, (20.19, 30.0, 60.0)),
    (Fraction(37, 100), (5.0, 25.0)),
    (Fraction(1, 5), (10.0,)),
    (Fraction(GOLDEN), (20.0, 60.0)),
    (quotients_value(sample_quotients(6, 0, 400)), (100.0, 400.0)),
    (0.5377636563, (7.0, 8.0)),
    (GOLDEN, (20.0,)),
    (0.37, (5.0, 12.0)),
]


def test_cf_expand_matches_oracle():
    rnd = random.Random(1201)
    xs = []
    for bits in (64, 300, 1024, 4096):
        for _ in range(10):
            den = rnd.getrandbits(bits) | 1 << (bits - 1)
            xs.append(Fraction(rnd.randrange(1, den), den))
    xs += [Fraction(16, 113), Fraction(1, 2), Fraction(5, 8)]
    for x in xs:
        for depth in (1, 7, 400):
            got = cf_expand(x, depth)
            assert (got.quotients, got.p, got.q, got.terminated) == \
                cf_expansion(x, depth)


# -- chunked Euclid against the plain divmod loop -----------------------------

SPIKES = (2, 3, 2 ** 60, 2 ** 90, 2 ** 95, 2 ** 96, 2 ** 97, 2 ** 192,
          2 ** 200, 10 ** 60, 10 ** 200)


@st.composite
def exact_directions(draw):
    """x in (0, 1) of every shape the kernel treats apart: pairs of 1 to
    MAX_PRINT_BITS bits, dyadics as in criterion 8, pairs sharing their
    leading bits, runs of 1s broken by spikes up to 10^200, and pairs
    shorter than the chunk's leading bits."""
    kind = draw(st.sampled_from(["pair", "dyadic", "shared", "spiky",
                                 "short"]))
    if kind == "spiky":
        runs = draw(st.lists(st.tuples(st.integers(0, 400),
                                       st.sampled_from(SPIKES)),
                             min_size=1, max_size=12))
        quots = [a for n, spike in runs for a in [1] * n + [spike]]
        # quotients_value(quots) as P_k/Q_k, without its k Fraction steps
        _, _, p, q = _last_convergents(quots)
        return Fraction(p, q)
    bits = draw(st.integers(1, geo._LEAD_BITS) if kind == "short" else
                st.one_of(st.integers(1, geo._CHUNK_MIN_BITS),
                          st.integers(geo._CHUNK_MIN_BITS,
                                      fn.MAX_PRINT_BITS)))
    # hypothesis draws big integers near their bounds; a seeded stream
    # gives the typical pairs that run in chunks
    rnd = random.Random(draw(st.integers(0, 1 << 64)))
    if kind == "dyadic":
        return Fraction(rnd.getrandbits(bits) or 1, 1 << bits)
    den = max(2, rnd.getrandbits(bits) | 1 << (bits - 1))
    if kind == "shared":
        close = rnd.randrange(1, max(2, 1 << den.bit_length() // 2))
        return Fraction(den - min(close, den - 1), den)
    return Fraction(rnd.randrange(1, den), den)


def _last_convergents(quots):
    """(P_{k-1}, Q_{k-1}, P_k, Q_k) of the quotient list b_1..b_k."""
    p0, q0, p1, q1 = 1, 0, 0, 1
    for b in quots:
        p0, q0, p1, q1 = p1, q1, b * p1 + p0, b * q1 + q0
    return p0, q0, p1, q1


def _chunk_edges(x):
    """Depths at which a chunk of x's full expansion starts or ends."""
    index = {}
    num, den = x.numerator, x.denominator
    while num:
        index[den] = len(index)
        den, num = num, den % num
    edges = set()
    real = geo._lead_chunk

    def spy(den, num, limit):
        got = real(den, num, limit)
        if got is not None:
            edges.update((index[den], index[den] + len(got[0])))
        return got

    geo._lead_chunk = spy
    try:
        geo._euclid_quotients(x, 1 << 30)
    finally:
        geo._lead_chunk = real
    return sorted(edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(x=exact_directions(), depth=st.one_of(st.just(1 << 30),
                                             st.integers(1, 3000)),
       data=st.data())
@example(x=Fraction(1, 10 ** 300) + Fraction(1, 10 ** 600), depth=1 << 30,
         data=None)
def test_euclid_quotients_match_oracle(x, depth, data):
    assert geo._euclid_quotients(x, depth) == oracle_euclid(x, depth)
    edges = _chunk_edges(x)
    if edges and data is not None:
        edge = data.draw(st.sampled_from(edges))
        for cut in (edge - 1, edge, edge + 1):
            if cut >= 1:
                assert geo._euclid_quotients(x, cut) == oracle_euclid(x, cut)


def test_chunked_path_taken_on_long_pairs():
    # a 4096-bit dyadic runs almost wholly in chunks, and a cut inside
    # a chunk reads the same prefix
    rnd = random.Random(24)
    x = Fraction(rnd.getrandbits(4096) | 1, 1 << 4096)
    edges = _chunk_edges(x)
    assert len(edges) > 30
    full = oracle_euclid(x, 1 << 30)
    for cut in range(edges[3] - 2, edges[5] + 3):
        assert geo._euclid_quotients(x, cut) == oracle_euclid(x, cut)
    assert geo._euclid_quotients(x, 1 << 30) == full


@pytest.mark.parametrize("a", [1, 2, 7, 10 ** 30])
def test_expansion_ending_a_1_reads_a_plus_1(a):
    head = list(sample_quotients(24, 0, 1200))
    x = quotients_value(head + [a, 1])
    assert x == quotients_value(head + [a + 1])
    assert x.denominator.bit_length() > geo._CHUNK_MIN_BITS
    assert geo._euclid_quotients(x, 1 << 30) == (head + [a + 1], True)
    assert geo._euclid_quotients(x, len(head) + 1) == (head + [a + 1], True)


@pytest.mark.parametrize("a", [2 ** 95, 2 ** 96 - 1, 2 ** 96, 2 ** 97,
                               2 ** 192, 2 ** 192 + 1, 2 ** 200, 10 ** 100])
def test_first_quotient_past_the_leading_bits(a):
    tail = list(sample_quotients(24, 1, 800)) + [2]
    x = quotients_value([a] + tail)
    assert geo._euclid_quotients(x, 1 << 30) == ([a] + tail, True)
    assert geo._euclid_quotients(x, 1) == ([a], False)


def test_two_quotients_of_300_digits():
    x = Fraction(1, 10 ** 300) + Fraction(1, 10 ** 600)
    cf = cf_expand(x, 10)
    assert cf.quotients == (10 ** 300 - 1, 10 ** 300 + 1)
    assert cf.terminated


def _certify(x, quots):
    return geo._certified_state(x.denominator, x.numerator, len(quots),
                                quots[-1], *_last_convergents(quots))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(den=st.integers(3, 1 << 600), data=st.data())
def test_certified_state_accepts_only_euclids_prefix(den, data):
    x = Fraction(data.draw(st.integers(1, den - 1)), den)
    full, _ = oracle_euclid(x, 1 << 30)
    k = data.draw(st.integers(1, len(full)))
    prefix = full[:k]
    num, d = x.numerator, x.denominator
    for a in prefix:
        d, num = num, d % num
    assert _certify(x, prefix) == (d, num)
    # the last quotient one too large (s_k < 0), one too small (s_k >=
    # s_{k-1}), or an earlier one moved: each is refused
    j = data.draw(st.integers(0, k - 1))
    delta = data.draw(st.sampled_from([-1, 1]))
    if prefix[j] + delta >= 1:
        wrong = prefix[:j] + [prefix[j] + delta] + prefix[j + 1:]
        assert _certify(x, wrong) is None
    # Euclid's last quotient is >= 2; [..., a - 1, 1] has the same value
    assert full[-1] >= 2
    assert _certify(x, full[:-1] + [full[-1] - 1, 1]) is None


@pytest.mark.parametrize("num,den,quots,ok", [
    (5, 8, [1, 1, 1, 2], True),
    (5, 8, [1, 1, 1, 1, 1], False),     # s_k = 0 and b_k = 1
    (5, 8, [1, 1, 1, 1], False),        # s_k = s_{k-1}
    (5, 8, [1, 1, 2], False),           # s_k < 0
    (5, 8, [1, 1, 1], True),
])
def test_certified_state_by_hand(num, den, quots, ok):
    assert (_certify(Fraction(num, den), quots) is not None) == ok


def test_failed_chunk_test_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(geo, "_certified_state", lambda *args: None)
    x = Fraction(random.Random(5).getrandbits(4096) | 1, 1 << 4096)
    with pytest.raises(InternalInvariantError):
        cf_expand(x, 1000)


@pytest.mark.parametrize("direction,horizons", ORACLE_DIRECTIONS)
def test_engine_matches_scalar_stream_bit_for_bit(direction, horizons):
    if isinstance(direction, float):
        direction = Fraction(direction)
    for T in horizons:
        want = _outcome(excursion_stream, direction, T)
        got = _outcome(lambda *a: _records(predicted_excursions(*a)),
                       direction, T)
        assert got == want
        if T > math.e:
            for alpha in (0.0, 0.3):
                assert _outcome(loglaw_statistic, direction, T, alpha) == \
                    _outcome(oracle_loglaw, direction, T, alpha)


@pytest.mark.parametrize("direction,T", [
    ([1] * 10, 40.0),            # certified data runs out mid-horizon
    ([1] * 20, 100.0),           # no certified index at all
    ([1] * 60 + [2], 60.0),
    (sample_quotients(8, 0, 200), 1000.0),
])
def test_precision_exhausted_at_the_oracle_index(direction, T):
    want = _outcome(excursion_stream, direction, T)
    assert isinstance(want, str) and "index" in want
    assert _outcome(predicted_excursions, direction, T) == want
    assert _outcome(loglaw_statistic, direction, T) == want


def test_entry_time_lower_bound_on_every_record():
    # t_enter >= 2 log q_n - 2.1, the bound that closes the horizon and
    # prunes the log-law search; n = 0 and 1 are in every case below
    cases = [sample_quotients(9, i, 800) for i in range(4)]
    cases += [[1] * 800, [2] * 400, [1, 1] + [50] * 80,
              [7, *sample_quotients(9, 9, 400)]]
    seen = set()
    for quots in cases:
        _, q = geo._convergent_arrays(quots)
        for r in predicted_excursions(quots, 200.0):
            n = r.convergent_index
            seen.add(n)
            assert r.t_enter >= 2.0 * math.log(q[n]) - 2.1
    assert {0, 1} <= seen


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
def test_score_caps_bound_every_excursion(alpha):
    # the state-only bound the log law ranks by must cover the exact
    # bound (log H_n - alpha lo)/log lo of every excursion window, and a
    # block threshold taken at any earlier state must pass every state
    # whose bound beats the best score: with best one step below the
    # bound, 2 H_n must lie above the threshold (the threshold grows
    # with best, so every lower best passes the state too)
    t_floor = math.nextafter(math.e, math.inf)
    cases = [(sample_quotients(9, i, 3000), 1e3) for i in range(3)]
    cases += [([1] * 3000, 1e3), ([2] * 1500, 1e3),
              ([1, 1] + [50] * 80, 400.0), ([7, 1, 3] * 300, 600.0)]
    for quots, T in cases:
        orbit = geo._orbit(geo._direction_data(quots), T)
        heights = [orbit.alpha[n + 1] + orbit.xi[n]
                   for n in range(len(orbit.L))]
        cap = {n: geo._score_cap(orbit, n, alpha)
               for n, h2 in enumerate(heights) if h2 > 2.0}
        for r in predicted_excursions(quots, T):
            lo, hi = max(r.t_enter, t_floor), min(r.t_exit, T)
            if hi > lo:
                assert cap[r.convergent_index] >= \
                    (r.peak_pen - alpha * lo) / math.log(lo)
        for start in range(0, len(heights), 23):
            for n in (n for n in cap if n >= start):
                best = math.nextafter(cap[n], -math.inf)
                assert heights[n] > geo._block_threshold(orbit, start,
                                                         alpha, best)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(runs=st.lists(st.tuples(st.integers(0, 400), st.sampled_from(
           [2, 5, 50, 10 ** 3, 10 ** 6, 10 ** 12, 10 ** 40, 10 ** 200])),
           max_size=6),
       T=st.floats(3.0, 700.0), alpha=st.sampled_from([0.0, 0.3, 0.9]))
@example([(255, 10 ** 6), (300, 50)], 600.0, 0.0)
@example([], 700.0, 0.3)
def test_loglaw_matches_oracle_on_spiky_tails(runs, T, alpha):
    # long runs of 1s (the golden direction's slow, shallow excursions)
    # between spikes, across several blocks of the ranking pass; a tail
    # of 800 1s closes every horizon drawn
    quots = [1]
    for ones, spike in runs:
        quots += [1] * ones + [spike]
    quots += [1] * 800
    assert _outcome(loglaw_statistic, quots, T, alpha) == \
        _outcome(oracle_loglaw, quots, T, alpha)


def test_acosh_one_plus_continuous_at_branch():
    below = geo._acosh_one_plus(37.0)
    above = geo._acosh_one_plus(math.nextafter(37.0, math.inf))
    assert below == pytest.approx(geo._LN2 + 37.0, abs=2e-15)
    assert 0.0 <= above - below <= 4 * math.ulp(above)
    for ln_x in (-30.0, -1.0, 0.0, 5.0, 36.9):
        assert geo._acosh_one_plus(ln_x) == pytest.approx(
            math.acosh(1.0 + math.exp(ln_x)), rel=1e-15)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 40), min_size=geo._ALPHA_TAIL + 1,
                max_size=geo._ALPHA_TAIL + 20))
@example([1] * (geo._ALPHA_TAIL + 1))
def test_alpha_tail_depth_certifies_2e_10(quots):
    # alpha_{n_cap + 1} is read off the last _ALPHA_TAIL + 1 digits; the
    # unseen tail [a_{M+1}; ...] lies in (1, inf) and alpha is monotone
    # in it, so the two ends (the list cut here, or one more digit 1)
    # bound the error whatever the unseen digits are
    j = geo._direction_data(quots).n_cap + 1
    assert j == len(quots) - geo._ALPHA_TAIL
    got = geo._alpha_head(quots, j)[j]
    assert got == alpha_sweep(quots)[j]
    assert abs(got - alpha_sweep(quots + [1])[j]) < 2e-10


@pytest.mark.parametrize("x,T,step", [
    (0.37, 12.0, 5e-4),          # two grid chunks
    (0.5377636563, 8.0, 1e-3),
    (GOLDEN, 10.0, 1e-3),
    (0.3, 720.0, 90.0),          # heights below 1e-300: scalar fallback
    (0.3, 800.0, 100.0),         # e^-800 underflows: refused
])
def test_sampled_engine_matches_scalar_loop(x, T, step):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepTooCoarseWarning)
        got = _outcome(lambda *a: _records(excursions(*a)), x, T, step)
    assert got == _outcome(sampled_excursions, x, T, step)


def test_grid_im_matches_scalar_reduction():
    rng = np.random.default_rng(1207)
    for x in (GOLDEN, 0.37, 1e-9, 1.0 - 2 ** -40, float(rng.random())):
        ts = sorted(rng.uniform(0.0, 30.0, 3000).tolist()) + [0.0, 600.0]
        got = geo._grid_im(x, ts)
        want = [reduce_to_fundamental(geodesic_point(x, t).z)[0].imag
                for t in ts]
        assert got.tolist() == want
    # heights below 1e-300 go to the scalar path (at x = 5e-324, t = 737
    # both coordinates are tiny and -1/w would overflow)
    for x, t in ((0.3, 700.0), (0.3, 800.0), (5e-324, 737.0)):
        assert geo._grid_im(x, [1.0, t]) is None


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(k=st.integers(11, 40), m=st.integers(0, 2 ** 40),
       T=st.floats(2.0, 12.0))
def test_predicted_matches_sampled_on_dyadics(k, m, T):
    # x = m/2^k is a float exactly, so both engines see the same
    # direction; with k >= 11 the final dive into x's own cusp starts
    # after 2 log 2^k - 2.1 > 12.  Each excursion peaking by T that holds
    # two grid steps, and lies two steps clear of its neighbours (also
    # of one that peaks after T), must be found by convergent with entry,
    # exit and peak within 1e-9; at T the sampler ends a window still
    # open.
    x = (2 * (m % 2 ** (k - 1)) + 1) / 2 ** k
    step = 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepTooCoarseWarning)
        got = {r.convergent_index: r for r in excursions(x, T, step)}
    want = predicted_excursions(Fraction(x), 2 * T)
    for i, r in enumerate(want):
        if r.t_peak > T:
            break
        gap_before = r.t_enter - (want[i - 1].t_exit if i else -1.0)
        gap_after = (want[i + 1].t_enter if i + 1 < len(want) else 2 * T) \
            - r.t_exit
        if min(r.t_exit, T) - r.t_enter < 2 * step or \
                min(gap_before, gap_after) < 2 * step:
            continue
        s = got[r.convergent_index]
        assert abs(s.t_enter - r.t_enter) <= 1e-9
        assert abs(s.peak_pen - r.peak_pen) <= 1e-9
        assert abs(s.t_exit - min(r.t_exit, T)) <= 1e-9


# -- refusals at the edge of float range, answers up to it --------------------

@pytest.mark.parametrize("call,index", [
    (lambda: predicted_excursions(Fraction(1, 2 ** 1100), 10.0), "a_1"),
    (lambda: excursions(5e-324, 10.0), "a_1"),
    (lambda: loglaw_statistic(Fraction(1e-310), 100.0), "a_1"),
    (lambda: loglaw_statistic([1, 10 ** 400, 1], 10.0), "a_2"),
    (lambda: loglaw_statistic([1] * 30 + [10 ** 400] + [1] * 30, 10.0),
     "a_31"),
    # a 10^160 quotient is answered (see the test below); 10^400 is not,
    # whatever the horizon or the length of the tail after it
    (lambda: predicted_excursions([1, 10 ** 400, 1], 10.0), "a_2"),
    (lambda: loglaw_statistic([1, 10 ** 400] + [1] * 400, 800.0), "a_2"),
])
def test_quotient_beyond_float_range_refused_by_index(call, index):
    with pytest.raises(PrecisionExhausted, match=r"\b%s\b" % index):
        call()


# float(a) overflows exactly from 2^1024 - 2^970: the largest float is
# 2^1024 - 2^971 and the tie half an ulp above it rounds to even, 2^1024
FLOAT_EDGE = 2 ** 1024 - 2 ** 970


@pytest.mark.parametrize("quots,message", [
    # a_2 lies above the largest float but converts to it; a_4 overflows
    ([1, int(sys.float_info.max) + 1, 1, 10 ** 400, 1],
     "partial quotient a_4 (1329 bits) is beyond float range"),
    ([1, FLOAT_EDGE - 1, 1, FLOAT_EDGE, 1] + [1] * 40,
     "partial quotient a_4 (1024 bits) is beyond float range"),
    ([1, 10 ** 400, 1], "partial quotient a_2 (1329 bits) is beyond float "
     "range"),
    (Fraction(1, FLOAT_EDGE), "partial quotient a_1 (1024 bits) is beyond "
     "float range"),
    (Fraction(1e-310), "partial quotient a_1 (1030 bits) is beyond float "
     "range"),
])
def test_first_overflowing_quotient_named(quots, message):
    for call in (lambda: loglaw_statistic(quots, 10.0),
                 lambda: predicted_excursions(quots, 10.0)):
        with pytest.raises(PrecisionExhausted) as info:
            call()
        assert str(info.value) == message


def test_quotient_below_the_float_edge_answered():
    # both spikes convert to the largest float, so they score alike (a
    # refusal of every a > int(max float) left the first unanswered);
    # toward a spike at a_1 the ray rises from t = 0 and scores T / log T
    assert float(FLOAT_EDGE - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(FLOAT_EDGE)
    for quots in ([1, int(sys.float_info.max) + 5, 1] + [1] * 40,
                  [1, FLOAT_EDGE - 1, 1] + [1] * 40):
        assert loglaw_statistic(quots, 10.0) == 4.04191482336856
        assert [r.convergent_index for r in
                predicted_excursions(quots, 800.0)] == [1]
    for direction in ([FLOAT_EDGE - 1] + [1] * 40,
                      Fraction(1, FLOAT_EDGE - 1)):
        assert loglaw_statistic(direction, 10.0) == pytest.approx(
            10.0 / math.log(10.0), rel=1e-12)


# -- the alpha horizon and the replayed state --------------------------------

@st.composite
def _quotient_lists(draw):
    kind = draw(st.sampled_from(["ones", "gk", "spiky"]))
    size = draw(st.integers(1, 400))
    if kind == "ones":                 # the slowest bracket to close
        return [1] * size
    quots = draw(st.lists(st.integers(1, 60), min_size=size,
                          max_size=size))
    if kind == "spiky":
        for i in draw(st.lists(st.integers(0, size - 1), max_size=4)):
            quots[i] = draw(st.sampled_from(
                [10 ** 6, 2 ** 53, 2 ** 53 + 1, 10 ** 40, 10 ** 300]))
    return quots


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(quots=_quotient_lists(), data=st.data(),
       margin=st.sampled_from([64, 64, 1, 2, 3, 5]))
@example(quots=[1] * 300, data=None, margin=64)
@example(quots=[1] * 300, data=None, margin=1)    # widens 1, 4, 16, 64
@example(quots=[1] * 100, data=None, margin=2)    # widens to the whole list
def test_alpha_head_equals_full_sweep(quots, data, margin):
    # the certified horizon sweep against one backward pass over the whole
    # list, at every index up to m; m within 64 of M takes the whole sweep
    # at once, and a margin below the ~38 steps an all-ones bracket needs
    # to close forces the widening
    M = len(quots)
    if data is None:
        ms = [1, M // 3, M - 65, M - 64, M - 63, M]
    else:
        ms = [data.draw(st.one_of(st.integers(1, M),
                                  st.integers(max(1, M - 70), M)))]
    want = alpha_sweep(quots)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "_ALPHA_MARGIN", margin)
        for m in ms:
            assert geo._alpha_head(quots, m) == want[:m + 1]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(quots=_quotient_lists(), reads=st.lists(st.integers(0, 10 ** 6),
                                               min_size=1, max_size=8))
@example(quots=[3, 1, 4, 1, 5, 9, 2, 6] * 10, reads=[5, 2, 40, 0, 41, 1, 79])
@example(quots=[1] * 50, reads=[1, 0, 49])
@example(quots=[7], reads=[0])
def test_state_replay_matches_one_pass_columns(quots, reads):
    # (beta_n, r_{n-1}, r_n) replayed on demand, read out of order and past
    # the first state replayed, against the columns the one-pass recursion
    # stores; reading the last state leaves every state materialised
    quots = quots + [2]                 # so Euclid gives the list back
    orbit = geo._orbit(geo._direction_data(quotients_value(quots)), math.inf)
    size = len(orbit.L)
    assert size == len(quots)
    cols = state_columns(quots, size)
    for n in [k % size for k in reads] + [size - 1]:
        geo._replay(orbit, n)
        r = orbit.r
        assert (orbit.beta[n], r[n - 1] if n else 0.0, r[n]) == cols[n][1:]
        assert len(r) == len(orbit.beta) > n
    assert len(orbit.r) == size
    assert orbit.L == [c[0] for c in cols]
    assert orbit.beta == [c[1] for c in cols]
    assert orbit.r == [c[3] for c in cols]


@pytest.mark.parametrize("size", [255, 256, 257, 511, 512, 513])
@pytest.mark.parametrize("quots", [[1] * 1400, sample_quotients(11, 0, 700),
                                   [1, 2] * 280 + [10 ** 9] + [1] * 400])
def test_orbit_lengths_around_ranking_blocks(size, quots):
    # a horizon between the closing tests of states size - 1 and size
    # keeps exactly size states: the ranking's last block holds 255, 256
    # or 1 state, and the alpha horizon ends at size (past 511 states the
    # spike a_561 lies inside its 64-quotient margin)
    L = [c[0] for c in state_columns(quots, size + 1)]
    T = (L[size - 1] + L[size]) - 2.5
    orbit = geo._orbit(geo._direction_data(quots), T)
    assert len(orbit.L) == size and len(orbit.alpha) == size + 1
    assert _records(predicted_excursions(quots, T)) == \
        excursion_stream(quots, T)
    for alpha in (0.0, 0.3):
        assert loglaw_statistic(quots, T, alpha) == \
            oracle_loglaw(quots, T, alpha)


def _assert_close(got, want, tol=1e-12):
    # relative above 1, absolute below
    for g, w in zip(got, want):
        assert abs(g - w) <= tol * max(1.0, abs(w)), (got, want)


def test_huge_quotient_peaking_after_horizon_is_no_excursion():
    quots = [1, 10 ** 160] + [1] * 400
    assert predicted_excursions(quots, 300.0) == []
    # past T = 370 it peaks, with the times of the exact formula
    rec = predicted_excursions(quots, 800.0)[0]
    assert rec.convergent_index == 1
    _assert_close(_records([rec])[0][1:], excursion_mp(quots, 1))
    # it enters near t = 1 and is still rising at T = 300, where the log
    # law takes its maximum; toward 10^-300 the ray rises from t = 0
    assert loglaw_statistic(quots, 300.0) == pytest.approx(
        (rec.peak_pen - geo._logcosh(300.0 - rec.t_peak)) / math.log(300.0),
        rel=1e-12)
    assert loglaw_statistic(Fraction(1, 10 ** 300), 300.0) == pytest.approx(
        300.0 / math.log(300.0), rel=1e-12)


def test_excursion_on_each_side_of_h_max():
    # below _H_MAX the engine is the scalar stream bit for bit; just above
    # it the stream's cancellation is still small, so both branches meet
    # it; H_n = (a + 0.71...)/2 here
    ln_h_max = math.log(geo._H_MAX)
    top = int(2 * geo._H_MAX)
    off = max(1, top >> 41)
    for a, below in ((top - off, True), (top + off, False)):
        quots = [3] * 5 + [a] + [2] * 30
        T = 2 * math.log(a) - 3
        got = [r for r in _records(predicted_excursions(quots, T))
               if r[0] == 5]
        want = [e for e in excursion_stream(quots, T) if e[0] == 5]
        assert (got[0][4] < ln_h_max) == below
        if below:
            assert got == want
        else:
            _assert_close(got[0], want[0], 1e-15)
        _assert_close(got[0][1:], excursion_mp(quots, 5))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(before=st.lists(st.integers(1, 50), max_size=40),
       a=st.integers(2 ** 501 + 2 ** 449, 10 ** 307),
       after=st.lists(st.integers(1, 50), min_size=geo._ALPHA_TAIL + 1,
                      max_size=40))
@example([], 2 ** 501 + 2 ** 449, [1] * (geo._ALPHA_TAIL + 1))
@example([50] * 40, 10 ** 307, [50] * 40)
def test_deep_excursion_matches_mpmath(before, a, after):
    # float(a) > 2^501, so H_n > _H_MAX for n = len(before); the horizon
    # 2 log a - 3 lies past its peak (2 log q_n + log H_n < 2.1 + 314 +
    # log a) and before the next convergent's excursions (2 log q_{n+1}
    # - 2.5 > T)
    quots = before + [a] + after
    n = len(before)
    got = [r for r in _records(predicted_excursions(quots,
                                                    2 * math.log(a) - 3))
           if r[0] == n]
    _assert_close(got[0][1:], excursion_mp(quots, n))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(before=st.lists(st.integers(1, 50), max_size=40),
       a=st.integers(2 ** 26, 2 ** 60),
       after=st.lists(st.integers(1, 50), min_size=geo._ALPHA_TAIL + 1,
                      max_size=40))
@example([2, 1, 3, 1, 1], 10 ** 16, [1] * 400)
@example([], 2 ** 53 + 1, [1] * (geo._ALPHA_TAIL + 1))
def test_excursion_past_h_max_matches_mpmath(before, a, after):
    # the direct entering offset dx + s cancels two H-sized terms: with it
    # the first example entered at t = 7.2528 instead of 6.5596.  The
    # horizon lies past the peak (2 log q_n + log a + 1.4) and before the
    # next convergent's excursions (2 log q_{n+1} - 2.5 > T)
    quots = before + [a] + after
    n = len(before)
    _, q = geo._convergent_arrays(quots)
    T = 2 * math.log(q[n]) + 1.5 * math.log(a)
    got = [r for r in _records(predicted_excursions(quots, T)) if r[0] == n]
    _assert_close(got[0][1:], excursion_mp(quots, n))


def test_loglaw_without_scoring_excursion_is_positive_zero():
    # every excursion ends before t = e (the final dive toward the
    # rational's own cusp is never reported)
    for direction in (Fraction(1, 3), Fraction(2, 3)):
        assert predicted_excursions(direction, 100.0)[-1].t_exit < math.e
        v = loglaw_statistic(direction, 100.0)
        assert v == 0.0 and math.copysign(1.0, v) == 1.0
    assert loglaw_statistic(Fraction(1, 3), 100.0, alpha=0.5) == \
        -0.5 * math.e
