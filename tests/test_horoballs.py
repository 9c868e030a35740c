"""Ford-circle tests: exact windows, the enumeration and totient
oracles, the counting-ratio band, and the windowed disjointness
check."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import limsuplab.farey as farey
import limsuplab.horoballs as hb
from limsuplab.errors import InternalInvariantError, ResourceCapError, UsageError
from oracles import (ball_at, enumerate_horoballs, full_square_pair_counts,
                     pair_relation)

HALF = Fraction(1, 2)


def radius_of(q: int) -> Fraction:
    return Fraction(1, 2 * q * q)


# -- windows and enumeration -------------------------------------------------

def test_q_window_examples():
    assert hb.q_window(Fraction(1, 8), HALF) == (2, 2)
    assert hb.q_window(radius_of(200), radius_of(100)) == (101, 200)
    # boundary exactness: lower radius inclusive, upper exclusive
    assert hb.q_window(radius_of(7), radius_of(3)) == (4, 7)


def test_q_window_brute():
    for r_lo, r_hi in ((Fraction(1, 97), Fraction(1, 5)),
                       (Fraction(3, 1000), Fraction(1, 50)),
                       (Fraction(1, 2 * 12 ** 2), Fraction(1, 2 * 11 ** 2))):
        lo, hi = hb.q_window(r_lo, r_hi)
        member = [q for q in range(1, 60) if r_lo <= radius_of(q) < r_hi]
        assert member == list(range(lo, hi + 1))


def test_q_window_validation():
    with pytest.raises(UsageError):
        hb.q_window(HALF, HALF)
    with pytest.raises(UsageError):
        hb.q_window(0.1, 0.5)           # floats refused


def test_enumerate_single_circle():
    balls = enumerate_horoballs((0, 1), Fraction(1, 8), HALF)
    assert [(b.base, b.radius, b.weight) for b in balls] == \
        [(HALF, Fraction(1, 8), Fraction(8))]


def test_enumerate_empty_base_window():
    assert enumerate_horoballs((HALF, HALF), Fraction(1, 8), HALF) == []


def test_enumerate_reduced_and_in_window():
    balls = enumerate_horoballs((Fraction(1, 5), Fraction(4, 5)),
                                   radius_of(9), radius_of(3))
    assert balls
    for b in balls:
        assert math.gcd(b.base.numerator, b.base.denominator) == 1
        assert Fraction(1, 5) <= b.base < Fraction(4, 5)
        assert radius_of(9) <= b.radius < radius_of(3)
        assert b.radius * b.weight == 1


def test_enumerate_half_open_bases():
    # 0/1 is in [0,1), 1/1 is not
    balls = enumerate_horoballs((0, 1), Fraction(1, 3), Fraction(2, 1))
    assert [b.base for b in balls] == [Fraction(0)]


def test_count_matches_totient_sum():
    phi = farey.stage_sieve(300)[2]
    got = hb.count_horoballs((0, 1), radius_of(300), radius_of(40))
    assert got == int(phi[41:301].sum())


def test_count_matches_enumeration_off_unit_window():
    window = (Fraction(1, 7), Fraction(5, 8))
    r = (radius_of(40), radius_of(11))
    balls = enumerate_horoballs(window, *r)
    assert balls and hb.count_horoballs(window, *r) == len(balls)


@settings(max_examples=120)
@given(lo=st.fractions(-5, 5, max_denominator=12),
       width=st.fractions(0, 3, max_denominator=30),
       shift=st.sampled_from([0, 1, -7, 10 ** 12, -10 ** 30]),
       q_min=st.integers(1, 60), span=st.integers(0, 50))
@example(Fraction(0), Fraction(1), 0, 1, 0)
@example(Fraction(-1, 3), Fraction(1, 7), -10 ** 30, 2, 40)
def test_counting_paths_match_enumeration(lo, width, shift, q_min, span):
    # both paths, each forced, on one window: Mobius over floor sums and
    # one gcd per candidate base, against the walk of every circle
    b_lo = lo + shift
    b_hi = b_lo + width
    assume(width > 0)
    q_max = q_min + span
    r_lo = radius_of(q_max)
    r_hi = Fraction(1) if q_min == 1 else radius_of(q_min - 1)
    assert hb.q_window(r_lo, r_hi) == (q_min, q_max)
    want = len(enumerate_horoballs((b_lo, b_hi), r_lo, r_hi))
    assert hb._count_mobius(b_lo, b_hi, q_min, q_max) == want
    assert hb._count_direct(b_lo, b_hi, q_min, q_max) == want
    assert hb.count_horoballs((b_lo, b_hi), r_lo, r_hi) == want


@settings(max_examples=300)
@given(n=st.integers(0, 80),
       m=st.one_of(st.integers(1, 60), st.integers(1, 10 ** 40)),
       a=st.one_of(st.integers(-100, 100), st.integers(-10 ** 40, 10 ** 40)),
       b=st.one_of(st.integers(-100, 100), st.integers(-10 ** 40, 10 ** 40)))
@example(0, 1, 5, 5)
@example(80, 10 ** 40, -(10 ** 40) + 1, 10 ** 40 - 1)
@example(80, 7, 10 ** 40, -(10 ** 40))
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert hb._floor_sum(n, m, a, b) == sum((a * i + b) // m
                                            for i in range(n))


def test_mertens_table_known_values():
    # M(10^k), k = 0..6 (OEIS A084237)
    table = hb._mertens_table(10 ** 6)
    assert table.itemsize == 4 and len(table) == 10 ** 6 + 1
    assert [table[10 ** k] for k in range(7)] == \
        [1, -1, 1, 2, -23, -48, 212]
    small = hb._mertens_table(30)
    mu = [0, 1] + [0] * 29
    for n in range(2, 31):    # mu(n) = -sum of mu(d) over d | n, d < n
        mu[n] = -sum(mu[d] for d in range(1, n) if n % d == 0)
    assert list(small) == [sum(mu[:x + 1]) for x in range(31)]


def test_count_horoballs_picks_the_cheaper_path(monkeypatch):
    # the Mobius path wherever its table is shorter than the bases
    # (the 24-point run's widest window); enumeration where the bases
    # are fewer, here a window near q = 2^100
    calls = []
    for name in ("_count_mobius", "_count_direct"):
        real = getattr(hb, name)
        monkeypatch.setattr(hb, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    R = Fraction(1, 2 ** 26)
    hb.count_horoballs((0, 1), R / 4, R)
    r_hi = Fraction(1, 10 ** 60)
    hb.count_horoballs((0, Fraction(1, 10 ** 40)),
                       r_hi * (1 - Fraction(1, 10 ** 26)), r_hi)
    assert calls == ["_count_mobius", "_count_direct"]


def test_enumerate_resource_cap():
    with pytest.raises(ResourceCapError):
        enumerate_horoballs((0, 1), Fraction(1, 10 ** 14), Fraction(1, 2),
                               cap=1000)
    with pytest.raises(ResourceCapError):
        hb.count_horoballs((0, 1), Fraction(1, 10 ** 14), Fraction(1, 2))


def test_ball_at_validation():
    with pytest.raises(UsageError):
        ball_at(2, 4)
    with pytest.raises(UsageError):
        ball_at(1, 0)


# -- counting ratio ----------------------------------------------------------

def test_ratio_totient_window():
    rep = hb.band_counts((0, 1), radius_of(100), HALF, 1,
                         Fraction(1, 4))[0]
    phi = farey.stage_sieve(200)[2]
    assert (rep.q_min, rep.q_max) == (101, 200)
    assert rep.count == int(phi[101:201].sum())
    assert rep.ratio == pytest.approx(rep.count / (2 * 100 ** 2))


def test_ratio_stable_over_three_decades():
    # R shrinking by 1000x; the normalized count must stay in a narrow band
    ratios = []
    for q0 in (30, 95, 300, 949):
        rep = hb.band_counts((0, 1), radius_of(q0), HALF, 1,
                             Fraction(1, 4))[0]
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) <= 2
    # the empirical density: 3/pi^2 * (4-1) / 2 per unit of R^-1
    for r in ratios:
        assert r == pytest.approx(4.5 / math.pi ** 2, rel=0.05)


def test_ratio_window_collapse():
    assert hb.band_counts((0, 1), radius_of(100), HALF, 1,
                          Fraction(99, 100))[0].count == 0


def test_ratio_doubling_window():
    small = hb.band_counts((Fraction(1, 5), Fraction(2, 5)),
                           radius_of(500), HALF, 1, Fraction(1, 4))[0]
    double = hb.band_counts((Fraction(1, 5), Fraction(3, 5)),
                            radius_of(500), HALF, 1, Fraction(1, 4))[0]
    assert double.count == pytest.approx(2 * small.count, rel=0.02)


def test_ratio_validation():
    with pytest.raises(UsageError):
        hb.band_counts((0, 0), radius_of(10), HALF, 1, Fraction(1, 4))
    with pytest.raises(UsageError):
        hb.band_counts((0, 1), radius_of(10), HALF, 1, Fraction(3, 2))
    with pytest.raises(UsageError):
        hb.band_counts((0, 1), Fraction(-1, 2), HALF, 1, Fraction(1, 4))


# -- disjointness ------------------------------------------------------------

def test_pair_relation_examples():
    assert pair_relation(1, 2, 1, 3).tangent
    assert pair_relation(0, 1, 1, 1).tangent
    rel = pair_relation(1, 3, 2, 3)
    assert not rel.tangent and rel.gap == Fraction(8, 81)


def test_pair_relation_rejects_unreduced():
    with pytest.raises(UsageError):
        pair_relation(2, 4, 1, 3)


def _scaled_oracle_gap(p, q, p2, q2):
    return 4 * q ** 4 * q2 ** 4 * pair_relation(p, q, p2, q2).gap


def test_farey_points_match_reduced_fractions():
    # the next-term rule and the packed-key build give one F_Q
    for q in range(1, 301):
        nums, dens = farey.reduced_fractions(q)
        assert list(hb._farey_points(q)) == \
            list(zip(nums.tolist(), dens.tolist())), q


def test_identity_gaps_match_fraction_oracle_on_f16():
    points = list(hb._farey_points(16))
    pairs = list(itertools.combinations(points, 2))
    assert len(pairs) == 3240
    for a, b in pairs:
        assert hb._scaled_gap(a, b) == _scaled_oracle_gap(*a, *b)


@settings(max_examples=200)
@given(q=st.integers(1, hb.MAX_IDENTITY_Q),
       q2=st.integers(1, hb.MAX_IDENTITY_Q), data=st.data())
def test_identity_gaps_match_fraction_oracle_drawn(q, q2, data):
    p = data.draw(st.integers(0, q))
    p2 = data.draw(st.integers(0, q2))
    assume(math.gcd(p, q) == 1 == math.gcd(p2, q2) and (p, q) != (p2, q2))
    assert hb._scaled_gap((p, q), (p2, q2)) == _scaled_oracle_gap(p, q, p2, q2)


def test_identity_layer_is_the_sweeps_small_denominators(monkeypatch):
    small = list(hb._farey_points(40))
    assert [pt for pt in hb._farey_points(200) if pt[1] <= 40] == small
    # one Farey build serves the walk and the layer
    real, built = hb._farey_points, []
    monkeypatch.setattr(hb, "_farey_points",
                        lambda q: built.append(q) or real(q))
    rep = hb.disjointness_check(60, 40)
    assert built == [60]
    m = len(small)
    assert rep.identity_pairs == m * (m - 1) // 2 == 120295


def test_disjointness_small_exact():
    rep = hb.disjointness_check(5, identity_q_max=5)
    points = len(farey.reduced_fractions(5)[0])
    assert rep.points == points
    assert rep.pairs == points * (points - 1) // 2
    assert rep.identity_pairs == rep.pairs
    assert rep.overlap_pairs == 0
    # Stern-Brocot: every circle after the first two is tangent to
    # exactly two earlier ones
    assert rep.tangent_pairs == 2 * points - 3


def test_disjointness_tangency_matches_farey_adjacency():
    # consecutive members of the Farey sequence are always tangent
    nums, dens = farey.reduced_fractions(30)
    det = nums[:-1] * dens[1:] - nums[1:] * dens[:-1]
    assert set(det.tolist()) == {-1}
    rep = hb.disjointness_check(30, identity_q_max=30)
    assert rep.tangent_pairs == 2 * rep.points - 3
    assert rep.tangent_pairs >= len(nums) - 1


def _assert_counts_match_full_square(q_max, identity_q_max=1):
    nums, dens = farey.reduced_fractions(q_max)
    pairs, tangent, overlap = full_square_pair_counts(nums, dens)
    rep = hb.disjointness_check(q_max, identity_q_max)
    assert (rep.pairs, rep.tangent_pairs, rep.overlap_pairs) == \
        (pairs, tangent, overlap), q_max
    m = len(farey.reduced_fractions(min(identity_q_max, q_max))[0])
    assert rep.identity_pairs == m * (m - 1) // 2, q_max


@pytest.mark.parametrize("identity,q_maxes", [
    # 1024 and 64 are clipped to q_max, so the layer is all of F_q_max
    (1024, range(2, 41)), (1, range(41, 61)),
    (7, (2, 3, 9, 25, 60)), (64, (25, 40)),
])
def test_disjointness_counts_match_full_square(identity, q_maxes):
    # D forms only inside the windows; every pair outside must be
    # strictly apart, so the counts equal those of the whole square,
    # whatever identity layer rides along
    for q_max in q_maxes:
        _assert_counts_match_full_square(q_max, identity)


@settings(max_examples=8)
@given(q_max=st.integers(61, 100))
def test_disjointness_counts_match_full_square_drawn(q_max):
    _assert_counts_match_full_square(q_max)


def test_disjointness_at_the_cap():
    rep = hb.disjointness_check(hb.MAX_DISJOINTNESS_Q)
    assert (rep.points, rep.tangent_pairs, rep.overlap_pairs) == \
        (19949, 39895, 0)
    assert rep.tangent_pairs == 2 * rep.points - 3
    assert rep.pairs == 198971326 == rep.points * (rep.points - 1) // 2
    assert rep.identity_pairs == 120295


@pytest.mark.parametrize("identity", [3, 1024])
def test_disjointness_overlap_count_matches_full_square(monkeypatch,
                                                        identity):
    # forged points: 1/2 twice and the unreduced 2/4 overlap pairwise
    points = list(hb._farey_points(12))
    half = points.index((1, 2))
    points[half:half] = [(1, 2), (2, 4)]
    _, _, overlap = full_square_pair_counts(
        *(np.array(c) for c in zip(*points)))
    assert overlap == 3
    monkeypatch.setattr(hb, "_farey_points", lambda q: iter(points))
    # the walk refuses them before any identity layer, whose duplicate
    # 1/2 would read as a negative gap at 3; 1024 is clipped to q_max
    with pytest.raises(InternalInvariantError, match="^3 overlapping"):
        hb.disjointness_check(12, identity_q_max=identity)


def test_disjointness_rejects_tiny_qmax():
    with pytest.raises(UsageError):
        hb.disjointness_check(1)


def test_disjointness_rejects_non_integer_sizes():
    for q_max, identity in ((2.5, 40), ("10", 40), (10.0, 40), (10, 4.0),
                            (10, "4"), (True, 40), (10, None)):
        with pytest.raises(UsageError, match="must be integers"):
            hb.disjointness_check(q_max, identity)


def test_identity_layer_catches_forged_pair(monkeypatch):
    # identical bases are the one configuration with negative gap; the
    # Farey points never hold them, so feed them in directly
    forged = [hb._scaled_gap((0, 1), (1, 2)), hb._scaled_gap((1, 2), (1, 2))]
    # 0/1 touches 1/2; the duplicate 1/2 has gap -4 q^4 = S * (-4 r r')
    assert forged == [0, -64]
    real = hb._scaled_gap
    monkeypatch.setattr(hb, "_scaled_gap", lambda a, b: real(a, a))
    with pytest.raises(InternalInvariantError, match="negative gap"):
        hb.disjointness_check(12, identity_q_max=2)
