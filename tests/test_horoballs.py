"""Ford-circle tests: exact windows, the enumeration and totient
oracles, the counting-ratio band, and the windowed disjointness
check."""

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
    phi = farey.totient_sieve(300)
    got = hb.count_horoballs((0, 1), radius_of(300), radius_of(40))
    assert got == int(phi[41:301].sum())


def test_count_matches_enumeration_off_unit_window():
    window = (Fraction(1, 7), Fraction(5, 8))
    r = (radius_of(40), radius_of(11))
    balls = enumerate_horoballs(window, *r)
    assert balls and hb.count_horoballs(window, *r) == len(balls)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
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
    phi = farey.totient_sieve(200)
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


def test_identity_gaps_match_fraction_oracle_on_f16():
    nums, dens = farey.reduced_fractions(16)
    gaps = hb._identity_gaps(nums, dens)
    i, j = np.triu_indices(len(nums), 1)
    assert len(gaps) == 3240
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        assert gaps[k] == _scaled_oracle_gap(int(nums[a]), int(dens[a]),
                                             int(nums[b]), int(dens[b]))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(q=st.integers(1, hb.MAX_IDENTITY_Q),
       q2=st.integers(1, hb.MAX_IDENTITY_Q), data=st.data())
def test_identity_gaps_match_fraction_oracle_drawn(q, q2, data):
    p = data.draw(st.integers(0, q))
    p2 = data.draw(st.integers(0, q2))
    assume(math.gcd(p, q) == 1 == math.gcd(p2, q2) and (p, q) != (p2, q2))
    gaps = hb._identity_gaps(np.array([p, p2]), np.array([q, q2]))
    assert gaps.tolist() == [_scaled_oracle_gap(p, q, p2, q2)]


def test_identity_layer_int64_headroom():
    # S |c - c'|^2 = 4 q^2 q'^2 D^2 + (q'^2 - q^2)^2 < 4 q^8 with |D| < q q'
    # (both bases in [0, 1]); every other term of the layer is smaller
    assert 4 * hb.MAX_IDENTITY_Q ** 8 < 2 ** 63
    assert 4 * 197 ** 8 < 2 ** 63 <= 4 * 198 ** 8


def test_identity_layer_is_the_sweeps_small_denominators(monkeypatch):
    nums, dens = farey.reduced_fractions(200)
    layer = dens <= 40
    small_nums, small_dens = farey.reduced_fractions(40)
    assert np.array_equal(nums[layer], small_nums)
    assert np.array_equal(dens[layer], small_dens)
    # one Farey build serves the window check and the layer
    real, built = farey.reduced_fractions, []
    monkeypatch.setattr(farey, "reduced_fractions",
                        lambda q: built.append(q) or real(q))
    rep = hb.disjointness_check(60, 40)
    assert built == [60]
    m = len(small_nums)
    assert rep.identity_pairs == m * (m - 1) // 2 == 120295


def test_disjointness_small_exact():
    rep = hb.disjointness_check(5, identity_q_max=5)
    points = len(farey.reduced_fractions(5)[0])
    assert rep.points == points
    assert rep.pairs == points * (points - 1) // 2
    assert rep.identity_pairs == rep.pairs
    assert rep.all_disjoint
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


def _assert_counts_match_full_square(q_max):
    nums, dens = farey.reduced_fractions(q_max)
    pairs, tangent, overlap = full_square_pair_counts(nums, dens)
    rep = hb.disjointness_check(q_max, identity_q_max=1)
    assert (rep.pairs, rep.tangent_pairs, rep.overlap_pairs) == \
        (pairs, tangent, overlap), q_max


@pytest.mark.parametrize("widen,q_maxes", [
    (1024, range(2, 61)),
    # a margin of 1 puts every base in every window, so D classifies
    # the whole square
    (1, (2, 3, 9)), (7, (2, 3, 9, 25, 60)), (64, (25, 60)),
])
def test_disjointness_counts_match_full_square(monkeypatch, widen, q_maxes):
    # the counts must not depend on the float windows beyond their holding
    # the exact ones: windows widened by 1/widen only hand D more pairs
    # that are strictly apart
    for q_max in q_maxes:
        _assert_counts_match_full_square(q_max)
    monkeypatch.setattr(hb, "_WINDOW_MARGIN", 1.0 / widen)
    for q_max in q_maxes:
        _assert_counts_match_full_square(q_max)


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(q_max=st.integers(61, 100))
def test_disjointness_counts_match_full_square_drawn(q_max):
    _assert_counts_match_full_square(q_max)


def test_window_holds_every_exact_window_pair():
    # the pair of p/q, p'/q' lies in the exact window of its smaller
    # denominator iff |p/q - p'/q'| <= 1/min(q, q')^2, i.e.
    # |D| min(q, q') <= max(q, q'); the float windows must hold all of them
    for q_max in (*range(2, 41), 61, 83, 100):
        nums, dens = farey.reduced_fractions(q_max)
        i, j = np.triu_indices(len(nums), 1)
        det = np.abs(nums[i] * dens[j] - nums[j] * dens[i])
        exact = (det * np.minimum(dens[i], dens[j])
                 <= np.maximum(dens[i], dens[j]))
        wi, wj = hb._window_pairs(nums, dens)
        window = set(zip(np.minimum(wi, wj).tolist(),
                         np.maximum(wi, wj).tolist()))
        assert len(window) == len(wi), q_max       # each pair once
        assert set(zip(i[exact].tolist(), j[exact].tolist())) <= window, q_max


def test_disjointness_at_the_cap():
    rep = hb.disjointness_check(hb.MAX_DISJOINTNESS_Q)
    assert (rep.points, rep.tangent_pairs, rep.overlap_pairs) == \
        (19949, 39895, 0)
    assert rep.tangent_pairs == 2 * rep.points - 3
    assert rep.pairs == 198971326 == rep.points * (rep.points - 1) // 2
    assert rep.identity_pairs == 120295


@pytest.mark.parametrize("widen", [3, 1024])
def test_disjointness_overlap_count_matches_full_square(monkeypatch, widen):
    # forged points: 1/2 twice and the unreduced 2/4 overlap pairwise
    nums, dens = farey.reduced_fractions(12)
    half = int(np.flatnonzero((nums == 1) & (dens == 2))[0])
    nums = np.insert(nums, [half, half], [1, 2])
    dens = np.insert(dens, [half, half], [2, 4])
    _, _, overlap = full_square_pair_counts(nums, dens)
    assert overlap == 3
    monkeypatch.setattr(farey, "reduced_fractions", lambda q: (nums, dens))
    with pytest.raises(InternalInvariantError, match="^3 overlapping"):
        hb.disjointness_check(12, identity_q_max=1)
    # wider windows hand D more pairs, each still counted once
    monkeypatch.setattr(hb, "_WINDOW_MARGIN", 1.0 / widen)
    with pytest.raises(InternalInvariantError, match="^3 overlapping"):
        hb.disjointness_check(12, identity_q_max=1)


def test_disjointness_rejects_tiny_qmax():
    with pytest.raises(UsageError):
        hb.disjointness_check(1)


def test_identity_layer_catches_forged_pair(monkeypatch):
    # identical bases are the one configuration with negative gap; the
    # Farey arrays never hold them, so feed them in directly
    forged = hb._identity_gaps(np.array([0, 1, 1]), np.array([1, 2, 2]))
    # 0/1 touches 1/2; the duplicate 1/2 has gap -4 q^4 = S * (-4 r r')
    assert forged.tolist() == [0, 0, -64]
    monkeypatch.setattr(hb, "_identity_gaps", lambda nums, dens: forged)
    with pytest.raises(InternalInvariantError, match="negative gap"):
        hb.disjointness_check(12, identity_q_max=2)
