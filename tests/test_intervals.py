"""Interval-union measure: the exact oracle every union kernel is tested
against, checked by hand values and a dumb grid-membership count, plus
the ball queries m(B ∩ union) the ubiquity ratios are made of.

Property checks are seeded random sweeps.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from limsuplab import ubiquity as ub
from limsuplab.errors import UsageError
from oracles import array_union_length, exact_union_measure

F = Fraction


def test_normalize_sorts_and_merges_touching():
    pairs = [(F(1, 2), F(3, 4)), (F(0), F(1, 2))]
    assert exact_union_measure(pairs) == F(3, 4)


def test_normalize_merges_overlap():
    pairs = [(F(0), F(2, 3)), (F(1, 3), F(3, 4)), (F(9, 10), F(1))]
    assert exact_union_measure(pairs) == F(3, 4) + F(1, 10)


def test_clip_to_unit_interval():
    assert exact_union_measure([(F(-1), F(2))]) == 1
    assert exact_union_measure([(F(-1), F(2))], F(-1, 2), F(3, 2)) == 2


def test_degenerate_dropped():
    assert exact_union_measure([(F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))]) == 0


def test_outside_dropped():
    pairs = [(F(-3), F(-2)), (F(2), F(3))]
    assert exact_union_measure(pairs) == 0
    assert exact_union_measure(pairs, -3, 3) == 2


def test_measure_exact():
    got = exact_union_measure([(F(0), F(1, 3)), (F(1, 2), F(7, 12))])
    assert got == F(1, 3) + F(1, 12)
    assert isinstance(got, Fraction)


def test_exact_mode_rejects_floats():
    # the exact engine refuses floats; the oracle reads them exactly
    with pytest.raises(UsageError):
        ub.UniformStageEngine(3, 0.1)
    with pytest.raises(UsageError):
        ub.UniformStageEngine(3, F(1, 10)).union_measure(0.1, F(1, 2))
    assert exact_union_measure([(0.1, 0.2)]) == F(0.2) - F(0.1) != F(1, 10)


def test_intersect_ball_basic():
    assert exact_union_measure([(F(0), F(1))], F(1, 4), F(3, 4)) == F(1, 2)


def test_intersect_ball_zero_radius_empty():
    assert exact_union_measure([(F(0), F(1))], F(1, 2), F(1, 2)) == 0
    assert ub.UniformStageEngine(3, F(1, 10)).union_measure(
        F(1, 2), F(1, 2)) == 0


def test_intersect_ball_clips_at_edges():
    assert exact_union_measure([(F(0), F(1))], F(-1, 8), F(1, 8)) == F(1, 8)


def test_intersect_ball_across_gaps():
    pairs = [(F(0), F(1, 4)), (F(1, 2), F(3, 4))]
    assert exact_union_measure(pairs, F(1, 8), F(5, 8)) == F(1, 4)


def test_from_balls_shared_radius():
    r = F(1, 8)
    apart = [(c - r, c + r) for c in (F(1, 4), F(3, 4))]
    assert exact_union_measure(apart) == F(1, 2)
    overlapping = [(c - r, c + r) for c in (F(1, 4), F(3, 8))]
    assert exact_union_measure(overlapping) == F(3, 8)  # [1/8, 1/2]


def grid_measure_oracle(pairs, n=4096, lo=F(0), hi=F(1)):
    """Dumb membership-count oracle: measure to within a few grid cells."""
    hits = 0
    for i in range(n):
        x = lo + (hi - lo) * F(2 * i + 1, 2 * n)  # cell midpoints
        if any(a <= x <= b for a, b in pairs):
            hits += 1
    return (hi - lo) * F(hits, n)


def test_measure_against_grid_oracle():
    rng = random.Random(1234)
    for _ in range(20):
        pairs = []
        for _ in range(rng.randint(1, 12)):
            lo = F(rng.randint(0, 400), 400)
            hi = lo + F(rng.randint(0, 100), 400)
            pairs.append((lo, hi))
        # no endpoint k/400 is a midpoint (2i+1)/8192, so each of the at
        # most 12 pieces of the union is off by under one cell
        est = grid_measure_oracle(pairs)
        assert abs(exact_union_measure(pairs) - est) <= F(12, 4096)


def test_normalized_invariants_random():
    rng = random.Random(77)
    for _ in range(50):
        pairs = []
        for _ in range(rng.randint(0, 20)):
            lo = F(rng.randint(-100, 500), 400)
            hi = F(rng.randint(-100, 500), 400)
            pairs.append((lo, hi))
        got = exact_union_measure(pairs)
        lengths = [max(min(b, F(1)) - max(a, F(0)), F(0)) for a, b in pairs]
        # a union is at least its largest piece and at most their sum
        assert max(lengths, default=0) <= got <= min(sum(lengths), F(1))


def test_measure_additive_on_disjoint_union():
    rng = random.Random(5150)
    for _ in range(30):
        a = [(F(rng.randint(0, 40), 100), F(rng.randint(0, 40), 100))
             for _ in range(4)]
        b = [(F(rng.randint(60, 100), 100), F(rng.randint(60, 100), 100))
             for _ in range(4)]
        assert exact_union_measure(a + b) == \
            exact_union_measure(a) + exact_union_measure(b)


def test_intersect_ball_monotone_in_radius():
    rng = random.Random(31)
    base = [(F(0), F(1, 3)), (F(2, 5), F(9, 10))]
    for _ in range(40):
        c = F(rng.randint(0, 100), 100)
        r1 = F(rng.randint(0, 50), 200)
        r2 = r1 + F(rng.randint(0, 50), 200)
        m1 = exact_union_measure(base, c - r1, c + r1)
        m2 = exact_union_measure(base, c - r2, c + r2)
        assert m1 <= m2


def test_intersection_commutes_with_oracle():
    # m(union ∩ [lo, hi]) against the grid count inside the window, and
    # additive when the window is cut in two
    rng = random.Random(88)
    for _ in range(25):
        pairs = [(F(rng.randint(0, 400), 400), F(rng.randint(0, 400), 400))
                 for _ in range(5)]
        lo, mid, hi = sorted(F(rng.randint(-40, 440), 400) for _ in range(3))
        got = exact_union_measure(pairs, lo, hi)
        if hi > lo:
            est = grid_measure_oracle(pairs, 800, lo, hi)
            assert abs(got - est) <= 10 * (hi - lo) / 800
        assert got == (exact_union_measure(pairs, lo, mid)
                       + exact_union_measure(pairs, mid, hi))


def test_float_mode_measures():
    lo, hi = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    assert array_union_length(lo, hi) == pytest.approx(0.3)
    assert exact_union_measure(zip(lo, hi)) == F(0.4) - F(0.1)
