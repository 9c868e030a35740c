"""Resonant systems, stage sets and the measure scan.

The scan is checked against delta_stage, which enumerates every raw
(point, weight) pair with exact Fraction arithmetic and therefore knows
nothing about the reduced-centre dedup the scan relies on.
"""

import math
import random
from fractions import Fraction

import pytest

from limsuplab import functions as fn
from limsuplab import intervals as iv
from limsuplab import systems as sy
from limsuplab.errors import ResourceCapError, UsageError


def brute_window_pairs(system, w_lo, w_hi, q_stop=200):
    out = []
    for q in range(1, q_stop):
        w = system.weight_of(q)
        if w_lo < w <= w_hi:
            for p in system.points_at(q):
                out.append((Fraction(p, q), w))
    return out


class TestSystems:
    def test_rationals_window(self):
        s = sy.classical_rationals()
        pairs = list(sy.enumerate_system(s, 1, 3))
        # q=2: 0/2, 1/2, 2/2 ; q=3: 0/3..3/3
        assert len(pairs) == 7
        assert pairs[0] == (Fraction(0), Fraction(2))
        assert pairs[2] == (Fraction(1), Fraction(2))
        assert s.count_window(1, 3) == 7

    def test_coprime_window(self):
        s = sy.classical_rationals(coprime_only=True)
        pairs = list(sy.enumerate_system(s, 1, 3))
        assert [p for p, _ in pairs] == [Fraction(1, 2), Fraction(1, 3),
                                         Fraction(2, 3)]
        assert s.count_window(1, 3) == 3

    def test_ford_window(self):
        s = sy.ford_horoballs(1)
        pairs = list(sy.enumerate_system(s, 0, 8))
        assert pairs == [(Fraction(0), Fraction(2)),
                         (Fraction(1), Fraction(2)),
                         (Fraction(1, 2), Fraction(8))]

    def test_count_window_matches_enumeration(self):
        rng = random.Random(5)
        systems = [sy.classical_rationals(), sy.classical_rationals(True),
                   sy.ford_horoballs(1), sy.ford_horoballs(Fraction(1, 2))]
        for _ in range(40):
            s = rng.choice(systems)
            lo = Fraction(rng.randint(0, 40), rng.randint(1, 3))
            hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 3))
            want = brute_window_pairs(s, lo, hi)
            got = list(sy.enumerate_system(s, lo, hi))
            assert got == want, (s.kind, lo, hi)
            assert s.count_window(lo, hi) == len(want)

    def test_enumeration_order_is_weight_then_point(self):
        s = sy.classical_rationals()
        pairs = list(sy.enumerate_system(s, 0, 4))
        assert pairs == sorted(pairs, key=lambda t: (t[1], t[0]))

    def test_cap_failure_is_loud(self):
        s = sy.classical_rationals()
        with pytest.raises(ResourceCapError):
            list(sy.enumerate_system(s, 0, 100, cap=10))

    def test_ford_scale_validation(self):
        with pytest.raises(UsageError):
            sy.ford_horoballs(0)
        with pytest.raises(UsageError):
            sy.ford_horoballs(0.5)  # floats refused


class TestMeasureModel:
    def test_unit_interval_model_holds(self):
        m = sy.unit_interval_model()
        rng = random.Random(11)
        for _ in range(300):
            c = Fraction(rng.randint(0, 64), 64)
            r = Fraction(rng.randint(1, 32), 64)
            assert m.check_ball(c, r), (c, r)

    def test_interior_ball_is_tight_above(self):
        m = sy.unit_interval_model()
        assert sy.ball_measure(Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 2)
        lo, hi = m.bounds(Fraction(1, 4))
        assert hi == Fraction(1, 2)

    def test_edge_ball_is_tight_below(self):
        lo, _ = sy.unit_interval_model().bounds(Fraction(1, 4))
        assert sy.ball_measure(Fraction(0), Fraction(1, 4)) == lo == Fraction(1, 4)

    def test_radius_out_of_range(self):
        with pytest.raises(UsageError):
            sy.unit_interval_model().bounds(Fraction(3, 4))


class TestStageSpec:
    def test_windows(self):
        st = sy.per_point_stage(fn.approximating(power=-2), 2)
        assert st.window(3) == (4, 8)
        stu = sy.uniform_stage(fn.radius_law(scale=6, power=-2), 6)
        assert stu.window(2) == (0, 36)

    def test_bad_configs(self):
        with pytest.raises(UsageError):
            sy.per_point_stage(fn.approximating(power=-2), 1)
        with pytest.raises(UsageError):
            sy.per_point_stage(fn.power_log(power=Fraction(1, 2)), 2)
        with pytest.raises(UsageError):
            st = sy.per_point_stage(fn.approximating(power=-2), 2)
            st.window(0)


def merge_balls_oracle(balls):
    """Exact union of (center, radius) Fractions, clipped to [0,1]."""
    segs = []
    for c, r in balls:
        lo, hi = max(c - r, Fraction(0)), min(c + r, Fraction(1))
        if lo < hi:
            segs.append((lo, hi))
    segs.sort()
    merged = []
    for lo, hi in segs:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return sum((hi - lo for lo, hi in merged), Fraction(0))


def delta_measure(system, stage, n):
    return iv.measure(sy.delta_stage(system, stage, n))


class TestDeltaStage:
    def test_exact_small_stage(self):
        system = sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-3), 2)
        got = sy.delta_stage(system, stage, 2)
        assert got.mode is iv.Mode.EXACT
        balls = [(p, Fraction(1, int(w) ** 3))
                 for p, w in sy.enumerate_stage(system, stage, 2)]
        assert iv.measure(got) == merge_balls_oracle(balls)

    def test_uniform_stage_radius_is_stagewide(self):
        system = sy.classical_rationals(coprime_only=True)
        stage = sy.uniform_stage(fn.radius_law(scale=6, power=-2), 6)
        got = sy.delta_stage(system, stage, 1)
        r = Fraction(6, 36)
        balls = [(p, r) for p, _ in sy.enumerate_stage(system, stage, 1)]
        assert iv.measure(got) == merge_balls_oracle(balls)

    def test_float_mode_for_log_radius(self):
        system = sy.classical_rationals()
        psi = fn.approximating(power=-2, log_power=-1)
        stage = sy.per_point_stage(psi, 2)
        got = sy.delta_stage(system, stage, 3)
        assert got.mode is iv.Mode.FLOAT
        assert 0 < iv.measure(got) < 1

    def test_cap(self):
        system = sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        with pytest.raises(ResourceCapError):
            sy.delta_stage(system, stage, 8, cap=100)


SCAN_CASES = [
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-2), 2), 4),
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-3), 2), 4),
    (sy.classical_rationals(True), sy.per_point_stage(fn.approximating(power=-2), 3), 4),
    (sy.ford_horoballs(1), sy.per_point_stage(fn.approximating(power=-1), 4), 4),
    (sy.classical_rationals(), sy.uniform_stage(fn.radius_law(scale=6, power=-2), 6), 3),
    (sy.ford_horoballs(1), sy.uniform_stage(fn.radius_law(power=-1), 3), 4),
]


class TestStageMeasureScan:
    @pytest.mark.parametrize("system,stage,n_hi", SCAN_CASES)
    def test_brackets_exact_measure(self, system, stage, n_hi):
        scan = sy.stage_measure_scan(system, stage, 1, n_hi)
        for rec in scan.records:
            exact = float(delta_measure(system, stage, rec.n))
            assert rec.lower <= exact <= rec.upper, rec
            assert rec.value == pytest.approx(exact, abs=1e-10)
            assert rec.method == "full-sweep"
            assert not rec.truncated
            assert rec.pairs == system.count_window(*stage.window(rec.n))

    def test_counts_are_reduced_ball_counts(self):
        system = sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        scan = sy.stage_measure_scan(system, stage, 3, 3)
        rec = scan.records[0]
        # window (4, 8]: every denominator b <= 8 has a multiple there
        assert rec.count == sum(phi for phi in
                                [2, 1, 2, 2, 4, 2, 6, 4]), rec
        assert rec.pairs == sum(q + 1 for q in range(5, 9))

    def test_truncated_stage_still_bracketed(self):
        system = sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        exact = float(delta_measure(system, stage, 5))
        scan = sy.stage_measure_scan(system, stage, 5, 5,
                                     full_cap=10, subset_cap=40)
        rec = scan.records[0]
        assert rec.truncated and rec.method == "subset-sweep"
        assert rec.value is None
        assert rec.lower <= exact <= rec.upper
        assert rec.lower > 0

    def test_upper_only_mode(self):
        # every stage kind: raw, coprime and Ford per-point stages, and
        # uniform stages, each bounded by its per-denominator ball sums
        for system, stage, n_hi in SCAN_CASES:
            scan = sy.stage_measure_scan(system, stage, 1, n_hi,
                                         full_cap=0, subset_cap=0)
            for rec in scan.records:
                exact = float(delta_measure(system, stage, rec.n))
                assert rec.method == "per-q-upper", rec
                assert rec.lower == 0.0 and rec.value is None
                assert exact <= rec.upper <= 1.0, rec

    def test_domain_guard(self):
        system = sy.classical_rationals()
        psi = fn.approximating(power=-2, loglog_power=-1)
        stage = sy.per_point_stage(psi, 2)
        with pytest.raises(UsageError):
            sy.stage_measure_scan(system, stage, 1, 1)

    def test_scan_helpers(self):
        system = sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-3), 2)
        scan = sy.stage_measure_scan(system, stage, 2, 5)
        assert scan.tail_upper_sum() == pytest.approx(sum(scan.uppers()))
        assert scan.min_lower() == min(scan.lowers())
        assert len(scan.records) == 4
