"""Resonant systems, stage sets and the measure scan.

The scan is checked against the exact oracles in `oracles.py`, which
list every raw (point, weight) pair with Fraction arithmetic and
therefore know nothing about the reduced-centre dedup the scan relies
on.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsuplab import farey
from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import ResourceCapError, UsageError
from oracles import exact_union_measure, stage_balls, window_pairs


class TestSystems:
    def test_rationals_window(self):
        s = sy.classical_rationals()
        pairs = window_pairs(s, 1, 3)
        # q=2: 0/2, 1/2, 2/2 ; q=3: 0/3..3/3
        assert len(pairs) == 7
        assert pairs[0] == (Fraction(0), Fraction(2))
        assert pairs[2] == (Fraction(1), Fraction(2))
        assert s.count_window(1, 3) == 7

    def test_coprime_window(self):
        s = sy.classical_rationals(coprime_only=True)
        pairs = window_pairs(s, 1, 3)
        assert [p for p, _ in pairs] == [Fraction(1, 2), Fraction(1, 3),
                                         Fraction(2, 3)]
        assert s.count_window(1, 3) == 3

    def test_ford_window(self):
        s = sy.ford_horoballs()
        pairs = window_pairs(s, 0, 8)
        assert pairs == [(Fraction(0), Fraction(2)),
                         (Fraction(1), Fraction(2)),
                         (Fraction(1, 2), Fraction(8))]
        assert s.count_window(0, 8) == 3

    def test_count_window_matches_enumeration(self):
        rng = random.Random(5)
        systems = [sy.classical_rationals(), sy.classical_rationals(True),
                   sy.ford_horoballs()]
        for _ in range(40):
            s = rng.choice(systems)
            lo = Fraction(rng.randint(0, 40), rng.randint(1, 3))
            hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 3))
            want = window_pairs(s, lo, hi)
            assert s.count_window(lo, hi) == len(want), (s.kind, lo, hi)
            # every denominator of the q-range, and no other, has a point
            q_lo, q_hi = s.q_interval(lo, hi)
            power = 2 if s.kind is sy.SystemKind.FORD else 1
            assert sorted({w for _, w in want}) == \
                [power * q ** power for q in range(q_lo, q_hi + 1)]

    def test_enumeration_order_is_weight_then_point(self):
        s = sy.classical_rationals()
        pairs = window_pairs(s, 0, 4)
        assert pairs == sorted(pairs, key=lambda t: (t[1], t[0]))

    def test_cap_failure_is_loud(self):
        # the reduced count needs a totient sieve past its cap: refused
        # before the sieve is allocated
        s = sy.classical_rationals(coprime_only=True)
        with pytest.raises(ResourceCapError):
            s.count_window(0, farey.MAX_SIEVE + 1)


class TestStageSpec:
    def test_windows(self):
        st = sy.per_point_stage(fn.approximating(power=-2), 2)
        assert st.window(3) == (4, 8)
        assert st.window(1) == (1, 2)

    def test_bad_configs(self):
        with pytest.raises(UsageError):
            sy.per_point_stage(fn.approximating(power=-2), 1)
        with pytest.raises(UsageError):
            sy.per_point_stage(fn.power_log(power=Fraction(1, 2)), 2)
        with pytest.raises(UsageError):
            st = sy.per_point_stage(fn.approximating(power=-2), 2)
            st.window(0)


def exact_stage_measure(system, stage, n):
    return exact_union_measure([(c - r, c + r)
                                for c, r in stage_balls(system, stage, n)])


class TestDeltaStage:
    """Stage sets Delta_n: the raw oracle against hand values, and the
    scan on the stages the oracle cannot list exactly."""

    def test_exact_small_stage(self):
        # window (2, 4]: radius 1/27 at thirds, 1/64 at quarters; the
        # balls at 0 and 1 nest, and no other two meet
        system = sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-3), 2)
        exact = exact_stage_measure(system, stage, 2)
        assert exact == 6 * Fraction(1, 27) + 6 * Fraction(1, 64) \
            == Fraction(91, 288)
        rec, = sy.stage_measure_scan(system, stage, 2, 2).records
        assert rec.lower <= exact <= rec.upper

    def test_float_mode_for_log_radius(self):
        # psi(q) = 1/(q^2 log q) has no exact values, but on the window
        # (4, 8] log q lies in (8/5, 21/10), so the stage sits between
        # the exact stages of radius (10/21) q^-2 and (5/8) q^-2
        system = sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-2,
                                                    log_power=-1), 2)
        inner, outer = (exact_stage_measure(
            system, sy.per_point_stage(fn.approximating(c, -2), 2), 3)
            for c in (Fraction(10, 21), Fraction(5, 8)))
        rec, = sy.stage_measure_scan(system, stage, 3, 3).records
        assert rec.method == "full-sweep"
        assert 0 < rec.lower <= outer and inner <= rec.upper < 1
        assert inner <= rec.value <= outer

    def test_cap(self, monkeypatch):
        # stage 31 spans q <= 2^31, past farey.MAX_SIEVE: refused before
        # any stage of the range is planned
        def no_plan(*args):
            raise AssertionError("stage planned past the sieve cap")
        monkeypatch.setattr(sy, "_stage_ball_plan", no_plan)
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        with pytest.raises(ResourceCapError):
            sy.stage_measure_scan(sy.classical_rationals(), stage, 1, 31)

SCAN_CASES = [
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-2), 2), 4),
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-3), 2), 4),
    (sy.classical_rationals(True), sy.per_point_stage(fn.approximating(power=-2), 3), 4),
    (sy.ford_horoballs(), sy.per_point_stage(fn.approximating(power=-1), 4), 4),
    # radius 1/q: balls large enough to overlap across denominators
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-1), 3), 3),
    (sy.classical_rationals(True), sy.per_point_stage(fn.approximating(power=-1), 2), 4),
]


# the scan's three ways to certify a stage: swept whole, swept over a
# denominator prefix of subset_cap balls, and per-denominator sums only
SETTINGS = [({}, "full-sweep"), ({"full_cap": 1}, "subset-sweep"),
            ({"full_cap": 0, "subset_cap": 0}, "per-q-upper")]
MAX_STAGE_PAIRS = 1500


@st.composite
def scan_cases(draw):
    """(system, stage, n_hi) whose stage n_hi has at most MAX_STAGE_PAIRS
    raw pairs, so the oracle can list it."""
    system = draw(st.sampled_from([sy.classical_rationals(),
                                   sy.classical_rationals(True),
                                   sy.ford_horoballs()]))
    k = draw(st.sampled_from([Fraction(3, 2), 2, 3, 4, 6]))
    power = -draw(st.integers(1, 3))
    stage = sy.per_point_stage(fn.approximating(1, power), k)
    n_hi = draw(st.integers(1, 10))
    while n_hi > 1 and (system.count_window(*stage.window(n_hi))
                        > MAX_STAGE_PAIRS):
        n_hi -= 1
    return system, stage, n_hi


def check_scan_brackets(system, stage, n_hi, subset_cap):
    """Scan stages 1..n_hi in each of the three SETTINGS and check every
    record against the exact oracle."""
    balls = {n: stage_balls(system, stage, n) for n in range(1, n_hi + 1)}
    exact = {n: exact_union_measure([(c - r, c + r) for c, r in b])
             for n, b in balls.items()}
    for caps, method in SETTINGS:
        caps = {"subset_cap": subset_cap, **caps}
        full_cap = caps.get("full_cap", sy.FULL_SWEEP_CAP)
        scan = sy.stage_measure_scan(system, stage, 1, n_hi, **caps)
        for rec in scan.records:
            assert rec.lower <= exact[rec.n] <= rec.upper, (caps, rec)
            assert rec.pairs == len(balls[rec.n])
            if rec.count == 0:
                assert rec.method == "empty"
            elif rec.count <= full_cap:
                assert rec.method == "full-sweep" and not rec.truncated
                assert rec.value == pytest.approx(float(exact[rec.n]),
                                                  abs=1e-10)
            else:
                assert rec.method == method and rec.truncated
                assert rec.value is None


class TestStageMeasureScan:
    @pytest.mark.parametrize("system,stage,n_hi", SCAN_CASES)
    def test_brackets_exact_measure(self, system, stage, n_hi):
        check_scan_brackets(system, stage, n_hi, subset_cap=40)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=40)
    @given(case=scan_cases(), subset_cap=st.integers(1, 300))
    def test_brackets_exact_measure_random_stages(self, case, subset_cap):
        check_scan_brackets(*case, subset_cap)

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
        exact = exact_stage_measure(system, stage, 5)
        scan = sy.stage_measure_scan(system, stage, 5, 5,
                                     full_cap=10, subset_cap=40)
        rec = scan.records[0]
        assert rec.truncated and rec.method == "subset-sweep"
        assert rec.value is None
        assert rec.lower <= exact <= rec.upper
        assert rec.lower > 0

    def test_upper_only_mode(self):
        # every system: raw, coprime and Ford per-point stages, each
        # bounded by its per-denominator ball sums
        for system, stage, n_hi in SCAN_CASES:
            scan = sy.stage_measure_scan(system, stage, 1, n_hi,
                                         full_cap=0, subset_cap=0)
            for rec in scan.records:
                exact = exact_stage_measure(system, stage, rec.n)
                assert rec.method == "per-q-upper", rec
                assert rec.lower == 0.0 and rec.value is None
                assert exact <= rec.upper <= 1.0, rec

    def test_domain_guard(self):
        system = sy.classical_rationals()
        psi = fn.approximating(power=-2, loglog_power=-1)
        stage = sy.per_point_stage(psi, 2)
        with pytest.raises(UsageError):
            sy.stage_measure_scan(system, stage, 1, 1)
