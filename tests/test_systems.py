"""Resonant systems, stage sets and the measure scan.

The scan is checked against the exact oracles in `oracles.py`, which
list every raw (point, weight) pair with Fraction arithmetic and
therefore know nothing about the reduced-centre dedup the scan relies
on.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limsuplab import farey
from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import ResourceCapError, UsageError
from oracles import (exact_union_measure, gcd_cell_sweep, stage_balls,
                     window_pairs)


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
        # Ford weights 8 and 18 hold the reduced halves and thirds only
        s = sy.ford_horoballs()
        pairs = window_pairs(s, 2, 18)
        assert [p for p, _ in pairs] == [Fraction(1, 2), Fraction(1, 3),
                                         Fraction(2, 3)]
        assert s.count_window(2, 18) == 3

    def test_ford_window(self):
        s = sy.ford_horoballs()
        pairs = window_pairs(s, 0, 8)
        assert pairs == [(Fraction(0), Fraction(2)),
                         (Fraction(1), Fraction(2)),
                         (Fraction(1, 2), Fraction(8))]
        assert s.count_window(0, 8) == 3

    def test_count_window_matches_enumeration(self):
        rng = random.Random(5)
        systems = [sy.classical_rationals(), sy.ford_horoballs()]
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
        s = sy.ford_horoballs()
        with pytest.raises(ResourceCapError):
            s.count_window(0, 2 * (farey.MAX_SIEVE + 1) ** 2)


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
        # stage 31 spans q <= 2^31, past farey.MAX_SIEVE and the byte
        # budget: refused before any stage of the range is planned
        def no_plan(*args):
            raise AssertionError("stage planned past the sieve cap")
        monkeypatch.setattr(sy, "_stage_ball_plan", no_plan)
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        with pytest.raises(ResourceCapError):
            sy.stage_measure_scan(sy.classical_rationals(), stage, 1, 31)

SCAN_CASES = [
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-2), 2), 4),
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-3), 2), 4),
    (sy.ford_horoballs(), sy.per_point_stage(fn.approximating(power=-2), 3), 4),
    (sy.ford_horoballs(), sy.per_point_stage(fn.approximating(power=-1), 4), 4),
    # radius 1/weight: balls large enough to overlap across denominators
    # (at Ford weights 2q^2, the diameters of the circles themselves)
    (sy.classical_rationals(), sy.per_point_stage(fn.approximating(power=-1), 3), 3),
    (sy.ford_horoballs(), sy.per_point_stage(fn.approximating(power=-1), 3), 4),
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
        # both systems: rational and Ford per-point stages, each
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

    @pytest.mark.parametrize("caps", [
        {"full_cap": sy.FULL_SWEEP_CAP + 1},
        {"subset_cap": sy.SUBSET_SWEEP_CAP + 1},
    ])
    def test_raised_sweep_cap_refused_before_sieving(self, monkeypatch, caps):
        # a raised cap would hand whole stages (3.3e11 balls for q^-2,
        # k = 2, n = 20) to the cell sweep, outside the byte budget
        def no_sieve(*args):
            raise AssertionError("sieved past a refused cap")
        monkeypatch.setattr(farey, "totient_sieve", no_sieve)
        # the scan's shared least-prime table is a sieve too
        monkeypatch.setattr(farey, "smallest_prime_factors", no_sieve)
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        with pytest.raises(UsageError, match="can only be lowered"):
            sy.stage_measure_scan(sy.classical_rationals(), stage, 1, 20,
                                  **caps)

    def test_one_sieve_per_scan(self, monkeypatch):
        # stages 1..11 of q^-3, k = 2, all fully swept, and the per-q
        # bound of stage 12: one least-prime table reaching q = 2^12
        # serves the totient prefix sum and every sweep's prime pairs
        calls = []
        sieve = farey.smallest_prime_factors
        monkeypatch.setattr(farey, "smallest_prime_factors",
                            lambda limit: calls.append(limit) or sieve(limit))
        stage = sy.per_point_stage(fn.approximating(power=-3), 2)
        scan = sy.stage_measure_scan(sy.classical_rationals(), stage, 1, 12,
                                     full_cap=4_000_000, subset_cap=0)
        methods = [rec.method for rec in scan.records]
        assert methods == ["full-sweep"] * 11 + ["per-q-upper"]
        assert calls == [2 ** 12]


def swept(sweep, plan):
    """(float.hex, ball count) of a sweep over plan, or its refusal."""
    try:
        value, count = sweep(*plan)
    except ResourceCapError:
        return "refused"
    return value.hex(), count


def cell_sweep(b_vals, radii):
    """`systems._cell_sweep` over a least-prime table reaching
    max(b_vals), as a scan hands it one."""
    spf = farey.smallest_prime_factors(int(b_vals.max(initial=1)))
    return sy._cell_sweep(b_vals, radii, spf)


def assert_twins(plan):
    assert swept(cell_sweep, plan) == swept(gcd_cell_sweep, plan)


def ball_plan(system, stage, n):
    """(b_vals, radii) of stage n: the plan's denominators and the radii
    of its weights, as the scan sweeps them."""
    b_vals, weights = sy._stage_ball_plan(system, stage, n)
    return b_vals, fn.evaluate_array(stage.form, weights)


@st.composite
def sweep_plans(draw):
    """(b_vals, radii): ascending distinct denominators, often with b = 1,
    and radii from far below 1/b^2 to past 1/b, so candidates at a = 0
    and a = b, balls clipped at the cell edges and tied ends all occur."""
    b = set(draw(st.lists(st.integers(1, 300), min_size=1, max_size=25)))
    if draw(st.booleans()):
        b.add(1)
    b_vals = np.array(sorted(b), dtype=np.int64)
    scale = draw(st.sampled_from([1e-4, 1 / 64, 1 / 3, 1.0, 3.0]))
    power = draw(st.sampled_from([1.0, 2.0]))
    radii = scale / b_vals.astype(np.float64) ** power
    return b_vals, radii


class TestCellSweepTwin:
    """The prime-strike sweep against the gcd-filtered, stable-sorted
    sweep it replaced: the same cells and balls, so the same float."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(plan=sweep_plans(), budget=st.sampled_from([60, 400, 5000,
                                                        sy._CELL_BUDGET]))
    # denominators whose primes strike more positions than a cell holds
    # (sum of 1/p above 1), so the strikes come in several chunks
    @example(plan=(np.array([210, 2310, 30030]), np.array([1e-3] * 3)),
             budget=sy._CELL_BUDGET)
    @example(plan=(np.array([1, 30]), np.array([0.5, 0.5])), budget=60)
    def test_random_plans_bit_for_bit(self, plan, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sy, "_CELL_BUDGET", budget)
            assert_twins(plan)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(case=scan_cases(), budget=st.sampled_from([200, 3000,
                                                      sy._CELL_BUDGET]))
    def test_stage_plans_bit_for_bit(self, case, budget):
        # real plans, radius 1/q stages (many ties) among them, swept in
        # one cell or many
        system, stage, n_hi = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sy, "_CELL_BUDGET", budget)
            for n in range(1, n_hi + 1):
                assert_twins(ball_plan(system, stage, n))

    @pytest.mark.parametrize("psi,k,n", [("r^-2", 5, 4), ("r^-1", 3, 5),
                                         ("r^-3", 2, 9)])
    def test_large_stages_bit_for_bit(self, psi, k, n):
        # stages past the sizes a property test draws: the q^-1 one
        # holds long runs of tied ends at 0 and 1
        stage = sy.per_point_stage(fn.parse_function(psi), k)
        assert_twins(ball_plan(sy.classical_rationals(), stage, n))

    def test_wide_prime_row_bit_for_bit(self):
        # one prime row of 2^20 - 3 candidates beside b = 1: its column
        # takes 20 bits of the code, and no prime strikes inside it
        b = 2 ** 20 - 3
        assert all(b % p for p in range(2, math.isqrt(b) + 1))
        assert_twins((np.array([1, b]), np.array([1e-3, 1e-9])))

    @pytest.mark.parametrize("n", range(20, 25))
    def test_ford_rows_far_above_one_bit_for_bit(self, n):
        # Ford r^-1, k = 2: the rows start just past b = 2^((n - 2) / 2),
        # so num0 and den are far from the row index
        stage = sy.per_point_stage(fn.parse_function("r^-1"), 2)
        plan = ball_plan(sy.ford_horoballs(), stage, n)
        assert plan[0][0] > 500
        assert_twins(plan)

    def test_many_cell_plan_bit_for_bit(self):
        # stage 4 of q^-2, k = 5 (625 rows) in dozens of cells, each with
        # its own column width
        stage = sy.per_point_stage(fn.parse_function("r^-2"), 5)
        plan = ball_plan(sy.classical_rationals(), stage, 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sy, "_CELL_BUDGET", 5000)
            assert swept(cell_sweep, plan) != "refused"
            assert_twins(plan)

    def test_peak_memory_per_swept_ball(self):
        # the q^-2, k = 5, n = 5 stage, 2.97M balls in one cell: the one
        # key word per candidate, written for the kept balls alone, and
        # a few blocks
        stage = sy.per_point_stage(fn.parse_function("r^-2"), 5)
        plan = ball_plan(sy.classical_rationals(), stage, 5)
        tracemalloc.start()
        try:
            value, count = cell_sweep(*plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2_969_757
        assert (value.hex(), count) == swept(gcd_cell_sweep, plan)
        assert peak <= 16 * count, peak / count

    def test_int64_headroom_at_the_cell_cap(self):
        # bounds checked without allocating a plan (a range stands in
        # for the rows).  A code is (row << wb) | col below 2^ib, ib =
        # bitlen(rows - 1) + wb: the denominators are distinct and inside
        # the least-prime table, so b <= MAX_SIEVE, rows <= MAX_SIEVE and
        # col = a - a_lo <= b; a scan's plan stops at the q_hi its byte
        # budget admits
        def ib(rows):
            return farey.BallRows(None, range(rows), None,
                                  rows.bit_length()).ib
        assert ib(farey.MAX_SIEVE) <= 54
        assert ib(sy.MAX_STAGE_BYTES // sy._STAGE_BYTES_PER_Q) <= 50
        # a key is a float64 >= +0.0 read as int64, at most the pattern
        # of inf, with its low ib bits replaced by a code: no wrap
        inf_bits = int(np.array(np.inf).view(np.int64))
        assert (inf_bits >> 54 << 54 | (1 << 54) - 1) < 2 ** 63
        assert np.cumsum(np.ones(2, dtype=bool)).dtype == np.int64
        # strike positions are partial sums equal to positions < n, n at
        # most the 10 * _CELL_BUDGET candidates of the largest cell; the
        # chunk search reaches the sum of every pair's strikes plus n,
        # at most (1 + 8) n since no b <= MAX_SIEVE has 9 distinct
        # primes; the first multiple of p at or above a_lo stays below
        # b + p <= 2 b
        n = 10 * sy._CELL_BUDGET
        assert math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23]) > farey.MAX_SIEVE
        assert 9 * n < 2 ** 62 and 2 * farey.MAX_SIEVE < 2 ** 62


class TestStageByteBudget:
    def test_refused_before_any_allocation(self, monkeypatch):
        # stage 25 of q^-2, k = 2 reaches q = 2^25: under MAX_SIEVE, but
        # its arrays and sieve pass the byte budget
        def no_work(*args):
            raise AssertionError("allocated past the byte budget")
        monkeypatch.setattr(sy, "_stage_ball_plan", no_work)
        monkeypatch.setattr(farey, "totient_sieve", no_work)
        monkeypatch.setattr(farey, "smallest_prime_factors", no_work)
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        assert 2 ** 25 < farey.MAX_SIEVE
        with pytest.raises(ResourceCapError, match="budget"):
            sy.stage_measure_scan(sy.classical_rationals(), stage, 25, 25)

    def test_documented_stages_far_below(self):
        # criterion 2 reaches q = 2^20, the benchmark's stages 2^19
        assert sy._STAGE_BYTES_PER_Q * 2 ** 20 * 16 < sy.MAX_STAGE_BYTES
