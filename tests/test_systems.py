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

from limsuplab import cli, farey
from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import ResourceCapError, UsageError
from oracles import (exact_union_measure, gcd_cell_sweep, stage_balls,
                     window_count, window_pairs)


class TestSystems:
    def test_rationals_window(self):
        s = sy.classical_rationals()
        pairs = window_pairs(s, 1, 3)
        # q=2: 0/2, 1/2, 2/2 ; q=3: 0/3..3/3
        assert len(pairs) == 7
        assert pairs[0] == (Fraction(0), Fraction(2))
        assert pairs[2] == (Fraction(1), Fraction(2))

    def test_coprime_window(self):
        # Ford weights 8 and 18 hold the reduced halves and thirds only
        s = sy.ford_horoballs()
        pairs = window_pairs(s, 2, 18)
        assert [p for p, _ in pairs] == [Fraction(1, 2), Fraction(1, 3),
                                         Fraction(2, 3)]

    def test_ford_window(self):
        s = sy.ford_horoballs()
        pairs = window_pairs(s, 0, 8)
        assert pairs == [(Fraction(0), Fraction(2)),
                         (Fraction(1), Fraction(2)),
                         (Fraction(1, 2), Fraction(8))]

    def test_q_interval_matches_enumeration(self):
        rng = random.Random(5)
        systems = [sy.classical_rationals(), sy.ford_horoballs()]
        for _ in range(40):
            s = rng.choice(systems)
            lo = Fraction(rng.randint(0, 40), rng.randint(1, 3))
            hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 3))
            want = window_pairs(s, lo, hi)
            # the stage tests' sizing count is the listing's length
            assert window_count(s, lo, hi) == len(want), (s.kind, lo, hi)
            # every denominator of the q-range, and no other, has a point
            q_lo, q_hi = s.q_interval(lo, hi)
            power = 2 if s.kind is sy.SystemKind.FORD else 1
            assert sorted({w for _, w in want}) == \
                [power * q ** power for q in range(q_lo, q_hi + 1)]

    def test_enumeration_order_is_weight_then_point(self):
        s = sy.classical_rationals()
        pairs = window_pairs(s, 0, 4)
        assert pairs == sorted(pairs, key=lambda t: (t[1], t[0]))

    @pytest.mark.parametrize("m", [1, 10, 20])
    def test_far_past_test_at_its_edge(self, m):
        # k = 2, cap = 2^m - 1: n log2 k passes 2 log2(cap + 1) + 2 = 2m + 2
        # only from n = 2m + 3
        s, k, cap = sy.classical_rationals(), Fraction(2), 2 ** m - 1
        assert s.stage_q_top(k, 2 * m + 2, cap, "edge") == 2 ** (2 * m + 2)
        with pytest.raises(ResourceCapError) as info:
            s.stage_q_top(k, 2 * m + 3, cap, "edge")
        assert str(info.value) == ("edge needs weights up to about 2^%d, far "
                                   "past the denominator cap %d"
                                   % (2 * m + 3, cap))

    def test_weight_bit_bound_at_its_edge(self):
        # k = 3/2 spends 2 + 2 bits a stage: MAX_WEIGHT_BITS / 4 stages pass
        # the bit bound (and meet the far-past test), one more does not
        s, k = sy.classical_rationals(), Fraction(3, 2)
        n = sy.MAX_WEIGHT_BITS // 4
        with pytest.raises(ResourceCapError, match="far past"):
            s.stage_q_top(k, n, 1, "edge")
        with pytest.raises(ResourceCapError) as info:
            s.stage_q_top(k, n + 1, 1, "edge")
        assert str(info.value) == ("edge needs an exact weight k^n of up to "
                                   "%d bits (cap %d)"
                                   % (4 * n + 4, sy.MAX_WEIGHT_BITS))


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
    raw pairs, so the oracle can list it.  A positive log power makes psi
    rise over the first weights."""
    system = draw(st.sampled_from([sy.classical_rationals(),
                                   sy.ford_horoballs()]))
    k = draw(st.sampled_from([Fraction(3, 2), 2, 3, 4, 6]))
    scale = draw(st.sampled_from([1, Fraction(1, 1000)]))
    power = -draw(st.integers(1, 3))
    log_power = draw(st.sampled_from([-1, 0, 1, 3]))
    stage = sy.per_point_stage(fn.approximating(scale, power, log_power), k)
    n_hi = draw(st.integers(1, 10))
    while n_hi > 1 and (window_count(system, *stage.window(n_hi))
                        > MAX_STAGE_PAIRS):
        n_hi -= 1
    return system, stage, n_hi


def first_rise(system, stage, n, balls):
    """The first two weights of stage n over which the radius of its raw
    balls, `stage_balls(system, stage, n)`, rises, or None."""
    radius = {w: r for (_, w), (_, r) in
              zip(window_pairs(system, *stage.window(n)), balls)}
    ws = sorted(radius)
    return next(((v, w) for v, w in zip(ws, ws[1:])
                 if radius[w] > radius[v]), None)


def check_scan_brackets(system, stage, n_hi, subset_cap):
    """Scan stages 1..n_hi in each of the three SETTINGS and check every
    record against the exact oracle.  A rationals stage swept whole is
    refused exactly when its float psi rises over its weights, naming
    the first rise; the stages between refusals are scanned as ranges."""
    balls = {n: stage_balls(system, stage, n) for n in range(1, n_hi + 1)}
    exact = {n: exact_union_measure([(c - r, c + r) for c, r in b])
             for n, b in balls.items()}
    rise = ({} if system.kind is sy.SystemKind.FORD else
            {n: first_rise(system, stage, n, b) for n, b in balls.items()})
    for caps, method in SETTINGS:
        caps = {"subset_cap": subset_cap, **caps}
        full_cap = caps.get("full_cap", sy.FULL_SWEEP_CAP)
        refused = [n for n, r in rise.items()
                   if r and len({c for c, _ in balls[n]}) <= full_cap]
        records, n_lo = [], 1
        for n in refused + [n_hi + 1]:
            if n_lo < n:
                records += sy.stage_measure_scan(system, stage, n_lo, n - 1,
                                                 **caps).records
            if n in refused:
                with pytest.raises(UsageError) as info:
                    sy.stage_measure_scan(system, stage, n, n_hi, **caps)
                assert str(info.value).startswith(
                    "stage %d: psi rises from weight %d to weight %d;"
                    % (n, *rise[n]))
            n_lo = n + 1
        for rec in records:
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

    @settings(max_examples=40)
    @given(case=scan_cases(), subset_cap=st.integers(1, 300))
    # (1/1000) q^-1 (log q)^3 rises up to q = 20, so stages 2 to 5 of
    # k = 2 are refused and 1 and 6 swept; unchecked, the reduced
    # centres' union fell short of the raw union in stages 3 to 5
    @example(case=(sy.classical_rationals(), sy.per_point_stage(
        fn.parse_function("(1/1000) * r^-1 * log(r)^3"), 2), 6),
        subset_cap=40)
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

    @pytest.mark.parametrize("system", [sy.classical_rationals(),
                                        sy.ford_horoballs()])
    @pytest.mark.parametrize("k", [Fraction(3, 2), 2, 3, 6])
    def test_counts_and_pairs_match_the_oracle(self, system, k):
        # every stage up to MAX_STAGE_PAIRS raw pairs: pairs is the raw
        # balls', a Ford point's one weight makes its pairs its balls,
        # and count is the distinct reduced centres.  With k = 3/2
        # a rationals window can hold no multiple of a smaller
        # denominator (b = 2 in (9/4, 27/8]), which the plan leaves out
        stage = sy.per_point_stage(fn.approximating(power=-2), k)
        n_hi = 1
        while (window_count(system, *stage.window(n_hi + 1))
               <= MAX_STAGE_PAIRS):
            n_hi += 1
        for rec in sy.stage_measure_scan(system, stage, 1, n_hi).records:
            balls = stage_balls(system, stage, rec.n)
            assert rec.pairs == len(balls), rec
            if system.kind is sy.SystemKind.FORD:
                assert rec.pairs == rec.count, rec
            assert rec.count == len({c for c, _ in balls}), rec

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
        # the totient pass also fills the sweeps' strip table
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
        # serves the totient pass and every sweep's prime pairs,
        # and one totient pass fills the strip table the sweeps read
        calls, passes = [], []
        sieve, totients = farey.smallest_prime_factors, farey.totient_sieve
        monkeypatch.setattr(farey, "smallest_prime_factors",
                            lambda limit: calls.append(limit) or sieve(limit))

        def totient_pass(limit, spf, strip):
            passes.append((limit, strip is not None))
            return totients(limit, spf, strip)
        monkeypatch.setattr(farey, "totient_sieve", totient_pass)
        stage = sy.per_point_stage(fn.approximating(power=-3), 2)
        scan = sy.stage_measure_scan(sy.classical_rationals(), stage, 1, 12,
                                     full_cap=4_000_000, subset_cap=0)
        methods = [rec.method for rec in scan.records]
        assert methods == ["full-sweep"] * 11 + ["per-q-upper"]
        assert calls == [2 ** 12]
        assert passes == [(2 ** 12, True)]
        # stages 14 and 15 hold more than FULL_SWEEP_CAP balls each (the
        # benchmark's per-q scans): no stage sweeps, and the one pass
        # still fills the strip table
        del calls[:], passes[:]
        scan = sy.stage_measure_scan(sy.classical_rationals(), stage, 14, 15,
                                     subset_cap=0)
        assert [rec.method for rec in scan.records] == ["per-q-upper"] * 2
        assert calls == [2 ** 15]
        assert passes == [(2 ** 15, True)]

    def test_brackets_are_plain_floats(self):
        # Ford r^-1, k = 2: stages 2 and 4 are empty, the others up to 8
        # are swept in full, and stages 9 and 10 pass full_cap = 20, the
        # one swept by a subset, the other bounded per q alone
        stage = sy.per_point_stage(fn.parse_function("r^-1"), 2)
        records = (sy.stage_measure_scan(sy.ford_horoballs(), stage, 2, 9,
                                         full_cap=20, subset_cap=10).records
                   + sy.stage_measure_scan(sy.ford_horoballs(), stage, 10,
                                           10, full_cap=20,
                                           subset_cap=0).records)
        methods = [rec.method for rec in records]
        assert methods[:3] == ["empty", "full-sweep", "empty"]
        assert methods[-3:] == ["full-sweep", "subset-sweep", "per-q-upper"]
        for rec in records:
            assert type(rec.lower) is float and type(rec.upper) is float
            assert rec.value is None or type(rec.value) is float
            assert "np." not in repr(rec)


class TestStageCount:
    """A stage's reduced balls, counted off the phi table without its
    plan."""

    @staticmethod
    def plan_count(system, phi, q_lo, q_hi):
        b_vals, _ = sy._stage_ball_plan(system, q_lo, q_hi)
        return int(phi[b_vals].sum())

    @settings(max_examples=60)
    @given(k=st.sampled_from([Fraction(11, 10), Fraction(3, 2), 2,
                              Fraction(5, 2), 6]),
           n=st.integers(1, 120),
           ford=st.booleans())
    @example(k=Fraction(11, 10), n=1, ford=False)  # an empty window
    @example(k=Fraction(3, 2), n=3, ford=False)    # b = 2 left out
    def test_equals_the_plan_count(self, k, n, ford):
        system = sy.ford_horoballs() if ford else sy.classical_rationals()
        stage = sy.per_point_stage(fn.approximating(power=-2), k)
        # stage n, or the last stage below q = 2^16
        while system.q_interval(*stage.window(n))[1] > 2 ** 16:
            n -= 1
        q_lo, q_hi = system.q_interval(*stage.window(n))
        phi = farey.stage_sieve(max(q_hi, 1))[2]
        phi[1:2] = 2
        assert sy._stage_count(phi, q_lo, q_hi, ford) == \
            self.plan_count(system, phi, q_lo, q_hi)

    @settings(max_examples=60)
    @given(q_lo=st.integers(1, 3000), span=st.integers(-2, 3000))
    def test_equals_the_plan_count_on_any_window(self, q_lo, span):
        q_hi = q_lo + span
        phi = farey.stage_sieve(max(q_hi, 1))[2]
        phi[1:2] = 2
        for system in (sy.classical_rationals(), sy.ford_horoballs()):
            ford = system.kind is sy.SystemKind.FORD
            assert sy._stage_count(phi, q_lo, q_hi, ford) == \
                self.plan_count(system, phi, q_lo, q_hi)

    def test_per_q_stages_build_no_plan(self, monkeypatch):
        # the benchmark's per-q scans: no stage is swept, so none is
        # planned
        def no_plan(*args):
            raise AssertionError("plan built for a per-q stage")
        monkeypatch.setattr(sy, "_stage_ball_plan", no_plan)
        stage = sy.per_point_stage(fn.approximating(power=-3), 2)
        scan = sy.stage_measure_scan(sy.classical_rationals(), stage, 14, 15,
                                     subset_cap=0)
        assert [rec.method for rec in scan.records] == ["per-q-upper"] * 2


class TestCellEdges:
    def test_linspace_bit_for_bit(self):
        # every cell count up to 1,000, then a sample up to 10^4
        counts = list(range(1, 1001))
        counts += random.Random(40).sample(range(1001, 10 ** 4), 60)
        for ncells in counts + [10 ** 4]:
            edges = np.array(sy._cell_edges(ncells))
            assert edges.view(np.int64).tolist() == \
                np.linspace(0.0, 1.0, ncells + 1).view(np.int64).tolist()


def swept(sweep, plan):
    """(float.hex, ball count) of a sweep over plan, or its refusal."""
    try:
        value, count = sweep(*plan)
    except ResourceCapError:
        return "refused"
    return value.hex(), count


def cell_sweep(b_vals, radii):
    """`systems._cell_sweep` over a least-prime table and a strip table
    reaching max(b_vals), as a scan hands them."""
    spf, strip, _ = farey.stage_sieve(int(b_vals.max(initial=1)))
    return sy._cell_sweep(b_vals, radii, spf, strip)


def assert_twins(plan):
    assert swept(cell_sweep, plan) == swept(gcd_cell_sweep, plan)


def ball_plan(system, stage, n):
    """(b_vals, radii) of stage n: the plan's denominators and the radii
    of its weights, as the scan sweeps them."""
    b_vals, weights = sy._stage_ball_plan(
        system, *system.q_interval(*stage.window(n)))
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

    @settings(max_examples=150)
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

    @settings(max_examples=60)
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
        # so a and b are far from the row index
        stage = sy.per_point_stage(fn.parse_function("r^-1"), 2)
        plan = ball_plan(sy.ford_horoballs(), stage, n)
        assert plan[0][0] > 500
        assert_twins(plan)

    def test_many_cell_plan_bit_for_bit(self):
        # stage 4 of q^-2, k = 5 (625 rows) in dozens of cells, each with
        # its own window of candidates per row
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
        # for the rows).  A code is (row << wb) | a below 2^ib, ib =
        # bitlen(rows - 1) + wb: the denominators are distinct and inside
        # the least-prime table, so b <= MAX_SIEVE, rows <= MAX_SIEVE and
        # a <= b, wb = bitlen(max b); a scan's plan stops at the q_hi its
        # byte budget admits
        def ib(rows):
            return farey.BallRows(range(rows), None, rows.bit_length()).ib
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
        # the totient pass, which also fills the strip table
        monkeypatch.setattr(farey, "totient_sieve", no_work)
        monkeypatch.setattr(farey, "smallest_prime_factors", no_work)
        stage = sy.per_point_stage(fn.approximating(power=-2), 2)
        assert 2 ** 25 < farey.MAX_SIEVE
        with pytest.raises(ResourceCapError, match="budget"):
            sy.stage_measure_scan(sy.classical_rationals(), stage, 25, 25)

    def test_budget_edge(self, monkeypatch, tmp_path, capsys):
        # the per-q scan of q^-3, k = 2, n = 16 reaches q = 2^16, 6 MB:
        # passed at that budget, refused (exit 2) a byte under it
        q_top = sy.classical_rationals().stage_q_top(Fraction(2), 16,
                                                     farey.MAX_SIEVE, "")
        assert q_top == 2 ** 16
        argv = ["stage-scan", "--psi", "r^-3", "--k", "2", "--n-lo", "16",
                "--n-hi", "16", "--subset-cap", "0",
                "--output", str(tmp_path / "s.csv")]
        budget = sy._STAGE_BYTES_PER_Q * q_top
        monkeypatch.setattr(sy, "MAX_STAGE_BYTES", budget)
        assert cli.main(argv) == 0
        monkeypatch.setattr(sy, "MAX_STAGE_BYTES", budget - 1)
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "resource cap: stage 16 needs about 6 MB for denominators up to "
            "65536 (budget 5 MB)\n")

    def test_documented_stages_far_below(self):
        # criterion 2 reaches q = 2^20, the benchmark's stages 2^19
        assert sy._STAGE_BYTES_PER_Q * 2 ** 20 * 16 < sy.MAX_STAGE_BYTES
