"""Uniform-stage ratio tests: the exact engine against the exact union
oracle, the covering-constant examples (one ball and stage at a time
through `oracles.ubiquity_ratio`), and the trends of the natural cover
sum in `oracles`."""

import bisect
import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import limsuplab.farey as farey
import limsuplab.functions as fn
import limsuplab.systems as sy
import limsuplab.ubiquity as ub
from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError)
from oracles import (exact_union_measure, natural_cover_sum, ubiquity_ratio,
                     window_pairs)

RHO_LEMMA = fn.approximating(6, -2)          # 6/r^2 -> rho(k^n) = 6^(1-2n)
HALF = Fraction(1, 2)
FULL_BALL = (HALF, HALF)                  # B = [0, 1]


def oracle_ratio(system, rho, k, n, ball):
    """Reference value from the raw uniform-stage balls: every pair of
    weight <= k^n, each with the common radius rho(k^n)."""
    top = Fraction(k) ** n
    s = fn.evaluate_rational(rho, top)
    c, r = ball
    return exact_union_measure([(x - s, x + s)
                                for x, _ in window_pairs(system, 0, top)],
                               c - r, c + r) / (2 * r)


# -- engine internals --------------------------------------------------------

def test_engine_blocks_by_hand():
    # F_3 = 0, 1/3, 1/2, 2/3, 1 with gaps 1/3, 1/6, 1/6, 1/3; radius 1/10
    # merges only the middle two gaps
    eng = ub.UniformStageEngine(3, Fraction(1, 10))
    assert eng.block_count == 3
    assert eng.union_measure(Fraction(0), Fraction(1)) == Fraction(11, 15)
    # ball inside the merged middle block
    assert eng.union_measure(Fraction(2, 5), Fraction(3, 5)) == Fraction(1, 5)
    # ball inside a surviving gap
    assert eng.union_measure(Fraction(11, 90), Fraction(2, 9)) == 0


def test_engine_empty_cases():
    assert ub.UniformStageEngine(0, Fraction(1, 4)).union_measure(
        Fraction(0), Fraction(1)) == 0
    assert ub.UniformStageEngine(5, Fraction(0)).union_measure(
        Fraction(0), Fraction(1)) == 0


def test_engine_full_merge():
    # radius 1 swallows every gap: one block covering [0,1] and beyond
    eng = ub.UniformStageEngine(2, Fraction(1))
    assert eng.block_count == 1
    assert eng.union_measure(Fraction(0), Fraction(1)) == 1


@pytest.mark.parametrize("q_max,rad", [
    (7, Fraction(1, 50)), (12, Fraction(1, 100)), (20, Fraction(1, 337)),
    (36, Fraction(1, 216)), (25, Fraction(3, 1000)),
])
def test_engine_matches_interval_oracle(q_max, rad):
    nums, dens = farey.reduced_fractions(q_max)
    centers = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    balls = [(c - rad, c + rad) for c in centers]
    eng = ub.UniformStageEngine(q_max, rad)
    for lo, hi in [(Fraction(0), Fraction(1)), (Fraction(1, 7), Fraction(2, 3)),
                   (Fraction(1, 3), Fraction(5, 12)), (Fraction(9, 10), Fraction(1))]:
        assert eng.union_measure(lo, hi) == exact_union_measure(balls, lo, hi)


# a query end: an int indexes the sorted block edges, a Fraction is free
QUERY_END = st.one_of(st.integers(min_value=0),
                      st.fractions(Fraction(-1, 4), Fraction(5, 4),
                                   max_denominator=97))


def both_builders(q_max, radius):
    """The stage's engine built from its open gaps, then from F_Q."""
    engines = []
    for lattice in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ub, "_lattice_is_cheaper",
                       lambda q, theta, pick=lattice: pick)
            engines.append(ub.UniformStageEngine(q_max, radius))
    return engines


# radius 1/den: den > 2 q_max^2 joins no gap, den <= 2 joins every gap
# (den = 1 has theta = 1), 10^30 has theta clamped from 5 10^29, and the
# range between joins some gaps only
RADIUS_DEN = st.one_of(st.integers(1, 4 * 60 * 60), st.just(10 ** 30))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(q_max=st.integers(1, 60), den=RADIUS_DEN)
@example(q_max=1, den=1)            # F_1, theta = 1: one block [0, 1]
@example(q_max=1, den=3)            # F_1's one open gap 0/1, 1/1
@example(q_max=60, den=10 ** 30)    # every gap open
@example(q_max=60, den=2)           # every gap joined
def test_builders_give_the_same_blocks(q_max, den):
    lattice, full = both_builders(q_max, Fraction(1, den))
    for name in ("_starts", "_merged", "_ends"):
        assert getattr(lattice, name).tolist() == \
            getattr(full, name).tolist(), name
    # the blocks against the joined gaps of F_Q, by the gap formula
    nums, dens = farey.reduced_fractions(q_max)
    points = [(int(a), int(b)) for a, b in zip(nums, dens)]
    opened = [b * b2 * 2 < den for (_, b), (_, b2) in zip(points, points[1:])]
    assert lattice.block_count == 1 + sum(opened)
    starts = [points[0]] + [p for p, o in zip(points[1:], opened) if o]
    assert [farey.unpack_keys(k, q_max) for k in lattice._starts.tolist()] \
        == starts


def test_builders_agree_across_key_blocks():
    # F_700's keys span three farey.BLOCKs, and at radius 2/700^2 the gap
    # before each block edge is joined, so the F_Q builder carries a
    # merged block across both edges of its compaction
    q_max, radius = 700, Fraction(2, 700 ** 2)
    keys = farey.farey_keys(q_max)
    den = (keys & ((1 << q_max.bit_length()) - 1)).tolist()
    edges = range(farey.BLOCK, len(keys), farey.BLOCK)
    assert len(keys) == 149_019 and len(edges) == 2
    # a gap 1/(b b') is joined when the two balls of radius r meet it
    assert all(2 * radius * den[e - 1] * den[e] >= 1 for e in edges)
    lattice, full = both_builders(q_max, radius)
    for name in ("_starts", "_merged", "_ends"):
        assert getattr(lattice, name).tolist() == \
            getattr(full, name).tolist(), name


def test_one_block_below_theta_one():
    # theta <= 1 joins every gap: the stage is [0 - r, 1 + r]
    for q_max in (1, 2, 7):
        for eng in both_builders(q_max, Fraction(1, 2)):
            assert eng.block_count == 1
            assert eng.union_measure(Fraction(-5), Fraction(5)) == 2
            assert eng.union_measure(Fraction(1, 3), Fraction(1, 2)) == \
                Fraction(1, 6)


def test_q_one_has_one_open_gap():
    rad = Fraction(1, 10)
    for eng in both_builders(1, rad):
        assert eng.block_count == 2 and len(eng._merged) == 0
        assert eng.union_measure(Fraction(-1), Fraction(2)) == 4 * rad
        assert eng.union_measure(Fraction(1, 2), Fraction(3, 4)) == 0


def test_tiny_radius_is_clamped_before_int64():
    # theta = 5 10^29 is past int64; clamped to q_max^2 + 1 it opens
    # every gap
    q_max, rad = 30, Fraction(1, 10 ** 30)
    points = 1 + int(farey.totient_sieve(q_max)[1:].sum())
    for eng in both_builders(q_max, rad):
        assert eng.block_count == points
        assert eng.union_measure(Fraction(0), Fraction(1)) == \
            (2 * points - 2) * rad


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(q_max=st.integers(1, 60), den=RADIUS_DEN,
       picks=st.lists(st.tuples(QUERY_END, QUERY_END), max_size=6))
@example(q_max=12, den=1000, picks=[])       # no merging
@example(q_max=12, den=150, picks=[])        # partial merging
@example(q_max=12, den=2, picks=[])          # one block
@example(q_max=12, den=10 ** 30, picks=[])   # theta clamped
def test_engine_union_measure_property(q_max, den, picks):
    rad = Fraction(1, den)
    nums, dens = farey.reduced_fractions(q_max)
    centers = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    balls = [(c - rad, c + rad) for c in centers]
    engines = both_builders(q_max, rad)
    edges = sorted({c + s * rad for c in centers for s in (-1, 1)})

    def end(x):
        return edges[x % len(edges)] if isinstance(x, int) else x

    # whole stage, ends beyond [0, 1], a middle block edge
    fixed = [edges[0], edges[-1], edges[len(edges) // 2],
             Fraction(-1, 4), Fraction(5, 4), Fraction(0), Fraction(1)]
    queries = [(a, b) for a in fixed for b in fixed if a < b]
    queries += [tuple(sorted((end(a), end(b)))) for a, b in picks]
    # wholly outside [0, 1]
    queries += [(Fraction(-3, 2), Fraction(-5, 4)), (Fraction(3, 2), 2)]
    joined = [b - a <= 2 * rad for a, b in zip(centers, centers[1:])]
    # both ends inside merged blocks: midpoints of the first and last
    # joined gaps
    mids = [(centers[i] + centers[i + 1]) / 2
            for i, j in enumerate(joined) if j]
    if len(mids) > 1:
        queries.append((mids[0], mids[-1]))
    # l = r_ inside one block: a window that only ball i reaches
    for i in range(1, len(centers) - 1):
        room = centers[i + 1] - centers[i - 1] - 2 * rad
        if joined[i - 1] and joined[i] and room > 0:
            mid = (centers[i - 1] + centers[i + 1]) / 2
            queries.append((mid - room / 4, mid + room / 4))
            break
    for lo, hi in queries:
        want = exact_union_measure(balls, lo, hi)
        for eng in engines:
            assert eng.union_measure(lo, hi) == want, (lo, hi)


class Int64Search(np.ndarray):
    """Keys whose search refuses a value outside int64, which numpy would
    meet by casting every key to a Python int."""

    def searchsorted(self, v, *args, **kwargs):
        assert -2 ** 63 <= v < 2 ** 63, v
        return super().searchsorted(v, *args, **kwargs)


# at scale 1 the query is reduced, above it the engine sees the
# unreduced pairs that union_measure forms
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(q_max=st.integers(1, 60), pick=st.integers(min_value=0),
       scale=st.integers(1, 10 ** 30))
@example(q_max=1, pick=0, scale=1)
@example(q_max=60, pick=1, scale=7)
def test_rank_matches_brute_count(q_max, pick, scale):
    # a radius that joins no gap: every centre starts a block
    eng = ub.UniformStageEngine(q_max, Fraction(1, 2 * q_max ** 2 + 2))
    eng._starts = eng._starts.view(Int64Search)
    nums, dens = farey.reduced_fractions(q_max)
    centers = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    c = centers[pick % len(centers)]
    # unit = 2^(-2 db) is a key floor's width, tiny less than any gap
    # between a centre and the end of its floor
    db = q_max.bit_length()
    unit = Fraction(1, 2 ** (2 * db))
    tiny = unit / 2 ** (db + 1)
    floor = c // unit * unit
    beside = [c + tiny, floor + unit - tiny, floor]
    if c != floor:
        beside.append(c - tiny)
    assert all(x // unit == c // unit for x in beside)
    points = [c, c - unit, c + unit, *beside,
              Fraction(-1, 10 ** 400), 1 + Fraction(1, 10 ** 400),
              Fraction(-10 ** 400), Fraction(10 ** 400), Fraction(-3, 2), 2]
    for x in points:
        x = Fraction(x)
        # inside 0 counts the centres below x, inside 1 those at most x
        for inside in (0, 1):
            want = sum(y < x if inside == 0 else y <= x for y in centers)
            assert eng._rank(x.numerator * scale, x.denominator * scale,
                             inside) == want, (x, inside)


def merged_point(eng, i, where):
    """The first centre, the midpoint of first and last, or the last centre
    (where = 0, 1, 2) of merged block i: a query end there puts block i at
    that end of the query's merged range."""
    first = Fraction(*farey.unpack_keys(eng._starts.item(eng._merged.item(i)),
                                        eng.q_max))
    last = Fraction(*farey.unpack_keys(eng._ends.item(i), eng.q_max))
    return (first, (first + last) / 2, last)[where]


# q_max 96..120 (chunks of K = 128 merged blocks) with radius 1/(f q^2),
# f from 0.6 to 1.1, joins enough gaps for 3 to 7 chunks
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(q_max=st.integers(96, 120), f=st.integers(60, 110),
       edge=st.integers(min_value=0), where=st.tuples(*[st.integers(0, 2)] * 2),
       picks=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(min_value=0)), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(q_max=96, f=60, edge=0, where=(0, 2), picks=[], seed=0)
@example(q_max=120, f=80, edge=6, where=(1, 1), picks=[], seed=1)
def test_span_sums_of_a_batch_across_chunks(q_max, f, edge, where, picks,
                                            seed):
    rad = Fraction(100, f * q_max * q_max)
    eng = ub.UniformStageEngine(q_max, rad)
    chunk, merged = 1 << q_max.bit_length(), len(eng._merged)
    assert merged >= 3 * chunk
    nums, dens = farey.reduced_fractions(q_max)
    centers = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    balls = [(c - rad, c + rad) for c in centers]

    def oracle(lo, hi):
        # only the balls that can meet [lo, hi]; the oracle clips the rest
        return exact_union_measure(
            balls[bisect.bisect_left(centers, lo - rad):
                  bisect.bisect_right(centers, hi + rad)], lo, hi)

    # merged ranges [m_lo, m_hi): one end on a chunk edge or either side of
    # it, one inside one chunk, one across every chunk, and drawn ones
    c = edge % (merged // chunk + 1) * chunk
    ranges = [(0, merged), (c + 1, min(c + chunk - 1, merged))]
    for at in (c - 1, c, c + 1):
        ranges += [(at, merged), (0, at), (at, (at + merged) // 2)]
    ranges += [tuple(sorted((a % merged, b % merged))) for a, b in picks]
    ranges = [(lo, hi) for lo, hi in ranges if 0 <= lo < hi <= merged]
    # the merged ranges the engine buckets, one call per segment
    seen = []
    numerator_sums = eng._numerator_sums
    eng._numerator_sums = lambda i, j: (seen.append((i, j)),
                                        numerator_sums(i, j))[1]
    queries = []
    for m_lo, m_hi in ranges:
        lo = merged_point(eng, m_lo, where[0])
        hi = merged_point(eng, m_hi - 1, where[1])
        if lo < hi:
            seen.clear()
            assert eng.union_measure(lo, hi) == oracle(lo, hi), (m_lo, m_hi)
            assert seen == [(m_lo, m_hi)]
            queries.append((lo, hi))
    # windows that meet no merged block, around a one-point block and
    # inside an open gap, bucket nothing, alone or next to [0, 1]
    single = next(b for b in range(eng.block_count)
                  if b not in set(eng._merged.tolist()))
    point = Fraction(*farey.unpack_keys(eng._starts.item(single), q_max))
    gap = next(i for i in range(len(centers) - 1)
               if centers[i + 1] - centers[i] > 2 * rad)
    mid = (centers[gap] + centers[gap + 1]) / 2
    room = centers[gap + 1] - centers[gap] - 2 * rad
    apart = [(point - rad / 2, point + rad / 3),
             (mid - room / 4, mid + room / 4)]
    whole = (Fraction(0), Fraction(1))
    seen.clear()
    assert eng.union_measures(apart) == [oracle(lo, hi) for lo, hi in apart]
    assert seen == []
    assert eng.union_measures([whole] + apart) == \
        [oracle(lo, hi) for lo, hi in [whole] + apart]
    assert seen == [(0, merged)]
    # a batch answers as its intervals one at a time, shuffled, with
    # repeats and with hi <= lo, and buckets each merged block once
    batch = (queries + apart + [whole] + queries[:3]
             + [(hi, lo) for lo, hi in queries[:2]] + [(point, point)])
    random.Random(seed).shuffle(batch)
    seen.clear()
    got = eng.union_measures(batch)
    assert seen[0][0] == 0 and seen[-1][1] == merged
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    assert got == [eng.union_measure(lo, hi) for lo, hi in batch]


# a Ford stage, whose blocks are all single points, and two stages of
# 6 r^-2 with k = 5 (F_25 and F_125), which have merged blocks
ALONE_STAGES = {
    "ford": (sy.ford_horoballs(), fn.parse_function("r^-1"), 6, 5),
    "rational-2": (sy.classical_rationals(), RHO_LEMMA, 5, 2),
    "rational-3": (sy.classical_rationals(), RHO_LEMMA, 5, 3),
}


@functools.cache
def alone_stage(name):
    """(engine, centres, radius, ends, gap): the stage's engine, its
    centres in order, its radius, the query ends worth drawing (every
    centre and ball edge, so every block edge) and a window inside its
    widest open gap."""
    system, rho, k, n = ALONE_STAGES[name]
    q_max = ub._uniform_q_max(system, Fraction(k), n)
    rad = ub._uniform_radius(rho, Fraction(k), n)
    nums, dens = farey.reduced_fractions(q_max)
    centers = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    ends = sorted({c + s * rad for c in centers for s in (-1, 0, 1)})
    a, b = max(zip(centers, centers[1:]), key=lambda ab: ab[1] - ab[0])
    room = b - a - 2 * rad
    assert room > 0
    gap = ((a + b - room / 2) / 2, (a + b + room / 2) / 2)
    return ub.UniformStageEngine(q_max, rad), centers, rad, ends, gap


@functools.cache
def alone_oracle(name, lo, hi):
    """The exact union in [lo, hi] of the stage's balls that can meet it."""
    _, centers, rad, _, _ = alone_stage(name)
    near = centers[bisect.bisect_left(centers, lo - rad):
                   bisect.bisect_right(centers, hi + rad)]
    return exact_union_measure([(c - rad, c + rad) for c in near], lo, hi)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(ALONE_STAGES)),
       picks=st.lists(st.tuples(QUERY_END, QUERY_END), min_size=1,
                      max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(name="ford", picks=[(0, 1)], seed=0)
@example(name="rational-3", picks=[(5, 5), (9, 3)], seed=1)
def test_query_alone_equals_its_batch(name, picks, seed):
    # a query answered alone, which skips the span sweep when it meets no
    # merged block, equals its answer inside a shuffled batch and the
    # exact union of the balls that can meet it
    eng, _, _, ends, gap = alone_stage(name)

    def end(x):
        return ends[x % len(ends)] if isinstance(x, int) else x

    # drawn ends in either order, so hi <= lo too, and ends outside
    # [0, 1]; [0, 1] itself, a window past both its ends, the window
    # reversed and one inside an open gap, which meets no block
    batch = [(end(a), end(b)) for a, b in picks]
    batch += [(Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(3, 2)),
              (Fraction(1), Fraction(0)), gap]
    random.Random(seed).shuffle(batch)
    parts = [eng._outside_spans(lo, hi) for lo, hi in batch]
    assert any(m_lo == m_hi for _, _, m_lo, m_hi in parts)
    assert any(m_lo < m_hi for _, _, m_lo, m_hi in parts) == (name != "ford")
    got = eng.union_measures(batch)
    for (lo, hi), measure in zip(batch, got):
        assert eng.union_measure(lo, hi) == measure == \
            alone_oracle(name, lo, hi), (lo, hi)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(terms=st.lists(st.tuples(st.integers(1 - 2 ** 40, 2 ** 40 - 1),
                                st.integers(1, 8192)), max_size=40))
@example(terms=[])
@example(terms=[(-7, 12)])
@example(terms=[(3, 4), (-5, 6), (0, 9)])
@example(terms=[(1, 2), (-1, 3), (5, 6), (-7, 12)])
@example(terms=[(b % 7 - 3, b) for b in range(1, 8193)])
def test_fraction_sum_matches_fraction_arithmetic(terms):
    nums = np.array([n for n, _ in terms], dtype=np.int64)
    dens = np.array([d for _, d in terms], dtype=np.int64)
    num, den = ub._fraction_sum(nums, dens)
    assert Fraction(num, den) == sum((Fraction(n, d) for n, d in terms),
                                     Fraction(0))
    # the tree's denominator is the lcm of the terms', not their product
    assert den == math.lcm(*dens.tolist())
    assert dens.tolist() == [d for _, d in terms]


def stage(system, rho, k, n):
    """(q_max, radius, theta) of a uniform stage."""
    q_max = ub._uniform_q_max(system, Fraction(k), n)
    radius = ub._uniform_radius(rho, Fraction(k), n)
    rn, rd = radius.numerator, radius.denominator
    return q_max, radius, min(-(-rd // (2 * rn)), q_max ** 2 + 1)


def test_builder_choice():
    # the benchmark's Ford stage joins no gap: 1.26M lattice points in the
    # half-region against 1.53M Farey points, so it keeps F_Q's keys
    q_max, _, theta = stage(sy.ford_horoballs(), fn.approximating(1, -1),
                            6, 9)
    assert (q_max, theta) == (2244, 2244 ** 2 + 1)
    assert int(ub._open_gap_rows(q_max, theta)[2].sum()) == 1_260_006
    assert not ub._lattice_is_cheaper(q_max, theta)
    # criterion 1's largest stage at k = 5: 74,398 lattice points, half
    # of them with b <= b'
    q_max, _, theta = stage(sy.classical_rationals(), RHO_LEMMA, 5, 5)
    assert (q_max, theta) == (3125, 813_803)
    assert int(ub._open_gap_rows(q_max, theta)[2].sum()) == 74_398 // 2
    assert ub._lattice_is_cheaper(q_max, theta)


def test_largest_readme_stage_builds_without_f_q(monkeypatch):
    # k = 6, n = 5: F_7776 has 18,380,897 points in 280,151 blocks, and
    # the engine lists the 280,150 open gaps alone
    def no_farey(*args):
        raise AssertionError("F_Q built")
    monkeypatch.setattr(farey, "farey_keys", no_farey)
    q_max, radius, theta = stage(sy.classical_rationals(), RHO_LEMMA, 6, 5)
    eng = ub.UniformStageEngine(q_max, radius)
    assert (q_max, eng.block_count) == (7776, 280_151)
    # [0, 1] less the uncovered 1/(bb') - 2r of every open gap, summed
    # in floats over the coprime (b, b') with b, b' <= Q < b + b' and
    # bb' < theta
    uncovered = 0.0
    for b in range(1, q_max + 1):
        b2 = np.arange(q_max + 1 - b, q_max + 1)
        b2 = b2[(b * b2 < theta) & (np.gcd(b, b2) == 1)]
        uncovered += float(np.sum(1.0 / (b * b2) - 2 * float(radius)))
    got = eng.union_measure(Fraction(0), Fraction(1))
    assert abs(float(got) - (1 - uncovered)) < 1e-9


def test_corrupted_gap_is_refused(monkeypatch):
    # one wrong numerator breaks a'b - ab' = 1 for its pair
    minus_inverse = ub._minus_inverse

    def off_by_one(b, b2):
        a = minus_inverse(b, b2)
        a[len(a) // 2] += 1
        return a
    monkeypatch.setattr(ub, "_minus_inverse", off_by_one)
    # criterion 1's stage k = 6, n = 3 is built from its open gaps
    q_max, radius, theta = stage(sy.classical_rationals(), RHO_LEMMA, 6, 3)
    assert ub._lattice_is_cheaper(q_max, theta)
    with pytest.raises(InternalInvariantError, match="no open Farey gap"):
        ub.UniformStageEngine(q_max, radius)


def test_repeated_gaps_are_refused(monkeypatch):
    # every row listed twice: each pair checks out, the blocks do not
    rows = ub._open_gap_rows
    monkeypatch.setattr(ub, "_open_gap_rows", lambda q, theta: tuple(
        np.concatenate((x, x)) for x in rows(q, theta)))
    with pytest.raises(InternalInvariantError, match="do not order"):
        ub._lattice_blocks(216, 3888)


def test_packed_keys_fit_int64_up_to_the_cap():
    # keys over [0, 1] stay below 2^(3 db + 1), 2^43 at MAX_UNIFORM_Q
    db = ub.MAX_UNIFORM_Q.bit_length()
    assert 3 * db + 1 <= 63
    assert farey.packed_keys(1, 1, ub.MAX_UNIFORM_Q) < 2 ** 43


def test_span_sums_fit_int64_up_to_the_cap():
    # merged blocks M < |F_Q| and Q <= 2^13: a segment's coef is below
    # M Q < 2^38, a float64 bincount of a chunk of K numerators <= Q stays
    # at or below 2^27, and the first int64 level of _fraction_sum,
    # n1 (d2 / g) + n2 (d1 / g) with d1, d2 <= Q, stays below 2^54
    q = ub.MAX_UNIFORM_Q
    points = 1 + int(farey.totient_sieve(q)[1:].sum())
    chunk = 1 << q.bit_length()
    assert points < 2 ** 25 and q <= 2 ** 13 and chunk <= 2 ** 14
    assert points * q < 2 ** 38
    assert chunk * q <= 2 ** 27 < 2 ** 53
    assert 2 * points * q * q < 2 ** 54


def test_ford_engine_matches_per_denominator_count():
    # Ford stage rho = r^-1, k = 6, n = 6: 2q^2 <= 6^6 gives q <= 152,
    # and 2 rho(6^6) = 2/6^6 < 1/(152 * 151), the smallest Farey gap, so
    # the balls are disjoint and every block is one point
    system, k, n = sy.ford_horoballs(), Fraction(6), 6
    q_max = ub._uniform_q_max(system, k, n)
    rad = ub._uniform_radius(fn.approximating(1, -1), k, n)
    assert (q_max, rad) == (152, Fraction(1, 6 ** 6))
    eng = ub.UniformStageEngine(q_max, rad)
    assert eng.block_count == 1 + int(farey.totient_sieve(q_max)[1:].sum())

    def per_denominator(lo, hi):
        total = Fraction(0)
        for b in range(1, q_max + 1):
            for a in range(max(0, math.ceil((lo - rad) * b)),
                           min(b, math.floor((hi + rad) * b)) + 1):
                if math.gcd(a, b) == 1:
                    c = Fraction(a, b)
                    total += max(min(c + rad, hi) - max(c - rad, lo), 0)
        return total

    rng = random.Random(11)
    queries = [(Fraction(0), Fraction(1)), (Fraction(1, 3) - rad / 2,
                                            Fraction(1, 2) + rad / 3)]
    for _ in range(6):
        c = Fraction(rng.randrange(1, 10 ** 6), 10 ** 6)
        r = min(c, 1 - c, Fraction(rng.randrange(1, 2000), 10 ** 4))
        queries.append((c - r, c + r))
    for lo, hi in queries:
        assert eng.union_measure(lo, hi) == per_denominator(lo, hi)


def test_engine_memory_is_one_word_per_point():
    # Ford stage rho = r^-1, k = 6, n = 9 (F_2244) merges no gap: the
    # engine keeps F_Q's packed keys alone as its block starts (numerator
    # and denominator both come off the key), and the merged blocks hold
    # nothing
    system, k, n = sy.ford_horoballs(), Fraction(6), 9
    eng = ub.UniformStageEngine(ub._uniform_q_max(system, k, n),
                                ub._uniform_radius(fn.approximating(1, -1), k, n))
    points = 1 + int(farey.totient_sieve(eng.q_max)[1:].sum())
    assert eng.block_count == points
    held = sum(v.nbytes for v in vars(eng).values()
               if isinstance(v, np.ndarray))
    assert held <= 8 * points
    # with merging, only the merged blocks add to that
    eng = ub.UniformStageEngine(eng.q_max, Fraction(1, 10 ** 6))
    merged = 1 + int(farey.totient_sieve(eng.q_max)[1:].sum()) - eng.block_count
    assert merged > 0
    held = sum(v.nbytes for v in vars(eng).values()
               if isinstance(v, np.ndarray))
    assert held <= 8 * points + 16 * merged


def test_span_sweep_peak_memory():
    # the README's F_7776 stage: a [0, 1] query buckets all its merged
    # blocks a chunk at a time, peaking at most at one word per merged
    # block plus 2(Q + 1), and leaves the engine's arrays as they were
    q_max, radius, _ = stage(sy.classical_rationals(), RHO_LEMMA, 6, 5)
    eng = ub.UniformStageEngine(q_max, radius)
    merged = len(eng._merged)
    assert merged == 144_584

    def held():
        return sum(v.nbytes for v in vars(eng).values()
                   if isinstance(v, np.ndarray))
    before = held()
    tracemalloc.start()
    try:
        eng.union_measure(Fraction(0), Fraction(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (merged + 2 * (q_max + 1)), peak
    assert held() == before


def test_engine_build_peak_memory():
    # the bound: the keys of F_2244 (8 bytes per point), the prime-struck
    # mask of the left half, a byte per point and a few blocks of
    # temporaries.  The build stays inside it with no merged gap, from
    # F_Q with 272,740 merged blocks (radius 1/(3 10^6)), whose edges are
    # listed after the mask is freed, and from the few open gaps at
    # radius 10^-6
    q_max = 2244
    points = 1 + int(farey.totient_sieve(q_max)[1:].sum())
    bound = (8 * points + (q_max + 1) * (q_max // 2 + 1) + points + 1
             + 8 * 8 * farey.BLOCK)
    for radius in (Fraction(1, 6 ** 9), Fraction(1, 3 * 10 ** 6),
                   Fraction(1, 10 ** 6)):
        tracemalloc.start()
        try:
            eng = ub.UniformStageEngine(q_max, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(eng._starts) == eng.block_count <= points
        assert peak <= bound, (radius, peak, bound)


# -- ubiquity_ratio ----------------------------------------------------------

def test_lemma_configuration_full_interval():
    ratio = ubiquity_ratio(sy.classical_rationals(), RHO_LEMMA, 6, 3,
                              FULL_BALL)
    assert ratio >= HALF
    assert ratio == oracle_ratio(sy.classical_rationals(), RHO_LEMMA, 6, 3,
                                 FULL_BALL)


def test_ratio_exact_against_oracle_small_stages():
    ball = (Fraction(3, 10), Fraction(1, 5))
    for system in (sy.classical_rationals(), sy.ford_horoballs()):
        for n in (1, 2):
            got = ubiquity_ratio(system, RHO_LEMMA, 6, n, ball)
            assert got == oracle_ratio(system, RHO_LEMMA, 6, n, ball)


def test_giant_radius_covers_everything():
    rho = fn.approximating(4, -1)            # rho(2) = 2 >= 1
    assert ubiquity_ratio(sy.classical_rationals(), rho, 2, 1,
                             FULL_BALL) == 1


def test_ratio_monotone_in_radius():
    slim = fn.approximating(Fraction(6, 10), -2)     # rho / 10
    for ball in [FULL_BALL, (Fraction(1, 4), Fraction(1, 8)),
                 (Fraction(13, 16), Fraction(1, 16))]:
        for n in (2, 3):
            small = ubiquity_ratio(sy.classical_rationals(), slim, 6, n, ball)
            big = ubiquity_ratio(sy.classical_rationals(), RHO_LEMMA, 6, n, ball)
            assert small <= big


def test_ratio_additive_under_halving():
    c, r = Fraction(2, 5), Fraction(3, 16)
    whole = ubiquity_ratio(sy.classical_rationals(), RHO_LEMMA, 6, 3, (c, r))
    left = ubiquity_ratio(sy.classical_rationals(), RHO_LEMMA, 6, 3,
                             (c - r / 2, r / 2))
    right = ubiquity_ratio(sy.classical_rationals(), RHO_LEMMA, 6, 3,
                              (c + r / 2, r / 2))
    assert whole == (left + right) / 2    # equal half-measures average exactly


def test_ratio_validation():
    sysr = sy.classical_rationals()
    with pytest.raises(UsageError):
        ubiquity_ratio(sysr, RHO_LEMMA, 1, 3, FULL_BALL)
    with pytest.raises(UsageError):
        ubiquity_ratio(sysr, RHO_LEMMA, 6, 3, (Fraction(9, 10), Fraction(1, 5)))
    with pytest.raises(UsageError):
        ubiquity_ratio(sysr, RHO_LEMMA, 6, 3, (HALF, Fraction(0)))
    with pytest.raises(UsageError):
        ubiquity_ratio(sysr, RHO_LEMMA, 6, 3, (HALF, Fraction(3, 4)))
    with pytest.raises(UsageError):
        ubiquity_ratio(sysr, fn.approximating(1, -2, -1), 6, 3, FULL_BALL)


def test_ratio_resource_cap():
    with pytest.raises(ResourceCapError):
        ubiquity_ratio(sy.classical_rationals(), RHO_LEMMA, 6, 6, FULL_BALL)
    with pytest.raises(ResourceCapError):
        ubiquity_ratio(sy.classical_rationals(), RHO_LEMMA, 6, 3, FULL_BALL,
                          q_cap=100)


# -- estimate_kappa ----------------------------------------------------------

def test_kappa_lemma_band():
    balls = [(Fraction(1, 4), Fraction(1, 8)), (HALF, Fraction(1, 10)),
             (Fraction(7, 10), Fraction(1, 5))]
    reports = ub.estimate_kappa(sy.classical_rationals(), RHO_LEMMA, 6,
                                balls, range(2, 4))
    assert len(reports) == 3
    for rep in reports:
        assert rep.kappa_hat >= HALF
        assert rep.n_min == 2
        assert [n for n, _ in rep.per_n] == [2, 3]
    assert ub.empirical_kappa(reports) == min(r.kappa_hat for r in reports)


def test_kappa_shrunk_radius_never_increases_ratios():
    balls = [(HALF, Fraction(1, 4)), (Fraction(1, 3), Fraction(1, 6))]
    slim = fn.approximating(Fraction(6, 10), -2)
    big = ub.estimate_kappa(sy.classical_rationals(), RHO_LEMMA, 6, balls, [2, 3])
    small = ub.estimate_kappa(sy.classical_rationals(), slim, 6, balls, [2, 3])
    for rb, rs in zip(big, small):
        for (n1, v1), (n2, v2) in zip(rb.per_n, rs.per_n):
            assert n1 == n2 and v2 <= v1


def test_kappa_empty_inputs(monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("engine built before the checks")
    monkeypatch.setattr(ub, "UniformStageEngine", no_engine)
    for n_range in ([], [0, 2], range(3, 3), range(-10 ** 9, 3)):
        with pytest.raises(UsageError):
            ub.estimate_kappa(sy.classical_rationals(), RHO_LEMMA, 6,
                              [FULL_BALL], n_range)
    with pytest.raises(UsageError):
        ub.estimate_kappa(sy.classical_rationals(), RHO_LEMMA, 6, [], [2])


def test_kappa_refuses_a_radius_that_does_not_decay(monkeypatch):
    # rho(k^n) must tend to 0, as a stage radius psi must: under 6 r^2
    # the balls cover [0, 1] and every ratio reads 1
    def no_engine(*args, **kwargs):
        raise AssertionError("engine built before the checks")
    monkeypatch.setattr(ub, "UniformStageEngine", no_engine)
    for text in ("6 * r^2", "1/2", "r^0 * log(r)^1"):
        with pytest.raises(UsageError, match="must decay"):
            ub.estimate_kappa(sy.classical_rationals(),
                              fn.parse_function(text), 6, [FULL_BALL], [2])


# -- natural_cover_sum -------------------------------------------------------

def test_cover_sum_identity_matches_enumeration():
    # f = None: sum of count * psi(k^n) over windows, by hand
    psi = fn.approximating(1, -3)
    total = natural_cover_sum(None, psi, sy.classical_rationals(), 2, 1, 3)
    want = sum(sy.classical_rationals().count_window(Fraction(2) ** (n - 1),
                                                     Fraction(2) ** n)
               * (2.0 ** n) ** -3 for n in (1, 2, 3))
    assert total == pytest.approx(want)


def test_cover_sum_tail_shrinks_above_critical():
    # s = 0.8 > 2/3: the summand is ~ 2^(-0.4 n), so tails decay
    # geometrically in the start index and vanish in the limit
    psi = fn.approximating(1, -3)
    f = fn.dimension_gauge(power=Fraction(4, 5))
    tails = [natural_cover_sum(f, psi, sy.classical_rationals(), 2, m, m + 12)
             for m in (3, 6, 9)]
    assert tails[0] > tails[1] > tails[2]
    assert tails[1] < 0.6 * tails[0] and tails[2] < 0.6 * tails[1]
    deep = natural_cover_sum(f, psi, sy.classical_rationals(), 2, 18, 30)
    assert deep < 0.02


def test_cover_sum_grows_below_critical():
    # s = 1/2 < 2/3: partial sums grow without bound in the end index
    psi = fn.approximating(1, -3)
    f = fn.dimension_gauge(power=HALF)
    sums = [natural_cover_sum(f, psi, sy.classical_rationals(), 2, 3, m)
            for m in (6, 10, 14)]
    assert sums[0] < sums[1] < sums[2]
    assert sums[2] > 2 * sums[0]


def test_cover_sum_validation():
    psi = fn.approximating(1, -3)
    with pytest.raises(UsageError):
        natural_cover_sum(fn.approximating(1, -1), psi,
                             sy.classical_rationals(), 2, 1, 3)
    with pytest.raises(UsageError):
        natural_cover_sum(None, psi, sy.classical_rationals(), 2, 4, 3)
    with pytest.raises(ResourceCapError):
        natural_cover_sum(None, psi, sy.ford_horoballs(), 2, 1, 55)
