"""Reduced-fraction machinery against brute-force oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limsuplab import farey
from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError)
from oracles import (ArrayRows, array_keys, array_union_length,
                     exact_union_measure, float_sorted_fractions,
                     stable_union_length)

# property tests replay the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=25)


def phi_brute(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def least_prime(n):
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def is_prime(n):
    return n >= 2 and least_prime(n) == n


def phi_trial(n):
    """phi(n) off the trial-division factorisation of n."""
    phi = n
    while n > 1:
        p = least_prime(n)
        phi -= phi // p
        while n % p == 0:
            n //= p
    return phi


def farey_brute(qmax):
    vals = sorted({Fraction(a, b)
                   for b in range(1, qmax + 1) for a in range(0, b + 1)})
    return vals


class TestTotients:
    # 49 and 121 are prime squares; 200 keeps the old fixed case
    @PROPERTY
    @given(st.integers(0, 250))
    @example(0)
    @example(1)
    @example(2)
    @example(49)
    @example(121)
    @example(200)
    def test_sieve_matches_brute_force(self, limit):
        phi = farey.totient_sieve(limit)
        assert phi.dtype == np.int64
        assert phi.tolist() == [0] + [phi_brute(n)
                                      for n in range(1, limit + 1)]

    def test_sieve_refuses_beyond_cap_before_allocating(self, monkeypatch):
        monkeypatch.setattr(farey, "smallest_prime_factors", None)
        with pytest.raises(ResourceCapError):
            farey.totient_sieve(farey.MAX_SIEVE + 1)

    # limits around 2 BLOCK = 2^17, where the recurrence's ranges turn
    # from doubling to BLOCK wide, up to past 2^18
    @PROPERTY
    @given(st.integers(2 ** 17 - 3, 2 ** 18 + 3))
    @example(2 ** 17 - 3)
    @example(2 ** 17)
    @example(2 ** 18 + 3)
    def test_sieve_at_range_edges(self, limit):
        phi = farey.totient_sieve(limit)
        assert phi.dtype == np.int64 and len(phi) == limit + 1
        edges, lo = [limit + 1], 2
        while lo <= limit:
            edges.append(lo)
            lo += min(farey.BLOCK, lo)
        ns = {e + d for e in edges for d in range(-2, 3)}
        ns.update(2 ** k for k in range(limit.bit_length()))
        small = [p for p in range(2, 100) if is_prime(p)]
        ns.update(p ** 3 for p in small)
        root = math.isqrt(limit)
        near = [p for p in range(root - 60, root + 60) if is_prime(p)]
        ns.update(p * q for p in near for q in near)
        ns = sorted(n for n in ns if 0 <= n <= limit)
        assert [int(phi[n]) for n in ns] == [phi_trial(n) for n in ns]

    def test_sieve_peak_memory_per_entry(self):
        # phi (8 bytes) and the int32 smallest-prime-factor sieve (4)
        # next to one range's temporaries
        limit = 4_000_000
        tracemalloc.start()
        try:
            farey.totient_sieve(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (limit + 1), peak / (limit + 1)

    def test_sum(self):
        # 1,1,2,2,4,2,6,4,6,4 for q = 1..10
        assert int(farey.totient_sieve(10)[1:].sum()) == 32
        assert int(farey.totient_sieve(1)[1:].sum()) == 1
        assert int(farey.totient_sieve(0)[1:].sum()) == 0

    def test_coprime_count_is_farey_length(self):
        for qmax in (1, 2, 5, 13, 37):
            assert 1 + int(farey.totient_sieve(qmax)[1:].sum()) == \
                len(farey_brute(qmax))


class TestSmallestPrimeFactors:
    def test_matches_trial_division(self):
        spf = farey.smallest_prime_factors(5000)
        assert spf.dtype == np.int32 and spf[:2].tolist() == [0, 1]
        assert spf[2:].tolist() == [least_prime(n) for n in range(2, 5001)]

    def test_sampled_at_a_larger_limit(self):
        limit = 4_000_000
        spf = farey.smallest_prime_factors(limit)
        rng = random.Random(22)
        ns = [rng.randrange(2, limit + 1) for _ in range(300)]
        # the top, a prime square and a product of two close primes
        ns += [limit, 1999 ** 2, 1723 * 1733]
        assert [int(spf[n]) for n in ns] == [least_prime(n) for n in ns]

    def test_refuses_beyond_cap_before_allocating(self, monkeypatch):
        monkeypatch.setattr(farey, "np", None)
        with pytest.raises(ResourceCapError):
            farey.smallest_prime_factors(farey.MAX_SIEVE + 1)


class TestReducedFractions:
    # Q = 1 has no middle term 1/2 to leave out of the mirror; Q = 2, 3
    # have one
    @PROPERTY
    @given(st.integers(1, 60))
    @example(1)
    @example(2)
    @example(3)
    @example(5)
    def test_small_sequence_exact(self, qmax):
        num, den = farey.reduced_fractions(qmax)
        assert num.dtype == den.dtype == np.int64
        assert list(zip(num.tolist(), den.tolist())) == \
            [(f.numerator, f.denominator) for f in farey_brute(qmax)]

    def test_sorted_and_reduced(self):
        # sorted, reduced, in [0, 1] and of length |F_Q| pin down F_Q
        for qmax in (137, 2244):
            num, den = farey.reduced_fractions(qmax)
            assert np.all(np.gcd(num, den) == 1)
            assert 1 <= den.min() and den.max() == qmax
            vals = num / den
            assert vals[0] == 0 and vals[-1] == 1
            assert np.all(np.diff(vals) > 0)
            assert len(num) == 1 + int(farey.totient_sieve(qmax)[1:].sum())

    def test_neighbour_determinant(self):
        num, den = farey.reduced_fractions(300)
        det = num[1:] * den[:-1] - num[:-1] * den[1:]
        assert np.all(det == 1)

    def test_adjacency_check_covers_every_chunk(self, monkeypatch):
        # with blocks of 7 points the sequence still passes whole, and a
        # duplicated key (one fraction twice, its neighbour lost) is caught
        # wherever in the sorted order it lands, whichever blocks it is
        # made in and checked in
        monkeypatch.setattr(farey, "BLOCK", 7)
        for qmax in (1, 2, 3, 8, 40):
            num, den = farey.reduced_fractions(qmax)
            assert list(zip(num.tolist(), den.tolist())) == \
                [(f.numerator, f.denominator) for f in farey_brute(qmax)]
        packed = farey.packed_keys
        for victim in range(0, 245, 11):
            made = []  # every key of the left half, in the order made

            def duplicated(num, den, qmax, victim=victim, made=made):
                key = packed(num, den, qmax)
                first = len(made)
                made.extend(key.tolist())
                if first <= victim + 1 < len(made):
                    key[victim + 1 - first] = made[victim]
                return key
            monkeypatch.setattr(farey, "packed_keys", duplicated)
            with pytest.raises(InternalInvariantError):
                farey.reduced_fractions(40)
            assert len(made) == 246

    # 2^k - 1, 2^k and 2^k + 1: db changes between the first two, and the
    # mirror's power-of-2 term applies at every b = 2^j
    def test_keys_match_brute_force(self):
        for qmax in list(range(1, 81)) + [127, 128, 129, 255, 256, 257]:
            keys = farey.farey_keys(qmax)
            assert keys.dtype == np.int64
            assert keys.tolist() == [
                farey.packed_keys(f.numerator, f.denominator, qmax)
                for f in farey_brute(qmax)], qmax

    @PROPERTY
    @given(st.integers(1, farey.PACKED_KEY_QMAX), st.integers(0),
           st.integers(0))
    @example(1, 0, 0)
    @example(1, 1, 0)
    @example(2 ** 19, 1, 0)
    @example(2 ** 20 - 1, 1, 0)
    @example(3, 1, 2 ** 20)
    def test_mirror_identity(self, b, a, extra):
        # key((b - a)/b) = 2^(3 db) - key(a/b) + 2b - [b is no power of
        # 2] 2^db, on Python ints, for coprime a <= b <= qmax
        a %= b + 1
        g = math.gcd(a, b)
        a, b = a // g, b // g
        qmax = min(b + extra, farey.PACKED_KEY_QMAX)
        db = qmax.bit_length()
        odd = b & (b - 1) != 0
        assert farey.packed_keys(b - a, b, qmax) == (
            2 ** (3 * db) - farey.packed_keys(a, b, qmax) + 2 * b
            - odd * 2 ** db)

    def test_matches_float_argsort_order(self):
        # the packed-key sort against the float64 argsort it replaced
        for qmax in list(range(1, 401)) + [2244, 3125]:
            num, den = farey.reduced_fractions(qmax)
            want_num, want_den = float_sorted_fractions(qmax)
            assert np.array_equal(num, want_num), qmax
            assert np.array_equal(den, want_den), qmax

    def test_rejects_oversized_qmax(self, monkeypatch):
        # the mask alone would take 550 GB here: refused before numpy runs
        monkeypatch.setattr(farey, "np", None)
        for build in (farey.farey_keys, farey.reduced_fractions):
            with pytest.raises(UsageError):
                build(farey.PACKED_KEY_QMAX + 1)

    def test_packed_keys_exact_at_the_bound(self):
        # Python ints, so nothing wraps: the int64 arrays see the same
        # values as long as every intermediate stays below 2^63
        qmax = farey.PACKED_KEY_QMAX
        db = qmax.bit_length()
        assert 3 * db + 1 <= 63 < 3 * (db + 1) + 1
        # the closest fractions, 1/Q and 1/(Q-1), and their mirrors, and
        # the largest key, 1/1; the largest intermediates are the shifted
        # numerator a = Q // 2 of the left half and 2^(3 db) + 2Q in the
        # mirror (the unpack product is at most the key)
        keys = [farey.packed_keys(a, b, qmax)
                for a, b in ((1, qmax), (1, qmax - 1), (1, 2),
                             (qmax - 2, qmax - 1), (qmax - 1, qmax), (1, 1))]
        assert keys == sorted(set(keys))
        assert max(keys) == 2 ** (3 * db) + 1
        assert (qmax // 2) << 2 * db < 2 ** 63
        assert 2 ** (3 * db) + 2 * qmax < 2 ** 63

    def test_packed_keys_on_the_unit_interval(self):
        # over [0, 1] the keys stay below 2^(3 db + 1): inside int64 up
        # to Q = 2^20 - 1, and 1/1 overflows it one bit length later
        qmax = 2 ** 20 - 1
        db = qmax.bit_length()
        keys = [farey.packed_keys(a, b, qmax) for a, b in
                ((0, 1), (1, qmax), (qmax - 2, qmax - 1), (qmax - 1, qmax),
                 (1, 1))]
        assert keys == sorted(set(keys))
        assert keys[-1] == 2 ** (3 * db) + 1 < 2 ** (3 * db + 1) <= 2 ** 63
        assert farey.packed_keys(1, 1, qmax + 1) > 2 ** 63
        # the int64 arrays agree with Python ints all over F_Q
        num, den = farey.reduced_fractions(300)
        assert farey.packed_keys(num, den, 300).tolist() == \
            [farey.packed_keys(a, b, 300)
             for a, b in zip(num.tolist(), den.tolist())]


def primes_of(b):
    return [p for p in range(2, b + 1)
            if b % p == 0 and all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestPrimeFactorPairs:
    # 1 has no prime; prime powers, primes and highly composite values
    # meet the same prime many times over while dividing out
    @PROPERTY
    @given(st.lists(st.integers(1, 3000), max_size=40))
    @example([1])
    @example([])
    @example([1, 2, 4, 1024, 2048, 3, 2310, 2999, 30030, 65536])
    def test_matches_trial_division(self, dens):
        spf = farey.smallest_prime_factors(max(dens, default=1))
        rows, primes = farey.prime_factor_pairs(np.array(dens, dtype=np.int64),
                                                spf)
        assert rows.dtype == primes.dtype == np.int64
        # in row order, each row's primes ascending
        got = list(zip(rows.tolist(), primes.tolist()))
        assert got == [(i, p) for i, b in enumerate(dens) for p in primes_of(b)]


class TestMinMultiple:
    def test_against_search(self):
        rng = random.Random(7)
        for _ in range(200):
            b = rng.randint(1, 50)
            lo = rng.randint(0, 400)
            hi = lo + rng.randint(1, 400)
            got = int(farey.min_multiple_above(
                np.array([b], dtype=np.int64), lo, hi)[0])
            want = 0
            for m in range(lo + 1, hi + 1):
                if m % b == 0:
                    want = m
                    break
            assert got == want, (b, lo, hi)


# a point on a 1/16 grid (so intervals touch, nest and vanish often) or
# anywhere, both reaching past [0, 1]
POINT = st.one_of(st.integers(-8, 24).map(lambda i: i / 16),
                  st.floats(-0.5, 1.5))
TIE_POINT = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                      st.integers(-2, 10).map(lambda i: i / 8), POINT)
LENGTH = st.one_of(st.just(0.0), st.integers(1, 8).map(lambda i: i / 16),
                   st.floats(0, 0.5))


class TestUnionLength:
    def test_empty(self):
        assert array_union_length(np.array([]), np.array([])) == 0.0

    # the sweep's value stays within its certified budget of the exact
    # measure of the same float intervals
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(pieces=st.lists(st.tuples(POINT, LENGTH), min_size=1,
                           max_size=60),
           window=st.tuples(POINT, POINT).map(sorted))
    @example(pieces=[(0.0, 0.25), (0.25, 0.25)], window=[0.0, 1.0])
    @example(pieces=[(0.125, 0.75), (0.25, 0.125)], window=[0.0, 1.0])
    @example(pieces=[(0.5, 0.0), (0.75, 0.0)], window=[0.0, 1.0])
    @example(pieces=[(-0.25, 1.5)], window=[-0.5, 1.5])
    @example(pieces=[(0.25, 0.5)], window=[1.125, 1.5])
    def test_matches_exact_oracle(self, pieces, window):
        lo = np.array([a for a, _ in pieces])
        hi = lo + np.array([w for _, w in pieces])
        got = array_union_length(lo, hi, *window)
        want = exact_union_measure(zip(lo.tolist(), hi.tolist()), *window)
        budget = farey.union_length_error_budget(len(pieces))
        assert abs(Fraction(got) - want) <= budget

    # the tie fix must give the stable sort's (lo, index) order: lo on a
    # coarse grid with both zeros, so ties are the rule, and clip windows
    # that cut many intervals to the same end
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(pieces=st.lists(st.tuples(TIE_POINT, LENGTH), min_size=1,
                           max_size=80),
           window=st.tuples(POINT, POINT).map(sorted))
    @example(pieces=[(-0.0, 0.25), (0.0, 0.125), (-0.0, 0.5)],
             window=[-0.0, 1.0])
    @example(pieces=[(0.25, 0.5)] * 3 + [(-0.5, 1.0)], window=[0.5, 0.75])
    def test_ties_match_stable_sort_bit_for_bit(self, pieces, window):
        lo = np.array([a for a, _ in pieces])
        hi = lo + np.array([w for _, w in pieces])
        assert array_union_length(lo, hi, *window).hex() == \
            stable_union_length(lo, hi, *window).hex()

    def test_large_tie_runs_match_stable_sort(self):
        # long arrays reach numpy's vectorised unstable sort, which does
        # reorder ties; runs of every length, signed zeros among them
        rng = np.random.default_rng(11)
        for n, grid in ((5000, 7), (200_000, 997), (200_000, 50_000)):
            lo = rng.integers(-3, grid, n) / grid
            lo[rng.random(n) < 0.05] = -0.0
            hi = lo + rng.random(n) ** 4 / grid
            assert not np.array_equal(np.argsort(lo),
                                      np.argsort(lo, kind="stable"))
            for window in ((0.0, 1.0), (0.25, 0.5)):
                assert array_union_length(lo, hi, *window).hex() == \
                    stable_union_length(lo, hi, *window).hex()

    def test_clip_window(self):
        lo = np.array([0.0, 0.5])
        hi = np.array([0.3, 0.9])
        assert array_union_length(lo, hi, 0.25, 0.6) == pytest.approx(0.15)

    def test_error_budget_scales(self):
        assert farey.union_length_error_budget(10 ** 6) < 1e-9

    @staticmethod
    def prefix_index_order(lo, clip_lo, clip_hi):
        """The order that `union_length` sorts before its check: by the
        int64 bits of (clip(lo) - clip_lo) + 0.0 above the low
        bitlen(n - 1), then by index."""
        bits = (np.clip(lo, clip_lo, clip_hi) - clip_lo + 0.0).view(np.int64)
        return np.argsort(bits >> (len(lo) - 1).bit_length(), kind="stable")

    def test_coarse_prefix_path_matches_stable_sort(self):
        # lo a few thousand ulps off a 1/64 grid: distinct values share
        # a prefix, so the check must re-sort; zeros of both signs, a
        # window at -0.0 and negative windows, n at 2^k and 2^k + 1 and
        # at the sweep's block edges
        rng = np.random.default_rng(20)
        block = farey.BLOCK
        for n in (2 ** 10, 2 ** 10 + 1, 2 ** 20, 2 ** 20 + 1, block - 1,
                  block, block + 1, 3 * block + 1):
            grid = rng.integers(-64, 80, n) / 64
            lo = grid + rng.integers(0, 4000, n) * np.spacing(grid)
            lo[rng.random(n) < 0.02] = -0.0
            lo[rng.random(n) < 0.02] = 0.0
            hi = lo + rng.random(n) ** 4 / 64
            lo_in, hi_in = lo.copy(), hi.copy()
            for window in ((0.0, 1.0), (-0.0, 0.75), (-0.75, 0.5),
                           (-2.0, -0.25)):
                order = self.prefix_index_order(lo, *window)
                clipped = np.clip(lo, *window)[order]
                assert np.any(clipped[1:] < clipped[:-1]), (n, window)
                assert array_union_length(lo, hi, *window).hex() == \
                    stable_union_length(lo, hi, *window).hex(), (n, window)
            assert lo.tobytes() == lo_in.tobytes()
            assert hi.tobytes() == hi_in.tobytes()

    def test_peak_memory_per_interval(self):
        # one call on 10^6 intervals, 1 % of them tied in one coarse
        # prefix so the walk's re-sort runs too, holds at most 12 bytes
        # per interval besides lo and hi, its keys' build included: the
        # key word and a few blocks
        n = 10 ** 6
        rng = np.random.default_rng(21)
        lo = rng.random(n)
        few = rng.random(n) < 0.01
        lo[few] = 0.375 + rng.integers(0, 4000, int(few.sum())) * 2 ** -54
        hi = lo + rng.random(n) * 1e-6
        order = self.prefix_index_order(lo, 0.0, 1.0)
        assert np.any(np.diff(lo[order]) < 0)
        tracemalloc.start()
        try:
            got = array_union_length(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == stable_union_length(lo, hi).hex()
        assert peak <= 12 * n, peak / n


def sorted_gains(lo, hi, clip_lo, clip_hi):
    """Each interval's gain in the stable (lo, index) order, as the
    sweep takes it: hi - max(lo, end of the intervals before it)."""
    lo, hi = np.clip(lo, clip_lo, clip_hi), np.clip(hi, clip_lo, clip_hi)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    end = np.concatenate(([-np.inf], np.maximum.accumulate(hi)[:-1]))
    return hi - np.maximum(lo, end)


def tied_run(n, below, run):
    """n intervals, well apart in lo except one run of `run` distinct lo
    that share a key prefix, at sorted positions below onwards; the
    run's lo fall as its indices rise, so its prefix order is wrong."""
    lo = np.empty(n)
    lo[:below] = np.arange(below) / (2 * n)
    lo[below:below + run] = 0.5 + np.arange(run)[::-1] * 2.0 ** -53
    lo[below + run:] = 0.75 + np.arange(n - below - run) / (4 * n)
    hi = lo + np.where(np.arange(n) % 3 == 0, 2.0 ** -40, 2.0 ** -20)
    return lo, hi


class TestUnionLengthBlocks:
    """The sweep walks the sorted order one farey.BLOCK at a time, each
    block extended to the end of its run of equal key prefix, carrying
    the running end and the order check across block edges."""

    @pytest.mark.parametrize("run", [2, 200])
    def test_tied_run_straddles_a_block_edge(self, run):
        edge = farey.BLOCK
        lo, hi = tied_run(2 * edge, edge - run // 2, run)
        order = TestUnionLength.prefix_index_order(lo, 0.0, 1.0)
        assert lo[order[edge - 1]] > lo[order[edge]]
        assert array_union_length(lo, hi).hex() == \
            stable_union_length(lo, hi).hex()

    def test_block_without_gain(self):
        # one interval covers the whole middle block of sorted lo
        n = 3 * farey.BLOCK
        lo = np.sort(np.random.default_rng(3).random(n))
        hi = lo + 1e-7
        lo[0], hi[0] = 0.25, 0.75
        gains = sorted_gains(lo, hi, 0.0, 1.0)
        assert np.all(gains[farey.BLOCK:2 * farey.BLOCK] <= 0)
        assert np.any(gains[2 * farey.BLOCK:] > 0)
        assert array_union_length(lo, hi).hex() == \
            stable_union_length(lo, hi).hex()

    def test_windows_clip_whole_blocks(self):
        # sorted lo spread over [0, 1): the windows cut every interval of
        # the first block, the last or all of them to one end
        n = 3 * farey.BLOCK + 1
        rng = np.random.default_rng(4)
        lo = rng.random(n)
        hi = lo + rng.random(n) * 1e-5
        ranked = np.sort(lo)
        first_end = float(ranked[farey.BLOCK - 1])
        last_start = float(ranked[-farey.BLOCK])
        for window in ((first_end + 1e-3, 0.5), (0.5, last_start - 1e-3),
                       (first_end + 1e-3, last_start - 1e-3),
                       (-2.0, -1.0), (1.5, 2.0), (0.5, 0.5)):
            assert array_union_length(lo, hi, *window).hex() == \
                stable_union_length(lo, hi, *window).hex(), window

    @pytest.mark.parametrize("below, run", [
        # longer than a block, from mid-block: one block grows past BLOCK
        (farey.BLOCK // 2, farey.BLOCK + 100),
        # filling a block from its first position, or one past it
        (0, farey.BLOCK), (farey.BLOCK, farey.BLOCK), (0, farey.BLOCK + 1),
        # ending exactly at a block edge
        (farey.BLOCK - 200, 200)])
    def test_block_ends_at_run_ends(self, below, run):
        lo, hi = tied_run(3 * farey.BLOCK, below, run)
        order = TestUnionLength.prefix_index_order(lo, 0.0, 1.0)
        assert np.all(lo[order[below:below + run - 1]]
                      > lo[order[below + 1:below + run]])
        assert array_union_length(lo, hi).hex() == \
            stable_union_length(lo, hi).hex()

    def test_balls_clipped_to_the_window_start(self):
        # 3 or more of every row's 4 balls reach below clip_lo, so 3 BLOCK or
        # more keys share the prefix 0 of t = +0.0: one run, one block
        rows = farey.BLOCK
        den = np.arange(3, 3 + rows, dtype=np.float64)
        balls = farey.BallRows(np.floor(den / 2) - 1, den, 1.5 / den, 2)
        code = np.arange(4 * rows)
        lo, hi = np.empty((2, len(code)))
        balls.bounds(code, lo, hi)
        assert np.count_nonzero(lo < 0.5) >= 3 * rows
        keys = np.empty(len(code), dtype=np.int64)
        farey.sort_keys(lo, code, balls.ib, 0.5, 1.0, keys)
        assert farey.union_length(keys, balls, 0.5, 1.0).hex() == \
            stable_union_length(lo, hi, 0.5, 1.0).hex()

    def test_window_width_overflows(self):
        # clip_hi - clip_lo is inf, and so is t for every lo past about
        # 1e307: those keys share inf's prefix, in random lo order
        n = 2 * farey.BLOCK + 7
        rng = np.random.default_rng(33)
        lo = rng.uniform(-0.8, 0.8, n) * 1e308
        hi = lo + rng.random(n) * 1e300
        window = (-1.7e308, 1.7e308)
        assert window[1] - window[0] == np.inf
        with np.errstate(over="ignore"):
            assert np.count_nonzero(lo - window[0] == np.inf) > \
                farey.BLOCK // 2
            assert array_union_length(lo, hi, *window).hex() == \
                stable_union_length(lo, hi, *window).hex()

    @pytest.mark.parametrize("i", [5, farey.BLOCK - 1],
                             ids=["in_block", "across_edge"])
    def test_forged_order_is_refused(self, i):
        # bounds that swap intervals i and i + 1 of distinct prefixes,
        # inside a block or right across its edge, break the order
        n = 2 * farey.BLOCK
        lo = np.arange(n) / (2 * n)
        hi = lo + 2.0 ** -30
        keys = array_keys(lo)
        swap = np.arange(n)
        swap[[i, i + 1]] = i + 1, i
        with pytest.raises(InternalInvariantError, match="stable sort"):
            farey.union_length(keys, ArrayRows(lo[swap], hi[swap]))
