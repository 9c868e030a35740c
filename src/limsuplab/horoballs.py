"""Ford circles: the horoball family at the cusp of the modular group.

The circle based at p/q (in lowest terms) has radius 1/(2q^2), weight
2q^2, and touches the real line at p/q.  This module counts circles in
bands of radii and checks their disjointness; everything is exact.  A
radius window [r_lo, r_hi) is the weight window (1/r_hi, 1/r_lo] of the
Ford system, so q_window hands it to `systems.ford_horoballs()`, whose
isqrt translation to an integer q-range is the one copy of that
algebra.  Base windows are half-open [lo, hi), so each circle on the
unit circle is counted once.  Counting (`count_horoballs`) and the
disjointness check (`disjointness_check`) both run on Python integers
alone.

Disjointness rests on one polynomial identity.  With d = p/q - p'/q',
r = 1/(2q^2), r' = 1/(2q'^2) and D = p q' - p' q:

    d^2 + (r - r')^2 - (r + r')^2  =  d^2 - 4 r r'  =  (D^2 - 1) / (q q')^2

so two distinct circles overlap iff D = 0 (impossible for reduced
fractions), are tangent iff |D| = 1, and otherwise have a positive gap
(D^2 - 1)/(q q')^2 between them (Ford, "Fractions", Amer. Math. Monthly
45, 1938).  Scaled by S = 4 q^4 q'^4 every term is an integer:

    S |c - c'|^2 = 4 q^2 q'^2 D^2 + (q'^2 - q^2)^2
    S (r + r')^2 = (q'^2 + q^2)^2
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, compress, repeat, starmap

from limsuplab import functions as fn
from limsuplab import systems as sy
from limsuplab.errors import (InternalInvariantError, ResourceCapError,
                              UsageError, size_text)

# count_horoballs bounds the candidate bases of a window before counting
# them, and each halving of R doubles the bound.  The widest window of a
# 24-point `horoballs` run (R = 2^-26, lam = 1/4) bounds 5.03e7 bases; its
# Mobius count took 2 ms on 2 vCPUs.  Enumeration is the slow case: a
# window of 6.3e7 bases near q = 10^10, past the Mertens table cap, took
# 12.6 s
MAX_COUNT_BASES = 64_000_000
# the Mobius count's Mertens table, int32 entries: 2^22 of them (16 MB)
# were built in 1.1 s on 2 vCPUs; a longer table counts by enumeration
MAX_MERTENS_TABLE = 1 << 22
# band_counts forms every radius and bounds its window before counting
# any, work that grows with the points: 2048 radii down from 10^300 at
# factor 1/2 took 0.09 s to refuse by the run cap on 2 vCPUs
MAX_POINTS = 2_048
# disjointness_check walks one window per circle: 0.19-0.26 s and 18 MB
# peak RSS for the CLI at q_max = 256 on 2 vCPUs.  Its identity layer is
# exact in Python ints at any size; its cap bounds the time, quadratic in
# the points: F_40's 120,295 pairs take about 0.05 s, F_80's are 16x as many.
MAX_DISJOINTNESS_Q = 256
MAX_IDENTITY_Q = 40
# mu(n) as a byte: 1 for +1, 2 for -1, 0 for 0; a prime p flips the sign
# of its multiples, and the byte 2 reads as -1 in int8
_MU_FLIP = bytes.maketrans(b"\x01\x02", b"\x02\x01")
_MU_INT8 = bytes.maketrans(b"\x02", b"\xff")


def q_window(r_lo: Fraction, r_hi: Fraction) -> tuple[int, int]:
    """Integer range [q_min, q_max] with r_lo <= 1/(2q^2) < r_hi;
    empty when q_min > q_max."""
    r_lo, r_hi = fn.exact(r_lo, "r_lo"), fn.exact(r_hi, "r_hi")
    if not (0 < r_lo < r_hi):
        raise UsageError("need 0 < r_lo < r_hi")
    # r_lo <= 1/(2q^2) < r_hi  <=>  1/r_hi < 2q^2 <= 1/r_lo
    return sy.ford_horoballs().q_interval(1 / r_hi, 1 / r_lo)


def _base_range(q: int, b_lo: Fraction, b_hi: Fraction) -> tuple[int, int]:
    """Numerators p with p/q in [b_lo, b_hi): half-open on both counts,
    p from ceil(q b_lo) to ceil(q b_hi) - 1."""
    return (-(-q * b_lo.numerator // b_lo.denominator),
            -(-q * b_hi.numerator // b_hi.denominator) - 1)


def _bases_bound(b_lo: Fraction, b_hi: Fraction, q_min: int,
                 q_max: int) -> Fraction:
    """Coarse O(1) bound on the candidate bases of a window: each q
    contributes fewer than width*q + 1 numerators."""
    if q_max < q_min:
        return Fraction(0)
    q_sum = (q_max * (q_max + 1) - (q_min - 1) * q_min) // 2
    return (b_hi - b_lo) * q_sum + (q_max - q_min + 1)


def _check_bases(bound: Fraction, cap: int, what: str) -> None:
    if bound > cap:
        raise ResourceCapError(
            "%s up to ~2^%d bases (cap %d); shrink it"
            % (what, math.ceil(bound).bit_length(), cap))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a i + b) / m) for n >= 0, m >= 1 and any
    integers a, b, in O(log m) steps.  Each step takes the integer parts
    of a/m and b/m out of the sum in closed form; what is left counts the
    lattice points under a line of slope a/m < 1, which is the same sum
    with the roles of a and m swapped."""
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _ceil_sum(m: int, c: Fraction) -> int:
    """sum_{q=1}^{m} ceil(q c): ceil(q u/v) = floor((q u + v - 1)/v)."""
    u, v = c.numerator, c.denominator
    return _floor_sum(m, v, u, u + v - 1)


def _mertens_table(limit: int) -> array:
    """M(x) = mu(1) + ... + mu(x) for x = 0..limit as an int32 array.

    mu is sieved as one byte per n (see _MU_FLIP): every prime p flips
    the sign of its multiples and zeroes those of p^2, each by one slice
    copy; the primes come from a slice sieve of the composites."""
    mu = bytearray(b"\x01") * (limit + 1)
    mu[0] = 0
    composite = bytearray(limit + 1)
    composite[:2] = b"\x01\x01"
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, limit + 1, p))
    for p in compress(range(limit + 1), map((0).__eq__, composite)):
        mu[p::p] = mu[p::p].translate(_MU_FLIP)
        if p * p <= limit:
            mu[p * p::p * p] = bytes(len(range(p * p, limit + 1, p * p)))
    return array("i", accumulate(array("b", mu.translate(_MU_INT8))))


def _count_mobius(b_lo: Fraction, b_hi: Fraction, q_min: int,
                  q_max: int) -> int:
    """Reduced p/q in [b_lo, b_hi) with q_min <= q <= q_max, by Mobius
    inversion (Hardy & Wright, ch. XVI).

    Summing mu(d) over d | gcd(p, q) counts each p/q once if reduced,
    else 0.  With p = d p', q = d q' the base condition reads p'/q' in
    [b_lo, b_hi), so the count up to N is

        H(N) = sum_{d <= N} mu(d) G(N // d),
        G(m) = sum_{q <= m} (ceil(q b_hi) - ceil(q b_lo)),

    and G is two floor sums.  N // d takes O(sqrt N) values, each on a
    block of d whose mu sum is a difference of Mertens values M: a table
    up to about q_max^(2/3) and, above it, M(x) = 1 - sum_{k >= 2}
    M(x // k) over blocks of equal x // k, memoised (Deleglise & Rivat,
    Exp. Math. 5, 1996)."""
    limit = max(1, math.ceil(q_max ** (2 / 3)))
    table = _mertens_table(limit)
    memo = {}

    def mertens(x: int) -> int:
        if x <= limit:
            return table[x]
        got = memo.get(x)
        if got is None:
            got, k = 1, 2
            while k <= x:
                v = x // k
                k_end = x // v
                got -= (k_end - k + 1) * mertens(v)
                k = k_end + 1
            memo[x] = got
        return got

    def count_to(n: int) -> int:
        total, d = 0, 1
        while d <= n:
            v = n // d
            d_end = n // v
            mu_sum = mertens(d_end) - mertens(d - 1)
            if mu_sum:
                total += mu_sum * (_ceil_sum(v, b_hi) - _ceil_sum(v, b_lo))
            d = d_end + 1
        return total

    return count_to(q_max) - count_to(q_min - 1)


def _count_direct(b_lo: Fraction, b_hi: Fraction, q_min: int,
                  q_max: int) -> int:
    """The same count by one gcd per candidate base, on Python ints."""
    gcd = math.gcd
    total = 0
    for q in range(q_min, q_max + 1):
        p_lo, p_hi = _base_range(q, b_lo, b_hi)
        if p_lo <= p_hi:
            total += list(map(gcd, range(p_lo, p_hi + 1), repeat(q))).count(1)
    return total


def count_horoballs(base_window: tuple, r_lo, r_hi) -> int:
    """Number of Ford circles with base in the half-open window and
    radius in [r_lo, r_hi); refuses a window of more than
    MAX_COUNT_BASES candidate bases.

    The Mobius count costs a Mertens table of about q_max^(2/3) entries
    and O(sqrt q_max) floor sums, whatever the bases.  A window whose
    candidate bases are fewer than that table's entries, or whose table
    would pass MAX_MERTENS_TABLE, is enumerated instead: the only way to
    count near q = 2^100, where a thin window holds few bases."""
    b_lo, b_hi = (fn.exact(b, "base") for b in base_window)
    if b_lo >= b_hi:
        return 0
    q_min, q_max = q_window(r_lo, r_hi)
    bound = _bases_bound(b_lo, b_hi, q_min, q_max)
    _check_bases(bound, MAX_COUNT_BASES, "window holds")
    if q_max < q_min:
        return 0
    # q_max^(2/3) is formed in floats only below 2^64
    if (q_max.bit_length() <= 64
            and q_max ** (2 / 3) < min(bound, MAX_MERTENS_TABLE)):
        return _count_mobius(b_lo, b_hi, q_min, q_max)
    return _count_direct(b_lo, b_hi, q_min, q_max)


@dataclass(frozen=True)
class CountReport:
    R: Fraction
    q_min: int
    q_max: int
    count: int
    ratio: float        # count / (R^-1 * m(B))

    @property
    def log10_R(self) -> float:
        """log10 R, from R's integers where float(R) is 0 or past range."""
        try:
            if float(self.R):
                return math.log10(self.R)
        except OverflowError:
            pass
        return math.log10(self.R.numerator) - math.log10(self.R.denominator)


def band_counts(base_window: tuple, r_hi, factor, points: int,
                lam) -> list[CountReport]:
    """Count reports of the radii R = r_hi * factor^i, i < points,
    largest R first, all checked before any count: at most MAX_POINTS
    radii, whose exact values print (bounded in O(1) before any R is
    formed), and whose coarse base bounds sum to at most 2 *
    MAX_COUNT_BASES (halving R doubles a bound, so a run at factor 1/2
    passes whenever its widest window does).  The smallest R, whose
    window is the widest, is counted first, so an oversized window is
    refused before any other is counted."""
    r_hi, factor = fn.exact(r_hi, "R"), fn.exact(factor, "factor")
    if points < 1:
        raise UsageError("points must be >= 1")
    if not 0 < factor < 1:
        raise UsageError("factor must lie in (0, 1)")
    if points > MAX_POINTS:
        raise ResourceCapError("%s radius scales (cap %d)"
                               % (size_text(points), MAX_POINTS))
    bits = fn.height_bits(r_hi) + (points - 1) * fn.height_bits(factor)
    if bits > fn.MAX_PRINT_BITS:
        raise ResourceCapError(
            "exact radii of up to %d bits, past the %d bits that print "
            "in 4300 digits; shrink the points or the digits of R and "
            "the factor" % (bits, fn.MAX_PRINT_BITS))
    lam = fn.exact(lam, "lambda")
    if not 0 < lam < 1:
        raise UsageError("lambda must lie in (0, 1)")
    radii = [r_hi]
    for _ in range(points - 1):
        radii.append(radii[-1] * factor)
    b_lo, b_hi = (fn.exact(b, "base") for b in base_window)
    windows = [q_window(lam * R, R) for R in radii]
    _check_bases(sum(_bases_bound(b_lo, b_hi, *w) for w in windows),
                 2 * MAX_COUNT_BASES, "%d radius windows hold" % points)
    if b_hi <= b_lo:
        raise UsageError("degenerate base window: m(B) = 0")
    reports = []
    for R, (q_min, q_max) in reversed(list(zip(radii, windows))):
        count = count_horoballs((b_lo, b_hi), lam * R, R)
        ratio = float(Fraction(count) * R / (b_hi - b_lo))
        reports.append(CountReport(R, q_min, q_max, count, ratio))
    return reports[::-1]


# -- disjointness ----------------------------------------------------------

@dataclass(frozen=True)
class DisjointnessReport:
    q_max: int
    points: int
    pairs: int
    tangent_pairs: int
    overlap_pairs: int          # must be 0
    identity_pairs: int


def _farey_points(q_max: int):
    """F_q_max in order as (p, q) pairs: after neighbours a/b < c/d the
    next term is (k c - a)/(k d - b), k = floor((q_max + b)/d) (Hardy &
    Wright, ch. III)."""
    a, b, c, d = 0, 1, 1, q_max
    yield a, b
    while c <= q_max:
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        yield a, b


def _scaled_gap(x: tuple, y: tuple) -> int:
    """S (|c - c'|^2 - (r + r')^2), S = 4 q^4 q'^4, of the circles at
    x = (p, q) and y = (p', q'), by the identity of the module docstring."""
    (p, q), (p2, q2) = x, y
    qq, qq2 = q * q, q2 * q2
    det = p * q2 - p2 * q
    return 4 * qq * qq2 * det * det + (qq2 - qq) ** 2 - (qq2 + qq) ** 2


def disjointness_check(q_max: int, identity_q_max: int = 40) -> DisjointnessReport:
    """Verify, over every pair of distinct reduced fractions in [0, 1]
    with denominators <= q_max, that the Ford circle interiors are
    disjoint and that tangency happens exactly at |p q' - p' q| = 1.

    With q <= q', r + r' <= 1/q^2: pairs further apart are strictly
    apart.  Each circle walks F_q_max outwards both ways while the next
    base lies in its window [c - 1/q^2, c + 1/q^2], i.e. |D| q <= q' with
    D = p q' - p' q; the distance grows, so the first base outside ends
    the walk.  A circle owns the pairs it meets on a larger denominator
    (on a tie, only 0/1 and 1/1, the lower index), and D classifies each.
    Every pair with denominators <= identity_q_max is also re-derived by
    the scaled identity of the module docstring, so the two layers
    confirm each other.  Refuses sizes that are not ints or pass the
    caps before building any point.
    """
    if type(q_max) is not int or type(identity_q_max) is not int:
        raise UsageError("q_max and identity_q_max must be integers")
    if q_max < 2 or identity_q_max < 1:
        raise UsageError("need q_max >= 2 and identity_q_max >= 1")
    identity_q_max = min(identity_q_max, q_max)
    if q_max > MAX_DISJOINTNESS_Q or identity_q_max > MAX_IDENTITY_Q:
        raise ResourceCapError("q_max %d, identity layer %d (caps %d, %d)" % (
            q_max, identity_q_max, MAX_DISJOINTNESS_Q, MAX_IDENTITY_Q))
    points = list(_farey_points(q_max))
    n = len(points)
    tangent = overlap = 0
    for i, (p, q) in enumerate(points):
        for js in (range(i + 1, n), range(i - 1, -1, -1)):
            for j in js:
                p2, q2 = points[j]
                det = abs(p * q2 - p2 * q)
                if det * q > q2:
                    break
                if q < q2 or q == q2 and i < j:
                    if det == 1:
                        tangent += 1
                    elif det == 0:
                        overlap += 1
    if overlap:
        raise InternalInvariantError(
            "%d overlapping Ford pairs at q_max=%d" % (overlap, q_max))

    # F_identity_q_max, in order, is the check's points of small denominator
    layer = [point for point in points if point[1] <= identity_q_max]
    if min(starmap(_scaled_gap, combinations(layer, 2))) < 0:
        raise InternalInvariantError("negative gap in exact layer")
    m = len(layer)
    return DisjointnessReport(q_max, n, n * (n - 1) // 2, tangent, 0,
                              m * (m - 1) // 2)
