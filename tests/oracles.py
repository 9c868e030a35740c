"""Exact reference implementations the tests hold the package against.

Each oracle is the slow, obvious computation: Fraction arithmetic, one
raw pair at a time, no shortcut shared with the kernel it checks.  The
geodesic oracles are the one-sample-at-a-time float paths the faster
engine replaced; it performs the same float operations, so it must
equal them bit for bit.  So must the stage sweep its gcd-filtered,
stable-sorted predecessor.  The scalar float evaluation of the symbolic
family is the witness for its exact verdicts: sampled regularity ratios
and samples of G confirm what `functions.is_k_regular` and
`functions.compute_G` decide from exponents.  `ArrayRows` and
`array_keys` put float interval arrays into the one input form of
`farey.union_length`, sort keys and a decoder.  The geodesics helpers
that no command runs live here too: the value of a quotient list, the
Gauss-Kuzmin law and its seeded sampler, the hyperbolic distance and
the Mobius action of a word.  The uniform-stage list's modular inverses
answer to the vectorised extended Euclid it used before.
`window_count` counts a weight window's pairs without listing them, to
size the stage tests and for `natural_cover_sum`; a scan's `pairs` are
checked against the listing itself.  Test modules import them as
`from oracles import ...`; nothing under `src` may, because an
installed package has no `tests/` next to it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

import limsuplab.farey as farey
import limsuplab.functions as fn
import limsuplab.geodesics as geo
import limsuplab.systems as sy
import limsuplab.ubiquity as ub
from limsuplab.errors import (DomainError, InternalInvariantError,
                              PrecisionExhausted, ResourceCapError,
                              UsageError)

DEFAULT_BALL_CAP = 2_000_000


def exact_union_measure(pairs, lo=0, hi=1) -> Fraction:
    """Lebesgue measure of the union of the intervals [a, b] in pairs,
    clipped to [lo, hi], as an exact Fraction.

    Float endpoints convert exactly.  Empty and inverted pieces carry no
    measure, and a single point never does, so touching intervals need
    no special case.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    clipped = sorted((max(Fraction(a), lo), min(Fraction(b), hi))
                     for a, b in pairs)
    total, reach = Fraction(0), lo
    for a, b in clipped:
        start = max(a, reach)
        if b > start:
            total += b - start
            reach = b
    return total


def float_sorted_fractions(qmax):
    """F_Q as (num, den) int64 arrays, ordered by a float64 argsort of
    a/b: the order the packed-key sort in `farey.farey_keys` replaced.
    Float keys are distinct, hence exact, while 1/Q^2 stays far above
    the 2^-53 relative float error (Q up to about 3e6)."""
    half = qmax // 2
    ok = np.ones((qmax + 1, half + 1), dtype=bool)
    ok[0] = False
    for d in range(2, qmax + 1):
        ok[d::d, 0::d] = False
    ok &= 2 * np.arange(half + 1) <= np.arange(qmax + 1)[:, None]
    den, num = np.nonzero(ok)
    order = np.argsort(num / den)
    num, den = num[order], den[order]
    mirror = slice(len(num) - 1 - (qmax >= 2), None, -1)
    return (np.concatenate((num, den[mirror] - num[mirror])),
            np.concatenate((den, den[mirror])))


class ArrayRows:
    """The rows of `farey.union_length` for intervals given as float64
    arrays lo and hi: an interval's code is its index, so ib =
    bitlen(n - 1) and `bounds` gathers lo and hi by code."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self.ib = (len(lo) - 1).bit_length()

    def bounds(self, code, lo, hi):
        # codes are indices, so clip mode takes the same words as raise
        # mode without its buffered check
        np.take(self.lo, code, out=lo, mode="clip")
        np.take(self.hi, code, out=hi, mode="clip")


def array_keys(lo, clip_lo=0.0, clip_hi=1.0):
    """The unsorted `farey.sort_keys` keys of intervals with left ends lo,
    coded by index as `ArrayRows` decodes them, built a block at a time
    so the build holds one word per interval and a few blocks."""
    n = len(lo)
    ib = (n - 1).bit_length()
    keys = np.empty(n, dtype=np.int64)
    for start in range(0, n, farey.BLOCK):
        stop = min(start + farey.BLOCK, n)
        farey.sort_keys(lo[start:stop], np.arange(start, stop), ib, clip_lo,
                        clip_hi, keys[start:stop])
    return keys


def array_union_length(lo, hi, clip_lo=0.0, clip_hi=1.0):
    """`farey.union_length` of the intervals [lo_i, hi_i], through
    `array_keys` and `ArrayRows`; lo and hi are left as they are."""
    return farey.union_length(array_keys(lo, clip_lo, clip_hi),
                              ArrayRows(lo, hi), clip_lo, clip_hi)


def stable_union_length(lo, hi, clip_lo=0.0, clip_hi=1.0):
    """The float sweep of `farey.union_length` over a stable argsort:
    the (lo, index) order its tie fix must reproduce bit for bit."""
    if len(lo) == 0:
        return 0.0
    lo = np.clip(lo, clip_lo, clip_hi)
    hi = np.clip(hi, clip_lo, clip_hi)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_end = np.maximum.accumulate(hi)
    prev_end = np.empty_like(run_end)
    prev_end[0] = clip_lo
    prev_end[1:] = run_end[:-1]
    gain = hi - np.maximum(lo, prev_end)
    return float(gain[gain > 0].sum())


def gcd_cell_sweep(b_vals, radii):
    """`systems._cell_sweep` with every candidate a/b tested by np.gcd
    and measured by `stable_union_length`: the same cells (read from
    systems._CELL_BUDGET at call time), the same balls in the same
    order, so the same (measure, ball count) bit for bit."""
    if len(b_vals) == 0:
        return 0.0, 0
    budget = sy._CELL_BUDGET
    flat_fixed = float(np.sum(2.0 * radii * b_vals) + 3 * len(b_vals))
    flat_sweep = float(b_vals.astype(np.float64).sum())
    ncells = max(1, math.ceil(flat_sweep /
                              max(budget - flat_fixed, budget / 8)))
    edges = np.linspace(0.0, 1.0, ncells + 1)
    total = 0.0
    n_balls = 0
    for i in range(ncells):
        clo, chi = float(edges[i]), float(edges[i + 1])
        a_lo = np.floor(b_vals * (clo - radii)).astype(np.int64) - 1
        a_hi = np.ceil(b_vals * (chi + radii)).astype(np.int64) + 1
        np.clip(a_lo, 0, b_vals, out=a_lo)
        np.clip(a_hi, 0, b_vals, out=a_hi)
        counts = a_hi - a_lo + 1
        tot = int(counts.sum())
        if tot > 10 * budget:
            raise ResourceCapError(
                "sweep cell holds %d candidate balls; the stage radii are "
                "too large for the configured cell budget" % tot)
        b_rep = np.repeat(b_vals, counts)
        starts = np.cumsum(counts) - counts
        a_flat = (np.arange(tot, dtype=np.int64)
                  - np.repeat(starts, counts) + np.repeat(a_lo, counts))
        keep = np.gcd(a_flat, b_rep) == 1
        b_rep, a_flat = b_rep[keep], a_flat[keep]
        r_flat = np.repeat(radii, counts)[keep]
        centers = a_flat / b_rep
        n_balls += len(centers)
        total += stable_union_length(centers - r_flat, centers + r_flat,
                                     clo, chi)
    return total, n_balls


def window_pairs(system, w_lo, w_hi):
    """Every raw (point, weight) pair with weight (q, or 2q^2 for Ford
    circles) in (w_lo, w_hi], by weight then point.  Denominators are
    walked up from 1, so no q-range arithmetic of the system is trusted."""
    ford = system.kind is sy.SystemKind.FORD
    pairs = []
    q = 1
    while (w := Fraction(2 * q * q if ford else q)) <= w_hi:
        if w > w_lo:
            pairs += [(Fraction(p, q), w) for p in range(q + 1)
                      if not ford or math.gcd(p, q) == 1]
        q += 1
    return pairs


def window_count(system, w_lo, w_hi) -> int:
    """len(window_pairs(system, w_lo, w_hi)) without listing the pairs:
    over the window's denominators (`q_interval`), q + 1 points each on
    the rationals, summed in closed form, and the phi(q) reduced ones
    for Ford circles, phi counted by trial division, with 0/1 next to
    1/1 at q = 1."""
    q_lo, q_hi = system.q_interval(w_lo, w_hi)
    if q_lo > q_hi:
        return 0
    if system.kind is sy.SystemKind.RATIONALS:
        return (q_hi - q_lo + 1) * (q_lo + q_hi + 2) // 2
    return sum(totient(q) for q in range(q_lo, q_hi + 1)) + (q_lo == 1)


def totient(n: int) -> int:
    """Euler's phi(n) off the trial-division factorisation of n, 0 at 0."""
    phi, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            phi -= phi // p
            while m % p == 0:
                m //= p
        p += 1
    return phi - phi // m if m > 1 else phi


def stage_balls(system, stage, n):
    """Every raw (p/q, exact radius) ball of stage n.

    Duplicate centres (2/4 next to 1/2) stay in, each with the radius of
    its own weight, so this knows nothing of the reduced-centre dedup
    the scan relies on.  A form with no exact values (a log factor) gets
    its float64 radius, read exactly.
    """
    @cache
    def radius(w):
        try:
            return fn.evaluate_rational(stage.form, w)
        except UsageError:
            return Fraction(float(fn.evaluate_array(stage.form, float(w))))
    return [(c, radius(w)) for c, w in window_pairs(system, *stage.window(n))]


@dataclass(frozen=True)
class Horoball:
    base: Fraction
    radius: Fraction
    weight: Fraction


def ball_at(p: int, q: int) -> Horoball:
    if q < 1 or math.gcd(p, q) != 1:
        raise UsageError("base must be p/q in lowest terms with q >= 1")
    return Horoball(Fraction(p, q), Fraction(1, 2 * q * q),
                    Fraction(2 * q * q))


def enumerate_horoballs(base_window, r_lo, r_hi, cap=DEFAULT_BALL_CAP):
    """Every Ford circle with base in the half-open window and radius in
    [r_lo, r_hi), ordered by denominator then base: the list whose
    length horoballs.count_horoballs must give.  Denominators are walked
    up from 1, so horoballs.q_window is not trusted; more than cap
    circles raise ResourceCapError."""
    b_lo, b_hi = Fraction(base_window[0]), Fraction(base_window[1])
    out = []
    q = 1
    while Fraction(1, 2 * q * q) >= r_lo:
        if Fraction(1, 2 * q * q) < r_hi:
            for p in range(math.ceil(q * b_lo), math.ceil(q * b_hi)):
                if math.gcd(p, q) == 1:
                    out.append(ball_at(p, q))
            if len(out) > cap:
                raise ResourceCapError("more than %d circles" % cap)
        q += 1
    return out


def count_R_exact(x: Fraction, N: int, psi: fn.FunctionForm) -> int:
    """Fraction-arithmetic twin of counting.count_R for rational x and
    rational-valued psi (evaluate_rational refuses any other); the float
    path's oracle."""
    x = Fraction(x)
    count = 0
    for q in range(1, N + 1):
        t = q * x
        p = round(t)
        if abs(t - p) < q * fn.evaluate_rational(psi, q):
            count += 1
    return count


def count_R_float(x, N: int, psi: fn.FunctionForm) -> int:
    """counting.count_R as one uncached call: a fresh q-grid and q psi(q)
    bound, then the same float operations on them."""
    qs = np.arange(1, N + 1, dtype=np.float64)
    bound = qs * fn.evaluate_array(psi, qs)
    xf = float(x)
    dist = np.abs(qs * xf - np.rint(qs * xf))
    return int(np.count_nonzero(dist < bound))


def full_square_pair_counts(nums, dens):
    """(pairs, tangent, overlap) over the pairs i < j of the circles at
    nums/dens, read off the whole n x n determinant block: every pair,
    where horoballs.disjointness_check forms D only inside its windows."""
    n = len(nums)
    det = nums[:, None] * dens[None, :] - dens[:, None] * nums[None, :]
    keep = np.arange(n)[:, None] < np.arange(n)[None, :]
    return (int(keep.sum()), int(np.count_nonzero((np.abs(det) == 1) & keep)),
            int(np.count_nonzero((det == 0) & keep)))


@dataclass(frozen=True)
class PairRelation:
    det: int            # p q' - p' q
    tangent: bool
    gap: Fraction       # d^2 - (r + r')^2 + (r - r')^2, exactly


def pair_relation(p: int, q: int, p2: int, q2: int) -> PairRelation:
    """Exact relation between the circles at p/q and p2/q2, via Fractions.

    Recomputes the center-distance identity from scratch (no shortcut
    through the determinant): the witness for the identity layer of
    horoballs.disjointness_check, whose scaled gap is
    4 q^4 q2^4 times this one.
    """
    for pp, qq in ((p, q), (p2, q2)):
        if qq < 1 or math.gcd(pp, qq) != 1:
            raise UsageError("bases must be reduced fractions")
    d = Fraction(p, q) - Fraction(p2, q2)
    r, r2 = Fraction(1, 2 * q * q), Fraction(1, 2 * q2 * q2)
    gap = d * d - (r + r2) ** 2 + (r - r2) ** 2
    det = p * q2 - p2 * q
    if gap != Fraction(det * det - 1, (q * q2) ** 2):
        raise InternalInvariantError("center-distance identity failed at "
                                     "%d/%d vs %d/%d" % (p, q, p2, q2))
    return PairRelation(det, det * det == 1, gap)


# -- geodesics helpers that no command runs ----------------------------------

def quotients_value(quots) -> Fraction:
    """The exact rational [0; a_1, ..., a_M] for a finite quotient list."""
    value = Fraction(0)
    for a in reversed(geo._check_quotients(quots)):
        value = Fraction(1, a + value)
    return value


def gauss_kuzmin_probability(k: int) -> float:
    """Limiting frequency log2(1 + 1/(k(k+2))) of the quotient value k."""
    if k < 1:
        raise UsageError("quotient value must be >= 1, got %r" % (k,))
    return math.log2(1 + Fraction(1, k * (k + 2)))


def sample_quotients(seed: int, index: int, depth: int):
    """Seeded i.i.d. quotients with the Gauss-Kuzmin law.

    Inverse CDF in closed form: the distribution function at a is
    log2(2(a+1)/(a+2)) (the product of the cell probabilities
    telescopes), so a uniform u maps to a = max(1, ceil((2-c)/(c-1)))
    with c = 2^(1-u).  Stream index i uses its own Philox counter lane,
    the same splitting contract as the sampling in ``counting``.
    """
    if depth < 1:
        raise UsageError("depth must be >= 1, got %r" % (depth,))
    bits = np.random.Philox(key=seed, counter=[0, 0, 1, index])
    u = np.random.Generator(bits).random(depth)
    c = np.exp2(1.0 - u)
    a = np.maximum(1.0, np.ceil((2.0 - c) / (c - 1.0)))
    return tuple(int(v) for v in a)


def hyperbolic_distance(z1: complex, z2: complex) -> float:
    if not (z1.imag > 0 and z2.imag > 0):
        raise UsageError("hyperbolic distance needs Im > 0 on both points")
    w = z1 - z2
    x = (w.real * w.real + w.imag * w.imag) / (2.0 * z1.imag * z2.imag)
    return math.acosh(1.0 + max(x, 0.0))


def apply_word(word: geo.Word, z: complex) -> complex:
    """Mobius action of an integer word on z, evaluated in exact
    rational arithmetic and rounded once at the end (the naive float
    form cancels badly for ill-conditioned words)."""
    (a, b), (c, d) = word
    x, y = Fraction(z.real), Fraction(z.imag)
    nre, nim = a * x + b, a * y
    dre, dim = c * x + d, c * y
    den = dre * dre + dim * dim
    if den == 0:
        raise UsageError("word denominator vanishes at %r" % (z,))
    return complex((nre * dre + nim * dim) / den,
                   (nim * dre - nre * dim) / den)


def euclid_quotients(x: Fraction, depth: int):
    """(quotients, terminated) of an exact x in (0, 1): one divmod per
    quotient on the full pair, the loop the chunked kernel replaced."""
    num, den = x.numerator, x.denominator
    quots = []
    while num and len(quots) < depth:
        a, rem = divmod(den, num)
        quots.append(a)
        den, num = num, rem
    return quots, num == 0


def cf_expansion(x: Fraction, depth: int):
    """(quotients, p, q, terminated) of an exact x in (0, 1): Euclid with
    separate // and %, and the convergents read back off the lists."""
    num, den = x.numerator, x.denominator
    quots = []
    while num and len(quots) < depth:
        a, num, den = den // num, den % num, num
        quots.append(a)
    p, q = [0], [1]
    pm, qm = 1, 0
    for a in quots:
        p.append(a * p[-1] + pm)
        q.append(a * q[-1] + qm)
        pm, qm = p[-2], q[-2]
    return tuple(quots), tuple(p), tuple(q), num == 0


def alpha_sweep(quots):
    """alpha[j] = [a_j; a_{j+1}, ..., a_M] for j = 1..M: one backward
    pass over the whole list (alpha[0] is unused)."""
    M = len(quots)
    alpha = [0.0] * (M + 1)
    alpha[M] = float(quots[M - 1])
    for j in range(M - 1, 0, -1):
        alpha[j] = quots[j - 1] + 1.0 / alpha[j + 1]
    return alpha


def state_columns(quots, size):
    """(log q_n, q_{n-1}/q_n, p_{n-1}/q_{n-1}, p_n/q_n) for n = 0..size-1
    (size <= len(quots) + 1): the one-pass state recursion, every column
    stored as it goes, with p_{-1}/q_{-1} taken as 0."""
    L = beta = r_prev = r = 0.0
    cols = [(L, beta, r_prev, r)]
    for n, a in enumerate(quots[:size - 1]):
        s = a + beta
        beta_new = 1.0 / s
        L += math.log(s)
        if n == 0:
            r = 1.0 / a
        else:
            bb = beta * beta_new
            r_prev, r = r, r * (1.0 - bb) + r_prev * bb
        beta = beta_new
        cols.append((L, beta, r_prev, r))
    return cols


def excursion_stream(direction, T, peaked=True):
    """(n, t_enter, t_peak, t_exit, log H_n) for every excursion with
    0 < t_peak <= T (with peaked False, for every excursion of the state
    run, which covers all that enter by T): the one-pass scalar stream,
    advancing the state and evaluating every excursion as it goes.
    Raises PrecisionExhausted where the package's engine must run out of
    quotients: a Fraction is expanded to its end, and a quotient list is
    certified up to 25 entries before its end, starting from the float
    of its 64-quotient prefix."""
    exhaust_ok = isinstance(direction, Fraction)
    if exhaust_ok:
        quots = euclid_quotients(direction, math.inf)[0]
        x0, n_cap = float(direction), len(quots) - 1
    else:
        quots = list(direction)
        x0 = float(quotients_value(quots[:64]))
        n_cap = len(quots) - 26
    alpha = alpha_sweep(quots)
    log, exp, sqrt = math.log, math.exp, math.sqrt
    out = []
    L = beta = r_prev = r = 0.0
    xi = x0
    n = 0
    while True:
        if n > n_cap:
            raise PrecisionExhausted(
                "certified quotients exhausted at index %d before reaching "
                "T = %r; pass a Fraction or a longer quotient sequence" % (n, T))
        a_next = alpha[n + 1]
        H = 0.5 * (a_next + xi)
        if H > 1.0:
            ln_q2 = 2.0 * L + math.log1p(r * r)
            im_w = exp(-ln_q2)
            re_w = -beta * (1.0 + r_prev * r) / (1.0 + r * r)
            c_star = 0.5 * (a_next - xi)
            dx = re_w - c_star
            num_peak = dx * dx + (im_w - H) * (im_w - H)
            t_peak = geo._acosh_one_plus(log(num_peak) + ln_q2 - log(2.0 * H))
            if 0.0 < t_peak <= T or not peaked:
                s = sqrt(H * H - 1.0)
                t_cross = []
                for side in (s, -s):
                    num = (dx + side) ** 2 + (1.0 - im_w) ** 2
                    t_cross.append(0.0 if num == 0.0 else geo._acosh_one_plus(
                        log(num) + ln_q2 - geo._LN2))
                t_enter, t_exit = min(t_cross), max(t_cross)
                out.append((n, t_enter, min(max(t_peak, t_enter), t_exit),
                            t_exit, log(H)))
        if n == n_cap:
            if exhaust_ok:
                return out
            growth = alpha[n + 1] - 1.0 + beta
            if growth > 1.0 and 2.0 * (L + log(growth)) - 2.1 > T:
                return out
            raise PrecisionExhausted(
                "certified quotients exhausted at index %d before reaching "
                "T = %r; pass a Fraction or a longer quotient sequence"
                % (n + 1, T))
        a = quots[n]
        beta_new = 1.0 / (a + beta)
        L += log(a + beta)
        if n == 0:
            r_prev, r = 0.0, 1.0 / a
        else:
            bb = beta * beta_new
            r_prev, r = r, r * (1.0 - bb) + r_prev * bb
        beta = beta_new
        xi = 1.0 / (a + xi)
        n += 1
        if 2.0 * L - 2.5 > T:
            return out


def excursion_mp(quots, n, dps=420):
    """(t_enter, t_peak, t_exit, log H_n) of excursion n of [0; quots]
    from the exact convergents, in mpmath at ``dps`` digits: the matrix
    with bottom row (q_n, -p_n) maps the ray to the semicircle over
    [-xi_n, alpha_{n+1}] and i to w0, and each time is the distance from
    w0 to the peak or to a crossing of Im = 1, on the direct formula."""
    import mpmath
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    p0, p1, q0, q1 = 1, 0, 0, 1
    for a in quots[:n]:
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
    x = quotients_value(quots)
    alpha = 1 / quotients_value(quots[n:])   # [a_{n+1}; a_{n+2}, ...]
    xi = (q0 + p0 * x) / (q1 + p1 * x)
    alpha, xi = (ctx.mpf(v.numerator) / v.denominator for v in (alpha, xi))
    H, c = (alpha + xi) / 2, (alpha - xi) / 2
    s = ctx.sqrt(H * H - 1)
    d = q1 * q1 + p1 * p1
    w0 = ctx.mpc(ctx.mpf(-(q0 * q1 + p0 * p1)) / d, ctx.mpf(1) / d)

    def t(w):
        return ctx.acosh(1 + abs(w0 - w) ** 2 / (2 * w0.imag * w.imag))

    t_enter, t_exit = t(ctx.mpc(c - s, 1)), t(ctx.mpc(c + s, 1))
    t_peak = min(max(t(ctx.mpc(c, H)), t_enter), t_exit)
    return tuple(float(v) for v in (t_enter, t_peak, t_exit, ctx.log(H)))


def bisect_boundary(pen_of, t_zero, t_pos):
    """Boundary of {pen > 0} between a zero sample and a positive one:
    60 halvings, every one taken."""
    for _ in range(60):
        mid = 0.5 * (t_zero + t_pos)
        if pen_of(mid) > 0.0:
            t_pos = mid
        else:
            t_zero = mid
    return 0.5 * (t_zero + t_pos)


def ternary_argmax(f, lo, hi, steps):
    """Ternary search for the peak of f on [lo, hi]: ``steps`` steps,
    every one taken."""
    for _ in range(steps):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def loglaw_statistic(direction, T, alpha=0.0):
    """The log-law statistic with the exact bound of every excursion in
    hand before any is searched: rank all of them, search in that order
    until the bound falls to the best score.  An excursion still in
    progress at T is searched up to T."""
    t_floor = math.nextafter(math.e, math.inf)
    candidates = []
    for _, t_enter, t_peak, t_exit, ln_h in excursion_stream(direction, T,
                                                             False):
        lo, hi = max(t_enter, t_floor), min(t_exit, T)
        if hi > lo:
            candidates.append(((ln_h - alpha * lo) / math.log(lo), lo, hi,
                               t_peak, ln_h))
    candidates.sort(reverse=True)
    best = -alpha * math.e
    for bound, lo, hi, t_peak, ln_h in candidates:
        if bound <= best:
            break

        def f(t):
            return (ln_h - geo._logcosh(t - t_peak) - alpha * t) / math.log(t)

        grid = 24
        v_best, k_best = max((f(lo + (hi - lo) * k / grid), k)
                             for k in range(grid + 1))
        a_lo = lo + (hi - lo) * max(k_best - 1, 0) / grid
        a_hi = lo + (hi - lo) * min(k_best + 1, grid) / grid
        best = max(best, v_best, f(ternary_argmax(f, a_lo, a_hi, 70)))
    return best


def sampled_excursions(x: float, T: float, step: float):
    """(convergent, t_enter, t_peak, t_exit, peak) of each excursion of
    the sampled geodesic toward x on [0, T]: every grid time reduced on
    its own, positive runs found by walking the samples."""
    conv_p, conv_q = geo._convergent_arrays(
        euclid_quotients(Fraction(x), math.inf)[0])

    def pen_at(t):
        im = geo.reduce_to_fundamental(geo.geodesic_point(x, t).z)[0].imag
        return math.log(im) if im > 1.0 else 0.0

    ts = [j * step for j in range(int(T / step) + 1)]
    if ts[-1] < T:
        ts.append(T)
    pens = [pen_at(t) for t in ts]
    out = []
    j = 0
    while j < len(ts):
        if pens[j] <= 0.0:
            j += 1
            continue
        j0 = j
        while j + 1 < len(ts) and pens[j + 1] > 0.0:
            j += 1
        j1 = j
        j += 1
        t_enter = (0.0 if j0 == 0 else
                   bisect_boundary(pen_at, ts[j0 - 1], ts[j0]))
        t_exit = (ts[j1] if j1 + 1 >= len(ts) else
                  bisect_boundary(pen_at, ts[j1 + 1], ts[j1]))
        k_best = max(range(j0, j1 + 1), key=lambda k: pens[k])
        lo = max(t_enter, ts[k_best] - step)
        hi = min(t_exit, ts[k_best] + step)
        t_peak = ternary_argmax(pen_at, lo, hi, 90)
        peak = pen_at(t_peak)
        t_peak = min(max(t_peak, t_enter), t_exit)
        _, word = geo.reduce_to_fundamental(geo.geodesic_point(x, t_peak).z)
        key = (abs(word[1][1]), abs(word[1][0]))
        match = next((n for n, pq in enumerate(zip(conv_p, conv_q))
                      if pq == key), None)
        out.append((match, t_enter, t_peak, t_exit, peak))
    return out


# -- the symbolic family: scalar float evaluation --------------------------

def _in_domain(form: fn.FunctionForm, r: float) -> bool:
    if form.family is fn.Family.EXP_POWER:
        return r >= 0
    if r <= 0:
        return False
    t = form.domain_threshold
    return r > t if form.regime is fn.Regime.LARGE else r < t


def evaluate(form: fn.FunctionForm, r) -> float:
    """f(r) at a single point, enforcing the domain threshold: the
    scalar twin of functions.evaluate_array."""
    rf = float(r)
    if not _in_domain(form, rf):
        raise DomainError(
            "r=%r is outside the domain of %s (threshold %s, %s regime)"
            % (r, fn.format_function(form), form.domain_threshold,
               form.regime.value))
    if form.family is fn.Family.EXP_POWER:
        return math.exp(-(rf ** float(form.omega)))
    x = math.log(rf) if form.regime is fn.Regime.LARGE else math.log(1.0 / rf)
    out = float(form.scale) * rf ** float(form.power)
    if form.log_power:
        out *= x ** float(form.log_power)
    if form.loglog_power:
        out *= math.log(x) ** float(form.loglog_power)
    return out


def evaluate_log(form: fn.FunctionForm, r: float) -> float:
    """log f(r), stable where f itself would over/underflow a float."""
    rf = float(r)
    if not _in_domain(form, rf) or rf == 0:
        raise DomainError("r=%r outside domain of %s"
                          % (r, fn.format_function(form)))
    if form.family is fn.Family.EXP_POWER:
        return -(rf ** float(form.omega))
    x = math.log(rf) if form.regime is fn.Regime.LARGE else math.log(1.0 / rf)
    out = math.log(float(form.scale)) + float(form.power) * math.log(rf)
    if form.log_power:
        out += float(form.log_power) * math.log(x)
    if form.loglog_power:
        out += float(form.loglog_power) * math.log(math.log(x))
    return out


def gauge_log_of(outer, log_x: float) -> float:
    """log outer(x) given log x < 0, for a small-r gauge (or identity)."""
    if outer is None:
        return log_x
    if log_x >= 0:
        raise DomainError("gauge argument must be < 1")
    al, be, ga = (float(e) for e in outer.exponent_triple)
    out = math.log(float(outer.scale)) + al * log_x
    if be:
        out += be * math.log(-log_x)
    if ga:
        out += ga * math.log(math.log(-log_x))
    return out


# -- float witnesses of the exact verdicts ---------------------------------

def classify_exponents(A, B=0, C=0) -> fn.Verdict:
    """Integral-test verdict on sum r^A (log r)^B (loglog r)^C: convergent
    iff (A, B, C) is lexicographically below (-1, -1, -1)."""
    ok = (Fraction(A), Fraction(B), Fraction(C)) < (-1, -1, -1)
    return fn.Verdict.CONVERGENT if ok else fn.Verdict.DIVERGENT


def refined_log_gauge_verdict(omega, n: int, epsilon) -> fn.Classification:
    """Verdict at the critical log-gauge scale n/omega of exp(-r^omega)
    in dimension n, refined by (loglog 1/r)^(-(1+eps)): the reduced
    series is comparable to sum 1/(r (log r)^(1+eps))."""
    omega, epsilon = Fraction(omega), Fraction(epsilon)
    gauge = fn.dimension_gauge(log_power=-Fraction(n) / omega,
                               loglog_power=-(1 + epsilon))
    return fn.series_classify(fn.SeriesSpec(Fraction(n - 1),
                                            fn.exp_power(omega), gauge))


def regularity_ratios(form: fn.FunctionForm, k: int,
                      n_range=(10, 40)) -> list:
    """h(k^(n+1)) / h(k^n) for n in n_range, up to the first point past
    float range: the float witness of functions.is_k_regular."""
    ratios = []
    for n in range(n_range[0], n_range[1] + 1):
        try:
            delta = (evaluate_log(form, float(k) ** (n + 1))
                     - evaluate_log(form, float(k) ** n))
        except (OverflowError, DomainError):
            break
        ratios.append(math.exp(delta) if delta < 700 else math.inf)
    return ratios


def g_samples(outer, psi: fn.FunctionForm, rho: fn.FunctionForm, delta,
              k: int, n_max: int = 30) -> list:
    """(n, g(k^n)) for n = 2..n_max where g = outer(psi) rho^(-delta) is
    defined, evaluated in log space: the float witness of
    functions.compute_G."""
    samples = []
    for n in range(2, n_max + 1):
        r = float(k) ** n
        try:
            val = (gauge_log_of(outer, evaluate_log(psi, r))
                   - float(delta) * evaluate_log(rho, r))
        except (DomainError, ValueError, OverflowError):
            continue
        samples.append((n, math.exp(val) if val < 700 else math.inf))
    return samples


# -- uniform stages: one ratio, the list's inverses, the natural cover sum -

def minus_inverse_euclid(b, b2):
    """a in [0, b) with a b2 = -1 (mod b), for coprime int64 arrays b, b2
    >= 1: the extended Euclid of (b, b2 mod b), run over every pair at
    once, keeps t_i b2 = r_i (mod b) and ends at r = 1 with t = b2^-1.
    The witness for `ubiquity._minus_inverse`'s modular powers."""
    out = np.empty_like(b)
    at = np.arange(len(b))
    r0, r1 = b, b2 % b
    t0, t1 = np.zeros_like(b), np.ones_like(b)
    while len(at):
        done = r1 == 0
        out[at[done]] = t0[done]
        live = ~done
        at, r0, r1, t0, t1 = at[live], r0[live], r1[live], t0[live], t1[live]
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return np.negative(out, out=out) % b


def ubiquity_ratio(system, rho: fn.FunctionForm, k, n: int, ball,
                   q_cap: int = ub.MAX_UNIFORM_Q) -> Fraction:
    """m(B ∩ union of B(x, rho(k^n)) over weights <= k^n) / m(B), exactly:
    one ball and one stage of ubiquity.estimate_kappa."""
    report, = ub.estimate_kappa(system, rho, k, [ball], [n], q_cap=q_cap)
    return report.kappa_hat


def natural_cover_sum(f, psi: fn.FunctionForm, system, k, m_start: int,
                      m_end: int) -> float:
    """sum over stages n = m_start..m_end of
    (number of points with weight in (k^(n-1), k^n]) * f(psi(k^n)).

    f = None means the identity.  This is the natural-cover estimate of
    the Hausdorff f-content of the tail limsup set.
    """
    k = fn.exact(k, "k")
    if k <= 1:
        raise UsageError("k must exceed 1")
    if not (1 <= m_start <= m_end):
        raise UsageError("need 1 <= m_start <= m_end")
    if f is not None and not f.is_gauge():
        raise UsageError("f must be a dimension gauge (or None for identity)")
    if system.kind is sy.SystemKind.FORD:
        farey.check_sieve(system.stage_q_top(k, m_end, farey.MAX_SIEVE,
                                             "cover sum"), "cover sum")
    total = 0.0
    for n in range(m_start, m_end + 1):
        count = window_count(system, k ** (n - 1), k ** n)
        if count == 0:
            continue
        r_val = evaluate(psi, float(k) ** n)
        if f is None:
            term = r_val
        elif r_val == 0:
            term = 0.0       # gauges vanish at 0+; continuous extension
        else:
            term = evaluate(f, r_val)
        total += count * term
    return total
