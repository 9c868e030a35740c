"""Continued fractions and cusp excursions of geodesics on the modular
surface.

The geodesic from i toward an irrational x in (0, 1) makes repeated
excursions into the cusp region {Im z > 1} of the standard fundamental
domain, one excursion per continued-fraction convergent p_n/q_n of x.
Everything quantitative about those excursions has a closed form in the
CF data.  Write a_1, a_2, ... for the partial quotients of x and

    alpha_{n+1} = [a_{n+1}; a_{n+2}, ...]            (the forward tail)
    xi_n        = (q_{n-1} + p_{n-1} x)/(q_n + p_n x)  (so xi_n = 1/(a_n + xi_{n-1}))

Mapping the geodesic by the integer matrix with bottom row (q_n, -p_n)
sends the two boundary endpoints x and -1/x to alpha_{n+1} and -xi_n.
The image is the semicircle over [-xi_n, alpha_{n+1}], so the n-th
excursion peaks at height

    H_n = (alpha_{n+1} + xi_n) / 2,     peak penetration = log H_n,

and the basepoint i lands at w0 with Im w0 = 1/(q_n^2 + p_n^2) and
Re w0 = -(q_{n-1} q_n + p_{n-1} p_n)/(q_n^2 + p_n^2).  Times along the
ray are hyperbolic distances from w0, via cosh t = 1 + |w0 - w|^2 /
(2 Im w0 Im w), evaluated in log form once q_n is large:  with
lnQ2 = 2 log q_n + log(1 + (p_n/q_n)^2),

    log X = log((Re w0 - Re w)^2 + (Im w0 - Im w)^2) + lnQ2 - log(2 Im w),
    t = arccosh(1 + X) = log(2X) + O(1/X).

Only bounded ratios (q_{n-1}/q_n, p_n/q_n, xi, alpha) and the log-size
of q_n enter, so the recursion runs to arbitrary times without ever
forming q_n itself.

Certification: a direction is exact, a Fraction or the quotient
sequence itself; a float is refused (pass Fraction(x), the dyadic
rational it stands for).  A quotient whose float conversion overflows
(a >= 2^1024 - 2^970, _FLOAT_LIMIT) is refused with PrecisionExhausted
naming the first such index, by one scan of the whole list before any
state is computed, whatever the horizon; every excursion below it gets
its times, however deep it peaks.  Euclid reads the quotients of a long
pair a chunk at a time off its leading bits, with one exact test of the
chunk's last two remainders on the full pair certifying every quotient
in it (_lead_chunk, _certified_state); short pairs and huge
quotients take one ``divmod`` each.  The convergents p_n, q_n of a
CFExpansion are built each time they are read, so a caller reading
only the quotients, as every stream here does, never builds them.
Every record is a NamedTuple, GeodesicState and ExcursionRecord
checking their fields in `__new__`, so no command loads `dataclasses`.

Every returned float of an excursion peaking up to _H_MAX is the one
the plain scalar evaluation gives, bit for bit (tests/oracles.py keeps
that evaluation; past _H_MAX no difference cancels).  The state
recursion (log q_n, q_{n-1}/q_n, p_n/q_n, xi_n) runs in order, since
each step divides by or takes the log of the one before.  One lean pass
keeps only log q_n and xi_n, all that the horizon and the log-law
ranking read (_orbit); beta_n = q_{n-1}/q_n and r_n = p_n/q_n are
replayed on demand from the last state materialised, by the same
operations in the same order, so each excursion is evaluated on its own
from the floats the one-pass recursion gives (_replay, _excursion_at).
The log law replays only up to the last excursion it evaluates; the
excursion streams materialise every state.

The forward tails are swept backwards, alpha_j = a_j + 1/alpha_{j+1}
from alpha_M = a_M, but only from a little past the horizon
(_alpha_head).  The full sweep's alpha_K is a_K + u rounded, with u =
1/alpha_{K+1} rounded in (0, 1] since alpha_{K+1} >= 1; rounding to
nearest is monotone, so it lies between the sweeps started from a_K + 0
and a_K + 1.  The step x -> a + 1/x in round-to-nearest floats is
monotone too (decreasing), so at every lower index the full sweep's
float lies between the two sweeps' floats, whichever is the larger.
Where the two coincide the full sweep equals them, and from there down
all three run the same operations on the same float: every alpha_j at
or below the first index where they meet is the full sweep's, bit for
bit.  The bracket shrinks by about alpha_j^2 a step (two steps shrink
it at least 4-fold), and closed within 38 steps on every list measured,
all-ones lists being the slowest; so from K = m + 64 it closes above the
horizon m.  A bracket still open at m widens the margin 4-fold, ending
at the whole sweep.

Transcendentals come from libm through ``math``, never from numpy: on
common hosts numpy's SIMD exp, log1p, arccosh and log differ from libm
in the last bit on a share of inputs, which would move the repr floats
in artifacts.  numpy does only correctly rounded operations (+ - * /,
floor) for the sampling grid of `excursions`.  The exact engine and
the log law never import it.

The log law evaluates only excursions that can win.  On excursion n
the score (pen - alpha t)/log t is at most g(t) = (log H_n - alpha t) /
log t, and g decreases for t > e because log H_n > 0.  Since t_enter >=
2 log q_n - 2.1 (see _orbit), g at lo_n = max(e+, 2 log q_n - 2.1 -
1e-6) bounds the whole excursion from the state alone, before any entry
time is computed (_score_cap).  log q_n never decreases, so over a block
of states the bound at the block's first lo_n covers every state, and
one height threshold on H_n per block (_block_threshold) passes every
excursion that could beat the best score.  The log law first searches
the tallest excursion of each block, then every excursion of a block
above its threshold whose own bound beats the best score; no order of
the search changes the maximum it finds.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, count, islice
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union
import warnings

from limsuplab.errors import (
    InternalInvariantError,
    PrecisionExhausted,
    ResourceCapError,
    UsageError,
    text_echo,
)

__all__ = [
    "CF_PROXY_CONSTANT",
    "CFExpansion",
    "GeodesicState",
    "ExcursionRecord",
    "StepTooCoarseWarning",
    "cf_expand",
    "geodesic_point",
    "reduce_to_fundamental",
    "predicted_excursions",
    "excursions",
    "loglaw_statistic",
]

# |peak penetration - log a_{n+1}| <= CF_PROXY_CONSTANT for every
# excursion.  Frozen after calibration; the analytic bound is log 2
# (H_n/a_{n+1} lies in (1/2, 3/2]), so 0.75 leaves slack for float
# rounding only.
CF_PROXY_CONSTANT = 0.75

_LN2 = math.log(2.0)
# Tail digits held back when a quotient sequence is only a prefix of the
# direction: alpha_{n+1} read off a tail cut at depth 25 is
# accurate to ~ 1/Fib(25)^2 < 2e-10 whatever the unseen digits are.
_ALPHA_TAIL = 25
_REDUCE_CAP = 100_000
MAX_SAMPLES = 2_000_000
# float(a) overflows from here: the largest float is 2^1024 - 2^971, and
# half an ulp above it is a tie that rounds to even, 2^1024
_FLOAT_LIMIT = (1 << 1024) - (1 << 970)
# The two alpha sweeps of _alpha_head start this far past the horizon
_ALPHA_MARGIN = 64
# Up to this peak height the entering offset dx + s, O(1/H), cancels two
# H-sized terms: error e <= H 2^-52, so e^2 <= 2^-52 in num_in.  Past it
# the offset is re_w - (1 - a xi)/(c* + s) and each square 2 log hypot.
_H_MAX = 2.0 ** 26
# The sampled grid is reduced column-wise in chunks of this many times,
# so its scratch arrays stay a few MB whatever the sample count.
_GRID_CHUNK = 1 << 14
# Below this height a coordinate in the vectorised reduction could
# overflow; such a chunk takes the scalar path, which raises where it
# always did.
_GRID_MIN_IM = 1e-300
# A run's best sample is searched among the heights within this relative
# window of its largest (see excursions); 3.3e-10 would do
_PEAK_WINDOW = 1e-9
# The log law ranks states this many at a time under one height threshold
_CAP_BLOCK = 256
_T_FLOOR = math.nextafter(math.e, math.inf)
# Chunked Euclid (_euclid_quotients), timed on 2 vCPUs with CPython
# 3.11.  A divmod of two multi-digit ints costs about 0.2 us from 58 to
# 256 bits, against 0.9 us at 4096 bits, so a chunk runs Euclid on the
# leading _LEAD_BITS bits and yields about 55 quotients (96 bits of
# cofactor at 1.71 bits per Gauss-Kuzmin quotient).  With quotient 1
# taken by a subtraction, 192 and 256 tied on 4096-bit inputs to depth
# 1000 (0.31 ms a call), 128 and 384 were slower (0.32-0.34 ms).  Below
# _CHUNK_MIN_BITS a chunk pays no more than it costs: full expansions of
# 768 to 2048 bits took the same time either way, of 3072 bits 0.8x.  A
# chunk under _MIN_CHUNK quotients is not tested, its test costing more
# than the divmod steps it saves (with 4, quotients of 2^90 after every
# three 1s took 2.0x the plain loop; with 8, 1.1x).  Probes that fail
# run up to _BACKOFF_CAP divmod steps before the next.
_LEAD_BITS = 192
_HALF_LEAD = 1 << (_LEAD_BITS // 2)
_CHUNK_MIN_BITS = 1024
_MIN_CHUNK = 8
_BACKOFF_CAP = 64

Direction = Union[Fraction, Sequence[int]]
Word = Tuple[Tuple[int, int], Tuple[int, int]]

class StepTooCoarseWarning(UserWarning):
    """Sampling skipped a cusp excursion predicted from the CF data."""


# ---------------------------------------------------------------------------
# continued fractions


class CFExpansion(NamedTuple):
    """Partial quotients a_1..a_N with the convergents p_n/q_n.

    ``quotients`` come from chunked, certified Euclid
    (_euclid_quotients): about 55 per chunk off the leading bits of a
    long pair, one ``divmod`` each otherwise.  ``p`` and ``q`` are
    built from them each time they are read, so a caller reading only
    the quotients never pays the 2N big-integer multiply-adds.  They
    start at index 0 (p_0/q_0 = 0/1), so they are one longer than
    ``quotients``.  ``terminated`` marks an expansion that ended by
    itself within the requested depth.
    """

    x: Fraction
    quotients: Tuple[int, ...]
    terminated: bool

    @property
    def p(self) -> Tuple[int, ...]:
        return _convergent_arrays(self.quotients)[0]

    @property
    def q(self) -> Tuple[int, ...]:
        return _convergent_arrays(self.quotients)[1]


def _euclid_quotients(x: Fraction, depth: int) -> Tuple[List[int], bool]:
    """Exact partial quotients of x in (0, 1); True if the expansion
    ended within ``depth``.

    While the denominator has at least _CHUNK_MIN_BITS bits, quotients
    come a chunk at a time from the pair's leading bits (_lead_chunk),
    each chunk certified by one exact test on the full pair.  A pair
    with no chunk to give, because its next quotient has _LEAD_BITS / 2
    bits or more or the chunk would be too thin to pay for its test,
    takes exact ``divmod`` steps instead: 1, 2, 4, ... up to
    _BACKOFF_CAP of them while chunks keep failing, so a run of spikes
    costs few probes.  Below _CHUNK_MIN_BITS every step is one
    ``divmod``."""
    num, den = x.numerator, x.denominator
    out: List[int] = []
    append = out.append
    backoff = 0
    while num:
        left = depth - len(out)
        if not left:
            break
        bits = den.bit_length()
        if bits < _CHUNK_MIN_BITS:
            den, num = _divmod_steps(den, num, left, append)
            break
        chunk = (_lead_chunk(den, num, left)
                 if bits - num.bit_length() < _LEAD_BITS // 2 else None)
        if chunk is None:
            backoff = min(2 * backoff, _BACKOFF_CAP) if backoff else 1
            den, num = _divmod_steps(den, num, min(backoff, left), append)
            continue
        backoff = 0
        quots, den, num = chunk
        out.extend(quots)
    return out, num == 0


def _divmod_steps(den: int, num: int, count: int, append) -> Tuple[int, int]:
    """Up to ``count`` plain Euclid steps on den/num, each quotient passed
    to ``append``; the pair left.  One divmod per step: ``//`` and ``%``
    would each run the big-integer division."""
    for _ in range(count):
        if not num:
            break
        a, rem = divmod(den, num)
        append(a)
        den, num = num, rem
    return den, num


def _lead_chunk(den: int, num: int, limit: int
                ) -> Optional[Tuple[List[int], int, int]]:
    """The next k <= ``limit`` partial quotients of den/num with the pair
    (s_{k-1}, s_k) they leave, or None when fewer than _MIN_CHUNK of them
    can be read off the leading bits.  den has more than _LEAD_BITS bits,
    and num is shorter by fewer than _LEAD_BITS / 2 bits.

    With h = bitlen(den) - _LEAD_BITS, Euclid runs on d_t = den >> h and
    n_t = num >> h, keeping only the cofactors Q_j (Q_{-1} = 0, Q_0 = 1,
    Q_j = b_j Q_{j-1} + Q_{j-2}), and stops once a remainder s'_j drops
    below _LEAD_BITS / 2 bits.  Its remainders satisfy (-1)^j (Q_j n_t -
    P_j d_t) = s'_j, so P_{k-1} and P_k are exact quotients by d_t, and
    s_j = (-1)^j (Q_j num - P_j den) gives the full remainders of the
    last two: four multiplications.  _certified_state tests them; only
    its acceptance makes b_1..b_k Euclid's quotients of den/num.

    The chunk is cut back, before that test, to the longest k whose
    truncated data bound the truncation error.  Write den = 2^h d_t +
    d_e and num = 2^h n_t + n_e with 0 <= d_e, n_e < 2^h.  Then s_j =
    2^h s'_j + (-1)^j (Q_j n_e - P_j d_e) with 0 <= P_j <= Q_j, so
    |s_j / 2^h - s'_j| < Q_j.  Hence s'_k >= Q_k and s'_{k-1} - s'_k >=
    Q_k + Q_{k-1} give 0 < s_k < s_{k-1}, and the test passes; its
    failure is an invariant error.  A step with s'_{j-1} < 2 s'_j has
    quotient 1 and remainder s'_{j-1} - s'_j, so it takes that
    subtraction and no ``divmod``.  The cut runs s'_{j-2} = b_j s'_{j-1}
    + s'_j and Q_{j-2} = Q_j - b_j Q_{j-1} backwards.  Without the cut
    the last quotient, read off a remainder whose error is about its
    size, fails the test in about one chunk in 60 on Gauss-Kuzmin
    quotients and in a third of the chunks that end at a quotient of
    10^60, and each failure costs a second test.
    """
    shift = den.bit_length() - _LEAD_BITS
    d_t, n_t = den >> shift, num >> shift
    s0, s1 = d_t, n_t      # s'_{j-1}, s'_j
    q0, q1 = 0, 1          # Q_{j-1}, Q_j
    quots: List[int] = []
    append = quots.append
    for _ in range(limit):
        r = s0 - s1
        if r < s1:         # quotient 1, 41.5 % of Gauss-Kuzmin quotients
            append(1)
            q0, q1 = q1, q1 + q0
        else:
            a, r = divmod(s0, s1)
            append(a)
            q0, q1 = q1, a * q1 + q0
        s0, s1 = s1, r
        if r < _HALF_LEAD:
            break
    k = len(quots)
    while k >= _MIN_CHUNK and not (s1 >= q1 and s0 - s1 >= q0 + q1):
        b = quots[k - 1]
        k -= 1
        s0, s1 = b * s0 + s1, s0
        q0, q1 = q1 - b * q0, q0
    if k < _MIN_CHUNK:
        return None
    sign = -1 if k & 1 else 1
    p1, e1 = divmod(q1 * n_t - sign * s1, d_t)
    p0, e0 = divmod(q0 * n_t + sign * s0, d_t)
    state = (None if e0 or e1 else
             _certified_state(den, num, k, quots[k - 1], p0, q0, p1, q1))
    if state is None:
        raise InternalInvariantError(
            "chunk of %d quotients failed its exact remainder test" % k)
    del quots[k:]
    return quots, state[0], state[1]


def _certified_state(den: int, num: int, k: int, b_k: int, p0: int,
                     q0: int, p1: int, q1: int) -> Optional[Tuple[int, int]]:
    """(s_{k-1}, s_k) if quotients b_1..b_k >= 1, with last quotient b_k
    and convergents p0/q0 = P_{k-1}/Q_{k-1} and p1/q1 = P_k/Q_k, are the
    first k Euclid quotients of den/num (den, num > 0); None otherwise.

    Set s_{-1} = den, s_0 = num and s_j = (-1)^j (Q_j num - P_j den).
    The convergent recursions give s_{j-2} = b_j s_{j-1} + s_j for every
    j <= k.  The test is 0 <= s_k < s_{k-1}, and not (s_k = 0 and b_k =
    1).  It is complete, by backward induction on j: if 0 <= s_j <
    s_{j-1}, then s_{j-1} > 0 and s_{j-2} = b_j s_{j-1} + s_j > s_{j-1},
    strictly because b_j >= 2 or s_j > 0 (for j = k the second clause
    says so; for j < k, s_j > s_{j+1} >= 0).  So 0 <= s_j < s_{j-1}
    holds for every j = k, ..., 1, which makes b_j = floor(s_{j-2} /
    s_{j-1}) and s_j its remainder: Euclid's own steps on den/num.
    Without the second clause [..., a, 1] would pass where Euclid ends
    [..., a + 1]."""
    if k & 1:
        s0, s1 = q0 * num - p0 * den, p1 * den - q1 * num
    else:
        s0, s1 = p0 * den - q0 * num, q1 * num - p1 * den
    if 0 <= s1 < s0 and (s1 or b_k != 1):
        return s0, s1
    return None


def _convergent_arrays(quots: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    p0, p1, q0, q1 = 1, 0, 0, 1  # p_{-1}, p_0, q_{-1}, q_0
    p = [p1]
    q = [q1]
    for a in quots:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        p.append(p1)
        q.append(q1)
    return tuple(p), tuple(q)


def _exact_direction(x) -> Fraction:
    """x as a Fraction in (0, 1); a float is refused, not rounded."""
    if not isinstance(x, Fraction):
        raise UsageError("direction must be a Fraction or a quotient "
                         "sequence, got %r; for a float x pass Fraction(x)"
                         % (x,))
    if not 0 < x < 1:
        raise UsageError("direction must lie in (0, 1), got %s"
                         % text_echo(str(x)))
    return x


def cf_expand(x: Fraction, depth: int) -> CFExpansion:
    """Exact continued-fraction expansion of x in (0, 1) to ``depth``
    quotients (``terminated`` when the whole expansion fits)."""
    if depth < 1:
        raise UsageError("depth must be >= 1, got %r" % (depth,))
    quots, done = _euclid_quotients(_exact_direction(x), depth)
    return CFExpansion(x, tuple(quots), done)


def _check_quotients(quots: Sequence[int]) -> Sequence[int]:
    """The quotients as ints >= 1: a list or tuple of ints >= 1 as it is,
    after one scan of the entry types and one min; anything else by the
    loop, which converts each entry (True, a numpy int, Fraction(3)) and
    names the first bad one."""
    if (isinstance(quots, (list, tuple)) and set(map(type, quots)) == {int}
            and min(quots) >= 1):
        return quots
    out = []
    for a in quots:
        try:
            ai = int(a)
        except (TypeError, ValueError, OverflowError):  # NaN, inf, None
            ai = None
        if ai is None or ai != a or ai < 1:
            raise UsageError("partial quotients must be integers >= 1, got %r" % (a,))
        out.append(ai)
    if not out:
        raise UsageError("quotient sequence is empty")
    return out


# ---------------------------------------------------------------------------
# the geodesic and the fundamental domain


class _StateFields(NamedTuple):
    z: complex
    t: float


class GeodesicState(_StateFields):
    """A point of the unit-speed ray toward x, tagged with its time."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        state = super().__new__(cls, *args, **kwargs)
        z, t = state
        if not z.imag > 0:
            raise PrecisionExhausted(
                "geodesic point left the representable upper half-plane "
                "(Im = %r at t = %r)" % (z.imag, t))
        return state


def geodesic_point(x: float, t: float) -> GeodesicState:
    """The ray from i toward boundary point x, at time t.

    Closed form: conjugating the vertical ray s -> i e^s by the
    isometry fixing x gives, with u = e^{-t},

        z(t) = (x (1 - u^2) + i u (1 + x^2)) / (1 + x^2 u^2).
    """
    if not t >= 0:
        raise UsageError("t must be >= 0, got %r" % (t,))
    if not abs(x) < 1e100:
        raise UsageError("finite direction |x| must be < 1e100, got %r" % (x,))
    u = math.exp(-t)
    u2 = u * u
    den = 1.0 + x * x * u2
    re = x * (1.0 - u2) / den
    im = u * (1.0 + x * x) / den
    return GeodesicState(complex(re, im), t)


def _word_det(word: Word) -> int:
    (a, b), (c, d) = word
    return a * d - b * c


def reduce_to_fundamental(z: complex) -> Tuple[complex, Word]:
    """Move z to the standard fundamental domain of SL(2, Z).

    Alternates the translation taking Re into [-1/2, 1/2) with the
    inversion z -> -1/z whenever |z| < 1 (strict).  Returns the reduced
    point and the integer word applied, det +1, with
    |word . z - zReduced| small at desk precision.
    """
    if not z.imag > 0:
        raise UsageError("z must have Im > 0, got %r" % (z,))
    a, b, c, d = 1, 0, 0, 1
    w = z
    for _ in range(_REDUCE_CAP):
        m = math.floor(w.real + 0.5)
        if m:
            w = complex(w.real - m, w.imag)
            a, b = a - m * c, b - m * d
        if w.real * w.real + w.imag * w.imag < 1.0:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise PrecisionExhausted(
            "fundamental-domain reduction did not settle within %d steps "
            "(Im z = %r is below desk precision)" % (_REDUCE_CAP, z.imag))
    word: Word = ((a, b), (c, d))
    if _word_det(word) != 1:
        raise InternalInvariantError("reduction word has det != 1")
    return w, word


# ---------------------------------------------------------------------------
# excursions, exactly from the convergents


class _ExcursionFields(NamedTuple):
    index: int
    convergent_index: Optional[int]
    t_enter: float
    t_peak: float
    t_exit: float
    peak_pen: float


class ExcursionRecord(_ExcursionFields):
    """One excursion above the horocycle Im = 1.

    ``convergent_index`` is the n of the convergent p_n/q_n whose
    horoball the excursion runs through (None when a sampled excursion
    could not be matched).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rec = super().__new__(cls, *args, **kwargs)
        _, _, t_enter, t_peak, t_exit, peak_pen = rec
        if not (t_enter <= t_peak <= t_exit):
            raise InternalInvariantError(
                "excursion times out of order: %r <= %r <= %r fails"
                % (t_enter, t_peak, t_exit))
        if not peak_pen > 0:
            raise InternalInvariantError("peak penetration must be > 0")
        return rec


def _acosh_one_plus(ln_x: float) -> float:
    """arccosh(1 + e^{ln_x}), stable for any ln_x."""
    if ln_x > 37.0:
        # arccosh(1 + X) = log(2X) + O(1/X); the dropped term is < 1e-16.
        return _LN2 + ln_x
    return math.acosh(1.0 + math.exp(ln_x))


def _alpha_head(quots: Sequence[int], m: int) -> List[float]:
    """alpha[j] = [a_j; a_{j+1}, ..., a_M] for j = 1..m <= M (alpha[0] is
    unused), each the float of the full backward sweep from alpha_M =
    a_M, bit for bit.

    Two sweeps run from K = m + margin, one from a_K + 0 and one from a_K
    + 1, until their floats meet; they bracket the full sweep at every
    index (module docstring), so from the index where they meet one sweep
    is the full sweep.  A bracket still open at m widens the margin
    4-fold; once K reaches M the sweep is the full one."""
    M = len(quots)
    margin = _ALPHA_MARGIN
    while m + margin < M:
        j = m + margin
        a = quots[j - 1]
        lo, hi = a + 0.0, a + 1.0
        while lo != hi and j > m:
            j -= 1
            a = quots[j - 1]
            lo, hi = a + 1.0 / lo, a + 1.0 / hi
        if lo == hi:
            x = lo
            break
        margin *= 4
    else:
        j, x = M, float(quots[M - 1])
    for a in reversed(quots[m - 1:j - 1]):
        x = a + 1.0 / x
    alpha = [x]
    put = alpha.append
    for a in reversed(quots[:m - 1]):
        x = a + 1.0 / x
        put(x)
    put(0.0)
    alpha.reverse()
    return alpha


class _DirectionData(NamedTuple):
    quots: Sequence[int]  # partial quotients a_1..a_M, each below _FLOAT_LIMIT
    x0: float             # float value of the direction
    n_cap: int            # last convergent index with certified data
    exhaust_ok: bool      # running out of quotients is a clean stop


def _direction_data(direction: Direction) -> _DirectionData:
    if isinstance(direction, (Fraction, int, float)):
        x = _exact_direction(direction)
        quots, done = _euclid_quotients(x, 1 << 30)
        if not done:  # pragma: no cover - euclid always terminates
            raise InternalInvariantError("exact expansion did not terminate")
        data = _DirectionData(quots, float(x), len(quots) - 1, True)
    else:
        quots = _check_quotients(direction)
        # p_64/q_64 is in lowest terms: int / int rounds as float(Fraction)
        p, q = _convergent_arrays(quots[:64])
        data = _DirectionData(quots, p[-1] / q[-1],
                              len(quots) - 1 - _ALPHA_TAIL, False)
    if max(quots) >= _FLOAT_LIMIT:
        j = next(j for j, a in enumerate(quots, 1) if a >= _FLOAT_LIMIT)
        raise PrecisionExhausted(
            "partial quotient a_%d (%d bits) is beyond float range"
            % (j, quots[j - 1].bit_length()))
    return data


class _Orbit(NamedTuple):
    """The bounded-ratio state at n = 0..len(L)-1: every convergent whose
    excursion can peak by the horizon.  beta and r hold states 0..k for
    the last state k materialised (_replay)."""
    quots: Sequence[int]
    alpha: List[float]    # alpha[j] = [a_j; a_{j+1}, ...], j <= len(L)
    L: List[float]        # log q_n
    xi: List[float]
    beta: List[float]     # q_{n-1}/q_n
    r: List[float]        # p_n/q_n


def _orbit(data: _DirectionData, T: float) -> _Orbit:
    """Run the state recursion from n = 0 until the horizon closes.

    Stops once 2 log q_n - 2.5 > T: every later excursion satisfies
    t_enter >= 2 log q_n - 2.1 > T, because the crossing distance is at
    least (1 - Im w0)^2 >= 1/4 once n >= 1.  The check runs after each
    state advance so one certified quotient beyond the last state is
    enough to close the horizon.  Raises PrecisionExhausted when the
    certified data runs out first and running out is not the clean end
    of a complete expansion.  Only log q_n and xi_n are kept; beta_n and
    r_n are replayed when read (_replay).
    """
    quots = data.quots
    n_cap = data.n_cap
    if n_cap < 0:
        raise PrecisionExhausted(
            "certified quotients exhausted at index 0 before reaching "
            "T = %r; pass a Fraction or a longer quotient sequence" % (T,))
    log = math.log
    xi = data.x0
    Ls, xis = [0.0], [xi]
    put_L, put_xi = Ls.append, xis.append
    L = beta = 0.0
    for a in islice(quots, n_cap):
        # advance the bounded-ratio state from n to n+1
        s = a + beta
        beta = 1.0 / s
        L += log(s)
        xi = 1.0 / (a + xi)
        if 2.0 * L - 2.5 > T:
            break
        put_L(L)
        put_xi(xi)
    alpha = _alpha_head(quots, len(Ls))
    if len(Ls) > n_cap and not data.exhaust_ok:
        # a_{n+1} > alpha_{n+1} - 1, so q_{n+1} > q_n (alpha - 1 + beta)
        # bounds every later entry time below even though the next
        # quotient itself is not certified.
        growth = alpha[n_cap + 1] - 1.0 + beta
        if not (growth > 1.0 and 2.0 * (L + log(growth)) - 2.1 > T):
            raise PrecisionExhausted(
                "certified quotients exhausted at index %d before reaching "
                "T = %r; pass a Fraction or a longer quotient sequence"
                % (n_cap + 1, T))
    return _Orbit(quots, alpha, Ls, xis, [0.0], [0.0])


def _replay(orbit: _Orbit, n: int) -> None:
    """Materialise beta and r up to state n < len(orbit.L), replaying
    from the last state materialised by the recursion of _orbit extended
    to r (p_1/q_1 = 1/a_1, then r_{k+1} = r_k (1 - bb) + r_{k-1} bb with
    bb = q_{k-1}/q_{k+1}).  r_{n-1} is r[n - 1], and 0 at n = 0."""
    beta, r = orbit.beta, orbit.r
    k = len(r) - 1
    if k >= n:
        return
    quots = orbit.quots
    if not k:
        b = 1.0 / quots[0]                 # beta_1 = r_1 = 1/a_1
        beta.append(b)
        r.append(b)
        k = 1
    b, r0, r1 = beta[k], r[k - 1], r[k]
    put_beta, put_r = beta.append, r.append
    for a in islice(quots, k, n):
        b_new = 1.0 / (a + b)
        bb = b * b_new                     # q_{k-1}/q_{k+1}
        r0, r1 = r1, r1 * (1.0 - bb) + r0 * bb
        b = b_new
        put_beta(b)
        put_r(r1)


def _excursion_at(orbit: _Orbit, n: int
                  ) -> Optional[Tuple[float, float, float, float]]:
    """(t_enter, t_peak, t_exit, log H_n) of the n-th excursion, or None
    when there is none (H_n <= 1).  The entering crossing is the one at
    c* - s, the nearer to Re w0 <= 0 (dx < 0 < s), so its time is the
    smaller one bit for bit."""
    _, alphas, Ls, xis, betas, rs = orbit
    a_next = alphas[n + 1]
    xi = xis[n]
    H = 0.5 * (a_next + xi)
    if not H > 1.0:
        return None
    log = math.log
    if n >= len(rs):
        _replay(orbit, n)
    r = rs[n]
    r_prev = rs[n - 1] if n else 0.0
    ln_q2 = 2.0 * Ls[n] + math.log1p(r * r)
    im_w = math.exp(-ln_q2)
    re_w = -betas[n] * (1.0 + r_prev * r) / (1.0 + r * r)
    c_star = 0.5 * (a_next - xi)
    dx = re_w - c_star
    if H > _H_MAX:
        # dx + s cancels; c* - s = (c*^2 - s^2)/(c* + s) = (1 - a xi)/(c* + s)
        ln_peak = 2.0 * log(math.hypot(dx, im_w - H))
        s = math.sqrt(H - 1.0) * math.sqrt(H + 1.0)
        d_in = re_w - (1.0 - a_next * xi) / (c_star + s)
        ln_out = 2.0 * log(math.hypot(dx - s, 1.0 - im_w))
    else:
        ln_peak = log(dx * dx + (im_w - H) * (im_w - H))
        s = math.sqrt(H * H - 1.0)
        d_in = dx + s
        ln_out = log((dx - s) ** 2 + (1.0 - im_w) ** 2)
    t_peak = _acosh_one_plus(ln_peak + ln_q2 - log(2.0 * H))
    num_in = d_in ** 2 + (1.0 - im_w) ** 2
    t_enter = 0.0 if num_in == 0.0 else _acosh_one_plus(
        log(num_in) + ln_q2 - _LN2)
    t_exit = _acosh_one_plus(ln_out + ln_q2 - _LN2)
    return t_enter, min(max(t_peak, t_enter), t_exit), t_exit, log(H)


def _excursion_records(orbit: _Orbit, T: float) -> List[ExcursionRecord]:
    size = len(orbit.L)
    _replay(orbit, size - 1)       # every state, in one replay
    records: List[ExcursionRecord] = []
    for n in range(size):
        ex = _excursion_at(orbit, n)
        if ex is not None and 0.0 < ex[1] <= T:
            records.append(ExcursionRecord(len(records), n, *ex))
    return records


def predicted_excursions(direction: Direction, T: float) -> List[ExcursionRecord]:
    """All excursions with 0 < t_peak <= T, straight from the CF data.

    ``direction`` is an exact Fraction (for a rational the final dive
    toward the direction's own cusp never ends and is not reported) or
    the quotient sequence itself for long horizons.
    """
    if not T > 0:
        raise UsageError("T must be > 0, got %r" % (T,))
    return _excursion_records(_orbit(_direction_data(direction), T), T)


# ---------------------------------------------------------------------------
# sampled excursions


def _bisect_boundary(pen_of, t_zero: float, t_pos: float) -> float:
    """Boundary of {pen > 0} between a zero sample and a positive one.

    Up to 60 halvings, stopping at the first that would leave the
    bracket as it is, as _ternary_argmax does and with the same result
    as all 60.  A bracket of width w closes in about log2(w / ulp)
    halvings."""
    for _ in range(60):
        mid = 0.5 * (t_zero + t_pos)
        if pen_of(mid) > 0.0:
            if mid == t_pos:
                break
            t_pos = mid
        else:
            if mid == t_zero:
                break
            t_zero = mid
    return 0.5 * (t_zero + t_pos)


def _ternary_argmax(f, lo: float, hi: float, steps: int) -> float:
    """Ternary search for the peak of a locally unimodal f on [lo, hi].

    Up to ``steps`` steps, stopping at the first that would leave the
    bracket as it is.  The bracket is the whole state, so every later
    step would repeat that one and the result is that of all ``steps``,
    bit for bit, for any deterministic f.  (== is bit identity here: no
    step on endpoints >= +0.0, as the callers pass, makes a -0.0.)"""
    for _ in range(steps):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            if m1 == lo:
                break
            lo = m1
        else:
            if m2 == hi:
                break
            hi = m2
    return 0.5 * (lo + hi)


def _grid_im(x: float, ts: np.ndarray) -> Optional[np.ndarray]:
    """Im of the reduced point geodesic_point(x, t) for every t in the
    float64 array ts, column-wise, or None when some height is below
    _GRID_MIN_IM.

    Each sample goes through the scalar path's own operations in the
    same order: libm exp for u (math.exp mapped in C over the exactly
    negated times, which builds no list), the closed form of
    geodesic_point, and the loop of reduce_to_fundamental.  The
    inversion w -> -1/w is CPython's complex division (Smith's method)
    with numerator -1 + 0j, written out: for |Re w| >= |Im w|, ratio =
    Im/Re, denom = Re + Im ratio and -1/w = (-1 + i ratio)/denom;
    otherwise ratio = Re/Im, denom = Re ratio + Im and -1/w = (-ratio +
    i)/denom.  (The dropped terms are 0 * ratio, exact; only the sign of
    a zero real part can differ, and no later step reads it.)  Above
    _GRID_MIN_IM every coordinate stays finite (Im only grows, and
    |-1/w| <= 1/Im w); only the squared modulus of a point high in the
    cusp can overflow, to inf, as it does in the scalar path.
    """
    import numpy as np
    u = np.fromiter(map(math.exp, -ts), float, len(ts))
    u2 = u * u
    xx = x * x
    den = 1.0 + xx * u2
    wr = x * (1.0 - u2) / den
    wi = u * (1.0 + xx) / den
    if not wi.min() >= _GRID_MIN_IM:
        return None
    out = np.empty(len(ts))
    idx = np.arange(len(ts))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_REDUCE_CAP):
            wr = wr - np.floor(wr + 0.5)
            inside = wr * wr + wi * wi < 1.0
            done = ~inside
            out[idx[done]] = wi[done]
            if not inside.any():
                return out
            idx, wr, wi = idx[inside], wr[inside], wi[inside]
            by_re = np.abs(wr) >= np.abs(wi)
            ratio = np.where(by_re, wi / wr, wr / wi)
            denom = np.where(by_re, wr + wi * ratio, wr * ratio + wi)
            wr, wi = (np.where(by_re, -1.0, -ratio) / denom,
                      np.where(by_re, ratio, 1.0) / denom)
    return None


def _best_sample(run: np.ndarray) -> int:
    """The index of the first maximum of math.log over the heights
    ``run`` (all above 1), taking the log only within _PEAK_WINDOW of
    their largest (see excursions)."""
    import numpy as np
    near = np.flatnonzero(run >= run.max() * (1.0 - _PEAK_WINDOW))
    logs = list(map(math.log, run[near].tolist()))
    return near.item(logs.index(max(logs)))


def excursions(x: Union[float, Fraction], T: float,
               sample_step: Optional[float] = None) -> List[ExcursionRecord]:
    """Excursions of the sampled geodesic toward float(x) on [0, T].

    Samples the height Im of the reduced point on a uniform grid of
    float64 times, _GRID_CHUNK at a time (_grid_im); penetration is
    positive exactly where Im > 1, libm's log being positive exactly
    above 1.  Each maximal run of such samples is refined by bisection
    (endpoints) and ternary search (peak, from the run's best sample),
    and the excursion is matched to a convergent through the bottom row
    of the reduction word at the peak.  Emits StepTooCoarseWarning when
    an excursion predicted from the CF data contains no sample.

    A run's best sample is the first maximum of math.log(Im) over it,
    and that log is taken only for the samples within a relative
    _PEAK_WINDOW of the run's largest height M (_best_sample).  glibc
    documents its log within 1 ulp; allow 2^10 ulps, a relative d =
    2^-42 on a result above 0.  A sample of height v <= M whose log
    ties or beats log M's then has log v (1 + d) >= log M (1 - d), so
    log(M / v) <= 2 d log M < 2^-41 * 710 < 3.3e-10 (M < 2^1024) and v >
    M (1 - 3.3e-10): inside the window, whose bound M (1 - 1e-9) is
    rounded by far less than the gap.  Every sample outside it logs
    below the maximum.

    Float sampling is faithful to the dyadic rational Fraction(x) and
    loses the cusp structure once e^{2t} ulp ~ 1 (t around 16); the
    CF-proxy comparison is intentionally left on beyond that point.
    """
    xf = float(x) if 0 < x < 1 else math.nan  # float(x) fails past float range
    if not 0.0 < xf < 1.0:
        raise UsageError("x must lie in (0, 1), got %s" % text_echo(str(x)))
    if not 0 < T < math.inf:
        raise UsageError("T must be finite and > 0, got %r" % (T,))
    step = T / 1e6 if sample_step is None else float(sample_step)
    if not 0 < step <= T / 8:
        raise UsageError("sample_step must lie in (0, T/8], got %r" % (step,))
    if not T / step < MAX_SAMPLES:  # T / step may overflow to inf
        raise ResourceCapError(
            "%.6g samples exceed the cap %d; raise sample_step"
            % (T / step + 1, MAX_SAMPLES))
    n_samples = int(T / step) + 1
    data = _direction_data(Fraction(xf))
    import numpy as np

    def im_at(t: float) -> float:
        return reduce_to_fundamental(geodesic_point(xf, t).z)[0].imag

    def pen_at(t: float) -> float:
        im = im_at(t)
        return math.log(im) if im > 1.0 else 0.0

    ts = np.arange(n_samples) * step
    if ts[-1] < T:
        ts = np.append(ts, T)
    t_at, t_last = ts.item, ts.item(-1)
    ims = np.empty(len(ts))
    for start in range(0, len(ts), _GRID_CHUNK):
        chunk = ts[start:start + _GRID_CHUNK]
        im = _grid_im(xf, chunk)
        ims[start:start + len(chunk)] = (
            [im_at(t) for t in chunk.tolist()] if im is None else im)

    # (q_n, p_n) -> n; convergents are distinct and in lowest terms
    conv_p, conv_q = _convergent_arrays(data.quots)
    conv_index = {qp: n for n, qp in enumerate(zip(conv_q, conv_p))}
    # maximal runs j0..j1 of positive samples
    flips = np.flatnonzero(np.diff(ims > 1.0, prepend=False, append=False))
    records: List[ExcursionRecord] = []
    for j0, j1 in zip(flips[0::2].tolist(), (flips[1::2] - 1).tolist()):
        t_enter = (0.0 if j0 == 0 else
                   _bisect_boundary(pen_at, t_at(j0 - 1), t_at(j0)))
        t_exit = (t_at(j1) if j1 + 1 >= len(ts) else
                  _bisect_boundary(pen_at, t_at(j1 + 1), t_at(j1)))
        k_best = j0 + _best_sample(ims[j0:j1 + 1])
        lo = max(t_enter, t_at(k_best) - step)
        hi = min(t_exit, t_at(k_best) + step)
        t_peak = _ternary_argmax(pen_at, lo, hi, 90)
        peak = pen_at(t_peak)
        if peak <= 0.0:  # pragma: no cover - a positive sample is inside
            continue
        t_peak = min(max(t_peak, t_enter), t_exit)
        _, word = reduce_to_fundamental(geodesic_point(xf, t_peak).z)
        c, d = word[1]
        match = conv_index.get((abs(c), abs(d)))
        records.append(ExcursionRecord(len(records), match, t_enter,
                                       t_peak, t_exit, peak))

    skipped = 0
    for rec in _excursion_records(_orbit(data, T), T):
        if rec.t_enter >= t_last:
            continue
        # penetration vanishes at the boundary, so only a grid point
        # strictly inside (t_enter, t_exit) registers the excursion
        g = (math.floor(rec.t_enter / step) + 1) * step
        if g >= rec.t_exit or g > t_last:
            skipped += 1
    if skipped:
        warnings.warn(StepTooCoarseWarning(
            "%d predicted excursion(s) contain no sample at step %g; "
            "decrease sample_step" % (skipped, step)))
    return records


# ---------------------------------------------------------------------------
# the log-law statistic


def _logcosh(s: float) -> float:
    a = abs(s)
    return a + math.log1p(math.exp(-2.0 * a)) - _LN2


def _cap_lo(orbit: _Orbit, n: int) -> float:
    """lo_n = max(e+, 2 log q_n - 2.1 - 1e-6), below every time of
    excursion n past e (module docstring)."""
    return max(_T_FLOOR, 2.0 * orbit.L[n] - 2.1 - 1e-6)


def _score_cap(orbit: _Orbit, n: int, alpha: float) -> float:
    """A bound on the log-law score of excursion n (H_n > 1) from the
    state alone (module docstring), with a relative slack of 1e-12 over
    the rounding of either side."""
    ln_h = math.log(0.5 * (orbit.alpha[n + 1] + orbit.xi[n]))
    lo = _cap_lo(orbit, n)
    gain = ln_h - alpha * lo
    return (gain + 1e-12 * (1.0 + ln_h + alpha * lo)) / math.log(lo)


def _block_threshold(orbit: _Orbit, start: int, alpha: float,
                     best: float) -> float:
    """A value of 2 H_n at or below which no state n >= start has
    _score_cap above best.

    With e = 1e-12, _score_cap is c(h, lo) = ((1 + e) h + e - (1 - e)
    alpha lo) / log lo for h = log H_n > 0, and c decreases in lo > e
    as g does.  lo_n >= lo_start because log q_n never decreases, so
    c(h, lo_n) <= c(h, lo_start), which is at most best exactly when

        h <= kappa = (best log lo + (1 - e) alpha lo - e) / (1 + e).

    The threshold is 2 exp(kappa) lowered by a relative 1e-6.  That is
    far over the rounding of the bound and of kappa: where kappa < 709,
    best <= 710 (a score is at most log H_n < 710 over log t > 1) and
    alpha lo < 710 + alpha e log lo, so kappa's terms stay below 710 (1
    + log lo) and its error below 1e-9 for any float lo.  A kappa past
    709 is clipped there, which only lowers the threshold.  Below 2 no
    state has an excursion at all (H_n <= 1)."""
    lo = _cap_lo(orbit, start)
    e = 1e-12
    kappa = (best * math.log(lo) + (1.0 - e) * alpha * lo - e) / (1.0 + e)
    return max(2.0, 2.0 * math.exp(min(kappa, 709.0) - 1e-6))


def _excursion_score(orbit: _Orbit, n: int, T: float, alpha: float,
                     best: float) -> float:
    """The larger of best and the log-law score of excursion n (H_n > 1)
    over (max(t_enter, e), min(t_exit, T)]: a grid of 25 times, then a
    ternary search around the best of them."""
    t_enter, t_peak, t_exit, ln_h = _excursion_at(orbit, n)
    lo = max(t_enter, _T_FLOOR)
    hi = min(t_exit, T)
    if hi <= lo or (ln_h - alpha * lo) / math.log(lo) <= best:
        return best

    def f(t: float) -> float:
        return (ln_h - _logcosh(t - t_peak) - alpha * t) / math.log(t)

    grid = 24
    vals = [(f(lo + (hi - lo) * k / grid), k) for k in range(grid + 1)]
    v_best, k_best = max(vals)
    a_lo = lo + (hi - lo) * max(k_best - 1, 0) / grid
    a_hi = lo + (hi - lo) * min(k_best + 1, grid) / grid
    return max(best, v_best, f(_ternary_argmax(f, a_lo, a_hi, 70)))


def loglaw_statistic(direction: Direction, T: float, alpha: float = 0.0) -> float:
    """max over t in (e, T] of (pen(gamma(t)) - alpha t) / log t.

    Penetration along the n-th excursion is log(H_n sech(t - t_peak)),
    so the maximum over each excursion is a one-dimensional search over
    (max(t_enter, e), min(t_exit, T)]; every excursion entering by T
    counts, also one still in progress at T.  The excursions come from
    the exact CF engine.  Away from every excursion the penetration
    vanishes and the supremum of -alpha t / log t is -alpha e, the
    baseline returned (as +0.0 for alpha = 0) when no excursion scores
    higher.

    The tallest excursion of each block of _CAP_BLOCK states is searched
    first.  Then each block's 2 H_n are compared with its threshold
    (_block_threshold) and only the states above it have their bound
    (_score_cap) formed, and are searched when it beats the best score.
    Every skipped excursion scores at most the best score at its skip,
    so the result is the maximum over all excursions, bit for bit
    whatever the search order.  Only the states up to the last excursion
    searched are replayed (_replay).
    """
    return _loglaw(_loglaw_orbit(direction, T, alpha), T, alpha)


def _loglaw_and_excursions(direction: Direction, T: float, alpha: float
                           ) -> Tuple[float, List[ExcursionRecord]]:
    """loglaw_statistic(direction, T, alpha) and predicted_excursions(
    direction, T) from one expansion and one orbit, the records reusing
    the states the log law replayed."""
    orbit = _loglaw_orbit(direction, T, alpha)
    return _loglaw(orbit, T, alpha), _excursion_records(orbit, T)


def _loglaw_orbit(direction: Direction, T: float, alpha: float) -> _Orbit:
    """The orbit a log-law call reads, its arguments checked first."""
    if not T > math.e:
        raise UsageError("T must exceed e, got %r" % (T,))
    if not 0.0 <= alpha < 1.0:
        raise UsageError("alpha must lie in [0, 1), got %r" % (alpha,))
    return _orbit(_direction_data(direction), T)


def _loglaw(orbit: _Orbit, T: float, alpha: float) -> float:
    # 2 H_n = alpha_{n+1} + xi_n with xi_n <= 1, so a block whose largest
    # alpha_{n+1} is at most its threshold - 1 holds no survivor
    size = len(orbit.L)
    blocks = []
    for start in range(0, size, _CAP_BLOCK):
        heads = orbit.alpha[start + 1:start + _CAP_BLOCK + 1]
        top = max(heads)
        blocks.append((start, top, heads.index(top)))

    best = 0.0 - alpha * math.e
    for start, top, i in blocks:
        n = start + i
        if (top + orbit.xi[n] > 2.0
                and _score_cap(orbit, n, alpha) > best):
            best = _excursion_score(orbit, n, T, alpha, best)
    for start, top, i in blocks:
        threshold = _block_threshold(orbit, start, alpha, best)
        if top + 1.0 <= threshold:
            continue
        sums = map(operator.add, orbit.alpha[start + 1:start + _CAP_BLOCK + 1],
                   orbit.xi[start:start + _CAP_BLOCK])
        for j in compress(count(), map(threshold.__lt__, sums)):
            if j != i and _score_cap(orbit, start + j, alpha) > best:
                best = _excursion_score(orbit, start + j, T, alpha, best)
    return best
