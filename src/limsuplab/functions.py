"""Symbolic forms r^a (log r)^b (loglog r)^c and exp(-r^w), with the
bookkeeping the experiments need: domain thresholds, series verdicts,
critical exponents, geometric-ratio regularity, the limit of
f(psi(r)) * rho(r)^(-delta) along geometric subsequences, and the case
split of the ubiquity theorem that turns them into H^f(W).

Two evaluation regimes share one data type.  Approximating functions and
radius laws live in the large-r regime, where the logarithms are log r
and loglog r and the form must eventually decrease to zero.  Dimension
gauges live in the small-r regime, where the logarithms are log(1/r) and
loglog(1/r) and the form must decrease to zero as r -> 0+.  Every
composition the package performs -- gauge applied to an approximating
function, weight r^u multiplied on, radius law raised to -delta -- stays
inside the family up to constant factors, or is rejected with a
diagnostic.  Everything but `evaluate_array` is exact
(fractions.Fraction all the way), and held to a bit bound: every number
read from text to MAX_PRINT_BITS, every exact field of a form to
MAX_EXACT_BITS.  The records are NamedTuples, so no command loads
`dataclasses`; `FunctionForm` and `SeriesSpec` bound and check their
fields in `__new__`.  The exact-input readers (`exact`, `read_exact`,
`height_bits`, MAX_PRINT_BITS) live in `errors`, so that the commands
and layers that parse no function never load this module; they are
re-exported here.

Convergence of sum_{r >= r0} r^A (log r)^B (loglog r)^C is decided by the
integral test on the closed family:

    convergent  iff  A < -1,  or  A = -1 and B < -1,
                 or  A = -1, B = -1 and C < -1.

A factor exp(-kappa r^w) with kappa, w > 0 forces convergence regardless
of the polynomial-logarithmic part.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from limsuplab.errors import (MAX_PRINT_BITS, CompositionError, DomainError,
                              InternalInvariantError, RationalLike,
                              ResourceCapError, UsageError, bit_bounded,
                              exact, height_bits, read_exact, text_echo)

_E = math.e


# The symbolic layer holds the exact fields of every FunctionForm, and
# the weight u of a series or critical exponent, to MAX_EXACT_BITS bits:
# their heights are below H = 2^MAX_EXACT_BITS.  The exact values
# `classify` and `critical-exponent` print are built from such fields by
# at most one sum of two products.  The largest is the reduced exponent
# A = alpha a + u of `classify --psi --gauge --weight`: its numerator
# alpha.num a.num u.den + u.num alpha.den a.den is below 2 H^3 <= H^4, and
# its denominator below H^3.  The critical exponent (u + 1)/(-a) stays
# below 2 H^2, and n/omega is itself held to MAX_EXACT_BITS.  So every
# printed numerator and denominator is below a product of four field
# heights, H^4 = 2^MAX_PRINT_BITS, and prints.
MAX_EXACT_BITS = MAX_PRINT_BITS // 4


def _bounded(x: RationalLike, name: str,
             bits: int = MAX_EXACT_BITS) -> Fraction:
    """`exact(x)`, refused as a usage error past `bits` bits."""
    return bit_bounded(exact(x, name), name, bits)


class Family(Enum):
    POWER_LOG = "power-log"
    EXP_POWER = "exp-power"


class Regime(Enum):
    """Which end of the axis the logarithms point at."""

    LARGE = "large-r"   # log r, loglog r; domain (r_min, infinity)
    SMALL = "small-r"   # log 1/r, loglog 1/r; domain (0, r_max)


class Verdict(Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


class _FormFields(NamedTuple):
    scale: Fraction = Fraction(1)
    power: Fraction = Fraction(0)
    log_power: Fraction = Fraction(0)
    loglog_power: Fraction = Fraction(0)
    family: Family = Family.POWER_LOG
    omega: Optional[Fraction] = None
    regime: Regime = Regime.LARGE


class FunctionForm(_FormFields):
    """One member of the closed family.

    POWER_LOG:  scale * r^power * L(r)^log_power * LL(r)^loglog_power
    where (L, LL) = (log, loglog) in the large-r regime and
    (log(1/.), loglog(1/.)) in the small-r regime.

    EXP_POWER:  exp(-r^omega), large-r regime only; the power/log fields
    must be zero and scale must be one.

    A NamedTuple whose constructor bounds and checks every field, so
    `_replace` and `_make`, which skip it, are not used on a form.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        scale, power, log_power, loglog_power, family, omega, regime = (
            super().__new__(cls, *args, **kwargs))
        scale = _bounded(scale, "scale")
        power = _bounded(power, "power")
        log_power = _bounded(log_power, "log_power")
        loglog_power = _bounded(loglog_power, "loglog_power")
        if scale <= 0:
            raise UsageError("scale must be positive, got %s" % scale)
        if family is Family.EXP_POWER:
            if omega is None:
                raise UsageError("exp-power form needs omega")
            omega = _bounded(omega, "omega")
            if omega <= 0:
                raise UsageError("omega must be positive, got %s" % omega)
            if regime is not Regime.LARGE:
                raise UsageError("exp-power forms are large-r only")
            if (power, log_power, loglog_power) != (0, 0, 0) or scale != 1:
                raise UsageError(
                    "exp-power form carries no polynomial-log factors")
        elif omega is not None:
            raise UsageError("omega is meaningful only for exp-power forms")
        return super().__new__(cls, scale, power, log_power, loglog_power,
                               family, omega, regime)

    # -- domain ----------------------------------------------------------

    @property
    def domain_threshold(self) -> Fraction | float:
        """Boundary of the evaluation domain.

        Large-r regime: evaluation needs r > threshold (0, 1 or e
        depending on which logs are raised to nonzero powers).  Small-r
        regime: evaluation needs 0 < r < threshold (inf, 1 or 1/e).
        Exp-power forms evaluate for every r >= 0 (threshold 0, with the
        boundary point allowed).
        """
        if self.family is Family.EXP_POWER:
            return Fraction(0)
        if self.regime is Regime.LARGE:
            if self.loglog_power != 0:
                return _E
            if self.log_power != 0:
                return Fraction(1)
            return Fraction(0)
        if self.loglog_power != 0:
            return 1.0 / _E
        if self.log_power != 0:
            return Fraction(1)
        return math.inf

    # -- behaviour flags -------------------------------------------------

    @property
    def exponent_triple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.power, self.log_power, self.loglog_power)

    def tends_to_zero(self) -> bool:
        """Does the form tend to 0 toward its regime's end of the axis?"""
        if self.family is Family.EXP_POWER:
            return True
        a, b, c = self.exponent_triple
        if self.regime is Regime.LARGE:
            return (a, b, c) < (0, 0, 0)
        # small-r: r^a -> 0 for a > 0, logs of 1/r blow up
        return (a > 0) or (a == 0 and (b, c) < (0, 0))

    def is_gauge(self) -> bool:
        """Valid dimension gauge: small-r regime, f(r) -> 0 as r -> 0+.

        Vanishing at 0 already forces eventual monotone increase for
        members of this family (the r^a factor, or failing that the
        negative log powers, dominates close enough to 0), so no extra
        condition is stored.
        """
        return (self.family is Family.POWER_LOG
                and self.regime is Regime.SMALL
                and self.tends_to_zero())


# -- constructors --------------------------------------------------------

def power_log(scale: RationalLike = 1, power: RationalLike = 0,
              log_power: RationalLike = 0, loglog_power: RationalLike = 0,
              regime: Regime = Regime.LARGE) -> FunctionForm:
    return FunctionForm(scale, power, log_power, loglog_power,
                        Family.POWER_LOG, None, regime)


def exp_power(omega: RationalLike) -> FunctionForm:
    return FunctionForm(Fraction(1), Fraction(0), Fraction(0), Fraction(0),
                        Family.EXP_POWER, omega, Regime.LARGE)


def approximating(scale: RationalLike = 1, power: RationalLike = 0,
                  log_power: RationalLike = 0,
                  loglog_power: RationalLike = 0) -> FunctionForm:
    """Large-r form that must eventually decrease to zero."""
    form = power_log(scale, power, log_power, loglog_power, Regime.LARGE)
    if not form.tends_to_zero():
        raise UsageError(
            "approximating function must tend to zero; exponents %s do not"
            % (form.exponent_triple,))
    return form


def dimension_gauge(scale: RationalLike = 1, power: RationalLike = 0,
                    log_power: RationalLike = 0,
                    loglog_power: RationalLike = 0) -> FunctionForm:
    """Small-r gauge with f(r) -> 0 as r -> 0+, enforced at build time."""
    form = power_log(scale, power, log_power, loglog_power, Regime.SMALL)
    if not form.tends_to_zero():
        raise UsageError(
            "dimension gauge must vanish at 0+; exponents %s do not"
            % (form.exponent_triple,))
    return form


# -- evaluation ----------------------------------------------------------

def evaluate_rational(form: FunctionForm, r: Union[int, Fraction]) -> Fraction:
    """Exact value at a rational point.

    Only defined when the form is purely a rational power of r with a
    rational scale: integer exponent, no log factors.  The stage-set
    machinery leans on this for exact radii like q^-3 or 6 * q^-2.
    """
    if (form.family is not Family.POWER_LOG or form.log_power != 0
            or form.loglog_power != 0 or form.power.denominator != 1):
        raise UsageError(
            "exact evaluation needs a rational-valued law (integer power, "
            "no log factors); got %s" % _echo(form))
    rq = Fraction(r)
    if rq <= 0:
        raise DomainError("exact evaluation needs r > 0")
    return form.scale * rq ** int(form.power)


def evaluate_array(form: FunctionForm, r):
    """Vectorised evaluate over a numpy array (float64 out).

    Same domain rule as evaluate, enforced on the whole array at once; a
    DomainError names the form.  A field past float range is a
    ResourceCapError naming the form and the field.  numpy is imported
    lazily so the symbolic core stays importable without it.
    """
    import numpy as np

    def field(name: str) -> float:
        try:
            return float(getattr(form, name))
        except OverflowError:
            raise ResourceCapError("%s of %s has no float image"
                                   % (name, _echo(form)))

    r = np.asarray(r, dtype=np.float64)
    threshold = float(form.domain_threshold)
    if form.family is Family.EXP_POWER:
        if np.any(r < 0):
            raise DomainError("%s needs r >= 0" % _echo(form))
        return np.exp(-(r ** field("omega")))
    if form.regime is Regime.LARGE:
        if np.any(r <= threshold):
            raise DomainError("%s needs r > %s" % (_echo(form), threshold))
    elif np.any(r <= 0) or np.any(r >= threshold):
        raise DomainError("%s needs r in (0, %s)" % (_echo(form), threshold))
    out = field("scale") * r ** field("power")
    if form.log_power or form.loglog_power:
        # the log factors' argument, taken only by forms that have them
        x = np.log(r) if form.regime is Regime.LARGE else np.log(1.0 / r)
        if form.log_power:
            out = out * x ** field("log_power")
        if form.loglog_power:
            out = out * np.log(x) ** field("loglog_power")
    return out


# -- text grammar --------------------------------------------------------

def format_function(form: FunctionForm) -> str:
    if form.family is Family.EXP_POWER:
        return "exp(-r^%s)" % form.omega
    parts = []
    if form.scale != 1:
        parts.append(str(form.scale))
    base_log = "log(r)" if form.regime is Regime.LARGE else "log(1/r)"
    base_llog = "loglog(r)" if form.regime is Regime.LARGE else "loglog(1/r)"
    if form.power:
        parts.append("r^%s" % _fmt_exp(form.power))
    if form.log_power:
        parts.append("%s^%s" % (base_log, _fmt_exp(form.log_power)))
    if form.loglog_power:
        parts.append("%s^%s" % (base_llog, _fmt_exp(form.loglog_power)))
    if not parts:
        parts.append("1")
    return " * ".join(parts)


def _fmt_exp(e: Fraction) -> str:
    return str(e) if e.denominator == 1 else "(%s)" % e


def _echo(form: FunctionForm) -> str:
    """The form for a message, abbreviated as `text_echo` does."""
    return text_echo(format_function(form))


def parse_function(text: str, regime: Regime = Regime.LARGE) -> FunctionForm:
    """Parse the factor grammar `scale * r^a * log(r)^b * loglog(r)^c`
    or `exp(-r^w)`.

    Exponents may be integers, fractions like 2/3 (optionally in
    parentheses), or decimal literals; every number is read exactly by
    `read_exact`, and the running scale and exponents are held to
    MAX_EXACT_BITS after each factor.  log(1/r) / loglog(1/r) are
    accepted as spellings of the small-r regime and force it.
    """
    text = text.strip()
    if not text:
        raise UsageError("empty function expression")
    m = _EXP_RE.fullmatch(text)
    if m:
        return exp_power(_exponent(m.group(1)))
    fields = {"scale": Fraction(1), "power": Fraction(0),
              "log_power": Fraction(0), "loglog_power": Fraction(0)}
    regimes = set()
    queue = _split_factors(text)
    while queue:
        factor = queue.pop(0)
        inner = _unwrap_parens(factor)
        if inner is not None:
            # a parenthesized group is a sub-product: flatten it in place
            queue = _split_factors(inner) + queue
            continue
        m = _FACTOR_RE.fullmatch(factor)
        if m is None:
            key = "scale"
            value = fields[key] * read_exact(factor, text_echo(text))
        else:
            key = "%s_power" % m.group(1) if m.group(1) else "power"
            value = fields[key] + _exponent(m.group(3))
            if m.group(1):
                regimes.add(Regime.SMALL if m.group(2) else Regime.LARGE)
        fields[key] = _bounded(value, "%s of %s" % (key, text_echo(text)))
    if len(regimes) > 1:
        raise UsageError("mixed log(r) and log(1/r) in %s" % text_echo(text))
    return power_log(**fields,
                     regime=regimes.pop() if regimes else regime)


_EXPPAT = r"(\(?-?[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?\)?)"
_EXP_RE = re.compile(r"exp\(\s*-\s*r\^%s\s*\)" % _EXPPAT)
_FACTOR_RE = re.compile(r"(?:(log|loglog)\(\s*(1/)?r\s*\)|r)(?:\^%s)?"
                        % _EXPPAT)


def _exponent(token: Optional[str]) -> Fraction:
    """An exponent token, parentheses dropped; no token (no ^) means 1."""
    if token is None:
        return Fraction(1)
    return read_exact(token.strip("()"), "exponent")


def _unwrap_parens(factor: str) -> Optional[str]:
    """Interior of `factor` when it is one balanced (...) group, else None."""
    if not (factor.startswith("(") and factor.endswith(")")):
        return None
    depth = 0
    for i, ch in enumerate(factor):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(factor) - 1:
                return None     # e.g. "(a)(b)" -- not a single group
    return factor[1:-1].strip()


def _split_factors(text: str) -> list[str]:
    """Split on top-level '*', respecting parentheses."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced parentheses in %s" % text_echo(text))
        if ch == "*" and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise UsageError("unbalanced parentheses in %s" % text_echo(text))
    out.append("".join(cur).strip())
    if any(not f for f in out):
        raise UsageError("empty factor in %s" % text_echo(text))
    return out


# -- series: reduction to the closed family ------------------------------

class _SeriesFields(NamedTuple):
    weight_power: Fraction
    inner: FunctionForm
    outer: Optional[FunctionForm] = None


class SeriesSpec(_SeriesFields):
    """sum over large integers r of  r^weight_power * outer(inner(r)).

    outer=None means the identity (sum the inner values themselves,
    weighted).  inner must be a large-r form tending to zero whenever an
    outer gauge is applied, since gauges only make sense near 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        weight_power, inner, outer = super().__new__(cls, *args, **kwargs)
        weight_power = _bounded(weight_power, "weight_power")
        if inner.regime is not Regime.LARGE:
            raise UsageError("inner function must live in the large-r regime")
        if outer is not None:
            if not outer.is_gauge():
                raise UsageError("outer function must be a dimension gauge")
            if not inner.tends_to_zero():
                raise UsageError(
                    "gauge applied to a function that does not tend to zero")
        return super().__new__(cls, weight_power, inner, outer)


class ReducedSummand(NamedTuple):
    """Summand reduced to  r^A (log r)^B (loglog r)^C
    * exp(-exp_coeff * r^exp_omega), the exponential factor optional, up
    to a factor tending to a positive constant, which no verdict reads.
    """

    A: Fraction
    B: Fraction
    C: Fraction
    exp_coeff: Fraction = Fraction(0)
    exp_omega: Optional[Fraction] = None


class Classification(NamedTuple):
    verdict: Verdict
    reduced: ReducedSummand
    reason: str

    @property
    def convergent(self) -> bool:
        return self.verdict is Verdict.CONVERGENT


def _compose_gauge(outer: Optional[FunctionForm], inner: FunctionForm) \
        -> ReducedSummand:
    """Reduce outer(inner(r)) for large r, up to a factor tending to a
    positive constant.

    With inner = S r^A (log r)^B (loglog r)^C and outer the gauge
    T x^al (log 1/x)^be (loglog 1/x)^ga:

      x^al           -> S^al r^(al A) (log r)^(al B) (loglog r)^(al C)
      log(1/x)       ~  |A| log r      (A != 0)
                     ~  |B| loglog r   (A = 0, B != 0)
      loglog(1/x)    ~  loglog r       (A != 0)

    and with inner = exp(-r^w): log(1/x) = r^w and loglog(1/x) = w log r
    exactly, so the gauge of an exponential lands back in the family
    with no asymptotic fudging at all.

    outer=None is the identity and composes exactly (growing inner
    forms included).
    """
    zero = Fraction(0)
    if outer is None:
        if inner.family is Family.EXP_POWER:
            return ReducedSummand(zero, zero, zero, Fraction(1), inner.omega)
        return ReducedSummand(*inner.exponent_triple)
    al, be, ga = outer.exponent_triple
    if inner.family is Family.EXP_POWER:
        w = inner.omega
        return ReducedSummand(be * w, ga, zero, al, w if al else None)
    a, b, c = inner.exponent_triple
    if a > 0:
        raise CompositionError(
            "gauge of a growing function: log(1/inner) is eventually "
            "undefined")
    if a != 0:
        return ReducedSummand(al * a, al * b + be, al * c + ga)
    if b != 0:
        if ga != 0:
            raise CompositionError(
                "loglog(1/inner) with inner of pure log decay leaves the "
                "closed power/log/loglog family (logloglog term)")
        return ReducedSummand(zero, al * b, al * c + be)
    if be != 0 or ga != 0:
        raise CompositionError(
            "log(1/inner) with inner of pure loglog decay leaves the "
            "closed family")
    return ReducedSummand(zero, zero, al * c)


def reduce_series(series: SeriesSpec) -> ReducedSummand:
    red = _compose_gauge(series.outer, series.inner)
    return red._replace(A=red.A + series.weight_power)


def _triple_convergent(A: Fraction, B: Fraction, C: Fraction) -> bool:
    if A != -1:
        return A < -1
    if B != -1:
        return B < -1
    return C < -1


def series_classify(series: SeriesSpec) -> Classification:
    """Convergent/Divergent verdict for the reduced series.

    Verdicts depend only on exact exponent comparisons; the constant in
    front (and the constants hiding in the ~ of the reduction) cannot
    flip them, which is what makes the reduction sound.
    """
    red = reduce_series(series)
    if red.exp_coeff > 0:
        return Classification(
            Verdict.CONVERGENT, red,
            "exponential decay factor exp(-%s r^%s) dominates"
            % (red.exp_coeff, red.exp_omega))
    ok = _triple_convergent(red.A, red.B, red.C)
    reason = ("exponents (%s, %s, %s) against the (-1,-1,-1) boundary"
              % (red.A, red.B, red.C))
    return Classification(
        Verdict.CONVERGENT if ok else Verdict.DIVERGENT, red, reason)


# -- critical exponents --------------------------------------------------

def critical_exponent(psi: FunctionForm, weight_power: RationalLike) \
        -> Union[Fraction, float]:
    """inf { s >= 0 : sum r^u psi(r)^s converges }, exactly.

    Returns a Fraction, or math.inf when no exponent makes the series
    converge.  The infimum never depends on boundary behaviour at the
    critical s itself, because convergence at s' > s_crit holds strictly
    componentwise.
    """
    u = _bounded(weight_power, "weight_power")
    if psi.regime is not Regime.LARGE:
        raise UsageError("critical exponent expects a large-r function")
    if psi.family is Family.EXP_POWER:
        # any s > 0 wins instantly against every polynomial weight
        return Fraction(0)
    a, b, c = psi.exponent_triple
    if a > 0:
        raise UsageError("psi must decay; got growing power %s" % a)
    if a != 0:
        return max((u + 1) / (-a), Fraction(0))
    if u < -1:
        return Fraction(0)
    if u > -1:
        return math.inf
    # u == -1: the first nonzero log slot decides
    for slot, e in (("log", b), ("loglog", c)):
        if e > 0:
            raise UsageError("psi must decay; got growing %s power %s"
                             % (slot, e))
        if e != 0:
            return -1 / e
    raise UsageError("constant psi has no critical exponent")


def log_critical_exponent(omega: RationalLike, n: int) -> Fraction:
    """Critical exponent on the logarithmic gauge scale for targets
    shrinking like exp(-r^omega) in an n-dimensional ambient space.

    The gauge family is f_s(r) = (log 1/r)^(-s).  Composing with
    psi = exp(-r^omega) under weight r^(n-1) gives summand
    r^(n-1) * r^(-omega s), convergent iff s > n/omega; the infimum is
    exact and rational.
    """
    w = exact(omega, "omega")
    if w <= 0 or n < 1:
        raise UsageError("need omega > 0 and n >= 1")
    s = _bounded(Fraction(n) / w, "critical exponent n/omega")
    # cross-check via the reduction machinery at s itself, where the
    # summand is r^-1 (loglog r)^ga: convergent for ga = -2, not for 0
    for ga, convergent in ((-2, True), (0, False)):
        if series_classify(SeriesSpec(
                Fraction(n - 1), exp_power(w),
                dimension_gauge(log_power=-s, loglog_power=ga))
                ).convergent != convergent:
            raise InternalInvariantError(
                "series verdict at s = %s with (loglog 1/r)^%d disagrees "
                "with the critical exponent" % (s, ga))
    return s


# -- k-regularity --------------------------------------------------------

def is_k_regular(form: FunctionForm, k: int) -> bool:
    """Decide whether h(k^(n+1)) <= lambda * h(k^n) eventually holds for
    some lambda < 1.

    For power-log forms the consecutive ratio tends to k^a, so the
    verdict is the sign of the leading exponent: a < 0 regular, a = 0
    never regular no matter how fast the log factors decay (the ratio
    creeps up to 1).  exp(-r^w) is regular with ratio limit 0.  The
    verdict is the same for every k >= 2.
    """
    if k < 2:
        raise UsageError("k must be an integer >= 2")
    return form.family is Family.EXP_POWER or form.power < 0


# -- G = limsup of f(psi(k^n)) rho(k^n)^(-delta) --------------------------

class GrowthKind(Enum):
    ZERO = "zero"
    FINITE = "finite"
    INFINITE = "infinite"


def compute_G(outer: Optional[FunctionForm], psi: FunctionForm,
              rho: FunctionForm, delta: RationalLike) -> GrowthKind:
    """Classify G = limsup_n g(k^n), g(r) = outer(psi(r)) rho(r)^(-delta).

    Along the whole family g is asymptotically monotone, so the limsup
    along geometric subsequences, for every k, equals the plain limit of
    the reduced form: zero, a positive constant, or infinity.
    """
    d = exact(delta, "delta")
    if d <= 0:
        raise UsageError("delta must be positive")
    if rho.family is not Family.POWER_LOG or rho.regime is not Regime.LARGE:
        raise UsageError("radius law must be a large-r power-log form")
    comp = _compose_gauge(outer, psi)
    if comp.exp_coeff:
        return GrowthKind.ZERO if comp.exp_coeff > 0 else GrowthKind.INFINITE
    ar, br, cr = rho.exponent_triple
    tilt = (comp.A - d * ar, comp.B - d * br, comp.C - d * cr)
    if tilt > (0, 0, 0):
        return GrowthKind.INFINITE
    return GrowthKind.ZERO if tilt < (0, 0, 0) else GrowthKind.FINITE


# -- H^f(W) for the rationals: the ubiquity theorem's case split ----------

class HausdorffCase(NamedTuple):
    """H^f(W), W the points of [0, 1] within psi(q) of infinitely many
    rationals p/q, beside the verdict on sum r^u f(psi(r)).

    `measure` is 0, an exact positive Fraction, or math.inf.  It is None
    when a hypothesis fails, and `why` names it; then only the series
    verdict stands.  `G` is the growth kind in the divergence case.
    """

    series: Classification
    G: Optional[GrowthKind] = None
    measure: Union[Fraction, float, None] = None
    why: str = ""


def hausdorff_case(psi: FunctionForm, gauge: FunctionForm,
                   weight: RationalLike) -> HausdorffCase:
    """H^f(W) for the rationals in Omega = [0, 1], from the series
    sum q f(psi(q)):

      * it converges: H^f(W) = 0 (Hausdorff-Cantelli, no hypothesis);
      * it diverges: H^f(W) = H^f([0, 1]), which is infinity, c or 0 as
        f(r)/r = c r^(a-1) (log 1/r)^b (loglog 1/r)^c' tends to infinity,
        to c or to 0, i.e. as (1 - a, b, c') is above, at or below
        (0, 0, 0) lexicographically.

    The divergence case splits on G = limsup f(psi(k^n)) / rho(k^n) with
    the ubiquity function rho(q) = q^-2 of the rationals (delta = 1;
    Beresnevich-Dickinson-Velani, Mem. AMS 179, 2006): G = 0 with
    f(r)/r -> infinity gives infinity, and G > 0 gives H^f([0, 1]).  With
    G = 0 and f(r)/r bounded, sum q psi(q) diverges too, so W has full
    Lebesgue measure (Khintchine) and H^f(W) = H^f([0, 1]) again.  Both
    need psi k-regular; r^-1 f(r) is eventually monotone for every gauge
    of the family.  A weight u other than 1 has no ubiquity system
    behind it here.  Such a weight, or a psi that is not k-regular in the
    divergence case, leaves the series verdict only.
    """
    u = exact(weight, "weight")
    series = series_classify(SeriesSpec(u, psi, gauge))
    if u != 1:
        return HausdorffCase(series, why="weight %s is not 1" % u)
    if series.convergent:
        return HausdorffCase(series, measure=Fraction(0))
    if not is_k_regular(psi, 2):
        return HausdorffCase(series, why="psi is not k-regular")
    kind = compute_G(gauge, psi, approximating(power=-2), 1)
    a, b, c = gauge.exponent_triple
    tilt = (1 - a, b, c)
    measure = (math.inf if tilt > (0, 0, 0)
               else Fraction(0) if tilt < (0, 0, 0) else gauge.scale)
    return HausdorffCase(series, kind, measure)
