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
diagnostic.  Exponent arithmetic is exact (fractions.Fraction all the
way); only final numeric evaluations use floats.

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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from limsuplab.errors import (CompositionError, DomainError,
                              InternalInvariantError, UsageError)

RationalLike = Union[int, Fraction, str]

_E = math.e


def exact(x: RationalLike, name: str) -> Fraction:
    """Coerce to an exact Fraction; floats are refused on purpose."""
    if isinstance(x, float):
        raise UsageError("%s must be exact (int, Fraction, or string like "
                         "'2/3'); got float %r" % (name, x))
    return Fraction(x)


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


@dataclass(frozen=True)
class FunctionForm:
    """One member of the closed family.

    POWER_LOG:  scale * r^power * L(r)^log_power * LL(r)^loglog_power
    where (L, LL) = (log, loglog) in the large-r regime and
    (log(1/.), loglog(1/.)) in the small-r regime.

    EXP_POWER:  exp(-r^omega), large-r regime only; the power/log fields
    must be zero and scale must be one.
    """

    scale: Fraction = Fraction(1)
    power: Fraction = Fraction(0)
    log_power: Fraction = Fraction(0)
    loglog_power: Fraction = Fraction(0)
    family: Family = Family.POWER_LOG
    omega: Optional[Fraction] = None
    regime: Regime = Regime.LARGE

    def __post_init__(self):
        for name in ("scale", "power", "log_power", "loglog_power"):
            object.__setattr__(self, name, exact(getattr(self, name), name))
        if self.scale <= 0:
            raise UsageError("scale must be positive, got %s" % self.scale)
        if self.family is Family.EXP_POWER:
            if self.omega is None:
                raise UsageError("exp-power form needs omega")
            object.__setattr__(self, "omega", exact(self.omega, "omega"))
            if self.omega <= 0:
                raise UsageError("omega must be positive, got %s" % self.omega)
            if self.regime is not Regime.LARGE:
                raise UsageError("exp-power forms are large-r only")
            if (self.power, self.log_power, self.loglog_power) != (0, 0, 0) \
                    or self.scale != 1:
                raise UsageError(
                    "exp-power form carries no polynomial-log factors")
        elif self.omega is not None:
            raise UsageError("omega is meaningful only for exp-power forms")

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
    if form.family is not Family.POWER_LOG:
        raise UsageError("exact evaluation needs a power-log form")
    if form.log_power != 0 or form.loglog_power != 0:
        raise UsageError("exact evaluation defined only without log factors")
    if form.power.denominator != 1:
        raise UsageError("exact evaluation needs an integer power, got %s"
                         % form.power)
    rq = Fraction(r)
    if rq <= 0:
        raise DomainError("exact evaluation needs r > 0")
    return form.scale * rq ** int(form.power)


def is_rational_valued(form: FunctionForm) -> bool:
    return (form.family is Family.POWER_LOG
            and form.log_power == 0 and form.loglog_power == 0
            and form.power.denominator == 1)


def evaluate_array(form: FunctionForm, r):
    """Vectorised evaluate over a numpy array (float64 out).

    Same domain rule as evaluate, enforced on the whole array at once.
    numpy is imported lazily so the symbolic core stays importable
    without it.
    """
    import numpy as np

    r = np.asarray(r, dtype=np.float64)
    threshold = float(form.domain_threshold)
    if form.family is Family.EXP_POWER:
        if np.any(r < 0):
            raise DomainError("negative r for an exp-power form")
        return np.exp(-(r ** float(form.omega)))
    if form.regime is Regime.LARGE:
        if np.any(r <= threshold):
            raise DomainError("r at or below domain threshold %s" % threshold)
        x = np.log(r)
    else:
        if np.any(r <= 0) or np.any(r >= threshold):
            raise DomainError("r outside (0, %s)" % threshold)
        x = np.log(1.0 / r)
    out = float(form.scale) * r ** float(form.power)
    if form.log_power:
        out = out * x ** float(form.log_power)
    if form.loglog_power:
        out = out * np.log(x) ** float(form.loglog_power)
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


def parse_function(text: str, regime: Regime = Regime.LARGE) -> FunctionForm:
    """Parse the factor grammar `scale * r^a * log(r)^b * loglog(r)^c`
    or `exp(-r^w)`.

    Exponents may be integers, fractions like 2/3 (optionally in
    parentheses), or decimal literals; decimals are read exactly.
    log(1/r) / loglog(1/r) are accepted as spellings of the small-r
    regime and force it.
    """
    text = text.strip()
    if not text:
        raise UsageError("empty function expression")
    m = _EXP_RE.fullmatch(text)
    if m:
        return exp_power(_parse_exp(m.group(1)))
    scale = Fraction(1)
    power = Fraction(0)
    log_p = Fraction(0)
    loglog_p = Fraction(0)
    seen_small = False
    seen_large = False
    queue = _split_factors(text)
    while queue:
        factor = queue.pop(0)
        inner = _unwrap_parens(factor)
        if inner is not None:
            # a parenthesized group is a sub-product: flatten it in place
            queue = _split_factors(inner) + queue
            continue
        m = _POWER_RE.fullmatch(factor)
        if m:
            power += _parse_exp(m.group(1)) if m.group(1) else Fraction(1)
            continue
        m = _LOG_RE.fullmatch(factor)
        if m:
            if m.group(1):
                seen_small = True
            else:
                seen_large = True
            e = _parse_exp(m.group(2)) if m.group(2) else Fraction(1)
            log_p += e
            continue
        m = _LOGLOG_RE.fullmatch(factor)
        if m:
            if m.group(1):
                seen_small = True
            else:
                seen_large = True
            e = _parse_exp(m.group(2)) if m.group(2) else Fraction(1)
            loglog_p += e
            continue
        try:
            scale *= _parse_exp(factor)
        except (ValueError, ZeroDivisionError):
            raise UsageError("cannot parse factor %r in %r" % (factor, text))
    if seen_small and seen_large:
        raise UsageError("mixed log(r) and log(1/r) in %r" % text)
    if seen_small:
        regime = Regime.SMALL
    elif seen_large:
        regime = Regime.LARGE
    return power_log(scale, power, log_p, loglog_p, regime)


_NUM = r"[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?"
_EXPPAT = r"(\(?-?%s\)?|-?%s)" % (_NUM, _NUM)
_EXP_RE = re.compile(r"exp\(\s*-\s*r\^%s\s*\)" % _EXPPAT)
_POWER_RE = re.compile(r"r(?:\^%s)?" % _EXPPAT)
_LOG_RE = re.compile(r"log\(\s*(1/)?r\s*\)(?:\^%s)?" % _EXPPAT)
_LOGLOG_RE = re.compile(r"loglog\(\s*(1/)?r\s*\)(?:\^%s)?" % _EXPPAT)


def _parse_exp(token: str) -> Fraction:
    token = token.strip()
    if token.startswith("(") and token.endswith(")"):
        token = token[1:-1].strip()
    return Fraction(token)   # handles "3", "-2", "2/3", "0.25" exactly


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
                raise UsageError("unbalanced parentheses in %r" % text)
        if ch == "*" and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise UsageError("unbalanced parentheses in %r" % text)
    out.append("".join(cur).strip())
    if any(not f for f in out):
        raise UsageError("empty factor in %r" % text)
    return out


# -- series: reduction to the closed family ------------------------------

@dataclass(frozen=True)
class SeriesSpec:
    """sum over integers r >= start of  r^weight_power * outer(inner(r)).

    outer=None means the identity (sum the inner values themselves,
    weighted).  inner must be a large-r form tending to zero whenever an
    outer gauge is applied, since gauges only make sense near 0.
    """

    weight_power: Fraction
    inner: FunctionForm
    outer: Optional[FunctionForm] = None
    start: int = 3

    def __post_init__(self):
        object.__setattr__(self, "weight_power",
                           exact(self.weight_power, "weight_power"))
        if self.inner.regime is not Regime.LARGE:
            raise UsageError("inner function must live in the large-r regime")
        if self.outer is not None:
            if not self.outer.is_gauge():
                raise UsageError("outer function must be a dimension gauge")
            if not self.inner.tends_to_zero():
                raise UsageError(
                    "gauge applied to a function that does not tend to zero")


@dataclass(frozen=True)
class ReducedSummand:
    """Summand reduced to  const * r^A (log r)^B (loglog r)^C
    * exp(-exp_coeff * r^exp_omega), the exponential factor optional.

    `limit_scale` is the limiting constant factor (float, best effort);
    it never participates in verdicts.
    """

    A: Fraction
    B: Fraction
    C: Fraction
    exp_coeff: Fraction = Fraction(0)
    exp_omega: Optional[Fraction] = None
    limit_scale: float = 1.0


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    reduced: ReducedSummand
    reason: str

    @property
    def convergent(self) -> bool:
        return self.verdict is Verdict.CONVERGENT


def _compose_gauge(outer: Optional[FunctionForm], inner: FunctionForm) \
        -> ReducedSummand:
    """Reduce outer(inner(r)) for large r, up to a constant factor that
    tends to the reported limit_scale.

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
    if outer is None:
        if inner.family is Family.EXP_POWER:
            return ReducedSummand(
                A=Fraction(0), B=Fraction(0), C=Fraction(0),
                exp_coeff=Fraction(1), exp_omega=inner.omega)
        a, b, c = inner.exponent_triple
        return ReducedSummand(A=a, B=b, C=c,
                              limit_scale=float(inner.scale))
    al, be, ga = outer.exponent_triple
    t_scale = float(outer.scale)

    if inner.family is Family.EXP_POWER:
        w = inner.omega
        return ReducedSummand(
            A=be * w, B=ga, C=Fraction(0),
            exp_coeff=al, exp_omega=w if al else None,
            limit_scale=t_scale * float(w) ** float(ga))

    a, b, c = inner.exponent_triple
    s = float(inner.scale)
    if a != 0:
        if a > 0:
            raise CompositionError(
                "gauge of a growing function: log(1/inner) is eventually "
                "undefined")
        scale = t_scale * s ** float(al) * abs(float(a)) ** float(be)
        return ReducedSummand(A=al * a, B=al * b + be, C=al * c + ga,
                              limit_scale=scale)
    if b != 0:
        if ga != 0:
            raise CompositionError(
                "loglog(1/inner) with inner of pure log decay leaves the "
                "closed power/log/loglog family (logloglog term)")
        scale = t_scale * s ** float(al) * abs(float(b)) ** float(be)
        return ReducedSummand(A=Fraction(0), B=al * b, C=al * c + be,
                              limit_scale=scale)
    if be != 0 or ga != 0:
        raise CompositionError(
            "log(1/inner) with inner of pure loglog decay leaves the "
            "closed family")
    return ReducedSummand(A=Fraction(0), B=Fraction(0), C=al * c,
                          limit_scale=t_scale * s ** float(al))


def reduce_series(series: SeriesSpec) -> ReducedSummand:
    red = _compose_gauge(series.outer, series.inner)
    return ReducedSummand(
        A=red.A + series.weight_power, B=red.B, C=red.C,
        exp_coeff=red.exp_coeff, exp_omega=red.exp_omega,
        limit_scale=red.limit_scale)


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
    if red.exp_coeff < 0:
        return Classification(
            Verdict.DIVERGENT, red,
            "exponentially growing summand")
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
    u = exact(weight_power, "weight_power")
    if psi.regime is not Regime.LARGE:
        raise UsageError("critical exponent expects a large-r function")
    if psi.family is Family.EXP_POWER:
        # any s > 0 wins instantly against every polynomial weight
        return Fraction(0)
    a, b, c = psi.exponent_triple
    if a != 0:
        if a > 0:
            raise UsageError("psi must decay; got growing power %s" % a)
        s = (u + 1) / (-a)
        return s if s > 0 else Fraction(0)
    if u < -1:
        return Fraction(0)
    if u > -1:
        return math.inf
    # u == -1: the log slots decide
    if b != 0:
        if b > 0:
            raise UsageError("psi must decay; got growing log power %s" % b)
        s = Fraction(-1) / b
        return s if s > 0 else Fraction(0)
    if c != 0:
        if c > 0:
            raise UsageError("psi must decay; got growing loglog power %s" % c)
        s = Fraction(-1) / c
        return s if s > 0 else Fraction(0)
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
    # cross-check via the reduction machinery at two probe values
    s = Fraction(n) / w
    for probe, convergent in ((s + 1, True), (s - Fraction(1, 2), False)):
        if probe > 0 and series_classify(SeriesSpec(
                Fraction(n - 1), exp_power(w),
                dimension_gauge(log_power=-probe))).convergent != convergent:
            raise InternalInvariantError(
                "series verdict at s = %s disagrees with the critical "
                "exponent %s" % (probe, s))
    return s


# -- k-regularity --------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    k: int
    ratio_limit: float            # limit of h(k^(n+1))/h(k^n)
    lam: Optional[float]          # a witness lambda < 1, when regular

    def __bool__(self):
        return self.regular


def is_k_regular(form: FunctionForm, k: int) -> RegularityReport:
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
    if form.family is Family.EXP_POWER:
        return RegularityReport(True, k, 0.0, 0.5)
    a = form.power
    limit = float(k) ** float(a)
    if a < 0:
        return RegularityReport(True, k, limit, (limit + 1.0) / 2.0)
    # a == 0 with decaying logs, or a > 0: ratios approach (or exceed) 1
    return RegularityReport(False, k, limit, None)


# -- G = limsup of f(psi(k^n)) rho(k^n)^(-delta) --------------------------

class GrowthKind(Enum):
    ZERO = "zero"
    FINITE = "finite"
    INFINITE = "infinite"


@dataclass(frozen=True)
class GReport:
    kind: GrowthKind
    value: Optional[float]        # the limit, for the finite case
    reduced: ReducedSummand


def compute_G(outer: Optional[FunctionForm], psi: FunctionForm,
              rho: FunctionForm, delta: RationalLike) -> GReport:
    """Classify G = limsup_n g(k^n), g(r) = outer(psi(r)) rho(r)^(-delta).

    Along the whole family g is asymptotically monotone, so the limsup
    along geometric subsequences, for every k, equals the plain limit of
    the reduced form: zero, a positive constant (reported), or infinity.
    """
    d = exact(delta, "delta")
    if d <= 0:
        raise UsageError("delta must be positive")
    if rho.family is not Family.POWER_LOG or rho.regime is not Regime.LARGE:
        raise UsageError("radius law must be a large-r power-log form")
    comp = _compose_gauge(outer, psi)
    ar, br, cr = rho.exponent_triple
    red = ReducedSummand(
        A=comp.A - d * ar, B=comp.B - d * br, C=comp.C - d * cr,
        exp_coeff=comp.exp_coeff, exp_omega=comp.exp_omega,
        limit_scale=comp.limit_scale * float(rho.scale) ** float(-d))
    if red.exp_coeff > 0:
        kind: GrowthKind = GrowthKind.ZERO
    elif red.exp_coeff < 0:
        kind = GrowthKind.INFINITE
    elif (red.A, red.B, red.C) > (0, 0, 0):
        kind = GrowthKind.INFINITE
    elif (red.A, red.B, red.C) < (0, 0, 0):
        kind = GrowthKind.ZERO
    else:
        kind = GrowthKind.FINITE
    value = red.limit_scale if kind is GrowthKind.FINITE else None
    return GReport(kind, value, red)


# -- H^f(W) for the rationals: the ubiquity theorem's case split ----------

@dataclass(frozen=True)
class HausdorffCase:
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
    kind = compute_G(gauge, psi, approximating(power=-2), 1).kind
    a, b, c = gauge.exponent_triple
    tilt = (1 - a, b, c)
    measure = (math.inf if tilt > (0, 0, 0)
               else Fraction(0) if tilt < (0, 0, 0) else gauge.scale)
    return HausdorffCase(series, kind, measure)
