"""The record contract: every public record of the package keeps the
field names, order, repr text, equality, hash and read-only fields it
had as a frozen dataclass, pickles to an equal record, and the records
that check their fields refuse what they refused before, message for
message."""

import pickle
import re
from fractions import Fraction

import pytest

from limsuplab import counting as ct
from limsuplab import functions as fn
from limsuplab import geodesics as geo
from limsuplab import horoballs as hb
from limsuplab import systems as sy
from limsuplab import ubiquity as ub
from limsuplab.errors import (InternalInvariantError, PrecisionExhausted,
                              UsageError)

PSI = fn.FunctionForm(Fraction(1, 4), Fraction(-1))
GAUGE = fn.FunctionForm(1, 1, regime=fn.Regime.SMALL)
REDUCED = fn.ReducedSummand(Fraction(-2), Fraction(0), Fraction(0))
CLS = fn.Classification(fn.Verdict.CONVERGENT, REDUCED, "A < -1")
COUNT = ct.CountRecord(0.25, 100, 48, 50.0, 0.96)
PRED = ct.SchmidtPrediction(50.0, None)
STAGE = sy.StageMeasure(1, 2, 3, 0.125, 0.25, 0.1875, "full-sweep")

# (record class, field names in order, field values, the same values
# with one changed)
RECORDS = [
    (ct.CountRecord, ("x", "N", "count", "prediction", "ratio"),
     (0.25, 100, 48, 50.0, 0.96), (0.25, 100, 49, 50.0, 0.98)),
    (ct.SchmidtPrediction, ("value", "first_violation"),
     (50.0, None), (50.0, 1)),
    (ct.SchmidtSummary, ("mean_ratio", "stddev", "records", "prediction"),
     (0.96, 0.0, (COUNT,), PRED), (0.96, 0.0, (), PRED)),
    (fn.FunctionForm, ("scale", "power", "log_power", "loglog_power",
                       "family", "omega", "regime"),
     (Fraction(1, 4), Fraction(-1), Fraction(0), Fraction(0),
      fn.Family.POWER_LOG, None, fn.Regime.LARGE),
     (Fraction(1, 4), Fraction(-1), Fraction(1, 2), Fraction(0),
      fn.Family.POWER_LOG, None, fn.Regime.LARGE)),
    (fn.SeriesSpec, ("weight_power", "inner", "outer"),
     (Fraction(1), PSI, GAUGE), (Fraction(1), PSI, None)),
    (fn.ReducedSummand, ("A", "B", "C", "exp_coeff", "exp_omega"),
     (Fraction(-2), Fraction(0), Fraction(0), Fraction(0), None),
     (Fraction(-2), Fraction(1), Fraction(0), Fraction(0), None)),
    (fn.Classification, ("verdict", "reduced", "reason"),
     (fn.Verdict.CONVERGENT, REDUCED, "A < -1"),
     (fn.Verdict.DIVERGENT, REDUCED, "A < -1")),
    (fn.HausdorffCase, ("series", "G", "measure", "why"),
     (CLS, None, Fraction(0), ""), (CLS, None, None, "psi is not k-regular")),
    (geo.CFExpansion, ("x", "quotients", "terminated"),
     (Fraction(16, 113), (7, 16), True), (Fraction(16, 113), (7,), False)),
    (geo.GeodesicState, ("z", "t"), (0.25 + 2j, 0.5), (0.25 + 2j, 0.75)),
    (geo.ExcursionRecord, ("index", "convergent_index", "t_enter", "t_peak",
                           "t_exit", "peak_pen"),
     (0, 1, 0.5, 1.0, 1.5, 0.25), (0, None, 0.5, 1.0, 1.5, 0.25)),
    (hb.CountReport, ("R", "q_min", "q_max", "count", "ratio"),
     (Fraction(1, 8), 3, 4, 4, 0.5), (Fraction(1, 16), 3, 5, 10, 0.625)),
    (hb.DisjointnessReport, ("q_max", "points", "pairs", "tangent_pairs",
                             "overlap_pairs", "identity_pairs"),
     (20, 129, 8256, 255, 0, 10), (20, 129, 8256, 256, 0, 10)),
    (sy.ResonantSystem, ("kind",), (sy.SystemKind.RATIONALS,),
     (sy.SystemKind.FORD,)),
    (sy.StageSpec, ("form", "k"), (PSI, Fraction(2)), (PSI, Fraction(3))),
    (sy.StageMeasure, ("n", "count", "pairs", "lower", "upper", "value",
                       "method"),
     (1, 2, 3, 0.125, 0.25, 0.1875, "full-sweep"),
     (1, 2, 3, 0.125, 0.25, None, "per-q-upper")),
    (sy.StageScan, ("records",), ((STAGE,),), ((),)),
    (ub.UbiquityReport, ("ball", "per_n", "kappa_hat", "n_min"),
     ((Fraction(1, 2), Fraction(1, 10)), ((3, Fraction(9, 10)),),
      Fraction(9, 10), 3),
     ((Fraction(1, 2), Fraction(1, 10)), ((3, Fraction(2, 5)),),
      Fraction(2, 5), None)),
]


@pytest.mark.parametrize("cls,fields,values,other", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_contract(cls, fields, values, other):
    rec = cls(*values)
    assert cls._fields == fields
    assert tuple(getattr(rec, f) for f in fields) == values
    assert repr(rec) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % pair for pair in zip(fields, values)))
    # equal and hashed by the fields, as the frozen dataclass was, so
    # the hash (and any set or dict order) is the field tuple's
    twin = cls(**dict(zip(fields, values)))
    assert rec == twin and hash(rec) == hash(twin) == hash(values)
    assert rec != cls(*other)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[0])
    with pytest.raises(AttributeError):
        rec.extra = 1
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec and repr(back) == repr(rec)


EXP = fn.Family.EXP_POWER
REFUSALS = [
    (lambda: fn.FunctionForm(0), UsageError, "scale must be positive, got 0"),
    (lambda: fn.FunctionForm(1, "x"), UsageError,
     "power: cannot read 'x' (Invalid literal for Fraction: 'x')"),
    (lambda: fn.FunctionForm(1, 2 ** fn.MAX_EXACT_BITS), UsageError,
     "power has %d bits, past the %d-bit bound on exact values"
     % (fn.MAX_EXACT_BITS + 1, fn.MAX_EXACT_BITS)),
    (lambda: fn.FunctionForm(1, -1, 0.5), UsageError,
     "log_power must be exact (int, Fraction, or string like '2/3'); got "
     "float 0.5"),
    (lambda: fn.FunctionForm(family=EXP), UsageError,
     "exp-power form needs omega"),
    (lambda: fn.FunctionForm(family=EXP, omega=0), UsageError,
     "omega must be positive, got 0"),
    (lambda: fn.FunctionForm(family=EXP, omega=1, regime=fn.Regime.SMALL),
     UsageError, "exp-power forms are large-r only"),
    (lambda: fn.FunctionForm(power=-1, family=EXP, omega=1), UsageError,
     "exp-power form carries no polynomial-log factors"),
    (lambda: fn.FunctionForm(2, family=EXP, omega=1), UsageError,
     "exp-power form carries no polynomial-log factors"),
    (lambda: fn.FunctionForm(omega=1), UsageError,
     "omega is meaningful only for exp-power forms"),
    (lambda: fn.SeriesSpec(1, GAUGE), UsageError,
     "inner function must live in the large-r regime"),
    (lambda: fn.SeriesSpec(1, PSI, PSI), UsageError,
     "outer function must be a dimension gauge"),
    (lambda: fn.SeriesSpec(1, fn.power_log(1, 1), GAUGE), UsageError,
     "gauge applied to a function that does not tend to zero"),
    (lambda: sy.StageSpec(PSI, 1), UsageError, "stage ratio k must exceed 1"),
    (lambda: sy.StageSpec(PSI, "k"), UsageError,
     "k: cannot read 'k' (Invalid literal for Fraction: 'k')"),
    (lambda: sy.StageSpec(GAUGE, 2), UsageError,
     "stage radii are functions of a growing weight; use a large-argument "
     "form"),
    (lambda: sy.StageSpec(fn.power_log(1, 1), 2), UsageError,
     "stage radius function must decay"),
    (lambda: geo.GeodesicState(0.5 + 0j, 3.0), PrecisionExhausted,
     "geodesic point left the representable upper half-plane (Im = 0.0 at "
     "t = 3.0)"),
    (lambda: geo.ExcursionRecord(0, 1, 2.0, 1.0, 3.0, 0.5),
     InternalInvariantError,
     "excursion times out of order: 2.0 <= 1.0 <= 3.0 fails"),
    (lambda: geo.ExcursionRecord(0, 1, 1.0, 2.0, 3.0, 0.0),
     InternalInvariantError, "peak penetration must be > 0"),
]


@pytest.mark.parametrize("build,exc,message", REFUSALS)
def test_checked_records_refuse_as_before(build, exc, message):
    with pytest.raises(exc, match="^%s$" % re.escape(message)):
        build()


def test_checked_records_normalise_their_fields():
    form = fn.FunctionForm(1, -1, "1/2", "0.5")
    exponents = (form.scale, form.power, form.log_power, form.loglog_power)
    assert exponents == (1, -1, Fraction(1, 2), Fraction(1, 2))
    assert all(type(v) is Fraction for v in exponents)
    assert fn.FunctionForm(family=EXP, omega="1/3").omega == Fraction(1, 3)
    assert fn.SeriesSpec("3/2", PSI).weight_power == Fraction(3, 2)
    assert sy.StageSpec(PSI, 2).k == Fraction(2)
