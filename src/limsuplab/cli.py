"""Command-line front end: seeded experiments persisted as CSV/JSONL.

One subcommand per experiment family.  Option values come from flags
first, then from an INI config file (``--config``; section ``[common]``
plus one section per subcommand), then from built-in defaults.  Every
result file carries a config echo sufficient to reproduce the run, and
re-running an identical config byte-reproduces the payload (the
wall-clock header line is the only varying part).  All writes are
atomic: temp file in the target directory, then rename.

Exit statuses: 0 success, 1 usage/validation, 2 resource cap (including
exhausted certified precision and values beyond float range), 3 internal
invariant violation.
``LIMSUPLAB_OUTPUT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys
import tempfile
import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .errors import (InternalInvariantError, PrecisionExhausted,
                     ResourceCapError, UsageError, read_exact, text_echo,
                     unreadable)

# Each handler imports the layers it runs, so a command pays only for
# its own.  Importing this module loads argparse, fractions and `errors`,
# whose readers parse every rational option.  Only the five commands that
# parse a function load `functions`; configparser comes only with
# --config, json with jsonl output, csv with csv output.  The records
# here and in every layer are NamedTuples, as `dataclasses` loads
# inspect, so no command loads it.  numpy comes only with a layer's
# array code: never with `functions`, the exact CF engine, the log law,
# the horoball counts or a ubiquity stage refused at its denominator
# cap.  Compiled from source (PYTHONDONTWRITEBYTECODE=1) on
# 2 vCPUs, `python -X importtime` reads `functions` 16-20 ms,
# dataclasses 11, configparser 3, json 2.5 and csv 1: `import
# limsuplab.cli` took 57-69 ms with them and 22 ms without.
# Three option defaults echo caps of those layers, copied
# here so that no import is needed to parse options; a test pins each
# copy to its source.
_FULL_SWEEP_CAP = "32000000"      # systems.FULL_SWEEP_CAP
_SUBSET_SWEEP_CAP = "64000000"    # systems.SUBSET_SWEEP_CAP
_MAX_UNIFORM_Q = "8192"           # ubiquity.MAX_UNIFORM_Q

OUTPUT_DIR_ENV = "LIMSUPLAB_OUTPUT_DIR"


# -- option tables --------------------------------------------------------

class _Opt(NamedTuple):
    name: str                    # flag spelling without the leading --
    kind: str                    # int | float | rational | text | ints | choice:a,b
    default: Optional[str] = None  # raw-text default; None + required=False -> absent
    required: bool = False
    help: str = ""


_COMMON: Tuple[_Opt, ...] = (
    _Opt("seed", "int", "0", help="seed for every randomised choice"),
    _Opt("output", "text", None, help="output file (default: command name "
         "under $%s or the working directory)" % OUTPUT_DIR_ENV),
    _Opt("format", "choice:csv,jsonl", "csv", help="output format"),
)

_COMMANDS: Dict[str, Tuple[_Opt, ...]] = {
    "classify": (
        _Opt("series", "text", help="full summand, e.g. \"r^1 * (r^-2)\""),
        _Opt("psi", "text", help="approximating function (with --gauge)"),
        _Opt("gauge", "text", help="dimension gauge applied to psi"),
        _Opt("weight", "rational", help="weight power u in r^u (default 0 "
             "for --series, 1 for --psi)"),
    ),
    "critical-exponent": (
        _Opt("psi", "text", help="approximating function r^-tau ..."),
        _Opt("weight", "rational", help="weight power u (with --psi)"),
        _Opt("omega", "rational", help="exp(-r^omega) rate (with --ambient)"),
        _Opt("ambient", "int", help="ambient dimension n (with --omega)"),
    ),
    "stage-scan": (
        _Opt("psi", "text", required=True),
        _Opt("k", "int", required=True, help="stage base k > 1"),
        _Opt("n-lo", "int", required=True),
        _Opt("n-hi", "int", required=True),
        _Opt("full-cap", "int", _FULL_SWEEP_CAP),
        _Opt("subset-cap", "int", _SUBSET_SWEEP_CAP),
    ),
    "ubiquity": (
        _Opt("rho", "text", required=True, help="uniform stage radius rho(r)"),
        _Opt("k", "int", required=True),
        _Opt("n-lo", "int", required=True),
        _Opt("n-hi", "int", required=True),
        _Opt("balls", "int", "20", help="number of seeded test intervals"),
        _Opt("min-measure", "rational", "1/10",
             help="smallest allowed test-interval length"),
        _Opt("target", "rational", "1/2", help="ratio target for n_min"),
        _Opt("q-cap", "int", _MAX_UNIFORM_Q),
        _Opt("system", "choice:rationals,ford", "rationals"),
    ),
    "schmidt": (
        _Opt("psi", "text", required=True),
        _Opt("N", "int", required=True, help="counting horizon q <= N"),
        _Opt("samples", "int", "200"),
        _Opt("workers", "int", help="worker processes for independent "
             "samples, at most one per sample and per CPU, none below "
             "2 x 10^8 of samples x N (default: machine parallelism)"),
    ),
    "cf": (
        _Opt("x", "rational", required=True,
             help="direction; decimals are read exactly"),
        _Opt("depth", "int", "40"),
    ),
    "excursions": (
        _Opt("x", "rational", help="rational direction"),
        _Opt("quotients", "ints", help="partial quotients a1,a2,..."),
        _Opt("T", "float", required=True, help="time horizon"),
        _Opt("step", "float", help="sample step (switches to the sampled "
             "engine; --x only)"),
    ),
    "loglaw": (
        _Opt("x", "rational", help="rational direction"),
        _Opt("quotients", "ints", help="partial quotients a1,a2,..."),
        _Opt("T", "float", required=True),
        _Opt("alpha", "float", "0.0", help="drift subtracted before log t"),
    ),
    "horoballs": (
        _Opt("lam", "rational", "1/4", help="radius window is [lam*R, R)"),
        _Opt("r-hi", "rational", "1/8", help="largest radius bound R"),
        _Opt("factor", "rational", "1/2", help="geometric step between "
             "successive R values"),
        _Opt("points", "int", "13"),
        _Opt("base", "text", "0,1", help="base window a,b"),
    ),
    "disjointness": (
        _Opt("q-max", "int", required=True),
        _Opt("identity-q-max", "int", "40"),
    ),
}


def _dest(name: str) -> str:
    return name.replace("-", "_")


_ANY_DEST = {_dest(o.name) for opts in _COMMANDS.values()
             for o in opts + _COMMON}


def _convert(opt: _Opt, raw: str):
    if opt.kind == "rational":
        return read_exact(raw, "--" + opt.name)
    try:
        if opt.kind == "int":
            return int(raw)
        if opt.kind == "float":
            v = float(raw)
            if math.isnan(v) or math.isinf(v):
                raise ValueError(raw)
            return v
        if opt.kind == "ints":
            parts = [t for t in re.split(r"[,\s]+", raw.strip()) if t]
            return [int(t) for t in parts]
        if opt.kind.startswith("choice:"):
            allowed = opt.kind.split(":", 1)[1].split(",")
            if raw not in allowed:
                raise ValueError("expected one of %s" % ", ".join(allowed))
            return raw
        return raw
    except (ValueError, ZeroDivisionError) as exc:
        raise unreadable("--" + opt.name, raw, exc)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we need that status for
    resource caps, so usage problems are re-raised as UsageError."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="limsuplab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for command, opts in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="INI file with [common] and [%s] sections" % command)
        for opt in opts + _COMMON:
            p.add_argument("--" + opt.name, help=opt.help)
    return parser


class ExperimentConfig(NamedTuple):
    command: str
    options: Dict[str, object]       # typed, validated values
    raw: Dict[str, str]              # merged raw text, echoed into outputs


def parse_config(argv: Optional[Sequence[str]] = None) -> ExperimentConfig:
    ns = _build_parser().parse_args(argv)
    if not ns.command:
        raise UsageError("missing command (see --help)")
    file_vals: Dict[str, str] = {}
    if ns.config:
        import configparser
        # values are read verbatim: no %-interpolation
        ini = configparser.ConfigParser(interpolation=None)
        ini.optionxform = str        # option names are case-sensitive (--N)
        try:
            read = ini.read(ns.config, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise unreadable("--config", ns.config, exc)
        if not read:
            raise UsageError("cannot read config file %r" % ns.config)
        # [common] may hold another command's options, never a misspelt one
        own = {_dest(o.name) for o in _COMMANDS[ns.command] + _COMMON}
        for section, known, taker in (("common", _ANY_DEST, "any command"),
                                      (ns.command, own, ns.command)):
            if ini.has_section(section):
                for key, val in ini.items(section):
                    if _dest(key) not in known:
                        raise UsageError("--config: [%s] key %s is no option "
                                         "of %s" % (section, text_echo(key),
                                                    taker))
                    file_vals[_dest(key)] = val
    raw: Dict[str, str] = {}
    typed: Dict[str, object] = {}
    for opt in _COMMANDS[ns.command] + _COMMON:
        dest = _dest(opt.name)
        value = getattr(ns, dest)
        if value is None:
            value = file_vals.get(dest)
        if value is None:
            value = opt.default
        if value is None:
            if opt.required:
                raise UsageError("missing required option --%s" % opt.name)
            typed[dest] = None
            continue
        raw[dest] = str(value)
        typed[dest] = _convert(opt, str(value))
    return ExperimentConfig(ns.command, typed, raw)


# -- result envelope and serialization ------------------------------------

class ResultEnvelope(NamedTuple):
    config: Dict[str, object]        # {"command": ..., "options": {raw...}}
    version: str
    wall_clock_s: float
    columns: Tuple[str, ...]
    rows: List[Dict[str, object]]
    summary: str


def _plain(value):
    """Serializable scalar: exact text for rationals, repr floats."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_csv(env: ResultEnvelope) -> str:
    import csv
    cfg = " ".join("%s=%s" % (k, v)
                   for k, v in sorted(env.config["options"].items()))
    head = [
        "# limsuplab %s" % env.version,
        "# config: command=%s %s" % (env.config["command"], cfg),
        "# wall_clock_s: %.3f" % env.wall_clock_s,
        "# summary: %s" % env.summary,
    ]
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerow(env.columns)
    for row in env.rows:
        writer.writerow([_csv_cell(_plain(row[c])) for c in env.columns])
    return "\n".join(head) + "\n" + body.getvalue()


def _render_jsonl(env: ResultEnvelope) -> str:
    import json
    meta = {
        "meta": {
            "version": env.version,
            "config": env.config,
            "columns": list(env.columns),
            "summary": env.summary,
            "wall_clock_s": round(env.wall_clock_s, 3),
        }
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for row in env.rows:
        lines.append(json.dumps({c: _plain(row[c]) for c in env.columns}))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".limsuplab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _output_path(config: ExperimentConfig) -> str:
    if config.options.get("output"):
        return str(config.options["output"])
    base = os.environ.get(OUTPUT_DIR_ENV, ".")
    return os.path.join(base, "%s.%s" % (config.command,
                                         config.options["format"]))


# -- subcommand handlers ---------------------------------------------------

_Handler = Callable[[Dict[str, object]],
                    Tuple[Tuple[str, ...], List[Dict[str, object]], str]]


def _run_classify(o):
    from . import functions as fn
    weight = o["weight"]
    case = None
    if o["series"]:
        if o["psi"] or o["gauge"]:
            raise UsageError("--series excludes --psi/--gauge")
        cls = fn.series_classify(fn.SeriesSpec(
            weight if weight is not None else Fraction(0),
            fn.parse_function(o["series"])))
    elif o["psi"]:
        weight = weight if weight is not None else Fraction(1)
        psi = fn.parse_function(o["psi"])
        if o["gauge"]:
            gauge = fn.parse_function(o["gauge"], fn.Regime.SMALL)
            case = fn.hausdorff_case(psi, gauge, weight)
            cls = case.series
        else:
            cls = fn.series_classify(fn.SeriesSpec(weight, psi))
    else:
        raise UsageError("classify needs --series or --psi")
    red = cls.reduced
    row = {
        "verdict": cls.verdict.name.title(),
        "reduced_A": red.A, "reduced_B": red.B, "reduced_C": red.C,
        "exp_coeff": red.exp_coeff,
        "reason": cls.reason,
    }
    if case is None:
        summary = ("Convergent ⇒ Khintchine convergence case: null set"
                   if cls.convergent
                   else "Divergent ⇒ Khintchine divergence case: full measure")
    elif case.measure is None:
        summary = "%s ⇒ no H^f(W) claim: %s" % (row["verdict"], case.why)
    elif cls.convergent:
        summary = "Convergent ⇒ Hausdorff convergence case: H^f(W) = 0"
    else:
        value = "∞" if case.measure == math.inf else str(case.measure)
        if case.G is fn.GrowthKind.ZERO and value == "∞":
            summary = "Divergent ⇒ Hausdorff divergence case: H^f(W) = ∞"
        else:
            summary = ("Divergent ⇒ Hausdorff divergence case, G %s: "
                       "H^f(W) = H^f([0,1]) = %s"
                       % ("= 0" if case.G is fn.GrowthKind.ZERO else "> 0",
                          value))
    return tuple(row), [row], summary


def _run_critical_exponent(o):
    from . import functions as fn
    by_psi = o["psi"] is not None
    by_omega = o["omega"] is not None or o["ambient"] is not None
    if by_psi == by_omega:
        raise UsageError("give either --psi/--weight or --omega/--ambient")
    if by_psi:
        weight = o["weight"] if o["weight"] is not None else Fraction(1)
        value = fn.critical_exponent(fn.parse_function(o["psi"]), weight)
        row = {"kind": "hausdorff", "weight": weight, "value": value}
    else:
        if o["omega"] is None or o["ambient"] is None:
            raise UsageError("--omega and --ambient go together")
        value = fn.log_critical_exponent(o["omega"], o["ambient"])
        row = {"kind": "logarithmic", "omega": o["omega"],
               "ambient": o["ambient"], "value": value}
    summary = "inf" if value == math.inf else str(value)
    return tuple(row), [row], summary


def _run_stage_scan(o):
    from . import functions as fn
    from . import systems as sy
    stage = sy.per_point_stage(fn.parse_function(o["psi"]), o["k"])
    scan = sy.stage_measure_scan(sy.classical_rationals(), stage,
                                 o["n_lo"], o["n_hi"],
                                 full_cap=o["full_cap"],
                                 subset_cap=o["subset_cap"])
    rows = []
    partial = 0.0
    for rec in scan.records:
        # a truncated stage has no swept value: blank measure, no summand
        measure = None if rec.value is None else float(rec.value)
        partial += measure or 0.0
        rows.append({
            "n": rec.n, "count": rec.count,
            "lower": float(rec.lower), "upper": float(rec.upper),
            "measure": measure, "partial_sum": partial,
            "method": rec.method, "truncated": rec.truncated,
        })
    truncated = sum(rec.truncated for rec in scan.records)
    summary = ("stage measures n=%d..%d: partial sum %.6g"
               " (%d truncated stage%s)"
               % (o["n_lo"], o["n_hi"], partial, truncated,
                  "" if truncated == 1 else "s"))
    columns = ("n", "count", "lower", "upper", "measure", "partial_sum",
               "method", "truncated")
    return columns, rows, summary


def _run_ubiquity(o):
    from . import functions as fn
    from . import systems as sy
    from . import ubiquity as ub
    system = (sy.ford_horoballs() if o["system"] == "ford"
              else sy.classical_rationals())
    balls = ub.seeded_balls(o["balls"], o["min_measure"], o["seed"])
    reports = ub.estimate_kappa(system, fn.parse_function(o["rho"]), o["k"],
                                balls, range(o["n_lo"], o["n_hi"] + 1),
                                target=o["target"], q_cap=o["q_cap"])
    rows = []
    for i, ((center, radius), per_n, kappa_hat, n_min) in enumerate(reports):
        for n, ratio in per_n:
            rows.append({
                "ball": i, "center": center, "radius": radius,
                "n": n, "ratio": float(ratio), "ratio_exact": str(ratio),
                "kappa_hat": float(kappa_hat),
                "n_min": n_min,
            })
    kappa = ub.empirical_kappa(reports)
    summary = ("empirical kappa = %s (%.6g) over %d balls, n=%d..%d"
               % (kappa, float(kappa), len(balls), o["n_lo"], o["n_hi"]))
    columns = ("ball", "center", "radius", "n", "ratio", "ratio_exact",
               "kappa_hat", "n_min")
    return columns, rows, summary


def _run_schmidt(o):
    from . import counting as ct
    from . import functions as fn
    psi = fn.parse_function(o["psi"])
    if o["samples"] < 1:
        raise UsageError("samples must be >= 1")
    workers = o["workers"] if o["workers"] is not None else os.cpu_count() or 1
    result = ct.schmidt_experiment(psi, o["N"], o["samples"], o["seed"],
                                   workers=workers)
    rows = [{"index": i, "x": x, "count": count,
             "prediction": prediction, "ratio": ratio}
            for i, (x, _, count, prediction, ratio)
            in enumerate(result.records)]
    summary = ("mean ratio %.6f, stddev %.6f over %d samples (N=%d%s)"
               % (result.mean_ratio, result.stddev, len(result.records),
                  o["N"], "" if result.prediction.condition_ok
                  else "; multiplicity condition 2 q psi(q) < 1 fails at "
                  "q = %d" % result.prediction.first_violation))
    return ("index", "x", "count", "prediction", "ratio"), rows, summary


def _run_cf(o):
    from . import geodesics as geo
    exp = geo.cf_expand(o["x"], o["depth"])
    conv_p, conv_q = geo._convergent_arrays(exp.quotients)
    rows = []
    xv = o["x"]
    for n, (a, p, q) in enumerate(zip(exp.quotients, conv_p[1:], conv_q[1:]),
                                  start=1):
        rows.append({"n": n, "a": a, "p": p, "q": q,
                     "error": abs(float(xv) - p / q)})
    state = "terminated" if exp.terminated else "cut at depth"
    summary = "quotients [%s] (%s)" % (
        ", ".join(str(a) for a in exp.quotients), state)
    return ("n", "a", "p", "q", "error"), rows, summary


def _direction(o):
    if (o.get("x") is None) == (o.get("quotients") is None):
        raise UsageError("give exactly one of --x or --quotients")
    return o["x"] if o.get("quotients") is None else o["quotients"]


def _run_excursions(o):
    from . import geodesics as geo
    direction = _direction(o)
    if o["step"] is not None:
        if o.get("x") is None:
            raise UsageError("--step needs --x (sampled engine)")
        records = geo.excursions(o["x"], o["T"], sample_step=o["step"])
        engine = "sampled"
    else:
        records = geo.predicted_excursions(direction, o["T"])
        engine = "exact"
    rows = [{"index": index, "convergent": convergent, "t_enter": t_enter,
             "t_peak": t_peak, "t_exit": t_exit, "peak_pen": peak_pen}
            for index, convergent, t_enter, t_peak, t_exit, peak_pen
            in records]
    if records:
        deepest = max(records, key=lambda r: r.peak_pen)
        summary = ("%d excursions by T=%g (%s); deepest peak %.6f at "
                   "t=%.6f" % (len(records), o["T"], engine,
                               deepest.peak_pen, deepest.t_peak))
    else:
        summary = "0 excursions by T=%g (%s)" % (o["T"], engine)
    columns = ("index", "convergent", "t_enter", "t_peak", "t_exit",
               "peak_pen")
    return columns, rows, summary


def _run_loglaw(o):
    from . import geodesics as geo
    # one expansion and one orbit serve the statistic and the rows
    stat, records = geo._loglaw_and_excursions(_direction(o), o["T"],
                                                o["alpha"])
    rows = []
    running = -math.inf
    for _, _, _, t_peak, _, peak_pen in records:
        if t_peak <= math.e:
            continue
        at_peak = (peak_pen - o["alpha"] * t_peak) / math.log(t_peak)
        running = max(running, at_peak)
        rows.append({"t_peak": t_peak, "log_t": math.log(t_peak),
                     "peak_pen": peak_pen, "at_peak": at_peak,
                     "running_max": running})
    summary = ("log-law statistic %.6f at T=%g (alpha=%g)"
               % (stat, o["T"], o["alpha"]))
    return ("t_peak", "log_t", "peak_pen", "at_peak", "running_max"), rows, summary


def _run_horoballs(o):
    from . import horoballs as hb
    try:
        a_txt, b_txt = o["base"].split(",")
    except ValueError:
        raise UsageError("--base must be two rationals a,b")
    base = (read_exact(a_txt, "--base"), read_exact(b_txt, "--base"))
    reps = hb.band_counts(base, o["r_hi"], o["factor"], o["points"], o["lam"])
    rows = [{"R": rep.R, "log10_R": rep.log10_R, "q_min": rep.q_min,
             "q_max": rep.q_max, "count": rep.count, "ratio": rep.ratio}
            for rep in reps]
    ratios = [r["ratio"] for r in rows if r["ratio"] > 0]
    if ratios:
        spread = max(ratios) / min(ratios)
        summary = ("count ratio in [%.6g, %.6g] (max/min %.4f) over %d "
                   "radius scales down from %s" % (min(ratios), max(ratios),
                                                   spread, o["points"],
                                                   o["r_hi"]))
    else:
        summary = ("no horoballs counted over %d radius scales down from %s"
                   % (o["points"], o["r_hi"]))
    return ("R", "log10_R", "q_min", "q_max", "count", "ratio"), rows, summary


def _run_disjointness(o):
    from . import horoballs as hb
    rep = hb.disjointness_check(o["q_max"], o["identity_q_max"])
    row = {"q_max": rep.q_max, "points": rep.points, "pairs": rep.pairs,
           "tangent_pairs": rep.tangent_pairs,
           "overlap_pairs": rep.overlap_pairs,
           "identity_pairs": rep.identity_pairs}
    # an overlap never reaches here: the check refuses it (exit 3)
    summary = ("all %d horoball interiors disjoint up to q=%d (%d tangent "
               "pairs)" % (rep.points, rep.q_max, rep.tangent_pairs))
    return tuple(row), [row], summary


_HANDLERS: Dict[str, _Handler] = {
    "classify": _run_classify,
    "critical-exponent": _run_critical_exponent,
    "stage-scan": _run_stage_scan,
    "ubiquity": _run_ubiquity,
    "schmidt": _run_schmidt,
    "cf": _run_cf,
    "excursions": _run_excursions,
    "loglaw": _run_loglaw,
    "horoballs": _run_horoballs,
    "disjointness": _run_disjointness,
}


def run(config: ExperimentConfig) -> ResultEnvelope:
    """Dispatch, write the result file atomically, print the summary."""
    started = time.perf_counter()
    columns, rows, summary = _HANDLERS[config.command](config.options)
    env = ResultEnvelope(
        config={"command": config.command, "options": dict(config.raw)},
        version=__version__,
        wall_clock_s=time.perf_counter() - started,
        columns=columns,
        rows=rows,
        summary=summary,
    )
    text = (_render_jsonl(env) if config.options["format"] == "jsonl"
            else _render_csv(env))
    _atomic_write(_output_path(config), text)
    print(summary)
    return env


# -- entry point -----------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        run(parse_config(argv))
        return 0
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ResourceCapError, PrecisionExhausted, OverflowError) as exc:
        # OverflowError: an input whose float image is out of range
        print("resource cap: %s" % exc, file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print("internal invariant violated: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
