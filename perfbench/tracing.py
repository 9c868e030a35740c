"""Spans around the public functions of each limsuplab layer.

The wrappers live here, in the benchmark, and reach the package only by
swapping module (or class) attributes for the length of a traced run.
Callers inside the package look these names up through the module at
call time (``farey.union_length``, ``fn.evaluate_array``, a module
global), so a swapped attribute sees every in-process call.  `Tracer`
restores every original on `uninstall` and `restored()` confirms it, so
untraced runs execute the package's own functions.

A span is (id, parent, name, start, end, job) with monotonic-clock
times; spans stay in memory until the run ends.  A layer's self time is
its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("farey", "systems", "ubiquity", "geodesics", "counting",
          "horoballs", "functions", "cli")

# Work counters map (args, kwargs, result) to {counter name: amount}.
# Counts come from the returned objects wherever they carry one.


def _count_union(args, kwargs, result):
    return {"farey.union_length.intervals": len(args[0])}


def _count_fractions(args, kwargs, result):
    return {"farey.reduced_fractions.points": len(result[0])}


def _count_sieve(args, kwargs, result):
    return {"farey.totient_sieve.elements": len(result)}


def _count_scan(args, kwargs, result):
    out = {"systems.reduced_balls": 0, "systems.stages_full_sweep": 0,
           "systems.stages_subset_sweep": 0,
           "systems.stages_per_q_upper": 0}
    for rec in result.records:
        key = "systems.stages_" + rec.method.replace("-", "_")
        if key in out:
            out[key] += 1
        if rec.method == "full-sweep":
            out["systems.reduced_balls"] += rec.count
    return out


def _count_engine(args, kwargs, result):
    # `result` is the engine itself (see _wrap_init)
    return {"ubiquity.engine_blocks": result.block_count}


def _count_quotients(args, kwargs, result):
    return {"geodesics.quotients_expanded": len(result.quotients)}


def _count_records(args, kwargs, result):
    return {"geodesics.excursion_records": len(result)}


def _count_denominators(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["N"]
    return {"counting.denominators_tested": int(n)}


def _count_pairs(args, kwargs, result):
    return {"horoballs.pairs": result.pairs}


# (module, attribute, span name, work counter) for every traced entry point
TRACED = (
    ("farey", "union_length", "farey.union_length", _count_union),
    ("farey", "reduced_fractions", "farey.reduced_fractions",
     _count_fractions),
    ("farey", "totient_sieve", "farey.totient_sieve", _count_sieve),
    ("systems", "stage_measure_scan", "systems.stage_measure_scan",
     _count_scan),
    ("ubiquity", "UniformStageEngine.__init__", "ubiquity.engine_build",
     _count_engine),
    ("ubiquity", "UniformStageEngine.union_measure",
     "ubiquity.union_measure", None),
    ("geodesics", "cf_expand", "geodesics.cf_expand", _count_quotients),
    ("geodesics", "loglaw_statistic", "geodesics.loglaw_statistic", None),
    ("geodesics", "predicted_excursions", "geodesics.predicted_excursions",
     _count_records),
    ("geodesics", "excursions", "geodesics.excursions", _count_records),
    ("counting", "count_R", "counting.count_R", _count_denominators),
    ("horoballs", "count_horoballs", "horoballs.count_horoballs", None),
    ("horoballs", "disjointness_check", "horoballs.disjointness_check",
     _count_pairs),
    ("functions", "parse_function", "functions.parse_function", None),
    ("functions", "evaluate_array", "functions.evaluate_array", None),
    ("functions", "series_classify", "functions.series_classify", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
)

SPAN_NAMES = tuple(entry[2] for entry in TRACED)

COUNTER_NAMES = (
    "farey.union_length.intervals", "farey.reduced_fractions.points",
    "farey.totient_sieve.elements", "systems.reduced_balls",
    "systems.stages_full_sweep", "systems.stages_subset_sweep",
    "systems.stages_per_q_upper", "ubiquity.engine_blocks",
    "geodesics.quotients_expanded", "geodesics.excursion_records",
    "counting.denominators_tested", "horoballs.pairs",
)


def _owner(module, dotted):
    """(object holding the attribute, attribute name) for 'f' or 'C.f'."""
    parts = dotted.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans for one traced run; install/uninstall swap the
    package attributes listed in TRACED."""

    def __init__(self, job=None):
        self.spans = []
        self.counts = defaultdict(int)
        self.job = job
        self._stack = []
        self._next_id = 0
        self._saved = []
        self._swapped = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        span = {"id": self._next_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.monotonic(), "end": None,
                "job": self.job}
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.monotonic()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, name, func, counter):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.counts[key] += amount
            return result

        traced.__wrapped__ = func
        return traced

    def _wrap_init(self, name, init, counter):
        tracer = self

        def traced_init(engine, *args, **kwargs):
            span = tracer._open(name)
            try:
                init(engine, *args, **kwargs)
            finally:
                tracer._close(span)
            for key, amount in counter(args, kwargs, engine).items():
                tracer.counts[key] += amount

        traced_init.__wrapped__ = init
        return traced_init

    # -- attribute swapping ----------------------------------------------
    def install(self, layers=LAYERS):
        """Swap every TRACED attribute of the named limsuplab modules for
        a recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, dotted, span_name, counter in TRACED:
            if mod_name not in layers:
                continue
            module = importlib.import_module("limsuplab." + mod_name)
            owner, attr = _owner(module, dotted)
            original = owner.__dict__[attr]
            if attr == "__init__":
                wrapper = self._wrap_init(span_name, original, counter)
            else:
                wrapper = self._wrap(span_name, original, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._swapped, self._saved = self._saved, []

    def restored(self):
        """True when every swapped attribute holds its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._swapped)

    # -- output ----------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans):
    """{span name: (calls, self seconds)}; children are the spans whose
    parent id (within the same job) is the span's id."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["job"], span["parent"])] += (span["end"]
                                                          - span["start"])
    out = {}
    for span in spans:
        calls, self_s = out.get(span["name"], (0, 0.0))
        duration = span["end"] - span["start"]
        out[span["name"]] = (calls + 1,
                             self_s + duration
                             - child_time[(span["job"], span["id"])])
    return out


def covered_seconds(spans):
    """Total duration of the top-level spans (they never overlap within
    one job, and jobs run one after another)."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def load_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
