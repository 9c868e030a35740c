"""The four benchmark workloads: seeded inputs, job lists and checks.

Every workload is a closed loop with one client: its jobs run back to
back, each starting when the previous one has finished.  The inputs are
generated here from the workload seed; the package only ever receives
those generated values.  A job yields a raw result; `summary` turns it
into the JSON value compared with the recorded reference, and `check`
applies the seed-independent oracles.  No check ever raises: a failure
is a (name, detail) entry and counts against the job.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from limsuplab import functions as fn
from limsuplab import geodesics as geo
from limsuplab import systems as sy
from limsuplab import ubiquity as ub

DEFAULT_SEED = 0
WORKLOADS = ("stage-sweep", "ubiquity-engine", "cf-geodesic", "cli-mix")

# Nominal seconds of one pass per scale on a 2-vCPU machine.  The runner
# derives a fixed pass count from --seconds with these, so the number of
# request samples in a run never depends on how fast the machine happened
# to be.  At the 20 s run length they give 5, 6, 7 and 3 passes: enough
# that the tail rank (ten samples beyond it) falls inside a group of
# requests of one kind rather than on the edge between two kinds.
PASS_SECONDS = {
    "stage-sweep": {"full": 3.8, "tiny": 0.5},
    "ubiquity-engine": {"full": 3.3, "tiny": 0.5},
    "cf-geodesic": {"full": 3.0, "tiny": 0.5},
    "cli-mix": {"full": 7.0, "tiny": 2.0},
}


class Job:
    """One entry of a workload's job list: a batch of requests, each
    timed on its own, whose results are summarised and checked together.
    `summary` and `check` receive the list of request results."""

    def __init__(self, name, requests, summary=None, check=None,
                 seeded=False, tol=0.0, ref_check=None, has_reference=True):
        self.name = name
        self.requests = requests
        self.summary = summary or (lambda raws: raws)
        self.check = check or (lambda raws: [])
        self.seeded = seeded      # inputs depend on the workload seed
        self.tol = tol            # absolute tolerance for float outputs
        self.has_reference = has_reference
        self.ref_check = ref_check or (
            lambda ref, got: [("reference", d) for d in compare(ref, got, tol)])


def digest(values):
    h = hashlib.sha256()
    for v in values:
        h.update(str(v).encode())
        h.update(b"\n")
    return h.hexdigest()


def compare(ref, got, tol, path="out"):
    """Differences between a reference value and an output, as a list of
    strings; floats match within `tol`, everything else exactly."""
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(ref, (int, float)) or not isinstance(got, (int, float)):
            return ["%s: %r != %r" % (path, got, ref)]
        if ref == got or abs(ref - got) <= tol:
            return []
        return ["%s: %r differs from reference %r by more than %g"
                % (path, got, ref, tol)]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return ["%s: length %d != reference %d" % (path, len(got), len(ref))]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, tol, "%s[%d]" % (path, i))
        return out
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return ["%s: keys %s != reference %s" % (path, sorted(got), sorted(ref))]
        out = []
        for key in ref:
            out += compare(ref[key], got[key], tol, "%s.%s" % (path, key))
        return out
    return [] if ref == got else ["%s: %r != reference %r" % (path, got, ref)]


def _fail(cond, name, detail=""):
    return [] if cond else [(name, detail)]


# ---------------------------------------------------------------------------
# stage-sweep

def _exact_stage_measure(system, psi_text, k, n):
    """Stage measure by the benchmark's own exact merge over every raw
    (p, q) ball, for stages of a few thousand balls."""
    psi = fn.parse_function(psi_text)
    w_lo, w_hi = Fraction(k) ** (n - 1), Fraction(k) ** n
    ivs = []
    q = 1
    while True:
        weight = (2 * q * q if system.kind is sy.SystemKind.FORD else q)
        if weight > w_hi:
            break
        if weight > w_lo:
            r = fn.evaluate_rational(psi, weight)
            for p in range(q + 1):
                if system.kind is sy.SystemKind.FORD and math.gcd(p, q) != 1:
                    continue
                c = Fraction(p, q)
                ivs.append((max(c - r, Fraction(0)), min(c + r, Fraction(1))))
        q += 1
    ivs.sort()
    total, end = Fraction(0), Fraction(0)
    for lo, hi in ivs:
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def _records(scans):
    return [r for scan in scans for r in scan.records]


def _stage_rows(scans):
    return [[r.n, r.count, r.pairs, float(r.lower), float(r.upper),
             None if r.value is None else float(r.value), r.method,
             bool(r.truncated)] for r in _records(scans)]


def _stage_check(system, psi_text, k, exact_max):
    def check(scans):
        out = []
        for r in _records(scans):
            tag = "n=%d" % r.n
            lo, hi = float(r.lower), float(r.upper)
            out += _fail(0.0 <= lo <= hi <= 1.0, "bracket-order",
                         "%s: [%r, %r]" % (tag, lo, hi))
            out += _fail(r.method in ("full-sweep", "subset-sweep",
                                      "per-q-upper", "empty"),
                         "method", "%s: %s" % (tag, r.method))
            out += _fail(r.truncated == (r.method in ("subset-sweep",
                                                      "per-q-upper")),
                         "truncated-flag", tag)
            if r.method == "full-sweep":
                out += _fail(lo <= r.value <= hi, "value-in-bracket", tag)
            if 0 < r.pairs <= exact_max:
                exact = _exact_stage_measure(system, psi_text, k, r.n)
                out += _fail(Fraction(lo) <= exact <= Fraction(hi),
                             "exact-merge-in-bracket",
                             "%s: %s not in [%r, %r]" % (tag, float(exact),
                                                          lo, hi))
        return out
    return check


def stage_reference_check(ref_rows, rows):
    """Seed-independent comparison of stage brackets with the reference:
    exact counts and methods, the reference sweep value inside the new
    bracket, and no bracket wider than the reference one."""
    out = []
    if len(ref_rows) != len(rows):
        return [("reference", "stage count %d != %d" % (len(rows),
                                                       len(ref_rows)))]
    for ref, got in zip(ref_rows, rows):
        tag = "n=%d" % ref[0]
        if [got[0], got[1], got[2], got[6], got[7]] != \
                [ref[0], ref[1], ref[2], ref[6], ref[7]]:
            out.append(("reference-exact", "%s: %r != %r" % (tag, got, ref)))
            continue
        if ref[5] is not None:
            out += _fail(got[3] <= ref[5] <= got[4], "reference-in-bracket",
                         "%s: %r not in [%r, %r]" % (tag, ref[5], got[3],
                                                     got[4]))
        out += _fail(got[4] - got[3] <= (ref[4] - ref[3]) + 1e-15,
                     "bracket-width-grew",
                     "%s: %r > %r" % (tag, got[4] - got[3], ref[4] - ref[3]))
    return out


def bracket_width_sum(jobs_raws):
    return float(sum(float(r.upper) - float(r.lower)
                     for scans in jobs_raws for r in _records(scans)))


STAGE_JOBS = {
    # name: (system, psi, k, n_lo, n_hi, full_cap, subset_cap)
    "full": (
        ("q2-k5-full", "rationals", "r^-2", 5, 2, 5, None, None),
        ("q2-k6-subset", "rationals", "r^-2", 6, 6, 6, None, 1_000_000),
        ("q3-k2-full", "rationals", "r^-3", 2, 1, 11, None, None),
        ("q3-k2-perq", "rationals", "r^-3", 2, 14, 19, None, 0),
        ("ford-q1-k2", "ford", "r^-1", 2, 1, 24, None, None),
    ),
    "tiny": (
        ("q2-k6-full", "rationals", "r^-2", 6, 2, 3, None, None),
        ("q2-k6-subset", "rationals", "r^-2", 6, 4, 4, 100_000, 50_000),
        ("q3-k2-full", "rationals", "r^-3", 2, 1, 6, None, None),
        ("q3-k2-perq", "rationals", "r^-3", 2, 14, 15, None, 0),
        ("ford-q1-k2", "ford", "r^-1", 2, 1, 10, None, None),
    ),
}


def _stage_sweep(seed, scale, workdir, **_):
    jobs = []
    for (name, sys_name, psi_text, k, n_lo, n_hi, full_cap,
         subset_cap) in STAGE_JOBS[scale]:
        system = (sy.ford_horoballs() if sys_name == "ford"
                  else sy.classical_rationals())
        stage = sy.per_point_stage(fn.parse_function(psi_text), k)
        caps = {}
        if full_cap is not None:
            caps["full_cap"] = full_cap
        if subset_cap is not None:
            caps["subset_cap"] = subset_cap

        # one request per stage: exactly the work of the range scan.  The
        # package function is looked up at call time so a traced pass
        # reaches its wrapper.
        requests = [lambda n=n, system=system, stage=stage, caps=caps:
                    sy.stage_measure_scan(system, stage, n, n, **caps)
                    for n in range(n_lo, n_hi + 1)]
        jobs.append(Job(name, requests, _stage_rows,
                        _stage_check(system, psi_text, k, 2500),
                        ref_check=stage_reference_check))
    return jobs


# ---------------------------------------------------------------------------
# ubiquity-engine

def seeded_balls(rnd, count, min_measure):
    """Exact test intervals inside [0, 1] of measure >= min_measure."""
    lo = Fraction(min_measure) / 2
    balls = []
    for _ in range(count):
        radius = lo + (Fraction(1, 2) - lo) * Fraction(rnd.randrange(1000), 1000)
        center = radius + (1 - 2 * radius) * Fraction(rnd.randrange(10 ** 6),
                                                      10 ** 6)
        balls.append((center, radius))
    return balls


def log_width_balls(rnd, count, w_min, w_max):
    """Balls at seeded centres whose widths run over a fixed geometric
    grid from w_min to w_max, so the mix of query costs is the same on
    every seed."""
    balls = []
    for i in range(count):
        width = w_min * (w_max / w_min) ** (i / max(count - 1, 1))
        radius = Fraction(max(1, int(width * 10 ** 7)), 2 * 10 ** 7)
        center = radius + (1 - 2 * radius) * Fraction(rnd.randrange(10 ** 6),
                                                      10 ** 6)
        balls.append((center, radius))
    return balls


def _float_union_ratio(q_max, radius, lo, hi):
    """m(B intersect union of balls at F_Q) / m(B) by an independent
    float sweep over the Farey points near the ball."""
    r = float(radius)
    lo_f, hi_f = float(lo) - r, float(hi) + r
    cs = []
    for b in range(1, q_max + 1):
        a = np.arange(max(0, math.floor(lo_f * b)),
                      min(b, math.ceil(hi_f * b)) + 1, dtype=np.int64)
        a = a[np.gcd(a, b) == 1]
        cs.append(a / b)
    c = np.unique(np.concatenate(cs))
    los = np.maximum(c - r, float(lo))
    his = np.minimum(c + r, float(hi))
    # equal radii: upper ends are sorted, so each ball adds what lies
    # beyond the previous ball's upper end
    prev = np.concatenate(([float(lo)], his[:-1]))
    gain = his - np.maximum(los, prev)
    return float(gain[gain > 0].sum()) / float(hi - lo)


def _ford_oracle(q_max, radius, lo, hi):
    """Exact measure of (union of disjoint balls at F_Q) within [lo, hi]:
    full balls count 2r, the at most two partial balls per denominator
    are clipped exactly."""
    total = Fraction(0)
    full = 0
    for b in range(1, q_max + 1):
        a_min = max(0, math.ceil((lo - radius) * b))
        a_max = min(b, math.floor((hi + radius) * b))
        if a_max < a_min:
            continue
        a = np.arange(a_min, a_max + 1, dtype=np.int64)
        coprime = a[np.gcd(a, b) == 1]
        for av in {int(coprime[0]), int(coprime[-1])} if len(coprime) else ():
            c = Fraction(av, b)
            seg = min(c + radius, hi) - max(c - radius, lo)
            if c - radius < lo or c + radius > hi:
                total += max(seg, Fraction(0))
                full -= 1
        full += len(coprime)
    return total + full * 2 * radius


UBIQUITY_SIZES = {
    # rationals: k, n range, balls; Ford: k, n, query batches, balls each
    "full": {"rat": (5, (3, 5), 20), "ford": (6, 9, 4, 250)},
    "tiny": {"rat": (6, (2, 3), 4), "ford": (6, 5, 2, 10)},
}


def _ubiquity_engine(seed, scale, workdir, **_):
    sizes = UBIQUITY_SIZES[scale]
    rnd = random.Random(seed)
    k_rat, (n_lo, n_hi), n_balls = sizes["rat"]
    rho = fn.power_log(6, -2)
    balls = seeded_balls(rnd, n_balls, Fraction(1, 10))
    rat = sy.classical_rationals()

    def kappa_check(per_stage):
        out = []
        for reports in per_stage:
            for i, rep in enumerate(reports):
                for n, ratio in rep.per_n:
                    out += _fail(ratio >= Fraction(1, 2), "ratio-below-half",
                                 "ball %d n=%d: %s" % (i, n, float(ratio)))
        # independent float sweep on the narrowest ball at the top stage
        i = min(range(len(balls)), key=lambda j: balls[j][1])
        c, r = balls[i]
        q_max = ub._uniform_q_max(rat, Fraction(k_rat), n_hi)
        radius = ub._uniform_radius(rho, Fraction(k_rat), n_hi)
        want = _float_union_ratio(q_max, radius, c - r, c + r)
        got = per_stage[-1][i].per_n[0][1]
        out += _fail(abs(float(got) - want) <= 1e-9, "float-sweep-oracle",
                     "ball %d: exact %r vs sweep %r" % (i, float(got), want))
        return out

    # one request per stage: one engine build plus the ball queries
    jobs = [Job("criterion1-ratios",
                [lambda n=n: ub.estimate_kappa(rat, rho, k_rat, balls, [n])
                 for n in range(n_lo, n_hi + 1)],
                lambda per_stage: [[str(rep.per_n[0][1]) for rep in reports]
                                   for reports in per_stage],
                kappa_check, seeded=True)]

    k_ford, n_ford, batches, per_batch = sizes["ford"]
    ford = sy.ford_horoballs()
    q_max = ub._uniform_q_max(ford, Fraction(k_ford), n_ford)
    radius = ub._uniform_radius(fn.parse_function("r^-1"), Fraction(k_ford),
                                n_ford)
    holder = {}

    def build():
        holder["engine"] = ub.UniformStageEngine(q_max, radius)
        return holder["engine"]

    def build_check(engines):
        points = 1 + sum(_phi(b) for b in range(1, q_max + 1))
        blocks = engines[0].block_count
        return _fail(blocks == points, "ford-blocks-equal-points",
                     "%d blocks, %d Farey points" % (blocks, points))

    jobs.append(Job("ford-build", [build],
                    lambda es: {"blocks": es[0].block_count,
                                "q_max": es[0].q_max},
                    build_check))
    for j in range(batches):
        qballs = [(c - r, c + r) for c, r in
                  log_width_balls(rnd, per_batch, 1e-4, 0.5)]

        def query_check(vals, qballs=qballs):
            out = []
            for v, (lo, hi) in zip(vals, qballs):
                out += _fail(0 <= v <= hi - lo, "measure-range", str(lo))
            lo, hi = qballs[0]
            want = _ford_oracle(q_max, radius, lo, hi)
            out += _fail(vals[0] == want, "ford-exact-oracle",
                         "%r != %r" % (float(vals[0]), float(want)))
            return out

        jobs.append(Job("ford-queries-%d" % j,
                        [lambda lo=lo, hi=hi:
                         holder["engine"].union_measure(lo, hi)
                         for lo, hi in qballs],
                        digest, query_check, seeded=True))
    return jobs


def _phi(b):
    result, m, p = b, b, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# ---------------------------------------------------------------------------
# cf-geodesic

def gauss_kuzmin_quotients(rng, count):
    """I.i.d. Gauss-Kuzmin digits: P(a >= k) = log2(1 + 1/k)."""
    u = 1.0 - rng.random(count)                 # (0, 1]
    return [max(1, int(1.0 / (2.0 ** u - 1.0))) for u in u]


def euclid(num, den, depth):
    out = []
    while num and len(out) < depth:
        a, num, den = den // num, den % num, num
        out.append(a)
    return out


def _cf_check(xs, depth):
    def check(exps):
        out = []
        for i, (x, e) in enumerate(zip(xs, exps)):
            q = list(e.quotients)
            out += _fail(q == euclid(x.numerator, x.denominator, depth),
                         "euclid-prefix", "rational %d" % i)
            p_, q_ = e.p, e.q
            ok = all(p_[n] * q_[n - 1] - p_[n - 1] * q_[n] in (1, -1)
                     for n in range(1, len(p_)))
            out += _fail(ok, "convergent-determinant", "rational %d" % i)
        return out
    return check


CF_SIZES = {
    # rationals: batches, per batch, bits, depth; GK quotients; horizons
    "full": {"cf": (4, 100, 4096, 1000), "gk": 48000, "T": (1e3, 1e5),
             "T_pred": 1e4, "golden": (40000, 3e4), "sampled": (12.0, 1e-4)},
    "tiny": {"cf": (2, 5, 512, 100), "gk": 2000, "T": (1e2, 1e3),
             "T_pred": 3e2, "golden": (2000, 1e3), "sampled": (4.0, 1e-4)},
}


def _cf_geodesic(seed, scale, workdir, **_):
    sizes = CF_SIZES[scale]
    rnd = random.Random(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    batches, per_batch, bits, depth = sizes["cf"]
    jobs = []
    for j in range(batches):
        xs = []
        for _ in range(per_batch):
            den = rnd.getrandbits(bits) | (1 << (bits - 1))
            xs.append(Fraction(rnd.randrange(1, den), den))
        jobs.append(Job("cf-expand-%d" % j,
                        [lambda x=x: geo.cf_expand(x, depth) for x in xs],
                        lambda exps: digest(e.quotients for e in exps),
                        _cf_check(xs, depth), seeded=True))

    dirs = [gauss_kuzmin_quotients(rng, sizes["gk"]) for _ in range(2)]
    t_lo, t_hi = sizes["T"]
    stats = {}

    def loglaw(label, T, d):
        def run():
            stats[(label, T)] = geo.loglaw_statistic(d, T)
            return stats[(label, T)]
        return [run]

    def monotone_check(label):
        def check(values):
            lower = stats.get((label, t_lo))
            return _fail(lower is not None and values[0] >= lower,
                         "loglaw-monotone-in-T",
                         "%s: %r < %r" % (label, values[0], lower))
        return check

    for label, d in zip("ab", dirs):
        jobs.append(Job("loglaw-%s-short" % label, loglaw(label, t_lo, d),
                        seeded=True, tol=1e-12))
    for label, d in zip("ab", dirs):
        jobs.append(Job("loglaw-%s-long" % label, loglaw(label, t_hi, d),
                        check=monotone_check(label), seeded=True, tol=1e-12))

    t_pred = sizes["T_pred"]

    def predicted_check(runs):
        recs = runs[0]
        out = []
        bad = [r.convergent_index for r in recs
               if abs(r.peak_pen - math.log(dirs[0][r.convergent_index]))
               > geo.CF_PROXY_CONSTANT]
        out += _fail(not bad, "cf-proxy-bound", "convergents %s" % bad[:5])
        best = max((r.peak_pen / math.log(r.t_peak) for r in recs
                    if r.t_peak > math.e), default=-math.inf)
        long_stat = stats.get(("a", t_hi))
        out += _fail(long_stat is not None and long_stat >= best - 1e-12,
                     "loglaw-above-peak-ratios", "%r < %r" % (long_stat, best))
        return out

    jobs.append(Job("predicted-a",
                    [lambda: geo.predicted_excursions(dirs[0], t_pred)],
                    lambda runs: [len(runs[0]),
                                  sum(r.t_peak for r in runs[0]),
                                  max(r.peak_pen for r in runs[0])],
                    predicted_check, seeded=True, tol=1e-9))

    n_golden, t_golden = sizes["golden"]
    golden = [1] * n_golden
    jobs.append(Job("golden",
                    [lambda: geo.loglaw_statistic(golden, t_golden)],
                    check=lambda vs: _fail(0.0 <= vs[0] < 0.5,
                                           "golden-bounded", repr(vs[0])),
                    tol=1e-12))

    t_s, step = sizes["sampled"]

    def sampled_check(runs):
        out = []
        by_conv = {r.convergent_index: r for r in runs[0]}
        for want in geo.predicted_excursions(Fraction(0.37), t_s):
            got = by_conv.get(want.convergent_index)
            # the sampled engine ends an excursion still running at T there
            ok = got is not None and all(
                abs(a - b) <= 1e-9 for a, b in
                ((got.t_enter, want.t_enter), (got.peak_pen, want.peak_pen),
                 (got.t_exit, min(want.t_exit, t_s))))
            out += _fail(ok, "sampled-matches-exact",
                         "convergent %d" % want.convergent_index)
        return out

    jobs.append(Job("excursions-sampled",
                    [lambda: geo.excursions(0.37, t_s, sample_step=step)],
                    lambda runs: [[r.convergent_index, r.t_enter, r.t_peak,
                                   r.t_exit, r.peak_pen] for r in runs[0]],
                    sampled_check, tol=1e-9))
    return jobs


# ---------------------------------------------------------------------------
# cli-mix

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# What an installed `limsuplab` console script runs.
CLI_ENTRY = "import sys; from limsuplab.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; import limsuplab.cli; "
                "print(repr(time.monotonic()))")

KNOWN_DEFECT_JOBS = (
    # stage-scan reads float(rec.value) of truncated stages, which carry
    # value=None; the command dies with a TypeError instead of exit 0.
    ("stage-scan-truncated", ["stage-scan", "--psi", "r^-3", "--k", "2",
                              "--n-lo", "14", "--n-hi", "15",
                              "--subset-cap", "0"], 0),
)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def payload_bytes(path):
    """Artifact text with the wall-clock line removed: the part that must
    reproduce byte for byte."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    if path.endswith(".jsonl"):
        head, _, rest = text.partition("\n")
        meta = json.loads(head)
        meta["meta"].pop("wall_clock_s", None)
        return (json.dumps(meta, sort_keys=True) + "\n" + rest).encode()
    return "".join(line for line in text.splitlines(True)
                   if not line.startswith("# wall_clock_s:")).encode()


def _csv_rows(path):
    with open(path, encoding="utf-8") as handle:
        lines = [l for l in handle if not l.startswith("#")]
    return list(csv.DictReader(lines))


def _seeded_rational(rnd, digits):
    den = rnd.randrange(10 ** (digits - 1), 10 ** digits)
    num = rnd.randrange(1, den)
    g = math.gcd(num, den)
    return Fraction(num // g, den // g)


CLI_SIZES = {
    "full": {"stage": ("1", "10"), "ubq": ("3", "4", "20"),
             "N": "100000", "samples": "200", "disj": ("100", "16"),
             "T": ("20", "25", "10", "0.001"), "horo": "13"},
    "tiny": {"stage": ("1", "6"), "ubq": ("2", "3", "3"),
             "N": "2000", "samples": "8", "disj": ("20", "8"),
             "T": ("10", "10", "4", "0.01"), "horo": "6"},
}


def _cli_mix(seed, scale, workdir, known_defects=False, trace=False, **_):
    s = CLI_SIZES[scale]
    rnd = random.Random(seed)
    x_cf = _seeded_rational(rnd, 13)
    x_exc = _seeded_rational(rnd, 9)
    x_log = _seeded_rational(rnd, 12)
    x_step = Fraction(rnd.randrange(10, 90), 100)
    x_cf2 = _seeded_rational(rnd, 15)
    quots = ",".join(str(a) for a in gauss_kuzmin_quotients(
        np.random.Generator(np.random.PCG64(seed)), 200))
    seed_s = str(seed)
    schmidt = ["schmidt", "--psi", "(1/4) * r^-1", "--N", s["N"],
               "--samples", s["samples"], "--seed", seed_s]
    # artifacts and the config file are named relative to the job's
    # working directory: the config echo in the payload includes them
    with open(os.path.join(workdir, "run.ini"), "w",
              encoding="utf-8") as handle:
        handle.write("[common]\nseed = %s\nformat = jsonl\n[schmidt]\n"
                     "psi = (1/4) * r^-1\nN = %s\nsamples = %s\n"
                     % (seed_s, s["N"], s["samples"]))
    specs = [
        # name, argv, expected exit status, inputs depend on the seed
        # (None: a known-defect job, which has no recorded output)
        ("classify-series", ["classify", "--series", "r^1 * (r^-2)"], 0, False),
        ("classify-gauge", ["classify", "--psi", "r^-3 * log(r)^(-33/20)",
                            "--gauge", "r^(2/3) * log(1/r)^(1/10)"], 0, False),
        ("critical-exponent", ["critical-exponent", "--psi", "r^-3",
                               "--weight", "1"], 0, False),
        ("critical-exponent-log", ["critical-exponent", "--omega", "2",
                                   "--ambient", "3"], 0, False),
        ("stage-scan", ["stage-scan", "--psi", "r^-3", "--k", "2",
                        "--n-lo", s["stage"][0], "--n-hi", s["stage"][1]],
         0, False),
        ("ubiquity", ["ubiquity", "--rho", "6 * r^-2", "--k", "6",
                      "--n-lo", s["ubq"][0], "--n-hi", s["ubq"][1],
                      "--balls", s["ubq"][2], "--seed", seed_s], 0, True),
        ("schmidt-pool", schmidt, 0, True),
        ("schmidt-serial", schmidt + ["--workers", "1"], 0, True),
        ("schmidt-config", ["schmidt", "--config", "run.ini", "--samples",
                            str(max(1, int(s["samples"]) // 4))], 0, True),
        ("cf", ["cf", "--x", str(x_cf), "--depth", "40"], 0, True),
        ("cf-jsonl", ["cf", "--x", str(x_cf2), "--depth", "60", "--format",
                      "jsonl"], 0, True),
        ("excursions", ["excursions", "--x", str(x_exc), "--T", s["T"][0]],
         0, True),
        ("excursions-sampled", ["excursions", "--x", str(x_step), "--T",
                                s["T"][2], "--step", s["T"][3]], 0, True),
        ("loglaw-jsonl", ["loglaw", "--x", str(x_log), "--T", s["T"][1],
                          "--format", "jsonl"], 0, True),
        ("loglaw-quotients", ["loglaw", "--quotients", quots, "--T", "40"],
         0, True),
        ("excursions-quotients", ["excursions", "--quotients", quots,
                                  "--T", "30"], 0, True),
        ("horoballs", ["horoballs", "--points", s["horo"]], 0, False),
        ("disjointness", ["disjointness", "--q-max", s["disj"][0],
                          "--identity-q-max", s["disj"][1]], 0, False),
        ("refuse-usage", ["schmidt", "--psi", "(1/4) * r^-1", "--N", "0"],
         1, False),
        ("refuse-cap", ["ubiquity", "--rho", "6 * r^-2", "--k", "6",
                        "--n-lo", "6", "--n-hi", "6"], 2, False),
    ]
    if known_defects:
        specs += [(n, a, e, None) for n, a, e in KNOWN_DEFECT_JOBS]
    env = subprocess_env()
    state = {"cf_x": x_cf, "schmidt_rows": {}}
    jobs = []
    for name, argv, want_exit, seeded in specs:
        fname = "%s.%s" % (name, "jsonl" if ("jsonl" in argv
                                              or "--config" in argv)
                           else "csv")
        out_path = os.path.join(workdir, fname)
        full_argv = argv + ["--output", fname]

        def run(name=name, full_argv=full_argv, out_path=out_path):
            if os.path.exists(out_path):
                os.unlink(out_path)
            if trace:
                spans = os.path.join(workdir, "%s.spans" % name)
                cmd = [sys.executable, os.path.join(HERE, "cli_job.py"),
                       spans, name] + full_argv
            else:
                cmd = [sys.executable, "-c", CLI_ENTRY] + full_argv
            env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
            proc = subprocess.run(cmd, env=env, cwd=workdir,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=120)
            payload = (payload_bytes(out_path) if os.path.exists(out_path)
                       else None)
            return {"exit": proc.returncode, "stderr": proc.stderr.decode(),
                    "stdout": proc.stdout.decode(), "payload": payload,
                    "path": out_path}

        def summary(raws):
            raw = raws[0]
            return {"exit": raw["exit"],
                    "payload": (hashlib.sha256(raw["payload"]).hexdigest()
                                if raw["payload"] is not None else None)}

        def check(raws, name=name, want_exit=want_exit):
            raw = raws[0]
            out = _fail(raw["exit"] == want_exit, "exit-status",
                        "exit %d, expected %d: %s"
                        % (raw["exit"], want_exit,
                           raw["stderr"].strip().splitlines()[-1:]))
            out += _fail("Traceback" not in raw["stderr"], "traceback",
                         name)
            if raw["exit"] == 0 and raw["payload"] is not None:
                out += _cli_oracles(name, raw, state)
            return out

        jobs.append(Job(name, [run], summary, check, seeded=bool(seeded),
                        has_reference=seeded is not None))
    return jobs


def _cli_oracles(name, raw, state):
    out = []
    path = raw["path"]
    if name == "cf":
        rows = _csv_rows(path)
        x = state["cf_x"]
        quots = [int(r["a"]) for r in rows]
        out += _fail(quots == euclid(x.numerator, x.denominator, len(quots)),
                     "euclid-prefix", str(x))
        ps = [0] + [int(r["p"]) for r in rows]
        qs = [1] + [int(r["q"]) for r in rows]
        out += _fail(all(ps[n] * qs[n - 1] - ps[n - 1] * qs[n] in (1, -1)
                         for n in range(1, len(ps))),
                     "convergent-determinant", str(x))
    elif name == "stage-scan":
        for r in _csv_rows(path):
            lo, hi, m = float(r["lower"]), float(r["upper"]), float(r["measure"])
            out += _fail(0.0 <= lo <= m <= hi <= 1.0, "bracket-order",
                         "n=%s" % r["n"])
    elif name == "ubiquity":
        for r in _csv_rows(path):
            out += _fail(Fraction(r["ratio_exact"]) >= Fraction(1, 2),
                         "ratio-below-half", "ball %s n=%s" % (r["ball"],
                                                               r["n"]))
    elif name.startswith("schmidt-") and name != "schmidt-config":
        body = [l for l in raw["payload"].decode().splitlines()
                if not l.startswith("#")]
        state["schmidt_rows"][name] = body
        other = state["schmidt_rows"].get("schmidt-pool" if name == "schmidt-serial"
                                  else "schmidt-serial")
        if other is not None:
            out += _fail(other == body, "workers-change-rows",
                         "--workers changed the payload rows")
    return out


BUILDERS = {
    "stage-sweep": _stage_sweep,
    "ubiquity-engine": _ubiquity_engine,
    "cf-geodesic": _cf_geodesic,
    "cli-mix": _cli_mix,
}


def build(workload, seed, scale, workdir, **options):
    """Generate the seeded inputs and return the workload's job list."""
    return BUILDERS[workload](seed, scale, workdir, **options)
