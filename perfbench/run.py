"""limsuplab benchmark: runs one workload and checks every output.

    python3 perfbench/run.py --workload stage-sweep --seed 1 \\
        --seconds 20 --trace 0

A run is a fixed number of passes, each a fresh interpreter with cold
caches that sets up (imports, seeded inputs) and then runs the
workload's job list back to back.  The pass count comes from --seconds
and the workload's nominal pass length, so every run of a workload
holds the same number of job samples.  End-to-end metrics are medians
over passes; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

`--workload all` runs the four workloads in turn.  `--record-reference`
records the default-seed outputs that later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "limsuplab", "__init__.py")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 160   # no new pass starts once a run could overrun this

# Times are reported in multiples of the reference loop (worker.py) timed
# in the same pass ("x_ref"), which cancels most of the host's drift;
# the report lines also give them in seconds.
END_TO_END = (("wall_norm", "x_ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("job_p50_norm", "x_ref"), ("job_tail_norm", "x_ref"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in tracing.SPAN_NAMES:
        out += [(span + ".calls", "count"), (span + ".self_pct", "%")]
    out += [(name, "count") for name in tracing.COUNTER_NAMES]
    out += [("cli.payload_bytes", "bytes"), ("cli.startup_pct", "%"),
            ("cli.pool_cpu_pct", "%"), ("process.cpu_pct", "%"),
            ("process.children_cpu_pct", "%"),
            ("systems.bracket_width_sum", "1"),
            ("trace.overhead_pct", "%"), ("trace.span_cover_pct", "%")]
    return out


def tail(values):
    """(value, percentile): the highest sample with at least ten samples
    beyond it."""
    ordered = sorted(values)
    i = len(ordered) - 11
    if i < 0:
        return ordered[-1], 100.0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def fingerprint():
    def read(path):
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        except OSError:
            return None
    mem = read("/proc/meminfo") or ""
    ram = next((int(line.split()[1]) for line in mem.splitlines()
                if line.startswith("MemTotal:")), 0)
    l3 = read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "unknown"
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    commit = "unknown (not a git checkout)"
    if head and head.startswith("ref: "):
        commit = read(os.path.join(ROOT, ".git", head[5:])) or head[5:]
    elif head:
        commit = head
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = "missing"
    return ("nproc=%d ram_gb=%.1f l3=%s python=%s numpy=%s commit=%s"
            % (os.cpu_count() or 0, ram / 2 ** 20, l3,
               platform.python_version(), np_version, commit))


def run_pass(workload, seed, scale, workdir, trace=False, check=False,
             known_defects=False, spans=None, reference=REFERENCE):
    """One pass in a fresh interpreter; returns its result dict, or
    None when the pass itself died."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--workdir", workdir, "--reference", reference]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    if check:
        cmd.append("--check")
    if known_defects:
        cmd.append("--known-defects")
    spawn_t = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawn-t", repr(spawn_t)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("pass timed out after %d s" % PASS_TIMEOUT_S, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("pass exited %d:\n%s" % (proc.returncode,
                                       err.decode()[-2000:]), file=sys.stderr)
        return None
    try:
        return json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("pass printed no result:\n%s" % err.decode()[-2000:],
              file=sys.stderr)
        return None


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(workload, seed, seconds, trace, scale="full",
                 known_defects=False, reference=REFERENCE):
    """Run the passes of one workload; returns (report lines, result)."""
    import workloads as wl
    nominal = wl.PASS_SECONDS[workload][scale]
    passes = max(1, round(seconds / nominal))
    # a traced run alternates untraced and traced passes
    plan = ([False, True] * max(1, round(passes / 2)) if trace
            else [False] * passes)
    workdir = os.path.join(OUT, "run-%s-%d" % (workload, os.getpid()))
    spans = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, seed))
    os.makedirs(workdir, exist_ok=True)
    started = time.monotonic()
    results, failed, attempted, first, first_counts = [], 0, 0, None, None
    failures = []
    try:
        for i, traced in enumerate(plan):
            elapsed = time.monotonic() - started
            if i and elapsed / i * (i + 1) > RUN_BUDGET_S:
                break
            res = run_pass(workload, seed, scale, workdir, trace=traced,
                           check=first is None, known_defects=known_defects,
                           spans=spans if traced else None,
                           reference=reference)
            if res is None:
                lost = len(first["summary"]) if first else 1
                attempted += lost
                failed += lost
                failures.append(("pass %d" % i, "pass died"))
                continue
            for job in res["jobs"]:
                attempted += 1
                bad = list(job["failures"])
                if first is not None:
                    want = first["summary"].get(job["name"])
                    if job["summary"] != want:
                        bad.append(("nondeterministic",
                                    "output differs from the first pass"))
                    if first["failed"].get(job["name"]):
                        bad.append(("failed-in-first-pass", ""))
                if bad:
                    failed += 1
                    failures.append((job["name"], bad))
            if first is None:
                first = {"summary": {j["name"]: j["summary"]
                                     for j in res["jobs"]},
                         "failed": {j["name"]: bool(j["failures"])
                                    for j in res["jobs"]}}
            if traced:
                counts = {k: v for k, v in res["trace"]["counts"].items()
                          if k != "cli.payload_bytes"}
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    attempted += 1
                    failed += 1
                    failures.append(("tracing", "work counts differ "
                                     "between traced passes"))
            if traced and not res["trace"]["restored"]:
                attempted += 1
                failed += 1
                failures.append(("tracing", "wrappers left installed"))
            res["traced"] = traced
            results.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not results:
        return None
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    job_times = [t for r in plain for t in r["request_s"]]
    job_norms = [t / r["ref_s"] for r in plain for t in r["request_s"]]
    tail_norm, tail_pct = tail(job_norms)
    setups = [s for r in plain for s in (r["setup_probes"] or [r["setup_s"]])]
    metrics = {
        "wall_norm": _median([r["wall_s"] / r["ref_s"] for r in plain]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "job_p50_norm": _median(job_norms),
        "job_tail_norm": tail_norm,
    }
    ref_s = _median([r["ref_s"] for r in plain])
    lines = ["workload %s seed %d scale %s: %d pass(es), %d jobs attempted, "
             "%d failed (fail_ratio %.4g)"
             % (workload, seed, scale, len(results), attempted, failed,
                failed / max(attempted, 1))]
    n = len(job_norms)
    notes = {
        "wall_norm": "median of %d passes; wall_s %.4g s"
                     % (len(plain), _median([r["wall_s"] for r in plain])),
        "setup_s": "median of %d set-ups" % len(setups),
        "peak_rss_mb": "median of %d passes" % len(plain),
        "job_p50_norm": "%d samples; job_p50_s %.4g s"
                        % (n, _median(job_times)),
        "job_tail_norm": "p%.1f of %d samples; job_tail_s %.4g s"
                         % (tail_pct, n, tail(job_times)[0]),
    }
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        lines.append("  %-13s = %.6g %s (%s)" % (name, metrics[name],
                                                  units[name], notes[name]))
    lines.append("  reference     = %.4g s (median over passes)" % ref_s)
    if "bracket_width_sum" in results[0]:
        lines.append("  bracket_width_sum = %.6g (must never grow)"
                     % results[0]["bracket_width_sum"])
    for name, bad in failures:
        lines.append("  FAILED %s: %s" % (name, bad))
    lines.append("  fingerprint: " + fingerprint())
    if trace:
        out_metrics = per_layer(plain, traced, results[0])
        unit_of = dict(per_layer_names())
        for name, value in out_metrics.items():
            lines.append("  %-44s = %.6g %s" % (name, value, unit_of[name]))
        out_metrics = {k: {"value": v, "unit": unit_of[k]}
                       for k, v in out_metrics.items()}
    else:
        out_metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}
    return lines, {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": out_metrics}


def per_layer(plain, traced, first):
    """Per-layer metrics from the traced passes: self times and CPU as a
    share of the traced pass wall time, work counts as counted."""
    out = {name: 0.0 for name, _ in per_layer_names()}

    def med(f):
        return _median([f(r) for r in traced])

    for span in tracing.SPAN_NAMES:
        out[span + ".calls"] = med(
            lambda r: r["trace"]["self"].get(span, (0, 0.0))[0])
        out[span + ".self_pct"] = med(
            lambda r: 100.0 * r["trace"]["self"].get(span, (0, 0.0))[1]
            / r["wall_s"])
    for name in tracing.COUNTER_NAMES + ("cli.payload_bytes",):
        out[name] = med(lambda r: r["trace"]["counts"].get(name, 0))
    out["cli.startup_pct"] = med(
        lambda r: 100.0 * r["trace"].get("startup_s", 0.0) / r["wall_s"])
    out["cli.pool_cpu_pct"] = med(
        lambda r: 100.0 * r["trace"].get("pool_cpu_s", 0.0) / r["wall_s"])
    out["process.cpu_pct"] = med(lambda r: 100.0 * r["cpu_s"] / r["wall_s"])
    out["process.children_cpu_pct"] = med(
        lambda r: 100.0 * r["children_cpu_s"] / r["wall_s"])
    out["systems.bracket_width_sum"] = first.get("bracket_width_sum", 0.0)
    plain_wall = _median([r["wall_s"] / r["ref_s"] for r in plain])
    out["trace.overhead_pct"] = 100.0 * (med(lambda r: r["wall_s"] / r["ref_s"])
                                         - plain_wall) / plain_wall
    out["trace.span_cover_pct"] = med(
        lambda r: 100.0 * r["trace"]["covered_s"] / r["wall_s"])
    return out


def record_reference(path):
    """Record the default-seed outputs of every workload at both scales."""
    import workloads as wl
    ref = {}
    for scale in ("full", "tiny"):
        ref[scale] = {}
        for workload in wl.WORKLOADS:
            workdir = os.path.join(OUT, "record-%s" % workload)
            os.makedirs(workdir, exist_ok=True)
            try:
                res = run_pass(workload, wl.DEFAULT_SEED, scale, workdir,
                               check=True, reference=os.devnull)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if res is None:
                raise SystemExit("recording %s/%s failed" % (scale, workload))
            bad = {j["name"]: j["failures"] for j in res["jobs"]
                   if [f for f in j["failures"]
                       if f[0] not in ("reference-missing",
                                       "reference-unreadable")]}
            if bad:
                raise SystemExit("%s/%s fails its checks: %s"
                                 % (scale, workload, bad))
            ref[scale][workload] = {j["name"]: j["summary"]
                                    for j in res["jobs"]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--known-defects", action="store_true",
                        help="add the cli-mix jobs that reproduce open "
                        "defects; each counts as a failed job until fixed")
    parser.add_argument("--reference", default=REFERENCE)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(PACKAGE):
        print("error: no limsuplab sources at %s" % os.path.dirname(PACKAGE),
              file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    import workloads as wl
    if args.record_reference:
        record_reference(args.reference)
        return 0
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in wl.WORKLOADS for n in names):
        parser.error("unknown workload %r" % args.workload)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        got = run_workload(name, args.seed, args.seconds, args.trace,
                           args.scale, args.known_defects, args.reference)
        if got is None:
            print("error: every pass of %s died" % name, file=sys.stderr)
            return 1
        lines, result = got
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
