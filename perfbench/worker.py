"""One pass of one workload, in a fresh interpreter.

The pass imports the package, generates the seeded inputs, runs the job
list back to back (timed), reads its peak memory, and only then checks
the outputs, so checking never shows in the timings.  The result is one
JSON object on the last line of standard output.

    python3 perfbench/worker.py --workload stage-sweep --seed 1 \\
        --scale full --workdir DIR --spawn-t T [--trace] [--check]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 3   # fresh `import limsuplab.cli` interpreters per cli-mix pass
REFERENCE_RUNS = 3  # reference-loop timings before and after the job list
_REF_ARRAY = np.random.default_rng(0).random(200_000)
_REF_INTS = (random.Random(0).getrandbits(12_000),
             random.Random(1).getrandbits(12_000))


def reference_loop():
    """Seconds taken by a fixed mix of the kinds of work the package does:
    a Python float loop, a big-integer Euclid and a numpy stable sort.
    The host's speed drifts by tens of percent over minutes; timings
    divided by this loop's time, measured in the same pass, cancel most
    of that drift."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(1, 60_000):
        x += math.log(i) * 1e-6 + 1.0 / (i + x)
    a, b = _REF_INTS
    while b:
        a, b = b, a % b
    np.argsort(_REF_ARRAY, kind="stable")
    return time.perf_counter() - t0


def reference_start():
    """Seconds to start a fresh interpreter that imports numpy and exits:
    the reference for cli-mix, whose commands are mostly process start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=60)
    return time.perf_counter() - t0


def _cpu(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _import_probe(env):
    spawn = time.monotonic()
    out = subprocess.run([sys.executable, "-c", wl.IMPORT_PROBE], env=env,
                         stdout=subprocess.PIPE, check=True, timeout=60)
    return float(out.stdout.decode().split()[-1]) - spawn


def _reference(path, scale, workload):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle).get(scale, {}).get(workload, {})
    except (OSError, ValueError) as exc:
        return exc


def run_pass(args):
    os.makedirs(args.workdir, exist_ok=True)
    jobs = wl.build(args.workload, args.seed, args.scale, args.workdir,
                    known_defects=args.known_defects, trace=args.trace)
    cli = args.workload == "cli-mix"
    probes = []
    if cli:
        env = wl.subprocess_env()
        probes = [_import_probe(env) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(probes)
    else:
        setup_s = time.monotonic() - args.spawn_t

    tracer = None
    if args.trace and not cli:
        tracer = tracing.Tracer()
        tracer.install([layer for layer in tracing.LAYERS if layer != "cli"])
    reference_run = reference_start if cli else reference_loop
    ref_times = [reference_run() for _ in range(REFERENCE_RUNS)]
    raws, times, errors = [], [], {}
    cpu0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        results = []
        for request in job.requests:
            t0 = time.perf_counter()
            try:
                results.append(request())
            except Exception as exc:  # a failing request never stops a pass
                results.append(None)
                errors.setdefault(job.name,
                                  "%s: %s" % (type(exc).__name__, exc))
            times.append(time.perf_counter() - t0)
        raws.append(results)
    wall_s = time.perf_counter() - started
    cpu_s = _cpu(resource.RUSAGE_SELF) - cpu0
    children_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - child0
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    ref_times += [reference_run() for _ in range(REFERENCE_RUNS)]
    ref_s = statistics.median(ref_times)

    reference = _reference(args.reference, args.scale, args.workload)
    results = []
    for job, raw in zip(jobs, raws):
        failures = []
        summary = None
        if job.name in errors:
            failures.append(("exception", errors[job.name]))
        else:
            try:
                summary = job.summary(raw)
                if args.check:
                    failures += job.check(raw)
                    failures += _reference_failures(job, summary, reference,
                                                    args)
            except Exception as exc:  # a broken check is a failed check
                failures.append(("check-raised",
                                 "%s: %s" % (type(exc).__name__, exc)))
        results.append({"name": job.name, "summary": summary,
                        "failures": failures})

    out = {"setup_s": setup_s, "setup_probes": probes, "wall_s": wall_s,
           "request_s": times, "ref_s": ref_s,
           "peak_rss_mb": peak_rss_mb, "cpu_s": cpu_s,
           "children_cpu_s": children_cpu_s, "jobs": results, "trace": None}
    if args.workload == "stage-sweep":
        done = [r for job, r in zip(jobs, raws) if job.name not in errors]
        out["bracket_width_sum"] = wl.bracket_width_sum(done)
    if args.trace:
        out["trace"] = (_cli_trace(jobs, raws, args) if cli
                        else _trace_summary(tracer, args.spans))
    return out


def _reference_failures(job, summary, reference, args):
    if not job.has_reference or (args.seed != wl.DEFAULT_SEED
                                 and job.seeded):
        return []
    if isinstance(reference, Exception):
        return [("reference-unreadable", str(reference))]
    if job.name not in reference:
        return [("reference-missing", job.name)]
    # a round trip through JSON puts tuples and lists on the same footing
    return job.ref_check(reference[job.name], json.loads(json.dumps(summary)))


def _trace_summary(tracer, spans_path):
    if spans_path:
        tracer.dump(spans_path)
    return {"self": tracing.self_times(tracer.spans),
            "counts": dict(tracer.counts),
            "covered_s": tracing.covered_seconds(tracer.spans),
            "restored": tracer.restored()}


def _cli_trace(jobs, raws, args):
    spans, counts, startup, pool, restored = [], {}, 0.0, 0.0, True
    payload = 0
    for job, (raw,) in zip(jobs, raws):
        path = os.path.join(args.workdir, "%s.spans" % job.name)
        if raw is not None and raw["payload"] is not None:
            payload += os.path.getsize(raw["path"])
        if not os.path.exists(path):
            restored = False
            continue
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        spans += data["spans"]
        for key, amount in data["counts"].items():
            counts[key] = counts.get(key, 0) + amount
        startup += data["startup_s"]
        pool += data["pool_cpu_s"]
        restored = restored and data["restored"]
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    counts["cli.payload_bytes"] = payload
    return {"self": tracing.self_times(spans), "counts": counts,
            "covered_s": tracing.covered_seconds(spans),
            "startup_s": startup, "pool_cpu_s": pool, "restored": restored}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--known-defects", action="store_true")
    parser.add_argument("--reference",
                        default=os.path.join(HERE, "reference.json"))
    print(json.dumps(run_pass(parser.parse_args())))


if __name__ == "__main__":
    main()
