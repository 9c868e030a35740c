"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

Each workload completes and passes its checks, a corrupted reference is
counted as failed jobs instead of crashing the run, the known-defect
jobs are the only cli-mix failures when enabled, the tracing wrappers
are gone after a traced run, and a directory without the package makes
the benchmark exit non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 else None)


def _two_passes(workload):
    return str(2 * wl.PASS_SECONDS[workload]["tiny"])


@pytest.mark.parametrize("workload",
                         ["stage-sweep", "ubiquity-engine", "cf-geodesic"])
def test_workload_completes_and_checks_pass(workload):
    proc, res = _bench("--workload", workload, "--scale", "tiny",
                       "--seconds", _two_passes(workload), "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert res["correct"] and res["failed"] == 0, proc.stdout
    assert res["attempted"] >= 2
    names = {m["name"] for m in BENCH["end_to_end"]}
    assert set(res["metrics"]) == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_cli_mix_fails_only_on_known_defects():
    proc, res = _bench("--workload", "cli-mix", "--scale", "tiny",
                       "--seconds", "1", "--seed", "3", "--known-defects")
    assert proc.returncode == 0, proc.stderr
    known = {name for name, _, _ in wl.KNOWN_DEFECT_JOBS}
    failed = {line.split()[1].rstrip(":") for line in proc.stdout.splitlines()
              if line.strip().startswith("FAILED")}
    assert failed <= known, proc.stdout
    assert res["failed"] == len(failed)
    assert res["attempted"] == 20 + len(known)


def test_corrupted_reference_counts_as_failed(tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as handle:
        ref = json.load(handle)
    rows = ref["tiny"]["stage-sweep"]["q3-k2-full"]
    rows[0][1] += 1                      # a wrong ball count
    ref["tiny"]["cf-geodesic"]["golden"][0] += 1e-6
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    for workload in ("stage-sweep", "cf-geodesic"):
        proc, res = _bench("--workload", workload, "--scale", "tiny",
                           "--seconds", "0.1", "--reference", str(bad))
        assert proc.returncode == 0, proc.stderr
        assert not res["correct"]
        assert res["failed"] == 1, proc.stdout
        assert "reference" in proc.stdout


def test_traced_run_reports_layers_and_restores():
    proc, res = _bench("--workload", "stage-sweep", "--scale", "tiny",
                       "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert res["correct"], proc.stdout
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(res["metrics"]) == names
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["systems.stage_measure_scan.calls"] > 0
    assert m["farey.union_length.intervals"] > 0
    assert m["farey.reduced_fractions.calls"] == 0
    assert 0 < m["trace.span_cover_pct"] <= 100.5


def test_wrappers_are_gone_after_uninstall(tmp_path):
    from limsuplab import farey, systems, ubiquity
    before = (farey.union_length, systems.stage_measure_scan,
              ubiquity.UniformStageEngine.__dict__["__init__"])
    tracer = tracing.Tracer(job="t")
    tracer.install(("farey", "systems", "ubiquity"))
    assert farey.union_length is not before[0]
    for job in wl.build("stage-sweep", 0, "tiny", str(tmp_path))[:1]:
        for request in job.requests:
            request()
    ubiquity.UniformStageEngine(5, 1)
    tracer.uninstall()
    assert tracer.restored()
    assert (farey.union_length, systems.stage_measure_scan,
            ubiquity.UniformStageEngine.__dict__["__init__"]) == before
    times = tracing.self_times(tracer.spans)
    assert times["systems.stage_measure_scan"][0] == 2
    assert tracer.counts["ubiquity.engine_blocks"] > 0


def test_self_time_subtracts_children():
    spans = [{"id": 0, "parent": None, "name": "a", "start": 0.0,
              "end": 10.0, "job": "j"},
             {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 4.0,
              "job": "j"},
             {"id": 2, "parent": 0, "name": "b", "start": 5.0, "end": 6.0,
              "job": "j"}]
    times = tracing.self_times(spans)
    assert times["a"] == (1, 6.0)
    assert times["b"] == (2, 4.0)
    assert tracing.covered_seconds(spans) == 10.0


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 41))
    value, pct = run.tail(values)
    assert value == 30 and sum(v > value for v in values) == 10
    assert pct == 75.0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "stage-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
