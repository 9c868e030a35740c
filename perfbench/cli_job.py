"""Run one limsuplab command with tracing, in its own interpreter.

    python3 perfbench/cli_job.py SPANS_JSON JOB_NAME <limsuplab arguments>

Does what the `limsuplab` console script does, with the layer wrappers
of tracing.py installed around `cli.main`.  Writes the spans, work
counts, start-up time (interpreter start to `limsuplab.cli` imported,
from the PERFBENCH_SPAWN_T monotonic timestamp the caller sets) and the
CPU time of any worker pool to SPANS_JSON, then exits with the
command's own status.
"""

import json
import os
import resource
import sys
import time

import tracing
from limsuplab import cli


def main():
    startup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN_T"])
    spans_path, job = sys.argv[1], sys.argv[2]
    tracer = tracing.Tracer(job=job)
    tracer.install()
    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts),
                       "startup_s": startup_s,
                       "pool_cpu_s": ru.ru_utime + ru.ru_stime,
                       "restored": tracer.restored()}, handle)


if __name__ == "__main__":
    sys.exit(main())
