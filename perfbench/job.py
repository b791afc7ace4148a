"""Child process of the benchmark harness: make inputs, run one job, or
check one job's outputs.

    python3 perfbench/job.py '{"action": "job", "workload": ..., "workdir": ..., "traced": false}'

``cumac`` must be importable (``run.py`` puts the checkout's ``src`` on
PYTHONPATH). The first thing the interpreter does is import ``cumac`` and
``cumac.cli`` under a timer, because every CLI invocation pays for that.
A job then loads its inputs from the work directory, collects garbage,
and times the job. The result is written to ``job.json`` in the work
directory; the other actions print theirs as one JSON line.
"""

import sys
from time import perf_counter

_started = perf_counter()
import cumac  # noqa: E402,F401
import cumac.cli  # noqa: E402,F401

IMPORT_S = perf_counter() - _started

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_loop_s() -> float:
    """Time of a fixed pure-Python workload that does what cumac does most:
    build small dicts and lists, sort, encode JSON, split strings, and let
    the collector walk a heap of a few hundred thousand objects. It measures
    how fast this machine runs Python right now, for work that fits in the
    caches and for work that does not."""
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(3):
            rows = [{"seq": i, "args": [i, i * 2], "name": f"p{i}"} for i in range(10_000)]
            rows.sort(key=lambda row: row["seq"] % 977)
            json.dumps(rows).split(",")
        heap = [(i, [i], {"seq": i}) for i in range(150_000)]
        gc.collect()
        del heap
        return perf_counter() - started
    finally:
        gc.enable()


def run_job(spec: dict) -> dict:
    workload = spec["workload"]
    inputs = workloads.load_job_inputs(workload)
    body = workloads.JOBS[workload]
    tracer = Tracer(spec["job_id"]) if spec["traced"] else None
    gc.collect()

    if tracer is None:
        started = perf_counter()
        output = body(inputs)
        wall = perf_counter() - started
    else:
        tracer.install()
        try:
            started = perf_counter()
            output = tracer.run("job", body, inputs)
            wall = perf_counter() - started
        finally:
            tracer.uninstall()
    peak_kib = _maxrss_kib()

    result = {
        "import_s": IMPORT_S,
        "wall_s": wall,
        "peak_rss_kib": peak_kib,
        **workloads.write_job_outputs(workload, output),
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["store.triples"] = workloads.store_triples(Path("."))
        result["layers"] = layers
        result["gc_by_span"] = tracer.gc_split()
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["action"] == "import":
        print(json.dumps({"import_s": IMPORT_S, "reference_s": reference_loop_s()}))
        return 0
    workload = spec["workload"]
    os.chdir(spec["workdir"])
    if spec["action"] == "inputs":
        events = workloads.make_inputs(workload, spec["seed"], spec["events"], Path("."))
        print(json.dumps({"events_per_job": events}))
    elif spec["action"] == "check":
        print(json.dumps({"problems": workloads.check_outputs(workload, Path("."))}))
    else:
        result = run_job(spec)
        Path(workloads.JOB_RESULT).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
