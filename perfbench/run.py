"""End-to-end benchmark of cumac, one workload per invocation.

    python3 perfbench/run.py --workload enforce-report --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The harness makes the workload's inputs
from ``--seed``, then runs jobs one after another, each in a fresh
single-threaded interpreter that holds nothing but the job's inputs, until
``--seconds`` are used. After each job it checks the outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced jobs and reports the per-layer metrics.

Shared machines drift in speed by a quarter or more within minutes, so
every time is scaled to a nominal machine. Before the first job and after
each one, a fresh interpreter times its import of cumac and then a fixed
pure-Python reference loop (``job.reference_loop_s``). A job's wall time is
divided by the mean of the two reference times around it, over
``NOMINAL_REFERENCE_S``; an import time by its own. The run record keeps
the unscaled times too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the
run (seed, size, every job, output digests) goes to ``--out``. Without
``src/cumac`` in the checkout the harness exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import per_layer_names  # noqa: E402

END_TO_END = {
    "events_per_s": "events/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
SETUP_SAMPLES = 5  # fresh-interpreter imports per run, besides one per job
NOMINAL_REFERENCE_S = 0.30  # reference loop time on the nominal machine
RUN_LIMIT_S = 170  # a run must end well within 180 s


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--events", type=int, default=workloads.DEFAULT_EVENTS,
        help=f"events per job input (default {workloads.DEFAULT_EVENTS})",
    )
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for run records")
    return parser.parse_args(argv)


class Harness:
    def __init__(self, src: Path, out: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.out = out
        self.started = time.monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def fresh_import(self) -> dict:
        """Import time of a fresh interpreter and the reference loop after it."""
        return json.loads(self.child("import"))

    def child(self, action: str, workload: str = "", workdir: Path = HERE, **spec) -> str:
        """Run ``job.py`` for one action; returns its standard output."""
        spec.update(action=action, workload=workload, workdir=str(workdir))
        done = subprocess.run(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)], env=self.env,
            capture_output=True, text=True, timeout=max(1.0, self.remaining()),
        )
        if done.returncode != 0:
            raise RuntimeError(f"{action} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return done.stdout

    def job(self, workload: str, workdir: Path, job_id: int, traced: bool, spans_out: Path | None) -> dict:
        spans = str(spans_out) if spans_out else None
        self.child("job", workload, workdir, job_id=job_id, traced=traced, spans_out=spans)
        return json.loads((workdir / workloads.JOB_RESULT).read_text("utf-8"))

    def run(self, workload: str, seed: int, seconds: float, traced: bool, events: int) -> dict:
        work = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            return self._run(workload, seed, seconds, traced, events, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _run(self, workload, seed, seconds, traced, events, work) -> dict:
        setup_started = time.monotonic()
        made = self.child("inputs", workload, work, seed=seed, events=events)
        n_events = json.loads(made)["events_per_job"]
        self.fresh_import()  # warm the bytecode cache
        imports = [self.fresh_import() for _ in range(SETUP_SAMPLES)]
        setup_wall = time.monotonic() - setup_started

        jobs: list[dict] = []
        reference = None  # (digest, problems) of the first job
        measure_started = time.monotonic()
        before = self.fresh_import()
        spans_out = self.out / f"spans-{workload}-s{seed}-n{events}.tsv.gz" if traced else None
        while True:
            is_traced = traced and len(jobs) % 2 == 1
            job_started = time.monotonic()
            record = {"traced": is_traced, "events": n_events}
            try:
                result = self.job(workload, work, len(jobs), is_traced, spans_out)
                after = self.fresh_import()
                digest = workloads.output_digest(workload, work)
                if reference is None:
                    checked = self.child("check", workload, work)
                    reference = (digest, json.loads(checked)["problems"])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
                record.update(ok=False, problems=[str(exc)])
                jobs.append(record)
                break
            problems = list(reference[1])
            if digest != reference[0]:
                problems.append(f"output digest {digest} differs from the first job's")
            record.update(
                ok=not problems, problems=problems, digest=digest,
                import_s=result["import_s"], wall_s=result["wall_s"],
                around=[before, after],
                wall_events_per_s=n_events / result["wall_s"],
                events_per_s=n_events / result["wall_s"] * _speed(before, after),
                peak_rss_mib=result["peak_rss_kib"] / 1024,
                layers=result.get("layers"), gc_by_span=result.get("gc_by_span"),
            )
            jobs.append(record)
            before = after
            job_cost = time.monotonic() - job_started
            used = time.monotonic() - measure_started
            enough = len(jobs) >= (2 if traced else 1)
            if enough and (used + job_cost > seconds or self.remaining() < 2 * job_cost):
                break

        return {
            "workload": workload, "seed": seed, "events_per_job": n_events,
            "events": events, "trace": int(traced), "seconds": seconds,
            "setup_wall_s": setup_wall, "fresh_imports": imports,
            "digest": reference[0] if reference else None,
            "python": sys.version.split()[0], "cpus": os.cpu_count(),
            "jobs": jobs,
        }


def _speed(*samples: dict) -> float:
    """How many times slower than nominal the machine ran, from the
    reference loop times of fresh-interpreter samples."""
    return statistics.fmean(s["reference_s"] for s in samples) / NOMINAL_REFERENCE_S


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summarize(run: dict) -> tuple[dict, int, int]:
    """Metrics, attempted and failed for one run record. Times come from
    every job that ran to the end; a job whose outputs are wrong still
    counts in ``failed``."""
    jobs = run["jobs"]
    done = [j for j in jobs if "wall_s" in j]
    plain = [j for j in done if not j["traced"]]
    failed = sum(1 for j in jobs if not j["ok"])
    if not run["trace"]:
        metrics = {
            "events_per_s": _median([j["events_per_s"] for j in plain]),
            "peak_rss_mib": _median([j["peak_rss_mib"] for j in plain]),
            "setup_s": _median([
                i["import_s"] / _speed(i)
                for i in run["fresh_imports"] + [j["around"][1] for j in plain]
            ]),
        }
        units = END_TO_END
    else:
        traced = [j for j in done if j["traced"]]
        metrics = {
            name: _median([j["layers"][name] for j in traced])
            for name in per_layer_names() if name != "tracing_overhead_ratio"
        }
        metrics["tracing_overhead_ratio"] = _median(
            [j["events_per_s"] for j in traced]
        ) / _median([j["events_per_s"] for j in plain])
        units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, len(jobs), failed


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in per_layer_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_us"):
            units[name] = "us"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_mib"):
            units[name] = "MiB"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def _print_run(run: dict, metrics: dict, attempted: int, failed: int, prefix: str = "") -> None:
    print(
        f"{prefix}workload={run['workload']} seed={run['seed']} events={run['events']}"
        f" trace={run['trace']} jobs={attempted} digest={run['digest']}"
    )
    for job in run["jobs"]:
        if job["problems"]:
            print(f"{prefix}job failed: {'; '.join(job['problems'])}")
    for name, metric in metrics.items():
        print(f"{prefix}{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{prefix}failed_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} jobs)")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "cumac" / "__init__.py").is_file():
        print(f"perfbench: no cumac sources under {src}", file=sys.stderr)
        return 2
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    harness = Harness(src, out)

    total_attempted = total_failed = 0
    combined: dict = {}
    for name in names:
        if len(names) > 1:
            harness.started = time.monotonic()
        run = harness.run(name, args.seed, args.seconds, bool(args.trace), args.events)
        metrics, attempted, failed = summarize(run)
        run.update(metrics=metrics, attempted=attempted, failed=failed)
        stamp = f"{name}-s{args.seed}-n{args.events}-t{args.trace}-{os.getpid()}"
        (out / f"{stamp}.json").write_text(json.dumps(run, indent=1) + "\n", "utf-8")
        _print_run(run, metrics, attempted, failed, prefix=f"{name}: " if len(names) > 1 else "")
        if any(math.isnan(m["value"]) for m in metrics.values()):
            print(f"perfbench: too few jobs of {name} ran to the end", file=sys.stderr)
            return 1
        total_attempted += attempted
        total_failed += failed
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})

    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
