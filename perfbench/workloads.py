"""Workload inputs, job bodies, output digests and output checks.

Inputs are made from the benchmark seed alone and written into the run's
work directory before any job starts; the program only ever sees those
files. Inputs, jobs and checks each run in a child process (``job.py``).
The harness (``run.py``) only hashes outputs, in chunks: a process's peak
RSS starts from its parent's, so the harness must stay small.

cumac is imported inside functions so that the job process can time its
own first import of the package.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

WORKLOADS = ("enforce-report", "learn-enforce", "audit-short")

# Events per job input when --events is not given. For audit-short this is
# the total over its traces, each AUDIT_TRACE_EVENTS long.
DEFAULT_EVENTS = 100_000
AUDIT_TRACE_EVENTS = 1000  # the default `cumac oracle-check` trace length

TRACE_FILE = "input.trace"
REPORT_FILE = "report.json"
STORE_FILE = "store.cumac"
AUDIT_DIR = "audit"
AUDIT_FACTS = "audit-facts.json"
AUDIT_DOT = "audit.dot"
JOB_RESULT = "job.json"


def _module(name: str):
    # `cumac.replay` as an attribute is the replay() function, so go
    # through the module table.
    return importlib.import_module(f"cumac.{name}")


def _generator_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def audit_trace_count(events: int) -> int:
    return max(1, events // AUDIT_TRACE_EVENTS)


def make_inputs(workload: str, seed: int, events: int, workdir: Path) -> int:
    """Generate the run's traces, write them into ``workdir`` and return
    the number of events one job carries (see ``job_events``)."""
    random_trace = _module("randomtrace").random_trace
    render_trace = _module("trace").render_trace
    if workload == "audit-short":
        count = audit_trace_count(events)
        traces = [
            random_trace(seed=s, events=AUDIT_TRACE_EVENTS)
            for s in _generator_seeds(workload, seed, count)
        ]
        folder = workdir / AUDIT_DIR
        folder.mkdir()
        for index, trace in enumerate(traces):
            (folder / f"{index:05d}.trace").write_text(render_trace(trace), "utf-8")
    else:
        (trace_seed,) = _generator_seeds(workload, seed, 1)
        traces = [random_trace(seed=trace_seed, events=events)]
        (workdir / TRACE_FILE).write_text(render_trace(traces[0]), "utf-8")
    return job_events(workload, traces)


def job_events(workload: str, traces: list) -> int:
    """Trace events one job carries from input to finished output; each
    command invocation counts its trace's events once."""
    total = sum(len(t.events) for t in traces)
    return 2 * total if workload == "learn-enforce" else total


# -- job bodies (job process) ----------------------------------------------------


def load_job_inputs(workload: str) -> list:
    """What the job process holds before its job starts, read from the
    current directory. The CLI workloads hold only file names."""
    if workload != "audit-short":
        return []
    parse_trace = _module("trace").parse_trace
    return [parse_trace(p.read_bytes()) for p in sorted(Path(AUDIT_DIR).iterdir())]


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = _module("cli").main(argv)
    return code, out.getvalue()


def run_enforce_report(_inputs: list) -> dict:
    code, out = _cli([
        "enforce", "--trace", TRACE_FILE, "--empty-store",
        "--format", "structured", "--report", REPORT_FILE,
    ])
    return {"exit_codes": [code], "stdout": [out]}


def run_learn_enforce(_inputs: list) -> dict:
    learn = _cli(["learn", "--trace", TRACE_FILE, "--store-out", STORE_FILE])
    enforce = _cli(["enforce", "--trace", TRACE_FILE, "--store", STORE_FILE])
    return {"exit_codes": [learn[0], enforce[0]], "stdout": [learn[1], enforce[1]]}


def run_audit_short(traces: list) -> dict:
    from cumac.engine import EngineConfig
    from cumac.model import Verdict
    from cumac.store import EnvironmentBit, ExceptionStore

    replay_module, oracle, lwm = _module("replay"), _module("oracle"), _module("lwm")
    deny = Verdict.DENY
    facts = []
    dots = []
    for trace in traces:
        config = EngineConfig.from_trace(trace)
        report = replay_module.replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        verdicts = [decision.verdict for _, decision in report.log]
        oracle_taint = oracle.taint_oracle(trace, verdicts, config)
        comparison = lwm.compare(trace, ExceptionStore(), config)
        dots.append(oracle.export_taint_graph(report, trace))
        facts.append((
            report.final_taint,
            oracle_taint,
            [ev.seq for ev, decision in report.log if decision.verdict is deny],
            comparison.both + comparison.cumac_only,
        ))
    return {"facts": facts, "dots": dots}


JOBS = {
    "enforce-report": run_enforce_report,
    "learn-enforce": run_learn_enforce,
    "audit-short": run_audit_short,
}


def write_job_outputs(workload: str, output: dict) -> dict:
    """Persist what the harness checks and return the JSON-safe rest."""
    if workload != "audit-short":
        return output
    from cumac.model import entity_sort_key

    facts = [
        [taint, sorted(oracle, key=entity_sort_key), replay_denials, sorted(compare_denials)]
        for taint, oracle, replay_denials, compare_denials in output["facts"]
    ]
    Path(AUDIT_FACTS).write_text(json.dumps(facts), "utf-8")
    Path(AUDIT_DOT).write_text("".join(output["dots"]), "utf-8")
    return {}


# -- digests (harness process) and checks (check process) ----------------------------

_CHUNK = 1 << 20


def output_digest(workload: str, workdir: Path) -> str:
    """SHA-256 of the job's byte-stable output: the structured report up to
    its `timing` section (the last key), the saved store, or the DOT texts."""
    path = workdir / {
        "enforce-report": REPORT_FILE, "learn-enforce": STORE_FILE, "audit-short": AUDIT_DOT,
    }[workload]
    size = path.stat().st_size
    digest = hashlib.sha256()
    with path.open("rb") as stream:
        if workload == "enforce-report":
            tail_at = max(0, size - 4096)
            stream.seek(tail_at)
            cut = stream.read().rfind(b'\n  "timing": {')
            size = tail_at + cut if cut >= 0 else size
            stream.seek(0)
        while size > 0:
            chunk = stream.read(min(_CHUNK, size))
            if not chunk:
                break
            digest.update(chunk)
            size -= len(chunk)
    return digest.hexdigest()


def check_outputs(workload: str, workdir: Path) -> list[str]:
    """Every way the job's outputs in ``workdir`` are wrong; empty when
    they are right."""
    job = json.loads((workdir / JOB_RESULT).read_text("utf-8"))
    return _CHECKS[workload](workdir, job)


def _check_enforce_report(workdir: Path, job: dict) -> list[str]:
    from cumac.engine import EngineConfig
    from cumac.model import Verdict, entity_sort_key

    trace = _module("trace").parse_trace((workdir / TRACE_FILE).read_bytes())
    n = len(trace.events)
    problems = []
    try:
        doc = json.loads((workdir / REPORT_FILE).read_bytes())
    except ValueError as exc:
        return [f"report does not re-parse: {exc}"]
    rows = doc["decisions"]
    if [row["seq"] for row in rows] != list(range(1, n + 1)):
        problems.append(f"want one decision row per event ({n}), got {len(rows)}")
    summary = doc["summary"]
    denied = summary["deny_total"]
    if summary["events"] != n:
        problems.append(f"summary says {summary['events']} events, trace has {n}")
    if summary["allows"] + summary["exception_allows"] + denied != n:
        problems.append("summary counts do not add up to the event count")
    if sum(summary["denies"].values()) != denied:
        problems.append("per-reason denials do not add up to deny_total")
    if job["exit_codes"] != [1 if denied else 0]:
        problems.append(f"exit code {job['exit_codes']} with {denied} denials")
    verdicts = [Verdict(row["verdict"]) for row in rows]
    if len(verdicts) == n:
        oracle = _module("oracle").taint_oracle(trace, verdicts, EngineConfig.from_trace(trace))
        if sorted(oracle, key=entity_sort_key) != doc["taint"]:
            problems.append("oracle taint differs from the engine's final taint")
    return problems


def _check_learn_enforce(workdir: Path, job: dict) -> list[str]:
    ExceptionStore = _module("store").ExceptionStore
    problems = []
    if job["exit_codes"] != [0, 0]:
        problems.append(f"exit codes {job['exit_codes']}, want [0, 0]")
    if "\n0 denied\n" not in job["stdout"][1]:
        problems.append("enforcing with the learned store still denies")
    data = (workdir / STORE_FILE).read_bytes()
    if ExceptionStore.load(data).save().encode("utf-8") != data:
        problems.append("saved store does not survive load and save byte for byte")
    return problems


def _check_audit_short(workdir: Path, job: dict) -> list[str]:
    facts = json.loads((workdir / AUDIT_FACTS).read_text("utf-8"))
    traces = len(list((workdir / AUDIT_DIR).iterdir()))
    problems = []
    if len(facts) != traces:
        problems.append(f"{len(facts)} results for {traces} traces")
    for index, (taint, oracle, replay_denials, compare_denials) in enumerate(facts):
        if taint != oracle:
            problems.append(f"trace {index}: oracle taint differs from the engine's")
        if replay_denials != compare_denials:
            problems.append(f"trace {index}: compare's cumac denials differ from replay's")
    return problems


_CHECKS = {
    "enforce-report": _check_enforce_report,
    "learn-enforce": _check_learn_enforce,
    "audit-short": _check_audit_short,
}


def store_triples(workdir: Path) -> int:
    path = workdir / STORE_FILE
    if not path.exists():
        return 0
    return _module("store").ExceptionStore.load(path.read_bytes()).triple_count()
