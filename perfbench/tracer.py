"""Span tracing around the public entry points of each cumac layer.

The tracer patches functions and methods from outside the package: nothing
under ``src/cumac`` knows it exists. ``install`` replaces every binding of
a wrapped function in the ``cumac`` modules (including names that
``cumac.cli`` imported directly, such as ``cumac.cli.parse_trace``) and
``uninstall`` puts the originals back, so an untraced job in the same
process runs the unmodified code.

Spans are kept in memory as parallel arrays of (name, start, end, parent,
job id), which the cyclic garbage collector never scans, and written out
when the job ends. Each layer's self time is its spans' duration minus the
part covered by child spans. Counters are taken at the same boundaries.
Garbage collections are timed with ``gc.callbacks`` and charged to the
innermost open span; ``ru_maxrss`` is read around each top-level stage.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import json
import resource
import sys
from array import array
from time import perf_counter_ns

VERBS = (
    "FORK", "EXEC", "NET", "LOGIN", "MOUNT", "UNMOUNT",
    "COPY", "CREATE", "WRITE", "READ", "IPC", "PRIV",
)

# GC statistics are split by these innermost open spans in the reported
# metrics; the spans file and the job record hold the split for every span.
GC_SPLIT_SPANS = (
    "job", "cli.main", "trace.parse", "replay", "engine.step",
    "replay.structured", "cli.json", "lwm.compare", "oracle.taint",
)
GC_STATS = ("gen0", "gen1", "gen2", "pause_s", "max_pause_ms")

# Spans whose direct children count as top-level stages for memory growth.
STAGE_PARENTS = ("job", "cli.main")
STAGES = (
    "cli.main", "trace.parse", "store.load", "replay", "store.save",
    "replay.structured", "replay.text", "cli.json",
    "oracle.taint", "lwm.compare", "oracle.graph",
)

COUNTERS = (
    "trace.input_bytes", "cli.reports_written", "cli.report_bytes",
    "replay.structured_built", "engine.deny", "engine.allow_by_exception",
    "engine.taint_transitions", "model.decisions_built", "model.perms_parse_calls",
    "store.record_calls", "store.record_new", "store.check_calls", "store.check_hits",
    "store.file_entries_calls", "lwm.deny", "oracle.dot_bytes",
)

_MIB = 1024 * 1024


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cumac.cli`` so that its
    ``json.dumps`` calls can be timed without touching the real module."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self, job_id: int = 0) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_job = array("H")
        self.step_span = array("l")  # engine.step span index, one per event
        self.step_verb = array("B")  # index into VERBS, parallel to step_span
        self.stack: list[int] = []
        self.job_id = job_id
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.gc_by_span: dict[str, list[int]] = {}
        self.rss_growth_kib: dict[str, int] = {}
        self._gc_start = 0
        self._patches: list[tuple[object, str, object]] = []
        self._stage_parent_ids = {self._id(n) for n in STAGE_PARENTS}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ---------------------------------------------------------------

    def open(self, nid: int) -> int:
        index = len(self.span_start)
        stack = self.stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_job.append(self.job_id)
        self.span_end.append(0)
        stack.append(index)
        self.span_start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = perf_counter_ns()
        self.stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used for the job's root span."""
        index = self.open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _span(self, name: str, fn, after=None):
        nid = self._id(name)
        stage = name in STAGES
        stage_parents = self._stage_parent_ids
        span_name = self.span_name
        growth = self.rss_growth_kib

        def wrapper(*args, **kwargs):
            stack = self.stack
            rss = None
            if stage and stack and span_name[stack[-1]] in stage_parents:
                rss = _maxrss_kib()
            index = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
                if rss is not None:
                    growth[name] = growth.get(name, 0) + _maxrss_kib() - rss
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- garbage collector -----------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
            return
        pause = perf_counter_ns() - self._gc_start
        stack = self.stack
        name = self.names[self.span_name[stack[-1]]] if stack else "outside"
        rec = self.gc_by_span.get(name)
        if rec is None:
            rec = self.gc_by_span[name] = [0, 0, 0, 0, 0]
        rec[info["generation"]] += 1
        rec[3] += pause
        if pause > rec[4]:
            rec[4] = pause

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "cumac" or mod_name.startswith("cumac."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def install(self) -> None:
        mods = {
            name: importlib.import_module(f"cumac.{name}")
            for name in ("cli", "trace", "replay", "engine", "model", "store", "lwm", "oracle")
        }
        counts = self.counts
        Engine = mods["engine"].Engine
        LwmEngine = mods["lwm"].LwmEngine
        ReplayReport = mods["replay"].ReplayReport
        ExceptionStore = mods["store"].ExceptionStore
        Decision = mods["model"].Decision
        PermissionBits = mods["model"].PermissionBits
        verdicts = mods["model"].Verdict
        deny, by_exception = verdicts.DENY, verdicts.ALLOW_BY_EXCEPTION
        verb_index = {cls: VERBS.index(v) for cls, v in mods["trace"].EVENT_VERBS.items()}

        def count(key, n=1):
            counts[key] += n

        # Module-level entry points, rebound wherever cumac imported them.
        def parsed(args, _):
            count("trace.input_bytes", len(args[0]))

        def graphed(_, dot):
            count("oracle.dot_bytes", len(dot))

        for module, fn_name, span, after in (
            (mods["cli"], "main", "cli.main", None),
            (mods["trace"], "parse_trace", "trace.parse", parsed),
            (mods["replay"], "replay", "replay", None),
            (mods["lwm"], "compare", "lwm.compare", None),
            (mods["oracle"], "taint_oracle", "oracle.taint", None),
            (mods["oracle"], "export_taint_graph", "oracle.graph", graphed),
        ):
            original = getattr(module, fn_name)
            self._rebind(original, self._span(span, original, after))

        cli = mods["cli"]
        self._set(cli, "json", _JsonProxy(self._span("cli.json", json.dumps)))
        write_file = cli._write_file

        def traced_write_file(label, path, payload):
            if label == "report":
                count("cli.reports_written")
                count("cli.report_bytes", len(payload))
            return write_file(label, path, payload)

        self._set(cli, "_write_file", traced_write_file)

        # Methods.
        def built(*_):
            count("replay.structured_built")

        self._set(ReplayReport, "to_structured",
                  self._span("replay.structured", ReplayReport.to_structured, built))
        self._set(ReplayReport, "to_text", self._span("replay.text", ReplayReport.to_text))
        self._set(Engine, "__init__", self._span("engine.init", Engine.__init__))
        self._set(LwmEngine, "__init__", self._span("lwm.init", LwmEngine.__init__))

        def lwm_stepped(_, decision):
            if decision.verdict is deny:
                count("lwm.deny")

        self._set(LwmEngine, "step", self._span("lwm.step", LwmEngine.step, lwm_stepped))
        self._set(Engine, "step", self._engine_step(Engine.step, verb_index, deny, by_exception))

        traced_load = self._span("store.load", ExceptionStore.load)
        self._set(ExceptionStore, "load",
                  classmethod(lambda cls, *a, **k: traced_load(*a, **k)))
        self._set(ExceptionStore, "save", self._span("store.save", ExceptionStore.save))
        for method, calls, hits in (
            ("record_file_exception", "store.record_calls", "store.record_new"),
            ("record_priv_exception", "store.record_calls", "store.record_new"),
            ("check_file_exception", "store.check_calls", "store.check_hits"),
            ("check_priv_exception", "store.check_calls", "store.check_hits"),
        ):
            self._set(ExceptionStore, method, _counted(getattr(ExceptionStore, method), counts, calls, hits))
        self._set(ExceptionStore, "file_entries",
                  _counted(ExceptionStore.file_entries, counts, "store.file_entries_calls"))

        post_init = Decision.__post_init__
        self._set(Decision, "__post_init__",
                  _counted(post_init, counts, "model.decisions_built"))
        perms_parse = PermissionBits.parse
        self._set(PermissionBits, "parse", classmethod(
            lambda cls, octal: (count("model.perms_parse_calls"), perms_parse(octal))[1]
        ))

        gc.callbacks.append(self._on_gc)

    def _engine_step(self, step, verb_index, deny, by_exception):
        nid = self._id("engine.step")
        counts = self.counts
        step_span = self.step_span
        step_verb = self.step_verb

        def traced_step(engine, event):
            index = self.open(nid)
            try:
                decision = step(engine, event)
            finally:
                self.close(index)
            step_span.append(index)
            step_verb.append(verb_index[type(event)])
            verdict = decision.verdict
            if verdict is deny:
                counts["engine.deny"] += 1
            elif verdict is by_exception:
                counts["engine.allow_by_exception"] += 1
            if decision.taint_updates:
                counts["engine.taint_transitions"] += len(decision.taint_updates)
            return decision

        return traced_step

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: number of spans, summed duration and summed self
        time (duration minus time covered by direct children), in ns."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        names = self.names
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0)
        own = dict.fromkeys(names, 0)
        span_name = self.span_name
        for i in range(n):
            name = names[span_name[i]]
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - covered[i]
        return calls, total, own

    def durations(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_name[i] == nid
        ]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        calls, total, own = self.span_totals()
        c = self.counts
        sec = 1e-9

        def t(name):
            return total.get(name, 0) * sec

        def s(name):
            return own.get(name, 0) * sec

        def ratio(part, whole):
            return part / whole if whole else 0.0

        m = {
            "trace.parse_s": t("trace.parse"),
            "trace.input_mib": c["trace.input_bytes"] / _MIB,
            "cli.self_s": s("cli.main"),
            "cli.json_s": t("cli.json"),
            "cli.report_mib": c["cli.report_bytes"] / _MIB,
            "replay.self_s": s("replay"),
            "replay.structured_s": t("replay.structured"),
            "replay.text_s": t("replay.text"),
            "replay.structured_built": c["replay.structured_built"],
            "replay.structured_used_ratio": ratio(
                c["cli.reports_written"], c["replay.structured_built"]
            ),
            "engine.init_s": t("engine.init"),
            "engine.init_count": calls.get("engine.init", 0),
            "engine.step_s": t("engine.step"),
        }
        steps = [self.span_end[i] - self.span_start[i] for i in self.step_span]
        m["engine.step_count"] = len(steps)
        ordered = sorted(steps)
        m["engine.step_p50_us"] = _quantile_us(ordered, 0.50)
        m["engine.step_p99_us"] = _quantile_us(ordered, 0.99)
        by_verb: list[list[int]] = [[] for _ in VERBS]
        for d, v in zip(steps, self.step_verb):
            by_verb[v].append(d)
        for verb, samples in zip(VERBS, by_verb):
            m[f"engine.step.{verb}.count"] = len(samples)
            m[f"engine.step.{verb}.p50_us"] = _quantile_us(sorted(samples), 0.50)
        m["engine.deny"] = c["engine.deny"]
        m["engine.allow_by_exception"] = c["engine.allow_by_exception"]
        m["engine.taint_transitions"] = c["engine.taint_transitions"]
        m["model.decisions_built"] = c["model.decisions_built"]
        m["model.perms_parse_calls"] = c["model.perms_parse_calls"]
        m["store.load_s"] = t("store.load")
        m["store.save_s"] = t("store.save")
        m["store.record_calls"] = c["store.record_calls"]
        m["store.record_new_ratio"] = ratio(c["store.record_new"], c["store.record_calls"])
        m["store.check_calls"] = c["store.check_calls"]
        m["store.check_hit_ratio"] = ratio(c["store.check_hits"], c["store.check_calls"])
        m["store.file_entries_calls"] = c["store.file_entries_calls"]
        m["lwm.init_s"] = t("lwm.init")
        m["lwm.step_s"] = t("lwm.step")
        m["lwm.step_count"] = calls.get("lwm.step", 0)
        m["lwm.step_p50_us"] = _quantile_us(sorted(self.durations("lwm.step")), 0.50)
        m["lwm.compare_self_s"] = s("lwm.compare")
        m["lwm.deny"] = c["lwm.deny"]
        m["oracle.taint_s"] = t("oracle.taint")
        m["oracle.graph_s"] = t("oracle.graph")
        m["oracle.dot_mib"] = c["oracle.dot_bytes"] / _MIB
        totals = [0, 0, 0, 0, 0]
        for rec in self.gc_by_span.values():
            for k in range(4):
                totals[k] += rec[k]
            totals[4] = max(totals[4], rec[4])
        m.update(_gc_metrics("gc", totals))
        for name in GC_SPLIT_SPANS:
            m.update(_gc_metrics(f"gc.{name}", self.gc_by_span.get(name, [0] * 5)))
        for stage in STAGES:
            m[f"mem.{stage}.rss_growth_mib"] = self.rss_growth_kib.get(stage, 0) / 1024
        return m

    def gc_split(self) -> dict[str, dict[str, float]]:
        return {name: _gc_metrics("", rec) for name, rec in sorted(self.gc_by_span.items())}

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start_ns, end_ns,
        parent index (-1 for none), job id; line number is the span index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            names = self.names
            for i in range(len(self.span_start)):
                out.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}"
                    f"\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )


def _counted(fn, counts: dict[str, int], calls: str, hits: str | None = None):
    """Wrap ``fn`` to count its calls and, with ``hits``, its truthy results."""
    if hits is None:
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if result:
                counts[hits] += 1
            return result
    return wrapper


def _quantile_us(ordered: list[int], q: float) -> float:
    """Nearest-rank quantile of sorted nanosecond samples, in microseconds."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1] / 1000.0


def _gc_metrics(prefix: str, rec: list[int]) -> dict[str, float]:
    dot = f"{prefix}." if prefix else ""
    return {
        f"{dot}gen0": rec[0],
        f"{dot}gen1": rec[1],
        f"{dot}gen2": rec[2],
        f"{dot}pause_s": rec[3] * 1e-9,
        f"{dot}max_pause_ms": rec[4] * 1e-6,
    }


def per_layer_names() -> list[str]:
    """Every per-layer metric name: those ``Tracer.metrics`` gives, then the
    two that the job and the harness add."""
    return list(Tracer().metrics()) + ["store.triples", "tracing_overhead_ratio"]
