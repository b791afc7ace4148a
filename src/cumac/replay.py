"""Drive the engine over a parsed trace and collect a report.

A replay is deterministic: the same trace, config and store contents yield
the same decision log byte for byte. In Secure mode the store is augmented
with learned exceptions; in Unsecure mode it is strictly read-only. The
engine keeps no log. A ``ReplayRun`` steps a list of events through the
engine and returns their decisions: ``replay`` runs it once over the
trace's whole list, and its report keeps the decisions beside the trace's
own list of events, the ``i``-th decision for the ``i``-th event. The CLI's
``learn`` and ``enforce`` run it once per parse block, write the block's
decision rows (``DecisionRows``), add its outcomes to running counts
(``Outcomes``) and drop it, so their report keeps no events or decisions.

``write_document`` streams a structured report, small sections and one
row section, to a text stream without building it: its bytes equal
``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, but each small
section goes through ``json.dumps`` alone. A row section is an iterator
of row texts, which one writer, ``_write_rows``, frames as a JSON list
and writes ``_BLOCK_ROWS`` at a time, for every report: the replay
report here (one generated renderer per event kind renders its rows) and
the comparison report in ``lwm``. So writing a report holds one block of
rows, not a second copy of the report, nor a third as encoded bytes. A
replay report's rows come first in key order, so ``DecisionRows`` can
write them while the run goes, before its summary is known.

Timing covers the engine loops alone, on a monotonic clock.
``wall_seconds`` is the loops' wall time and ``events_per_second`` is the
event count divided by it, so every pause inside a loop lowers the
throughput. ``median_us``, ``mean_us`` and ``max_us`` summarise the time of
each ``Engine.step`` call; only the median resists a stray slow event.

The cyclic garbage collector is paused for the whole replay, the loop and
the assembly of the report, and then restored to its prior state
(``trace.collector_paused``, which also says what the pause defers). A
replay makes no reference cycles: the engine keeps its handler table at
class level, so it holds no bound method that refers back to it, and it
is freed by reference counting once the report has read it. Collections
there would reclaim nothing; they would only walk the trace and the
collected decisions, again and again as both grow. After the loop, the
timing stats and the final taint come from C-level passes (one ``sorted``
of the step times, one of the tainted entities) rather than a Python loop
per event. The outcome counts are taken the same way
(``Counter.update`` over ``map`` and ``itertools.compress``): the CLI
adds each block's decisions as it steps them, and a library report
counts its decisions on first read, so a caller that never reads them
never pays for them.
"""

from __future__ import annotations

import io
import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii
from itertools import compress, islice, repeat
from math import fsum
from operator import attrgetter, is_
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Iterable, Iterator, TextIO

from .engine import Engine
from .model import (
    ALLOW, BY_EXCEPTION, DENIED, Decision, DenyReason, Event, IpcChannel, TaintState, Verdict
)
from .store import EnvironmentBit, ExceptionStore
from .trace import _EVENTS, EVENT_VERBS, Trace, TraceHeader, collector_paused

# -- decision rows --------------------------------------------------------------
#
# A row's ``args`` are the event attributes its trace line fills (so not
# ``seq``, nor the ids the parser resolved for created files), in sorted
# order, with enum members (the IPC channel) reported by their value. The
# JSON text of a row is fixed by its event kind and decision outcome apart
# from a few values, so ``write_json`` renders rows with one generated
# renderer per event kind instead of through ``json.dumps``. The indents
# are those ``json.dumps(..., indent=2)`` gives a row of ``decisions``.

_BLOCK_ROWS = 512
"""Rows of a report's list that ``_write_rows`` joins into one write: enough
that the writes are few, few enough that a block is small next to the report."""

_ITEM = "\n" + " " * 4  # a row of ``decisions``
_ROW = "\n" + " " * 6  # a key of a row
_NESTED = "\n" + " " * 8  # a key of ``args``, an item of ``taint_updates``


def _non_int_json(v: Any) -> str:
    """The JSON text of a number field's value that is not an exact int: a
    bool as ``json.dumps`` writes it; anything else goes through
    ``int.__repr__``, which raises ``TypeError`` for a non-int."""
    return "true" if v is True else "false" if v is False else int.__repr__(v)


_ARG_JSON = {
    "int": "v if type(v := ev.{}) is int else non_int(v)",
    "IpcChannel": "channels[v] if (v := ev.{}) in channels else encode(v)",
    "str": "encode(ev.{})",
}
_ARG_JSON["bool"] = _ARG_JSON["int"]
"""Per return annotation of a field's check, the expression of the JSON
text of the field's value: an int as the f-string formats it, a bool as
``json.dumps`` writes it, a channel by its value. Any other type raises
``TypeError`` (in ``int.__repr__`` or ``encode_basestring_ascii``), and a
check of any other type fails the build."""


_STATE_JSON = {state: f",{_NESTED}  {encode_basestring_ascii(state.value)}" for state in TaintState}
"""Per taint state, its JSON text in a taint update, comma first."""


def _taint_updates_json(updates: tuple) -> str:
    states = _STATE_JSON
    return f',{_ROW}"taint_updates": [' + ",".join([
        f"{_NESTED}[{_NESTED}  {encode_basestring_ascii(entity)}{states[old]}{states[new]}{_NESTED}]"
        for entity, old, new in updates
    ]) + f"{_ROW}]"


def _renderers_source() -> str:
    """The source of one renderer per verb, which returns the JSON text of
    an event's row and decision as one f-string. Its expressions go between
    ``\\0`` and ``\\1`` while the text is escaped; they hold no ``'`` and no
    backslash, which an f-string's expressions may not before Python 3.12."""
    lines = []
    for verb, (_, spec) in _EVENTS.items():
        args = sorted((attr, check.__annotations__["return"]) for attr, check in spec.values())
        row = (
            f'{_ITEM}{{{_ROW}"args": {{'
            + ",".join(f'{_NESTED}"{attr}": \0{_ARG_JSON[kind].format(attr)}\1' for attr, kind in args)
            + f'{_ROW}}},{_ROW}"event": {encode_basestring_ascii(verb)},\0head\1'
            + f'\0{_ARG_JSON["int"].format("seq")}\1'
            + "\0updates_json(u) if (u := d.taint_updates) else no_updates\1\0tail\1"
        )
        row = row.replace("{", "{{").replace("}", "}}").replace("\0", "{").replace("\1", "}")
        lines += [
            f"def {verb}(ev, d):",
            "    head, tail = outcomes[d.verdict][d.reason]",
            f"    return f{row!r}",
        ]
    return "\n".join(lines) + "\n"


@cache
def _row_renderers() -> dict[type[Event], Callable[[Event, Decision], str]]:
    """Per event class, the renderer of its rows, built on first use, so
    that a run that writes no structured report never compiles them.
    ``outcomes`` holds, per verdict and reason, the JSON text from the
    ``event`` entry to ``seq``'s value, and from ``taint_updates`` on."""
    outcomes: dict[Verdict, dict[DenyReason, tuple[str, str]]] = {v: {} for v in Verdict}
    for d in (ALLOW, *DENIED.values(), *BY_EXCEPTION.values()):
        outcomes[d.verdict][d.reason] = (
            f'{_ROW}"exception_kind": {encode_basestring_ascii(d.exception_kind.value)},'
            f'{_ROW}"reason": {encode_basestring_ascii(d.reason.value)},{_ROW}"seq": ',
            f',{_ROW}"verdict": {encode_basestring_ascii(d.verdict.value)}{_ITEM}}}',
        )
    channels = {member: encode_basestring_ascii(member.value) for member in IpcChannel}
    namespace = dict(outcomes=outcomes, updates_json=_taint_updates_json, channels=channels,
                     no_updates=f',{_ROW}"taint_updates": []', non_int=_non_int_json,
                     encode=encode_basestring_ascii)
    exec(compile(_renderers_source(), "<cumac.replay rows>", "exec"), namespace)
    # Popped, so that the namespace, the renderers' globals, holds none of them.
    return {cls: namespace.pop(verb) for verb, (cls, _) in _EVENTS.items()}


def _write_rows(write: Callable[[str], Any], rows: Iterator[str], written: int = 0) -> int:
    """Write the JSON texts of ``rows`` as the items of a list after
    ``written`` items, the list's opening before the first and
    ``_BLOCK_ROWS`` joined per write; return the items written in all."""
    while block := list(islice(rows, _BLOCK_ROWS)):
        block[0] = ("," if written else "[") + block[0]
        write(",".join(block))
        written += len(block)
    return written


def write_document(stream: TextIO, sections: dict[str, Any], continued: bool = False) -> None:
    """Write ``sections`` as a JSON document to ``stream``, byte for byte
    ``json.dumps(sections, sort_keys=True, indent=2) + "\n"``. A section
    whose value is an iterator is a row section, the JSON texts of its
    list's items at a row's indent: ``_write_rows`` writes them, and then
    the list's end is written. With ``continued``, the document's opening
    and the sections that sort before these are already written
    (``DecisionRows``), and these follow them."""
    write = stream.write
    opening = "," if continued else "{"
    for name in sorted(sections):
        write(f"{opening}\n  {encode_basestring_ascii(name)}: ")
        opening = ","
        section = sections[name]
        if isinstance(section, Iterator):
            write("\n  ]" if _write_rows(write, section) else "[]")
        else:
            write(json.dumps(section, sort_keys=True, indent=2).replace("\n", "\n  "))
    write("\n}\n")


class StructuredReport:
    """A report whose ``write_json`` streams its structured form."""

    __slots__ = ()

    def to_json(self) -> str:
        """The structured report as JSON text, as :meth:`write_json` writes it."""
        buffer = io.StringIO()
        self.write_json(buffer)
        return buffer.getvalue()


@dataclass(slots=True)
class TimingStats:
    """The step times of a replay, summed up (``of_steps``)."""

    wall_seconds: float = 0.0
    events_per_second: float = 0.0
    median_us: float = 0.0
    mean_us: float = 0.0
    max_us: float = 0.0

    @classmethod
    def of_steps(cls, durations: array, wall: float) -> "TimingStats":
        """The stats of a loop of ``wall`` seconds whose steps took
        ``durations`` nanoseconds each; all zero for no steps. Median, mean
        and max are read off one sorted copy and equal what
        ``statistics.median``, ``statistics.fmean`` and ``max`` give."""
        n = len(durations)
        if not n:
            return cls()
        ordered = sorted(durations)
        middle = n // 2
        median = ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2
        return cls(
            wall_seconds=wall,
            events_per_second=n / wall if wall > 0 else 0.0,
            median_us=median / 1000.0,
            mean_us=fsum(ordered) / n / 1000.0,
            max_us=ordered[-1] / 1000.0,
        )

    def to_dict(self) -> dict[str, float]:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
            "median_us": round(self.median_us, 3),
            "mean_us": round(self.mean_us, 3),
            "max_us": round(self.max_us, 3),
        }


_VERDICT = attrgetter("verdict")
_REASON = attrgetter("reason")


def _denied(items: Iterable, decisions: list[Decision]) -> compress:
    """The items whose decision, at the same index, is a denial."""
    return compress(items, map(is_, map(_VERDICT, decisions), repeat(Verdict.DENY)))


class Outcomes:
    """Decisions counted by outcome. ``add`` takes a list of them at a
    time, for the CLI one parse block: it counts them per verdict
    (``verdicts``) and the denials per reason (``reasons``) and, if
    ``keep_denials``, keeps each denial with its event (else ``denials`` is
    None; a text report lists them)."""

    __slots__ = ("verdicts", "reasons", "denials")

    def __init__(self, keep_denials: bool = True):
        self.verdicts: Counter[Verdict] = Counter()
        self.reasons: Counter[DenyReason] = Counter()
        self.denials: list[tuple[Event, Decision]] | None = [] if keep_denials else None

    def add(self, events: list[Event], decisions: list[Decision]) -> None:
        """Add ``decisions``, one per event of ``events``, in C-level
        passes: the verdicts, then the denials' reasons."""
        verdicts = self.verdicts
        denied = verdicts[Verdict.DENY]
        verdicts.update(map(_VERDICT, decisions))
        if verdicts[Verdict.DENY] > denied:
            self.reasons.update(map(_REASON, _denied(decisions, decisions)))
            if self.denials is not None:
                self.denials += _denied(zip(events, decisions), decisions)


@dataclass(slots=True)
class ReplayReport(StructuredReport):
    """Everything one replay produced: the trace's events and the decision
    for each, when the report keeps them, the outcome counts, final taint
    set and timing.

    A library ``replay`` keeps the trace's own list of events beside the
    loop's list of decisions, and derives ``outcomes`` from them on first
    read. A CLI ``learn`` or ``enforce`` keeps neither list: it counts the
    outcomes and writes the decision rows a parse block at a time, as it
    steps them (``DecisionRows``)."""

    mode: EnvironmentBit
    label: str
    events: list[Event]
    decisions: list[Decision]
    final_taint: list[str]
    learned_exceptions: int
    timing: TimingStats = field(default_factory=TimingStats)
    outcomes: Outcomes | None = field(default=None, repr=False, compare=False)
    """The outcome counts, taken from ``decisions`` on first read when not
    given: a report's decisions do not change after its replay."""

    @property
    def log(self) -> list[tuple[Event, Decision]]:
        """The ``(event, decision)`` pairs, built anew on each read."""
        return list(zip(self.events, self.decisions))

    def _outcomes(self) -> Outcomes:
        outcomes = self.outcomes
        if outcomes is None:
            outcomes = self.outcomes = Outcomes()
            outcomes.add(self.events, self.decisions)
        return outcomes

    @property
    def event_count(self) -> int:
        return self._outcomes().verdicts.total()

    @property
    def allows(self) -> int:
        """Decisions that allowed their event outright."""
        return self._outcomes().verdicts[Verdict.ALLOW]

    @property
    def exception_allows(self) -> int:
        """Decisions that allowed their event by an exception grant."""
        return self._outcomes().verdicts[Verdict.ALLOW_BY_EXCEPTION]

    @property
    def denies_by_reason(self) -> dict[str, int]:
        """Denials per reason value, for the reasons that occur."""
        return {reason.value: count for reason, count in self._outcomes().reasons.items()}

    @property
    def deny_count(self) -> int:
        return self._outcomes().verdicts[Verdict.DENY]

    def denials(self) -> list[tuple[Event, Decision]] | None:
        """Each denial with its event, None if the run did not keep them."""
        return self._outcomes().denials

    def to_structured(self) -> dict[str, Any]:
        """The report's sections but its decision rows."""
        return {
            "summary": {
                "mode": self.mode.value,
                "label": self.label,
                "events": self.event_count,
                "allows": self.allows,
                "denies": dict(sorted(self.denies_by_reason.items())),
                "deny_total": self.deny_count,
                "exception_allows": self.exception_allows,
                "learned_exceptions": self.learned_exceptions,
            },
            "taint": list(self.final_taint),
            "timing": self.timing.to_dict(),
        }

    def write_json(self, stream: TextIO) -> None:
        """Stream the structured report into ``stream``, decisions and all,
        holding no more than a block of decision rows."""
        rows = DecisionRows(stream)
        rows.add(self.events, self.decisions)
        rows.close(self)

    def to_text(self) -> str:
        lines = [
            f"mode: {self.mode.value}",
            f"label: {self.label}",
            f"events: {self.event_count}",
            f"allowed: {self.allows}",
            f"allowed by exception: {self.exception_allows}",
        ]
        if self.deny_count:
            reasons = ", ".join(
                f"{reason}" if count == 1 else f"{count}x {reason}"
                for reason, count in sorted(self.denies_by_reason.items())
            )
            lines.append(f"{self.deny_count} denied ({reasons})")
            for ev, decision in self.denials():
                lines.append(
                    f"  event {ev.seq} {EVENT_VERBS[type(ev)]}: {decision.reason.value}"
                )
        else:
            lines.append("0 denied")
        if self.mode is EnvironmentBit.SECURE:
            lines.append(f"learned exceptions: {self.learned_exceptions}")
        lines.append(
            "tainted: " + (" ".join(self.final_taint) if self.final_taint else "(none)")
        )
        lines.append(
            f"timing: {self.timing.wall_seconds:.4f}s wall,"
            f" {self.timing.events_per_second:.0f} events/s,"
            f" median {self.timing.median_us:.1f}us"
        )
        return "\n".join(lines) + "\n"


class DecisionRows:
    """The structured form of a replay report, written into a text stream
    as the replay goes: ``add`` writes the decision rows of a list of
    events, and ``close`` ends the rows and writes the report's other
    sections. ``decisions`` is the first section in key order, so its rows
    go out before the summary is known; the bytes are those of
    ``write_document`` with every row at once."""

    __slots__ = ("write", "rows")

    def __init__(self, stream: TextIO):
        self.write = stream.write
        self.rows = 0
        self.write('{\n  "decisions": ')

    def add(self, events: list[Event], decisions: list[Decision]) -> None:
        renderers = _row_renderers()
        rows = (renderers[type(ev)](ev, decision) for ev, decision in zip(events, decisions))
        self.rows = _write_rows(self.write, rows, self.rows)

    def close(self, report: ReplayReport) -> None:
        self.write("\n  ]" if self.rows else "[]")
        write_document(self, report.to_structured(), continued=True)


class ReplayRun:
    """One replay under way: an engine started from ``config`` in ``mode``
    with ``store``, and the time of each of its steps. ``step`` runs a list
    of events through the engine, a trace's whole list for ``replay`` or
    one parse block at a time for the CLI, and ``report`` sums the run up.

    Timing covers the engine loops alone: ``wall`` adds up the wall time
    of each ``step`` call's loop."""

    __slots__ = ("engine", "learned_before", "durations", "wall")

    def __init__(self, config: TraceHeader, store: ExceptionStore, mode: EnvironmentBit):
        self.engine = Engine(config, store, mode)
        self.learned_before = store.triple_count()
        self.durations = array("q")
        self.wall = 0.0

    def step(self, events: list[Event]) -> list[Decision]:
        """The engine's decision for each of ``events``, stepped in order.
        A trace error propagates with the offending sequence number."""
        append_duration = self.durations.append
        decisions: list[Decision] = []
        append_decision = decisions.append
        step = self.engine.step
        wall_start = perf_counter()
        for ev in events:
            t0 = perf_counter_ns()
            decision = step(ev)
            append_duration(perf_counter_ns() - t0)
            append_decision(decision)
        self.wall += perf_counter() - wall_start
        return decisions

    def report(
        self,
        label: str,
        events: list[Event],
        decisions: list[Decision],
        outcomes: Outcomes | None = None,
    ) -> ReplayReport:
        """The report of the run, keeping ``events`` and ``decisions``, both
        empty for a run whose ``outcomes`` were counted as it went. It ends
        the run: the engine is let go once its final taint and learned
        grants are read, before the step times are summed up."""
        engine, self.engine = self.engine, None
        mode, final_taint = engine.mode, engine.sorted_taint()
        learned = engine.store.triple_count() - self.learned_before
        del engine
        return ReplayReport(
            mode=mode,
            label=label,
            events=events,
            decisions=decisions,
            final_taint=final_taint,
            learned_exceptions=learned,
            timing=TimingStats.of_steps(self.durations, self.wall),
            outcomes=outcomes,
        )


def replay(
    trace: Trace,
    mode: EnvironmentBit,
    store: ExceptionStore | None = None,
    config: TraceHeader | None = None,
) -> ReplayReport:
    """Replay a trace in the given environment: one ``ReplayRun`` step
    over the trace's whole list of events.

    The engine starts from ``config``, by default the trace's header, and
    runs in ``mode`` for the whole replay: Secure adds what it learns to
    ``store``, Unsecure only reads it. A missing store means an
    empty one. Trace errors abort the replay and propagate with the
    offending sequence number. The cyclic garbage collector is paused for
    the call and left as it was found. The engine is freed by reference
    counting at the return; the report's decisions are not, and when they
    are many the caller's next allocation runs the collection that the
    pause deferred (``trace.collector_paused``).
    """
    if store is None:
        store = ExceptionStore()
    with collector_paused():
        run = ReplayRun(config or trace.header, store, mode)
        decisions = run.step(trace.events)
        return run.report(trace.header.label, trace.events, decisions)


def learn(trace: Trace, store: ExceptionStore | None = None, config: TraceHeader | None = None) -> tuple[ReplayReport, ExceptionStore]:
    """Convenience wrapper: replay in the Secure environment, returning the
    augmented store alongside the report."""
    if store is None:
        store = ExceptionStore()
    report = replay(trace, EnvironmentBit.SECURE, store, config)
    return report, store
