"""Drive the engine over a parsed trace and collect a report.

A replay is deterministic: the same trace, config and store contents yield
the same decision log byte for byte. In Secure mode the store is augmented
with learned exceptions; in Unsecure mode it is strictly read-only. The
engine keeps no log: the replay loop collects each step's decision, and
the report keeps that list beside the trace's own list of events, the
``i``-th decision for the ``i``-th event.

``write_document`` streams a structured report, small sections and one
row section, to a text stream without building it: its bytes equal
``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, but each small
section goes through ``json.dumps`` alone, and the rows are rendered from
strings prepared once per event kind and outcome and written
``_BLOCK_ROWS`` at a time. So writing a report holds one block of rows,
not a second copy of the report, nor a third as encoded bytes. The replay
report here and the comparison report in ``lwm`` share this writer.

Timing covers the engine loop alone, on a monotonic clock.
``wall_seconds`` is the loop's wall time and ``events_per_second`` is the
event count divided by it, so every pause inside the loop lowers the
throughput. ``median_us``, ``mean_us`` and ``max_us`` summarise the time of
each ``Engine.step`` call; only the median resists a stray slow event.

The cyclic garbage collector is paused for the whole replay, the loop and
the assembly of the report, and then restored to its prior state
(``trace.collector_paused``). A replay makes no reference cycles, so
collections there would reclaim nothing; they would only walk the trace
and the collected decisions, again and again as both grow.
"""

from __future__ import annotations

import io
import json
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from json.encoder import encode_basestring_ascii
from statistics import fmean, median
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, TextIO

from .engine import Engine, EngineConfig
from .model import (
    ALLOW, BY_EXCEPTION, DENIED, Decision, DenyReason, Event, Verdict, entity_sort_key
)
from .store import EnvironmentBit, ExceptionStore
from .trace import _EVENTS, EVENT_VERBS, Trace, collector_paused

# -- decision rows --------------------------------------------------------------
#
# A row's ``args`` are the event attributes its trace line fills (so not
# ``seq``, nor the ids the parser resolved for created files), in sorted
# order, with enum members (the IPC channel) reported by their value. The
# JSON text of a row is fixed by its event kind and decision outcome apart
# from a few values, so ``write_json`` renders rows from pieces prepared here
# instead of through ``json.dumps``. The indents are those that
# ``json.dumps(..., indent=2)`` gives a row in the report's ``decisions``.

_BLOCK_ROWS = 512
"""Decision rows that ``write_json`` joins into one write: enough that the
writes are few, few enough that a block is small next to the report."""

_ITEM = "\n" + " " * 4  # a row of ``decisions``
_ROW = "\n" + " " * 6  # a key of a row
_NESTED = "\n" + " " * 8  # a key of ``args``, an item of ``taint_updates``

def _row_json(verb: str, fields: dict) -> tuple[tuple[tuple[str, str], ...], str]:
    names = sorted(attr for attr, _ in fields.values())
    keys = [f'{_NESTED}"{name}": ' for name in names]
    keys = [f'{_ITEM}{{{_ROW}"args": {{{keys[0]}', *("," + key for key in keys[1:])]
    return tuple(zip(keys, names)), f'{_ROW}}},{_ROW}"event": {encode_basestring_ascii(verb)},'


_ROW_JSON = {cls: _row_json(verb, fields) for verb, (cls, fields) in _EVENTS.items()}
"""Per event kind, the JSON text before each argument value (the opening
of the row and of ``args`` before the first, a comma before the others,
then the key) paired with the argument's name, and the JSON text from the
last argument value to the ``event`` entry."""


def _arg_json(value: Any) -> str:
    """The JSON text of an argument value, an enum member by its value.
    Any other type is refused, so that a new kind of field fails loudly
    instead of being written differently from ``json.dumps``."""
    if isinstance(value, Enum):
        value = value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(f"cannot render a {type(value).__name__} argument in a report")


_ARG_JSON_BY_TYPE = {bool: _arg_json, int: int.__repr__, str: encode_basestring_ascii}
"""Fast paths of :func:`_arg_json` for the exact built-in types."""

_OUTCOME_JSON: dict[tuple[Verdict, DenyReason], tuple[str, str]] = {
    (d.verdict, d.reason): (
        f'{_ROW}"exception_kind": {encode_basestring_ascii(d.exception_kind.value)},'
        f'{_ROW}"reason": {encode_basestring_ascii(d.reason.value)},{_ROW}"seq": ',
        f',{_ROW}"verdict": {encode_basestring_ascii(d.verdict.value)}{_ITEM}}}',
    )
    for d in (ALLOW, *DENIED.values(), *BY_EXCEPTION.values())
}
"""Per decision outcome, a verdict and a reason (they fix the exception
kind), the JSON text from the ``event`` entry to the value of ``seq``, and
from the value of ``taint_updates`` to the end of the row."""


def _taint_updates_json(updates: tuple) -> str:
    item = _NESTED + "  "
    return "[" + ",".join(
        f"{_NESTED}[{item}{encode_basestring_ascii(entity)},"
        f"{item}{encode_basestring_ascii(old.value)},"
        f"{item}{encode_basestring_ascii(new.value)}{_NESTED}]"
        for entity, old, new in updates
    ) + f"{_ROW}]"


def _write_rows_json(
    events: list[Event], decisions: list[Decision], write: Callable[[str], Any]
) -> None:
    """Write the JSON text of the ``decisions`` list, ``_BLOCK_ROWS`` rows
    joined per write."""
    rows = _ROW_JSON
    fast = _ARG_JSON_BY_TYPE
    outcomes = _OUTCOME_JSON
    updates_key = f',{_ROW}"taint_updates": '
    for start in range(0, len(events), _BLOCK_ROWS):
        parts = ["," if start else "["]
        append = parts.append
        block = zip(events[start : start + _BLOCK_ROWS], decisions[start : start + _BLOCK_ROWS])
        for index, (ev, decision) in enumerate(block):
            if index:
                append(",")
            keys, args_tail = rows[type(ev)]
            for key, name in keys:
                value = getattr(ev, name)
                append(key)
                append(fast.get(type(value), _arg_json)(value))
            append(args_tail)
            head, tail = outcomes[decision.verdict, decision.reason]
            append(head)
            append(int.__repr__(ev.seq))
            append(updates_key)
            updates = decision.taint_updates
            append(_taint_updates_json(updates) if updates else "[]")
            append(tail)
        write("".join(parts))
    write("\n  ]" if events else "[]")


_VERDICT_ROW_JSON: dict[tuple[type, Verdict, Verdict], str] = {
    (cls, cumac, lwm): f'{_ITEM}{{{_ROW}"cumac": {encode_basestring_ascii(cumac.value)},'
    f'{_ROW}"event": {encode_basestring_ascii(verb)},'
    f'{_ROW}"lwm": {encode_basestring_ascii(lwm.value)},{_ROW}"seq": '
    for cls, verb in EVENT_VERBS.items()
    for cumac in Verdict
    for lwm in Verdict
}
"""Per event kind and verdict pair, the JSON text of a comparison row up
to the value of ``seq``."""


def _write_verdict_rows_json(
    events: list[Event], verdicts: list[tuple[Verdict, Verdict]], write: Callable[[str], Any]
) -> None:
    """Write the JSON text of a comparison's ``rows`` list, ``_BLOCK_ROWS``
    rows joined per write."""
    heads, tail = _VERDICT_ROW_JSON, _ITEM + "}"
    for start in range(0, len(events), _BLOCK_ROWS):
        block = zip(events[start : start + _BLOCK_ROWS], verdicts[start : start + _BLOCK_ROWS])
        write(("," if start else "[") + ",".join(
            f"{heads[type(ev), cumac, lwm]}{ev.seq}{tail}" for ev, (cumac, lwm) in block
        ))
    write("\n  ]" if events else "[]")


def write_document(stream: TextIO, sections: dict[str, Any]) -> None:
    """Write ``sections`` as a JSON document to ``stream``, byte for byte
    ``json.dumps(sections, sort_keys=True, indent=2) + "\n"``. A section
    whose value is callable is a row section: it is handed
    ``stream.write`` and writes its JSON list itself."""
    write = stream.write
    opening = "{"
    for name in sorted(sections):
        write(f"{opening}\n  {encode_basestring_ascii(name)}: ")
        opening = ","
        section = sections[name]
        if callable(section):
            section(write)
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
    wall_seconds: float = 0.0
    events_per_second: float = 0.0
    median_us: float = 0.0
    mean_us: float = 0.0
    max_us: float = 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
            "median_us": round(self.median_us, 3),
            "mean_us": round(self.mean_us, 3),
            "max_us": round(self.max_us, 3),
        }


@dataclass(slots=True)
class ReplayReport(StructuredReport):
    """Everything one replay produced: the trace's own list of events, the
    decision for each, final taint set, counters and timing. Counter totals
    always equal the event count."""

    mode: EnvironmentBit
    label: str
    events: list[Event]
    decisions: list[Decision]
    final_taint: list[str]
    allows: int
    denies_by_reason: dict[str, int]
    exception_allows: int
    learned_exceptions: int
    timing: TimingStats = field(default_factory=TimingStats)

    @property
    def event_count(self) -> int:
        return len(self.events)

    @property
    def log(self) -> list[tuple[Event, Decision]]:
        """The ``(event, decision)`` pairs, built anew on each read."""
        return list(zip(self.events, self.decisions))

    @property
    def deny_count(self) -> int:
        return sum(self.denies_by_reason.values())

    def denials(self) -> list[tuple[Event, Decision]]:
        return [(ev, d) for ev, d in zip(self.events, self.decisions) if d.verdict is Verdict.DENY]

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
        rows = partial(_write_rows_json, self.events, self.decisions)
        write_document(stream, {**self.to_structured(), "decisions": rows})

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


def replay(
    trace: Trace,
    mode: EnvironmentBit,
    store: ExceptionStore | None = None,
    config: EngineConfig | None = None,
) -> ReplayReport:
    """Replay a trace in the given environment.

    The engine runs in ``mode`` for the whole replay: Secure adds what it
    learns to ``store``, Unsecure only reads it. A missing store means an
    empty one. Trace errors abort the replay and propagate with the
    offending sequence number. The cyclic garbage collector is paused for
    the call and left as it was found.
    """
    if store is None:
        store = ExceptionStore()
    config = config or EngineConfig.from_trace(trace)
    with collector_paused():
        engine = Engine(config, store, mode)
        learned_before = store.triple_count()

        durations = array("q")
        append_duration = durations.append
        decisions: list[Decision] = []
        append_decision = decisions.append
        step = engine.step
        wall_start = perf_counter()
        for ev in trace.events:
            t0 = perf_counter_ns()
            decision = step(ev)
            append_duration(perf_counter_ns() - t0)
            append_decision(decision)
        wall = perf_counter() - wall_start

        allows = 0
        exception_allows = 0
        denies: dict[str, int] = {}
        for decision in decisions:
            verdict = decision.verdict
            if verdict is Verdict.ALLOW:
                allows += 1
            elif verdict is Verdict.ALLOW_BY_EXCEPTION:
                exception_allows += 1
            else:
                reason = decision.reason.value
                denies[reason] = denies.get(reason, 0) + 1

        timing = TimingStats()
        if durations:
            timing.wall_seconds = wall
            timing.events_per_second = len(durations) / wall if wall > 0 else 0.0
            timing.median_us = median(durations) / 1000.0
            timing.mean_us = fmean(durations) / 1000.0
            timing.max_us = max(durations) / 1000.0

        return ReplayReport(
            mode=mode,
            label=trace.header.label,
            events=trace.events,
            decisions=decisions,
            final_taint=sorted(engine.tainted_entities(), key=entity_sort_key),
            allows=allows,
            denies_by_reason=denies,
            exception_allows=exception_allows,
            learned_exceptions=store.triple_count() - learned_before,
            timing=timing,
        )


def learn(trace: Trace, store: ExceptionStore | None = None, config: EngineConfig | None = None) -> tuple[ReplayReport, ExceptionStore]:
    """Convenience wrapper: replay in the Secure environment, returning the
    augmented store alongside the report."""
    if store is None:
        store = ExceptionStore()
    report = replay(trace, EnvironmentBit.SECURE, store, config)
    return report, store
