"""Drive the engine over a parsed trace and collect a report.

A replay is deterministic: the same trace, config and store contents yield
the same decision log byte for byte. In Secure mode the store is augmented
with learned exceptions; in Unsecure mode it is strictly read-only.

``ReplayReport.to_json`` writes the structured report without building it:
its bytes equal ``json.dumps(report.to_structured(), sort_keys=True,
indent=2) + "\n"``, but each decision row is rendered from strings
prepared once per event kind and per decision outcome.

Timing covers the engine loop alone, on a monotonic clock.
``wall_seconds`` is the loop's wall time and ``events_per_second`` is the
event count divided by it, so every pause inside the loop lowers the
throughput. ``median_us``, ``mean_us`` and ``max_us`` summarise the time of
each ``Engine.step`` call; only the median resists a stray slow event.

The cyclic garbage collector is paused for the whole replay, the loop and
the assembly of the report, and then restored to its prior state. A replay
makes no reference cycles, so collections there would reclaim nothing; they
would only walk the trace and the decision log, again and again as both
grow.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from array import array
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from statistics import fmean, median
from time import perf_counter, perf_counter_ns
from typing import Any

from .engine import Engine, EngineConfig
from .model import Decision, DenyReason, Event, ExceptionKind, Verdict, entity_sort_key
from .store import EnvironmentBit, ExceptionStore
from .trace import EVENT_VERBS, Trace

# -- decision rows --------------------------------------------------------------
#
# A row's ``args`` are the event's fields other than ``seq``, in sorted
# order, with enum members (the IPC channel) reported by their value. The
# JSON text of a row is fixed by its event kind and decision outcome apart
# from a few values, so ``to_json`` renders rows from pieces prepared here
# instead of through ``json.dumps``. The indents are those that
# ``json.dumps(..., indent=2)`` gives a row in the report's ``decisions``.

_ITEM = "\n" + " " * 4  # a row of ``decisions``
_ROW = "\n" + " " * 6  # a key of a row
_NESTED = "\n" + " " * 8  # a key of ``args``, an item of ``taint_updates``

_EVENT_ARGS: dict[type, tuple[str, ...]] = {
    cls: tuple(sorted(f.name for f in dataclasses.fields(cls) if f.name != "seq"))
    for cls in EVENT_VERBS
}
"""Per event kind, the names of the arguments a row shows."""


def _row_json(names: tuple[str, ...], verb: str) -> tuple[tuple[tuple[str, str], ...], str]:
    keys = [f'{_NESTED}"{name}": ' for name in names]
    keys = [f'{_ITEM}{{{_ROW}"args": {{{keys[0]}', *("," + key for key in keys[1:])]
    return tuple(zip(keys, names)), f'{_ROW}}},{_ROW}"event": {encode_basestring_ascii(verb)},'


_ROW_JSON = {cls: _row_json(_EVENT_ARGS[cls], verb) for cls, verb in EVENT_VERBS.items()}
"""Per event kind, the JSON text before each argument value (the opening
of the row and of ``args`` before the first, a comma before the others,
then the key) paired with the argument's name, and the JSON text from the
last argument value to the ``event`` entry."""


def _plain(value: Any) -> Any:
    """An argument value as a report shows it."""
    return value.value if isinstance(value, Enum) else value


def _arg_json(value: Any) -> str:
    """The JSON text of an argument value. Any other type is refused, so
    that a new kind of field fails loudly instead of being written
    differently from ``json.dumps``."""
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    raise TypeError(f"cannot render a {type(value).__name__} argument in a report")


_ARG_JSON_BY_TYPE = {bool: _arg_json, int: int.__repr__, str: encode_basestring_ascii}
"""Fast paths of :func:`_arg_json` for the exact built-in types."""

_OUTCOME_JSON: dict[tuple[Verdict, DenyReason, ExceptionKind], tuple[str, str]] = {
    (verdict, reason, kind): (
        f'{_ROW}"exception_kind": {encode_basestring_ascii(kind.value)},'
        f'{_ROW}"reason": {encode_basestring_ascii(reason.value)},{_ROW}"seq": ',
        f',{_ROW}"verdict": {encode_basestring_ascii(verdict.value)}{_ITEM}}}',
    )
    for verdict in Verdict
    for reason in DenyReason
    for kind in ExceptionKind
}
"""Per decision outcome, the JSON text from the ``event`` entry to the
value of ``seq``, and from the value of ``taint_updates`` to the end of
the row."""


def _taint_updates_json(updates: tuple) -> str:
    item = _NESTED + "  "
    return "[" + ",".join(
        f"{_NESTED}[{item}{encode_basestring_ascii(entity)},"
        f"{item}{encode_basestring_ascii(old.value)},"
        f"{item}{encode_basestring_ascii(new.value)}{_NESTED}]"
        for entity, old, new in updates
    ) + f"{_ROW}]"


def _append_rows_json(log: list[tuple[Event, Decision]], append) -> None:
    """Append the JSON text of the ``decisions`` list, piece by piece."""
    if not log:
        append("[]")
        return
    append("[")
    rows = _ROW_JSON
    fast = _ARG_JSON_BY_TYPE
    outcomes = _OUTCOME_JSON
    updates_key = f',{_ROW}"taint_updates": '
    for index, (ev, decision) in enumerate(log):
        if index:
            append(",")
        keys, args_tail = rows[type(ev)]
        for key, name in keys:
            value = getattr(ev, name)
            append(key)
            append(fast.get(type(value), _arg_json)(value))
        append(args_tail)
        head, tail = outcomes[decision.verdict, decision.reason, decision.exception_kind]
        append(head)
        append(int.__repr__(ev.seq))
        append(updates_key)
        updates = decision.taint_updates
        append(_taint_updates_json(updates) if updates else "[]")
        append(tail)
    append("\n  ]")


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
class ReplayReport:
    """Everything one replay produced: the decision log, final taint set,
    counters and timing. Counter totals always equal the event count."""

    mode: EnvironmentBit
    label: str
    event_count: int
    log: list[tuple[Event, Decision]]
    final_taint: list[str]
    allows: int
    denies_by_reason: dict[str, int]
    exception_allows: int
    learned_exceptions: int
    timing: TimingStats = field(default_factory=TimingStats)

    @property
    def deny_count(self) -> int:
        return sum(self.denies_by_reason.values())

    def denials(self) -> list[tuple[Event, Decision]]:
        return [(ev, d) for ev, d in self.log if d.verdict is Verdict.DENY]

    def decision_rows(self) -> list[dict[str, Any]]:
        """The decision log in serializable, deterministic form."""
        rows = []
        for ev, decision in self.log:
            rows.append(
                {
                    "seq": ev.seq,
                    "event": EVENT_VERBS[type(ev)],
                    "args": {
                        name: _plain(getattr(ev, name))
                        for name in _EVENT_ARGS[type(ev)]
                    },
                    "verdict": decision.verdict.value,
                    "reason": decision.reason.value,
                    "exception_kind": decision.exception_kind.value,
                    "taint_updates": [
                        [entity, old.value, new.value]
                        for entity, old, new in decision.taint_updates
                    ],
                }
            )
        return rows

    def to_structured(self, include_decisions: bool = True) -> dict[str, Any]:
        doc: dict[str, Any] = {
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
            "decisions": self.decision_rows() if include_decisions else [],
            "taint": list(self.final_taint),
            "timing": self.timing.to_dict(),
        }
        return doc

    def to_json(self) -> str:
        """The structured report as JSON text, byte for byte
        ``json.dumps(self.to_structured(), sort_keys=True, indent=2) + "\\n"``."""
        doc = self.to_structured(include_decisions=False)
        parts: list[str] = []
        for section in sorted(doc):
            parts.append(f'{"," if parts else "{"}\n  {encode_basestring_ascii(section)}: ')
            if section == "decisions":
                _append_rows_json(self.log, parts.append)
            else:
                text = json.dumps(doc[section], sort_keys=True, indent=2)
                parts.append(text.replace("\n", "\n  "))
        parts.append("\n}\n")
        return "".join(parts)

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

    The store's environment bit is set to ``mode`` for the whole run. A
    missing store means an empty one. Trace errors abort the replay and
    propagate with the offending sequence number. The cyclic garbage
    collector is paused for the call and left as it was found.
    """
    if store is None:
        store = ExceptionStore()
    store.bit = mode
    config = config or EngineConfig.from_trace(trace)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        engine = Engine(config, store)
        learned_before = store.triple_count()

        durations = array("q")
        append_duration = durations.append
        step = engine.step
        wall_start = perf_counter()
        for ev in trace.events:
            t0 = perf_counter_ns()
            step(ev)
            append_duration(perf_counter_ns() - t0)
        wall = perf_counter() - wall_start

        log = engine.decision_log
        allows = 0
        exception_allows = 0
        denies: dict[str, int] = {}
        for _, decision in log:
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
            event_count=len(trace.events),
            log=log,
            final_taint=sorted(engine.tainted_entities(), key=entity_sort_key),
            allows=allows,
            denies_by_reason=denies,
            exception_allows=exception_allows,
            learned_exceptions=store.triple_count() - learned_before,
            timing=timing,
        )
    finally:
        if gc_was_enabled:
            gc.enable()


def learn(trace: Trace, store: ExceptionStore | None = None, config: EngineConfig | None = None) -> tuple[ReplayReport, ExceptionStore]:
    """Convenience wrapper: replay in the Secure environment, returning the
    augmented store alongside the report."""
    if store is None:
        store = ExceptionStore()
    report = replay(trace, EnvironmentBit.SECURE, store, config)
    return report, store
