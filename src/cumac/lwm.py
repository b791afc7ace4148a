"""Low-Water-Mark integrity baseline over the same event vocabulary.

A classic two-level integrity engine: a subject's level drops to the
minimum of what it reads (exec counts as a read of the binary), a write
below one's own level is refused, and levels never rise. Its purpose here
is contrast: it refuses benign accesses the tracing engine allows, most
famously the self-revocation pattern, where a process loses the right to
write a file it created itself after reading any low-integrity data.

Mapping choices, also disclosed in every comparison report:

* Initial levels mirror the tracing engine's entrances so both models see
  the same threat surface: files reachable from a mobile mount and
  processes that ever face the network or an untrusted login start Low,
  everything else starts High.
* Privileged operations are treated as writes to a notional High object,
  so a Low subject's privileged operation is refused.
* Copy is read-then-write: the subject's level first drops to the
  source's, then the write check runs against the destination.
* Create and a copy to a fresh path take one fresh-file step: it checks
  the parent directory's level and, refused or not, registers the new
  object under its event's id at the creator's level (Low under a live
  mobile mount), so that later references resolve. Denials are otherwise
  inert, matching the tracing engine's discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, TextIO

from .engine import Engine, _unknown
from .errors import TraceError
from .model import (
    ALLOW,
    DENIED,
    LOOPBACK_PREFIXES,
    Copy,
    Create,
    Decision,
    DenyReason,
    Event,
    Exec,
    Fork,
    Ipc,
    Login,
    Mount,
    PrivOp,
    Read,
    RemoteComm,
    Unmount,
    Verdict,
    Write,
    _covers,
    _parent_path,
    under_live_mount,
)
from .replay import _BLOCK_ROWS, _ITEM, _ROW, StructuredReport, _non_int_json, write_document
from .store import ExceptionStore
from .trace import EVENT_VERBS, Trace, TraceHeader, collector_paused

MAPPING_NOTES = (
    "low-water-mark mapping: initial levels mirror intrusion entrances"
    " (mobile-mount files and remote-facing or untrusted-login processes start Low);"
    " privileged operations count as writes to a notional High object;"
    " exec counts as a read of the binary."
)


class IntegrityLevel(IntEnum):
    LOW = 0
    HIGH = 1


_LOW = IntegrityLevel.LOW
_HIGH = IntegrityLevel.HIGH
_WRITE_DENIED = DENIED[DenyReason.INTEGRITY_WRITE]
_PRIV_DENIED = DENIED[DenyReason.PRIVILEGED_OP]
_VERDICT_PAIRS = {(cumac, lwm): (cumac, lwm) for cumac in Verdict for lwm in Verdict}
"""The nine (tracing engine, baseline) verdict pairs, shared by every
comparison row."""


class LwmEngine:
    """Two-level low-water-mark engine driven by the shared event types.

    An engine serves the trace it was built from: it reads that trace's
    mounts ahead, and a Mount of a prefix the trace never mounts relabels
    nothing. It steps once per event, so each handler looks up its levels
    in place, raises ``_unknown``'s error for an id that is not live, and
    compares levels by identity. Its seed levels and its users' trust
    come from ``config``, by default the trace's header, which must pass
    ``TraceHeader.validate`` as for ``Engine``."""

    def __init__(self, trace: Trace, config: TraceHeader | None = None):
        config = config or trace.header
        config.validate()
        self.subject_levels: dict[int, IntegrityLevel] = {}
        self.object_levels: dict[int, IntegrityLevel] = {}
        self._fid_by_path: dict[str, int] = {}
        self._mounts: dict[int, str] = {}

        low_pids, mobile_prefixes = self._prescan(trace, config.users)
        # Per prefix the trace mounts, the High files under it that its next
        # Mount makes Low. Levels never rise, so a Mount empties its list.
        self._high_below: dict[str, list[int]] = {prefix: [] for prefix in mobile_prefixes}
        # What a path strictly below one of those prefixes starts with:
        # the prefix and a slash, or "" for "/", which covers every path.
        self._below = tuple("" if prefix == "/" else prefix + "/" for prefix in mobile_prefixes)
        for proc in config.processes:
            self.subject_levels[proc.pid] = _LOW if proc.pid in low_pids else _HIGH
        for f in config.files:
            self._register(f.fid, f.path, _LOW if self._under_prefix(f.path) else _HIGH)
        self._low_pids = low_pids

    def _prescan(self, trace: Trace, users: dict[str, bool]) -> tuple[set[int], set[str]]:
        """Entrance-mirroring initial assignment: which pids ever face the
        network or an untrusted login, and which prefixes ever mount."""
        low_pids: set[int] = set()
        prefixes: set[str] = set()
        for ev in trace.events:
            kind = type(ev)
            if kind is RemoteComm:
                if not ev.peer_address.startswith(LOOPBACK_PREFIXES):
                    low_pids.add(ev.pid)
            elif kind is Login:
                if not users.get(ev.user):
                    low_pids.add(ev.pid)
            elif kind is Mount:
                prefixes.add(ev.path_prefix)
        return low_pids, prefixes

    # -- helpers ----------------------------------------------------------------

    def _create(self, seq: int, subject: IntegrityLevel, fid: int, path: str) -> bool:
        """The fresh-file step of Create and of a copy to a fresh path at
        level ``subject``: register the file at its birth level, and say
        whether the write on its parent is refused."""
        parent_fid = self._fid_by_path.get(_parent_path(path))
        if parent_fid is None:
            raise TraceError(seq, f"parent directory of {path!r} does not exist")
        denied = subject is _LOW and self.object_levels[parent_fid] is _HIGH
        mounts = self._mounts
        self._register(fid, path, _LOW if mounts and under_live_mount(mounts, path) else subject)
        return denied

    def _register(self, fid: int, path: str, level: IntegrityLevel) -> None:
        self.object_levels[fid] = level
        self._fid_by_path[path] = fid
        if level is _HIGH and self._under_prefix(path):
            for prefix, high in self._high_below.items():
                if _covers(prefix, path):
                    high.append(fid)

    def _under_prefix(self, path: str) -> bool:
        """Whether a prefix the trace mounts covers ``path``, as ``_covers``
        says: the path is the prefix or lies below it."""
        return path in self._high_below or path.startswith(self._below)

    # -- the step rule -------------------------------------------------------------

    def step(self, ev: Event) -> Decision:
        """Decide one event by its kind's handler."""
        handler = self._handlers.get(type(ev))
        if handler is None:
            raise TraceError(ev.seq, f"unknown event kind {type(ev).__name__}")
        return handler(self, ev)

    def _on_read(self, ev: Read | Exec) -> Decision:
        # Exec reads the binary, so the subject's level drops with it.
        subject = self.subject_levels.get(ev.pid)
        if subject is None:
            raise _unknown(ev.seq, "pid", ev.pid)
        obj = self.object_levels.get(ev.fid)
        if obj is None:
            raise _unknown(ev.seq, "fid", ev.fid)
        if obj is _LOW and subject is _HIGH:
            self.subject_levels[ev.pid] = _LOW
        return ALLOW

    def _on_write(self, ev: Write) -> Decision:
        subject = self.subject_levels.get(ev.pid)
        if subject is None:
            raise _unknown(ev.seq, "pid", ev.pid)
        obj = self.object_levels.get(ev.fid)
        if obj is None:
            raise _unknown(ev.seq, "fid", ev.fid)
        return _WRITE_DENIED if subject is _LOW and obj is _HIGH else ALLOW

    def _on_create(self, ev: Create) -> Decision:
        subject = self.subject_levels.get(ev.pid)
        if subject is None:
            raise _unknown(ev.seq, "pid", ev.pid)
        return _WRITE_DENIED if self._create(ev.seq, subject, ev.new_fid, ev.path) else ALLOW

    def _on_copy(self, ev: Copy) -> Decision:
        subject = self.subject_levels.get(ev.pid)
        if subject is None:
            raise _unknown(ev.seq, "pid", ev.pid)
        src = self.object_levels.get(ev.src_fid)
        if src is None:
            raise _unknown(ev.seq, "fid", ev.src_fid)
        dropped = subject if subject is _LOW else src
        dst = self.object_levels.get(ev.dst_fid)
        if dst is None:
            denied = self._create(ev.seq, dropped, ev.dst_fid, ev.dst_path)
        else:
            denied = dropped is _LOW and dst is _HIGH
        if denied:
            return _WRITE_DENIED
        self.subject_levels[ev.pid] = dropped
        return ALLOW

    def _on_fork(self, ev: Fork) -> Decision:
        subject_levels = self.subject_levels
        parent = subject_levels.get(ev.parent_pid)
        if parent is None:
            raise _unknown(ev.seq, "pid", ev.parent_pid)
        pid = ev.child_pid
        if pid in subject_levels:
            raise TraceError(ev.seq, f"pid {pid} already live")
        subject_levels[pid] = _LOW if pid in self._low_pids else parent
        return ALLOW

    def _on_priv_op(self, ev: PrivOp) -> Decision:
        subject = self.subject_levels.get(ev.pid)
        if subject is None:
            raise _unknown(ev.seq, "pid", ev.pid)
        return _PRIV_DENIED if subject is _LOW else ALLOW

    def _on_mount(self, ev: Mount) -> Decision:
        self._mounts[ev.mount_id] = ev.path_prefix
        high = self._high_below.get(ev.path_prefix, [])
        self.object_levels.update(dict.fromkeys(high, _LOW))
        high.clear()
        return ALLOW

    def _on_unmount(self, ev: Unmount) -> Decision:
        self._mounts.pop(ev.mount_id, None)
        return ALLOW

    def _on_entrance(self, ev: RemoteComm | Login) -> Decision:
        if ev.pid not in self.subject_levels:
            raise _unknown(ev.seq, "pid", ev.pid)
        return ALLOW

    def _on_ipc(self, ev: Ipc) -> Decision:
        subject_levels = self.subject_levels
        if ev.from_pid not in subject_levels:
            raise _unknown(ev.seq, "pid", ev.from_pid)
        if ev.to_pid not in subject_levels:
            raise _unknown(ev.seq, "pid", ev.to_pid)
        return ALLOW

    _handlers = {
        Fork: _on_fork,
        Exec: _on_read,
        RemoteComm: _on_entrance,
        Login: _on_entrance,
        Mount: _on_mount,
        Unmount: _on_unmount,
        Copy: _on_copy,
        Create: _on_create,
        Write: _on_write,
        Read: _on_read,
        Ipc: _on_ipc,
        PrivOp: _on_priv_op,
    }
    """Per event kind, the rule that decides it, called as ``handler(self,
    event)``; at class level, like ``Engine._handlers``, so that an engine
    holds no reference cycle."""


# -- side-by-side comparison ----------------------------------------------------


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
    rows joined per write; ``seq`` is written as in a decision row."""
    heads, tail, non_int = _VERDICT_ROW_JSON, _ITEM + "}", _non_int_json
    for start in range(0, len(events), _BLOCK_ROWS):
        block = zip(events[start : start + _BLOCK_ROWS], verdicts[start : start + _BLOCK_ROWS])
        write(("," if start else "[") + ",".join(
            f"{heads[type(ev), cumac, lwm]}{v if type(v := ev.seq) is int else non_int(v)}{tail}"
            for ev, (cumac, lwm) in block
        ))
    write("\n  ]" if events else "[]")


@dataclass(slots=True)
class ComparisonReport(StructuredReport):
    """Per-event verdicts of both engines plus the denial-set difference.

    On a benign-labelled trace every denial is a false negative (a benign
    access wrongly refused); on an attack-labelled trace denials of the
    critical steps are true positives.
    """

    label: str
    events: list[Event]
    verdicts: list[tuple[Verdict, Verdict]]
    """Per event, the tracing engine's verdict and the baseline's, as one
    of the nine shared pairs of ``_VERDICT_PAIRS``."""
    lwm_only: list[int] = field(default_factory=list)
    both: list[int] = field(default_factory=list)
    cumac_only: list[int] = field(default_factory=list)

    @property
    def event_count(self) -> int:
        return len(self.events)

    @property
    def cumac_deny_count(self) -> int:
        return len(self.both) + len(self.cumac_only)

    @property
    def lwm_deny_count(self) -> int:
        return len(self.both) + len(self.lwm_only)

    def to_structured(self) -> dict[str, Any]:
        """The report's sections but its per-event rows."""
        classification = (
            "denials are false negatives (benign work refused)"
            if self.label == "benign"
            else "denials are true positives (attack steps refused)"
        )
        return {
            "summary": {
                "label": self.label,
                "events": self.event_count,
                "classification": classification,
                "cumac_denials": self.cumac_deny_count,
                "lwm_denials": self.lwm_deny_count,
            },
            "differences": {
                "lwm_only": list(self.lwm_only),
                "both": list(self.both),
                "cumac_only": list(self.cumac_only),
            },
            "notes": MAPPING_NOTES,
        }

    def write_json(self, stream: TextIO) -> None:
        """Stream the structured report into ``stream``, a ``rows`` entry
        of ``seq``, ``event``, ``cumac`` and ``lwm`` verdict per event."""
        rows = partial(_write_verdict_rows_json, self.events, self.verdicts)
        write_document(stream, {**self.to_structured(), "rows": rows})

    def to_text(self) -> str:
        lines = [
            f"label: {self.label}",
            f"events: {self.event_count}",
            f"cumac denials: {self.cumac_deny_count}",
            f"lwm denials: {self.lwm_deny_count}",
            f"denied by lwm only (cumac compatibility wins): {self.lwm_only or 'none'}",
            f"denied by both: {self.both or 'none'}",
            f"denied by cumac only: {self.cumac_only or 'none'}",
            f"note: {MAPPING_NOTES}",
        ]
        return "\n".join(lines) + "\n"


def compare(
    trace: Trace,
    store: ExceptionStore | None = None,
    config: TraceHeader | None = None,
) -> ComparisonReport:
    """Run the tracing engine and the low-water-mark baseline over the
    same trace and diff their denials. Both start from ``config``, by
    default the trace's header.

    The tracing engine runs Unsecure: it enforces the supplied store, one
    just filled by learning too, and writes nothing to it. A missing store
    means an empty one. The cyclic garbage collector is paused while both
    engines step, as in ``replay``, and left as it was found. Neither
    engine holds a reference cycle, so both are freed by reference
    counting at the return; the report keeps one reference per event to
    a shared verdict pair, so the caller's next allocation usually runs
    the collection that the pause deferred (``trace.collector_paused``)."""
    if store is None:
        store = ExceptionStore()
    config = config or trace.header
    with collector_paused():
        cumac_engine = Engine(config, store)
        lwm_engine = LwmEngine(trace, config)
        verdicts: list[tuple[Verdict, Verdict]] = []
        lwm_only: list[int] = []
        both: list[int] = []
        cumac_only: list[int] = []
        cumac_step, lwm_step = cumac_engine.step, lwm_engine.step
        append_verdicts = verdicts.append
        deny = Verdict.DENY
        pairs = _VERDICT_PAIRS
        for ev in trace.events:
            cumac_verdict = cumac_step(ev).verdict
            lwm_verdict = lwm_step(ev).verdict
            append_verdicts(pairs[cumac_verdict, lwm_verdict])
            cumac_denied = cumac_verdict is deny
            lwm_denied = lwm_verdict is deny
            if cumac_denied and lwm_denied:
                both.append(ev.seq)
            elif lwm_denied:
                lwm_only.append(ev.seq)
            elif cumac_denied:
                cumac_only.append(ev.seq)
    return ComparisonReport(
        label=trace.header.label,
        events=trace.events,
        verdicts=verdicts,
        lwm_only=lwm_only,
        both=both,
        cumac_only=cumac_only,
    )
