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
* Create checks the parent directory's level and the new object adopts
  the creator's level (Low when created under a live mobile mount).
* Copy is read-then-write: the subject's level first drops to the
  source's, then the write/create check runs against the destination.
* Denials are inert, matching the tracing engine's discipline, except that
  a refused create, and a refused copy to a fresh path, still registers
  the object under the id its event carries, at the level it would have
  been born with, so that later references to it resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import partial
from typing import Any, TextIO

from .engine import Engine, EngineConfig
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
from .replay import StructuredReport, _write_verdict_rows_json, write_document
from .store import ExceptionStore
from .trace import Trace, collector_paused

MAPPING_NOTES = (
    "low-water-mark mapping: initial levels mirror intrusion entrances"
    " (mobile-mount files and remote-facing or untrusted-login processes start Low);"
    " privileged operations count as writes to a notional High object;"
    " exec counts as a read of the binary."
)


class IntegrityLevel(IntEnum):
    LOW = 0
    HIGH = 1


class LwmEngine:
    """Two-level low-water-mark engine driven by the shared event types.

    An engine serves the trace it was built from: it reads that trace's
    mounts ahead, and a Mount of a prefix the trace never mounts relabels
    nothing."""

    def __init__(self, trace: Trace, config: EngineConfig | None = None):
        self.config = config or EngineConfig.from_trace(trace)
        self.subject_levels: dict[int, IntegrityLevel] = {}
        self.object_levels: dict[int, IntegrityLevel] = {}
        self._fid_by_path: dict[str, int] = {}
        self._mounts: dict[int, str] = {}

        low_pids, mobile_prefixes = self._prescan(trace)
        # Per prefix the trace mounts, the High files under it that its next
        # Mount makes Low. Levels never rise, so a Mount empties its list.
        self._high_below: dict[str, list[int]] = {prefix: [] for prefix in mobile_prefixes}
        for proc in trace.header.processes:
            level = IntegrityLevel.LOW if proc.pid in low_pids else IntegrityLevel.HIGH
            self.subject_levels[proc.pid] = level
        for f in trace.header.files:
            mobile = any(_covers(prefix, f.path) for prefix in mobile_prefixes)
            level = IntegrityLevel.LOW if mobile else IntegrityLevel.HIGH
            self._register(f.fid, f.path, level)
        self._low_pids = low_pids
        self._handlers = {
            Fork: self._on_fork,
            Exec: self._on_read,
            RemoteComm: self._on_entrance,
            Login: self._on_entrance,
            Mount: self._on_mount,
            Unmount: self._on_unmount,
            Copy: self._on_copy,
            Create: self._on_create,
            Write: self._on_write,
            Read: self._on_read,
            Ipc: self._on_ipc,
            PrivOp: self._on_priv_op,
        }

    def _prescan(self, trace: Trace) -> tuple[set[int], set[str]]:
        """Entrance-mirroring initial assignment: which pids ever face the
        network or an untrusted login, and which prefixes ever mount."""
        low_pids: set[int] = set()
        prefixes: set[str] = set()
        users = self.config.users
        for ev in trace.events:
            kind = type(ev)
            if kind is RemoteComm:
                if not ev.peer_address.startswith(LOOPBACK_PREFIXES):
                    low_pids.add(ev.pid)
            elif kind is Login:
                user = users.get(ev.user)
                if user is None or not user.trusted:
                    low_pids.add(ev.pid)
            elif kind is Mount:
                prefixes.add(ev.path_prefix)
        return low_pids, prefixes

    # -- helpers ----------------------------------------------------------------

    def _need_subject(self, seq: int, pid: int) -> IntegrityLevel:
        level = self.subject_levels.get(pid)
        if level is None:
            raise TraceError(seq, f"unknown pid {pid}")
        return level

    def _need_object(self, seq: int, fid: int) -> IntegrityLevel:
        level = self.object_levels.get(fid)
        if level is None:
            raise TraceError(seq, f"unknown fid {fid}")
        return level

    def _birth_level(self, subject: IntegrityLevel, path: str) -> IntegrityLevel:
        if under_live_mount(self._mounts, path):
            return IntegrityLevel.LOW
        return subject

    def _register(self, fid: int, path: str, level: IntegrityLevel) -> None:
        self.object_levels[fid] = level
        self._fid_by_path[path] = fid
        if level is IntegrityLevel.HIGH:
            prefix = path
            while True:
                high = self._high_below.get(prefix)
                if high is not None:
                    high.append(fid)
                if prefix == "/":
                    break
                prefix = _parent_path(prefix)

    # -- the step rule -------------------------------------------------------------

    def step(self, ev: Event) -> Decision:
        """Decide one event by its kind's handler."""
        handler = self._handlers.get(type(ev))
        if handler is None:
            raise TraceError(ev.seq, f"unknown event kind {type(ev).__name__}")
        return handler(ev)

    def _on_read(self, ev: Read | Exec) -> Decision:
        # Exec reads the binary, so the subject's level drops with it.
        subject = self._need_subject(ev.seq, ev.pid)
        obj = self._need_object(ev.seq, ev.fid)
        if obj < subject:
            self.subject_levels[ev.pid] = obj
        return ALLOW

    def _on_write(self, ev: Write) -> Decision:
        subject = self._need_subject(ev.seq, ev.pid)
        obj = self._need_object(ev.seq, ev.fid)
        return DENIED[DenyReason.INTEGRITY_WRITE] if subject < obj else ALLOW

    def _on_create(self, ev: Create) -> Decision:
        subject = self._need_subject(ev.seq, ev.pid)
        parent = self._parent_level(ev.seq, ev.path)
        denied = subject < parent
        # Register the object either way so later references resolve.
        self._register(ev.new_fid, ev.path, self._birth_level(subject, ev.path))
        return DENIED[DenyReason.INTEGRITY_WRITE] if denied else ALLOW

    def _on_copy(self, ev: Copy) -> Decision:
        subject = self._need_subject(ev.seq, ev.pid)
        src = self._need_object(ev.seq, ev.src_fid)
        dropped = min(subject, src)
        dst = self.object_levels.get(ev.dst_fid)
        if dst is None:
            # A fresh destination is registered either way, as for Create.
            denied = dropped < self._parent_level(ev.seq, ev.dst_path)
            self._register(ev.dst_fid, ev.dst_path, self._birth_level(dropped, ev.dst_path))
        else:
            denied = dropped < dst
        if denied:
            return DENIED[DenyReason.INTEGRITY_WRITE]
        self.subject_levels[ev.pid] = dropped
        return ALLOW

    def _on_fork(self, ev: Fork) -> Decision:
        parent = self._need_subject(ev.seq, ev.parent_pid)
        if ev.child_pid in self.subject_levels:
            raise TraceError(ev.seq, f"pid {ev.child_pid} already live")
        level = parent
        if ev.child_pid in self._low_pids:
            level = IntegrityLevel.LOW
        self.subject_levels[ev.child_pid] = level
        return ALLOW

    def _on_priv_op(self, ev: PrivOp) -> Decision:
        subject = self._need_subject(ev.seq, ev.pid)
        return DENIED[DenyReason.PRIVILEGED_OP] if subject < IntegrityLevel.HIGH else ALLOW

    def _on_mount(self, ev: Mount) -> Decision:
        self._mounts[ev.mount_id] = ev.path_prefix
        high = self._high_below.get(ev.path_prefix, [])
        self.object_levels.update(dict.fromkeys(high, IntegrityLevel.LOW))
        high.clear()
        return ALLOW

    def _on_unmount(self, ev: Unmount) -> Decision:
        self._mounts.pop(ev.mount_id, None)
        return ALLOW

    def _on_entrance(self, ev: RemoteComm | Login) -> Decision:
        self._need_subject(ev.seq, ev.pid)
        return ALLOW

    def _on_ipc(self, ev: Ipc) -> Decision:
        self._need_subject(ev.seq, ev.from_pid)
        self._need_subject(ev.seq, ev.to_pid)
        return ALLOW

    def _parent_level(self, seq: int, path: str) -> IntegrityLevel:
        parent_fid = self._fid_by_path.get(_parent_path(path))
        if parent_fid is None:
            raise TraceError(seq, f"parent directory of {path!r} does not exist")
        return self.object_levels[parent_fid]


# -- side-by-side comparison ----------------------------------------------------


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
    """Per event, the tracing engine's verdict and the baseline's."""
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
    config: EngineConfig | None = None,
) -> ComparisonReport:
    """Run the tracing engine and the low-water-mark baseline over the
    same trace and diff their denials.

    The tracing engine runs Unsecure: it enforces the supplied store, one
    just filled by learning too, and writes nothing to it. A missing store
    means an empty one. The cyclic garbage collector is paused while both
    engines step, as in ``replay``, and left as it was found."""
    if store is None:
        store = ExceptionStore()
    config = config or EngineConfig.from_trace(trace)
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
        for ev in trace.events:
            cumac_verdict = cumac_step(ev).verdict
            lwm_verdict = lwm_step(ev).verdict
            append_verdicts((cumac_verdict, lwm_verdict))
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
