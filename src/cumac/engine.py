"""The deterministic access-control state machine.

An intrusion runs through three phases: it enters (remote communication,
mobile-storage mounts, untrusted logins), it spreads (fork, exec, IPC,
writes to executables), and it attempts a security-critical operation
(privileged capability, write to an integrity-protected file, read of a
sensitivity-protected file). Entrance and spread events are always allowed
but tracked by tainting; only critical operations by tainted processes are
refused, unless the exception store authorizes them or the environment
bit says Secure, in which case they are permitted and recorded.

Rules that are deliberate choices rather than forced ones:

* Verdicts are computed against pre-event state, and denied events mutate
  nothing, so a decision log replays exactly.
* IPC taint flows with the data: one way for pipes, signals and local
  sockets, both ways for shared memory.
* Reads never propagate taint.
* Exception-allowed operations still propagate taint.
* Creating a file mediates a write on its parent directory (directories
  have exception lists, so directory writes are checkable).
* A mobile-mount executable becomes tainted the moment it is exec'd, and
  a copy off a mobile mount taints the (executable) destination; mounting
  alone rewrites no labels. A file counts as mobile when its path sits
  under a live mount at the moment it is created or used; once observed
  mobile it stays flagged (``FileRecord.on_mobile_mount`` memoizes the
  observation), but a file untouched for the whole mount window is plain
  local again after the unmount (physically it was never reachable).
* A created file takes the id its event carries (``Create.new_fid``,
  ``Copy.dst_fid``). The trace parser allocates those ids, one per create
  and per copy to a fresh path, allowed or not, so ids never depend on the
  exception store's contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError, TraceError
from .model import (
    ALLOW,
    Copy,
    Create,
    Decision,
    DenyReason,
    Event,
    ExceptionKind,
    Exec,
    FileRecord,
    Fork,
    Ipc,
    IpcChannel,
    Login,
    Mount,
    PermissionBits,
    PrivOp,
    ProcessRecord,
    Read,
    RemoteComm,
    TaintState,
    TaintUpdate,
    Unmount,
    UserRecord,
    Verdict,
    Write,
    _covers,
    executable,
    file_entity,
    is_integrity_protected,
    is_sensitivity_protected,
    proc_entity,
    under_live_mount,
)
from .store import AccessMode, EnvironmentBit, ExceptionStore

DEFAULT_LOOPBACK_PREFIXES = ("127.", "::1")

_PI = TaintState.POTENTIAL_INTRUSION
_NI = TaintState.NON_INTRUSION

# Mediation outcomes carry no taint updates and decisions are immutable, so
# each is built (and validated) once and shared by every event it decides.
_DENIED = {
    reason: Decision(Verdict.DENY, reason)
    for reason in DenyReason
    if reason is not DenyReason.NONE
}
_BY_FILE_EXCEPTION = {
    reason: Decision(Verdict.ALLOW_BY_EXCEPTION, reason, ExceptionKind.FILE_LIST)
    for reason in (DenyReason.INTEGRITY_WRITE, DenyReason.SENSITIVITY_READ)
}
_BY_PRIV_EXCEPTION = Decision(
    Verdict.ALLOW_BY_EXCEPTION, DenyReason.PRIVILEGED_OP, ExceptionKind.PRIVILEGE_LIST
)


@dataclass(slots=True)
class EngineConfig:
    """Initial snapshot and policy knobs for one engine run.

    The snapshot must be internally consistent (unique ids and paths) and
    start clean: no seed may carry a potential-intrusion label.
    """

    users: dict[str, UserRecord] = field(default_factory=dict)
    files: list[FileRecord] = field(default_factory=list)
    processes: list[ProcessRecord] = field(default_factory=list)
    loopback_prefixes: tuple[str, ...] = DEFAULT_LOOPBACK_PREFIXES

    @classmethod
    def from_trace(cls, trace, trusted_users: set[str] | None = None) -> "EngineConfig":
        """Build a config from a parsed trace header.

        When ``trusted_users`` is given it overrides the header's trust
        flags entirely: exactly the listed names are trusted, and listed
        names missing from the header are added as known users.
        """
        header = trace.header
        users = {u.name: UserRecord(u.name, u.trusted) for u in header.users}
        if trusted_users is not None:
            for user in users.values():
                user.trusted = user.name in trusted_users
            for name in trusted_users:
                users.setdefault(name, UserRecord(name, True))
        return cls(users=users, files=list(header.files), processes=list(header.processes))

    def validate(self) -> None:
        seen_pids: set[int] = set()
        for proc in self.processes:
            if proc.pid in seen_pids:
                raise ConfigError(f"duplicate pid {proc.pid} in initial processes")
            seen_pids.add(proc.pid)
            if proc.taint is not _NI:
                raise ConfigError(f"seed process {proc.pid} must start non-intrusion")
            if proc.user not in self.users:
                raise ConfigError(f"seed process {proc.pid} names unknown user {proc.user!r}")
        seen_fids: set[int] = set()
        seen_paths: set[str] = set()
        for f in self.files:
            if f.fid in seen_fids:
                raise ConfigError(f"duplicate fid {f.fid} in initial snapshot")
            seen_fids.add(f.fid)
            if f.path in seen_paths:
                raise ConfigError(f"duplicate path {f.path!r} in initial snapshot")
            seen_paths.add(f.path)
            if f.taint is not _NI:
                raise ConfigError(f"seed file {f.fid} must start non-intrusion")


def _parent_path(path: str) -> str:
    head = path.rsplit("/", 1)[0]
    return head if head else "/"


class Engine:
    """Applies one event at a time, emits a Decision per event, and keeps
    the append-only decision log.

    One instance is single-threaded; distinct instances may run in
    parallel. The environment bit lives on the exception store.
    """

    __slots__ = (
        "config",
        "store",
        "processes",
        "files",
        "mounts",
        "_logged_events",
        "_decisions",
        "_files_by_path",
        "_handlers",
    )

    def __init__(self, config: EngineConfig, store: ExceptionStore):
        config.validate()
        self.config = config
        self.store = store
        self.processes: dict[int, ProcessRecord] = {}
        self.files: dict[int, FileRecord] = {}
        self._files_by_path: dict[str, int] = {}
        self.mounts: dict[int, str] = {}
        # The decision log, kept as two parallel lists so that a step stores
        # two references rather than allocating a pair that lives as long
        # as the engine.
        self._logged_events: list[Event] = []
        self._decisions: list[Decision] = []
        for proc in config.processes:
            self.processes[proc.pid] = replace(proc)
        for f in config.files:
            rec = replace(f)
            self.files[rec.fid] = rec
            self._files_by_path[rec.path] = rec.fid
        self._handlers = {
            Fork: self._on_fork,
            Exec: self._on_exec,
            RemoteComm: self._on_remote_comm,
            Login: self._on_login,
            Mount: self._on_mount,
            Unmount: self._on_unmount,
            Copy: self._on_copy,
            Create: self._on_create,
            Write: self._on_write,
            Read: self._on_read,
            Ipc: self._on_ipc,
            PrivOp: self._on_priv_op,
        }

    def step(self, event: Event) -> Decision:
        """Apply one event: decide against pre-event state, mutate only on
        non-deny verdicts, append to the decision log."""
        handler = self._handlers.get(type(event))
        if handler is None:
            raise TraceError(event.seq, f"unknown event kind {type(event).__name__}")
        decision = handler(event)
        self._logged_events.append(event)
        self._decisions.append(decision)
        return decision

    @property
    def decision_log(self) -> list[tuple[Event, Decision]]:
        """Every applied event with its decision, in order (a new list on
        each access)."""
        return list(zip(self._logged_events, self._decisions))

    def tainted_entities(self) -> set[str]:
        tainted = {proc_entity(p.pid) for p in self.processes.values() if p.taint is _PI}
        tainted.update(file_entity(f.fid) for f in self.files.values() if f.taint is _PI)
        return tainted

    # -- lookups -------------------------------------------------------------

    def _need_proc(self, seq: int, pid: int) -> ProcessRecord:
        proc = self.processes.get(pid)
        if proc is None:
            raise TraceError(seq, f"unknown pid {pid}")
        return proc

    def _need_file(self, seq: int, fid: int) -> FileRecord:
        f = self.files.get(fid)
        if f is None:
            raise TraceError(seq, f"unknown fid {fid}")
        return f

    # -- taint plumbing --------------------------------------------------------

    @staticmethod
    def _taint_proc(proc: ProcessRecord, updates: list[TaintUpdate]) -> None:
        if proc.taint is _NI:
            proc.taint = _PI
            updates.append((proc_entity(proc.pid), _NI, _PI))

    @staticmethod
    def _taint_file(f: FileRecord, updates: list[TaintUpdate]) -> None:
        if f.taint is _NI:
            f.taint = _PI
            updates.append((file_entity(f.fid), _NI, _PI))

    # -- critical-operation mediation ---------------------------------------------
    #
    # Both helpers are reached only for deny candidates (tainted process,
    # protected target). Secure environment: permit and record. Unsecure:
    # permit when the store already lists the access, refuse otherwise.

    def _mediate_file(
        self, proc: ProcessRecord, f: FileRecord, mode: AccessMode, reason: DenyReason
    ) -> Decision:
        store = self.store
        if store.bit is EnvironmentBit.SECURE:
            store.record_file_exception(proc.key, f.fid, mode)
            return ALLOW
        if store.check_file_exception(proc.key, f.fid, mode):
            return _BY_FILE_EXCEPTION[reason]
        return _DENIED[reason]

    def _mediate_priv(self, proc: ProcessRecord, capability: str) -> Decision:
        store = self.store
        if store.bit is EnvironmentBit.SECURE:
            store.record_priv_exception(proc.key, capability)
            return ALLOW
        if store.check_priv_exception(proc.key, capability):
            return _BY_PRIV_EXCEPTION
        return _DENIED[DenyReason.PRIVILEGED_OP]

    # -- event rules ------------------------------------------------------------

    def _on_fork(self, ev: Fork) -> Decision:
        parent = self._need_proc(ev.seq, ev.parent_pid)
        if ev.child_pid in self.processes:
            raise TraceError(ev.seq, f"pid {ev.child_pid} already live")
        child = ProcessRecord(
            pid=ev.child_pid,
            key=parent.key,
            taint=parent.taint,
            user=parent.user,
            parent=parent.pid,
        )
        self.processes[ev.child_pid] = child
        if child.taint is _PI:
            return Decision(Verdict.ALLOW, taint_updates=((proc_entity(child.pid), _NI, _PI),))
        return ALLOW

    def _on_exec(self, ev: Exec) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        f = self._need_file(ev.seq, ev.fid)
        if not executable(f):
            raise TraceError(ev.seq, f"fid {ev.fid} is not executable")
        mobile = self.file_on_mobile_mount(f)
        taints_proc = f.taint is _PI or mobile or proc.taint is _PI
        proc.key = f.fid
        if not taints_proc:
            return ALLOW
        updates: list[TaintUpdate] = []
        if mobile:
            # The mobile executable is the entrance entity itself.
            self._taint_file(f, updates)
        self._taint_proc(proc, updates)
        if not updates:
            return ALLOW
        return Decision(Verdict.ALLOW, taint_updates=tuple(updates))

    def _on_remote_comm(self, ev: RemoteComm) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        peer = ev.peer_address
        for prefix in self.config.loopback_prefixes:
            if peer.startswith(prefix):
                return ALLOW
        if proc.taint is _PI:
            return ALLOW
        updates: list[TaintUpdate] = []
        self._taint_proc(proc, updates)
        return Decision(Verdict.ALLOW, taint_updates=tuple(updates))

    def _on_login(self, ev: Login) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        user = self.config.users.get(ev.user)
        if user is None:
            raise TraceError(ev.seq, f"unknown user {ev.user!r}")
        proc.user = user.name
        if user.trusted or proc.taint is _PI:
            return ALLOW
        updates: list[TaintUpdate] = []
        self._taint_proc(proc, updates)
        return Decision(Verdict.ALLOW, taint_updates=tuple(updates))

    def _on_mount(self, ev: Mount) -> Decision:
        if ev.mount_id in self.mounts:
            raise TraceError(ev.seq, f"mount id {ev.mount_id} already live")
        prefix = ev.path_prefix
        for live in self.mounts.values():
            if _covers(live, prefix) or _covers(prefix, live):
                raise TraceError(
                    ev.seq, f"mount prefix {prefix!r} overlaps live mount {live!r}"
                )
        self.mounts[ev.mount_id] = prefix
        return ALLOW

    def _on_unmount(self, ev: Unmount) -> Decision:
        if ev.mount_id not in self.mounts:
            raise TraceError(ev.seq, f"mount id {ev.mount_id} not live")
        # Observed mobile flags stay set; what was used off the mount stays suspect.
        del self.mounts[ev.mount_id]
        return ALLOW

    def file_on_mobile_mount(self, f: FileRecord) -> bool:
        """Whether a file counts as mobile-storage content right now; the
        observation is memoized on the record."""
        if f.on_mobile_mount:
            return True
        if self.mounts and under_live_mount(self.mounts, f.path):
            f.on_mobile_mount = True
            return True
        return False

    def _on_copy(self, ev: Copy) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        src = self._need_file(ev.seq, ev.src_fid)
        # Pre-state mobility; memoized further down only if the copy is
        # allowed (denied events must leave no mark anywhere).
        src_mobile = src.on_mobile_mount or (
            bool(self.mounts) and under_live_mount(self.mounts, src.path)
        )
        dst = self.files.get(ev.dst_fid)
        tainted = proc.taint is _PI

        if dst is None:
            if ev.dst_path in self._files_by_path:
                raise TraceError(ev.seq, f"path {ev.dst_path!r} already exists")
            parent = self._lookup_parent(ev.seq, ev.dst_path)
            decision = ALLOW
            if tainted and is_integrity_protected(parent):
                decision = self._mediate_file(
                    proc, parent, AccessMode.WRITE, DenyReason.INTEGRITY_WRITE
                )
            if decision.verdict is Verdict.DENY:
                return decision
            dst = self._register_file(
                fid=ev.dst_fid,
                path=ev.dst_path,
                perms=PermissionBits.parse(ev.dst_perms),
                owner=ev.dst_owner,
                is_directory=src.is_directory,
            )
        else:
            if dst.path != ev.dst_path:
                raise TraceError(
                    ev.seq, f"fid {ev.dst_fid} names {dst.path!r}, not {ev.dst_path!r}"
                )
            decision = ALLOW
            if tainted and is_integrity_protected(dst):
                decision = self._mediate_file(
                    proc, dst, AccessMode.WRITE, DenyReason.INTEGRITY_WRITE
                )
            if decision.verdict is Verdict.DENY:
                return decision

        if src_mobile:
            src.on_mobile_mount = True

        if executable(dst) and (src_mobile or src.taint is _PI or tainted):
            updates: list[TaintUpdate] = []
            self._taint_file(dst, updates)
            if updates:
                if decision.verdict is Verdict.ALLOW_BY_EXCEPTION:
                    return Decision(
                        decision.verdict,
                        decision.reason,
                        decision.exception_kind,
                        tuple(updates),
                    )
                return Decision(Verdict.ALLOW, taint_updates=tuple(updates))
        return decision

    def _on_create(self, ev: Create) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        if ev.path in self._files_by_path:
            raise TraceError(ev.seq, f"path {ev.path!r} already exists")
        if ev.new_fid in self.files:
            raise TraceError(ev.seq, f"fid {ev.new_fid} already live")
        parent = self._lookup_parent(ev.seq, ev.path)
        decision = ALLOW
        if proc.taint is _PI and is_integrity_protected(parent):
            decision = self._mediate_file(
                proc, parent, AccessMode.WRITE, DenyReason.INTEGRITY_WRITE
            )
        if decision.verdict is Verdict.DENY:
            return decision
        new = self._register_file(
            fid=ev.new_fid,
            path=ev.path,
            perms=PermissionBits.parse(ev.perms),
            owner=ev.owner,
            is_directory=ev.is_directory,
        )
        if proc.taint is _PI and executable(new):
            updates: list[TaintUpdate] = []
            self._taint_file(new, updates)
            if decision.verdict is Verdict.ALLOW_BY_EXCEPTION:
                return Decision(
                    decision.verdict, decision.reason, decision.exception_kind, tuple(updates)
                )
            return Decision(Verdict.ALLOW, taint_updates=tuple(updates))
        return decision

    def _on_write(self, ev: Write) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        f = self._need_file(ev.seq, ev.fid)
        if proc.taint is not _PI:
            return ALLOW
        decision = ALLOW
        if is_integrity_protected(f):
            decision = self._mediate_file(
                proc, f, AccessMode.WRITE, DenyReason.INTEGRITY_WRITE
            )
            if decision.verdict is Verdict.DENY:
                return decision
        if executable(f) and f.taint is _NI:
            updates: list[TaintUpdate] = []
            self._taint_file(f, updates)
            if decision.verdict is Verdict.ALLOW_BY_EXCEPTION:
                return Decision(
                    decision.verdict, decision.reason, decision.exception_kind, tuple(updates)
                )
            return Decision(Verdict.ALLOW, taint_updates=tuple(updates))
        return decision

    def _on_read(self, ev: Read) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        f = self._need_file(ev.seq, ev.fid)
        if proc.taint is _PI and is_sensitivity_protected(f):
            return self._mediate_file(
                proc, f, AccessMode.READ, DenyReason.SENSITIVITY_READ
            )
        return ALLOW

    def _on_ipc(self, ev: Ipc) -> Decision:
        if ev.from_pid == ev.to_pid:
            raise TraceError(ev.seq, f"ipc endpoints must differ (pid {ev.from_pid})")
        sender = self._need_proc(ev.seq, ev.from_pid)
        receiver = self._need_proc(ev.seq, ev.to_pid)
        updates: list[TaintUpdate] = []
        if ev.channel is IpcChannel.SHARED_MEMORY:
            if sender.taint is _PI or receiver.taint is _PI:
                self._taint_proc(sender, updates)
                self._taint_proc(receiver, updates)
        elif sender.taint is _PI:
            self._taint_proc(receiver, updates)
        if not updates:
            return ALLOW
        return Decision(Verdict.ALLOW, taint_updates=tuple(updates))

    def _on_priv_op(self, ev: PrivOp) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        if proc.taint is not _PI:
            return ALLOW
        return self._mediate_priv(proc, ev.capability)

    # -- filesystem bookkeeping ---------------------------------------------------

    def _lookup_parent(self, seq: int, path: str) -> FileRecord:
        parent_fid = self._files_by_path.get(_parent_path(path))
        if parent_fid is None:
            raise TraceError(seq, f"parent directory of {path!r} does not exist")
        parent = self.files[parent_fid]
        if not parent.is_directory:
            raise TraceError(seq, f"parent of {path!r} is not a directory")
        return parent

    def _register_file(
        self, fid: int, path: str, perms: PermissionBits, owner: str, is_directory: bool
    ) -> FileRecord:
        rec = FileRecord(
            fid=fid,
            path=path,
            perms=perms,
            owner=owner,
            is_directory=is_directory,
            on_mobile_mount=under_live_mount(self.mounts, path),
        )
        self.files[fid] = rec
        self._files_by_path[path] = fid
        return rec
