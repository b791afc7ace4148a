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

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter, is_

from .errors import ConfigError, TraceError
from .model import (
    ALLOW,
    BY_EXCEPTION,
    DENIED,
    LOOPBACK_PREFIXES,
    Copy,
    Create,
    Decision,
    DenyReason,
    Event,
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
    Unmount,
    UserRecord,
    Verdict,
    Write,
    _covers,
    _parent_path,
    executable,
    file_entity,
    is_integrity_protected,
    is_sensitivity_protected,
    proc_entity,
    under_live_mount,
)
from .store import AccessMode, EnvironmentBit, ExceptionStore

_PI = TaintState.POTENTIAL_INTRUSION
_NI = TaintState.NON_INTRUSION
_TAINT = attrgetter("taint")

_FILE_OUTCOMES = {
    mode: (BY_EXCEPTION[reason], DENIED[reason])
    for mode, reason in (
        (AccessMode.WRITE, DenyReason.INTEGRITY_WRITE),
        (AccessMode.READ, DenyReason.SENSITIVITY_READ),
    )
}
"""Per access mode, the decisions for a file access that a tainted process
makes by exception and for one that it is refused."""


def _tainting(decision: Decision, *records: ProcessRecord | FileRecord) -> Decision:
    """Taint each untainted record, in order, and return ``decision`` with
    those transitions; ``decision`` itself when nothing changed."""
    updates = []
    for rec in records:
        if rec.taint is _NI:
            rec.taint = _PI
            entity = proc_entity(rec.pid) if type(rec) is ProcessRecord else file_entity(rec.fid)
            updates.append((entity, _NI, _PI))
    if not updates:
        return decision
    return Decision(decision.verdict, decision.reason, tuple(updates))


def _unknown(seq: int, kind: str, ident: int) -> TraceError:
    """The error for an event naming a ``kind`` ("pid" or "fid") id that
    is not live; both engines raise it."""
    return TraceError(seq, f"unknown {kind} {ident}")


@dataclass(slots=True)
class EngineConfig:
    """Initial snapshot for one engine run.

    The snapshot must be internally consistent (unique ids and paths) and
    start clean: no seed may carry a potential-intrusion label.
    """

    users: dict[str, UserRecord] = field(default_factory=dict)
    files: list[FileRecord] = field(default_factory=list)
    processes: list[ProcessRecord] = field(default_factory=list)

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


class Engine:
    """Applies one event at a time and returns its Decision; the caller
    keeps whatever log it needs.

    ``mode``, the environment bit, is fixed for the engine's run: Secure
    permits every deny candidate and records it in ``store``; Unsecure
    permits those ``store`` grants and writes nothing. One instance is
    single-threaded; distinct instances may run in parallel.
    """

    __slots__ = ("config", "store", "mode", "processes", "files", "mounts", "_files_by_path")

    def __init__(
        self, config: EngineConfig, store: ExceptionStore,
        mode: EnvironmentBit = EnvironmentBit.UNSECURE,
    ):
        config.validate()
        self.config = config
        self.store = store
        self.mode = mode
        self.processes: dict[int, ProcessRecord] = {}
        self.files: dict[int, FileRecord] = {}
        self._files_by_path: dict[str, int] = {}
        self.mounts: dict[int, str] = {}
        # Each seed record is copied field by field, positionally:
        # ``dataclasses.replace`` costs about 3 µs a record.
        for p in config.processes:
            self.processes[p.pid] = ProcessRecord(p.pid, p.key, p.taint, p.user)
        for f in config.files:
            self.files[f.fid] = FileRecord(
                f.fid, f.path, f.perms, f.owner, f.taint, f.is_directory, f.on_mobile_mount
            )
            self._files_by_path[f.path] = f.fid

    def step(self, event: Event) -> Decision:
        """Apply one event: decide against pre-event state and mutate only
        on non-deny verdicts."""
        handler = self._handlers.get(type(event))
        if handler is None:
            raise TraceError(event.seq, f"unknown event kind {type(event).__name__}")
        return handler(self, event)

    def tainted_entities(self) -> set[str]:
        tainted = {proc_entity(p.pid) for p in self.processes.values() if p.taint is _PI}
        tainted.update(file_entity(f.fid) for f in self.files.values() if f.taint is _PI)
        return tainted

    def sorted_taint(self) -> list[str]:
        """The tainted entities in ``entity_sort_key`` order: files, then
        processes, each by id. The ids are picked and sorted as integers in
        C-level passes, with no Python call per record."""
        files, procs = self.files, self.processes
        fids = sorted(compress(files, map(is_, map(_TAINT, files.values()), repeat(_PI))))
        pids = sorted(compress(procs, map(is_, map(_TAINT, procs.values()), repeat(_PI))))
        return [*map(file_entity, fids), *map(proc_entity, pids)]

    def file_on_mobile_mount(self, f: FileRecord) -> bool:
        """Whether a file counts as mobile-storage content right now: seen
        mobile before, or under a live mount. The caller memoizes the
        observation once its event is allowed."""
        return f.on_mobile_mount or (
            bool(self.mounts) and under_live_mount(self.mounts, f.path)
        )

    # -- lookups -------------------------------------------------------------

    def _need_proc(self, seq: int, pid: int) -> ProcessRecord:
        proc = self.processes.get(pid)
        if proc is None:
            raise _unknown(seq, "pid", pid)
        return proc

    def _need_file(self, seq: int, fid: int) -> FileRecord:
        f = self.files.get(fid)
        if f is None:
            raise _unknown(seq, "fid", fid)
        return f

    # -- critical operations and writes -----------------------------------------

    def _mediate_file(self, proc: ProcessRecord, f: FileRecord, mode: AccessMode) -> Decision:
        """Decide a deny candidate: a tainted process accessing a protected
        file. Secure environment: permit and record. Unsecure: permit when
        the store already lists the access, refuse otherwise."""
        if self.mode is EnvironmentBit.SECURE:
            self.store.record_file_exception(proc.key, f.fid, mode)
            return ALLOW
        by_exception, denied = _FILE_OUTCOMES[mode]
        return by_exception if self.store.check_file_exception(proc.key, f.fid, mode) else denied

    def _write(self, proc: ProcessRecord, f: FileRecord, taints: bool) -> Decision:
        """Write an existing file; when ``taints``, an allowed write taints
        it if executable."""
        decision = ALLOW
        if proc.taint is _PI and is_integrity_protected(f):
            decision = self._mediate_file(proc, f, AccessMode.WRITE)
            if decision.verdict is Verdict.DENY:
                return decision
        return _tainting(decision, f) if taints and executable(f) else decision

    def _create(
        self,
        seq: int,
        proc: ProcessRecord,
        fid: int,
        path: str,
        perms: str,
        owner: str,
        is_directory: bool,
        taints: bool,
    ) -> Decision:
        """Make a file at a fresh path, which writes its parent directory.
        A malformed event raises before anything changes; when ``taints``,
        a new executable starts tainted."""
        if path in self._files_by_path:
            raise TraceError(seq, f"path {path!r} already exists")
        if fid in self.files:
            raise TraceError(seq, f"fid {fid} already live")
        parent_fid = self._files_by_path.get(_parent_path(path))
        if parent_fid is None:
            raise TraceError(seq, f"parent directory of {path!r} does not exist")
        parent = self.files[parent_fid]
        if not parent.is_directory:
            raise TraceError(seq, f"parent of {path!r} is not a directory")
        bits = PermissionBits.parse(perms)
        decision = ALLOW
        if proc.taint is _PI and is_integrity_protected(parent):
            decision = self._mediate_file(proc, parent, AccessMode.WRITE)
            if decision.verdict is Verdict.DENY:
                return decision
        mounts = self.mounts
        mobile = under_live_mount(mounts, path) if mounts else False
        new = self.files[fid] = FileRecord(fid, path, bits, owner, _NI, is_directory, mobile)
        self._files_by_path[path] = fid
        return _tainting(decision, new) if taints and executable(new) else decision

    # -- event rules ------------------------------------------------------------

    def _on_fork(self, ev: Fork) -> Decision:
        parent = self._need_proc(ev.seq, ev.parent_pid)
        if ev.child_pid in self.processes:
            raise TraceError(ev.seq, f"pid {ev.child_pid} already live")
        child = ProcessRecord(ev.child_pid, parent.key, _NI, parent.user)
        self.processes[ev.child_pid] = child
        return _tainting(ALLOW, child) if parent.taint is _PI else ALLOW

    def _on_exec(self, ev: Exec) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        f = self._need_file(ev.seq, ev.fid)
        if not executable(f):
            raise TraceError(ev.seq, f"fid {ev.fid} is not executable")
        proc.key = f.fid
        if self.file_on_mobile_mount(f):
            # The mobile executable is the entrance entity itself.
            f.on_mobile_mount = True
            return _tainting(ALLOW, f, proc)
        return _tainting(ALLOW, proc) if f.taint is _PI else ALLOW

    def _on_remote_comm(self, ev: RemoteComm) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        return ALLOW if ev.peer_address.startswith(LOOPBACK_PREFIXES) else _tainting(ALLOW, proc)

    def _on_login(self, ev: Login) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        user = self.config.users.get(ev.user)
        if user is None:
            raise TraceError(ev.seq, f"unknown user {ev.user!r}")
        proc.user = user.name
        return ALLOW if user.trusted else _tainting(ALLOW, proc)

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

    def _on_copy(self, ev: Copy) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        src = self._need_file(ev.seq, ev.src_fid)
        # Pre-state mobility; memoized further down only if the copy is
        # allowed (denied events must leave no mark anywhere).
        src_mobile = self.file_on_mobile_mount(src)
        taints = src_mobile or src.taint is _PI or proc.taint is _PI
        dst = self.files.get(ev.dst_fid)
        if dst is None:
            decision = self._create(
                ev.seq, proc, ev.dst_fid, ev.dst_path, ev.dst_perms, ev.dst_owner,
                src.is_directory, taints,
            )
        elif dst.path != ev.dst_path:
            raise TraceError(ev.seq, f"fid {ev.dst_fid} names {dst.path!r}, not {ev.dst_path!r}")
        else:
            decision = self._write(proc, dst, taints)
        if src_mobile and decision.verdict is not Verdict.DENY:
            src.on_mobile_mount = True
        return decision

    def _on_create(self, ev: Create) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        return self._create(
            ev.seq, proc, ev.new_fid, ev.path, ev.perms, ev.owner, ev.is_directory,
            proc.taint is _PI,
        )

    def _on_write(self, ev: Write) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        f = self._need_file(ev.seq, ev.fid)
        return self._write(proc, f, True) if proc.taint is _PI else ALLOW

    def _on_read(self, ev: Read) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        f = self._need_file(ev.seq, ev.fid)
        if proc.taint is _PI and is_sensitivity_protected(f):
            return self._mediate_file(proc, f, AccessMode.READ)
        return ALLOW

    def _on_ipc(self, ev: Ipc) -> Decision:
        if ev.from_pid == ev.to_pid:
            raise TraceError(ev.seq, f"ipc endpoints must differ (pid {ev.from_pid})")
        sender = self._need_proc(ev.seq, ev.from_pid)
        receiver = self._need_proc(ev.seq, ev.to_pid)
        if ev.channel is IpcChannel.SHARED_MEMORY:
            if sender.taint is _PI or receiver.taint is _PI:
                return _tainting(ALLOW, sender, receiver)
        elif sender.taint is _PI:
            return _tainting(ALLOW, receiver)
        return ALLOW

    def _on_priv_op(self, ev: PrivOp) -> Decision:
        proc = self._need_proc(ev.seq, ev.pid)
        if proc.taint is not _PI:
            return ALLOW
        if self.mode is EnvironmentBit.SECURE:
            self.store.record_priv_exception(proc.key, ev.capability)
            return ALLOW
        if self.store.check_priv_exception(proc.key, ev.capability):
            return BY_EXCEPTION[DenyReason.PRIVILEGED_OP]
        return DENIED[DenyReason.PRIVILEGED_OP]

    _handlers = {
        Fork: _on_fork,
        Exec: _on_exec,
        RemoteComm: _on_remote_comm,
        Login: _on_login,
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
    event)``. A class-level table of plain functions, not bound methods on
    each instance: a bound method refers back to its engine, so that
    engine would be a reference cycle that only the cyclic collector
    frees."""
