"""Seeded random trace generation.

Generated traces are always structurally valid: every reference points at
an entity that exists, and (crucially) existence never depends on the
exception store. A create or copy is only emitted when it is guaranteed to
be allowed (the writer has never been exposed to an entrance, or the
target parent/file is other-writable), so the same trace can be replayed
in learning mode, in enforcement mode with any store, and against the
oracle, without references dangling in one variant but not another.

The generator tracks an upper bound of taint ("maybe tainted": the taint
each entity would have if every operation were allowed) to make those
guarantees; it never consults the engine.

With ``include_entrances=False`` the trace contains no entrance events at
all: network traffic stays on loopback, logins stay trusted, and nothing
is mounted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .model import (
    Copy,
    Create,
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
    Unmount,
    UserRecord,
    Write,
    under_live_mount,
)
from .trace import Trace, TraceHeader

DEFAULT_WEIGHTS: dict[str, float] = {
    "READ": 0.22,
    "WRITE": 0.20,
    "FORK": 0.10,
    "EXEC": 0.10,
    "IPC": 0.10,
    "CREATE": 0.08,
    "COPY": 0.06,
    "PRIV": 0.06,
    "NET": 0.05,
    "LOGIN": 0.015,
    "MOUNT": 0.02,
    "UNMOUNT": 0.005,
}

_REMOTE_PEERS = ("203.0.113.7", "198.51.100.23", "192.0.2.99", "2001:db8::5")
_LOOPBACK_PEERS = ("127.0.0.1", "127.0.1.9", "::1")
_CAPS = (
    "CAP_NET_BIND_SERVICE",
    "CAP_SYS_MODULE",
    "CAP_SYS_PTRACE",
    "CAP_CHOWN",
    "CAP_NET_RAW",
    "CAP_SYS_ADMIN",
    "CAP_KILL",
)
_PERMS_POOL = ("755", "644", "666", "777", "600")
_CHANNELS = tuple(IpcChannel)


@dataclass(slots=True)
class _SimFile:
    fid: int
    path: str
    is_dir: bool
    any_exec: bool
    other_write: bool
    mobile: bool = False
    maybe_taint: bool = False


@dataclass(slots=True)
class _SimProc:
    pid: int
    maybe_taint: bool = False


@dataclass(slots=True)
class _Sim:
    """Taint upper bound plus structural bookkeeping for generation."""

    procs: dict[int, _SimProc] = field(default_factory=dict)
    files: dict[int, _SimFile] = field(default_factory=dict)
    open_dirs: list[int] = field(default_factory=list)  # other-writable directories
    all_dirs: list[int] = field(default_factory=list)
    plain_files: list[int] = field(default_factory=list)  # non-directories
    writable_files: list[int] = field(default_factory=list)  # other-writable non-dirs
    exec_files: list[int] = field(default_factory=list)
    mounts: dict[int, str] = field(default_factory=dict)

    def add_file(self, f: _SimFile) -> None:
        self.files[f.fid] = f
        if f.is_dir:
            self.all_dirs.append(f.fid)
            if f.other_write:
                self.open_dirs.append(f.fid)
        else:
            self.plain_files.append(f.fid)
            if f.other_write:
                self.writable_files.append(f.fid)
            if f.any_exec:
                self.exec_files.append(f.fid)

    def observe_mobile(self, f: "_SimFile") -> bool:
        # Same lazy rule as the engine; the observation sticks.
        if f.mobile:
            return True
        if self.mounts and under_live_mount(self.mounts, f.path):
            f.mobile = True
            return True
        return False


def _snapshot(rng: random.Random) -> tuple[TraceHeader, _Sim]:
    header = TraceHeader(label="benign")
    sim = _Sim()
    header.users = [
        UserRecord("root", True),
        UserRecord("alice", True),
        UserRecord("mallory", False),
        UserRecord("eve", False),
    ]

    fid = 0

    def add(path: str, perms: str, is_dir: bool) -> int:
        nonlocal fid
        fid += 1
        bits = PermissionBits.parse(perms)
        header.files.append(
            FileRecord(fid=fid, path=path, perms=bits, owner="root", is_directory=is_dir)
        )
        sim.add_file(
            _SimFile(
                fid=fid,
                path=path,
                is_dir=is_dir,
                any_exec=bits.any_exec and not is_dir,
                other_write=bits.other_write,
            )
        )
        return fid

    add("/", "755", True)
    add("/bin", "755", True)
    sh = add("/bin/sh", "755", False)
    add("/etc", "755", True)
    add("/etc/hosts", "644", False)
    add("/etc/shadow", "600", False)
    add("/etc/secret.cfg", "600", False)
    add("/var", "755", True)
    add("/var/log", "755", True)
    add("/var/log/sys.log", "644", False)
    add("/var/log/app.log", "644", False)
    add("/tmp", "777", True)
    add("/home", "755", True)
    add("/mnt", "755", True)
    key_pool = [sh]
    for i in range(4):
        key_pool.append(add(f"/bin/app{i}", "755", False))
    for i in range(3):
        add(f"/tmp/scratch{i}", "666", False)
    for i in range(3):
        usb = f"/mnt/usb{i}"
        add(usb, "777", True)
        add(f"{usb}/tool", "755", False)
        add(f"{usb}/data", "644", False)

    for pid in range(1, 5):
        header.processes.append(
            ProcessRecord(pid=pid, key=rng.choice(key_pool), user="root")
        )
        sim.procs[pid] = _SimProc(pid)
    return header, sim


def random_trace(
    seed: int = 0,
    events: int = 1000,
    include_entrances: bool = True,
) -> Trace:
    """Generate a valid trace of exactly ``events`` events."""
    rng = random.Random(seed)
    header, sim = _snapshot(rng)
    weight_map = dict(DEFAULT_WEIGHTS)
    if not include_entrances:
        weight_map["MOUNT"] = 0.0
        weight_map["UNMOUNT"] = 0.0
    verbs = [v for v, w in weight_map.items() if w > 0]
    verb_weights = [weight_map[v] for v in verbs]

    out: list[Event] = []
    next_pid = max(sim.procs) + 1
    next_fid = max(sim.files) + 1
    next_mount = 1
    fresh_counter = 0
    usb_prefixes = [f.path for f in sim.files.values() if f.is_dir and f.path.startswith("/mnt/usb")]

    # Plain list of pids for O(1) random choice; grows on fork.
    _pid_list = list(sim.procs)

    def fresh_path(parent_path: str) -> str:
        nonlocal fresh_counter
        fresh_counter += 1
        return f"{parent_path}/g{fresh_counter}" if parent_path != "/" else f"/g{fresh_counter}"

    def build(verb: str, seq: int) -> Event | None:
        nonlocal next_pid, next_fid, next_mount
        if verb == "FORK":
            parent = sim.procs[rng.choice(_pid_list)]
            child = _SimProc(next_pid, maybe_taint=parent.maybe_taint)
            sim.procs[next_pid] = child
            _pid_list.append(next_pid)
            next_pid += 1
            return Fork(seq, parent.pid, child.pid)
        if verb == "EXEC":
            proc = sim.procs[rng.choice(_pid_list)]
            f = sim.files[rng.choice(sim.exec_files)]
            if sim.observe_mobile(f):
                f.maybe_taint = True
            proc.maybe_taint = proc.maybe_taint or f.maybe_taint
            return Exec(seq, proc.pid, f.fid)
        if verb == "NET":
            proc = sim.procs[rng.choice(_pid_list)]
            if include_entrances and rng.random() < 0.7:
                proc.maybe_taint = True
                return RemoteComm(seq, proc.pid, rng.choice(_REMOTE_PEERS))
            return RemoteComm(seq, proc.pid, rng.choice(_LOOPBACK_PEERS))
        if verb == "LOGIN":
            proc = sim.procs[rng.choice(_pid_list)]
            if include_entrances and rng.random() < 0.5:
                proc.maybe_taint = True
                return Login(seq, proc.pid, rng.choice(("mallory", "eve")))
            return Login(seq, proc.pid, rng.choice(("root", "alice")))
        if verb == "MOUNT":
            free = [p for p in usb_prefixes if p not in sim.mounts.values()]
            if not free:
                return None
            prefix = rng.choice(free)
            mount_id = next_mount
            next_mount += 1
            sim.mounts[mount_id] = prefix
            return Mount(seq, mount_id, prefix)
        if verb == "UNMOUNT":
            if not sim.mounts:
                return None
            mount_id = rng.choice(list(sim.mounts))
            del sim.mounts[mount_id]
            return Unmount(seq, mount_id)
        if verb == "CREATE":
            proc = sim.procs[rng.choice(_pid_list)]
            # Guaranteed-allowed rule: an exposed writer only creates under
            # other-writable directories.
            dir_pool = sim.open_dirs if proc.maybe_taint else sim.all_dirs
            if not dir_pool:
                return None
            parent = sim.files[rng.choice(dir_pool)]
            path = fresh_path(parent.path)
            perms = rng.choice(_PERMS_POOL)
            bits = PermissionBits.parse(perms)
            is_dir = rng.random() < 0.04
            new = _SimFile(
                fid=next_fid,
                path=path,
                is_dir=is_dir,
                any_exec=bits.any_exec and not is_dir,
                other_write=bits.other_write,
                mobile=under_live_mount(sim.mounts, path),
                maybe_taint=False,
            )
            new.maybe_taint = proc.maybe_taint and new.any_exec
            next_fid += 1
            sim.add_file(new)
            return Create(seq, proc.pid, path, perms, "root", is_dir, new.fid)
        if verb == "COPY":
            proc = sim.procs[rng.choice(_pid_list)]
            src = sim.files[rng.choice(sim.plain_files)]
            src_mobile = sim.observe_mobile(src)
            if rng.random() < 0.5:
                # fresh destination, same guaranteed-allowed rule as CREATE
                dir_pool = sim.open_dirs if proc.maybe_taint else sim.all_dirs
                if not dir_pool:
                    return None
                parent = sim.files[rng.choice(dir_pool)]
                path = fresh_path(parent.path)
                perms = rng.choice(_PERMS_POOL)
                bits = PermissionBits.parse(perms)
                new = _SimFile(
                    fid=next_fid,
                    path=path,
                    is_dir=False,
                    any_exec=bits.any_exec,
                    other_write=bits.other_write,
                    mobile=under_live_mount(sim.mounts, path),
                )
                new.maybe_taint = new.any_exec and (
                    src_mobile or src.maybe_taint or proc.maybe_taint
                )
                next_fid += 1
                sim.add_file(new)
                return Copy(seq, proc.pid, src.fid, path, perms, "root", new.fid)
            pool = sim.writable_files if proc.maybe_taint else sim.plain_files
            if not pool:
                return None
            dst = sim.files[rng.choice(pool)]
            dst.maybe_taint = dst.maybe_taint or (
                dst.any_exec and (src_mobile or src.maybe_taint or proc.maybe_taint)
            )
            return Copy(seq, proc.pid, src.fid, dst.path, rng.choice(_PERMS_POOL), "root", dst.fid)
        if verb == "WRITE":
            proc = sim.procs[rng.choice(_pid_list)]
            f = sim.files[rng.choice(sim.plain_files)]
            f.maybe_taint = f.maybe_taint or (proc.maybe_taint and f.any_exec)
            return Write(seq, proc.pid, f.fid)
        if verb == "READ":
            proc = sim.procs[rng.choice(_pid_list)]
            return Read(seq, proc.pid, rng.choice(sim.plain_files))
        if verb == "IPC":
            if len(_pid_list) < 2:
                return None
            a, b = rng.sample(_pid_list, 2)
            channel = rng.choice(_CHANNELS)
            pa, pb = sim.procs[a], sim.procs[b]
            if channel is IpcChannel.SHARED_MEMORY:
                joined = pa.maybe_taint or pb.maybe_taint
                pa.maybe_taint = pb.maybe_taint = joined
            elif pa.maybe_taint:
                pb.maybe_taint = True
            return Ipc(seq, a, b, channel)
        if verb == "PRIV":
            proc = sim.procs[rng.choice(_pid_list)]
            return PrivOp(seq, proc.pid, rng.choice(_CAPS))
        return None

    while len(out) < events:
        seq = len(out) + 1
        verb = rng.choices(verbs, verb_weights)[0]
        event = build(verb, seq)
        if event is None:
            # infeasible right now; READ is always possible
            event = build("READ", seq)
        out.append(event)
    return Trace(header, out)
