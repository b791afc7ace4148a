"""Seeded random trace generation.

Generated traces are always structurally valid: every reference points at
an entity that exists, and (crucially) existence never depends on the
exception store. A create or copy is only emitted when it is guaranteed to
be allowed (the writer is untainted, or the target parent/file is
other-writable), so the same trace can be replayed in learning mode, in
enforcement mode with any store, and against the oracle, without
references dangling in one variant but not another.

To make those guarantees the generator steps an engine in the Secure
environment over every event it emits and reads taint, files and mounts
from it. Secure mode allows every operation, so its taint is the taint
each entity would have if every operation were allowed. That is an upper
bound on the taint of any replay of the trace: only allowed operations
propagate taint, and a denied one changes nothing. A writer that is
untainted here is untainted in every replay, so it is never refused.

With ``include_entrances=False`` the trace contains no entrance events at
all: network traffic stays on loopback, logins stay trusted, and nothing
is mounted.
"""

from __future__ import annotations

import random

from .engine import Engine, EngineConfig
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
    TaintState,
    Unmount,
    UserRecord,
    Write,
)
from .store import EnvironmentBit, ExceptionStore
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
_PI = TaintState.POTENTIAL_INTRUSION


def _snapshot(rng: random.Random) -> TraceHeader:
    header = TraceHeader(label="benign")
    header.users = [
        UserRecord("root", True),
        UserRecord("alice", True),
        UserRecord("mallory", False),
        UserRecord("eve", False),
    ]

    def add(path: str, perms: str, is_dir: bool) -> int:
        fid = len(header.files) + 1
        header.files.append(
            FileRecord(
                fid=fid,
                path=path,
                perms=PermissionBits.parse(perms),
                owner="root",
                is_directory=is_dir,
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
    return header


def random_trace(
    seed: int = 0,
    events: int = 1000,
    include_entrances: bool = True,
) -> Trace:
    """Generate a valid trace of exactly ``events`` events."""
    rng = random.Random(seed)
    header = _snapshot(rng)
    config = EngineConfig.from_trace(Trace(header))
    engine = Engine(config, ExceptionStore(), EnvironmentBit.SECURE)
    verbs = [v for v in DEFAULT_WEIGHTS if include_entrances or v not in ("MOUNT", "UNMOUNT")]
    verb_weights = [DEFAULT_WEIGHTS[v] for v in verbs]

    # Pick lists by kind, in creation order.
    open_dirs: list[int] = []  # other-writable directories
    all_dirs: list[int] = []
    plain_files: list[int] = []  # non-directories
    writable_files: list[int] = []  # other-writable non-directories
    exec_files: list[int] = []

    def add_file(f: FileRecord) -> None:
        if f.is_directory:
            all_dirs.append(f.fid)
            if f.perms.other_write:
                open_dirs.append(f.fid)
        else:
            plain_files.append(f.fid)
            if f.perms.other_write:
                writable_files.append(f.fid)
            if f.perms.any_exec:
                exec_files.append(f.fid)

    for f in header.files:
        add_file(f)

    out: list[Event] = []
    next_pid = max(engine.processes) + 1
    next_fid = max(engine.files) + 1
    next_mount = 1
    fresh_counter = 0
    usb_prefixes = [f.path for f in header.files if f.is_directory and f.path.startswith("/mnt/usb")]

    # Plain list of pids for O(1) random choice; grows on fork.
    _pid_list = list(engine.processes)

    def fresh_path(parent_path: str) -> str:
        nonlocal fresh_counter
        fresh_counter += 1
        return f"{parent_path}/g{fresh_counter}" if parent_path != "/" else f"/g{fresh_counter}"

    def pick_dir(pid: int) -> str:
        # Guaranteed-allowed rule: a tainted writer only creates under
        # other-writable directories.
        dir_pool = open_dirs if engine.processes[pid].taint is _PI else all_dirs
        return engine.files[rng.choice(dir_pool)].path

    def build(verb: str, seq: int) -> Event | None:
        nonlocal next_pid, next_mount
        if verb == "FORK":
            parent = rng.choice(_pid_list)
            _pid_list.append(next_pid)
            next_pid += 1
            return Fork(seq, parent, next_pid - 1)
        if verb == "EXEC":
            return Exec(seq, rng.choice(_pid_list), rng.choice(exec_files))
        if verb == "NET":
            pid = rng.choice(_pid_list)
            if include_entrances and rng.random() < 0.7:
                return RemoteComm(seq, pid, rng.choice(_REMOTE_PEERS))
            return RemoteComm(seq, pid, rng.choice(_LOOPBACK_PEERS))
        if verb == "LOGIN":
            pid = rng.choice(_pid_list)
            if include_entrances and rng.random() < 0.5:
                return Login(seq, pid, rng.choice(("mallory", "eve")))
            return Login(seq, pid, rng.choice(("root", "alice")))
        if verb == "MOUNT":
            free = [p for p in usb_prefixes if p not in engine.mounts.values()]
            if not free:
                return None
            prefix = rng.choice(free)
            next_mount += 1
            return Mount(seq, next_mount - 1, prefix)
        if verb == "UNMOUNT":
            if not engine.mounts:
                return None
            return Unmount(seq, rng.choice(list(engine.mounts)))
        if verb == "CREATE":
            pid = rng.choice(_pid_list)
            path = fresh_path(pick_dir(pid))
            perms = rng.choice(_PERMS_POOL)
            is_dir = rng.random() < 0.04
            return Create(seq, pid, path, perms, "root", is_dir, next_fid)
        if verb == "COPY":
            pid = rng.choice(_pid_list)
            src = rng.choice(plain_files)
            if rng.random() < 0.5:
                path = fresh_path(pick_dir(pid))
                return Copy(seq, pid, src, path, rng.choice(_PERMS_POOL), "root", next_fid)
            # Same rule for an existing destination: a tainted writer only
            # copies onto other-writable files.
            pool = writable_files if engine.processes[pid].taint is _PI else plain_files
            dst = engine.files[rng.choice(pool)]
            return Copy(seq, pid, src, dst.path, rng.choice(_PERMS_POOL), "root", dst.fid)
        if verb == "WRITE":
            return Write(seq, rng.choice(_pid_list), rng.choice(plain_files))
        if verb == "READ":
            return Read(seq, rng.choice(_pid_list), rng.choice(plain_files))
        if verb == "IPC":
            a, b = rng.sample(_pid_list, 2)
            return Ipc(seq, a, b, rng.choice(_CHANNELS))
        if verb == "PRIV":
            return PrivOp(seq, rng.choice(_pid_list), rng.choice(_CAPS))
        return None

    while len(out) < events:
        seq = len(out) + 1
        verb = rng.choices(verbs, verb_weights)[0]
        event = build(verb, seq)
        if event is None:
            # infeasible right now; READ is always possible
            event = build("READ", seq)
        engine.step(event)
        # A create, or a copy to a fresh path, used next_fid; Secure mode
        # allowed it, so the engine now holds the file.
        created = engine.files.get(next_fid)
        if created is not None:
            add_file(created)
            next_fid += 1
        out.append(event)
    return Trace(header, out)
