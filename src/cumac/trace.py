"""Line-oriented trace files: parsing, validation and rendering.

A trace is UTF-8 text. ``#`` starts a comment line, blank lines are
ignored, and the first significant line must be the header
``cumac-trace v1``. A snapshot section declares the initial world, then
event lines replay against it; sequence numbers are implicit in event
order. Snapshot lines may not follow the first event line.

    cumac-trace v1
    LABEL attack
    USER root trusted=1
    FILE fid=1 path=/ perms=755 owner=root dir=1
    PROC pid=1 key=3 user=root
    FORK parent=1 child=2
    EXEC pid=2 fid=3
    NET pid=2 peer=203.0.113.80
    LOGIN pid=2 user=root
    MOUNT id=1 prefix=/mnt/usb
    UNMOUNT id=1
    COPY pid=2 src=6 dst=/tmp/adore perms=755 owner=root
    CREATE pid=2 path=/tmp/knark perms=777 owner=root dir=0
    WRITE pid=2 fid=8
    READ pid=2 fid=5
    IPC from=1 to=2 chan=pipe
    PRIV pid=2 cap=CAP_SYS_MODULE

The optional ``LABEL benign|attack`` line classifies the workload so
comparison reports can call denials false negatives or true positives.

Files created mid-trace (CREATE, or COPY to a fresh path) receive ids from
a monotone counter starting past the highest snapshot fid; later lines
reference them by those ids. The parser is the one place that allocates
them: it puts each one on its event (``Create.new_fid``, ``Copy.dst_fid``),
and the engines and the oracle only look ids up. An id is used up when the
line is parsed, so a create or copy the engine later denies still takes
one, and ids never depend on the exception store. The parser also rejects
dangling references statically. The resolved ids are not written back by
``render_trace``; they follow from the lines. Paths are absolute,
``/``-separated and contain no spaces, ``.`` or ``..`` segments.

Parsing is total: arbitrary bytes yield either a Trace or a positioned
TraceParseError, never a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PermsFormatError, TraceParseError
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
    validate_capability,
)

FORMAT_HEADER = "cumac-trace v1"

LABELS = ("benign", "attack")

_EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "FORK": ("parent", "child"),
    "EXEC": ("pid", "fid"),
    "NET": ("pid", "peer"),
    "LOGIN": ("pid", "user"),
    "MOUNT": ("id", "prefix"),
    "UNMOUNT": ("id",),
    "COPY": ("pid", "src", "dst", "perms", "owner"),
    "CREATE": ("pid", "path", "perms", "owner", "dir"),
    "WRITE": ("pid", "fid"),
    "READ": ("pid", "fid"),
    "IPC": ("from", "to", "chan"),
    "PRIV": ("pid", "cap"),
}

_SNAPSHOT_FIELDS: dict[str, tuple[str, ...]] = {
    "USER": ("trusted",),  # first token is the bare name
    "FILE": ("fid", "path", "perms", "owner", "dir"),
    "PROC": ("pid", "key", "user"),
}

EVENT_VERBS: dict[type, str] = {
    Fork: "FORK",
    Exec: "EXEC",
    RemoteComm: "NET",
    Login: "LOGIN",
    Mount: "MOUNT",
    Unmount: "UNMOUNT",
    Copy: "COPY",
    Create: "CREATE",
    Write: "WRITE",
    Read: "READ",
    Ipc: "IPC",
    PrivOp: "PRIV",
}

_CHANNELS = {c.value: c for c in IpcChannel}


@dataclass(slots=True)
class TraceHeader:
    """The snapshot section: users, files and processes alive at step 0,
    plus the benign/attack label."""

    users: list[UserRecord] = field(default_factory=list)
    files: list[FileRecord] = field(default_factory=list)
    processes: list[ProcessRecord] = field(default_factory=list)
    label: str = "benign"


@dataclass(slots=True)
class Trace:
    """A parsed trace: header plus events with dense sequence numbers."""

    header: TraceHeader
    events: list[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        for i, ev in enumerate(self.events, start=1):
            if ev.seq != i:
                raise ValueError(
                    f"event sequence numbers must be dense from 1; position {i} has seq {ev.seq}"
                )


class _Parser:
    """Single-pass parser with static reference validation."""

    def __init__(self) -> None:
        self.header = TraceHeader()
        self.events: list[Event] = []
        self.users: set[str] = set()
        self.pids: set[int] = set()
        self.fids: set[int] = set()
        self.fid_by_path: dict[str, int] = {}
        self.dir_fids: set[int] = set()
        self.live_mounts: set[int] = set()
        self.next_fid = 1
        self.saw_header = False
        self.saw_event = False
        self.saw_label = False

    # -- field helpers ---------------------------------------------------------

    def fail(self, line: int, message: str) -> "TraceParseError":
        return TraceParseError(line, message)

    def split_fields(
        self, line_no: int, verb: str, tokens: list[str], expected: tuple[str, ...]
    ) -> dict[str, str]:
        fields: dict[str, str] = {}
        for token in tokens:
            key, eq, value = token.partition("=")
            if not eq:
                raise self.fail(line_no, f"malformed field {token!r} (want key=value)")
            if not key:
                raise self.fail(line_no, f"malformed field {token!r} (empty key)")
            if key in fields:
                raise self.fail(line_no, f"duplicate field {key!r}")
            if not value:
                raise self.fail(line_no, f"empty value for field {key!r}")
            fields[key] = value
        for name in expected:
            if name not in fields:
                raise self.fail(line_no, f"{verb} is missing field {name!r}")
        for name in fields:
            if name not in expected:
                raise self.fail(line_no, f"{verb} has unexpected field {name!r}")
        return fields

    def parse_uint(self, line_no: int, label: str, token: str) -> int:
        if not token.isdigit():
            raise self.fail(line_no, f"{label} must be an unsigned integer, got {token!r}")
        return int(token)

    def parse_flag(self, line_no: int, label: str, token: str) -> bool:
        if token not in ("0", "1"):
            raise self.fail(line_no, f"{label} must be 0 or 1, got {token!r}")
        return token == "1"

    def parse_path(self, line_no: int, label: str, token: str) -> str:
        if not token.startswith("/"):
            raise self.fail(line_no, f"{label} must be an absolute path, got {token!r}")
        if token == "/":
            return token
        if token.endswith("/"):
            raise self.fail(line_no, f"{label} must not end with '/', got {token!r}")
        for segment in token[1:].split("/"):
            if segment in ("", ".", ".."):
                raise self.fail(line_no, f"{label} has invalid segment in {token!r}")
        return token

    def parse_perms(self, line_no: int, token: str) -> str:
        try:
            PermissionBits.parse(token)
        except PermsFormatError as exc:
            raise self.fail(line_no, str(exc)) from None
        return token

    def known_fid(self, line_no: int, label: str, token: str) -> int:
        fid = self.parse_uint(line_no, label, token)
        if fid not in self.fids:
            raise self.fail(line_no, f"unknown fid {fid}")
        return fid

    def known_pid(self, line_no: int, label: str, token: str) -> int:
        pid = self.parse_uint(line_no, label, token)
        if pid not in self.pids:
            raise self.fail(line_no, f"unknown pid {pid}")
        return pid

    def allocate_fid(self, is_directory: bool, path: str) -> int:
        fid = self.next_fid
        self.next_fid += 1
        self.fids.add(fid)
        self.fid_by_path[path] = fid
        if is_directory:
            self.dir_fids.add(fid)
        return fid

    def require_parent_dir(self, line_no: int, path: str) -> None:
        head = path.rsplit("/", 1)[0]
        parent = head if head else "/"
        parent_fid = self.fid_by_path.get(parent)
        if parent_fid is None:
            raise self.fail(line_no, f"parent directory of {path!r} does not exist")
        if parent_fid not in self.dir_fids:
            raise self.fail(line_no, f"parent of {path!r} is not a directory")

    # -- line dispatch ------------------------------------------------------------

    def feed(self, line_no: int, line: str) -> None:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return
        if not self.saw_header:
            if stripped != FORMAT_HEADER:
                raise self.fail(
                    line_no, f"unknown format header {stripped!r} (want {FORMAT_HEADER!r})"
                )
            self.saw_header = True
            return
        tokens = stripped.split()
        verb = tokens[0]
        if verb == "LABEL" or verb in _SNAPSHOT_FIELDS:
            if self.saw_event:
                raise self.fail(line_no, f"snapshot line {verb} after first event")
            self.snapshot_line(line_no, verb, tokens[1:])
        elif verb in _EVENT_FIELDS:
            self.saw_event = True
            self.event_line(line_no, verb, tokens[1:])
        else:
            raise self.fail(line_no, f"unknown verb {verb!r}")

    def snapshot_line(self, line_no: int, verb: str, tokens: list[str]) -> None:
        if verb == "LABEL":
            if self.saw_label:
                raise self.fail(line_no, "duplicate LABEL line")
            if len(tokens) != 1 or tokens[0] not in LABELS:
                raise self.fail(line_no, f"LABEL must be one of {'/'.join(LABELS)}")
            self.header.label = tokens[0]
            self.saw_label = True
            return
        if verb == "USER":
            if len(tokens) != 2:
                raise self.fail(line_no, "USER needs a name and trusted=<0|1>")
            name = tokens[0]
            if "=" in name:
                raise self.fail(line_no, f"USER name must come first, got {name!r}")
            fields = self.split_fields(line_no, verb, tokens[1:], _SNAPSHOT_FIELDS["USER"])
            if name in self.users:
                raise self.fail(line_no, f"duplicate user {name!r}")
            self.users.add(name)
            trusted = self.parse_flag(line_no, "trusted", fields["trusted"])
            self.header.users.append(UserRecord(name, trusted))
            return
        fields = self.split_fields(line_no, verb, tokens, _SNAPSHOT_FIELDS[verb])
        if verb == "FILE":
            fid = self.parse_uint(line_no, "fid", fields["fid"])
            if fid in self.fids:
                raise self.fail(line_no, f"duplicate fid {fid}")
            if fid == 0:
                raise self.fail(line_no, "fid must be positive")
            path = self.parse_path(line_no, "path", fields["path"])
            if path in self.fid_by_path:
                raise self.fail(line_no, f"duplicate path {path!r}")
            perms = self.parse_perms(line_no, fields["perms"])
            is_dir = self.parse_flag(line_no, "dir", fields["dir"])
            self.fids.add(fid)
            self.fid_by_path[path] = fid
            if is_dir:
                self.dir_fids.add(fid)
            self.next_fid = max(self.next_fid, fid + 1)
            self.header.files.append(
                FileRecord(
                    fid=fid,
                    path=path,
                    perms=PermissionBits.parse(perms),
                    owner=fields["owner"],
                    is_directory=is_dir,
                )
            )
        else:  # PROC
            pid = self.parse_uint(line_no, "pid", fields["pid"])
            if pid in self.pids:
                raise self.fail(line_no, f"duplicate pid {pid}")
            if pid == 0:
                raise self.fail(line_no, "pid must be positive")
            user = fields["user"]
            if user not in self.users:
                raise self.fail(line_no, f"unknown user {user!r}")
            key = self.parse_uint(line_no, "key", fields["key"])
            self.pids.add(pid)
            self.header.processes.append(ProcessRecord(pid=pid, key=key, user=user))

    def event_line(self, line_no: int, verb: str, tokens: list[str]) -> None:
        fields = self.split_fields(line_no, verb, tokens, _EVENT_FIELDS[verb])
        seq = len(self.events) + 1
        if verb == "FORK":
            parent = self.known_pid(line_no, "parent", fields["parent"])
            child = self.parse_uint(line_no, "child", fields["child"])
            if child in self.pids:
                raise self.fail(line_no, f"pid {child} already live")
            if child == 0:
                raise self.fail(line_no, "child pid must be positive")
            self.pids.add(child)
            self.events.append(Fork(seq, parent, child))
        elif verb == "EXEC":
            pid = self.known_pid(line_no, "pid", fields["pid"])
            fid = self.known_fid(line_no, "fid", fields["fid"])
            self.events.append(Exec(seq, pid, fid))
        elif verb == "NET":
            pid = self.known_pid(line_no, "pid", fields["pid"])
            self.events.append(RemoteComm(seq, pid, fields["peer"]))
        elif verb == "LOGIN":
            pid = self.known_pid(line_no, "pid", fields["pid"])
            user = fields["user"]
            if user not in self.users:
                raise self.fail(line_no, f"unknown user {user!r}")
            self.events.append(Login(seq, pid, user))
        elif verb == "MOUNT":
            mount_id = self.parse_uint(line_no, "id", fields["id"])
            if mount_id in self.live_mounts:
                raise self.fail(line_no, f"mount id {mount_id} already live")
            prefix = self.parse_path(line_no, "prefix", fields["prefix"])
            self.live_mounts.add(mount_id)
            self.events.append(Mount(seq, mount_id, prefix))
        elif verb == "UNMOUNT":
            mount_id = self.parse_uint(line_no, "id", fields["id"])
            if mount_id not in self.live_mounts:
                raise self.fail(line_no, f"mount id {mount_id} not live")
            self.live_mounts.discard(mount_id)
            self.events.append(Unmount(seq, mount_id))
        elif verb == "COPY":
            pid = self.known_pid(line_no, "pid", fields["pid"])
            src = self.known_fid(line_no, "src", fields["src"])
            dst_path = self.parse_path(line_no, "dst", fields["dst"])
            perms = self.parse_perms(line_no, fields["perms"])
            dst_fid = self.fid_by_path.get(dst_path)
            if dst_fid is None:
                self.require_parent_dir(line_no, dst_path)
                dst_fid = self.allocate_fid(src in self.dir_fids, dst_path)
            self.events.append(Copy(seq, pid, src, dst_path, perms, fields["owner"], dst_fid))
        elif verb == "CREATE":
            pid = self.known_pid(line_no, "pid", fields["pid"])
            path = self.parse_path(line_no, "path", fields["path"])
            if path in self.fid_by_path:
                raise self.fail(line_no, f"path {path!r} already exists")
            perms = self.parse_perms(line_no, fields["perms"])
            is_dir = self.parse_flag(line_no, "dir", fields["dir"])
            self.require_parent_dir(line_no, path)
            fid = self.allocate_fid(is_dir, path)
            self.events.append(Create(seq, pid, path, perms, fields["owner"], is_dir, fid))
        elif verb in ("WRITE", "READ"):
            pid = self.known_pid(line_no, "pid", fields["pid"])
            fid = self.known_fid(line_no, "fid", fields["fid"])
            cls = Write if verb == "WRITE" else Read
            self.events.append(cls(seq, pid, fid))
        elif verb == "IPC":
            from_pid = self.known_pid(line_no, "from", fields["from"])
            to_pid = self.known_pid(line_no, "to", fields["to"])
            if from_pid == to_pid:
                raise self.fail(line_no, "ipc endpoints must differ")
            channel = _CHANNELS.get(fields["chan"])
            if channel is None:
                raise self.fail(
                    line_no,
                    f"unknown channel {fields['chan']!r} (want {'/'.join(sorted(_CHANNELS))})",
                )
            self.events.append(Ipc(seq, from_pid, to_pid, channel))
        else:  # PRIV
            pid = self.known_pid(line_no, "pid", fields["pid"])
            try:
                cap = validate_capability(fields["cap"])
            except ValueError as exc:
                raise self.fail(line_no, str(exc)) from None
            self.events.append(PrivOp(seq, pid, cap))


def parse_trace(data: str | bytes) -> Trace:
    """Parse trace text into a Trace, or raise a positioned TraceParseError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise TraceParseError(line, f"document is not valid UTF-8 at byte {exc.start}") from None
    parser = _Parser()
    for line_no, line in enumerate(data.splitlines(), start=1):
        parser.feed(line_no, line)
    if not parser.saw_header:
        raise TraceParseError(0, f"missing format header {FORMAT_HEADER!r}")
    return Trace(parser.header, parser.events)


def render_event(ev: Event) -> str:
    """Render one event as a trace line (without its sequence number,
    which is implicit in position)."""
    if isinstance(ev, Fork):
        return f"FORK parent={ev.parent_pid} child={ev.child_pid}"
    if isinstance(ev, Exec):
        return f"EXEC pid={ev.pid} fid={ev.fid}"
    if isinstance(ev, RemoteComm):
        return f"NET pid={ev.pid} peer={ev.peer_address}"
    if isinstance(ev, Login):
        return f"LOGIN pid={ev.pid} user={ev.user}"
    if isinstance(ev, Mount):
        return f"MOUNT id={ev.mount_id} prefix={ev.path_prefix}"
    if isinstance(ev, Unmount):
        return f"UNMOUNT id={ev.mount_id}"
    if isinstance(ev, Copy):
        return (
            f"COPY pid={ev.pid} src={ev.src_fid} dst={ev.dst_path}"
            f" perms={ev.dst_perms} owner={ev.dst_owner}"
        )
    if isinstance(ev, Create):
        return (
            f"CREATE pid={ev.pid} path={ev.path} perms={ev.perms}"
            f" owner={ev.owner} dir={int(ev.is_directory)}"
        )
    if isinstance(ev, Write):
        return f"WRITE pid={ev.pid} fid={ev.fid}"
    if isinstance(ev, Read):
        return f"READ pid={ev.pid} fid={ev.fid}"
    if isinstance(ev, Ipc):
        return f"IPC from={ev.from_pid} to={ev.to_pid} chan={ev.channel.value}"
    if isinstance(ev, PrivOp):
        return f"PRIV pid={ev.pid} cap={ev.capability}"
    raise TypeError(f"unknown event type {type(ev).__name__}")


def render_trace(trace: Trace) -> str:
    """Render a Trace back to its text form (parse/render round-trips)."""
    lines = [FORMAT_HEADER, f"LABEL {trace.header.label}"]
    for user in trace.header.users:
        lines.append(f"USER {user.name} trusted={int(user.trusted)}")
    for f in trace.header.files:
        lines.append(
            f"FILE fid={f.fid} path={f.path} perms={f.perms.render()}"
            f" owner={f.owner} dir={int(f.is_directory)}"
        )
    for proc in trace.header.processes:
        lines.append(f"PROC pid={proc.pid} key={proc.key} user={proc.user}")
    lines.extend(render_event(ev) for ev in trace.events)
    return "\n".join(lines) + "\n"
