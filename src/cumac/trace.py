"""Line-oriented trace files: parsing, validation and rendering.

A trace is UTF-8 text. Lines end at ``\n`` alone (a ``\r`` before it is
stripped like other surrounding whitespace), ``#`` starts a comment line,
blank lines are ignored, and the first significant line must be the header
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

The event line format lives in one place, the ``_EVENTS`` table, which
parsing, ``render_event`` and the ``args`` of report rows all read. A
line's errors come in a fixed order: malformed fields, then a missing
field, then an unexpected one, then the value checks in line order.

Event lines take one of two paths, with the same checks and the same
errors. A canonical line is the verb, then every field of its
``_EVENTS`` entry in table order as ``key=value``, one space apart, with
no whitespace around it; ``render_trace`` writes every line so. Once the
header is read, such a line is matched whole by its verb's pattern, which
is built from ``_EVENTS``, and the value texts go straight to the checks.
Every other line (snapshot lines, comments, CRLF endings, reordered
fields, runs of spaces or tabs) takes the general path: strip, split and
field split, then the same checks. A canonical line cannot fail the field
split, so both paths raise the same error for it. A pattern's value is a
run of characters that are not whitespace to ``re``, and ``re`` counts
exactly the characters as whitespace that ``str.split`` and ``str.strip``
do.

Files created mid-trace (CREATE, or COPY to a fresh path) receive ids from
a monotone counter starting past the highest snapshot fid; later lines
reference them by those ids. The parser is the one place that allocates
them: it puts each one on its event (``Create.new_fid``, ``Copy.dst_fid``),
and the engines and the oracle only look ids up. An id is used up when the
line is parsed, so a create or copy the engine later denies still takes
one, and ids never depend on the exception store. The parser also rejects
dangling references statically. The resolved ids are not written back by
``render_trace``; they follow from the lines. Paths are absolute,
``/``-separated and contain no spaces, ``.`` or ``..`` segments. Numbers
are ASCII decimal digits with no leading zero (``0`` itself is fine), so
each number has one spelling; ``int`` would also read other scripts'
digits and padded ones. The parser hands every event one shared object
per distinct number, owner, peer, permission string and user name.

Parsing is total: arbitrary bytes yield either a Trace or a positioned
TraceParseError, never a crash.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator, Sequence

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
    _parent_path,
    validate_capability,
)

FORMAT_HEADER = "cumac-trace v1"

LABELS = ("benign", "attack")

_SNAPSHOT_FIELDS: dict[str, tuple[str, ...]] = {
    "USER": ("trusted",),  # first token is the bare name
    "FILE": ("fid", "path", "perms", "owner", "dir"),
    "PROC": ("pid", "key", "user"),
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
        # Tokens that passed their check, mapped to the value every event
        # gets for them, so that equal values share one object. Only
        # tokens that passed are kept, so a hit skips only checks the
        # same token already passed. The keys of ``users`` are the known
        # users.
        self.ints: dict[str, int] = {}
        self.texts: dict[str, str] = {}
        self.perms_texts: dict[str, str] = {}
        self.users: dict[str, str] = {}
        self.pids: set[int] = set()
        self.fids: set[int] = set()
        # The ids the ``pid`` and ``fid`` checks accept, at the slots
        # ``_FIELDS`` gives those checks; every other check has slot 0.
        self.known: tuple[Any, ...] = ((), self.pids, self.fids)
        self.fid_by_path: dict[str, int] = {}
        self.dir_fids: set[int] = set()
        self.live_mounts: set[int] = set()
        self.next_fid = 1
        self.saw_header = False
        self.saw_event = False
        self.saw_label = False

    def split_fields(self, line_no: int, verb: str, tokens: list[str], expected) -> dict[str, str]:
        """The line's ``key=value`` tokens, once each; ``expected`` holds
        the keys the line must have, in line order."""
        fields: dict[str, str] = {}
        for token in tokens:
            key, eq, value = token.partition("=")
            if not eq:
                raise TraceParseError(line_no, f"malformed field {token!r} (want key=value)")
            if not key:
                raise TraceParseError(line_no, f"malformed field {token!r} (empty key)")
            if key in fields:
                raise TraceParseError(line_no, f"duplicate field {key!r}")
            if not value:
                raise TraceParseError(line_no, f"empty value for field {key!r}")
            fields[key] = value
        for name in expected:
            if name not in fields:
                raise TraceParseError(line_no, f"{verb} is missing field {name!r}")
        if len(fields) > len(expected):  # no key is missing, so one is unexpected
            for name in fields:
                if name not in expected:
                    raise TraceParseError(line_no, f"{verb} has unexpected field {name!r}")
        return fields

    # -- field checks: (line number, key, text, values read so far) -> value ------

    def uint(self, line_no: int, key: str, token: str, values=()) -> int:
        value = self.ints.get(token)
        if value is None:
            if not (token.isascii() and token.isdecimal()):
                raise TraceParseError(line_no, f"{key} must be an unsigned integer, got {token!r}")
            if token[0] == "0" and len(token) > 1:
                raise TraceParseError(line_no, f"{key} must have no leading zero, got {token!r}")
            value = self.ints[token] = int(token)
        return value

    def pid(self, line_no: int, key: str, token: str, values=()) -> int:
        pid = self.uint(line_no, key, token)
        if pid not in self.pids:
            raise TraceParseError(line_no, f"unknown pid {pid}")
        return pid

    def new_pid(self, line_no: int, key: str, token: str, values=()) -> int:
        pid = self.uint(line_no, key, token)
        if pid in self.pids:
            raise TraceParseError(line_no, f"pid {pid} already live")
        if pid == 0:
            raise TraceParseError(line_no, f"{key} pid must be positive")
        self.pids.add(pid)
        return pid

    def other_pid(self, line_no: int, key: str, token: str, values=()) -> int:
        """A known pid other than the line's earlier ones (IPC's ``to``)."""
        pid = self.pid(line_no, key, token)
        if pid in values:
            raise TraceParseError(line_no, "ipc endpoints must differ")
        return pid

    def fid(self, line_no: int, key: str, token: str, values=()) -> int:
        fid = self.uint(line_no, key, token)
        if fid not in self.fids:
            raise TraceParseError(line_no, f"unknown fid {fid}")
        return fid

    def path(self, line_no: int, key: str, token: str, values=()) -> str:
        if not token.startswith("/"):
            raise TraceParseError(line_no, f"{key} must be an absolute path, got {token!r}")
        if token == "/":
            return token
        if token.endswith("/"):
            raise TraceParseError(line_no, f"{key} must not end with '/', got {token!r}")
        for segment in token[1:].split("/"):
            if segment in ("", ".", ".."):
                raise TraceParseError(line_no, f"{key} has invalid segment in {token!r}")
        return token

    def new_path(self, line_no: int, key: str, token: str, values=()) -> str:
        path = self.path(line_no, key, token)
        if path in self.fid_by_path:
            raise TraceParseError(line_no, f"path {path!r} already exists")
        return path

    def perms(self, line_no: int, key: str, token: str, values=()) -> str:
        perms = self.perms_texts.get(token)
        if perms is None:
            try:
                PermissionBits.parse(token)
            except PermsFormatError as exc:
                raise TraceParseError(line_no, str(exc)) from None
            perms = self.perms_texts[token] = token
        return perms

    def flag(self, line_no: int, key: str, token: str, values=()) -> bool:
        if token not in ("0", "1"):
            raise TraceParseError(line_no, f"{key} must be 0 or 1, got {token!r}")
        return token == "1"

    def text(self, line_no: int, key: str, token: str, values=()) -> str:
        return self.texts.setdefault(token, token)

    def user(self, line_no: int, key: str, token: str, values=()) -> str:
        user = self.users.get(token)
        if user is None:
            raise TraceParseError(line_no, f"unknown user {token!r}")
        return user

    def new_mount(self, line_no: int, key: str, token: str, values=()) -> int:
        mount_id = self.uint(line_no, key, token)
        if mount_id in self.live_mounts:
            raise TraceParseError(line_no, f"mount id {mount_id} already live")
        self.live_mounts.add(mount_id)
        return mount_id

    def live_mount(self, line_no: int, key: str, token: str, values=()) -> int:
        mount_id = self.uint(line_no, key, token)
        if mount_id not in self.live_mounts:
            raise TraceParseError(line_no, f"mount id {mount_id} not live")
        self.live_mounts.discard(mount_id)
        return mount_id

    def channel(self, line_no: int, key: str, token: str, values=()) -> IpcChannel:
        channel = _CHANNELS.get(token)
        if channel is None:
            raise TraceParseError(
                line_no, f"unknown channel {token!r} (want {'/'.join(sorted(_CHANNELS))})"
            )
        return channel

    def capability(self, line_no: int, key: str, token: str, values=()) -> str:
        try:
            return validate_capability(token)
        except ValueError as exc:
            raise TraceParseError(line_no, str(exc)) from None

    # -- files ----------------------------------------------------------------------

    def register(self, fid: int, path: str, is_directory: bool) -> None:
        self.fids.add(fid)
        self.fid_by_path[path] = fid
        if is_directory:
            self.dir_fids.add(fid)
        self.next_fid = max(self.next_fid, fid + 1)

    def file_at(self, line_no: int, path: str, is_directory: bool) -> int:
        """The id of the file a CREATE or COPY line writes: the one at
        ``path``, or a fresh id once the parent directory is found."""
        fid = self.fid_by_path.get(path)
        if fid is not None:
            return fid
        parent_fid = self.fid_by_path.get(_parent_path(path))
        if parent_fid is None:
            raise TraceParseError(line_no, f"parent directory of {path!r} does not exist")
        if parent_fid not in self.dir_fids:
            raise TraceParseError(line_no, f"parent of {path!r} is not a directory")
        fid = self.next_fid
        self.register(fid, path, is_directory)
        return fid

    # -- line dispatch ------------------------------------------------------------

    def feed(self, line_no: int, line: str) -> None:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return
        if not self.saw_header:
            if stripped != FORMAT_HEADER:
                raise TraceParseError(
                    line_no, f"unknown format header {stripped!r} (want {FORMAT_HEADER!r})"
                )
            self.saw_header = True
            return
        tokens = stripped.split()
        verb = tokens[0]
        if verb in _EVENTS:
            self.event_line(line_no, verb, tokens[1:])
        elif verb == "LABEL" or verb in _SNAPSHOT_FIELDS:
            if self.saw_event:
                raise TraceParseError(line_no, f"snapshot line {verb} after first event")
            self.snapshot_line(line_no, verb, tokens[1:])
        else:
            raise TraceParseError(line_no, f"unknown verb {verb!r}")

    def snapshot_line(self, line_no: int, verb: str, tokens: list[str]) -> None:
        if verb == "LABEL":
            if self.saw_label:
                raise TraceParseError(line_no, "duplicate LABEL line")
            if len(tokens) != 1 or tokens[0] not in LABELS:
                raise TraceParseError(line_no, f"LABEL must be one of {'/'.join(LABELS)}")
            self.header.label = tokens[0]
            self.saw_label = True
            return
        if verb == "USER":
            if len(tokens) != 2:
                raise TraceParseError(line_no, "USER needs a name and trusted=<0|1>")
            name = tokens[0]
            if "=" in name:
                raise TraceParseError(line_no, f"USER name must come first, got {name!r}")
            fields = self.split_fields(line_no, verb, tokens[1:], _SNAPSHOT_FIELDS["USER"])
            if name in self.users:
                raise TraceParseError(line_no, f"duplicate user {name!r}")
            self.users[name] = name
            trusted = self.flag(line_no, "trusted", fields["trusted"])
            self.header.users.append(UserRecord(name, trusted))
            return
        fields = self.split_fields(line_no, verb, tokens, _SNAPSHOT_FIELDS[verb])
        if verb == "FILE":
            fid = self.uint(line_no, "fid", fields["fid"])
            if fid in self.fids:
                raise TraceParseError(line_no, f"duplicate fid {fid}")
            if fid == 0:
                raise TraceParseError(line_no, "fid must be positive")
            path = self.path(line_no, "path", fields["path"])
            if path in self.fid_by_path:
                raise TraceParseError(line_no, f"duplicate path {path!r}")
            perms = self.perms(line_no, "perms", fields["perms"])
            is_dir = self.flag(line_no, "dir", fields["dir"])
            self.register(fid, path, is_dir)
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
            pid = self.uint(line_no, "pid", fields["pid"])
            if pid in self.pids:
                raise TraceParseError(line_no, f"duplicate pid {pid}")
            if pid == 0:
                raise TraceParseError(line_no, "pid must be positive")
            key = self.uint(line_no, "key", fields["key"])
            user = self.user(line_no, "user", fields["user"])
            self.pids.add(pid)
            self.header.processes.append(ProcessRecord(pid=pid, key=key, user=user))

    def event_line(self, line_no: int, verb: str, tokens: list[str]) -> None:
        spec = _EVENTS[verb][1]
        fields = self.split_fields(line_no, verb, tokens, spec)
        self.event_values(line_no, verb, [fields[key] for key in spec])

    def event_values(self, line_no: int, verb: str, texts: Sequence[str]) -> None:
        """Check an event line's value texts, given in ``_EVENTS`` order,
        and append its event."""
        cls, fields = _FIELDS[verb]
        ints, known = self.ints, self.known
        values: list[Any] = []
        for (key, check, slot), text in zip(fields, texts):
            # A token read before whose value is a known pid or fid passes
            # the pid or fid check with that value, so the call is skipped.
            value = ints.get(text)
            if value not in known[slot]:
                value = check(self, line_no, key, text, values)
            values.append(value)
        if cls is Create:
            _, path, _, _, is_dir = values
            values.append(self.file_at(line_no, path, is_dir))
        elif cls is Copy:
            _, src, dst, _, _ = values
            values.append(self.file_at(line_no, dst, src in self.dir_fids))
        self.saw_event = True
        self.events.append(cls(len(self.events) + 1, *values))


_EVENTS: dict[str, tuple[type[Event], dict[str, tuple[str, Callable[..., Any]]]]] = {
    "FORK": (Fork, {"parent": ("parent_pid", _Parser.pid),
                    "child": ("child_pid", _Parser.new_pid)}),
    "EXEC": (Exec, {"pid": ("pid", _Parser.pid), "fid": ("fid", _Parser.fid)}),
    "NET": (RemoteComm, {"pid": ("pid", _Parser.pid), "peer": ("peer_address", _Parser.text)}),
    "LOGIN": (Login, {"pid": ("pid", _Parser.pid), "user": ("user", _Parser.user)}),
    "MOUNT": (Mount, {"id": ("mount_id", _Parser.new_mount),
                      "prefix": ("path_prefix", _Parser.path)}),
    "UNMOUNT": (Unmount, {"id": ("mount_id", _Parser.live_mount)}),
    "COPY": (Copy, {"pid": ("pid", _Parser.pid), "src": ("src_fid", _Parser.fid),
                    "dst": ("dst_path", _Parser.path), "perms": ("dst_perms", _Parser.perms),
                    "owner": ("dst_owner", _Parser.text)}),
    "CREATE": (Create, {"pid": ("pid", _Parser.pid), "path": ("path", _Parser.new_path),
                        "perms": ("perms", _Parser.perms), "owner": ("owner", _Parser.text),
                        "dir": ("is_directory", _Parser.flag)}),
    "WRITE": (Write, {"pid": ("pid", _Parser.pid), "fid": ("fid", _Parser.fid)}),
    "READ": (Read, {"pid": ("pid", _Parser.pid), "fid": ("fid", _Parser.fid)}),
    "IPC": (Ipc, {"from": ("from_pid", _Parser.pid), "to": ("to_pid", _Parser.other_pid),
                  "chan": ("channel", _Parser.channel)}),
    "PRIV": (PrivOp, {"pid": ("pid", _Parser.pid), "cap": ("capability", _Parser.capability)}),
}
"""Per verb, the event class and the line's fields in line order, as key
to (event attribute, check). The event takes ``seq`` and then the checked
values in that order; ``Create`` and ``Copy`` add the id of the file they
write."""

EVENT_VERBS: dict[type, str] = {cls: verb for verb, (cls, _) in _EVENTS.items()}

_KNOWN_SLOT = {_Parser.pid: 1, _Parser.fid: 2}

_FIELDS = {
    verb: (cls, tuple((key, check, _KNOWN_SLOT.get(check, 0)) for key, (_, check) in spec.items()))
    for verb, (cls, spec) in _EVENTS.items()
}
"""``_EVENTS`` laid out for ``event_values``: per verb, the event class
and, per field in line order, its key, check and slot in
``_Parser.known``."""

_CANONICAL = {
    verb: re.compile(" ".join(f"{key}=(\\S+)" for key in spec)).fullmatch
    for verb, (_, spec) in _EVENTS.items()
}
"""Per verb, the matcher of a canonical line's text after ``verb + " "``:
every field of ``_EVENTS`` in table order as ``key=value``, one space
apart. A match's groups are the value texts in that order."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then leave it as
    it was found, however the block ends."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def parse_trace(data: str | bytes) -> Trace:
    """Parse trace text into a Trace, or raise a positioned TraceParseError.

    The cyclic garbage collector is paused while the lines are read and
    then left as it was found: parsing makes no reference cycles, so
    collections would only walk the growing event list again and again."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise TraceParseError(line, f"document is not valid UTF-8 at byte {exc.start}") from None
    parser = _Parser()
    feed, event_values = parser.feed, parser.event_values
    canonical = _CANONICAL.get
    with collector_paused():
        for line_no, line in enumerate(data.split("\n"), start=1):
            verb, _, rest = line.partition(" ")
            fullmatch = canonical(verb)
            if fullmatch is not None and parser.saw_header and (found := fullmatch(rest)):
                event_values(line_no, verb, found.groups())
            else:
                feed(line_no, line)
    if not parser.saw_header:
        raise TraceParseError(0, f"missing format header {FORMAT_HEADER!r}")
    return Trace(parser.header, parser.events)


def render_event(ev: Event) -> str:
    """Render one event as a trace line (without its sequence number,
    which is implicit in position)."""
    verb = EVENT_VERBS.get(type(ev))
    if verb is None:
        raise TypeError(f"unknown event type {type(ev).__name__}")
    parts = [verb]
    for key, (attr, _) in _EVENTS[verb][1].items():
        value = getattr(ev, attr)
        if isinstance(value, bool):
            value = int(value)
        elif isinstance(value, Enum):
            value = value.value
        parts.append(f"{key}={value}")
    return " ".join(parts)


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
