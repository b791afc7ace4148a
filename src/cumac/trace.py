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

Event lines take one of two paths, which end in the same checker. A
canonical line is the verb, then every field of its ``_EVENTS`` entry in
table order as ``key=value``, one space apart, with no whitespace around
it; ``render_trace`` writes every line so. Once the header is read, such a
line is matched whole by its verb's pattern, which is built from
``_EVENTS``, and the value texts go straight to the verb's checker. Every
other line (snapshot lines, comments, CRLF endings, reordered fields, runs
of spaces or tabs) takes the general path: strip, split and field split,
and an event line's value texts then go to the same checker. A canonical
line cannot fail the field split, so both paths raise the same error for
it. A pattern's value is a run of characters that are not whitespace to
``re``, and ``re`` counts exactly the characters as whitespace that
``str.split`` and ``str.strip`` do.

The checkers are generated from ``_EVENTS`` at import, one per verb with
its fields written out in line order, and made afresh for each parse. A
checker runs a field's check unless a table shows that the token passes
it: a number that is already a known pid or fid, or a token that passed
before, in one parse, a check that depends on nothing but the token
(``_PASSED``). A check that runs is the parser's own, so the errors,
their order and their line numbers are those of running every check in
turn.

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

The parser takes the text as an iterable of chunks (a ``str`` is one
chunk), reads it one block of lines at a time (``_line_blocks``, about
4 KiB each) and hands out each block's events together
(``_Parser.blocks``), numbered on from the blocks before it. So the lines
of the whole text never exist at once. ``parse_trace`` joins the blocks
into one list. The CLI reads a trace file ``_READ_CHUNK`` bytes at a time
through ``_decode_chunks``, once to check that it is UTF-8 and once to
parse it; its ``learn`` and ``enforce`` replay each block and drop it, so
they hold one read chunk and one line block, never the decoded text or
the events of the whole trace.

Parsing is total: arbitrary bytes yield either a Trace or a positioned
TraceParseError, never a crash.
"""

from __future__ import annotations

import codecs
import gc
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError, PermsFormatError, TraceParseError
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
    """The snapshot section: each user's name mapped to whether that user
    is trusted, the files and processes alive at step 0, and the
    benign/attack label. It is the one snapshot type: both engines and
    the oracle start from a header (``engine.EngineConfig`` is another
    name for this class), by default their trace's own.

    A snapshot must be internally consistent (unique ids and paths) and
    start clean: no seed may carry a potential-intrusion label, and no
    seed file may start flagged as seen on a mobile mount. Nothing
    mutates a snapshot; an engine copies the records it changes.
    """

    users: dict[str, bool] = field(default_factory=dict)
    files: list[FileRecord] = field(default_factory=list)
    processes: list[ProcessRecord] = field(default_factory=list)
    label: str = "benign"

    @classmethod
    def from_trace(cls, trace: "Trace", trusted_users: set[str] | None = None) -> "TraceHeader":
        """The snapshot a run of ``trace`` starts from: the trace's header
        itself when ``trusted_users`` is None. Otherwise a new header that
        shares the trace's file and process lists and whose trust flags
        ``trusted_users`` overrides entirely: exactly the listed names are
        trusted, and listed names missing from the header are added as
        known users, after the header's own, in sorted order."""
        header = trace.header
        if trusted_users is None:
            return header
        users = dict.fromkeys(header.users, False) | dict.fromkeys(sorted(trusted_users), True)
        return cls(users, header.files, header.processes, header.label)

    def validate(self) -> None:
        clean = TaintState.NON_INTRUSION
        seen_pids: set[int] = set()
        for proc in self.processes:
            if proc.pid in seen_pids:
                raise ConfigError(f"duplicate pid {proc.pid} in initial processes")
            seen_pids.add(proc.pid)
            if proc.taint is not clean:
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
            if f.taint is not clean:
                raise ConfigError(f"seed file {f.fid} must start non-intrusion")
            if f.on_mobile_mount:
                raise ConfigError(f"seed file {f.fid} must not start flagged mobile")


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
    """Single-pass parser with static reference validation. ``blocks``
    hands out the events a block at a time: ``events`` holds those of the
    current block and ``seq`` counts those of the blocks before it."""

    def __init__(self) -> None:
        self.header = TraceHeader()
        self.events: list[Event] = []
        self.seq = 0
        # Numbers that passed ``uint``, mapped to one shared value each.
        self.ints: dict[str, int] = {}
        self.pids: set[int] = set()
        self.fids: set[int] = set()
        self.fid_by_path: dict[str, int] = {}
        self.dir_fids: set[int] = set()
        self.live_mounts: set[int] = set()
        self.next_fid = 1
        self.saw_header = False
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
        # An empty, "." or ".." segment needs "//" or "/." in the path.
        if "//" not in token and "/." not in token:
            return token
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
        try:
            PermissionBits.parse(token)
        except PermsFormatError as exc:
            raise TraceParseError(line_no, str(exc)) from None
        return token

    def flag(self, line_no: int, key: str, token: str, values=()) -> bool:
        if token not in ("0", "1"):
            raise TraceParseError(line_no, f"{key} must be 0 or 1, got {token!r}")
        return token == "1"

    def text(self, line_no: int, key: str, token: str, values=()) -> str:
        return token

    def user(self, line_no: int, key: str, token: str, values=()) -> str:
        if token not in self.header.users:
            raise TraceParseError(line_no, f"unknown user {token!r}")
        return token

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

    def feed(self, line_no: int, line: str) -> tuple[str, list[str]] | None:
        """Read one line. An event line is only split: its verb and its
        value texts in ``_EVENTS`` order are returned, for the caller's
        checker to check and append. Any other line is read whole. An
        event line that fails ends the parse, so once an event is parsed,
        no snapshot line may follow."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return None
        if not self.saw_header:
            if stripped != FORMAT_HEADER:
                raise TraceParseError(
                    line_no, f"unknown format header {stripped!r} (want {FORMAT_HEADER!r})"
                )
            self.saw_header = True
            return None
        tokens = stripped.split()
        verb = tokens[0]
        if verb in _EVENTS:
            spec = _EVENTS[verb][1]
            fields = self.split_fields(line_no, verb, tokens[1:], spec)
            return verb, [fields[key] for key in spec]
        if verb == "LABEL" or verb in _SNAPSHOT_FIELDS:
            if self.events or self.seq:
                raise TraceParseError(line_no, f"snapshot line {verb} after first event")
            self.snapshot_line(line_no, verb, tokens[1:])
            return None
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
            if name in self.header.users:
                raise TraceParseError(line_no, f"duplicate user {name!r}")
            self.header.users[name] = self.flag(line_no, "trusted", fields["trusted"])
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

    # -- blocks -------------------------------------------------------------------

    def blocks(self, chunks: str | Iterable[str]) -> Iterator[list[Event]]:
        """The events of the text that ``chunks`` make up (a ``str`` is one
        chunk), one list per line block (``_line_blocks``) that has any,
        with ``seq`` counted on across blocks, or one empty list for a trace
        without events. A chunk is taken when a block that ends in it is
        needed, so the parse holds one chunk and one block, not the text.
        The header is complete at the first list, as no snapshot line may
        follow an event, and ``fid_by_path`` then maps the path of every
        file made so far to its id. A bad line raises its positioned
        TraceParseError when its block is read."""
        # The checkers hold the parser, so the parser must not hold them:
        # that would make a reference cycle. They go with this generator.
        checkers = _checkers(self)
        events = self.events
        feed = self.feed
        canonical = _CANONICAL.get
        line_no = 0
        for lines in _line_blocks(chunks):
            numbered = enumerate(lines, line_no + 1)
            if not self.saw_header:
                for line_no, line in numbered:
                    feed(line_no, line)
                    if self.saw_header:
                        break
            for line_no, line in numbered:
                verb, _, rest = line.partition(" ")
                fullmatch = canonical(verb)
                if fullmatch is not None and (found := fullmatch(rest)):
                    checkers[verb](line_no, found.groups())
                elif (event := feed(line_no, line)) is not None:
                    checkers[event[0]](line_no, event[1])
            del lines, numbered  # the block's line strings go before it is used
            if events:
                self.seq += len(events)
                yield events.copy()
                events.clear()  # so the parser holds no block while it reads the next
        if not self.saw_header:
            raise TraceParseError(0, f"missing format header {FORMAT_HEADER!r}")
        if not self.seq:
            yield []


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

_KNOWN_IDS = {_Parser.pid: "parser.pids", _Parser.fid: "parser.fids"}
"""Checks that accept the ids of a parser set: a checker skips one when
``ints`` maps the token to an id in that set."""

_PASSED = {_Parser.text, _Parser.perms, _Parser.user, _Parser.channel, _Parser.flag,
           _Parser.path, _Parser.capability}
"""Checks whose outcome depends on the token alone within one parse (all
users are declared before the first event). The checkers keep one table
per such check per parse, filled after a pass, mapping each token that
passed to its value: a token in it skips the check, and equal values
share one object. Pids and fids keep the ``ints`` probe of ``_KNOWN_IDS``;
every other check runs on every line."""

_WRITES = {
    Create: "file_at(line_no, path, is_directory)",
    Copy: "file_at(line_no, dst_path, src_fid in dir_fids)",
}
"""The last value of a ``Create`` or ``Copy`` event, as an expression over
the line's values: the id of the file it writes."""


def _checkers_source() -> str:
    """The source of ``_checkers(parser)``, which returns one checker per
    verb for one parse. A checker takes the line number and the line's
    value texts in ``_EVENTS`` order, runs the field checks in that order
    (skipping the ones its tables show the token passes), and appends the
    event to ``parser.events``, the current block, numbered on from the
    ``parser.seq`` events of the blocks before it. A check that runs gets
    the values read before it on the line."""
    checks = sorted({check.__name__ for _, spec in _EVENTS.values() for _, check in spec.values()})
    lines = [
        "def _checkers(parser):",
        "    events = parser.events",
        "    append = events.append",
        "    ints_get = parser.ints.get",
        "    file_at = parser.file_at",
        "    dir_fids = parser.dir_fids",
        *(f"    check_{name} = parser.{name}" for name in checks),
        *(f"    {check.__name__}_known = {ids}" for check, ids in _KNOWN_IDS.items()),
    ]
    for name in sorted(check.__name__ for check in _PASSED):
        lines += [f"    {name}_passed = {{}}", f"    {name}_get = {name}_passed.get"]
    for verb, (cls, spec) in _EVENTS.items():
        attrs = [attr for attr, _ in spec.values()]
        lines.append(f"    def {verb}(line_no, texts):")
        lines.append(f"        {''.join(f'{attr}_text, ' for attr in attrs)}= texts")
        for i, (key, (attr, check)) in enumerate(spec.items()):
            name = check.__name__
            earlier = "".join(f"{value}, " for value in attrs[:i])
            run = f"check_{name}(line_no, {key!r}, {attr}_text, ({earlier}))"
            if check in _KNOWN_IDS:
                lines += [
                    f"        {attr} = ints_get({attr}_text)",
                    f"        if {attr} not in {name}_known:",
                    f"            {attr} = {run}",
                ]
            elif check in _PASSED:
                lines += [
                    f"        {attr} = {name}_get({attr}_text)",
                    f"        if {attr} is None:",
                    f"            {attr} = {name}_passed[{attr}_text] = {run}",
                ]
            else:
                lines.append(f"        {attr} = {run}")
        values = ["parser.seq + len(events) + 1", *attrs, *([_WRITES[cls]] if cls in _WRITES else [])]
        lines.append(f"        append({cls.__name__}({', '.join(values)}))")
    lines.append(f"    return {{{', '.join(f'{verb!r}: {verb}' for verb in _EVENTS)}}}")
    return "\n".join(lines) + "\n"


_namespace = {cls.__name__: cls for cls, _ in _EVENTS.values()}
exec(compile(_checkers_source(), "<cumac.trace checkers>", "exec"), _namespace)
_checkers: Callable[[_Parser], dict[str, Callable[..., None]]] = _namespace.pop("_checkers")
del _namespace

_CANONICAL = {
    verb: re.compile(" ".join(f"{key}=(\\S+)" for key in spec)).fullmatch
    for verb, (_, spec) in _EVENTS.items()
}
"""Per verb, the matcher of a canonical line's text after ``verb + " "``:
every field of ``_EVENTS`` in table order as ``key=value``, one space
apart. A match's groups are the value texts in that order."""


class collector_paused:
    """Pause the cyclic garbage collector for a ``with`` block, then leave
    it as it was found, however the block ends. Pauses nest: an inner one
    finds the collector off and leaves it off.

    ``cli.main`` runs each command inside one pause, from parsing its
    arguments to its return; ``parse_trace``, ``replay``, ``lwm.compare``
    and ``oracle.taint_oracle`` pause their own work for library callers.
    Nothing there makes reference cycles (the engines keep their handler
    tables at class level), so reference counting frees what a block drops
    and a collection inside it would only walk the trace, the decisions
    and the store again and again as they grow.

    The pause defers a collection; it does not skip it. CPython counts
    tracked allocations while the collector is off, less the deallocations,
    so when a block keeps more new objects than the youngest generation's
    threshold (700), such as a report's decisions, the first allocation
    after the block runs a collection over them, and over the older
    generations when their turn comes. A library caller that keeps each
    ``replay`` or ``compare`` report pays that at the return of most calls.
    ``__exit__`` allocates nothing once it has resumed the collector, so
    that collection starts in the caller, after the block. A CLI command
    keeps nothing, but in a fresh interpreter its objects also fill the
    interpreter's free lists, which CPython counts as kept, so after the
    first command of a process one collection is due; it walks only the
    few objects still young, and later commands leave none due. So a
    command's own work starts no collection inside ``cli.main`` (one that
    the caller already owes can start at its entry, before the pause),
    which is why the benchmark tracer's ``gc.cli.*``, ``gc.trace.parse.*``
    and ``gc.replay.*`` spans read 0 on the two CLI workloads.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()


_PARSE_BLOCK = 4 * 1024
"""Characters of trace text that the parser splits into lines at a time,
so that the lines of the whole text never exist at once; the events of
one such block are handed out together. A streamed run holds one block's
lines, events and rows beside one read chunk and the engine state, so a
small block (about 125 lines) keeps that share small; it costs a few
microseconds of bookkeeping per block."""

_READ_CHUNK = 64 * 1024
"""Bytes of a trace file that the CLI reads and decodes at a time
(``_decode_chunks``), so that a command holds one such chunk of the text,
not the whole of it; a read costs a system call and a decoder call."""


def _line_blocks(chunks: str | Iterable[str]) -> Iterator[list[str]]:
    """The lines of the text that ``chunks`` make up (a ``str`` is one
    chunk), split at ``\n`` as ``text.split("\n")`` splits that text, in
    lists of about ``_PARSE_BLOCK`` characters each. A block ends at the
    first ``\n`` at least ``_PARSE_BLOCK`` characters after its start,
    wherever the chunks are cut, so the blocks are those of the joined
    text. Between chunks only the text after the last block's end is
    held, in pieces that are joined once a block can end in them."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    block = _PARSE_BLOCK
    held: list[str] = []  # the text after the last block's end
    size = 0
    for chunk in chunks:
        held.append(chunk)
        size += len(chunk)
        if size <= block or "\n" not in chunk:
            continue  # no block ends in what is held
        data = "".join(held)
        held.clear()
        start = 0
        while (end := data.find("\n", start + block)) >= 0:
            yield data[start:end].split("\n")
            start = end + 1
        held.append(data[start:])
        size = len(held[0])
    yield "".join(held).split("\n")


def _decode_chunks(chunks: Iterable[bytes], newlines_before: Callable[[int], int]) -> Iterator[str]:
    """The text of the UTF-8 document that ``chunks`` make up, chunk by
    chunk, or a TraceParseError at the line and the offset in the whole
    document of its first byte that is not UTF-8. ``newlines_before(byte)``
    counts the document's newlines before ``byte``; it is called only for
    an error, so a valid document is not counted. A sequence cut between
    two chunks is decoded, or refused, whole: the decoder holds its first
    bytes for the next chunk, so an error's bytes may start in the chunk
    before."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    end = 0  # bytes given to the decoder
    try:
        for data in chunks:
            end += len(data)
            yield decode(data)
        decode(b"", True)  # bytes still held end the document inside a sequence
    except UnicodeDecodeError as exc:
        byte = end - len(exc.object) + exc.start  # exc.object: the bytes held, then the chunk
        line = newlines_before(byte) + 1
        raise TraceParseError(line, f"document is not valid UTF-8 at byte {byte}") from None


def decode_trace(data: str | bytes) -> str:
    """Trace text from ``data``: UTF-8 bytes are decoded, or a positioned
    TraceParseError is raised, ``_decode_chunks``'s for the one chunk."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:  # raise the positioned error
        return "".join(_decode_chunks((data,), lambda byte: data.count(b"\n", 0, byte)))


def parse_trace(data: str | bytes) -> Trace:
    """Parse trace text into a Trace, or raise a positioned TraceParseError:
    the events of ``_Parser.blocks`` joined into one list.

    The cyclic garbage collector is paused while the lines are read and
    then left as it was found: parsing makes no reference cycles, so
    collections would only walk the growing event list again and again."""
    text = decode_trace(data)
    parser = _Parser()
    events: list[Event] = []
    with collector_paused():
        for block in parser.blocks(text):
            events += block
    return Trace(parser.header, events)


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
    for name, trusted in trace.header.users.items():
        lines.append(f"USER {name} trusted={int(trusted)}")
    for f in trace.header.files:
        lines.append(
            f"FILE fid={f.fid} path={f.path} perms={f.perms.render()}"
            f" owner={f.owner} dir={int(f.is_directory)}"
        )
    for proc in trace.header.processes:
        lines.append(f"PROC pid={proc.pid} key={proc.key} user={proc.user}")
    lines.extend(render_event(ev) for ev in trace.events)
    return "\n".join(lines) + "\n"
