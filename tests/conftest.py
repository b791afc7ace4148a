"""Shared fixtures: a small filesystem snapshot, an event driver that
handles sequence numbering, so tests read like short sessions, the
cyclic collector switched on or off for a test, the ``json.dumps``
reference that the streamed structured reports are checked against, and
the line-by-line reference that ``parse_trace`` is checked against."""

from __future__ import annotations

import gc
import json
from enum import Enum
from typing import Any

import pytest

from cumac.engine import Engine, EngineConfig
from cumac.errors import TraceParseError
from cumac.lwm import ComparisonReport
from cumac.model import (
    Copy,
    Create,
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
    Write,
)
from cumac.replay import ReplayReport
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import _EVENTS, EVENT_VERBS, FORMAT_HEADER, Trace, _Parser

# Fixed fids for the small world, used throughout the engine tests.
ROOT_DIR = 1
BIN_DIR = 2
SH = 3
TMP_DIR = 4
ETC_DIR = 5
SHADOW = 6
HOSTS = 7
TMP_LOG = 8
MNT_DIR = 9
USB_DIR = 10
USB_TOOL = 11
LS = 12


def small_files() -> list[FileRecord]:
    spec = [
        (ROOT_DIR, "/", "755", True),
        (BIN_DIR, "/bin", "755", True),
        (SH, "/bin/sh", "755", False),
        (TMP_DIR, "/tmp", "777", True),
        (ETC_DIR, "/etc", "755", True),
        (SHADOW, "/etc/shadow", "600", False),
        (HOSTS, "/etc/hosts", "644", False),
        (TMP_LOG, "/tmp/app.log", "666", False),
        (MNT_DIR, "/mnt", "755", True),
        (USB_DIR, "/mnt/usb", "755", True),
        (USB_TOOL, "/mnt/usb/tool", "755", False),
        (LS, "/bin/ls", "755", False),
    ]
    return [
        FileRecord(fid=fid, path=path, perms=PermissionBits.parse(perms), is_directory=is_dir)
        for fid, path, perms, is_dir in spec
    ]


def small_config() -> EngineConfig:
    return EngineConfig(
        users={
            "root": True,
            "mallory": False,
        },
        files=small_files(),
        processes=[
            ProcessRecord(pid=1, key=SH, user="root"),
            ProcessRecord(pid=2, key=SH, user="root"),
        ],
    )


class Driver:
    """Feeds events to an engine with automatic sequence numbers, and gives
    created files their ids as the trace parser does: every create and
    every copy to a path not seen before takes the next id, allowed or not.
    ``log`` holds each event it fed with its decision, in order."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.log = []
        self._seq = 0
        self._fid_by_path = {f.path: f.fid for f in engine.files.values()}
        self._next_fid = max(engine.files, default=0) + 1

    def _next(self) -> int:
        self._seq += 1
        return self._seq

    def _fid(self, path: str) -> int:
        fid = self._fid_by_path.get(path)
        if fid is None:
            fid = self._fid_by_path[path] = self._next_fid
            self._next_fid += 1
        return fid

    def _step(self, event):
        decision = self.engine.step(event)
        self.log.append((event, decision))
        return decision

    def fork(self, parent: int, child: int):
        return self._step(Fork(self._next(), parent, child))

    def exec(self, pid: int, fid: int):
        return self._step(Exec(self._next(), pid, fid))

    def net(self, pid: int, peer: str):
        return self._step(RemoteComm(self._next(), pid, peer))

    def login(self, pid: int, user: str):
        return self._step(Login(self._next(), pid, user))

    def mount(self, mount_id: int, prefix: str):
        return self._step(Mount(self._next(), mount_id, prefix))

    def unmount(self, mount_id: int):
        return self._step(Unmount(self._next(), mount_id))

    def copy(self, pid: int, src: int, dst: str, perms: str, owner: str = "root"):
        return self._step(Copy(self._next(), pid, src, dst, perms, owner, self._fid(dst)))

    def create(self, pid: int, path: str, perms: str, owner: str = "root", is_dir: bool = False):
        return self._step(
            Create(self._next(), pid, path, perms, owner, is_dir, self._fid(path))
        )

    def write(self, pid: int, fid: int):
        return self._step(Write(self._next(), pid, fid))

    def read(self, pid: int, fid: int):
        return self._step(Read(self._next(), pid, fid))

    def ipc(self, from_pid: int, to_pid: int, channel: IpcChannel):
        return self._step(Ipc(self._next(), from_pid, to_pid, channel))

    def priv(self, pid: int, capability: str):
        return self._step(PrivOp(self._next(), pid, capability))

    # shortcuts
    def taint_via_net(self, pid: int):
        return self.net(pid, "203.0.113.99")

    def proc(self, pid: int):
        return self.engine.processes[pid]

    def file(self, fid: int):
        return self.engine.files[fid]


def make_driver(
    mode: EnvironmentBit = EnvironmentBit.UNSECURE,
    store: ExceptionStore | None = None,
    config: EngineConfig | None = None,
) -> Driver:
    store = store if store is not None else ExceptionStore()
    return Driver(Engine(config or small_config(), store, mode))


@pytest.fixture
def driver() -> Driver:
    return make_driver()


@pytest.fixture
def secure_driver() -> Driver:
    return make_driver(mode=EnvironmentBit.SECURE)


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector(request):
    """The cyclic collector enabled or disabled for the test, as the
    parameter says, and put back as it was afterwards."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


# -- the reference for structured reports ----------------------------------------


def decision_rows(report: ReplayReport) -> list[dict[str, Any]]:
    """A replay's decision log as the dict rows of its report: per event,
    the arguments its trace line fills, enum members by their value."""
    rows = []
    for ev, decision in report.log:
        verb = EVENT_VERBS[type(ev)]
        args = {}
        for attr, _ in _EVENTS[verb][1].values():
            value = getattr(ev, attr)
            args[attr] = value.value if isinstance(value, Enum) else value
        rows.append(
            {
                "seq": ev.seq,
                "event": verb,
                "args": args,
                "verdict": decision.verdict.value,
                "reason": decision.reason.value,
                "exception_kind": decision.exception_kind.value,
                "taint_updates": [
                    [entity, old.value, new.value] for entity, old, new in decision.taint_updates
                ],
            }
        )
    return rows


def comparison_rows(report: ComparisonReport) -> list[dict[str, Any]]:
    """A comparison's verdict pairs as the dict rows of its report."""
    return [
        {"seq": ev.seq, "event": EVENT_VERBS[type(ev)], "cumac": cumac.value, "lwm": lwm.value}
        for ev, (cumac, lwm) in zip(report.events, report.verdicts, strict=True)
    ]


def structured_document(report: ReplayReport | ComparisonReport) -> dict[str, Any]:
    """The whole structured document of a report, rows and all, as dicts."""
    doc = report.to_structured()
    if isinstance(report, ReplayReport):
        doc["decisions"] = decision_rows(report)
    else:
        doc["rows"] = comparison_rows(report)
    return doc


class Writes(list):
    """A text sink that keeps each write apart."""

    write = list.append


def reference_json(report: ReplayReport | ComparisonReport) -> str:
    """The text ``write_json`` must write: ``json.dumps`` of the document."""
    return json.dumps(structured_document(report), sort_keys=True, indent=2) + "\n"


# -- the reference for parsing --------------------------------------------------


def reference_event(parser: _Parser, line_no: int, verb: str, texts: list[str]) -> None:
    """Check an event line's value texts, given in ``_EVENTS`` order, with
    every field check in turn, and append its event: the loop that the
    generated checkers of ``parse_trace`` unroll."""
    cls, spec = _EVENTS[verb]
    values: list[Any] = []
    for (key, (_, check)), text in zip(spec.items(), texts):
        values.append(check(parser, line_no, key, text, values))
    if cls is Create:
        _, path, _, _, is_dir = values
        values.append(parser.file_at(line_no, path, is_dir))
    elif cls is Copy:
        _, src, dst, _, _ = values
        values.append(parser.file_at(line_no, dst, src in parser.dir_fids))
    parser.events.append(cls(len(parser.events) + 1, *values))


def feed_every_line(text: str) -> Trace:
    """``parse_trace`` of decoded text without its canonical path or its
    generated checkers: every line goes through ``_Parser.feed``, and every
    event line through ``reference_event``."""
    parser = _Parser()
    for line_no, line in enumerate(text.split("\n"), start=1):
        event = parser.feed(line_no, line)
        if event is not None:
            reference_event(parser, line_no, *event)
    if not parser.saw_header:
        raise TraceParseError(0, f"missing format header {FORMAT_HEADER!r}")
    return Trace(parser.header, parser.events)
