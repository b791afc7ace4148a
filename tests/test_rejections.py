"""Inputs the library refuses, one case per message, each with its exact
text: a bad seed snapshot, an event no engine can apply, a malformed
trace document and an event type nothing can render."""

import re

import pytest
from conftest import make_driver

from cumac.engine import EngineConfig
from cumac.errors import ConfigError, TraceError, TraceParseError
from cumac.lwm import LwmEngine
from cumac.model import (
    Create,
    Event,
    FileRecord,
    Fork,
    PermissionBits,
    ProcessRecord,
    TaintState,
    UserRecord,
)
from cumac.trace import Trace, TraceHeader, parse_trace, render_event

PI = TaintState.POTENTIAL_INTRUSION

SMALL = (
    "cumac-trace v1\n"
    "USER root trusted=1\n"
    "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
    "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
    "PROC pid=1 key=3 user=root\n"
)


def validate(processes=(), files=()):
    users = {"root": UserRecord("root", True)}
    EngineConfig(users=users, files=list(files), processes=list(processes)).validate()


def sh(taint=TaintState.NON_INTRUSION):
    return FileRecord(3, "/bin/sh", PermissionBits.parse("755"), taint=taint)


def lwm_fork_to_a_live_pid():
    LwmEngine(parse_trace(SMALL)).step(Fork(1, 1, 1))


CASES = {
    "duplicate-pid": (
        lambda: validate([ProcessRecord(1, 3), ProcessRecord(1, 3)]),
        ConfigError,
        "duplicate pid 1 in initial processes",
    ),
    "tainted-seed-process": (
        lambda: validate([ProcessRecord(1, 3, PI)]),
        ConfigError,
        "seed process 1 must start non-intrusion",
    ),
    "tainted-seed-file": (
        lambda: validate(files=[sh(PI)]),
        ConfigError,
        "seed file 3 must start non-intrusion",
    ),
    "seed-process-of-unknown-user": (
        lambda: validate([ProcessRecord(1, 3, user="eve")]),
        ConfigError,
        "seed process 1 names unknown user 'eve'",
    ),
    "create-under-a-file": (
        lambda: make_driver().engine.step(Create(1, 1, "/bin/sh/x", "755", "root", False, 13)),
        TraceError,
        "event 1: parent of '/bin/sh/x' is not a directory",
    ),
    "lwm-fork-to-a-live-pid": (lwm_fork_to_a_live_pid, TraceError, "event 1: pid 1 already live"),
    "parse-fork-to-pid-zero": (
        lambda: parse_trace(SMALL + "FORK parent=1 child=0\n"),
        TraceParseError,
        "line 7: child pid must be positive",
    ),
    "parse-proc-pid-zero": (
        lambda: parse_trace(SMALL + "PROC pid=0 key=3 user=root\n"),
        TraceParseError,
        "line 7: pid must be positive",
    ),
    "parse-repeated-user": (
        lambda: parse_trace(SMALL + "USER root trusted=0\n"),
        TraceParseError,
        "line 7: duplicate user 'root'",
    ),
    "parse-create-under-a-file": (
        lambda: parse_trace(SMALL + "CREATE pid=1 path=/bin/sh/x perms=755 owner=root dir=0\n"),
        TraceParseError,
        "line 7: parent of '/bin/sh/x' is not a directory",
    ),
    "parse-comments-only": (
        lambda: parse_trace("# a comment\n\n# another\n"),
        TraceParseError,
        "line 0: missing format header 'cumac-trace v1'",
    ),
    "trace-with-a-seq-gap": (
        lambda: Trace(TraceHeader(), [Fork(1, 1, 2), Fork(3, 1, 3)]),
        ValueError,
        "event sequence numbers must be dense from 1; position 2 has seq 3",
    ),
    "render-an-unknown-event-type": (
        lambda: render_event(Event(1)),
        TypeError,
        "unknown event type Event",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_the_input_is_refused_with_its_message(case):
    action, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        action()
