"""What cumac does not stop: the bundled attacks whose critical step the
tracing engine allows, pinned beside the low-water-mark baseline's
verdicts, and a grant or a trusted user that causes a denial elsewhere."""

import pytest

from cumac import scenarios
from cumac.lwm import compare
from cumac.model import Decision, DenyReason, PrivOp, TaintState, Verdict
from cumac.replay import replay
from cumac.store import AccessMode, EnvironmentBit, ExceptionStore
from cumac.trace import TraceHeader, parse_trace

ALLOW, DENY, BY_EXCEPTION = Verdict.ALLOW, Verdict.DENY, Verdict.ALLOW_BY_EXCEPTION

# Per scenario: the tracing engine's verdicts over an empty store, its
# final taint, and compare's (lwm_only, both, cumac_only).
EDGES = {
    # Reads never propagate taint, and a script is not executable.
    "script-payload": ([ALLOW, ALLOW, ALLOW, ALLOW, DENY], ["proc:1"], ([2, 4], [5], [])),
    # A NET event names no peer process, and loopback is no entrance.
    "loopback-relay": ([ALLOW, ALLOW, ALLOW, ALLOW, DENY], ["proc:1"], ([], [5], [])),
}


@pytest.mark.parametrize("name", EDGES)
def test_the_clean_process_is_granted_cap_sys_module(name):
    verdicts, taint, differences = EDGES[name]
    trace = scenarios.load_trace(name)
    assert trace.header.label == "attack"
    report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
    assert [d.verdict for d in report.decisions] == verdicts
    assert report.final_taint == taint
    granted, refused = trace.events[3], trace.events[4]
    assert granted == PrivOp(4, 2, "CAP_SYS_MODULE")
    assert refused == PrivOp(5, 1, "CAP_SYS_MODULE")
    result = compare(trace)
    assert (result.lwm_only, result.both, result.cumac_only) == differences


def test_a_grant_can_cause_a_denial_elsewhere():
    # The grant lets the tainted pid 1 write /bin/tool, and an operation
    # allowed by exception still propagates taint: pid 2 then runs a
    # tainted binary, and its privileged operation is refused. Without
    # the grant the write is refused and pid 2 stays clean.
    trace = parse_trace(
        "cumac-trace v1\n"
        "USER root trusted=1\n"
        "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
        "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
        "FILE fid=3 path=/bin/tool perms=755 owner=root dir=0\n"
        "PROC pid=1 key=3 user=root\n"
        "PROC pid=2 key=3 user=root\n"
        "NET pid=1 peer=203.0.113.9\n"
        "WRITE pid=1 fid=3\n"
        "EXEC pid=2 fid=3\n"
        "PRIV pid=2 cap=CAP_SYS_MODULE\n"
    )
    granted = ExceptionStore()
    granted.record_file_exception(3, 3, AccessMode.WRITE)
    without = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
    with_grant = replay(trace, EnvironmentBit.UNSECURE, granted)
    assert [d.verdict for d in without.decisions] == [ALLOW, DENY, ALLOW, ALLOW]
    assert [d.verdict for d in with_grant.decisions] == [ALLOW, BY_EXCEPTION, ALLOW, DENY]
    assert with_grant.final_taint == ["file:3", "proc:1", "proc:2"]


def test_trusting_a_user_can_cause_a_denial_elsewhere():
    # Untrusted, mallory's shell is tainted, so its copy of the USB
    # dropper over /bin/tool is refused and pid 2 later runs a clean
    # binary. Trusted, the shell stays clean and the copy is allowed; the
    # source sits on a live mount, so /bin/tool is tainted all the same,
    # and pid 2's privileged operation is refused. More trust is not
    # always less harm.
    trace = parse_trace(
        "cumac-trace v1\n"
        "USER root trusted=1\n"
        "USER mallory trusted=0\n"
        "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
        "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
        "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
        "FILE fid=4 path=/bin/tool perms=755 owner=root dir=0\n"
        "FILE fid=5 path=/mnt perms=755 owner=root dir=1\n"
        "FILE fid=6 path=/mnt/usb perms=755 owner=root dir=1\n"
        "FILE fid=7 path=/mnt/usb/dropper perms=755 owner=root dir=0\n"
        "PROC pid=1 key=3 user=root\n"
        "PROC pid=2 key=3 user=root\n"
        "LOGIN pid=1 user=mallory\n"
        "MOUNT id=1 prefix=/mnt/usb\n"
        "COPY pid=1 src=7 dst=/bin/tool perms=755 owner=root\n"
        "EXEC pid=2 fid=4\n"
        "PRIV pid=2 cap=CAP_SYS_MODULE\n"
    )
    own = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
    trusting = replay(
        trace, EnvironmentBit.UNSECURE, ExceptionStore(),
        TraceHeader.from_trace(trace, {"root", "mallory"}),
    )
    copy, priv = 2, 4
    assert own.decisions[copy] == Decision(DENY, DenyReason.INTEGRITY_WRITE)
    assert own.decisions[priv].verdict is ALLOW
    assert own.final_taint == ["proc:1"]
    tainted = ("file:4", TaintState.NON_INTRUSION, TaintState.POTENTIAL_INTRUSION)
    assert trusting.decisions[copy] == Decision(ALLOW, taint_updates=(tainted,))
    assert trusting.decisions[priv] == Decision(DENY, DenyReason.PRIVILEGED_OP)
    assert trusting.final_taint == ["file:4", "proc:2"]
