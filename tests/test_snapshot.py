"""One snapshot for a run: the tracing engine, the low-water-mark baseline
and the oracle all start from the header they are handed, by default the
trace's own, and ``TraceHeader.from_trace`` overrides only the trust
flags."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cumac import EngineConfig, TraceHeader
from cumac.errors import ConfigError, TraceError
from cumac.engine import Engine
from cumac.lwm import LwmEngine, compare
from cumac.model import FileRecord, Login, PermissionBits, RemoteComm, Verdict, Write
from cumac.oracle import taint_oracle
from cumac.replay import replay
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import Trace, parse_trace

TRACE = parse_trace(
    "cumac-trace v1\n"
    "USER root trusted=1\n"
    "USER alice trusted=1\n"
    "USER mallory trusted=0\n"
    "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
    "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
    "FILE fid=4 path=/tmp perms=777 owner=root dir=1\n"
    "FILE fid=5 path=/tmp/tool perms=777 owner=root dir=0\n"
    "PROC pid=1 key=3 user=root\n"
    "FORK parent=1 child=2\n"  # 1
    "LOGIN pid=2 user=alice\n"  # 2
    "FORK parent=1 child=3\n"  # 3
    "LOGIN pid=3 user=mallory\n"  # 4
    "WRITE pid=2 fid=5\n"  # 5
    "WRITE pid=3 fid=5\n"  # 6
    "PRIV pid=2 cap=CAP_SYS_MODULE\n"  # 7
    "PRIV pid=3 cap=CAP_SYS_MODULE\n"  # 8
)
"""Two logins, alice's (pid 2) and mallory's (pid 3), each followed by a
write to an other-writable executable and a privileged operation."""


class TestFromTrace:
    def test_no_names_is_the_header_itself(self):
        assert EngineConfig is TraceHeader
        assert TraceHeader.from_trace(TRACE) is TRACE.header

    def test_names_rebuild_only_the_users(self):
        config = TraceHeader.from_trace(TRACE, {"mallory", "bob"})
        assert config.files is TRACE.header.files
        assert config.processes is TRACE.header.processes
        assert config.label == TRACE.header.label
        assert config.users == {
            "root": False, "alice": False, "mallory": True, "bob": True,
        }
        # The trace's own header is left as parsed.
        assert TRACE.header.users == {
            "root": True, "alice": True, "mallory": False,
        }

    def test_added_names_follow_in_sorted_order_under_any_hash_seed(self):
        code = (
            "from cumac.trace import Trace, TraceHeader, render_trace\n"
            "trace = Trace(TraceHeader({'root': True}))\n"
            "header = TraceHeader.from_trace(trace, {'e', 'c', 'a', 'd', 'b'})\n"
            "text = render_trace(Trace(header))\n"
            "print(*(line.split()[1] for line in text.splitlines() if line.startswith('USER ')))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        for hash_seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
            run = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True, timeout=60,
            )
            assert run.stdout == "root a b c d e\n"


@pytest.mark.parametrize(
    "trusted, untrusted_pids",
    [
        (None, {3}),
        ({"root", "alice", "mallory"}, set()),
        ({"root", "mallory"}, {2}),
        ({"root"}, {2, 3}),
    ],
    ids=["header", "mallory-trusted", "alice-untrusted", "both-untrusted"],
)
def test_every_consumer_reads_the_snapshot_it_is_handed(trusted, untrusted_pids):
    config = TraceHeader.from_trace(TRACE, trusted)
    # Per pid that logs in, its write (5 or 6) and its privileged operation
    # (7 or 8); the write is allowed either way, since the file is
    # other-writable, and taints it when the writer is tainted.
    priv_seq = {2: 7, 3: 8}
    expected_denials = sorted(priv_seq[pid] for pid in untrusted_pids)

    report = replay(TRACE, EnvironmentBit.UNSECURE, ExceptionStore(), config)
    assert [ev.seq for ev, _ in report.denials()] == expected_denials
    tainted = {f"proc:{pid}" for pid in untrusted_pids} | ({"file:5"} if untrusted_pids else set())
    assert set(report.final_taint) == tainted

    verdicts = [d.verdict for d in report.decisions]
    assert taint_oracle(TRACE, verdicts, config) == tainted

    result = compare(TRACE, ExceptionStore(), config)
    assert sorted(result.both + result.cumac_only) == expected_denials
    # The baseline starts the untrusted logins Low: their privileged
    # operations are refused, and so are their writes to the High file.
    write_seq = {2: 5, 3: 6}
    lwm_denied = [seq for seq, (_, lwm) in enumerate(result.verdicts, 1) if lwm is Verdict.DENY]
    assert lwm_denied == sorted(seq for p in untrusted_pids for seq in (write_seq[p], priv_seq[p]))
    assert LwmEngine(TRACE, config)._low_pids == untrusted_pids


def test_a_seed_file_only_the_config_holds():
    """A hand-built config may name a seed file its trace's header lacks:
    both engines and the oracle resolve it from the config."""
    root = FileRecord(1, "/", PermissionBits.parse("755"), is_directory=True)
    tool = FileRecord(2, "/tool", PermissionBits.parse("777"))
    trace = Trace(
        TraceHeader(TRACE.header.users, [root], TRACE.header.processes),
        [RemoteComm(1, 1, "203.0.113.7"), Write(2, 1, 2)],
    )
    config = TraceHeader(TRACE.header.users, [root, tool], TRACE.header.processes)

    result = compare(trace, None, config)
    assert result.verdicts == [(Verdict.ALLOW, Verdict.ALLOW), (Verdict.ALLOW, Verdict.DENY)]
    report = replay(trace, EnvironmentBit.UNSECURE, None, config)
    assert report.final_taint == ["file:2", "proc:1"]
    verdicts = [d.verdict for d in report.decisions]
    assert taint_oracle(trace, verdicts, config) == {"file:2", "proc:1"}
    # The trace's own header does not hold the file.
    with pytest.raises(TraceError, match="unknown fid 2"):
        compare(trace)


def test_neither_engine_keeps_the_snapshot():
    """The tracing engine keeps the header's trust map and its own copies
    of the seeds; the baseline keeps nothing of the header."""
    config = TraceHeader.from_trace(TRACE, {"root"})
    engine = Engine(config, ExceptionStore())
    assert not hasattr(engine, "config")
    assert engine.users is config.users
    snapshot = (config, config.users, config.files, config.processes)
    lwm = LwmEngine(TRACE, config)
    assert not any(value is part for value in vars(lwm).values() for part in snapshot)


def test_a_login_as_an_unknown_user():
    """The parser refuses an undeclared user, but a hand-built trace can
    hold one: the tracing engine refuses it, and the baseline and the
    oracle count it as untrusted."""
    trace = Trace(TRACE.header, [Login(1, 1, "ghost")])
    with pytest.raises(TraceError, match="^event 1: unknown user 'ghost'$"):
        Engine(trace.header, ExceptionStore()).step(trace.events[0])
    assert LwmEngine(trace)._low_pids == {1}
    assert taint_oracle(trace, [Verdict.ALLOW]) == {"proc:1"}


ROOT_DIR = FileRecord(1, "/", PermissionBits.parse("755"), is_directory=True)
TOOL = FileRecord(2, "/tool", PermissionBits.parse("755"))


@pytest.mark.parametrize(
    "files, message",
    [
        (
            [ROOT_DIR, TOOL, FileRecord(2, "/other", PermissionBits.parse("755"))],
            "duplicate fid 2 in initial snapshot",
        ),
        (
            [ROOT_DIR, FileRecord(2, "/tool", PermissionBits.parse("755"), on_mobile_mount=True)],
            "seed file 2 must not start flagged mobile",
        ),
    ],
    ids=["duplicate-fid", "seed-flagged-mobile"],
)
def test_every_consumer_refuses_a_snapshot_the_engine_refuses(files, message):
    header = TraceHeader(TRACE.header.users, files, TRACE.header.processes)
    trace = Trace(header, [RemoteComm(1, 1, "203.0.113.7")])
    pattern = f"^{message}$"
    with pytest.raises(ConfigError, match=pattern):
        Engine(header, ExceptionStore())
    with pytest.raises(ConfigError, match=pattern):
        LwmEngine(trace)
    with pytest.raises(ConfigError, match=pattern):
        taint_oracle(trace, [Verdict.ALLOW])
    with pytest.raises(ConfigError, match=pattern):
        compare(trace)


def test_compare_validates_the_snapshot_once(monkeypatch):
    calls = []
    validate = TraceHeader.validate

    def counted(header):
        calls.append(header)
        validate(header)

    monkeypatch.setattr(TraceHeader, "validate", counted)
    compare(TRACE)
    assert calls == [TRACE.header]
