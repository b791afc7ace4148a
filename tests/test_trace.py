"""Trace parsing: positioned errors, static reference checks, totality,
collector state."""

import gc
import json
import random

import pytest

from cumac import scenarios
from cumac.engine import Engine, EngineConfig
from cumac.errors import TraceParseError
from cumac.model import Copy, Create, Event, IpcChannel, PrivOp, Verdict
from cumac.replay import replay
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import _EVENTS, EVENT_VERBS, _Parser, parse_trace, render_event, render_trace

HEADER = "cumac-trace v1\n"

SMALL = (
    HEADER
    + "USER root trusted=1\n"
    + "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    + "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
    + "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
    + "FILE fid=4 path=/tmp perms=777 owner=root dir=1\n"
    + "PROC pid=1 key=3 user=root\n"
)


class TestHeaderAndSnapshot:
    def test_empty_events_section(self):
        trace = parse_trace(SMALL)
        assert trace.events == []
        assert len(trace.header.files) == 4
        assert trace.header.label == "benign"

    def test_missing_format_header(self):
        with pytest.raises(TraceParseError, match="format header"):
            parse_trace("USER root trusted=1\n")

    def test_unknown_version(self):
        with pytest.raises(TraceParseError, match="format header"):
            parse_trace("cumac-trace v2\n")

    def test_label_attack(self):
        trace = parse_trace(HEADER + "LABEL attack\n" + SMALL[len(HEADER):])
        assert trace.header.label == "attack"

    def test_duplicate_label(self):
        with pytest.raises(TraceParseError, match="duplicate LABEL"):
            parse_trace(HEADER + "LABEL attack\nLABEL benign\n")

    def test_bad_label(self):
        with pytest.raises(TraceParseError, match="LABEL must be"):
            parse_trace(HEADER + "LABEL evil\n")

    def test_comments_and_blanks_skipped(self):
        trace = parse_trace(HEADER + "# hello\n\n" + "USER root trusted=1\n")
        assert trace.header.users[0].name == "root"

    def test_duplicate_fid(self):
        text = SMALL + "FILE fid=3 path=/bin/cp perms=755 owner=root dir=0\n"
        with pytest.raises(TraceParseError, match="duplicate fid 3"):
            parse_trace(text)

    def test_duplicate_path(self):
        text = SMALL + "FILE fid=9 path=/bin/sh perms=755 owner=root dir=0\n"
        with pytest.raises(TraceParseError, match="duplicate path"):
            parse_trace(text)

    def test_proc_with_unknown_user(self):
        text = SMALL + "PROC pid=2 key=3 user=ghost\n"
        with pytest.raises(TraceParseError, match="unknown user 'ghost'"):
            parse_trace(text)

    def test_snapshot_line_after_event_rejected(self):
        text = SMALL + "FORK parent=1 child=2\nUSER eve trusted=0\n"
        with pytest.raises(TraceParseError, match="snapshot line USER after first event"):
            parse_trace(text)


class TestEventParsing:
    def test_unknown_fid_reference(self):
        text = SMALL + "EXEC pid=1 fid=999\n"
        with pytest.raises(TraceParseError) as exc_info:
            parse_trace(text)
        assert str(exc_info.value) == "line 8: unknown fid 999"

    def test_unknown_verb(self):
        with pytest.raises(TraceParseError, match="unknown verb 'CHMOD'"):
            parse_trace(SMALL + "CHMOD pid=1 fid=3\n")

    def test_missing_field(self):
        with pytest.raises(TraceParseError, match="missing field 'fid'"):
            parse_trace(SMALL + "EXEC pid=1\n")

    def test_unexpected_field(self):
        with pytest.raises(TraceParseError, match="unexpected field 'mode'"):
            parse_trace(SMALL + "EXEC pid=1 fid=3 mode=7\n")

    def test_malformed_field(self):
        with pytest.raises(TraceParseError, match="malformed field"):
            parse_trace(SMALL + "EXEC pid=1 fid\n")

    def test_bad_integer(self):
        with pytest.raises(TraceParseError, match="unsigned integer"):
            parse_trace(SMALL + "EXEC pid=one fid=3\n")

    def test_bad_octal_perms(self):
        with pytest.raises(TraceParseError, match="octal"):
            parse_trace(SMALL + "CREATE pid=1 path=/tmp/x perms=79z owner=root dir=0\n")

    def test_bad_channel(self):
        text = SMALL + "FORK parent=1 child=2\nIPC from=1 to=2 chan=carrier_pigeon\n"
        with pytest.raises(TraceParseError, match="unknown channel"):
            parse_trace(text)

    def test_self_ipc(self):
        with pytest.raises(TraceParseError, match="must differ"):
            parse_trace(SMALL + "FORK parent=1 child=2\nIPC from=2 to=2 chan=pipe\n")

    def test_bad_capability(self):
        with pytest.raises(TraceParseError, match="capability"):
            parse_trace(SMALL + "PRIV pid=1 cap=sys_module\n")

    def test_fork_child_collision(self):
        with pytest.raises(TraceParseError, match="pid 1 already live"):
            parse_trace(SMALL + "FORK parent=1 child=1\n")

    def test_unmount_without_mount(self):
        with pytest.raises(TraceParseError, match="mount id 4 not live"):
            parse_trace(SMALL + "UNMOUNT id=4\n")

    def test_create_on_existing_path(self):
        with pytest.raises(TraceParseError, match="already exists"):
            parse_trace(SMALL + "CREATE pid=1 path=/bin/sh perms=755 owner=root dir=0\n")

    def test_create_without_parent(self):
        with pytest.raises(TraceParseError, match="parent directory"):
            parse_trace(SMALL + "CREATE pid=1 path=/opt/x perms=644 owner=root dir=0\n")

    def test_relative_path_rejected(self):
        with pytest.raises(TraceParseError, match="absolute path"):
            parse_trace(SMALL + "CREATE pid=1 path=tmp/x perms=644 owner=root dir=0\n")

    def test_dot_segments_rejected(self):
        with pytest.raises(TraceParseError, match="invalid segment"):
            parse_trace(SMALL + "CREATE pid=1 path=/tmp/../etc perms=644 owner=root dir=0\n")


class TestCheckPrecedence:
    """A line with two faults reports the one checked first: syntax, then a
    missing field, then an unexpected one, then values in line order."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("FORK parent=1 child=2\nIPC from=1 to=1 chan=bogus\n", "line 9: ipc endpoints must differ"),
            ("CREATE pid=1 path=/bin/sh perms=999 owner=root dir=0\n", "already exists"),
            ("MOUNT id=1 prefix=/tmp\nMOUNT id=1 prefix=tmp\n", "line 9: mount id 1 already live"),
            ("PROC pid=2 key=x user=ghost\n", "unknown user 'ghost'"),
            ("FORK parent=1 child=1 bogus=2\n", "unexpected field 'bogus'"),
        ],
    )
    def test_first_check_wins(self, lines, message):
        with pytest.raises(TraceParseError, match=message):
            parse_trace(SMALL + lines)


def test_event_table_drives_parse_render_and_report_args():
    # A slotted dataclass replaces its class, so each name may be listed twice.
    kinds = sorted({cls.__name__ for cls in Event.__subclasses__()})
    assert sorted(cls.__name__ for cls, _ in _EVENTS.values()) == kinds
    assert len(EVENT_VERBS) == len(_EVENTS)
    lines = [
        "FORK parent=1 child=2",
        "EXEC pid=2 fid=3",
        "NET pid=2 peer=203.0.113.80",
        "LOGIN pid=2 user=root",
        "MOUNT id=1 prefix=/tmp",
        "UNMOUNT id=1",
        "COPY pid=1 src=3 dst=/tmp/sh perms=755 owner=root",
        "CREATE pid=1 path=/tmp/d perms=700 owner=root dir=1",
        "WRITE pid=1 fid=5",
        "READ pid=2 fid=6",
        "IPC from=1 to=2 chan=shm",
        "PRIV pid=1 cap=CAP_SYS_MODULE",
    ]
    trace = parse_trace(SMALL + "\n".join(lines) + "\n")
    assert sorted(EVENT_VERBS[type(ev)] for ev in trace.events) == sorted(_EVENTS)
    assert [render_event(ev) for ev in trace.events] == lines
    for row in json.loads(replay(trace, EnvironmentBit.UNSECURE).to_json())["decisions"]:
        assert sorted(row["args"]) == sorted(attr for attr, _ in _EVENTS[row["event"]][1].values())


class TestFidMirroring:
    def test_created_files_get_sequential_fids(self):
        text = (
            SMALL
            + "CREATE pid=1 path=/tmp/a perms=644 owner=root dir=0\n"
            + "CREATE pid=1 path=/tmp/b perms=644 owner=root dir=0\n"
            + "WRITE pid=1 fid=5\n"
            + "READ pid=1 fid=6\n"
        )
        trace = parse_trace(text)
        assert len(trace.events) == 4
        assert [ev.new_fid for ev in trace.events[:2]] == [5, 6]

    def test_reference_before_creation_rejected(self):
        text = SMALL + "WRITE pid=1 fid=5\nCREATE pid=1 path=/tmp/a perms=644 owner=root dir=0\n"
        with pytest.raises(TraceParseError, match="unknown fid 5"):
            parse_trace(text)

    def test_copy_to_fresh_path_allocates(self):
        text = SMALL + "COPY pid=1 src=3 dst=/tmp/sh.bak perms=755 owner=root\n" + "WRITE pid=1 fid=5\n"
        trace = parse_trace(text)
        assert isinstance(trace.events[0], Copy)
        assert trace.events[0].dst_fid == 5

    def test_copy_to_existing_path_does_not_allocate(self):
        text = (
            SMALL
            + "COPY pid=1 src=3 dst=/bin/sh perms=755 owner=root\n"
            + "CREATE pid=1 path=/tmp/x perms=644 owner=root dir=0\n"
            + "WRITE pid=1 fid=5\n"
        )
        trace = parse_trace(text)
        assert isinstance(trace.events[1], Create)
        assert trace.events[0].dst_fid == 3
        assert trace.events[1].new_fid == 5

    def test_a_create_the_engine_denies_still_uses_its_id(self):
        text = (
            SMALL
            + "NET pid=1 peer=203.0.113.5\n"
            + "CREATE pid=1 path=/bin/evil perms=755 owner=root dir=0\n"
            + "CREATE pid=1 path=/tmp/next perms=644 owner=root dir=0\n"
            + "WRITE pid=1 fid=6\n"
        )
        trace = parse_trace(text)
        assert [trace.events[1].new_fid, trace.events[2].new_fid] == [5, 6]
        engine = Engine(EngineConfig.from_trace(trace), ExceptionStore())
        verdicts = [engine.step(ev).verdict for ev in trace.events]
        assert verdicts[1] is Verdict.DENY
        assert 5 not in engine.files
        assert engine.files[6].path == "/tmp/next"


class TestScenarioFixtures:
    def test_usb_rootkit_has_nine_events(self):
        trace = scenarios.load_trace("usb-rootkit")
        assert len(trace.events) == 9
        assert isinstance(trace.events[-1], PrivOp)
        assert trace.header.label == "attack"

    @pytest.mark.parametrize("name", scenarios.available())
    def test_all_fixtures_parse(self, name):
        trace = scenarios.load_trace(name)
        assert trace.events

    @pytest.mark.parametrize("name", scenarios.available())
    def test_fixtures_render_round_trip(self, name):
        trace = scenarios.load_trace(name)
        again = parse_trace(render_trace(trace))
        assert render_trace(again) == render_trace(trace)
        assert len(again.events) == len(trace.events)


class TestTotality:
    def test_non_utf8_bytes_are_positioned_errors(self):
        with pytest.raises(TraceParseError, match="UTF-8"):
            parse_trace(b"cumac-trace v1\n\xff\xfe\n")

    def test_non_decimal_digits_are_positioned_errors(self):
        with pytest.raises(TraceParseError, match="unsigned integer"):
            parse_trace(SMALL + "FORK parent=\u00b2 child=2\n")

    @pytest.mark.parametrize("digits", ["\u0661\u0662", "\uff11\uff12", "1\u0662"])
    def test_non_ascii_decimal_digits_are_positioned_errors(self, digits):
        # Arabic-Indic, fullwidth and mixed digits: int() reads them, but
        # only ASCII digits make a number.
        with pytest.raises(TraceParseError, match="unsigned integer") as exc:
            parse_trace(SMALL + f"FORK parent=1 child={digits}\n")
        assert exc.value.line == SMALL.count("\n") + 1

    @pytest.mark.parametrize(
        "line",
        [
            "FORK parent=01 child=2",
            "FORK parent=1 child=002",
            "EXEC pid=1 fid=03",
            "MOUNT id=00 prefix=/mnt",
        ],
    )
    def test_leading_zeros_are_positioned_errors(self, line):
        # The line before makes "1" and "3" numbers that passed, so a
        # zero-padded spelling of either must not be taken as them.
        with pytest.raises(TraceParseError, match="leading zero") as exc:
            parse_trace(SMALL + "EXEC pid=1 fid=3\n" + line + "\n")
        assert exc.value.line == SMALL.count("\n") + 2

    def test_leading_zero_in_a_snapshot_line_is_a_positioned_error(self):
        with pytest.raises(TraceParseError, match="leading zero") as exc:
            parse_trace(SMALL + "PROC pid=2 key=07 user=root\n")
        assert exc.value.line == SMALL.count("\n") + 1

    def test_zero_itself_is_a_number(self):
        trace = parse_trace(SMALL + "MOUNT id=0 prefix=/mnt\nUNMOUNT id=0\n")
        assert [ev.mount_id for ev in trace.events] == [0, 0]

    def test_fuzzed_inputs_never_crash(self):
        rng = random.Random(20260810)
        corpus = [scenarios.load(name).encode() for name in scenarios.available()]
        alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789=/_.-# \n\xff\x00"
        ok = 0
        errors = 0
        for i in range(3000):
            data = bytearray(rng.choice(corpus))
            for _ in range(rng.randint(1, 8)):
                op = rng.randrange(4)
                if not data:
                    break
                pos = rng.randrange(len(data))
                if op == 0:
                    data[pos] = rng.choice(alphabet)
                elif op == 1:
                    del data[pos]
                elif op == 2:
                    data.insert(pos, rng.choice(alphabet))
                else:
                    del data[pos : pos + rng.randint(1, 40)]
            try:
                parse_trace(bytes(data))
                ok += 1
            except TraceParseError as exc:
                assert exc.line >= 0
                errors += 1
        assert ok + errors == 3000


class TestLineEnds:
    """A line ends at "\n" alone; other characters that str.splitlines()
    breaks at are whitespace inside a line, and a "\r" before the "\n" is
    stripped."""

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_comment_runs_to_the_newline(self, brk):
        trace = parse_trace(SMALL + f"# note{brk}more\nFORK parent=1 child=2\n")
        assert [render_event(ev) for ev in trace.events] == ["FORK parent=1 child=2"]

    def test_crlf_lines_parse(self):
        text = SMALL + "FORK parent=1 child=2\n"
        assert parse_trace(text.replace("\n", "\r\n")) == parse_trace(text)

    def test_error_lines_count_newlines_only(self):
        comment = "# a\x0c\x0cb\u2028c\n"
        bad_line = SMALL.count("\n") + 2
        with pytest.raises(TraceParseError, match="unknown verb 'BOGUS'") as text_error:
            parse_trace(SMALL + comment + "BOGUS\n")
        assert text_error.value.line == bad_line
        with pytest.raises(TraceParseError, match="not valid UTF-8") as bytes_error:
            parse_trace((SMALL + comment).encode() + b"\xff\n")
        assert bytes_error.value.line == bad_line


class TestCollectorState:
    """parse_trace() pauses the cyclic collector while it reads the lines
    and leaves it as it found it, whether the text parses or not."""

    def test_clean_parse_restores_collector_state(self, collector, monkeypatch):
        seen_during_lines = set()
        feed = _Parser.feed

        def observed_feed(parser, line_no, line):
            seen_during_lines.add(gc.isenabled())
            return feed(parser, line_no, line)

        monkeypatch.setattr(_Parser, "feed", observed_feed)
        trace = parse_trace(SMALL + "FORK parent=1 child=2\n")
        assert len(trace.events) == 1
        assert seen_during_lines == {False}
        assert gc.isenabled() is collector

    def test_parse_error_restores_collector_state(self, collector):
        with pytest.raises(TraceParseError, match="unknown pid 9"):
            parse_trace(SMALL + "FORK parent=9 child=2\n")
        assert gc.isenabled() is collector


class TestChannelValues:
    def test_all_channels_parse(self):
        base = SMALL + "FORK parent=1 child=2\n"
        for token, chan in (
            ("pipe", IpcChannel.PIPE),
            ("signal", IpcChannel.SIGNAL),
            ("socket_local", IpcChannel.SOCKET_LOCAL),
            ("shm", IpcChannel.SHARED_MEMORY),
        ):
            trace = parse_trace(base + f"IPC from=1 to=2 chan={token}\n")
            assert trace.events[-1].channel is chan
