"""Trace parsing: positioned errors, static reference checks, totality,
collector state, and the canonical path and the generated checkers
against the line-by-line reference."""

import gc
import json
import random
import re

import pytest
from conftest import feed_every_line
from hypothesis import given, settings
from hypothesis import strategies as st

from cumac import scenarios
from cumac import trace as trace_module
from cumac.engine import Engine, EngineConfig
from cumac.errors import TraceParseError
from cumac.model import Copy, Create, Event, IpcChannel, PrivOp, Verdict
from cumac.randomtrace import random_trace
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
        assert list(trace.header.users) == ["root"]

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

    @staticmethod
    def _reference_path(token: str) -> str:
        """The path check that tests every segment of every path."""
        if not token.startswith("/"):
            return "absolute path"
        if token == "/":
            return token
        if token.endswith("/"):
            return "must not end with"
        if any(segment in ("", ".", "..") for segment in token[1:].split("/")):
            return "invalid segment"
        return token

    @given(st.text(alphabet="/.a", max_size=8))
    def test_path_check_matches_the_segment_loop(self, token):
        try:
            got = _Parser().path(3, "path", token)
        except TraceParseError as exc:
            assert exc.line == 3
            assert self._reference_path(token) in exc.reason
        else:
            assert got == self._reference_path(token) == token


class TestCheckPrecedence:
    """A line with two faults reports the one checked first: syntax, then a
    missing field, then an unexpected one, then values in line order."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("FORK parent=1 child=2\nIPC from=1 to=1 chan=bogus\n", "line 9: ipc endpoints must differ"),
            ("CREATE pid=1 path=/bin/sh perms=999 owner=root dir=0\n", "already exists"),
            ("MOUNT id=1 prefix=/tmp\nMOUNT id=1 prefix=tmp\n", "line 9: mount id 1 already live"),
            ("PROC pid=1 key=x user=ghost\n", "duplicate pid 1"),
            ("PROC pid=2 key=x user=ghost\n", "key must be an unsigned integer, got 'x'"),
            ("FORK parent=1 child=1 bogus=2\n", "unexpected field 'bogus'"),
        ],
    )
    def test_first_check_wins(self, lines, message):
        with pytest.raises(TraceParseError, match=message):
            parse_trace(SMALL + lines)


def test_event_table_drives_parse_render_and_report_args():
    # A slotted dataclass replaces its class, so each name may be listed
    # twice; subclasses that other tests define are left out.
    kinds = sorted(
        {cls.__name__ for cls in Event.__subclasses__() if cls.__module__ == "cumac.model"}
    )
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


class TestBlocks:
    """``parse_trace`` splits its text into lines one block at a time; the
    lines, and so the trace and the line numbers of errors, are those of
    splitting the whole text at once."""

    @staticmethod
    def text() -> str:
        # Comments, blank lines and CRLF endings take the general path.
        lines = render_trace(random_trace(seed=11, events=8000)).split("\n")
        lines[7:7] = ["# a comment", "", "   "]
        lines[2000] += "\r"
        return "\n".join(lines)

    @pytest.mark.parametrize("block", [None, 1, 2, 37, 4096])
    def test_any_block_size_gives_the_same_trace(self, monkeypatch, block):
        text = self.text()
        assert len(text) > 2 * trace_module._PARSE_BLOCK
        monkeypatch.setattr(trace_module, "_PARSE_BLOCK", len(text))
        whole = parse_trace(text)
        monkeypatch.undo()
        if block is not None:
            monkeypatch.setattr(trace_module, "_PARSE_BLOCK", block)
        assert parse_trace(text) == whole

    def test_the_blocks_hold_the_lines_of_the_text(self):
        text = self.text()
        blocks = list(trace_module._line_blocks(text))
        assert len(blocks) > 2
        assert [line for block in blocks for line in block] == text.split("\n")
        for ending in ("", "\n", "\n\n"):
            assert [line for block in trace_module._line_blocks(ending) for line in block] == ending.split("\n")

    @pytest.mark.parametrize("block", [None, 1, 64])
    def test_a_bad_line_after_the_first_block_reports_its_own_line(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(trace_module, "_PARSE_BLOCK", block)
        lines = self.text().split("\n")
        first_block_lines = self.text()[: trace_module._PARSE_BLOCK].count("\n") + 1
        for bad_line in (first_block_lines + 1, len(lines) - 1):
            broken = lines[: bad_line - 1] + ["BOGUS pid=1"] + lines[bad_line - 1 :]
            with pytest.raises(TraceParseError, match="unknown verb 'BOGUS'") as raised:
                parse_trace("\n".join(broken))
            assert raised.value.line == bad_line


class TestCollectorState:
    """parse_trace() pauses the cyclic collector while it reads the lines
    and leaves it as it found it, whether the text parses or not."""

    def test_clean_parse_restores_collector_state(self, collector, monkeypatch):
        # feed() sees the header, the snapshot and the two-space FORK line;
        # both FORK lines end in the generated FORK checker.
        seen_during_lines = set()

        def observed(name, call):
            def observed_call(*args):
                seen_during_lines.add((name, gc.isenabled()))
                return call(*args)

            return observed_call

        monkeypatch.setattr(_Parser, "feed", observed("feed", _Parser.feed))
        checkers = trace_module._checkers
        monkeypatch.setattr(
            trace_module,
            "_checkers",
            lambda parser: {
                verb: observed(verb, check) for verb, check in checkers(parser).items()
            },
        )
        trace = parse_trace(SMALL + "FORK parent=1 child=2\nFORK  parent=1 child=3\n")
        assert len(trace.events) == 2
        assert seen_during_lines == {("feed", False), ("FORK", False)}
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


def outcome(parse, text):
    """The Trace a parse gives, or its error's type, line and message."""
    try:
        return parse(text)
    except TraceParseError as exc:
        return type(exc), exc.line, str(exc)


class TestCanonicalPath:
    """parse_trace() reads canonical event lines without feed(); every
    input gives the Trace or the error that feeding each line gives."""

    # Characters the mutations insert: ASCII, the bytes criterion 10 uses
    # as characters, and whitespace that str.split() skips but " " is not.
    ALPHABET = (
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789=/_.-# \n"
        "\x00\xff\xc3\t\r\x1c\xa0\u2028"
    )

    def assert_same_outcome(self, text):
        assert outcome(parse_trace, text) == outcome(feed_every_line, text), text

    def test_regex_whitespace_is_str_whitespace(self):
        space = re.compile(r"\s").fullmatch
        differ = [
            hex(code) for code in range(0x110000)
            if chr(code).isspace() != (space(chr(code)) is not None)
        ]
        assert differ == []

    def test_rendered_event_lines_skip_feed(self, monkeypatch):
        fed = []
        feed = _Parser.feed

        def observed_feed(parser, line_no, line):
            fed.append(line)
            return feed(parser, line_no, line)

        monkeypatch.setattr(_Parser, "feed", observed_feed)
        trace = random_trace(seed=4, events=300)
        text = render_trace(trace)
        assert parse_trace(text) == trace
        assert not any(line.split(" ")[0] in _EVENTS for line in fed)
        assert len(fed) == text.count("\n") + 1 - len(trace.events)

    @pytest.mark.parametrize("name", scenarios.available())
    def test_scenarios_match_the_reference(self, name):
        text = scenarios.load(name)
        assert parse_trace(text) == feed_every_line(text)

    def test_rendered_random_traces_match_the_reference(self):
        for seed in range(100):
            trace = random_trace(seed=seed, events=20 + 3 * seed)
            text = render_trace(trace)
            assert parse_trace(text) == feed_every_line(text) == trace

    @staticmethod
    def mutate_line(rng, line, alphabet):
        op = rng.randrange(8)
        if op == 0 and line:
            pos = rng.randrange(len(line))
            return line[:pos] + rng.choice(alphabet) + line[pos + 1 :]
        if op == 1 and line:
            pos = rng.randrange(len(line))
            return line[:pos] + line[pos + 1 :]
        if op <= 2:
            pos = rng.randint(0, len(line))
            return line[:pos] + rng.choice(alphabet) + line[pos:]
        tokens = line.split(" ")
        pos = rng.randrange(len(tokens))
        if op == 3:  # two fields swapped
            if len(tokens) > 2:
                pos, other = rng.sample(range(1, len(tokens)), 2)
                tokens[pos], tokens[other] = tokens[other], tokens[pos]
        elif op == 4:  # a run of whitespace, or other whitespace, between tokens
            tokens[pos] += rng.choice(("", " ", "\t", "\xa0", "\u2028", "\x1c"))
            return rng.choice((" ", "  ", "\t")).join(tokens)
        elif op == 5:  # a leading zero
            tokens[pos] = re.sub(r"=(\d)", r"=0\1", tokens[pos], count=1)
        elif op == 6:  # a second "=" in a value
            tokens[pos] += rng.choice(("=2", "=", "=x"))
        else:  # a value taken from another field of the line
            key = tokens[pos].partition("=")[0]
            tokens[pos] = key + "=" + rng.choice(tokens).partition("=")[2]
        return " ".join(tokens)

    def test_mutated_inputs_match_the_reference(self):
        rng = random.Random(1013)
        corpus = [scenarios.load(name) for name in scenarios.available()]
        corpus += [render_trace(random_trace(seed=seed, events=40)) for seed in range(4)]
        for index in range(4000):
            lines = corpus[index % len(corpus)].split("\n")
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(len(lines))
                if rng.randrange(10):
                    lines[at] = self.mutate_line(rng, lines[at], self.ALPHABET)
                else:  # a line moved, so events may come before the header
                    lines.insert(rng.randrange(len(lines)), lines.pop(at))
            self.assert_same_outcome("\n".join(lines))

    @pytest.mark.parametrize("line", ["READ pid=4 fid=3", "READ  pid=4 fid=3"])
    def test_a_number_read_before_is_still_checked_as_a_pid(self, line):
        # 4 passed the fid check on a FILE line, never the pid check.
        with pytest.raises(TraceParseError, match="unknown pid 4"):
            parse_trace(SMALL + line + "\n")

    @pytest.mark.parametrize("line", ["READ pid=7 fid=7", "READ fid=7 pid=7"])
    def test_a_number_read_before_is_still_checked_as_a_fid(self, line):
        with pytest.raises(TraceParseError, match="unknown fid 7"):
            parse_trace(SMALL + "FORK parent=1 child=7\n" + line + "\n")

    def test_an_event_line_before_the_header_is_refused(self):
        with pytest.raises(TraceParseError, match="unknown format header 'FORK parent=1 child=2'"):
            parse_trace("FORK parent=1 child=2\n" + SMALL)

    def test_equal_numbers_share_one_object_on_both_paths(self):
        text = (
            SMALL
            + "FILE fid=1000 path=/bin/tool perms=755 owner=root dir=0\n"
            + "PROC pid=5000 key=1000 user=root\n"
            + "READ pid=5000 fid=1000\n"  # canonical
            + "READ  pid=5000 fid=1000\n"  # two spaces
            + "READ fid=1000 pid=5000\n"  # fields reordered
            + "EXEC pid=5000 fid=1000\r\n"  # CRLF
        )
        trace = parse_trace(text)
        assert trace == feed_every_line(text)
        assert (trace.events[0].pid, trace.events[0].fid) == (5000, 1000)
        fids = [trace.header.files[-1].fid] + [ev.fid for ev in trace.events]
        pids = [trace.header.processes[-1].pid] + [ev.pid for ev in trace.events]
        assert all(fid is fids[0] for fid in fids)
        assert all(pid is pids[0] for pid in pids)

    def test_equal_texts_share_one_object_on_both_paths(self):
        text = (
            SMALL
            + "NET pid=1 peer=203.0.113.80\n"  # canonical
            + "NET  pid=1 peer=203.0.113.80\n"  # two spaces
            + "LOGIN pid=1 user=root\n"
            + "LOGIN user=root pid=1\n"  # fields reordered
            + "CREATE pid=1 path=/tmp/a perms=755 owner=alice dir=0\n"
            + "CREATE path=/tmp/b pid=1 perms=755 owner=alice dir=0\n"
            + "COPY pid=1 src=3 dst=/tmp/c perms=755 owner=alice\r\n"  # CRLF
            + "COPY pid=1 src=3 dst=/tmp/d perms=755 owner=alice\n"
        )
        trace = parse_trace(text)
        assert trace == feed_every_line(text)
        net, login, create, copy = (trace.events[at : at + 2] for at in range(0, 8, 2))
        for texts in (
            [ev.peer_address for ev in net],
            [ev.user for ev in login],
            [ev.owner for ev in create] + [ev.dst_owner for ev in copy],
            [ev.perms for ev in create] + [ev.dst_perms for ev in copy],
        ):
            assert all(text is texts[0] for text in texts), texts

    def test_a_user_of_one_parse_is_unknown_to_the_next(self):
        parse_trace(SMALL + "USER bob trusted=0\nLOGIN pid=1 user=bob\n")
        with pytest.raises(TraceParseError, match="unknown user 'bob'"):
            parse_trace(SMALL + "LOGIN pid=1 user=bob\n")

    @pytest.mark.parametrize("line", [
        "CREATE pid=1 path=/tmp/a perms=755 owner=root dir=0",
        "CREATE  pid=1 path=/tmp/a perms=755 owner=root dir=0",
    ])
    def test_a_path_passed_as_a_copy_destination_is_still_checked_as_new(self, line):
        text = SMALL + "COPY pid=1 src=3 dst=/tmp/a perms=755 owner=root\n" + line + "\n"
        with pytest.raises(TraceParseError, match="path '/tmp/a' already exists") as raised:
            parse_trace(text)
        assert raised.value.line == 9


def _keys_checked_by(*checks):
    return {(verb, key) for verb, (_, spec) in _EVENTS.items() for key, (_, check) in spec.items()
            if check in checks}


class TestCheckersMatchTheReference:
    """The generated checkers against ``conftest.reference_event``, which
    runs every field check in turn: a random trace, and the same trace with
    one token mutated, give the same Trace or the same error."""

    NUMBERS = (_Parser.pid, _Parser.other_pid, _Parser.new_pid, _Parser.fid,
               _Parser.new_mount, _Parser.live_mount)
    # mutation: (the (verb, key) fields it may hit, its bad values)
    TOKEN_MUTATIONS = {
        "leading zero": (_keys_checked_by(*NUMBERS), None),
        "unknown pid": (_keys_checked_by(_Parser.pid, _Parser.other_pid), ("0", "99999")),
        "unknown fid": (_keys_checked_by(_Parser.fid), ("0", "99999")),
        "duplicate path": (_keys_checked_by(_Parser.new_path), None),
        "bad perms": (_keys_checked_by(_Parser.perms), ("798", "75", "7555", "rwx")),
        "bad channel": (_keys_checked_by(_Parser.channel), ("fifo", "PIPE", "pipe_")),
        "bad capability": (_keys_checked_by(_Parser.capability), ("CAP_sys", "CAP_", "SYS_ADMIN")),
    }
    SEPARATORS = {"extra space": "  ", "tab": "\t"}

    @classmethod
    def mutate(cls, data, lines, mutation):
        events = [at for at, line in enumerate(lines) if line.split(" ")[0] in _EVENTS]
        if mutation in cls.SEPARATORS:
            at = data.draw(st.sampled_from(events))
            tokens = lines[at].split(" ")
            gap = data.draw(st.integers(1, len(tokens) - 1))
            lines[at] = " ".join(tokens[:gap]) + cls.SEPARATORS[mutation] + " ".join(tokens[gap:])
            return
        fields, values = cls.TOKEN_MUTATIONS[mutation]
        targets = [
            (at, index)
            for at in events
            for index, token in enumerate(lines[at].split(" "))
            if (lines[at].split(" ")[0], token.partition("=")[0]) in fields
        ]
        if not targets:
            return
        at, index = data.draw(st.sampled_from(targets))
        tokens = lines[at].split(" ")
        key, _, value = tokens[index].partition("=")
        text = "\n".join(lines)
        if mutation == "leading zero":
            value = "0" + value
        elif mutation == "duplicate path":
            value = data.draw(st.sampled_from(re.findall(r"^FILE .* path=(\S+)", text, re.M)))
        else:  # a bad value, or one that the line or another field of the trace has
            pools = {}
            for other, token in re.findall(r" (\w+)=(\S+)", text):
                pools.setdefault(other, set()).add(token)
            line_values = [token.partition("=")[2] for token in tokens[1:]]
            pool = data.draw(st.sampled_from(
                [values, line_values, *(sorted(pools[key]) for key in sorted(pools))]
            ))
            value = data.draw(st.sampled_from(pool))
        tokens[index] = f"{key}={value}"
        lines[at] = " ".join(tokens)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        events=st.integers(20, 80),
        mutation=st.sampled_from([None, *TOKEN_MUTATIONS, *SEPARATORS]),
        data=st.data(),
    )
    def test_one_token_mutated(self, seed, events, mutation, data):
        lines = render_trace(random_trace(seed=seed, events=events)).split("\n")
        if mutation is not None:
            self.mutate(data, lines, mutation)
        text = "\n".join(lines)
        assert outcome(parse_trace, text) == outcome(feed_every_line, text)
