"""``learn`` and ``enforce`` parse and replay a trace one parse block at a
time and drop each block once its rows are written. What they write must
be what the library gives for the whole trace at once (``parse_trace``
with ``replay`` or ``learn``), a failure must report the error it always
reported, and the run must hold much less memory than the whole trace.
A trace file is read in chunks: its lines, events and UTF-8 errors must
not depend on where the chunks are cut, and the run must hold no more
for a longer file."""

import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumac import cli, scenarios
from cumac import trace as trace_module
from cumac.errors import CumacError, TraceParseError
from cumac.model import Copy, Create
from cumac.randomtrace import random_trace
from cumac.replay import learn, replay
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import (
    _PARSE_BLOCK,
    _READ_CHUNK,
    _decode_chunks,
    _line_blocks,
    _Parser,
    decode_trace,
    parse_trace,
    render_trace,
)


def random_text(seed: int = 12) -> str:
    return render_trace(random_trace(seed=seed, events=8000))


def boundary_text() -> str:
    """A random trace whose lines around the first block boundary take the
    parser's general path: comments, blank lines, CRLF endings, and event
    lines with runs of spaces or tabs between their fields."""
    lines = random_text(seed=13).split("\n")
    boundary = len(next(_line_blocks("\n".join(lines))))
    edited = []
    for index, line in enumerate(lines):
        if abs(index - boundary) <= 40 and line:
            variant = index % 4
            if variant == 0:
                edited += ["# a comment", ""]
            elif variant == 1:
                line += "\r"
            elif variant == 2:
                line = line.replace(" ", "  ")
            else:
                line = "\t" + line.replace(" ", " \t")
        edited.append(line)
    return "\n".join(edited)


TEXTS = {"random": random_text, "boundary": boundary_text}


def test_the_boundary_trace_is_not_canonical_across_its_boundary():
    blocks = list(_line_blocks(boundary_text()))
    assert len(blocks) >= 3
    around = blocks[0][-3:] + blocks[1][:3]
    assert any(line.startswith("#") or "\r" in line or "  " in line or "\t" in line
               for line in around)


@pytest.mark.parametrize("name", TEXTS)
def test_parse_trace_is_the_blocks_joined(name):
    text = TEXTS[name]()
    assert len(text) > 3 * _PARSE_BLOCK
    parser = _Parser()
    blocks = list(parser.blocks(text))
    assert len(blocks) >= 3 and all(blocks)
    trace = parse_trace(text)
    assert [ev for block in blocks for ev in block] == trace.events
    assert parser.header == trace.header
    assert parser.seq == len(trace.events) == 8000


def test_a_trace_without_events_is_one_empty_block():
    parser = _Parser()
    assert list(parser.blocks("cumac-trace v1\nUSER root trusted=1\n")) == [[]]
    assert parser.header.users == {"root": True}


def pieces(whole, cuts: list[int]) -> list:
    """``whole`` cut at each of ``cuts`` (clamped to its length, sorted; a
    repeated cut gives an empty piece)."""
    ends = sorted(min(cut, len(whole)) for cut in cuts)
    return [whole[start:end] for start, end in zip([0, *ends], [*ends, len(whole)])]


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(alphabet="ab \t\r\n#\u00e9", max_size=200),
    cuts=st.lists(st.integers(0, 200), max_size=12),
    block=st.integers(1, 48) | st.just(_PARSE_BLOCK),
)
@example(text="a\r\nb\r\n", cuts=[2, 2, 5], block=1)  # \r\n cut, an empty chunk
@example(text="", cuts=[0], block=1)
@example(text="ab\ncd", cuts=[], block=1)  # no final newline
def test_the_lines_do_not_depend_on_where_the_chunks_are_cut(text, cuts, block):
    chunks = pieces(text, cuts)
    with mock.patch.object(trace_module, "_PARSE_BLOCK", block):
        blocks = list(_line_blocks(iter(chunks)))
        assert blocks == list(_line_blocks(text))
    assert [line for lines in blocks for line in lines] == text.split("\n")


_SMALL_LINES = render_trace(random_trace(seed=31, events=300)).split("\n")[:-1]


@settings(max_examples=60, deadline=None)
@given(
    crlf=st.sets(st.integers(0, len(_SMALL_LINES) - 1), max_size=30),
    final_newline=st.booleans(),
    cuts=st.lists(st.integers(0, 12_000), max_size=30),
    block=st.sampled_from([16, 300, _PARSE_BLOCK]),
)
def test_the_events_do_not_depend_on_where_the_chunks_are_cut(crlf, final_newline, cuts, block):
    lines = [line + "\r" if index in crlf else line for index, line in enumerate(_SMALL_LINES)]
    text = "\n".join(lines) + ("\n" if final_newline else "")
    with mock.patch.object(trace_module, "_PARSE_BLOCK", block):
        parser = _Parser()
        events = [ev for events in parser.blocks(iter(pieces(text, cuts))) for ev in events]
        trace = parse_trace(text)
    assert events == trace.events and len(events) == 300
    assert parser.header == trace.header


def decoded(data: bytes | list[bytes]) -> str:
    """The text of ``data``, whole bytes or chunks, or its error message."""
    try:
        if isinstance(data, bytes):
            return decode_trace(data)
        whole = b"".join(data)
        return "".join(_decode_chunks(iter(data), lambda byte: whole.count(b"\n", 0, byte)))
    except TraceParseError as exc:
        return f"error: {exc}"


_UTF8_PIECES = [b"a", b"\n", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80", b"\xff",
                b"\xc0\xaf", b"\xe2", b"\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@settings(max_examples=500, deadline=None)
@given(
    data=st.lists(st.sampled_from(_UTF8_PIECES), max_size=30).map(b"".join),
    cuts=st.lists(st.integers(0, 120), max_size=8),
)
def test_a_utf8_error_is_placed_in_the_whole_document_wherever_the_chunks_are_cut(data, cuts):
    assert decoded(pieces(data, cuts)) == decoded(data)


def utf8_cases() -> dict[str, bytes]:
    """A trace of several read chunks with bytes that are not UTF-8 placed
    around the chunk boundaries."""
    data = render_trace(random_trace(seed=5, events=7000)).encode()
    assert len(data) > 3 * _READ_CHUNK
    edge = _READ_CHUNK - 1  # a sequence placed here is cut by the first boundary
    return {
        "invalid-byte-in-the-first-chunk": data[:100] + b"\xff" + data[100:],
        "sequence-cut-by-a-boundary-then-invalid-byte":
            data[:edge] + "\u20ac".encode() + data[edge:edge + 500] + b"\xff" + data[edge + 500:],
        "invalid-sequence-cut-by-a-boundary": data[:edge] + b"\xe2\x82(" + data[edge:],
        "invalid-sequence-in-the-last-chunk": data[:-50] + b"\xc3(" + data[-50:],
        "sequence-truncated-at-end-of-file": data + b"\xe2\x82",
    }


@pytest.mark.parametrize("case", utf8_cases())
def test_a_trace_files_utf8_error_is_decode_traces(tmp_path, capsys, case):
    data = utf8_cases()[case]
    path = tmp_path / "t.trace"
    path.write_bytes(data)
    assert cli.main(["enforce", "--trace", str(path), "--empty-store"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == decoded(data) + "\n"
    assert decoded(data).startswith("error: line ")


def test_a_file_changed_after_its_check_is_still_a_positioned_error(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(random_text())
    _, chunks = cli._read_trace(Namespace(trace=str(path), scenario=None))
    changed = path.read_bytes()[:_READ_CHUNK + 10] + b"\xff"
    path.write_bytes(changed)
    with pytest.raises(TraceParseError) as raised:
        list(_Parser().blocks(chunks))
    assert f"error: {raised.value}" == decoded(changed)


def test_a_file_removed_after_its_check_is_a_read_error(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(random_text())
    _, chunks = cli._read_trace(Namespace(trace=str(path), scenario=None))
    path.unlink()
    with pytest.raises(CumacError, match=f"^cannot read trace {path}: "):
        list(chunks)


@pytest.fixture
def opened(monkeypatch) -> list:
    """Every file opened through ``Path.open`` in the test."""
    files = []
    path_open = Path.open

    def spy(self, *args, **kwargs):
        files.append(path_open(self, *args, **kwargs))
        return files[-1]

    monkeypatch.setattr(Path, "open", spy)
    return files


@pytest.mark.parametrize("argv, code", [
    ("enforce --trace {dir}/clean.trace --empty-store", 1),
    ("enforce --trace {dir}/clean.trace --store {dir}/none.cumac", 2),
    ("enforce --trace {dir}/late.trace --store {dir}/none.cumac", 2),
    ("learn --trace {dir}/late.trace --store-out {dir}/s.cumac", 2),
    ("compare --trace {dir}/late.trace --empty-store", 2),
], ids=["run", "options-error-drains", "parse-error-in-the-drain", "parse-error", "compare"])
def test_the_trace_file_is_closed_on_every_path(capsys, inputs, opened, argv, code):
    assert cli.main(argv.format(dir=inputs).split()) == code
    traces = [file for file in opened if file.name.endswith(".trace")]
    assert len(traces) == 2  # the UTF-8 check, then the parse
    assert all(file.closed for file in traces)


def test_an_unfinished_read_closes_the_file_when_it_is_dropped(inputs, opened):
    _, chunks = cli._read_trace(Namespace(trace=str(inputs / "clean.trace"), scenario=None))
    assert next(chunks)
    assert not opened[-1].closed
    del chunks
    assert opened[-1].closed


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def summary(name: str, report) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._print_replay_summary(name, report)
    return out.getvalue()


# Reports are compared as lists of lines, so that a failure names the
# first differing line at once rather than diffing two texts of megabytes.


def before_timing(structured: str) -> list[str]:
    """The lines of a structured report up to its last section, ``timing``."""
    return structured[: structured.rindex('\n  "timing": ')].splitlines(True)


def without_timing(text: str) -> list[str]:
    """The lines of a text report but its last, ``timing``."""
    lines = text.split("\n")
    assert lines[-2].startswith("timing: ")
    return lines[:-2]


def key_paths(trace) -> dict[int, str]:
    """The path of every file of the snapshot or made by a create or copy,
    by fid, taken from the parsed events."""
    paths = {f.fid: f.path for f in trace.header.files}
    for ev in trace.events:
        if type(ev) is Create:
            paths.setdefault(ev.new_fid, ev.path)
        elif type(ev) is Copy:
            paths.setdefault(ev.dst_fid, ev.dst_path)
    return paths


@pytest.mark.parametrize("fmt", ["structured", "text"])
@pytest.mark.parametrize("name", TEXTS)
class TestStreamedCommandsEqualTheLibrary:
    def test_enforce(self, tmp_path, name, fmt):
        text = TEXTS[name]()
        path, report_path = tmp_path / "t.trace", tmp_path / "report"
        path.write_text(text)
        code, out = run_cli(["enforce", "--trace", str(path), "--empty-store",
                             "--format", fmt, "--report", str(report_path)])
        want = replay(parse_trace(text), EnvironmentBit.UNSECURE, ExceptionStore())
        assert code == 1 == (want.deny_count > 0)
        assert out == summary(str(path), want)
        written = report_path.read_text("utf-8")
        if fmt == "structured":
            assert before_timing(written) == before_timing(want.to_json())
        else:
            assert without_timing(written) == without_timing(want.to_text())

    def test_learn(self, tmp_path, name, fmt):
        text = TEXTS[name]()
        path, store_path, report_path = tmp_path / "t.trace", tmp_path / "s", tmp_path / "r"
        path.write_text(text)
        code, out = run_cli(["learn", "--trace", str(path), "--store-out", str(store_path),
                             "--format", fmt, "--report", str(report_path)])
        trace = parse_trace(text)
        want, store = learn(trace)
        paths = key_paths(trace)
        for key in store.granted_keys():
            if key in paths:
                store.key_paths[key] = paths[key]
        assert code == 0
        assert out == summary(str(path), want) + f"store written: {store_path}\n"
        assert store_path.read_text("utf-8") == store.save()
        assert "\n# key " in store.save()
        written = report_path.read_text("utf-8")
        if fmt == "structured":
            assert before_timing(written) == before_timing(want.to_json())
        else:
            assert without_timing(written) == without_timing(want.to_text())


def test_a_report_to_stdout_follows_the_summary(tmp_path):
    # The summary is printed after the run, so rows streamed into stdout
    # would come before it; a report that goes to stdout is held instead.
    text = random_text()
    path = tmp_path / "t.trace"
    path.write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["enforce", "--trace", str(path), "--empty-store", "--format", "structured",
            "--report", "/dev/stdout"]
    run = subprocess.run(
        [sys.executable, "-m", "cumac.cli", *argv], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    want = replay(parse_trace(text), EnvironmentBit.UNSECURE, ExceptionStore())
    assert run.returncode == 1 and run.stderr == ""
    head = summary(str(path), want)
    assert run.stdout.startswith(head)
    assert before_timing(run.stdout[len(head):]) == before_timing(want.to_json())


def cli_process(
    argv: list[str], stdout, env: dict | None = None, stdin: str | None = None
) -> subprocess.CompletedProcess:
    """``python -m cumac.cli`` with ``argv``, its stdout on ``stdout`` and
    any ``stdin`` text piped in."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "cumac.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src), **(env or {})},
        input=stdin, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_a_trace_piped_to_dev_stdin_gives_the_outputs_of_its_file(tmp_path):
    # A pipe can be read only once: it is read whole before the parse.
    text = random_text()
    path = tmp_path / "t.trace"
    path.write_text(text)
    runs = {}
    for name, trace, stdin in (("file", str(path), None), ("pipe", "/dev/stdin", text)):
        report = tmp_path / f"{name}.json"
        argv = ["enforce", "--trace", trace, "--empty-store",
                "--format", "structured", "--report", str(report)]
        run = cli_process(argv, subprocess.PIPE, stdin=stdin)
        assert run.returncode == 1 and run.stderr == ""
        runs[name] = run.stdout, before_timing(report.read_text("utf-8"))
    piped_stdout, piped_report = runs["pipe"]
    assert piped_stdout.startswith("trace: /dev/stdin (")
    assert (piped_stdout.replace("/dev/stdin", str(path), 1), piped_report) == runs["file"]


def test_a_utf8_error_piped_to_dev_stdin_is_decode_traces():
    # The pipe's bytes are read once: the error's line is counted in them,
    # not in a second read of the pipe, which would find it empty.
    lines = random_text().split("\n")
    data = "\n".join([*lines[:19], "BOGUS pid=1", *lines[19:]]).encode() + b"\xff\n"
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "cumac.cli", "enforce", "--trace", "/dev/stdin", "--empty-store"],
        env={**os.environ, "PYTHONPATH": str(src)},
        input=data, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr.decode() == decoded(data) + "\n"
    assert decoded(data) == f"error: line {len(lines) + 1}: document is not valid UTF-8" \
        f" at byte {len(data) - 2}"


@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_a_report_to_a_redirected_stdout_follows_the_summary(tmp_path, fmt):
    # With stdout redirected to a file, /dev/stdout is that file: opening
    # it for the report would truncate the summary written there.
    text = random_text()
    path, out = tmp_path / "t.trace", tmp_path / "out"
    path.write_text(text)
    argv = ["enforce", "--trace", str(path), "--empty-store", "--format", fmt,
            "--report", "/dev/stdout"]
    with open(out, "w") as stdout:
        run = cli_process(argv, stdout)
    want = replay(parse_trace(text), EnvironmentBit.UNSECURE, ExceptionStore())
    assert run.returncode == 1 and run.stderr == ""
    written, head = out.read_text(), summary(str(path), want)
    assert written.startswith(head)
    if fmt == "structured":
        assert before_timing(written[len(head):]) == before_timing(want.to_json())
    else:
        assert without_timing(written[len(head):]) == without_timing(want.to_text())


def test_a_store_to_stdout_comes_before_the_summary_and_a_report_after(tmp_path):
    # learn's store is written before the summary is printed, and only a
    # report waits for the summary; stdout is redirected to a file.
    out = tmp_path / "out"
    argv = ["learn", "--scenario", "usb-rootkit", "--store-out", "/dev/stdout",
            "--format", "structured", "--report", "/dev/stdout"]
    with open(out, "w") as stdout:
        run = cli_process(argv, stdout)
    trace = scenarios.load_trace("usb-rootkit")
    want, store = learn(trace)
    paths = key_paths(trace)
    store.key_paths.update((key, paths[key]) for key in store.granted_keys())
    assert run.returncode == 0 and run.stderr == ""
    head = store.save() + summary("usb-rootkit", want) + "store written: /dev/stdout\n"
    written = out.read_text()
    assert written.startswith(head)
    assert before_timing(written[len(head):]) == before_timing(want.to_json())


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    "enforce --scenario usb-rootkit --empty-store",
    "enforce --scenario usb-rootkit --empty-store --format text --report /dev/stdout",
    "enforce --scenario usb-rootkit --empty-store --format structured --report /dev/stdout",
    "graph --scenario usb-rootkit",
])
def test_a_closed_stdout_is_one_error_line_and_exit_two(argv, unbuffered):
    # The read end is closed before the command starts, so its first write
    # to stdout fails, be it a print or the flush before main returns.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = cli_process(argv.split(), write_end, {"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert run.returncode == 2
    assert run.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


def test_a_report_in_the_store_file_is_written_last(tmp_path):
    # learn writes its store after the run, so a report streamed into the
    # same file would be cut into; it is held and written over the store.
    text = random_text()
    path, out = tmp_path / "t.trace", tmp_path / "out"
    path.write_text(text)
    argv = ["learn", "--trace", str(path), "--store-out", str(out),
            "--format", "structured", "--report", str(out)]
    assert run_cli(argv)[0] == 0
    want = learn(parse_trace(text))[0]
    assert before_timing(out.read_text()) == before_timing(want.to_json())


def test_a_report_in_a_longer_store_file_replaces_the_store(tmp_path):
    # The store names the rootkit's long path in a key comment, so it is
    # longer than the report: a report written over it from offset 0,
    # rather than into the file opened afresh, would leave its tail.
    text = scenarios.load("usb-rootkit").replace("/mnt/usb/adore", "/mnt/usb/" + "a" * 6000)
    path, out = tmp_path / "t.trace", tmp_path / "out"
    path.write_text(text)
    trace = parse_trace(text)
    want, store = learn(trace)
    paths = key_paths(trace)
    store.key_paths.update((key, paths[key]) for key in store.granted_keys())
    assert len(store.save()) > len(want.to_json()) + 2000
    argv = ["learn", "--trace", str(path), "--store-out", str(out),
            "--format", "structured", "--report", str(out)]
    assert run_cli(argv)[0] == 0
    written = out.read_text()
    assert "timing" in json.loads(written)
    assert before_timing(written) == before_timing(want.to_json())


# -- which error is reported --------------------------------------------------------
#
# Each input with the exit code, stdout and stderr that the command gave
# before it streamed, when it parsed the whole trace first and wrote the
# report last. The trace is random_trace(seed=0, events=8000): trusting
# only root refuses a create its generator counted on, so event 90, in the
# first block, names fid 35 that was never made. "late" appends a bad
# line 8041, in the last block. {dir} is the scratch directory.

_ENGINE_FAULT = "error: event 90: unknown fid 35\n"
_LATE_PARSE_FAULT = "error: line 8041: unknown verb 'BOGUS'\n"
# utf8.trace: a bad line 20, in the first block, and a \xff byte at the end.
_UTF8_FAULT = "error: line 8042: document is not valid UTF-8 at byte 232685\n"
_FULL = "error: cannot write report /dev/full: [Errno 28] No space left on device\n"
_NEEDS_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")

ERROR_ORDER = {
    "engine-fault-then-parse-fault": (
        "enforce --trace {dir}/late.trace --empty-store --trusted-users {dir}/root.txt"
        " --format structured --report {dir}/r.json",
        2, "", _LATE_PARSE_FAULT,
    ),
    "engine-fault": (
        "enforce --trace {dir}/clean.trace --empty-store --trusted-users {dir}/root.txt"
        " --format structured --report {dir}/r.json",
        2, "", _ENGINE_FAULT,
    ),
    "bad-store-then-parse-fault": (
        "enforce --trace {dir}/late.trace --store {dir}/bad.cumac"
        " --format structured --report {dir}/r.json",
        2, "", _LATE_PARSE_FAULT,
    ),
    "bad-store": (
        "enforce --trace {dir}/clean.trace --store {dir}/bad.cumac",
        2, "", "error: line 1: unknown format header 'cumac-exceptions v9'"
        " (want 'cumac-exceptions v1')\n",
    ),
    "store-and-empty-store-then-parse-fault": (
        "enforce --trace {dir}/late.trace --store {dir}/bad.cumac --empty-store",
        2, "", _LATE_PARSE_FAULT,
    ),
    "unreadable-trusted-users-then-parse-fault": (
        "learn --trace {dir}/late.trace --store-out {dir}/s.cumac"
        " --trusted-users {dir}/none.txt",
        2, "", _LATE_PARSE_FAULT,
    ),
    "compare-bad-store-then-parse-fault": (
        "compare --trace {dir}/late.trace --store {dir}/bad.cumac",
        2, "", _LATE_PARSE_FAULT,
    ),
    "missing-trace-and-bad-store": (
        "enforce --trace {dir}/none.trace --store {dir}/bad.cumac",
        2, "", "error: cannot read trace {dir}/none.trace: [Errno 2] No such file or directory:"
        " '{dir}/none.trace'\n",
    ),
    "utf8-fault-after-parse-fault": (
        "enforce --trace {dir}/utf8.trace --empty-store --format structured --report {dir}/r.json",
        2, "", _UTF8_FAULT,
    ),
    "learn-utf8-fault-after-parse-fault": (
        "learn --trace {dir}/utf8.trace --store-out {dir}/s.cumac",
        2, "", _UTF8_FAULT,
    ),
    "compare-utf8-fault-after-parse-fault": (
        "compare --trace {dir}/utf8.trace --store {dir}/bad.cumac",
        2, "", _UTF8_FAULT,
    ),
    "engine-fault-and-unwritable-report": (
        "enforce --trace {dir}/clean.trace --empty-store --trusted-users {dir}/root.txt"
        " --format structured --report {dir}/missing/r.json",
        2, "", _ENGINE_FAULT,
    ),
    "parse-fault-and-unwritable-report": (
        "learn --trace {dir}/late.trace --store-out {dir}/s.cumac"
        " --format structured --report {dir}/missing/r.json",
        2, "", _LATE_PARSE_FAULT,
    ),
    "engine-fault-and-full-device": pytest.param(
        "enforce --trace {dir}/clean.trace --empty-store --trusted-users {dir}/root.txt"
        " --format structured --report /dev/full",
        2, "", _ENGINE_FAULT, marks=_NEEDS_FULL,
    ),
    "store-write-and-full-device": pytest.param(
        "learn --trace {dir}/clean.trace --store-out {dir}/missing/s.cumac"
        " --format structured --report /dev/full",
        2, "", "error: cannot write store {dir}/missing/s.cumac: [Errno 2] No such file or"
        " directory: '{dir}/missing/s.cumac'\n",
        marks=_NEEDS_FULL,
    ),
    "full-device": pytest.param(
        "enforce --trace {dir}/clean.trace --empty-store --format structured --report /dev/full",
        2, "trace: {dir}/clean.trace (benign), 8000 events\nmode: Unsecure\n"
        "allowed: 6143, by exception: 0\n1857 denied (IntegrityWrite, PrivilegedOp,"
        " SensitivityRead)\ntainted: ", _FULL,
        marks=_NEEDS_FULL,
    ),
    "learn-full-device": pytest.param(
        "learn --trace {dir}/clean.trace --store-out {dir}/s.cumac"
        " --format structured --report /dev/full",
        2, "trace: {dir}/clean.trace (benign), 8000 events\nmode: Secure\n"
        "allowed: 8000, by exception: 0\n0 denied\nlearned exceptions: 1631\ntainted: ", _FULL,
        marks=_NEEDS_FULL,
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    text = render_trace(random_trace(seed=0, events=8000))
    (folder / "clean.trace").write_text(text)
    (folder / "late.trace").write_text(text + "BOGUS pid=1\n")
    lines = text.split("\n")
    bad_line = "\n".join(lines[:19] + ["BOGUS pid=1"] + lines[19:])
    (folder / "utf8.trace").write_bytes(bad_line.encode() + b"\xff\n")
    (folder / "root.txt").write_text("root\n")
    (folder / "bad.cumac").write_text("cumac-exceptions v9\n")
    return folder


@pytest.mark.parametrize("argv, code, stdout, stderr", ERROR_ORDER.values(), ids=ERROR_ORDER)
def test_the_first_error_in_the_order_is_reported(capsys, inputs, argv, code, stdout, stderr):
    assert cli.main(argv.format(dir=inputs).split()) == code
    captured = capsys.readouterr()
    assert captured.err == stderr.format(dir=inputs)
    if stdout.endswith("tainted: "):
        # The summary is printed before the report is written: the whole
        # summary of the run without --report.
        assert captured.out.startswith(stdout.format(dir=inputs))
        no_report = argv.format(dir=inputs).split()[: -4]
        assert cli.main(no_report) in (0, 1)
        assert capsys.readouterr().out == captured.out
    else:
        assert captured.out == stdout


# -- memory ------------------------------------------------------------------------


def traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_streamed_enforce_holds_much_less_than_the_whole_trace(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(render_trace(random_trace(seed=25, events=10_000)))
    streamed_report, batch_report = tmp_path / "streamed.json", tmp_path / "batch.json"
    cli._build_parser()  # built once per process, and kept

    def streamed():
        argv = ["enforce", "--trace", str(path), "--empty-store",
                "--format", "structured", "--report", str(streamed_report)]
        assert run_cli(argv)[0] == 1

    def batch():
        report = replay(parse_trace(path.read_bytes()), EnvironmentBit.UNSECURE, ExceptionStore())
        with open(batch_report, "w", encoding="utf-8") as stream:
            report.write_json(stream)

    ratio = traced_peak(streamed) / traced_peak(batch)
    assert ratio < 0.6, f"streamed peak is {ratio:.3f} of the whole-trace peak"
    assert before_timing(streamed_report.read_text()) == before_timing(batch_report.read_text())


def test_a_streamed_enforce_holds_no_more_for_a_longer_file(tmp_path):
    # A trace file is read a chunk at a time, so about 8 MB of comment
    # lines in the middle of it cost the run next to nothing.
    lines = render_trace(random_trace(seed=25, events=10_000)).split("\n")
    middle = len(lines) // 2
    padding = ["# " + "x" * 78] * 100_000
    plain, padded = tmp_path / "plain.trace", tmp_path / "padded.trace"
    plain.write_text("\n".join(lines))
    padded.write_text("\n".join(lines[:middle] + padding + lines[middle:]))
    assert padded.stat().st_size - plain.stat().st_size > 8_000_000
    cli._build_parser()  # built once per process, and kept

    def enforce(path):
        argv = ["enforce", "--trace", str(path), "--empty-store",
                "--format", "structured", "--report", str(tmp_path / f"{path.stem}.json")]
        assert run_cli(argv)[0] == 1

    growth = traced_peak(lambda: enforce(padded)) - traced_peak(lambda: enforce(plain))
    assert growth < 1_000_000, f"the padded trace's peak is {growth} bytes higher"
    plain_report, padded_report = tmp_path / "plain.json", tmp_path / "padded.json"
    assert before_timing(padded_report.read_text()) == before_timing(plain_report.read_text())


def test_an_options_error_holds_much_less_than_the_whole_trace(tmp_path, capsys):
    # The error waits for the rest of the trace to parse, a block at a
    # time, and holds no more of it than a streamed run does.
    path = tmp_path / "t.trace"
    path.write_text(render_trace(random_trace(seed=25, events=10_000)))
    cli._build_parser()  # built once per process, and kept

    def options_error():
        argv = ["enforce", "--trace", str(path), "--store", str(tmp_path / "missing.store")]
        assert run_cli(argv)[0] == 2

    ratio = traced_peak(options_error) / traced_peak(lambda: parse_trace(path.read_bytes()))
    assert ratio < 0.6, f"the options error's peak is {ratio:.3f} of the whole-trace peak"
    assert "error: cannot read store" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["learn", "enforce"])
def test_a_held_report_costs_about_its_own_size(tmp_path, command):
    # A report that waits (for learn's store in its file, or for the summary
    # in the file behind stdout) is held as the pieces written, and written
    # piece by piece, not copied out whole and then encoded whole.
    path = tmp_path / "t.trace"
    path.write_text(render_trace(random_trace(seed=25, events=20_000)))
    cli._build_parser()  # built once per process, and kept

    def run(report, stdout, store):
        argv = [command, "--trace", str(path), "--format", "structured", "--report", str(report)]
        argv += ["--store-out", str(store)] if command == "learn" else ["--empty-store"]
        with open(stdout, "w", encoding="utf-8") as out, redirect_stdout(out):
            assert cli.main(argv) == (command == "enforce")

    held, streamed = tmp_path / "held", tmp_path / "streamed"
    summary_path, store = tmp_path / "summary", tmp_path / "store"
    held_files = (held, summary_path, held) if command == "learn" else (held, held, store)
    held_peak = traced_peak(lambda: run(*held_files))
    extra = held_peak - traced_peak(lambda: run(streamed, summary_path, store))
    written = streamed.read_text("utf-8")
    ratio = extra / len(written)
    assert ratio < 1.3, f"the held report costs {ratio:.2f} times its size"
    held_text = held.read_text("utf-8")  # enforce's starts with the summary
    assert before_timing(held_text[held_text.index("{"):]) == before_timing(written)
