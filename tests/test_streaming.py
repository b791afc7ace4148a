"""``learn`` and ``enforce`` parse and replay a trace one parse block at a
time and drop each block once its rows are written. What they write must
be what the library gives for the whole trace at once (``parse_trace``
with ``replay`` or ``learn``), a failure must report the error it always
reported, and the run must hold much less memory than the whole trace."""

import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cumac import cli, scenarios
from cumac.model import Copy, Create
from cumac.randomtrace import random_trace
from cumac.replay import learn, replay
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import _PARSE_BLOCK, _line_blocks, _Parser, parse_trace, render_trace


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


def cli_process(argv: list[str], stdout, env: dict | None = None) -> subprocess.CompletedProcess:
    """``python -m cumac.cli`` with ``argv``, its stdout on ``stdout``."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "cumac.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src), **(env or {})},
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


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
