"""Operator entry point.

    cumac learn        --trace T --store-out S         replay Secure, write learned store
    cumac enforce      --trace T --store S             replay Unsecure against a store
    cumac compare      --trace T [--store S]           tracing engine vs low-water-mark
    cumac graph        --trace T [--store S]           emit the taint graph as DOT text
    cumac oracle-check [--events N --runs N --seed N]  engine vs reachability oracle

Traces come from a file (--trace) or a bundled scenario (--scenario). The
environment bit is implied by the command: learn runs Secure, everything
else runs Unsecure, so the two cannot be combined contradictorily.

Exit codes are a stable contract: 0 = ran with zero denials (for
oracle-check: all runs matched), 1 = ran with at least one denial (or an
oracle mismatch), 2 = usage, parse or configuration error, or an output
that could not be written (a closed stdout included).

learn and enforce replay one parse block at a time and then drop it, so
they never hold the whole trace's events, on an error path either. Any
error after the trace is read drains the rest of its blocks before it is
raised, so the first error in this order is reported: trace read, parse,
options/store/snapshot, engine, store write, report write. The other
commands need the whole trace, and parse it before reading the options.

Every output file (learn's store, any --report, graph's DOT text) is
written through ``_Output``, by one rule. A path is opened at most once,
and the file behind stdout (/dev/stdout, or the file stdout is redirected
to) never. Text is held in memory, as the pieces written, and written
last in two cases only: for a path that is stdout, which gets a report
after the summary (learn's store goes before it), and for a report in
the file of learn's --store-out, which is opened afresh after the store.
The first write error of a file is kept and reported after any earlier
error.

The modules that only compare, graph and oracle-check use (lwm, oracle,
randomtrace) are imported by those commands, so that learn and enforce
start without them.
"""

from __future__ import annotations

import argparse
import json  # noqa: F401  (unused here; perfbench/tracer.py times cli.json.dumps)
import os
import sys
from contextlib import nullcontext
from functools import cache
from pathlib import Path
from typing import Any

from . import scenarios
from .errors import CumacError
from .model import entity_sort_key
from .replay import DecisionRows, Outcomes, ReplayReport, ReplayRun, replay, write_document
from .store import EnvironmentBit, ExceptionStore
from .trace import Trace, TraceHeader, _Parser, collector_paused, decode_trace, parse_trace

_OPTIONS: dict[str, dict[str, Any]] = {
    "--trace": {"metavar": "P", "help": "trace file to replay"},
    "--scenario": {
        "metavar": "NAME",
        "help": f"bundled scenario ({', '.join(scenarios.available())})",
    },
    "--store": {"metavar": "P", "help": "exception store to read"},
    "--empty-store": {"action": "store_true", "help": "start from an empty exception store"},
    "--trusted-users": {
        "metavar": "P",
        "help": "file of user names; exactly these users are trusted, overriding the trace header",
    },
    "--store-out": {"metavar": "P", "help": "where to write the store after learning"},
    "--report": {"metavar": "P", "help": "write the full report here"},
    "--format": {"choices": ("text", "structured"), "default": "text"},
    "--events": {"type": int, "default": 1000, "metavar": "N"},
    "--runs": {"type": int, "default": 100, "metavar": "N"},
    "--seed": {"type": int, "default": 0, "metavar": "N"},
}
_REPLAY_INPUTS = ("--trace", "--scenario", "--store", "--empty-store", "--trusted-users")
_COMMAND_OPTIONS: dict[str, tuple[str, ...]] = {
    "learn": (*_REPLAY_INPUTS, "--store-out", "--report", "--format"),
    "enforce": (*_REPLAY_INPUTS, "--report", "--format"),
    "compare": (*_REPLAY_INPUTS, "--report", "--format"),
    "graph": (*_REPLAY_INPUTS, "--report"),
    "oracle-check": ("--events", "--runs", "--seed", "--report", "--format"),
}
"""Per command, exactly the options its handler reads; any other option
is a usage error."""


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and kept: argparse's
    help formatters make reference cycles, so one parser per process keeps
    a command free of them."""
    parser = argparse.ArgumentParser(
        prog="cumac",
        description="Replay OS-event traces against the intrusion-tracing reference monitor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _COMMAND_OPTIONS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _read_trace(args: argparse.Namespace) -> tuple[str, str]:
    """A replay command's trace name and text."""
    if bool(args.trace) == bool(args.scenario):
        raise CumacError("exactly one of --trace or --scenario is required")
    if args.scenario:
        try:
            return args.scenario, scenarios.load(args.scenario)
        except KeyError as exc:
            raise CumacError(str(exc.args[0])) from None
    path = Path(args.trace)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CumacError(f"cannot read trace {path}: {exc}") from None
    return str(path), decode_trace(data)


def _read_options(
    args: argparse.Namespace, store_required: bool = False
) -> tuple[ExceptionStore, set[str] | None]:
    """A replay command's store and any --trusted-users names."""
    if args.store and args.empty_store:
        raise CumacError("--store and --empty-store are mutually exclusive")
    if args.store:
        path = Path(args.store)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CumacError(f"cannot read store {path}: {exc}") from None
        store = ExceptionStore.load(data)
    elif store_required and not args.empty_store:
        raise CumacError("this command needs --store P or an explicit --empty-store")
    else:
        store = ExceptionStore()
    if not args.trusted_users:
        return store, None
    path = Path(args.trusted_users)
    try:
        lines = path.read_bytes().decode("utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CumacError(f"cannot read trusted-users file {path}: {exc}") from None
    return store, {
        line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")
    }


def _load_trace(args: argparse.Namespace) -> tuple[Trace, str, ExceptionStore, TraceHeader]:
    """The parsed trace of ``compare`` or ``graph``, its name, store and
    snapshot; the trace is parsed before the options are read."""
    name, text = _read_trace(args)
    trace = parse_trace(text)
    store, trusted = _read_options(args)
    return trace, name, store, TraceHeader.from_trace(trace, trusted)


class _Output:
    """One output file, written by the rule of the module docstring in a
    ``with`` block: ``write`` writes into the file or holds, and the end
    of the block writes what is held, closes the file and raises the first
    ``OSError`` as ``cannot write {label} {path}``. ``later`` is a path
    that the command writes after this one is opened. A block left by an
    error drops what is held and leaves the file as far as it was written."""

    __slots__ = ("label", "path", "stdout", "held", "stream", "error")

    def __init__(self, label: str, path: str, later: str | None = None):
        self.label, self.path, self.stream, self.error = label, path, None, None
        self.stdout = _is_stdout(path)
        self.held = [] if self.stdout or (later and _same_file(path, later)) else None
        if self.held is None:
            self._open()

    def _open(self) -> None:
        try:
            self.stream = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            self.error = exc

    def write(self, text: str) -> None:
        if self.held is not None:
            self.held.append(text)
        elif self.error is None:
            try:
                self.stream.write(text)
            except OSError as exc:
                self.error = exc

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, failed: type | None, *_: object) -> None:
        if failed is None and self.held is not None:
            held, self.held = self.held, None
            if self.stdout:
                sys.stdout.writelines(held)  # a BrokenPipeError goes on to main
            else:
                self._open()
                for piece in held:
                    self.write(piece)
        if self.stream is not None:
            try:
                self.stream.close()
            except OSError as exc:
                self.error = self.error or exc
        if failed is None and self.error is not None:
            raise CumacError(f"cannot write {self.label} {self.path}: {self.error}")


def _is_stdout(path: str) -> bool:
    """Whether ``path`` is the file behind stdout. Opening it again would
    truncate what stdout wrote, or write past what it still buffers."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file, or no file behind stdout
        return False


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one file, made or not yet."""
    try:
        return os.path.samefile(path, other)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(path) == os.path.realpath(other)


def _write_file(label: str, path: str, payload: str) -> None:
    """Write ``payload``, an output's whole text (perfbench/tracer.py
    counts the reports written here)."""
    with _Output(label, path) as out:
        out.write(payload)


def _print_replay_summary(name: str, report: ReplayReport) -> None:
    print(f"trace: {name} ({report.label}), {report.event_count} events")
    print(f"mode: {report.mode.value}")
    print(f"allowed: {report.allows}, by exception: {report.exception_allows}")
    if report.deny_count:
        reasons = ", ".join(sorted(report.denies_by_reason))
        print(f"{report.deny_count} denied ({reasons})")
    else:
        print("0 denied")
    if report.mode is EnvironmentBit.SECURE:
        print(f"learned exceptions: {report.learned_exceptions}")
    if report.final_taint:
        print("tainted: " + " ".join(report.final_taint))


def _cmd_replay(args: argparse.Namespace) -> int:
    """``learn`` (Secure; writes --store-out) or ``enforce`` (Unsecure;
    needs a store). After the trace is read and the options are loaded,
    per parse block: step its events, count their outcomes, write their
    rows into a structured report, and drop them. Then learn writes its
    store, the summary is printed, and the report is ended or written."""
    learning = args.command == "learn"
    if learning and not args.store_out:
        raise CumacError("learn needs --store-out P (a writable store path)")
    mode = EnvironmentBit.SECURE if learning else EnvironmentBit.UNSECURE
    name, text = _read_trace(args)
    parser = _Parser()
    blocks = parser.blocks(text)  # the blocks hold the text until they end
    del text
    try:
        store, trusted = _read_options(args, store_required=not learning)
        store_out = args.store_out if learning else None
        structured = bool(args.report) and args.format == "structured"
        outcomes = Outcomes(keep_denials=bool(args.report) and not structured)
        # opened after the store is read, as --report may name it
        with _Output("report", args.report, store_out) if structured else nullcontext() as out:
            rows = DecisionRows(out) if structured else None
            run = None
            for events in blocks:
                if run is None:  # the header is complete at the first block
                    run = ReplayRun(
                        TraceHeader.from_trace(Trace(parser.header), trusted), store, mode
                    )
                decisions = run.step(events)
                outcomes.add(events, decisions)
                if rows is not None:
                    rows.add(events, decisions)
                del events, decisions  # before the next block is parsed
            label, fid_by_path = parser.header.label, parser.fid_by_path
            del parser
            report = run.report(label, [], [], outcomes)
            del run  # and its step times
            if learning:
                _annotate_key_paths(store, fid_by_path)
                _write_file("store", store_out, store.save())
            _print_replay_summary(name, report)
            if learning:
                print(f"store written: {store_out}")
            if rows is not None:
                rows.close(report)
        if args.report and not structured:
            _write_file("report", args.report, report.to_text())
    except CumacError:
        for _ in blocks:  # a parse error in the rest is reported instead
            pass
        raise
    return 0 if report.deny_count == 0 else 1


def _annotate_key_paths(store: ExceptionStore, fid_by_path: dict[str, int]) -> None:
    # Advisory path comments for human review of the saved store: a key is
    # the fid of an executable in the snapshot or made by a create or copy,
    # and the parser maps the path of every such file to its fid.
    keys = store.granted_keys()
    for path, fid in fid_by_path.items():
        if fid in keys:
            store.key_paths.setdefault(fid, path)


def _cmd_compare(args: argparse.Namespace) -> int:
    from .lwm import compare

    trace, name, store, config = _load_trace(args)
    result = compare(trace, store, config)
    print(f"trace: {name} ({result.label}), {result.event_count} events")
    print(f"cumac denials: {result.cumac_deny_count}, lwm denials: {result.lwm_deny_count}")
    print(f"denied by lwm only: {result.lwm_only or 'none'}")
    print(f"denied by both: {result.both or 'none'}")
    print(f"denied by cumac only: {result.cumac_only or 'none'}")
    if args.report and args.format == "structured":
        with _Output("report", args.report) as out:
            result.write_json(out)
    elif args.report:
        _write_file("report", args.report, result.to_text())
    return 0 if result.cumac_deny_count == 0 else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    from .oracle import export_taint_graph

    trace, _, store, config = _load_trace(args)
    report = replay(trace, EnvironmentBit.UNSECURE, store, config)
    dot = export_taint_graph(report, trace)
    if args.report:
        _write_file("graph", args.report, dot)
        print(f"graph written: {args.report}")
    else:
        print(dot, end="")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    from .oracle import taint_oracle
    from .randomtrace import random_trace

    if args.runs < 0 or args.events < 0:
        raise CumacError("--runs and --events must not be negative")
    runs = []
    mismatches = 0
    for index in range(args.runs):
        seed = args.seed + index
        trace = random_trace(seed=seed, events=args.events)
        report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
        verdicts = [decision.verdict for decision in report.decisions]
        oracle = sorted(taint_oracle(trace, verdicts), key=entity_sort_key)
        match = oracle == report.final_taint
        if not match:
            mismatches += 1
        runs.append(
            {
                "run": index,
                "seed": seed,
                "events": args.events,
                "match": match,
                "tainted": len(report.final_taint),
                "denied": report.deny_count,
            }
        )
    matched = args.runs - mismatches
    print(f"oracle-check: {matched}/{args.runs} runs matched ({args.events} events each)")
    if mismatches:
        bad = [r["seed"] for r in runs if not r["match"]]
        print(f"mismatched seeds: {bad}", file=sys.stderr)
    doc = {
        "summary": {
            "runs": args.runs,
            "events": args.events,
            "base_seed": args.seed,
            "matched": matched,
            "mismatched": mismatches,
        },
        "runs": runs,
    }
    if args.report and args.format == "structured":
        with _Output("report", args.report) as out:
            write_document(out, doc)
    elif args.report:
        _write_file("report", args.report, f"{matched}/{args.runs} matched\n")
    return 0 if mismatches == 0 else 1


_HANDLERS = {
    "learn": _cmd_replay,
    "enforce": _cmd_replay,
    "compare": _cmd_compare,
    "graph": _cmd_graph,
    "oracle-check": _cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code. The cyclic garbage
    collector is paused from parsing the arguments to the return, and then
    left as it was found (``trace.collector_paused``): a command makes no
    reference cycles, so collections would only walk its trace, decisions
    and store. stdout is flushed before the return, so that a closed
    stdout is an error here (exit 2), not a traceback at exit."""
    with collector_paused():
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse already printed usage to stderr
            return 2 if exc.code not in (0, None) else int(exc.code or 0)
        try:
            code = _HANDLERS[args.command](args)
            sys.stdout.flush()
            return code
        except CumacError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError as exc:
            # Python's "Note on SIGPIPE": point stdout at devnull, so that
            # the interpreter's own flush at exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
