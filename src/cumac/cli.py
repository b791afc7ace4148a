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
oracle mismatch), 2 = usage, parse or configuration error.
"""

from __future__ import annotations

import argparse
import json  # noqa: F401  (unused here; perfbench/tracer.py times cli.json.dumps)
import sys
from pathlib import Path
from typing import Any, Callable, TextIO

from . import scenarios
from .engine import EngineConfig
from .errors import CumacError
from .lwm import compare
from .model import Copy, Create, entity_sort_key
from .oracle import export_taint_graph, taint_oracle
from .randomtrace import random_trace
from .replay import ReplayReport, replay, write_document
from .store import EnvironmentBit, ExceptionStore
from .trace import Trace, parse_trace

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


def _build_parser() -> argparse.ArgumentParser:
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


def _load_inputs(
    args: argparse.Namespace, store_required: bool = False
) -> tuple[Trace, str, ExceptionStore, EngineConfig]:
    """Load a replay command's trace and its name, then its store, then its
    engine config with any --trusted-users; a failure is a CumacError."""
    if bool(args.trace) == bool(args.scenario):
        raise CumacError("exactly one of --trace or --scenario is required")
    if args.scenario:
        name = args.scenario
        try:
            trace = scenarios.load_trace(name)
        except KeyError as exc:
            raise CumacError(str(exc.args[0])) from None
    else:
        path = Path(args.trace)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CumacError(f"cannot read trace {path}: {exc}") from None
        trace, name = parse_trace(data), str(path)

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

    trusted: set[str] | None = None
    if args.trusted_users:
        path = Path(args.trusted_users)
        try:
            lines = path.read_bytes().decode("utf-8").split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise CumacError(f"cannot read trusted-users file {path}: {exc}") from None
        trusted = {
            line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")
        }
    return trace, name, store, EngineConfig.from_trace(trace, trusted_users=trusted)


def _write_stream(label: str, path: str, write: Callable[[TextIO], None]) -> None:
    """Open ``path`` as UTF-8 text and let ``write`` write the payload into
    it; an OSError at any point is a CumacError."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            write(stream)
    except OSError as exc:
        raise CumacError(f"cannot write {label} {path}: {exc}") from None


def _write_file(label: str, path: str, payload: str) -> None:
    _write_stream(label, path, lambda stream: stream.write(payload))


def _emit_report(
    args: argparse.Namespace, write_json: Callable[[TextIO], None], text: Callable[[], str]
) -> None:
    """Write the report in the requested format when --report is given:
    ``write_json`` streams the structured form into the open file, ``text``
    builds the text form, and only the one that is written gets called."""
    if not args.report:
        return
    if args.format == "structured":
        _write_stream("report", args.report, write_json)
    else:
        _write_file("report", args.report, text())


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


def _cmd_learn(args: argparse.Namespace) -> int:
    if not args.store_out:
        raise CumacError("learn needs --store-out P (a writable store path)")
    trace, name, store, config = _load_inputs(args)
    report = replay(trace, EnvironmentBit.SECURE, store, config)
    _annotate_key_paths(store, trace)
    _write_file("store", args.store_out, store.save())
    _print_replay_summary(name, report)
    print(f"store written: {args.store_out}")
    _emit_report(args, report.write_json, report.to_text)
    return 0 if report.deny_count == 0 else 1


def _annotate_key_paths(store: ExceptionStore, trace: Trace) -> None:
    # Advisory path comments for human review of the saved store: a key is
    # the fid of an executable in the snapshot or made by a create or copy.
    paths = {f.fid: f.path for f in trace.header.files}
    for ev in trace.events:
        if isinstance(ev, Create):
            paths.setdefault(ev.new_fid, ev.path)
        elif isinstance(ev, Copy):
            paths.setdefault(ev.dst_fid, ev.dst_path)
    keys = {key for _, key, _ in store.iter_file_triples()}
    keys.update(key for key, _ in store.iter_priv_pairs())
    for key in keys:
        if key in paths:
            store.key_paths.setdefault(key, paths[key])


def _cmd_enforce(args: argparse.Namespace) -> int:
    trace, name, store, config = _load_inputs(args, store_required=True)
    report = replay(trace, EnvironmentBit.UNSECURE, store, config)
    _print_replay_summary(name, report)
    _emit_report(args, report.write_json, report.to_text)
    return 0 if report.deny_count == 0 else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    trace, name, store, config = _load_inputs(args)
    result = compare(trace, store, config)
    print(f"trace: {name} ({result.label}), {result.event_count} events")
    print(f"cumac denials: {result.cumac_deny_count}, lwm denials: {result.lwm_deny_count}")
    print(f"denied by lwm only: {result.lwm_only or 'none'}")
    print(f"denied by both: {result.both or 'none'}")
    print(f"denied by cumac only: {result.cumac_only or 'none'}")
    _emit_report(args, result.write_json, result.to_text)
    return 0 if result.cumac_deny_count == 0 else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    trace, _, store, config = _load_inputs(args)
    report = replay(trace, EnvironmentBit.UNSECURE, store, config)
    dot = export_taint_graph(report, trace)
    if args.report:
        _write_file("graph", args.report, dot)
        print(f"graph written: {args.report}")
    else:
        print(dot, end="")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.runs < 0 or args.events < 0:
        raise CumacError("--runs and --events must not be negative")
    runs = []
    mismatches = 0
    for index in range(args.runs):
        seed = args.seed + index
        trace = random_trace(seed=seed, events=args.events)
        config = EngineConfig.from_trace(trace)
        report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        verdicts = [decision.verdict for decision in report.decisions]
        oracle = sorted(taint_oracle(trace, verdicts, config), key=entity_sort_key)
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
    text = f"{matched}/{args.runs} matched\n"
    _emit_report(args, lambda stream: write_document(stream, doc), lambda: text)
    return 0 if mismatches == 0 else 1


_HANDLERS = {
    "learn": _cmd_learn,
    "enforce": _cmd_enforce,
    "compare": _cmd_compare,
    "graph": _cmd_graph,
    "oracle-check": _cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except CumacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
