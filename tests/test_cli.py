"""The command-line contract: exit codes, outputs, and report files."""

import gc
import json
import os

import pytest
from conftest import reference_json

from cumac import cli, lwm, oracle
from cumac.cli import main
from cumac.lwm import ComparisonReport
from cumac.model import entity_sort_key
from cumac.oracle import taint_oracle
from cumac.randomtrace import random_trace
from cumac.replay import ReplayReport
from cumac.store import AccessMode, ExceptionStore
from cumac.trace import render_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnforce:
    def test_usb_rootkit_exits_one_with_denial_summary(self, capsys):
        code, out, _ = run_cli(capsys, "enforce", "--scenario", "usb-rootkit", "--empty-store")
        assert code == 1
        assert "1 denied (PrivilegedOp)" in out
        assert "tainted: file:6 proc:3" in out

    def test_clean_scenario_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "enforce", "--scenario", "self-revocation", "--empty-store")
        assert code == 0
        assert "0 denied" in out

    def test_store_flag_reads_a_learned_store(self, capsys, tmp_path):
        store_path = tmp_path / "learned.cumac"
        code, _, _ = run_cli(
            capsys, "learn", "--scenario", "benign-webserver", "--store-out", str(store_path)
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "enforce", "--scenario", "benign-webserver", "--store", str(store_path)
        )
        assert code == 0
        assert "by exception: 4" in out

    def test_a_missing_store_is_a_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.cumac"
        code, _, err = run_cli(capsys, "enforce", "--scenario", "usb-rootkit", "--store", str(missing))
        assert code == 2
        assert f"cannot read store {missing}: " in err

    def test_enforce_requires_a_store_decision(self, capsys):
        code, _, err = run_cli(capsys, "enforce", "--scenario", "usb-rootkit")
        assert code == 2
        assert "--empty-store" in err

    def test_trace_file_input(self, capsys, tmp_path):
        from cumac import scenarios

        path = tmp_path / "t.trace"
        path.write_text(scenarios.load("local-ptrace"))
        code, out, _ = run_cli(capsys, "enforce", "--trace", str(path), "--empty-store")
        assert code == 1
        assert "PrivilegedOp" in out


class TestLearn:
    def test_learn_writes_a_canonical_store(self, capsys, tmp_path):
        store_path = tmp_path / "ex.cumac"
        code, out, _ = run_cli(
            capsys, "learn", "--scenario", "admin-remote-upgrade", "--store-out", str(store_path)
        )
        assert code == 0
        assert "learned exceptions: 3" in out
        text = store_path.read_text()
        assert text.startswith("cumac-exceptions v1\n")
        store = ExceptionStore.load(text)
        assert store.check_file_exception(3, 4, AccessMode.WRITE)
        assert store.check_priv_exception(3, "CAP_CHOWN")
        # advisory path annotation for the application key
        assert "# key 3 /bin/sh" in text

    def test_learn_annotates_keys_of_created_executables(self, capsys, tmp_path):
        # /tmp/knark is made by a CREATE during the trace, not in the snapshot.
        store_path = tmp_path / "ex.cumac"
        code, _, _ = run_cli(
            capsys, "learn", "--scenario", "network-rootkit", "--store-out", str(store_path)
        )
        assert code == 0
        text = store_path.read_text()
        assert "P 8 CAP_SYS_MODULE" in text
        assert "# key 8 /tmp/knark" in text

    def test_learn_annotates_keys_of_copied_executables(self, capsys, tmp_path):
        trace_path = tmp_path / "copy.trace"
        trace_path.write_text(
            "cumac-trace v1\n"
            "USER root trusted=1\n"
            "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
            "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
            "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
            "FILE fid=4 path=/tmp perms=777 owner=root dir=1\n"
            "PROC pid=1 key=3 user=root\n"
            "NET pid=1 peer=203.0.113.5\n"
            "COPY pid=1 src=3 dst=/tmp/tool perms=755 owner=root\n"
            "FORK parent=1 child=2\n"
            "EXEC pid=2 fid=5\n"
            "PRIV pid=2 cap=CAP_SYS_MODULE\n"
        )
        store_path = tmp_path / "ex.cumac"
        code, _, _ = run_cli(
            capsys, "learn", "--trace", str(trace_path), "--store-out", str(store_path)
        )
        assert code == 0
        assert store_path.read_text() == (
            "cumac-exceptions v1\n# key 5 /tmp/tool\nP 5 CAP_SYS_MODULE\n"
        )

    def test_learn_requires_store_out(self, capsys):
        code, _, err = run_cli(capsys, "learn", "--scenario", "benign-webserver")
        assert code == 2
        assert "store-out" in err


class TestCompare:
    def test_self_revocation_reports_the_single_difference(self, capsys, tmp_path):
        report_path = tmp_path / "cmp.json"
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--scenario",
            "self-revocation",
            "--report",
            str(report_path),
            "--format",
            "structured",
        )
        assert code == 0  # the tracing engine denied nothing
        assert "denied by lwm only: [4]" in out
        doc = json.loads(report_path.read_text())
        assert doc["differences"] == {"lwm_only": [4], "both": [], "cumac_only": []}

    def test_attack_comparison_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--scenario", "usb-rootkit")
        assert code == 1
        assert "denied by both: [9]" in out


class TestGraph:
    def test_graph_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--scenario", "usb-rootkit", "--empty-store")
        assert code == 0
        assert out.startswith("digraph taint_trace {")
        assert "style=dashed" in out

    def test_graph_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "g.dot"
        code, _, _ = run_cli(
            capsys, "graph", "--scenario", "usb-rootkit", "--empty-store", "--report", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().startswith("digraph")


class TestOracleCheck:
    def test_small_run_matches(self, capsys, tmp_path):
        report_path = tmp_path / "oracle.json"
        code, out, _ = run_cli(
            capsys,
            "oracle-check",
            "--runs",
            "4",
            "--events",
            "200",
            "--seed",
            "7",
            "--report",
            str(report_path),
            "--format",
            "structured",
        )
        assert code == 0
        assert "4/4 runs matched" in out
        doc = json.loads(report_path.read_text())
        assert doc["summary"]["matched"] == 4
        assert [r["seed"] for r in doc["runs"]] == [7, 8, 9, 10]

    def test_a_mismatch_exits_one_and_names_its_seed(self, capsys, tmp_path, monkeypatch):
        sizes = []

        def drops_an_entity_on_the_second_run(trace, verdicts, config=None):
            tainted = taint_oracle(trace, verdicts, config)
            sizes.append(len(tainted))
            if len(sizes) == 2:
                tainted.remove(min(tainted, key=entity_sort_key))
            return tainted

        monkeypatch.setattr(oracle, "taint_oracle", drops_an_entity_on_the_second_run)
        report_path = tmp_path / "oracle.json"
        code, out, err = run_cli(
            capsys, "oracle-check", "--runs", "4", "--events", "200", "--seed", "7",
            "--report", str(report_path), "--format", "structured",
        )
        assert sizes[1] > 0
        assert code == 1
        assert "3/4 runs matched" in out
        assert "mismatched seeds: [8]" in err
        doc = json.loads(report_path.read_text())
        assert doc["summary"]["mismatched"] == 1
        assert doc["summary"]["matched"] == 3
        assert [(r["seed"], r["match"]) for r in doc["runs"]] == [
            (7, True), (8, False), (9, True), (10, True)
        ]


def _kept_run(reports: list) -> type:
    """A replay run that keeps every event it steps and every decision, and
    hands them to the report it makes, appended to ``reports``, as a
    library replay does: the CLI's own runs drop each parse block once its
    rows are written."""

    class KeptRun(cli.ReplayRun):
        __slots__ = ("kept",)

        def __init__(self, *args):
            super().__init__(*args)
            self.kept = ([], [])

        def step(self, events):
            decisions = super().step(events)
            self.kept[0].extend(events)
            self.kept[1].extend(decisions)
            return decisions

        def report(self, label, events=None, decisions=None, outcomes=None):
            reports.append(super().report(label, *self.kept, outcomes))
            return reports[-1]

    return KeptRun


# Each command that writes a --report in either format; {tmp} is a scratch
# directory.
FULL_DEVICE_REPORTS = [
    "enforce --scenario usb-rootkit --empty-store",
    "learn --scenario usb-rootkit --store-out {tmp}/s",
    "compare --scenario usb-rootkit --empty-store",
    "oracle-check --runs 2 --events 50",
]


class TestReportFiles:
    """The structured report a command streams into its file is byte for
    byte the json.dumps of the document of the report it made."""

    def assert_report_is_the_json_dump(
        self, capsys, tmp_path, monkeypatch, argv, code, maker=(cli, "ReplayRun")
    ):
        reports = []
        owner, name = maker
        if name == "ReplayRun":  # learn and enforce make their report through a run
            monkeypatch.setattr(owner, name, _kept_run(reports))
        else:
            real_maker = getattr(owner, name)

            def kept_maker(*args, **kwargs):
                reports.append(real_maker(*args, **kwargs))
                return reports[-1]

            monkeypatch.setattr(owner, name, kept_maker)
        report_path = tmp_path / "report.json"
        result = run_cli(capsys, *argv, "--format", "structured", "--report", str(report_path))
        assert result[0] == code
        (report,) = reports
        assert report_path.read_bytes() == reference_json(report).encode("utf-8")

    def test_structured_enforce_report_is_the_json_dump(self, capsys, tmp_path, monkeypatch):
        argv = ["enforce", "--scenario", "network-rootkit", "--empty-store"]
        self.assert_report_is_the_json_dump(capsys, tmp_path, monkeypatch, argv, 1)

    def test_structured_learn_report_is_the_json_dump(self, capsys, tmp_path, monkeypatch):
        argv = ["learn", "--scenario", "network-rootkit", "--store-out", str(tmp_path / "s")]
        self.assert_report_is_the_json_dump(capsys, tmp_path, monkeypatch, argv, 0)

    @pytest.mark.parametrize("name, code", [("usb-rootkit", 1), ("self-revocation", 0)])
    def test_structured_compare_report_is_the_json_dump(
        self, capsys, tmp_path, monkeypatch, name, code
    ):
        argv = ["compare", "--scenario", name]
        self.assert_report_is_the_json_dump(
            capsys, tmp_path, monkeypatch, argv, code, (lwm, "compare")
        )

    def test_structured_oracle_check_report_is_canonical(self, capsys, tmp_path):
        report_path = tmp_path / "oracle.json"
        argv = ["oracle-check", "--runs", "3", "--events", "50", "--seed", "4"]
        code, _, _ = run_cli(capsys, *argv, "--format", "structured", "--report", str(report_path))
        assert code == 0
        text = report_path.read_text("utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert list(json.loads(text)) == ["runs", "summary"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, label", [
        *(pytest.param(f"{argv} --format {fmt}", "report", id=f"{argv.split()[0]}-{fmt}")
          for argv in FULL_DEVICE_REPORTS for fmt in ("structured", "text")),
        pytest.param("graph --scenario usb-rootkit", "graph", id="graph"),
    ])
    def test_a_full_device_is_a_write_error(self, capsys, tmp_path, argv, label):
        code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path).split(), "--report", "/dev/full")
        assert code == 2
        assert err == f"error: cannot write {label} /dev/full: [Errno 28] No space left on device\n"


# Each command with its usual exit code; {tmp} is a scratch directory.
REPORTING_COMMANDS = [
    (["learn", "--scenario", "admin-remote-upgrade", "--store-out", "{tmp}/s.cumac"], 0),
    (["enforce", "--scenario", "usb-rootkit", "--empty-store"], 1),
    (["enforce", "--scenario", "self-revocation", "--empty-store"], 0),
    (["compare", "--scenario", "usb-rootkit"], 1),
    (["compare", "--scenario", "self-revocation"], 0),
]
STRUCTURED_BUILDERS = [
    (ReplayReport, "to_structured"),
    (ReplayReport, "to_json"),
    (ReplayReport, "write_json"),
    (ComparisonReport, "to_structured"),
    (ComparisonReport, "write_json"),
]
TEXT_BUILDERS = [(ReplayReport, "to_text"), (ComparisonReport, "to_text")]


def _never_called(name):
    def builder(*_args, **_kwargs):
        raise AssertionError(f"{name} was called")

    return builder


class TestReportsAreBuiltOnlyWhenAsked:
    """A command builds no report without --report, and with it only the
    format it writes."""

    @pytest.fixture
    def forbid(self, monkeypatch):
        def forbid(builders):
            for owner, name in builders:
                monkeypatch.setattr(owner, name, _never_called(name))

        return forbid

    @staticmethod
    def run(capsys, tmp_path, argv, *extra):
        return run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv), *extra)

    @pytest.mark.parametrize("argv, code", REPORTING_COMMANDS)
    def test_without_report_nothing_is_built(self, capsys, tmp_path, forbid, argv, code):
        forbid(STRUCTURED_BUILDERS + TEXT_BUILDERS)
        assert self.run(capsys, tmp_path, argv)[0] == code

    @pytest.mark.parametrize("argv, code", REPORTING_COMMANDS)
    def test_text_report_builds_no_structured_form(self, capsys, tmp_path, forbid, argv, code):
        forbid(STRUCTURED_BUILDERS)
        report_path = tmp_path / "report.txt"
        result = self.run(capsys, tmp_path, argv, "--format", "text", "--report", str(report_path))
        assert result[0] == code
        assert report_path.read_text("utf-8").startswith(("mode: ", "label: "))

    @pytest.mark.parametrize("argv, code", REPORTING_COMMANDS)
    def test_structured_report_builds_no_text_form(self, capsys, tmp_path, forbid, argv, code):
        forbid(TEXT_BUILDERS)
        report_path = tmp_path / "report.json"
        result = self.run(
            capsys, tmp_path, argv, "--format", "structured", "--report", str(report_path)
        )
        assert result[0] == code
        assert "summary" in json.loads(report_path.read_text("utf-8"))


class TestUsageErrors:
    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "enforce", "--scenario", "nope", "--empty-store")
        assert code == 2
        assert "unknown scenario" in err

    def test_trace_and_scenario_together(self, capsys, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("cumac-trace v1\n")
        code, _, err = run_cli(
            capsys, "enforce", "--trace", str(path), "--scenario", "usb-rootkit", "--empty-store"
        )
        assert code == 2
        assert "exactly one" in err

    def test_missing_trace_file(self, capsys):
        code, _, err = run_cli(capsys, "enforce", "--trace", "/no/such.trace", "--empty-store")
        assert code == 2
        assert "cannot read trace" in err

    def test_parse_error_is_positioned_not_a_traceback(self, capsys, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("cumac-trace v1\nEXEC pid=1 fid=1\n")
        code, _, err = run_cli(capsys, "enforce", "--trace", str(path), "--empty-store")
        assert code == 2
        assert "line 2" in err
        assert "Traceback" not in err

    def test_store_and_empty_store_conflict(self, capsys, tmp_path):
        store_path = tmp_path / "s.cumac"
        store_path.write_text("cumac-exceptions v1\n")
        code, _, err = run_cli(
            capsys,
            "enforce",
            "--scenario",
            "usb-rootkit",
            "--store",
            str(store_path),
            "--empty-store",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_corrupt_store_file(self, capsys, tmp_path):
        store_path = tmp_path / "s.cumac"
        store_path.write_text("cumac-exceptions v9\n")
        code, _, err = run_cli(
            capsys, "enforce", "--scenario", "usb-rootkit", "--store", str(store_path)
        )
        assert code == 2
        assert "format header" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-check", "--trace", "x.trace"],
            ["oracle-check", "--store", "s.cumac"],
            ["oracle-check", "--trusted-users", "users.txt"],
            ["graph", "--scenario", "usb-rootkit", "--empty-store", "--format", "structured"],
            ["enforce", "--scenario", "usb-rootkit", "--empty-store", "--seed", "3"],
            ["compare", "--scenario", "usb-rootkit", "--store-out", "s.cumac"],
        ],
    )
    def test_options_the_command_does_not_read_are_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err

    def test_non_utf8_trusted_users_file(self, capsys, tmp_path):
        trusted = tmp_path / "trusted.txt"
        trusted.write_bytes(b"root\n\xff\xfe\n")
        code, _, err = run_cli(
            capsys,
            "enforce",
            "--scenario",
            "usb-rootkit",
            "--empty-store",
            "--trusted-users",
            str(trusted),
        )
        assert code == 2
        assert "cannot read trusted-users file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--runs", "-3"],
            ["--events", "-10", "--runs", "1"],
            ["--runs", "-1", "--events", "-1"],
        ],
    )
    def test_negative_oracle_check_counts_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 2
        assert "must not be negative" in err
        assert out == ""

    def test_non_ascii_digit_in_store_is_a_format_error(self, capsys, tmp_path):
        store_path = tmp_path / "s.cumac"
        store_path.write_text("cumac-exceptions v1\nF \u00b2 1 w\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "enforce", "--scenario", "usb-rootkit", "--store", str(store_path)
        )
        assert code == 2
        assert "line 2" in err
        assert "unsigned integer" in err

    def test_unwritable_report_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "enforce",
            "--scenario",
            "self-revocation",
            "--empty-store",
            "--report",
            str(tmp_path / "missing-dir" / "r.txt"),
        )
        assert code == 2
        assert "cannot write report" in err
        assert "Traceback" not in err


class TestTrustedUsersOverride:
    def test_override_flips_trust(self, capsys, tmp_path):
        # Trust mallory explicitly: the ptrace scenario then has no entrance.
        trusted = tmp_path / "trusted.txt"
        trusted.write_text("root\nmallory\n")
        code, out, _ = run_cli(
            capsys,
            "enforce",
            "--scenario",
            "local-ptrace",
            "--empty-store",
            "--trusted-users",
            str(trusted),
        )
        assert code == 0
        assert "0 denied" in out

    @pytest.mark.parametrize("brk", [b"\x0c", b"\x0b", b"\xc2\x85", b"\xe2\x80\xa8"])
    def test_only_a_newline_ends_a_line(self, capsys, tmp_path, brk):
        # mallory is inside a comment line, so stays untrusted: the ptrace
        # scenario keeps its entrance and its denial.
        trusted = tmp_path / "trusted.txt"
        trusted.write_bytes(b"root\r\n# retired: " + brk + b"mallory\n")
        code, out, _ = run_cli(
            capsys,
            "enforce",
            "--scenario",
            "local-ptrace",
            "--empty-store",
            "--trusted-users",
            str(trusted),
        )
        assert code == 1
        assert "0 denied" not in out

    def test_omitting_a_header_user_untrusts_them(self, capsys, tmp_path):
        trusted = tmp_path / "trusted.txt"
        trusted.write_text("mallory\n")  # root no longer trusted
        code, out, _ = run_cli(
            capsys,
            "enforce",
            "--scenario",
            "usb-rootkit",
            "--empty-store",
            "--trusted-users",
            str(trusted),
        )
        # root's console login now counts as an entrance; more taint, same denial
        assert code == 1
        assert "proc:2" in out


class TestCollectorPause:
    """``cli.main`` runs a command with the cyclic collector paused from
    parsing its arguments to its return, and leaves the collector as it
    found it however the command ends."""

    @pytest.mark.parametrize("collector", [True], indirect=True, ids=["gc-enabled"])
    def test_no_collection_starts_inside_a_command(self, collector, capsys, tmp_path):
        trace, store = tmp_path / "t.trace", tmp_path / "s.cumac"
        trace.write_text(render_trace(random_trace(seed=17, events=5000)))
        inside = [False]
        starts = []

        def on_gc(phase, info):
            if phase == "start" and inside[0]:
                starts.append(info["generation"])

        gc.callbacks.append(on_gc)
        try:
            for argv in (
                ["learn", "--trace", str(trace), "--store-out", str(store)],
                ["enforce", "--trace", str(trace), "--store", str(store)],
            ):
                gc.collect()  # the caller owes no collection when the command starts
                inside[0] = True
                code = main(argv)
                inside[0] = False
                assert code == 0
        finally:
            gc.callbacks.remove(on_gc)
        assert "\nF " in store.read_text()
        assert starts == []

    def test_a_command_runs_with_the_collector_off(self, collector, capsys, monkeypatch):
        seen = set()
        read_options = cli._read_options

        def observed(*args, **kwargs):
            seen.add(gc.isenabled())
            return read_options(*args, **kwargs)

        monkeypatch.setattr(cli, "_read_options", observed)
        code, _, _ = run_cli(capsys, "enforce", "--scenario", "usb-rootkit", "--empty-store")
        assert code == 1
        assert seen == {False}
        assert gc.isenabled() is collector

    def test_a_command_error_restores_the_collector(self, collector, capsys, tmp_path):
        missing = tmp_path / "missing.trace"
        code, _, err = run_cli(capsys, "enforce", "--trace", str(missing), "--empty-store")
        assert code == 2
        assert "cannot read trace" in err
        assert gc.isenabled() is collector

    def test_a_usage_error_restores_the_collector(self, collector, capsys):
        code, _, _ = run_cli(capsys, "enforce", "--no-such-option")
        assert code == 2
        assert gc.isenabled() is collector

    def test_a_generated_trace_can_dangle_under_an_override(self, capsys, tmp_path):
        # random_trace promises a valid trace under its own header only.
        # Untrusting alice refuses a create the generator counted on, and
        # a later event names the fid that create never made.
        trace = tmp_path / "random.trace"
        trace.write_text(render_trace(random_trace(seed=0, events=1000)))
        trusted = tmp_path / "trusted.txt"
        trusted.write_text("root\n")
        code, _, err = run_cli(
            capsys,
            "enforce",
            "--trace",
            str(trace),
            "--empty-store",
            "--trusted-users",
            str(trusted),
        )
        assert code == 2
        assert err == "error: event 90: unknown fid 35\n"
