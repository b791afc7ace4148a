"""The command-line contract: exit codes, outputs, and report files."""

import json

import pytest

from cumac import cli
from cumac.cli import main
from cumac.lwm import ComparisonReport
from cumac.replay import ReplayReport
from cumac.store import AccessMode, ExceptionStore


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


class TestReportFiles:
    def test_structured_enforce_report_is_the_json_dump(self, capsys, tmp_path, monkeypatch):
        reports = []
        real_replay = cli.replay

        def kept_replay(*args, **kwargs):
            reports.append(real_replay(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "replay", kept_replay)
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "enforce", "--scenario", "network-rootkit", "--empty-store",
            "--format", "structured", "--report", str(report_path),
        )
        assert code == 1
        (report,) = reports
        expected = json.dumps(report.to_structured(), sort_keys=True, indent=2) + "\n"
        assert report_path.read_text("utf-8") == expected


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
    (ComparisonReport, "to_structured"),
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
