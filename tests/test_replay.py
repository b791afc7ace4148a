"""Replay driver: counters, determinism, store purity, report forms,
the JSON encoder of reports, collector state."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumac import scenarios
from cumac.engine import Engine, EngineConfig
from cumac.errors import TraceError
from cumac.model import ALLOW, Read
from cumac.randomtrace import random_trace
from cumac.replay import ReplayReport, learn, replay
from cumac.store import AccessMode, EnvironmentBit, ExceptionStore
from cumac.trace import parse_trace

# The third event writes a file that the denied create before it never made.
DANGLING_WRITE_TRACE = (
    "cumac-trace v1\n"
    "USER root trusted=1\n"
    "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
    "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
    "FILE fid=4 path=/etc perms=755 owner=root dir=1\n"
    "PROC pid=1 key=3 user=root\n"
    "NET pid=1 peer=203.0.113.5\n"
    "CREATE pid=1 path=/etc/evil perms=644 owner=root dir=0\n"  # denied: no file
    "WRITE pid=1 fid=5\n"  # dangles at replay time
)

# Paths, user names and a peer with non-ASCII characters (one outside the
# Basic Multilingual Plane), quotes and backslashes, which the report must
# escape as json.dumps does. The parser takes any non-whitespace token.
ESCAPED_NAMES_TRACE = (
    "cumac-trace v1\n"
    "LABEL attack\n"
    "USER root trusted=1\n"
    'USER zo\u00eb"\\ trusted=0\n'
    "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
    "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
    'FILE fid=4 path=/tmp\u00e9"\\ perms=777 owner=root dir=1\n'
    "PROC pid=1 key=3 user=root\n"
    "FORK parent=1 child=2\n"
    'NET pid=2 peer=\u4f8b"\\\U0001f642\n'
    'LOGIN pid=2 user=zo\u00eb"\\\n'
    'CREATE pid=2 path=/tmp\u00e9"\\/na\u00efve perms=755 owner=zo\u00eb"\\ dir=0\n'
    'COPY pid=1 src=3 dst=/tmp\u00e9"\\/\u043a"\\ perms=700 owner=root\n'
    'MOUNT id=1 prefix=/tmp\u00e9"\\/\u00b5\n'
    "EXEC pid=2 fid=5\n"
    "IPC from=2 to=1 chan=shm\n"
    "WRITE pid=1 fid=6\n"
    "UNMOUNT id=1\n"
    "PRIV pid=1 cap=CAP_SYS_MODULE\n"
)


def assert_json_is_the_reference(report: ReplayReport) -> None:
    """to_json() equals json.dumps of the structured report. The lines are
    compared, so a failure names the first differing line; pytest's diff
    of two long strings can take minutes."""
    reference = json.dumps(report.to_structured(), sort_keys=True, indent=2) + "\n"
    assert report.to_json().splitlines(True) == reference.splitlines(True)


class TestCounters:
    def test_counter_totals_equal_event_count(self):
        for name in scenarios.available():
            trace = scenarios.load_trace(name)
            report = replay(trace, EnvironmentBit.UNSECURE)
            total = report.allows + report.exception_allows + report.deny_count
            assert total == report.event_count == len(trace.events)

    def test_usb_rootkit_counters(self):
        report = replay(scenarios.load_trace("usb-rootkit"), EnvironmentBit.UNSECURE)
        assert report.allows == 8
        assert report.denies_by_reason == {"PrivilegedOp": 1}
        assert report.exception_allows == 0
        assert report.learned_exceptions == 0

    def test_clean_workload_has_zero_denies(self):
        trace = random_trace(seed=3, events=400, include_entrances=False)
        report = replay(trace, EnvironmentBit.UNSECURE)
        assert report.deny_count == 0
        assert report.final_taint == []


class TestLearning:
    def test_learn_then_enforce_is_denial_free(self):
        trace = scenarios.load_trace("benign-webserver")
        learn_report, store = learn(trace)
        assert learn_report.deny_count == 0
        assert learn_report.learned_exceptions == 3
        enforce_report = replay(trace, EnvironmentBit.UNSECURE, store)
        assert enforce_report.deny_count == 0
        assert enforce_report.exception_allows == 4

    def test_webserver_learns_the_bind_privilege(self):
        trace = scenarios.load_trace("benign-webserver")
        _, store = learn(trace)
        httpd_key = 4  # /usr/sbin/httpd
        assert store.check_priv_exception(httpd_key, "CAP_NET_BIND_SERVICE")
        assert store.check_file_exception(httpd_key, 9, AccessMode.WRITE)
        assert store.check_file_exception(httpd_key, 6, AccessMode.READ)

    def test_learning_the_usb_trace_records_its_privilege(self):
        # Treating the same events as benign (secure environment), the
        # module-load becomes a recorded grant for the tool's key.
        trace = scenarios.load_trace("usb-rootkit")
        report, store = learn(trace)
        assert report.deny_count == 0
        assert store.check_priv_exception(6, "CAP_SYS_MODULE")
        reloaded = ExceptionStore.load(store.save())
        for fid, key, mode in store.iter_file_triples():
            assert reloaded.check_file_exception(key, fid, mode)
        for key, cap in store.iter_priv_pairs():
            assert reloaded.check_priv_exception(key, cap)

    def test_learning_is_minimal_every_grant_is_necessary(self):
        # Dropping any single learned grant re-introduces at least one
        # denial on the very trace it was learned from.
        trace = random_trace(seed=5, events=300)
        config = EngineConfig.from_trace(trace)
        _, store = learn(trace, config=config)
        file_triples = list(store.iter_file_triples())
        priv_pairs = list(store.iter_priv_pairs())
        assert file_triples or priv_pairs

        def rebuild(drop_file=None, drop_priv=None) -> ExceptionStore:
            reduced = ExceptionStore(EnvironmentBit.SECURE)
            for fid, key, mode in file_triples:
                if (fid, key, mode) != drop_file:
                    reduced.record_file_exception(key, fid, mode)
            for key, cap in priv_pairs:
                if (key, cap) != drop_priv:
                    reduced.record_priv_exception(key, cap)
            return reduced

        for triple in file_triples:
            report = replay(trace, EnvironmentBit.UNSECURE, rebuild(drop_file=triple), config)
            assert report.deny_count >= 1, f"grant {triple} was superfluous"
        for pair in priv_pairs:
            report = replay(trace, EnvironmentBit.UNSECURE, rebuild(drop_priv=pair), config)
            assert report.deny_count >= 1, f"grant {pair} was superfluous"


class TestPurity:
    def test_enforcement_never_mutates_the_store(self):
        trace = scenarios.load_trace("admin-remote-upgrade")
        _, store = learn(trace)
        checksum = store.checksum()
        for _ in range(3):
            replay(trace, EnvironmentBit.UNSECURE, store)
        assert store.checksum() == checksum

    def test_learning_augments_the_store(self):
        trace = scenarios.load_trace("admin-remote-upgrade")
        store = ExceptionStore()
        before = store.checksum()
        replay(trace, EnvironmentBit.SECURE, store)
        assert store.checksum() != before


class TestDeterminism:
    def test_decision_logs_are_byte_identical(self):
        trace = random_trace(seed=11, events=600)
        config = EngineConfig.from_trace(trace)
        first = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        second = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        a = json.dumps(first.decision_rows(), sort_keys=True)
        b = json.dumps(second.decision_rows(), sort_keys=True)
        assert a == b

    def test_structured_report_is_canonical_outside_timing(self):
        trace = scenarios.load_trace("network-rootkit")
        first = replay(trace, EnvironmentBit.UNSECURE).to_structured()
        second = replay(trace, EnvironmentBit.UNSECURE).to_structured()
        first.pop("timing")
        second.pop("timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_taint_monotone_across_full_logs(self):
        trace = random_trace(seed=21, events=800)
        report = replay(trace, EnvironmentBit.UNSECURE)
        seen = set()
        for _, decision in report.log:
            for entity, old, new in decision.taint_updates:
                assert old.value == "NonIntrusion" and new.value == "PotentialIntrusion"
                assert entity not in seen  # an entity transitions at most once
                seen.add(entity)

    def test_path_index_stays_consistent_with_fid_map(self):
        from cumac.engine import Engine

        trace = random_trace(seed=31, events=700)
        config = EngineConfig.from_trace(trace)
        engine = Engine(config, ExceptionStore())
        for ev in trace.events:
            engine.step(ev)
        assert len(engine._files_by_path) == len(engine.files)
        for path, fid in engine._files_by_path.items():
            assert engine.files[fid].path == path


class TestReportForms:
    def test_text_summary_shows_denial_line(self):
        report = replay(scenarios.load_trace("usb-rootkit"), EnvironmentBit.UNSECURE)
        text = report.to_text()
        assert "1 denied (PrivilegedOp)" in text
        assert "tainted: file:6 proc:3" in text

    def test_structured_document_sections(self):
        report = replay(scenarios.load_trace("usb-rootkit"), EnvironmentBit.UNSECURE)
        doc = report.to_structured()
        assert set(doc) == {"summary", "decisions", "taint", "timing"}
        assert doc["summary"]["deny_total"] == 1
        assert doc["taint"] == ["file:6", "proc:3"]
        assert len(doc["decisions"]) == 9
        priv_row = doc["decisions"][-1]
        assert priv_row["verdict"] == "Deny"
        assert priv_row["reason"] == "PrivilegedOp"
        assert priv_row["args"] == {"pid": 3, "capability": "CAP_SYS_MODULE"}

    def test_trace_errors_abort_with_sequence_number(self):
        trace = parse_trace(DANGLING_WRITE_TRACE)
        with pytest.raises(TraceError) as exc_info:
            replay(trace, EnvironmentBit.UNSECURE)
        assert exc_info.value.seq == 3


class TestJsonEncoder:
    """ReplayReport.to_json() writes the bytes json.dumps writes for the
    structured report, which it never builds."""

    @pytest.mark.parametrize("mode", list(EnvironmentBit))
    @pytest.mark.parametrize("name", scenarios.available())
    def test_scenarios_match_the_reference(self, name, mode):
        report = replay(scenarios.load_trace(name), mode)
        assert_json_is_the_reference(report)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), mode=st.sampled_from(list(EnvironmentBit)))
    def test_random_traces_match_the_reference(self, seed, mode):
        report = replay(random_trace(seed=seed, events=300), mode)
        assert_json_is_the_reference(report)

    @pytest.mark.parametrize("mode", list(EnvironmentBit))
    def test_escaped_names_match_the_reference(self, mode):
        report = replay(parse_trace(ESCAPED_NAMES_TRACE), mode)
        args = [row["args"] for row in report.decision_rows()]
        assert {"pid": 2, "peer_address": '\u4f8b"\\\U0001f642'} in args
        assert args[-4]["channel"] == "shm"
        assert any(row["taint_updates"] for row in report.decision_rows())
        assert_json_is_the_reference(report)

    def test_empty_log_matches_the_reference(self):
        report = replay(parse_trace("cumac-trace v1\n"), EnvironmentBit.UNSECURE)
        assert_json_is_the_reference(report)

    def test_unknown_argument_type_is_refused(self):
        report = replay(parse_trace("cumac-trace v1\n"), EnvironmentBit.UNSECURE)
        report.log.append((Read(seq=1, pid=1.5, fid=2), ALLOW))
        with pytest.raises(TypeError, match="float"):
            report.to_json()


class TestCollectorState:
    """replay() pauses the cyclic collector while it runs and leaves it as
    it found it, whether the trace replays cleanly or not."""

    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_clean_replay_restores_collector_state(self, collector, monkeypatch):
        seen_during_steps = set()
        step = Engine.step

        def observed_step(engine, event):
            seen_during_steps.add(gc.isenabled())
            return step(engine, event)

        monkeypatch.setattr(Engine, "step", observed_step)
        report = replay(scenarios.load_trace("usb-rootkit"), EnvironmentBit.UNSECURE)
        assert report.event_count == 9
        assert seen_during_steps == {False}
        assert gc.isenabled() is collector

    def test_trace_error_restores_collector_state(self, collector):
        trace = parse_trace(DANGLING_WRITE_TRACE)
        with pytest.raises(TraceError):
            replay(trace, EnvironmentBit.UNSECURE)
        assert gc.isenabled() is collector

