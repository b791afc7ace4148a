"""Replay driver: counters, determinism, store purity, report forms,
the JSON encoder and streaming writer of reports, collector state."""

import gc
import hashlib
import json
import statistics
import sys
import tracemalloc
from array import array
from dataclasses import fields

import pytest
from conftest import Writes, decision_rows, reference_json, structured_document
from hypothesis import given, settings
from hypothesis import strategies as st

from cumac import cli, scenarios
from cumac.engine import Engine, EngineConfig
from cumac.errors import TraceError
from cumac.lwm import compare
from cumac.model import (
    ALLOW, BY_EXCEPTION, DENIED, Copy, Create, Decision, Exec, Fork, Ipc, IpcChannel, Login, Mount,
    PrivOp, Read, RemoteComm, TaintState, Unmount, Verdict, Write, entity_sort_key
)
from cumac.oracle import export_taint_graph, taint_oracle
from cumac.randomtrace import random_trace
from cumac.replay import _BLOCK_ROWS, ReplayReport, TimingStats, learn, replay, write_document
from cumac.store import AccessMode, EnvironmentBit, ExceptionStore
from cumac.trace import _EVENTS, parse_trace, render_trace

# ``cumac.replay`` as an attribute of the package is the replay() function.
replay_module = sys.modules["cumac.replay"]

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

# Enforcing, the create of /etc/evil is denied, and the copy to the same
# path then makes the file. Both lines name one file, fid 4, in every
# environment, so /etc/other is fid 5 whatever the store allowed.
STORE_DEPENDENT_IDS_TRACE = (
    "cumac-trace v1\n"
    "USER root trusted=1\n"
    "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    "FILE fid=2 path=/etc perms=755 owner=root dir=1\n"
    "FILE fid=3 path=/etc/tool perms=755 owner=root dir=0\n"
    "PROC pid=1 key=3 user=root\n"
    "PROC pid=2 key=3 user=root\n"
    "NET pid=1 peer=203.0.113.9\n"  # pid 1 tainted
    "CREATE pid=1 path=/etc/evil perms=755 owner=root dir=0\n"
    "COPY pid=2 src=3 dst=/etc/evil perms=755 owner=root\n"
    "CREATE pid=2 path=/etc/other perms=644 owner=root dir=0\n"
    "WRITE pid=2 fid=5\n"
    "EXEC pid=2 fid=4\n"
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


# One hand-built event of each kind, with escapes in a string argument.
ONE_EVENT_PER_KIND = {
    "FORK": Fork(1, parent_pid=1, child_pid=2),
    "EXEC": Exec(2, pid=2, fid=3),
    "NET": RemoteComm(3, pid=2, peer_address='\u4f8b"\\\U0001f642'),
    "LOGIN": Login(4, pid=2, user="root"),
    "MOUNT": Mount(5, mount_id=1, path_prefix="/mnt/usb"),
    "UNMOUNT": Unmount(6, mount_id=1),
    "COPY": Copy(7, pid=2, src_fid=3, dst_path="/tmp/a", dst_perms="755", dst_owner="root", dst_fid=9),
    "CREATE": Create(8, pid=2, path="/tmp/b", perms="644", owner="root", is_directory=True, new_fid=10),
    "WRITE": Write(9, pid=2, fid=9),
    "READ": Read(10, pid=2, fid=3),
    "IPC": Ipc(11, from_pid=1, to_pid=2, channel=IpcChannel.SHARED_MEMORY),
    "PRIV": PrivOp(12, pid=2, capability="CAP_SYS_MODULE"),
}

# The seven shared outcomes, and an allow that taints two entities.
OUTCOMES = {
    "allow": ALLOW,
    **{f"deny-{reason.value}": decision for reason, decision in DENIED.items()},
    **{f"by-exception-{reason.value}": decision for reason, decision in BY_EXCEPTION.items()},
    "allow-tainting-two": Decision(
        Verdict.ALLOW,
        taint_updates=(
            ("proc:2", TaintState.NON_INTRUSION, TaintState.POTENTIAL_INTRUSION),
            ('file:9"\\', TaintState.NON_INTRUSION, TaintState.POTENTIAL_INTRUSION),
        ),
    ),
}


def hand_built_report(events: list, decisions: list) -> ReplayReport:
    """A report of ``events`` and their ``decisions``, which no replay made."""
    report = replay(parse_trace("cumac-trace v1\n"), EnvironmentBit.UNSECURE)
    report.events += events
    report.decisions += decisions
    return report


def assert_json_is_the_reference(report: ReplayReport) -> None:
    """to_json() equals json.dumps of the structured document. The lines
    are compared, so a failure names the first differing line; pytest's
    diff of two long strings can take minutes."""
    assert report.to_json().splitlines(True) == reference_json(report).splitlines(True)


class TestReportLists:
    """A report holds the trace's own list of events beside its list of
    decisions, one per event, and pairs them only when read as ``log``."""

    def test_events_are_the_traces_own_list(self):
        for name in scenarios.available():
            trace = scenarios.load_trace(name)
            for mode in EnvironmentBit:
                report = replay(trace, mode)
                assert report.events is trace.events
                assert len(report.decisions) == len(trace.events)

    def test_log_is_not_a_field(self):
        names = [f.name for f in fields(ReplayReport)]
        assert "events" in names and "decisions" in names
        assert "log" not in names and "event_count" not in names

    def test_log_pairs_each_event_with_its_decision(self):
        report = replay(random_trace(seed=4, events=300), EnvironmentBit.UNSECURE)
        assert report.log == list(zip(report.events, report.decisions))
        denials = [(ev, d) for ev, d in report.log if d.verdict is Verdict.DENY]
        assert report.denials() == denials and len(denials) == report.deny_count > 0


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
            reduced = ExceptionStore()
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


def saved_digest(store: ExceptionStore) -> str:
    """A digest of the store's canonical form."""
    return hashlib.sha256(store.save().encode("utf-8")).hexdigest()


class TestPurity:
    def test_enforcement_never_mutates_the_store(self):
        trace = scenarios.load_trace("admin-remote-upgrade")
        _, store = learn(trace)
        checksum = saved_digest(store)
        for _ in range(3):
            replay(trace, EnvironmentBit.UNSECURE, store)
        assert saved_digest(store) == checksum

    @pytest.mark.parametrize(
        "enforce",
        [lambda trace, store: replay(trace, EnvironmentBit.UNSECURE, store), compare],
        ids=["replay", "compare"],
    )
    def test_enforcing_runs_leave_a_passed_store_as_it_was(self, enforce):
        _, learned = learn(random_trace(seed=1, events=1000))
        annotated = ExceptionStore.load(learned.save() + "# key 3 /bin/sh\n")
        for store in (learned, annotated):
            saved, key_paths = store.save(), dict(store.key_paths)
            for seed in (1, 2):
                enforce(random_trace(seed=seed, events=1000), store)
            assert store.save() == saved
            assert store.key_paths == key_paths
        assert annotated.key_paths == {3: "/bin/sh"}

    def test_learning_augments_the_store(self):
        trace = scenarios.load_trace("admin-remote-upgrade")
        store = ExceptionStore()
        before = saved_digest(store)
        replay(trace, EnvironmentBit.SECURE, store)
        assert saved_digest(store) != before

    def test_enforcing_over_an_empty_store_makes_no_file_lists(self):
        store = ExceptionStore()
        report = replay(random_trace(seed=7, events=2000), EnvironmentBit.UNSECURE, store)
        assert report.deny_count > 0
        assert store.triple_count() == 0
        assert store.save() == ExceptionStore().save()


class TestIdsDoNotDependOnTheStore:
    @pytest.mark.parametrize("mode", list(EnvironmentBit))
    def test_each_file_keeps_its_parsed_id(self, mode):
        trace = parse_trace(STORE_DEPENDENT_IDS_TRACE)
        engine = Engine(EngineConfig.from_trace(trace), ExceptionStore(), mode)
        verdicts = [engine.step(ev).verdict for ev in trace.events]
        create_denied = mode is EnvironmentBit.UNSECURE
        assert (verdicts[1] is Verdict.DENY) is create_denied
        assert verdicts.count(Verdict.DENY) == int(create_denied)
        assert trace.events[4].fid == 5
        assert engine.files[4].path == "/etc/evil"
        assert engine.files[5].path == "/etc/other"

    @pytest.mark.parametrize("mode", list(EnvironmentBit))
    def test_the_oracle_and_the_comparison_agree(self, mode):
        trace = parse_trace(STORE_DEPENDENT_IDS_TRACE)
        report = replay(trace, mode, ExceptionStore())
        assert report.event_count == 6
        verdicts = [decision.verdict for _, decision in report.log]
        assert sorted(taint_oracle(trace, verdicts)) == sorted(report.final_taint)
        comparison = compare(trace, ExceptionStore())
        assert comparison.event_count == 6


class TestDeterminism:
    def test_decision_logs_are_byte_identical(self):
        trace = random_trace(seed=11, events=600)
        config = EngineConfig.from_trace(trace)
        first = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        second = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        a = json.dumps(decision_rows(first), sort_keys=True)
        b = json.dumps(decision_rows(second), sort_keys=True)
        assert a == b

    def test_structured_report_is_canonical_outside_timing(self):
        trace = scenarios.load_trace("network-rootkit")
        first = structured_document(replay(trace, EnvironmentBit.UNSECURE))
        second = structured_document(replay(trace, EnvironmentBit.UNSECURE))
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
        doc = json.loads(report.to_json())
        assert set(doc) == {"summary", "decisions", "taint", "timing"}
        assert doc["summary"]["deny_total"] == 1
        assert doc["taint"] == ["file:6", "proc:3"]
        assert len(doc["decisions"]) == 9
        priv_row = doc["decisions"][-1]
        assert priv_row["verdict"] == "Deny"
        assert priv_row["reason"] == "PrivilegedOp"
        assert priv_row["args"] == {"pid": 3, "capability": "CAP_SYS_MODULE"}

    def test_rows_show_no_resolved_ids(self):
        report = replay(parse_trace(STORE_DEPENDENT_IDS_TRACE), EnvironmentBit.SECURE)
        rows = json.loads(report.to_json())["decisions"]
        assert sorted(rows[1]["args"]) == ["is_directory", "owner", "path", "perms", "pid"]
        assert sorted(rows[2]["args"]) == ["dst_owner", "dst_path", "dst_perms", "pid", "src_fid"]

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
        rows = json.loads(report.to_json())["decisions"]
        args = [row["args"] for row in rows]
        assert {"pid": 2, "peer_address": '\u4f8b"\\\U0001f642'} in args
        assert args[-4]["channel"] == "shm"
        assert any(row["taint_updates"] for row in rows)
        assert_json_is_the_reference(report)

    def test_empty_log_matches_the_reference(self):
        report = replay(parse_trace("cumac-trace v1\n"), EnvironmentBit.UNSECURE)
        assert_json_is_the_reference(report)

    def test_the_table_has_one_event_of_each_kind(self):
        assert set(ONE_EVENT_PER_KIND) == set(_EVENTS)
        for verb, ev in ONE_EVENT_PER_KIND.items():
            assert type(ev) is _EVENTS[verb][0]
        assert len(OUTCOMES) == 7 + 1

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("verb", ONE_EVENT_PER_KIND)
    def test_every_kind_and_outcome_matches_the_reference(self, verb, outcome):
        report = hand_built_report([ONE_EVENT_PER_KIND[verb]], [OUTCOMES[outcome]])
        assert_json_is_the_reference(report)

    @pytest.mark.parametrize(
        "event",
        [
            Read(1, pid="1", fid=2),
            Read(1, pid=True, fid=2),
            Exec(1, pid=1, fid=False),
            Read(True, pid=1, fid=2),
            Mount(1, mount_id=1.0, path_prefix="/mnt"),
            Create(1, pid=1, path="/a", perms="644", owner="root", is_directory=1, new_fid=5),
            Create(1, pid=1, path="/a", perms="644", owner="root", is_directory="1", new_fid=5),
            Create(1, pid=1, path="/a", perms="644", owner="root", is_directory=None, new_fid=5),
            Ipc(1, from_pid=1, to_pid=2, channel="shm"),
            Ipc(1, from_pid=1, to_pid=2, channel="carrier-pigeon"),
            Ipc(1, from_pid=1, to_pid=2, channel=3),
            Ipc(1, from_pid=1, to_pid=2, channel=TaintState.NON_INTRUSION),
            RemoteComm(1, pid=1, peer_address=7),
            Login(1, pid=1, user=b"root"),
        ],
        ids=repr,
    )
    def test_ill_typed_values_are_refused_or_written_as_json_dumps_writes(self, event):
        report = hand_built_report([event], [ALLOW])
        try:
            text = report.to_json()
        except TypeError:
            return
        assert text.splitlines(True) == reference_json(report).splitlines(True)

    def test_unknown_argument_type_is_refused(self):
        report = replay(parse_trace("cumac-trace v1\n"), EnvironmentBit.UNSECURE)
        report.events.append(Read(seq=1, pid=1.5, fid=2))
        report.decisions.append(ALLOW)
        with pytest.raises(TypeError, match="float"):
            report.to_json()


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text: str) -> None:
        pass


class TestStreamingWriter:
    """write_json() streams the bytes of to_json() and joins at most a
    block of decision rows into one write, so it holds little of the
    report at any time."""

    @pytest.mark.parametrize(
        "rows", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS], ids=lambda n: f"{n}-rows"
    )
    def test_block_edges_match_the_reference(self, rows):
        report = replay(random_trace(seed=rows, events=rows), EnvironmentBit.UNSECURE)
        assert len(report.log) == rows
        assert_json_is_the_reference(report)
        writes = Writes()
        report.write_json(writes)
        assert "".join(writes) == report.to_json()
        per_write = [text.count('\n      "seq": ') for text in writes]
        assert sum(per_write) == rows
        assert max(per_write) <= _BLOCK_ROWS
        assert sum(1 for count in per_write if count) == -(-rows // _BLOCK_ROWS)

    @pytest.mark.parametrize(
        "items", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1], ids=lambda n: f"{n}-items"
    )
    def test_an_iterator_section_is_a_row_list(self, items):
        doc = {"count": {"items": items}, "rows": [f"row {i}" for i in range(items)], "tail": []}
        writes = Writes()
        texts = (f"\n    {json.dumps(item)}" for item in doc["rows"])
        write_document(writes, {**doc, "rows": texts})
        assert "".join(writes) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert max(text.count('"row ') for text in writes) <= _BLOCK_ROWS

    def test_streaming_allocates_a_small_fraction_of_the_report(self):
        report = replay(random_trace(seed=8, events=20_000), EnvironmentBit.UNSECURE)
        length = len(report.to_json())
        tracemalloc.start()
        try:
            report.write_json(_Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length / 8, f"peak {peak} bytes for a {length}-character report"


class TestCollectorState:
    """replay() pauses the cyclic collector while it runs and leaves it as
    it found it, whether the trace replays cleanly or not."""

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


class TestBookkeeping:
    """The timing stats and final taint that ``replay`` computes after its
    loop, and the outcome counts a report derives from its decisions,
    equal their plain references."""

    @pytest.mark.parametrize(
        "durations",
        [[7], [9, 2], [5, 1, 4], [8, 8, 3, 1], [2**53 + 1, 3, 2**53 + 7], [1, 2**60, 3, 2**60 + 1]],
        ids=["one", "two", "odd", "even", "odd-wide", "even-wide"],
    )
    def test_timing_stats_match_the_statistics_module(self, durations):
        self.assert_matches(array("q", durations), 0.25)

    @given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_timing_stats_match_on_any_durations(self, durations):
        self.assert_matches(array("q", durations), 0.5)

    @staticmethod
    def assert_matches(durations: array, wall: float) -> None:
        stats = TimingStats.of_steps(durations, wall)
        assert stats.median_us == statistics.median(durations) / 1000.0
        assert stats.mean_us == statistics.fmean(durations) / 1000.0
        assert stats.max_us == max(durations) / 1000.0
        assert stats.wall_seconds == wall
        assert stats.events_per_second == len(durations) / wall

    def test_no_steps_give_zeros(self):
        assert TimingStats.of_steps(array("q"), 0.0) == TimingStats()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", list(EnvironmentBit), ids=lambda m: m.value)
    def test_final_taint_is_the_taint_set_in_entity_order(self, seed, mode):
        trace = random_trace(seed=seed, events=3000)
        engine = Engine(EngineConfig.from_trace(trace), ExceptionStore(), mode)
        for ev in trace.events:
            engine.step(ev)
        want = sorted(engine.sorted_taint(), key=entity_sort_key)
        assert engine.sorted_taint() == want
        assert replay(trace, mode).final_taint == want
        # Sorting the names as text would put proc:10 before proc:9.
        ids: dict[str, list[int]] = {}
        for entity in want:
            kind, _, number = entity.partition(":")
            ids.setdefault(kind, []).append(int(number))
        crossing = {kind for kind, numbers in ids.items() if min(numbers) < 10 and max(numbers) >= 100}
        assert crossing == ({"file", "proc"} if mode is EnvironmentBit.SECURE else {"proc"})

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("store", ["empty", "learned", "learning", "partial"])
    def test_outcome_counts_match_the_decisions(self, seed, store):
        # Enforcing with an empty store, with the whole learned store and
        # with half of it, and learning in Secure mode.
        trace = random_trace(seed=seed, events=3000)
        mode, grants = EnvironmentBit.UNSECURE, ExceptionStore()
        if store == "learning":
            mode = EnvironmentBit.SECURE
        elif store != "empty":
            learned = learn(trace)[1]
            if store == "learned":
                grants = learned
            else:
                for fid, key, access in list(learned.iter_file_triples())[::2]:
                    grants.record_file_exception(key, fid, access)
                for key, capability in list(learned.iter_priv_pairs())[::2]:
                    grants.record_priv_exception(key, capability)
        report = replay(trace, mode, grants)
        verdicts = [d.verdict for d in report.decisions]
        denied = [d.reason.value for d in report.decisions if d.verdict is Verdict.DENY]
        assert report.allows == verdicts.count(Verdict.ALLOW)
        assert report.exception_allows == verdicts.count(Verdict.ALLOW_BY_EXCEPTION)
        assert report.denies_by_reason == {reason: denied.count(reason) for reason in set(denied)}
        assert report.deny_count == len(denied)
        assert (report.exception_allows > 0) == (store in ("learned", "partial"))
        assert (report.deny_count > 0) == (store in ("empty", "partial"))
        summary = report.to_structured()["summary"]
        assert summary["allows"] == report.allows
        assert summary["exception_allows"] == report.exception_allows
        assert summary["denies"] == dict(sorted(report.denies_by_reason.items()))
        assert summary["deny_total"] == report.deny_count



class TestDerivedCounts:
    """A report derives its outcome counts from its decisions on the first
    read and keeps them; a replay does not count."""

    def test_the_counts_do_not_take_part_in_equality(self):
        trace = random_trace(seed=1, events=300)
        report = replay(trace, EnvironmentBit.UNSECURE)
        twin = ReplayReport(
            report.mode, report.label, report.events, report.decisions,
            report.final_taint, report.learned_exceptions, report.timing,
        )
        assert report.allows > 0
        assert twin == report

    @pytest.fixture
    def added(self, monkeypatch):
        """The decision lists added to any ``Outcomes``, by length."""
        calls = []
        add = replay_module.Outcomes.add

        def counted(outcomes, events, decisions):
            calls.append(len(decisions))
            return add(outcomes, events, decisions)

        monkeypatch.setattr(replay_module.Outcomes, "add", counted)
        return calls

    def test_the_audit_calls_add_nothing(self, added):
        trace = random_trace(seed=2, events=1000)
        config = EngineConfig.from_trace(trace)
        report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        taint_oracle(trace, [d.verdict for d in report.decisions], config)
        compare(trace, ExceptionStore(), config)
        export_taint_graph(report, trace)
        assert added == []

    def test_a_cli_enforce_adds_each_decision_once(self, added, tmp_path, capsys):
        path = tmp_path / "t.trace"
        path.write_text(render_trace(random_trace(seed=2, events=1000)))
        report = tmp_path / "r.json"
        cli.main(["enforce", "--trace", str(path), "--empty-store",
                  "--format", "structured", "--report", str(report)])
        assert "denied" in capsys.readouterr().out
        assert json.loads(report.read_text())["summary"]["events"] == 1000
        assert len(added) > 1 and sum(added) == 1000  # one add per parse block
