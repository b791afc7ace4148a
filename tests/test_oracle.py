"""The reachability oracle: hand-walked cases, temporal ordering, denied-edge
exclusion, and randomized agreement with the engine."""

import gc

import pytest

from cumac import oracle as oracle_module
from cumac import scenarios
from cumac.engine import EngineConfig
from cumac.errors import TraceError
from cumac.model import Event, Verdict, entity_sort_key
from cumac.oracle import export_taint_graph, taint_oracle
from cumac.randomtrace import random_trace
from cumac.replay import replay
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import parse_trace

HEADER = (
    "cumac-trace v1\n"
    "USER root trusted=1\n"
    "USER mallory trusted=0\n"
    "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    "FILE fid=2 path=/bin perms=755 owner=root dir=1\n"
    "FILE fid=3 path=/bin/sh perms=755 owner=root dir=0\n"
    "FILE fid=4 path=/tmp perms=777 owner=root dir=1\n"
    "FILE fid=5 path=/tmp/tool perms=755 owner=root dir=0\n"
    "FILE fid=6 path=/mnt perms=755 owner=root dir=1\n"
    "FILE fid=7 path=/mnt/usb perms=755 owner=root dir=1\n"
    "FILE fid=8 path=/mnt/usb/payload perms=755 owner=root dir=0\n"
    "PROC pid=1 key=3 user=root\n"
    "PROC pid=2 key=3 user=root\n"
)


def run_both(text: str, mode: EnvironmentBit = EnvironmentBit.UNSECURE):
    trace = parse_trace(text)
    config = EngineConfig.from_trace(trace)
    report = replay(trace, mode, ExceptionStore(), config)
    verdicts = [d.verdict for _, d in report.log]
    oracle = taint_oracle(trace, verdicts, config)
    return set(report.final_taint), oracle


class TestHandWalkedCases:
    def test_trace_without_entrances_is_empty(self):
        engine_set, oracle_set = run_both(
            HEADER + "FORK parent=1 child=10\nWRITE pid=10 fid=5\nREAD pid=2 fid=5\n"
        )
        assert oracle_set == set()
        assert engine_set == oracle_set

    def test_usb_rootkit_fixture(self):
        trace = scenarios.load_trace("usb-rootkit")
        report = replay(trace, EnvironmentBit.UNSECURE)
        verdicts = [d.verdict for _, d in report.log]
        oracle = taint_oracle(trace, verdicts)
        assert oracle == {"file:6", "proc:3"}
        assert set(report.final_taint) == oracle

    def test_fork_then_entrance_leaves_child_clean(self):
        # the child was forked before the parent faced the network
        engine_set, oracle_set = run_both(
            HEADER + "FORK parent=1 child=10\nNET pid=1 peer=203.0.113.5\n"
        )
        assert oracle_set == {"proc:1"}
        assert engine_set == oracle_set

    def test_entrance_then_fork_taints_child(self):
        engine_set, oracle_set = run_both(
            HEADER + "NET pid=1 peer=203.0.113.5\nFORK parent=1 child=10\n"
        )
        assert oracle_set == {"proc:1", "proc:10"}
        assert engine_set == oracle_set

    def test_denied_write_contributes_no_edge(self):
        # enforcement: the tainted write to the executable is denied
        engine_set, oracle_set = run_both(
            HEADER + "NET pid=1 peer=203.0.113.5\nWRITE pid=1 fid=5\nEXEC pid=2 fid=5\n"
        )
        assert oracle_set == {"proc:1"}
        assert engine_set == oracle_set

    def test_learning_mode_write_does_contribute_the_edge(self):
        engine_set, oracle_set = run_both(
            HEADER + "NET pid=1 peer=203.0.113.5\nWRITE pid=1 fid=5\nEXEC pid=2 fid=5\n",
            mode=EnvironmentBit.SECURE,
        )
        assert oracle_set == {"proc:1", "file:5", "proc:2"}
        assert engine_set == oracle_set

    def test_copy_off_mobile_mount_makes_destination_a_source(self):
        engine_set, oracle_set = run_both(
            HEADER
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "COPY pid=1 src=8 dst=/tmp/adore perms=755 owner=root\n"
            + "EXEC pid=2 fid=9\n"
        )
        # the copied executable (fid 9) is the entrance; the copier stays clean
        assert oracle_set == {"file:9", "proc:2"}
        assert engine_set == oracle_set

    def test_tainted_file_propagates_through_copy(self):
        engine_set, oracle_set = run_both(
            HEADER
            + "NET pid=1 peer=203.0.113.5\n"
            + "COPY pid=1 src=3 dst=/tmp/stage1 perms=755 owner=root\n"
            + "COPY pid=2 src=9 dst=/tmp/stage2 perms=755 owner=root\n"
            + "EXEC pid=2 fid=10\n"
        )
        assert oracle_set == {"proc:1", "file:9", "file:10", "proc:2"}
        assert engine_set == oracle_set

    def test_shared_memory_flows_both_ways(self):
        engine_set, oracle_set = run_both(
            HEADER + "NET pid=2 peer=203.0.113.5\nIPC from=1 to=2 chan=shm\n"
        )
        assert oracle_set == {"proc:1", "proc:2"}
        assert engine_set == oracle_set

    def test_pipe_does_not_flow_backwards(self):
        engine_set, oracle_set = run_both(
            HEADER + "NET pid=2 peer=203.0.113.5\nIPC from=1 to=2 chan=pipe\n"
        )
        assert oracle_set == {"proc:2"}
        assert engine_set == oracle_set

    def test_reads_are_not_flow_edges(self):
        engine_set, oracle_set = run_both(
            HEADER
            + "NET pid=1 peer=203.0.113.5\n"
            + "COPY pid=1 src=3 dst=/tmp/evil perms=755 owner=root\n"
            + "READ pid=2 fid=9\n"
        )
        assert "proc:2" not in oracle_set
        assert engine_set == oracle_set

    def test_untouched_mobile_file_is_local_after_unmount(self):
        engine_set, oracle_set = run_both(
            HEADER + "MOUNT id=1 prefix=/mnt/usb\nUNMOUNT id=1\nEXEC pid=1 fid=8\n"
        )
        assert oracle_set == set()
        assert engine_set == oracle_set

    def test_mobile_observation_sticks_past_unmount(self):
        engine_set, oracle_set = run_both(
            HEADER
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "EXEC pid=1 fid=8\n"
            + "UNMOUNT id=1\n"
            + "EXEC pid=2 fid=8\n"
        )
        assert oracle_set == {"file:8", "proc:1", "proc:2"}
        assert engine_set == oracle_set

    def test_copy_source_stays_mobile_past_unmount(self):
        # only the memo of the first copy makes the second one an entrance
        engine_set, oracle_set = run_both(
            HEADER
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "COPY pid=1 src=8 dst=/tmp/a perms=755 owner=root\n"
            + "UNMOUNT id=1\n"
            + "COPY pid=1 src=8 dst=/tmp/b perms=755 owner=root\n"
            + "EXEC pid=2 fid=10\n"
        )
        assert oracle_set == {"file:9", "file:10", "proc:2"}
        assert engine_set == oracle_set

    def test_file_created_under_a_mount_is_mobile_after_unmount(self):
        engine_set, oracle_set = run_both(
            HEADER
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "CREATE pid=1 path=/mnt/usb/dropper perms=755 owner=root dir=0\n"
            + "UNMOUNT id=1\n"
            + "EXEC pid=2 fid=9\n"
        )
        assert oracle_set == {"file:9", "proc:2"}
        assert engine_set == oracle_set


class TestRandomizedEquivalence:
    def test_engine_matches_oracle_on_random_traces(self):
        for seed in range(25):
            trace = random_trace(seed=seed, events=500)
            config = EngineConfig.from_trace(trace)
            report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
            verdicts = [d.verdict for _, d in report.log]
            oracle = sorted(taint_oracle(trace, verdicts, config), key=entity_sort_key)
            assert oracle == report.final_taint, f"seed {seed}"

    def test_equivalence_holds_in_learning_mode_too(self):
        for seed in range(10):
            trace = random_trace(seed=100 + seed, events=400)
            config = EngineConfig.from_trace(trace)
            report = replay(trace, EnvironmentBit.SECURE, ExceptionStore(), config)
            verdicts = [d.verdict for _, d in report.log]
            oracle = sorted(taint_oracle(trace, verdicts, config), key=entity_sort_key)
            assert oracle == report.final_taint, f"seed {seed}"


class TestCollectorState:
    """taint_oracle() pauses the cyclic collector during its pass and leaves
    it as it found it, whether it returns or refuses its verdicts."""

    def test_clean_pass_restores_collector_state(self, collector, monkeypatch):
        seen_during_pass = set()
        proc_entity = oracle_module.proc_entity

        def observed(original):
            def call(*args):
                seen_during_pass.add(gc.isenabled())
                return original(*args)
            return call

        # proc_entity names the reached processes at the end of the pass.
        monkeypatch.setattr(oracle_module, "proc_entity", observed(proc_entity))
        trace = scenarios.load_trace("usb-rootkit")
        report = replay(trace, EnvironmentBit.UNSECURE)
        tainted = taint_oracle(trace, [d.verdict for _, d in report.log])
        assert sorted(tainted, key=entity_sort_key) == report.final_taint
        assert seen_during_pass == {False}
        assert gc.isenabled() is collector

    def test_wrong_verdict_count_restores_collector_state(self, collector):
        trace = scenarios.load_trace("usb-rootkit")
        with pytest.raises(ValueError, match="one verdict per event"):
            taint_oracle(trace, [])
        assert gc.isenabled() is collector


class TestGraphExport:
    def test_empty_trace_has_zero_nodes(self):
        trace = parse_trace("cumac-trace v1\n")
        report = replay(trace, EnvironmentBit.UNSECURE)
        dot = export_taint_graph(report, trace)
        assert dot.startswith("digraph taint_trace {")
        assert "->" not in dot
        assert "shape=" not in dot

    def test_usb_rootkit_has_dashed_denied_priv_edge(self):
        trace = scenarios.load_trace("usb-rootkit")
        report = replay(trace, EnvironmentBit.UNSECURE)
        dot = export_taint_graph(report, trace)
        assert '"proc:3" -> "cap:CAP_SYS_MODULE" [label="9 PRIV", style=dashed, color=red];' in dot

    def test_tainted_nodes_are_red(self):
        trace = scenarios.load_trace("usb-rootkit")
        report = replay(trace, EnvironmentBit.UNSECURE)
        dot = export_taint_graph(report, trace)
        tainted_lines = [line for line in dot.splitlines() if "color=red" in line and "shape=" in line]
        assert any('"file:6"' in line for line in tainted_lines)
        assert any('"proc:3"' in line for line in tainted_lines)

    def test_output_is_byte_identical_across_runs(self):
        trace = scenarios.load_trace("network-rootkit")
        first = export_taint_graph(replay(trace, EnvironmentBit.UNSECURE), trace)
        second = export_taint_graph(replay(trace, EnvironmentBit.UNSECURE), trace)
        assert first == second

    def test_every_event_appears_as_an_edge_label(self):
        trace = scenarios.load_trace("local-ptrace")
        report = replay(trace, EnvironmentBit.UNSECURE)
        dot = export_taint_graph(report, trace)
        for ev in trace.events:
            assert f'label="{ev.seq} ' in dot

    def test_quotes_and_backslashes_in_free_text_are_escaped(self):
        # A peer, a user name and paths may hold '"' and '\'; entity ids,
        # verbs and sequence numbers never do.
        trace = parse_trace(
            "cumac-trace v1\n"
            "USER root trusted=1\n"
            'USER q"u\\ote trusted=0\n'
            "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
            "FILE fid=2 path=/tmp perms=777 owner=root dir=1\n"
            'FILE fid=3 path=/tmp/x"y\\z perms=755 owner=root dir=0\n'
            "PROC pid=1 key=3 user=root\n"
            "PROC pid=2 key=3 user=root\n"
            'NET pid=1 peer=10.0.0.1"\\x\n'
            'LOGIN pid=2 user=q"u\\ote\n'
            'CREATE pid=1 path=/tmp/a"b\\c perms=755 owner=root dir=0\n'
            'NET pid=2 peer=10.0.0.1"\\x\n'
            "PRIV pid=1 cap=CAP_SYS_MODULE\n"
        )
        dot = export_taint_graph(replay(trace, EnvironmentBit.UNSECURE), trace)
        assert dot.splitlines() == [
            "digraph taint_trace {",
            "  rankdir=LR;",
            '  "proc:1" [shape=ellipse, color=red, fontcolor=red];',
            '  "proc:2" [shape=ellipse, color=red, fontcolor=red];',
            '  "file:1" [shape=box, label="file:1 /"];',
            '  "file:2" [shape=box, label="file:2 /tmp"];',
            '  "file:3" [shape=box, label="file:3 /tmp/x\\"y\\\\z"];',
            '  "file:4" [shape=box, label="file:4 /tmp/a\\"b\\\\c", color=red, fontcolor=red];',
            '  "addr:10.0.0.1\\"\\\\x" [shape=diamond];',
            '  "cap:CAP_SYS_MODULE" [shape=diamond];',
            '  "user:q\\"u\\\\ote" [shape=diamond];',
            '  "addr:10.0.0.1\\"\\\\x" -> "proc:1" [label="1 NET"];',
            '  "user:q\\"u\\\\ote" -> "proc:2" [label="2 LOGIN"];',
            '  "proc:1" -> "file:4" [label="3 CREATE"];',
            '  "addr:10.0.0.1\\"\\\\x" -> "proc:2" [label="4 NET"];',
            '  "proc:1" -> "cap:CAP_SYS_MODULE" [label="5 PRIV", style=dashed, color=red];',
            "}",
        ]


class TestUnknownEventKind:
    """The oracle and the graph export refuse an event kind that neither
    engine knows, as both engines do, instead of skipping it."""

    def with_reboot(self):
        # Local, as in test_lwm.py: a module-level subclass would stay among
        # the Event subclasses that test_trace.py matches to the event table.
        class Reboot(Event):
            pass

        trace = scenarios.load_trace("usb-rootkit")
        report = replay(trace, EnvironmentBit.UNSECURE)
        seq = trace.events[-1].seq + 1
        trace.events.append(Reboot(seq))
        report.decisions.append(report.decisions[-1])
        return trace, report, seq

    @pytest.mark.parametrize("verdict", [Verdict.ALLOW, Verdict.ALLOW_BY_EXCEPTION])
    def test_the_oracle_refuses_it(self, verdict):
        trace, report, seq = self.with_reboot()
        verdicts = [d.verdict for d in report.decisions[:-1]] + [verdict]
        with pytest.raises(TraceError, match="unknown event kind Reboot") as raised:
            taint_oracle(trace, verdicts)
        assert raised.value.seq == seq

    def test_the_graph_export_refuses_it(self):
        trace, report, seq = self.with_reboot()
        with pytest.raises(TraceError, match="unknown event kind Reboot") as raised:
            export_taint_graph(report, trace)
        assert raised.value.seq == seq
        assert raised.value.__suppress_context__
