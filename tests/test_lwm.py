"""Low-water-mark baseline: level dynamics and the comparison report."""

import gc
import itertools
import json

import pytest
from conftest import Writes, reference_json
from hypothesis import given, settings
from hypothesis import strategies as st

from cumac import scenarios
from cumac.engine import Engine, EngineConfig
from cumac.errors import TraceError
from cumac.lwm import IntegrityLevel, LwmEngine, compare
from cumac.model import (
    Copy,
    Create,
    Event,
    FileRecord,
    Fork,
    Mount,
    PermissionBits,
    Verdict,
    _covers,
    _parent_path,
)
from cumac.randomtrace import random_trace
from cumac.replay import _BLOCK_ROWS, learn
from cumac.store import ExceptionStore
from cumac.trace import EVENT_VERBS, Trace, TraceHeader, parse_trace

HEADER = (
    "cumac-trace v1\n"
    "USER root trusted=1\n"
    "FILE fid=1 path=/ perms=755 owner=root dir=1\n"
    "FILE fid=2 path=/var perms=755 owner=root dir=1\n"
    "FILE fid=3 path=/mnt perms=755 owner=root dir=1\n"
    "FILE fid=4 path=/mnt/usb perms=755 owner=root dir=1\n"
    "FILE fid=5 path=/mnt/usb/data perms=644 owner=root dir=0\n"
    "FILE fid=6 path=/var/own.file perms=644 owner=root dir=0\n"
    "FILE fid=7 path=/bin perms=755 owner=root dir=1\n"
    "FILE fid=8 path=/bin/tool perms=755 owner=root dir=0\n"
    "PROC pid=1 key=8 user=root\n"
    "PROC pid=2 key=8 user=root\n"
)


def run(text: str):
    trace = parse_trace(text)
    engine = LwmEngine(trace)
    log = [engine.step(ev) for ev in trace.events]
    return engine, log


class TestLevels:
    def test_self_revocation_pattern_denied(self):
        # High subject reads a Low file, then writes its own High file.
        engine, log = run(HEADER + "MOUNT id=1 prefix=/mnt/usb\nREAD pid=1 fid=5\nWRITE pid=1 fid=6\n")
        assert engine.subject_levels[1] is IntegrityLevel.LOW
        assert log[-1].verdict is Verdict.DENY

    def test_subject_that_never_reads_low_keeps_writing(self):
        _, log = run(HEADER + "WRITE pid=1 fid=6\nWRITE pid=1 fid=6\nWRITE pid=1 fid=8\n")
        assert all(d.verdict is Verdict.ALLOW for d in log)

    def test_low_subject_writes_low_object(self):
        engine, log = run(
            HEADER
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "READ pid=1 fid=5\n"  # pid 1 drops Low
            + "WRITE pid=1 fid=5\n"  # Low writes Low
        )
        assert log[-1].verdict is Verdict.ALLOW

    def test_exec_drops_the_level_like_a_read(self):
        engine, _ = run(HEADER + "MOUNT id=1 prefix=/mnt/usb\nCOPY pid=2 src=5 dst=/var/d perms=755 owner=root\nEXEC pid=1 fid=9\n")
        assert engine.subject_levels[1] is IntegrityLevel.LOW

    def test_fork_inherits_level(self):
        engine, _ = run(
            HEADER + "MOUNT id=1 prefix=/mnt/usb\nREAD pid=1 fid=5\nFORK parent=1 child=10\n"
        )
        assert engine.subject_levels[10] is IntegrityLevel.LOW

    def test_priv_op_maps_to_a_high_write(self):
        _, log = run(
            HEADER
            + "PRIV pid=1 cap=CAP_SYS_MODULE\n"  # High subject: fine
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "READ pid=1 fid=5\n"
            + "PRIV pid=1 cap=CAP_SYS_MODULE\n"  # Low subject: refused
        )
        assert log[0].verdict is Verdict.ALLOW
        assert log[-1].verdict is Verdict.DENY

    def test_remote_facing_process_starts_low(self):
        engine, _ = run(HEADER + "NET pid=1 peer=203.0.113.5\n")
        assert engine.subject_levels[1] is IntegrityLevel.LOW
        assert engine.subject_levels[2] is IntegrityLevel.HIGH

    def test_levels_never_rise(self):
        trace = parse_trace(
            HEADER
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "READ pid=1 fid=5\n"
            + "READ pid=1 fid=6\n"  # reading High afterwards does not lift it
            + "EXEC pid=1 fid=8\n"
        )
        engine = LwmEngine(trace)
        lowest: dict[int, IntegrityLevel] = dict(engine.subject_levels)
        for ev in trace.events:
            engine.step(ev)
            for pid, level in engine.subject_levels.items():
                assert level <= lowest.get(pid, IntegrityLevel.HIGH)
                lowest[pid] = min(level, lowest.get(pid, IntegrityLevel.HIGH))
        assert engine.subject_levels[1] is IntegrityLevel.LOW

    def test_mount_lowers_high_files_created_under_its_prefix(self):
        trace = parse_trace(
            HEADER
            + "CREATE pid=1 path=/mnt/usb/early perms=644 owner=root dir=0\n"  # fid 9
            + "MOUNT id=1 prefix=/mnt/usb\n"
            + "UNMOUNT id=1\n"
            + "CREATE pid=1 path=/mnt/usb/late perms=644 owner=root dir=0\n"  # fid 10
            + "CREATE pid=1 path=/var/other perms=644 owner=root dir=0\n"  # fid 11
            + "MOUNT id=2 prefix=/mnt/usb\n"
        )
        engine = LwmEngine(trace)
        for ev in trace.events[:-1]:
            engine.step(ev)
        assert engine.object_levels[9] is IntegrityLevel.LOW
        assert engine.object_levels[10] is IntegrityLevel.HIGH
        engine.step(trace.events[-1])
        assert engine.object_levels[10] is IntegrityLevel.LOW
        assert engine.object_levels[11] is IntegrityLevel.HIGH


    def test_refused_create_and_copy_register_the_object_at_its_birth_level(self):
        engine, log = run(
            HEADER
            + "NET pid=1 peer=203.0.113.5\n"  # pid 1 starts Low
            + "CREATE pid=1 path=/var/made perms=644 owner=root dir=0\n"  # fid 9, refused
            + "COPY pid=1 src=6 dst=/var/copied perms=644 owner=root\n"  # fid 10, refused
            + "WRITE pid=1 fid=9\n"
            + "WRITE pid=1 fid=10\n"
            + "WRITE pid=1 fid=6\n"
        )
        assert [d.verdict for d in log] == [
            Verdict.ALLOW, Verdict.DENY, Verdict.DENY, Verdict.ALLOW, Verdict.ALLOW, Verdict.DENY
        ]
        # Born at the Low creator's level, so the Low writer may write them.
        assert engine.object_levels[9] is IntegrityLevel.LOW
        assert engine.object_levels[10] is IntegrityLevel.LOW

    @pytest.mark.parametrize("pid", [1, 2], ids=["low", "high"])
    def test_a_missing_parent_directory_is_refused_at_every_level(self, pid):
        trace = parse_trace(HEADER + "NET pid=1 peer=203.0.113.5\n")  # pid 1 starts Low
        events = [
            Create(1, pid, "/opt/made", "644", "root", False, 9),
            Copy(1, pid, 6, "/opt/copied", "644", "root", 9),
        ]
        for event in events:
            engine = LwmEngine(trace)
            before = (dict(engine.subject_levels), dict(engine.object_levels))
            with pytest.raises(TraceError, match="^event 1: parent directory of '/opt/"):
                engine.step(event)
            assert (engine.subject_levels, engine.object_levels) == before


class TestFreshFileStep:
    """Create and a copy to a fresh path take one fresh-file step: with
    the copy's dropped level equal to the creator's, both give the same
    verdict and register the file at the same level."""

    # Per parent level and live mount, the lines before the fresh file
    # and its path: a mounted prefix makes /mnt/usb Low, and a mount of
    # the path itself leaves its parent /var High.
    PLACES = {
        ("high-parent", "no-mount"): ("", "/var/new"),
        ("high-parent", "live-mount"): ("MOUNT id=1 prefix=/var/new\n", "/var/new"),
        ("low-parent", "no-mount"): (
            "MOUNT id=1 prefix=/mnt/usb\nUNMOUNT id=1\n", "/mnt/usb/new"
        ),
        ("low-parent", "live-mount"): ("MOUNT id=1 prefix=/mnt/usb\n", "/mnt/usb/new"),
    }

    @pytest.mark.parametrize("place", PLACES, ids="-".join)
    @pytest.mark.parametrize("subject", [IntegrityLevel.LOW, IntegrityLevel.HIGH], ids=["low", "high"])
    def test_create_and_fresh_copy_agree(self, subject, place):
        before, path = self.PLACES[place]
        pid = 1 if subject is IntegrityLevel.LOW else 2
        outcomes = []
        for line in (
            f"CREATE pid={pid} path={path} perms=644 owner=root dir=0",
            f"COPY pid={pid} src=8 dst={path} perms=644 owner=root",  # /bin/tool is High
        ):
            engine, log = run(HEADER + "NET pid=1 peer=203.0.113.5\n" + before + line + "\n")
            assert engine.subject_levels[pid] is subject
            outcomes.append((log[-1].verdict, engine.object_levels[9]))
        refused = subject is IntegrityLevel.LOW and place[0] == "high-parent"
        born_low = subject is IntegrityLevel.LOW or place[1] == "live-mount"
        assert outcomes[0] == outcomes[1] == (
            Verdict.DENY if refused else Verdict.ALLOW,
            IntegrityLevel.LOW if born_low else IntegrityLevel.HIGH,
        )


def ancestor_walk(prefixes, path: str) -> list[str]:
    """The prefixes among ``prefixes`` that ``path`` or one of its
    ancestors equals, walking parent paths up to ``/``."""
    found = []
    while True:
        if path in prefixes:
            found.append(path)
        if path == "/":
            return found
        path = _parent_path(path)


def low_fids(engine: LwmEngine) -> set[int]:
    return {fid for fid, level in engine.object_levels.items() if level is IntegrityLevel.LOW}


# Paths over a few segments, so that prefixes, their children and
# look-alikes ("usb" and "usbx") meet often.
PATHS = st.lists(st.sampled_from(["mnt", "usb", "usbx", "a"]), max_size=4).map(
    lambda segments: "/" + "/".join(segments)
)
COVER_PREFIXES = ("/", "/mnt", "/mnt/usb", "/mnt/usb0")


class TestHighFileRegistration:
    """A High file joins the list of every mounted prefix that covers it,
    exactly the prefixes an ancestor walk of its path meets."""

    @settings(max_examples=300, deadline=None)
    @given(
        prefixes=st.lists(PATHS, min_size=1, max_size=4, unique=True),
        snapshot=st.lists(PATHS, max_size=6, unique=True),
        created=st.lists(PATHS, max_size=6, unique=True),
    )
    def test_registration_matches_the_ancestor_walk(self, prefixes, snapshot, created):
        files = [
            FileRecord(fid, path, PermissionBits.parse("755"))
            for fid, path in enumerate(snapshot, start=1)
        ]
        mounts = [Mount(seq, seq, prefix) for seq, prefix in enumerate(prefixes, start=1)]
        engine = LwmEngine(Trace(TraceHeader(files=files), mounts))
        want = {prefix: [] for prefix in prefixes}
        covered = {f.fid for f in files if ancestor_walk(prefixes, f.path)}
        assert low_fids(engine) == covered
        # Created files are registered High, as a High subject's creates are.
        for fid, path in enumerate(created, start=len(files) + 1):
            engine._register(fid, path, IntegrityLevel.HIGH)
            for prefix in ancestor_walk(prefixes, path):
                want[prefix].append(fid)
                covered.add(fid)
        assert engine._high_below == want
        for ev in mounts:
            engine.step(ev)
        assert low_fids(engine) == covered

    @pytest.mark.parametrize(
        "prefix, path, covered",
        [
            ("/mnt/usb", "/mnt/usb/a/b", True),
            ("/mnt/usb", "/mnt/usb", True),
            ("/", "/a", True),
            ("/", "/", True),
            ("/mnt/usb", "/mnt/usbx", False),
            ("/mnt/usb", "/mnt/usbx/a", False),
            ("/mnt/usb", "/mnt", False),
        ],
    )
    def test_named_cases(self, prefix, path, covered):
        engine = LwmEngine(Trace(TraceHeader(), [Mount(1, 1, prefix)]))
        engine._register(7, path, IntegrityLevel.HIGH)
        assert engine._high_below == {prefix: [7] if covered else []}
        assert bool(ancestor_walk({prefix}, path)) == covered

    def test_under_prefix_is_the_covers_rule(self):
        # LwmEngine keeps a precomputed copy of model._covers for speed.
        paths = (*COVER_PREFIXES, "/mnt/usbx", "/mnt/usb/x", "/tmpx")
        for size in range(1, len(COVER_PREFIXES) + 1):
            for prefixes in itertools.combinations(COVER_PREFIXES, size):
                mounts = [Mount(seq, seq, prefix) for seq, prefix in enumerate(prefixes, start=1)]
                engine = LwmEngine(Trace(TraceHeader(), mounts))
                for path in paths:
                    covered = any(_covers(prefix, path) for prefix in prefixes)
                    assert engine._under_prefix(path) == covered, (prefixes, path)


class TestUnknownEventKind:
    def test_both_engines_handle_every_event_kind_of_the_trace_format(self):
        trace = parse_trace(HEADER)
        engines = (Engine(EngineConfig.from_trace(trace), ExceptionStore()), LwmEngine(trace))
        for engine in engines:
            assert set(engine._handlers) == set(EVENT_VERBS)

    def test_both_engines_refuse_an_event_kind_they_do_not_know(self):
        class Reboot(Event):
            pass

        trace = parse_trace(HEADER)
        engines = (Engine(EngineConfig.from_trace(trace), ExceptionStore()), LwmEngine(trace))
        for engine in engines:
            with pytest.raises(TraceError, match="unknown event kind Reboot"):
                engine.step(Reboot(1))


class TestCompare:
    def test_self_revocation_fixture_differs_in_exactly_one_event(self):
        trace = scenarios.load_trace("self-revocation")
        report = compare(trace)
        assert report.lwm_only == [4]
        assert report.both == []
        assert report.cumac_only == []
        assert report.label == "benign"

    def test_usb_rootkit_both_deny_the_critical_step(self):
        trace = scenarios.load_trace("usb-rootkit")
        report = compare(trace)
        assert 9 in report.both  # the module-load PRIV event
        assert report.cumac_only == []

    def test_clean_trace_with_all_high_levels_denies_nothing(self):
        _, log = run(HEADER + "WRITE pid=1 fid=6\nREAD pid=2 fid=6\nFORK parent=1 child=3\nWRITE pid=3 fid=8\n")
        assert all(d.verdict is Verdict.ALLOW for d in log)

    def test_empty_trace_empty_report(self):
        report = compare(parse_trace("cumac-trace v1\n"))
        assert report.event_count == 0
        assert report.verdicts == []
        assert report.lwm_only == report.both == report.cumac_only == []
        assert report.to_json() == reference_json(report)
        assert json.loads(report.to_json())["rows"] == []

    def test_report_discloses_the_mapping(self):
        report = compare(scenarios.load_trace("self-revocation"))
        doc = report.to_structured()
        assert "notional High object" in doc["notes"]
        assert doc["summary"]["classification"].startswith("denials are false negatives")

    def test_attack_label_classifies_true_positives(self):
        report = compare(scenarios.load_trace("usb-rootkit"))
        doc = report.to_structured()
        assert doc["summary"]["classification"].startswith("denials are true positives")

    def test_a_store_left_secure_by_learning_is_enforced(self):
        _, learned = learn(random_trace(seed=1, events=1000))
        saved = learned.save()
        other = random_trace(seed=2, events=1000)
        expected = compare(other, ExceptionStore.load(saved))
        assert expected.cumac_deny_count > 0
        assert compare(other, learned).to_json() == expected.to_json()
        assert learned.save() == saved


class TestCollectorState:
    """compare() pauses the cyclic collector while both engines step and
    leaves it as it found it, whether the trace replays or not."""

    def test_clean_run_restores_collector_state(self, collector, monkeypatch):
        seen_during_steps = set()
        step = LwmEngine.step

        def observed_step(engine, ev):
            seen_during_steps.add(gc.isenabled())
            return step(engine, ev)

        monkeypatch.setattr(LwmEngine, "step", observed_step)
        report = compare(scenarios.load_trace("self-revocation"))
        assert report.lwm_only == [4]
        assert seen_during_steps == {False}
        assert gc.isenabled() is collector

    def test_trace_error_restores_collector_state(self, collector):
        header = parse_trace(HEADER).header
        with pytest.raises(TraceError, match="pid 2 already live"):
            compare(Trace(header, [Fork(1, 1, 2)]))
        assert gc.isenabled() is collector


class TestStructuredReport:
    """write_json() streams the bytes json.dumps writes for the whole
    comparison document, joining at most a block of rows into one write."""

    @staticmethod
    def assert_json_is_the_reference(report) -> None:
        # Lines are compared, so a failure names the first differing line.
        assert report.to_json().splitlines(True) == reference_json(report).splitlines(True)

    @pytest.mark.parametrize("name", scenarios.available())
    def test_scenarios_match_the_reference(self, name):
        trace = scenarios.load_trace(name)
        self.assert_json_is_the_reference(compare(trace))
        self.assert_json_is_the_reference(compare(trace, learn(trace)[1]))

    @pytest.mark.parametrize("seq", [True, False, 1.5, "1"], ids=repr)
    def test_an_ill_typed_seq_is_refused_or_written_as_json_dumps_writes(self, seq):
        # A hand-built event; a parsed one always has an int seq.
        trace = scenarios.load_trace("usb-rootkit")
        trace.events[0].seq = seq
        report = compare(trace)
        try:
            text = report.to_json()
        except TypeError:
            return
        assert text.splitlines(True) == reference_json(report).splitlines(True)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_traces_match_the_reference(self, seed):
        trace = random_trace(seed=seed, events=400)
        learned = learn(trace)[1]
        for store in (ExceptionStore(), learned):
            report = compare(trace, store)
            assert {cumac for cumac, _ in report.verdicts} == (
                {Verdict.ALLOW, Verdict.ALLOW_BY_EXCEPTION} if store is learned
                else {Verdict.ALLOW, Verdict.DENY}
            )
            self.assert_json_is_the_reference(report)

    @pytest.mark.parametrize(
        "rows", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS], ids=lambda n: f"{n}-rows"
    )
    def test_block_edges_match_the_reference(self, rows):
        report = compare(random_trace(seed=rows, events=rows))
        assert len(report.verdicts) == rows
        self.assert_json_is_the_reference(report)
        writes = Writes()
        report.write_json(writes)
        assert "".join(writes) == report.to_json()
        per_write = [text.count('\n      "seq": ') for text in writes]
        assert sum(per_write) == rows
        assert max(per_write) <= _BLOCK_ROWS
        assert sum(1 for count in per_write if count) == -(-rows // _BLOCK_ROWS)
