"""Generated traces must be valid, reproducible, and honor suppression."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cumac.model import Copy, Create, Login, Mount, RemoteComm, Unmount, Verdict
from cumac.randomtrace import random_trace
from cumac.replay import learn, replay
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import parse_trace, render_trace


class TestValidity:
    def test_generated_traces_survive_render_parse(self):
        for seed in (0, 5, 9):
            trace = random_trace(seed=seed, events=600)
            reparsed = parse_trace(render_trace(trace))
            assert len(reparsed.events) == 600
            assert render_trace(reparsed) == render_trace(trace)
            assert reparsed.events == trace.events

    def test_exact_event_count(self):
        for events in (1, 10, 257):
            assert len(random_trace(seed=1, events=events).events) == events

    def test_sequence_numbers_dense(self):
        trace = random_trace(seed=2, events=300)
        assert [ev.seq for ev in trace.events] == list(range(1, 301))


class TestStoreIndependence:
    """Every create and copy is allowed whatever the store holds, so one
    trace replays in every mode with no reference left dangling."""

    @staticmethod
    def half_of(store: ExceptionStore) -> ExceptionStore:
        half = ExceptionStore()
        for fid, key, mode in list(store.iter_file_triples())[::2]:
            half.record_file_exception(key, fid, mode)
        for key, cap in list(store.iter_priv_pairs())[::2]:
            half.record_priv_exception(key, cap)
        return half

    @pytest.mark.parametrize("include_entrances", [True, False])
    def test_creates_and_copies_are_never_denied(self, include_entrances):
        for seed in range(40):
            trace = random_trace(seed=seed, events=500, include_entrances=include_entrances)
            _, learned = learn(trace)
            # A dangling reference would raise TraceError in any replay.
            for store in (ExceptionStore(), self.half_of(learned)):
                enforced = replay(trace, EnvironmentBit.UNSECURE, store)
                denied = {type(ev) for ev, d in enforced.log if d.verdict is Verdict.DENY}
                assert not denied & {Create, Copy}, seed
            assert replay(trace, EnvironmentBit.UNSECURE, learned).deny_count == 0, seed

    def test_half_is_the_same_under_any_hash_seed(self):
        # Grant iteration must not follow set hashing, so every process
        # halves a learned store the same way.
        tests = Path(__file__).resolve().parent
        code = (
            "from cumac.randomtrace import random_trace\n"
            "from cumac.replay import learn\n"
            "from test_randomtrace import TestStoreIndependence\n"
            "_, learned = learn(random_trace(seed=5, events=2000))\n"
            "print(TestStoreIndependence.half_of(learned).save(), end='')\n"
        )
        saved = []
        for hash_seed in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
            }
            run = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            saved.append(run.stdout)
        assert "\nF " in saved[0] and "\nP " in saved[0]
        assert saved[0] == saved[1]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = render_trace(random_trace(seed=42, events=500))
        b = render_trace(random_trace(seed=42, events=500))
        assert a == b

    def test_different_seeds_differ(self):
        a = render_trace(random_trace(seed=1, events=500))
        b = render_trace(random_trace(seed=2, events=500))
        assert a != b


class TestEntranceSuppression:
    def test_no_entrance_events_when_suppressed(self):
        trace = random_trace(seed=3, events=2000, include_entrances=False)
        untrusted = {u.name for u in trace.header.users if not u.trusted}
        for ev in trace.events:
            assert not isinstance(ev, (Mount, Unmount))
            if isinstance(ev, RemoteComm):
                assert ev.peer_address.startswith(("127.", "::1"))
            if isinstance(ev, Login):
                assert ev.user not in untrusted

    def test_entrances_present_by_default(self):
        trace = random_trace(seed=3, events=2000)
        kinds = {type(ev) for ev in trace.events}
        assert Mount in kinds
        remote = [
            ev
            for ev in trace.events
            if isinstance(ev, RemoteComm) and not ev.peer_address.startswith(("127.", "::1"))
        ]
        assert remote
