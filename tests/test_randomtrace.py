"""Generated traces must be valid, reproducible, and honor suppression."""

from cumac.model import Login, Mount, RemoteComm, Unmount
from cumac.randomtrace import random_trace
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
