"""Acceptance suite: the ten exit criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Tolerances and sizes are pinned here, not configurable.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager

from cumac import scenarios
from cumac.engine import EngineConfig
from cumac.errors import TraceParseError
from cumac.model import (
    DenyReason,
    Exec,
    Login,
    Mount,
    PrivOp,
    Read,
    RemoteComm,
    Verdict,
    entity_sort_key,
)
from cumac.oracle import taint_oracle
from cumac.randomtrace import random_trace
from cumac.replay import learn, replay
from cumac.store import AccessMode, EnvironmentBit, ExceptionStore
from cumac.trace import Trace, parse_trace


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    print(f"criterion {number:2d} [{name}]: PASS")


def test_criterion_1_usb_rootkit_single_denial():
    with criterion(1, "usb-rootkit kernel-module refusal"):
        started = time.perf_counter()
        trace = scenarios.load_trace("usb-rootkit")
        report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
        elapsed = time.perf_counter() - started

        denials = report.denials()
        assert len(denials) == 1
        denied_event, decision = denials[0]
        assert isinstance(denied_event, PrivOp)
        assert denied_event.capability == "CAP_SYS_MODULE"
        assert decision.reason is DenyReason.PRIVILEGED_OP
        # every earlier event was allowed
        for ev, d in report.log:
            if ev.seq < denied_event.seq:
                assert d.verdict is Verdict.ALLOW
        # the denied process is the one exec'd from the mounted USB executable
        execs = [ev for ev, _ in report.log if isinstance(ev, Exec) and ev.pid == denied_event.pid]
        assert execs, "the denied process never exec'd anything"
        usb_exec = execs[-1]
        mounted = [ev.path_prefix for ev, _ in report.log if isinstance(ev, Mount)]
        exec_path = {f.fid: f.path for f in trace.header.files}[usb_exec.fid]
        assert any(exec_path.startswith(prefix + "/") for prefix in mounted)
        assert elapsed < 1.0, f"replay took {elapsed:.3f}s"


def test_criterion_2_local_ptrace_session():
    with criterion(2, "untrusted local session ptrace refusal"):
        trace = scenarios.load_trace("local-ptrace")
        report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
        session_pid = next(ev.pid for ev, _ in report.log if isinstance(ev, Login))
        for ev, decision in report.log:
            if isinstance(ev, PrivOp) and ev.pid == session_pid:
                assert ev.capability == "CAP_SYS_PTRACE"
                assert decision.verdict is Verdict.DENY
            elif isinstance(ev, Read) and ev.pid == session_pid:
                assert decision.verdict is Verdict.ALLOW
        assert report.deny_count == 1


def test_criterion_3_network_rootkit_chain():
    with criterion(3, "network download chain traced and blocked"):
        trace = scenarios.load_trace("network-rootkit")
        report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
        by_seq = {ev.seq: (ev, d) for ev, d in report.log}

        net_ev, net_decision = next(
            (ev, d) for ev, d in report.log if isinstance(ev, RemoteComm)
        )
        browser = net_ev.pid
        assert (f"proc:{browser}", *_pi()) in _updates(net_decision)

        # the downloaded executable is tainted once written
        download_fid = 8
        write_seq = next(
            ev.seq for ev, _ in report.log if getattr(ev, "fid", None) == download_fid
        )
        tainted_by_write = {
            entity
            for ev, d in report.log
            if ev.seq <= write_seq
            for entity, _, _ in d.taint_updates
        }
        assert f"file:{download_fid}" in tainted_by_write

        exec_ev, exec_decision = next(
            (ev, d)
            for ev, d in report.log
            if isinstance(ev, Exec) and ev.fid == download_fid
        )
        assert (f"proc:{exec_ev.pid}", *_pi()) in _updates(exec_decision)

        priv_ev, priv_decision = next((ev, d) for ev, d in report.log if isinstance(ev, PrivOp))
        assert priv_ev.capability == "CAP_SYS_MODULE"
        assert priv_decision.verdict is Verdict.DENY
        assert by_seq[priv_ev.seq][1].reason is DenyReason.PRIVILEGED_OP


def _pi():
    from cumac.model import TaintState

    return (TaintState.NON_INTRUSION, TaintState.POTENTIAL_INTRUSION)


def _updates(decision):
    return set(decision.taint_updates)


def test_criterion_4_self_revocation_comparison():
    with criterion(4, "self-revocation: baseline denies, tracing engine allows"):
        from cumac.lwm import compare

        trace = scenarios.load_trace("self-revocation")
        report = compare(trace)
        final_write_seq = trace.events[-1].seq
        assert report.lwm_only == [final_write_seq]
        assert report.both == []
        assert report.cumac_only == []


def _permuted(trace: Trace, positions: list[int], order: list[int]) -> Trace:
    events = list(trace.events)
    chosen = [events[i] for i in positions]
    for slot, which in zip(positions, order):
        events[slot] = chosen[which]
    events = [dataclasses.replace(ev, seq=i + 1) for i, ev in enumerate(events)]
    return Trace(trace.header, events)


def test_criterion_5_exception_workflow():
    with criterion(5, "learn once, enforce clean; learning is order-independent"):
        # fixture part
        trace = scenarios.load_trace("admin-remote-upgrade")
        config = EngineConfig.from_trace(trace)
        empty_report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
        assert empty_report.deny_count >= 1
        learn_report, store = learn(trace, config=config)
        assert learn_report.deny_count == 0
        enforced = replay(trace, EnvironmentBit.UNSECURE, store, config)
        assert enforced.deny_count == 0

        # order independence, end to end: permute the denial-candidate events
        candidate_positions = [
            ev.seq - 1 for ev, d in empty_report.log if d.verdict is Verdict.DENY
        ]
        baseline = store.save()
        for order in ([2, 1, 0], [1, 2, 0], [2, 0, 1]):
            permuted = _permuted(trace, candidate_positions, order)
            _, permuted_store = learn(permuted, config=config)
            assert permuted_store.save() == baseline

        # randomized part: 50 traces
        with_candidates = 0
        rng = random.Random(505)
        for index in range(50):
            seed = 5000 + index
            rtrace = random_trace(seed=seed, events=400)
            rconfig = EngineConfig.from_trace(rtrace)
            rempty = replay(rtrace, EnvironmentBit.UNSECURE, ExceptionStore(), rconfig)
            rlearn, rstore = learn(rtrace, config=rconfig)
            assert rlearn.deny_count == 0, f"seed {seed}"
            renforced = replay(rtrace, EnvironmentBit.UNSECURE, rstore, rconfig)
            assert renforced.deny_count == 0, f"seed {seed}"
            # a tainted critical operation exists iff learning recorded something;
            # the empty-store run must then deny at least once
            if rlearn.learned_exceptions > 0:
                with_candidates += 1
                assert rempty.deny_count >= 1, f"seed {seed}"
            # store-level order independence: shuffled re-application is canonical
            files = list(rstore.iter_file_triples())
            privs = list(rstore.iter_priv_pairs())
            ops = [("f", t) for t in files] + [("p", t) for t in privs]
            rng.shuffle(ops)
            rebuilt = ExceptionStore()
            for kind, item in ops:
                if kind == "f":
                    rebuilt.record_file_exception(item[1], item[0], item[2])
                else:
                    rebuilt.record_priv_exception(item[0], item[1])
            assert rebuilt.save() == rstore.save(), f"seed {seed}"
        assert with_candidates >= 25, f"only {with_candidates}/50 traces exercised learning"


def test_criterion_6_oracle_equivalence_hundred_runs():
    with criterion(6, "oracle equivalence over 100 x 1000 events"):
        started = time.perf_counter()
        for index in range(100):
            seed = 6000 + index
            trace = random_trace(seed=seed, events=1000)
            config = EngineConfig.from_trace(trace)
            report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore(), config)
            verdicts = [d.verdict for _, d in report.log]
            oracle = sorted(taint_oracle(trace, verdicts, config), key=entity_sort_key)
            assert oracle == report.final_taint, f"seed {seed}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_clean_traces_stay_clean():
    with criterion(7, "no entrances: zero taints, zero denials"):
        for index in range(100):
            seed = 7000 + index
            trace = random_trace(seed=seed, events=1000, include_entrances=False)
            report = replay(trace, EnvironmentBit.UNSECURE, ExceptionStore())
            assert report.deny_count == 0, f"seed {seed}"
            assert report.final_taint == [], f"seed {seed}"


def test_criterion_8_store_round_trip_hundred():
    with criterion(8, "store round-trip and canonical save"):
        caps = ("CAP_KILL", "CAP_CHOWN", "CAP_SYS_MODULE", "CAP_NET_RAW", "CAP_SYS_PTRACE")
        for index in range(100):
            rng = random.Random(8000 + index)
            store = ExceptionStore()
            recorded_files = set()
            recorded_privs = set()
            for _ in range(rng.randrange(0, 80)):
                key, fid = rng.randrange(0, 300), rng.randrange(0, 300)
                mode = rng.choice((AccessMode.READ, AccessMode.WRITE))
                store.record_file_exception(key, fid, mode)
                recorded_files.add((key, fid, mode))
            for _ in range(rng.randrange(0, 40)):
                key, cap = rng.randrange(0, 300), rng.choice(caps)
                store.record_priv_exception(key, cap)
                recorded_privs.add((key, cap))
            text = store.save()
            loaded = ExceptionStore.load(text)
            for key, fid, mode in recorded_files:
                assert loaded.check_file_exception(key, fid, mode)
            for key, cap in recorded_privs:
                assert loaded.check_priv_exception(key, cap)
            # spot-check negatives stay negative
            for _ in range(40):
                key, fid = rng.randrange(300, 600), rng.randrange(0, 600)
                mode = rng.choice((AccessMode.READ, AccessMode.WRITE))
                assert store.check_file_exception(key, fid, mode) == loaded.check_file_exception(
                    key, fid, mode
                )
            assert loaded.save() == text  # save . load . save is byte-identical


def test_criterion_9_decision_cost_stays_flat():
    with criterion(9, "per-event cost flat from 10^4 to 10^6 events; >=100k events/s"):
        small = random_trace(seed=909, events=10_000)
        big = random_trace(seed=909, events=1_000_000)
        small_report = replay(small, EnvironmentBit.UNSECURE, ExceptionStore())
        big_report = replay(big, EnvironmentBit.UNSECURE, ExceptionStore())
        small_timing, big_timing = small_report.timing, big_report.timing
        ratio = big_timing.median_us / small_timing.median_us
        # Every figure in both messages, so a failure shows which bound broke
        # and whether one long pause (max_us) dragged the throughput down.
        figures = (
            f"median {small_timing.median_us:.3f}us at 10^4 events,"
            f" {big_timing.median_us:.3f}us at 10^6 (ratio {ratio:.2f});"
            f" {big_timing.events_per_second:.0f} events/s at 10^6,"
            f" max_us={big_timing.max_us:.0f}"
        )
        assert ratio <= 3.0, f"median grew more than 3x: {figures}"
        assert big_timing.events_per_second >= 100_000, (
            f"throughput below 100000 events/s: {figures}"
        )


def test_criterion_10_parser_totality_under_fuzzing():
    with criterion(10, "parser total over 100k mutated inputs"):
        rng = random.Random(1010)
        corpus = [scenarios.load(name).encode() for name in scenarios.available()]
        alphabet = bytes(
            ord(c)
            for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789=/_.-# \n"
        ) + b"\x00\xff\xc3"
        parsed = 0
        rejected = 0
        for index in range(100_000):
            data = bytearray(corpus[index % len(corpus)])
            for _ in range(rng.randint(1, 10)):
                if not data:
                    break
                op = rng.randrange(5)
                pos = rng.randrange(len(data))
                if op == 0:
                    data[pos] = alphabet[rng.randrange(len(alphabet))]
                elif op == 1:
                    del data[pos]
                elif op == 2:
                    data.insert(pos, alphabet[rng.randrange(len(alphabet))])
                elif op == 3:
                    del data[pos : pos + rng.randint(1, 60)]
                else:
                    chunk = bytes(
                        alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randint(1, 20))
                    )
                    data[pos:pos] = chunk
            try:
                trace = parse_trace(bytes(data))
                assert isinstance(trace, Trace)
                parsed += 1
            except TraceParseError as exc:
                assert exc.line >= 0
                rejected += 1
        assert parsed + rejected == 100_000
