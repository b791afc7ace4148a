"""No run leaves cyclic garbage. With the collector off, whatever a call
drops (engines, their records, the oracle's graph) must be freed by
reference counting, so a collection afterwards finds nothing. This pins
what ``replay.py``, ``trace.collector_paused`` and ``cli.main`` say: a
run makes no reference cycles, so pausing the collector during it skips
only work that would reclaim nothing."""

import gc
import io
from contextlib import redirect_stdout

import pytest

from cumac import cli, scenarios
from cumac.engine import Engine
from cumac.lwm import LwmEngine, compare
from cumac.oracle import export_taint_graph, taint_oracle
from cumac.randomtrace import random_trace
from cumac.replay import _row_renderers, learn, replay
from cumac.store import EnvironmentBit
from cumac.errors import TraceParseError
from cumac.trace import parse_trace, render_trace

RANDOM_SEEDS = (0, 1, 2, 3)
CASES = [*scenarios.available(), *(f"random-{seed}" for seed in RANDOM_SEEDS)]


def load(case: str):
    """The case's trace, parsed from its text."""
    if case.startswith("random-"):
        seed = int(case.removeprefix("random-"))
        return parse_trace(render_trace(random_trace(seed=seed, events=2000)))
    return scenarios.load_trace(case)


def run_everything(case: str) -> None:
    trace = load(case)
    report = replay(trace, EnvironmentBit.UNSECURE)
    _, store = learn(trace)
    replay(trace, EnvironmentBit.UNSECURE, store)
    compare(trace)
    compare(trace, store)
    taint_oracle(trace, [d.verdict for d in report.decisions])
    export_taint_graph(report, trace)


def live_engines() -> list:
    return [o for o in gc.get_objects() if type(o) in (Engine, LwmEngine)]


@pytest.mark.parametrize("collector", [False], indirect=True, ids=["gc-disabled"])
class TestNoCyclicGarbage:
    @pytest.mark.parametrize("case", CASES)
    def test_library_calls_leave_none(self, collector, case):
        gc.collect()
        run_everything(case)
        assert gc.collect() == 0
        assert live_engines() == []

    def test_random_trace_leaves_none(self, collector):
        gc.collect()
        for seed in RANDOM_SEEDS:
            random_trace(seed=seed, events=2000, include_entrances=seed % 2 == 0)
        assert gc.collect() == 0
        assert live_engines() == []

    def test_failed_parse_leaves_none(self, collector):
        lines = render_trace(random_trace(seed=0, events=2000)).split("\n")
        bad = len(lines) // 2
        lines[bad] = "READ pid=1 fid=0"
        text = "\n".join(lines)
        gc.collect()
        with pytest.raises(TraceParseError, match="unknown fid 0") as failure:
            parse_trace(text)
        assert failure.value.line == bad + 1
        del failure
        assert gc.collect() == 0

    def test_building_the_row_renderers_leaves_none(self, collector):
        _row_renderers.cache_clear()
        gc.collect()
        _row_renderers()
        _row_renderers.cache_clear()  # drops the renderers and their globals
        assert gc.collect() == 0

    @pytest.mark.parametrize("case", ["usb-rootkit", "random-0"])
    def test_commands_leave_none(self, collector, case, tmp_path):
        trace, store = tmp_path / "t.trace", tmp_path / "s.cumac"
        trace.write_text(render_trace(load(case)))
        cli._build_parser()  # argparse's formatters make cycles once, when the parser is built
        gc.collect()
        with redirect_stdout(io.StringIO()):
            cli.main(["learn", "--trace", str(trace), "--store-out", str(store)])
            cli.main(["enforce", "--trace", str(trace), "--store", str(store)])
            cli.main(["compare", "--trace", str(trace), "--store", str(store)])
            cli.main(["graph", "--trace", str(trace), "--store", str(store)])
        assert gc.collect() == 0
        assert live_engines() == []
