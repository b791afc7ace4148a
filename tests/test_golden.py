"""Golden outputs: fixed SHA-256 digests of what replays, comparisons, the
oracle and the graph export produce on a fixed set of traces.

A change that is meant to leave every output as it was must leave every
digest in ``golden_digests.json`` as it is. A change that alters an
output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and says in its description which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from cumac import scenarios
from cumac.lwm import compare
from cumac.model import entity_sort_key
from cumac.oracle import export_taint_graph, taint_oracle
from cumac.randomtrace import random_trace
from cumac.replay import learn, replay
from cumac.store import EnvironmentBit, ExceptionStore
from cumac.trace import Trace, parse_trace

DIGESTS_FILE = Path(__file__).with_name("golden_digests.json")

# Enforcing over an empty store, the tainted pid 1 is refused the create of
# /etc/evil (fid 10) and the copy to the fresh /etc/sh2 (fid 11); both ids
# are used up, so the files created after them get 12, 13, ... in every
# environment, and nothing refers to 10 or 11 later. The trace also copies
# off and creates under a live mount, copies a directory, copies onto an
# existing protected file and is refused writes to files it created.
DENIED_CREATES_TRACE = """\
cumac-trace v1
LABEL attack
USER root trusted=1
USER mallory trusted=0
FILE fid=1 path=/ perms=755 owner=root dir=1
FILE fid=2 path=/bin perms=755 owner=root dir=1
FILE fid=3 path=/bin/sh perms=755 owner=root dir=0
FILE fid=4 path=/etc perms=755 owner=root dir=1
FILE fid=5 path=/tmp perms=777 owner=root dir=1
FILE fid=6 path=/etc/passwd perms=644 owner=root dir=0
FILE fid=7 path=/mnt perms=755 owner=root dir=1
FILE fid=8 path=/mnt/usb perms=777 owner=root dir=1
FILE fid=9 path=/mnt/usb/tool perms=755 owner=root dir=0
PROC pid=1 key=3 user=root
PROC pid=2 key=3 user=root
FORK parent=1 child=3
NET pid=1 peer=203.0.113.9
CREATE pid=1 path=/etc/evil perms=755 owner=root dir=0
COPY pid=1 src=3 dst=/etc/sh2 perms=755 owner=root
CREATE pid=1 path=/tmp/drop perms=755 owner=root dir=0
MOUNT id=1 prefix=/mnt/usb
COPY pid=2 src=9 dst=/tmp/tool perms=755 owner=root
CREATE pid=2 path=/mnt/usb/new perms=755 owner=root dir=0
UNMOUNT id=1
WRITE pid=1 fid=12
EXEC pid=3 fid=13
IPC from=3 to=2 chan=shm
WRITE pid=2 fid=6
COPY pid=1 src=12 dst=/etc/passwd perms=644 owner=root
CREATE pid=2 path=/tmp/later perms=755 owner=root dir=1
COPY pid=2 src=15 dst=/tmp/later2 perms=777 owner=root
CREATE pid=2 path=/tmp/later2/x perms=700 owner=root dir=0
EXEC pid=2 fid=14
WRITE pid=3 fid=17
READ pid=2 fid=6
PRIV pid=1 cap=CAP_SYS_MODULE
LOGIN pid=2 user=mallory
EXEC pid=1 fid=12
"""

RANDOM_SEEDS = range(20)
RANDOM_EVENTS = 1000


TRACE_NAMES = (
    *(f"scenario:{name}" for name in scenarios.available()),
    "denied-creates",
    *(f"random:{seed}" for seed in RANDOM_SEEDS),
)


def golden_trace(name: str) -> Trace:
    kind, _, arg = name.partition(":")
    if kind == "scenario":
        return scenarios.load_trace(arg)
    if kind == "random":
        return random_trace(seed=int(arg), events=RANDOM_EVENTS)
    return parse_trace(DENIED_CREATES_TRACE)


def _untimed(report_json: str) -> str:
    """A structured report up to its ``timing`` section, its last key."""
    return report_json[: report_json.index('\n  "timing": {')]


def output_digests(trace: Trace) -> dict[str, str]:
    """The SHA-256 digest of each byte-stable output for one trace."""
    learn_report, learned = learn(trace)
    saved = learned.save()
    runs = {
        "learn": learn_report,
        "enforce-empty": replay(trace, EnvironmentBit.UNSECURE, ExceptionStore()),
        "enforce-learned": replay(trace, EnvironmentBit.UNSECURE, ExceptionStore.load(saved)),
    }
    outputs = {"store": saved}
    for name, report in runs.items():
        verdicts = [decision.verdict for _, decision in report.log]
        oracle = sorted(taint_oracle(trace, verdicts), key=entity_sort_key)
        outputs[f"{name}.json"] = _untimed(report.to_json())
        outputs[f"{name}.dot"] = export_taint_graph(report, trace)
        outputs[f"{name}.oracle"] = "\n".join(oracle)
    for name, store in (("empty", ExceptionStore()), ("learned", ExceptionStore.load(saved))):
        structured = compare(trace, store).to_structured()
        outputs[f"compare-{name}"] = json.dumps(structured, sort_keys=True)
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in sorted(outputs.items())
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_FILE.read_text("utf-8"))


def test_the_golden_set_is_complete(golden):
    assert sorted(golden) == sorted(TRACE_NAMES)


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_outputs_match_the_golden_digests(golden, name):
    digests = output_digests(golden_trace(name))
    want = golden[name]
    changed = sorted(key for key in digests.keys() | want.keys() if digests.get(key) != want.get(key))
    assert not changed, f"{name}: outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    print(json.dumps(
        {name: output_digests(golden_trace(name)) for name in TRACE_NAMES},
        indent=1, sort_keys=True,
    ))
