"""The benchmark's traced mode: ``perfbench/tracer.py`` patches cumac by
name, so a renamed or removed name would break ``perfbench/run.py --trace``.
These tests install the tracer on the package, run it and remove it again."""

import gc
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cumac import cli, scenarios
from cumac.engine import Engine
from cumac.lwm import LwmEngine
from cumac.model import Decision, PermissionBits
from cumac.replay import ReplayReport
from cumac.store import ExceptionStore

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = tuple(
    importlib.import_module(name)
    for name in (
        "cumac", "cumac.cli", "cumac.engine", "cumac.lwm", "cumac.model",
        "cumac.oracle", "cumac.replay", "cumac.store", "cumac.trace",
    )
)
CLASSES = (Engine, LwmEngine, Decision, PermissionBits, ReplayReport, ExceptionStore)


def _snapshot() -> dict:
    """Every attribute of the package's modules and of the classes the
    tracer patches, by identity."""
    return {owner: dict(vars(owner)) for owner in MODULES + CLASSES}


def _changed(before: dict) -> set[tuple[str, str]]:
    changed = set()
    for owner, attrs in before.items():
        now = vars(owner)
        for name in attrs.keys() | now.keys():
            if attrs.get(name) is not now.get(name):
                changed.add((owner.__name__, name))
    return changed


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    before = _snapshot()
    callbacks = list(gc.callbacks)
    instance = module.Tracer()
    instance.install()
    try:
        yield instance, before
    finally:
        instance.uninstall()
    assert _changed(before) == set()
    assert gc.callbacks == callbacks


def test_install_patches_and_uninstall_restores(tracer):
    instance, before = tracer
    patched = _changed(before)
    for owner, name in [
        ("cumac.cli", "json"),
        ("cumac.cli", "_write_file"),
        ("cumac.cli", "parse_trace"),
        ("cumac.replay", "replay"),
        ("cumac.lwm", "compare"),
        ("Engine", "__init__"),
        ("Engine", "step"),
        ("Decision", "__post_init__"),
        ("ExceptionStore", "file_entries"),
        ("ExceptionStore", "record_file_exception"),
        ("ExceptionStore", "check_priv_exception"),
    ]:
        assert (owner, name) in patched


def test_traced_runs_count_every_layer(tracer, tmp_path):
    instance, _ = tracer
    store_file = tmp_path / "store"
    args = ["--scenario", "admin-remote-upgrade"]
    assert cli.main(["learn", *args, "--store-out", str(store_file)]) == 0
    assert cli.main(["enforce", *args, "--store", str(store_file)]) == 0
    assert cli.main(["compare", *args, "--format", "structured"]) in (0, 1)
    metrics = instance.metrics()
    events = len(scenarios.load_trace("admin-remote-upgrade").events)
    assert metrics["engine.step_count"] == 3 * events
    assert metrics["lwm.step_count"] == events
    assert metrics["store.record_calls"] > 0
    assert metrics["store.check_calls"] > 0
    assert metrics["engine.allow_by_exception"] > 0
    assert metrics["trace.parse_s"] > 0
