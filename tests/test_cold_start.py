"""A CLI start loads only what ``learn`` and ``enforce`` run. The names
that live in ``lwm``, ``oracle`` and ``randomtrace`` are read through the
package's ``__getattr__``, which imports their module on first use and
stores nothing in the package. The renderers of structured report rows
are compiled by the first run that writes one."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cumac

DEFERRED_MODULES = ("cumac.lwm", "cumac.oracle", "cumac.randomtrace", "statistics")
DEFERRED_NAMES = {
    "ComparisonReport": "lwm",
    "IntegrityLevel": "lwm",
    "LwmEngine": "lwm",
    "compare": "lwm",
    "export_taint_graph": "oracle",
    "taint_oracle": "oracle",
    "random_trace": "randomtrace",
}


def test_the_cli_import_loads_no_deferred_module():
    # -S: no site hook loads a module before cumac does.
    code = f"import sys, cumac.cli; print([m for m in {DEFERRED_MODULES!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_only_a_structured_report_builds_the_row_renderers(tmp_path):
    store, report = str(tmp_path / "s.cumac"), str(tmp_path / "r.json")
    trace = ["--scenario", "benign-webserver"]
    commands = [
        ["learn", *trace, "--store-out", store],
        ["enforce", *trace, "--store", store],
        ["enforce", *trace, "--store", store, "--format", "structured", "--report", report],
    ]
    code = f"""
import contextlib, io, sys, cumac.cli
built = sys.modules["cumac.replay"]._row_renderers.cache_info
sizes = [built().currsize]
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cumac.cli.main(argv) == 0
    sizes.append(built().currsize)
print(sizes)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 0, 1]\n"


@pytest.mark.parametrize("name, module", DEFERRED_NAMES.items())
def test_a_deferred_name_is_what_its_module_defines(name, module):
    defining = importlib.import_module(f"cumac.{module}")
    assert getattr(cumac, name) is getattr(defining, name)
    assert name not in vars(cumac)


def test_a_patch_on_the_defining_module_shows_through_the_package(monkeypatch):
    from cumac import lwm

    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(lwm, "compare", patched)
    assert cumac.compare is patched


def test_a_star_import_binds_every_name_in_all():
    assert set(DEFERRED_NAMES) <= set(cumac.__all__)
    namespace: dict = {}
    exec("from cumac import *", namespace)
    for name in cumac.__all__:
        assert namespace[name] is getattr(cumac, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'cumac' has no attribute 'no_such_name'"):
        cumac.no_such_name  # noqa: B018
    assert not hasattr(cumac, "no_such_name")
