"""The README's library example runs as written, on every bundled scenario."""

import re
from pathlib import Path

import pytest

from cumac import scenarios
from cumac.trace import render_trace

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.S | re.M)


def test_the_readme_has_one_python_block():
    assert len(python_blocks()) == 1


@pytest.mark.parametrize("name", scenarios.available())
def test_the_library_example_runs(name, tmp_path, monkeypatch):
    (block,) = python_blocks()
    (tmp_path / "workload.trace").write_text(render_trace(scenarios.load_trace(name)), "utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    report = namespace["report"]
    assert (tmp_path / "report.json").read_text("utf-8") == report.to_json()
    assert namespace["result"].event_count == report.event_count
