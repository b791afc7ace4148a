"""The taint oracle stays an independent reference: it reads the trace as
the engine's handlers do, so it must share no code with them. From
``engine`` it imports ``EngineConfig`` alone, and it imports ``replay``,
``lwm`` and ``randomtrace`` only for type checking."""

import ast
from pathlib import Path

import pytest

from cumac import oracle

ENGINE_NAMES = {"EngineConfig"}
TYPING_ONLY = {"replay", "lwm", "randomtrace"}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(node: ast.AST):
    """(module, name) for each ``cumac`` import ``node`` makes: the
    submodule imported from, and the name taken from it or None for the
    module itself."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            package, _, module = alias.name.partition(".")
            if package == "cumac" and module:
                yield module.partition(".")[0], None
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:
            package, _, module = module.partition(".")
            if package != "cumac":
                return
        elif node.level > 1:
            return
        for alias in node.names:
            if module:
                yield module.partition(".")[0], alias.name
            else:
                yield alias.name, None


def shared_code(source: str) -> list[str]:
    """Every import in ``source`` that breaks the oracle's independence."""
    tree = ast.parse(source)
    typing_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and _is_type_checking(block.test)
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    faults = []
    for node in ast.walk(tree):
        for module, name in _imports(node):
            if module == "engine" and name not in ENGINE_NAMES:
                faults.append(f"line {node.lineno}: engine.{name or '*module*'}")
            elif module in TYPING_ONLY and id(node) not in typing_only:
                faults.append(f"line {node.lineno}: {module} outside TYPE_CHECKING")
    return faults


def test_the_oracle_shares_no_code_with_the_engines():
    assert shared_code(Path(oracle.__file__).read_text("utf-8")) == []


@pytest.mark.parametrize(
    "source, fault",
    [
        ("from .engine import EngineConfig, _tainting\n", "line 1: engine._tainting"),
        ("from . import engine\n", "line 1: engine.*module*"),
        ("import cumac.engine\n", "line 1: engine.*module*"),
        ("from cumac.engine import Engine\n", "line 1: engine.Engine"),
        ("from .replay import replay\n", "line 1: replay outside TYPE_CHECKING"),
        ("if x:\n    from .lwm import compare\n", "line 2: lwm outside TYPE_CHECKING"),
        ("def f():\n    from . import randomtrace\n", "line 2: randomtrace outside TYPE_CHECKING"),
    ],
)
def test_the_check_sees_shared_code(source, fault):
    assert shared_code(source) == [fault]


def test_the_check_allows_typing_only_imports():
    source = "if TYPE_CHECKING:\n    from .replay import ReplayReport\n    from .lwm import compare\n"
    assert shared_code(source) == []
