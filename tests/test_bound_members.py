"""The audit layers' per-event code reads enum members bound at module
level, never through their enum class: on CPython 3.11 a read such as
``Verdict.DENY`` costs about ten times a module-level name, once per
event or decision."""

import ast
import inspect
import textwrap

import pytest

from cumac import model, oracle

ENUMS = {"Verdict", "IpcChannel", "DenyReason", "ExceptionKind"}


def member_reads(function) -> list[str]:
    """Every ``Enum.MEMBER`` read of one of ``ENUMS`` in ``function``'s
    source, nested functions included."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in ENUMS:
                reads.append(f"{name}.{node.attr} (line {node.lineno})")
    return sorted(reads)


@pytest.mark.parametrize(
    "function",
    [oracle._reached_entities, oracle.export_taint_graph, model.Decision.__post_init__],
    ids=lambda f: f.__qualname__,
)
def test_no_member_is_read_through_its_enum(function):
    assert member_reads(function) == []


def test_the_check_sees_a_member_read():
    def reads(verdict):
        return verdict is model.Verdict.DENY or verdict is Verdict.ALLOW  # noqa: F821

    assert member_reads(reads) == ["Verdict.ALLOW (line 2)", "Verdict.DENY (line 2)"]
