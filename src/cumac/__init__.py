"""cumac: an event-driven reference monitor that traces potential
intrusions through OS activity, blocks security-critical operations, and
learns benign exceptions automatically.

The package is a userspace simulator: traces of OS events (fork, exec,
network, mounts, file and privilege operations) replay against a
deterministic state machine. A low-water-mark integrity engine over the
same event vocabulary serves as the compatibility baseline.

The names that live in ``lwm``, ``oracle`` and ``randomtrace`` are read
through the module's ``__getattr__`` (PEP 562), which imports their module
on first use, so that ``import cumac`` and the CLI's ``learn`` and
``enforce`` load none of the three. Nothing is stored in the package: each
read returns what the module defines at that moment.
"""

from importlib import import_module
from typing import Any

from .engine import Engine, EngineConfig
from .errors import (
    ConfigError,
    CumacError,
    PermsFormatError,
    StoreFormatError,
    StoreVersionError,
    TraceError,
    TraceParseError,
)
from .model import (
    Decision,
    DenyReason,
    Event,
    ExceptionKind,
    FileRecord,
    PermissionBits,
    ProcessRecord,
    TaintState,
    Verdict,
    executable,
    is_integrity_protected,
    is_sensitivity_protected,
)
from .replay import ReplayReport, learn, replay
from .store import AccessMode, EnvironmentBit, ExceptionStore
from .trace import Trace, TraceHeader, parse_trace, render_trace

__version__ = "0.1.0"

_LAZY = {
    "ComparisonReport": "lwm",
    "IntegrityLevel": "lwm",
    "LwmEngine": "lwm",
    "compare": "lwm",
    "export_taint_graph": "oracle",
    "taint_oracle": "oracle",
    "random_trace": "randomtrace",
}
"""Per name read through ``__getattr__``, the module that defines it."""


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)

__all__ = [
    "AccessMode",
    "ComparisonReport",
    "ConfigError",
    "CumacError",
    "Decision",
    "DenyReason",
    "Engine",
    "EngineConfig",
    "EnvironmentBit",
    "Event",
    "ExceptionKind",
    "ExceptionStore",
    "FileRecord",
    "IntegrityLevel",
    "LwmEngine",
    "PermissionBits",
    "PermsFormatError",
    "ProcessRecord",
    "ReplayReport",
    "StoreFormatError",
    "StoreVersionError",
    "TaintState",
    "Trace",
    "TraceError",
    "TraceHeader",
    "TraceParseError",
    "Verdict",
    "compare",
    "executable",
    "export_taint_graph",
    "is_integrity_protected",
    "is_sensitivity_protected",
    "learn",
    "parse_trace",
    "random_trace",
    "render_trace",
    "replay",
    "taint_oracle",
]
