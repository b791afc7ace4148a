"""cumac: an event-driven reference monitor that traces potential
intrusions through OS activity, blocks security-critical operations, and
learns benign exceptions automatically.

The package is a userspace simulator: traces of OS events (fork, exec,
network, mounts, file and privilege operations) replay against a
deterministic state machine. A low-water-mark integrity engine over the
same event vocabulary serves as the compatibility baseline.
"""

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
from .lwm import ComparisonReport, IntegrityLevel, LwmEngine, compare
from .model import (
    Decision,
    DenyReason,
    Event,
    ExceptionKind,
    FileRecord,
    PermissionBits,
    ProcessRecord,
    TaintState,
    UserRecord,
    Verdict,
    executable,
    is_integrity_protected,
    is_sensitivity_protected,
)
from .oracle import export_taint_graph, taint_oracle
from .randomtrace import random_trace
from .replay import ReplayReport, learn, replay
from .store import AccessMode, EnvironmentBit, ExceptionStore
from .trace import Trace, TraceHeader, parse_trace, render_trace

__version__ = "0.1.0"

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
    "UserRecord",
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
