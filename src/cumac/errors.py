"""Exception hierarchy shared by every cumac module.

Every error the package raises on bad input derives from CumacError so
drivers (the CLI in particular) can turn them into positioned messages
instead of stack traces.
"""

from __future__ import annotations


class CumacError(Exception):
    """Base class for all cumac errors."""


class PermsFormatError(CumacError, ValueError):
    """A permission string is not three octal digits."""


class ConfigError(CumacError):
    """An engine configuration is internally inconsistent."""


class TraceParseError(CumacError):
    """A trace file failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class TraceError(CumacError):
    """An event could not be applied to the engine state (a defect in the
    trace, not a policy decision); carries the event sequence number."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"event {seq}: {message}")
        self.seq = seq
        self.reason = message


class StoreFormatError(CumacError):
    """An exception-store document failed to parse."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class StoreVersionError(StoreFormatError):
    """An exception-store document declares an unknown format version."""
