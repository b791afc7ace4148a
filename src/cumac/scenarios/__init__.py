"""Bundled replayable scenarios.

Each scenario is a small trace that demonstrates one engine behavior end
to end; they ship inside the package so the CLI and the acceptance tests
need no external fixtures. See README.md next to the trace files for what
each one shows.
"""

from __future__ import annotations

from .. import trace as _trace

NAMES: tuple[str, ...] = (
    "usb-rootkit",
    "local-ptrace",
    "network-rootkit",
    "benign-webserver",
    "admin-remote-upgrade",
    "self-revocation",
    "script-payload",
    "loopback-relay",
)


def available() -> tuple[str, ...]:
    return NAMES


def load(name: str) -> str:
    """The raw trace text of a bundled scenario. ``importlib.resources``
    is imported here, as a run that reads a trace file never needs it."""
    from importlib import resources

    if name not in NAMES:
        raise KeyError(f"unknown scenario {name!r}; available: {', '.join(NAMES)}")
    return resources.files(__package__).joinpath(f"{name}.trace").read_text("utf-8")


def load_trace(name: str) -> "_trace.Trace":
    """A bundled scenario, parsed."""
    return _trace.parse_trace(load(name))
