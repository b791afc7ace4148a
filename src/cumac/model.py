"""Core domain types: taint labels, permission bits, process and file
records, the OS-event vocabulary, and access decisions.

No policy logic lives here; the engine, stores and replay drivers build on
these types. Identifiers (pids, inode numbers) come from the trace, never
from this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import PermsFormatError

Key = int
"""Application identity: the inode number of the executable it was started
from. Processes inherit it across fork and adopt the new executable's key
on exec; exception lists are indexed by it."""


class TaintState(Enum):
    """Binary intrusion label for processes and files.

    Within one engine run an entity only ever moves from NON_INTRUSION to
    POTENTIAL_INTRUSION, never back.
    """

    NON_INTRUSION = "NonIntrusion"
    POTENTIAL_INTRUSION = "PotentialIntrusion"

    # Members are compared by identity, so they may hash by it, in C;
    # ``Enum.__hash__`` is a Python-level call on every dict or set lookup.
    # The enums of this package that key lookups do the same.
    __hash__ = object.__hash__


_CAPABILITY_RE = re.compile(r"CAP_[A-Z0-9_]+\Z")


def validate_capability(name: str) -> str:
    """Check a capability name such as CAP_SYS_MODULE and return it.

    Capabilities are an open set compared by exact string equality; the
    only constraint is the CAP_[A-Z0-9_]+ shape.
    """
    if not isinstance(name, str) or not _CAPABILITY_RE.fullmatch(name):
        raise ValueError(f"invalid capability name {name!r} (want CAP_[A-Z0-9_]+)")
    return name


_OCTAL_DIGITS = "01234567"

_ANY_EXEC = 0o111
_OTHER_READ = 0o004
_OTHER_WRITE = 0o002
"""Masks of a mode's exec bits and of its read and write bits for others,
read by ``PermissionBits``' properties and by the predicates on files."""


@dataclass(frozen=True, slots=True)
class PermissionBits:
    """The nine rwx bits of a file as one mode, round-trippable with a
    3-digit octal string ("755" and back)."""

    mode: int = 0

    @classmethod
    def parse(cls, octal: str) -> "PermissionBits":
        if isinstance(octal, str):
            parsed = _PARSED_PERMS.get(octal)
            if parsed is not None:
                return parsed
        if not isinstance(octal, str) or len(octal) != 3:
            raise PermsFormatError(
                f"permission string {octal!r} must be exactly three octal digits"
            )
        for ch in octal:
            if ch not in _OCTAL_DIGITS:
                raise PermsFormatError(f"invalid octal digit {ch!r} in {octal!r}")
        parsed = _PARSED_PERMS[octal] = cls(int(octal, 8))
        return parsed

    def render(self) -> str:
        return f"{self.mode:03o}"

    @property
    def any_exec(self) -> bool:
        return (self.mode & _ANY_EXEC) != 0

    @property
    def other_read(self) -> bool:
        return (self.mode & _OTHER_READ) != 0

    @property
    def other_write(self) -> bool:
        return (self.mode & _OTHER_WRITE) != 0


_PARSED_PERMS: dict[str, PermissionBits] = {}
"""Memo of :meth:`PermissionBits.parse`, holding only strings that passed
validation; the values are immutable and there are at most 512 of them."""


@dataclass(slots=True)
class UserRecord:
    """A configured account; trust is a configuration input, not derived."""

    name: str
    trusted: bool = False


@dataclass(slots=True)
class ProcessRecord:
    """A live process: identity, application key, taint, owner."""

    pid: int
    key: Key
    taint: TaintState = TaintState.NON_INTRUSION
    user: str = "root"


@dataclass(slots=True)
class FileRecord:
    """A filesystem node. Directories can be granted exceptions (creating
    a file writes its parent) but never carry taint."""

    fid: int
    path: str
    perms: PermissionBits
    owner: str = "root"
    taint: TaintState = TaintState.NON_INTRUSION
    is_directory: bool = False
    on_mobile_mount: bool = False


def executable(f: FileRecord) -> bool:
    """An executable file has at least one exec bit set and is not a
    directory. Only executable files ever carry taint."""
    return (f.perms.mode & _ANY_EXEC) != 0 and not f.is_directory


def is_integrity_protected(f: FileRecord) -> bool:
    """A file others may not write requires integrity protection."""
    return not f.perms.mode & _OTHER_WRITE


def is_sensitivity_protected(f: FileRecord) -> bool:
    """A file others may not read requires sensitivity protection."""
    return not f.perms.mode & _OTHER_READ


def _covers(prefix: str, path: str) -> bool:
    """True when ``path`` lies under ``prefix`` (component-wise)."""
    if prefix == "/":
        return True
    return path == prefix or path.startswith(prefix + "/")


def _parent_path(path: str) -> str:
    """The path of the directory that holds ``path``."""
    head = path.rsplit("/", 1)[0]
    return head if head else "/"


def under_live_mount(mounts: dict[int, str], path: str) -> bool:
    """Whether ``path`` lies under one of the live mounts (mount id to
    path prefix)."""
    for prefix in mounts.values():
        if _covers(prefix, path):
            return True
    return False


LOOPBACK_PREFIXES = ("127.", "::1")
"""Peer-address prefixes of the local host: talking to such a peer is no
entrance. Used as ``peer.startswith(LOOPBACK_PREFIXES)``."""


# --- entity identifiers -----------------------------------------------------
#
# Taint sets and reports mix processes and files, so they use namespaced
# string ids ("proc:12", "file:77") rather than bare integers.


proc_entity: Callable[[int], str] = "proc:{}".format
"""A process's entity id, ``proc:<pid>``; a C-level call."""

file_entity: Callable[[int], str] = "file:{}".format
"""A file's entity id, ``file:<fid>``; a C-level call."""


def entity_sort_key(entity: str) -> tuple[str, int]:
    kind, _, num = entity.partition(":")
    return (kind, int(num))


# --- events ------------------------------------------------------------------


class IpcChannel(Enum):
    PIPE = "pipe"
    SIGNAL = "signal"
    SOCKET_LOCAL = "socket_local"
    SHARED_MEMORY = "shm"

    __hash__ = object.__hash__


@dataclass(slots=True)
class Event:
    """Base of the twelve OS-event kinds; ``seq`` increases strictly
    within a trace.

    Events are plain slotted records. In the program only the trace
    parser and the random-trace generator build them, and nothing changes
    one after it is built. They are not frozen: a frozen constructor sets
    each field through ``object.__setattr__`` and costs several times
    more per event. So they compare by value (``eq=True``) but are not
    hashable, and no event is a set member or a dict key."""

    seq: int


@dataclass(slots=True)
class Fork(Event):
    parent_pid: int
    child_pid: int


@dataclass(slots=True)
class Exec(Event):
    pid: int
    fid: int


@dataclass(slots=True)
class RemoteComm(Event):
    pid: int
    peer_address: str


@dataclass(slots=True)
class Login(Event):
    pid: int
    user: str


@dataclass(slots=True)
class Mount(Event):
    mount_id: int
    path_prefix: str


@dataclass(slots=True)
class Unmount(Event):
    mount_id: int


@dataclass(slots=True)
class Copy(Event):
    """``dst_fid`` is the id of the file at ``dst_path`` when one exists,
    else the id this copy creates; the trace parser resolves it."""

    pid: int
    src_fid: int
    dst_path: str
    dst_perms: str
    dst_owner: str
    dst_fid: int


@dataclass(slots=True)
class Create(Event):
    """``new_fid`` is the id the created file gets; the trace parser
    allocates it."""

    pid: int
    path: str
    perms: str
    owner: str
    is_directory: bool
    new_fid: int


@dataclass(slots=True)
class Write(Event):
    pid: int
    fid: int


@dataclass(slots=True)
class Read(Event):
    pid: int
    fid: int


@dataclass(slots=True)
class Ipc(Event):
    from_pid: int
    to_pid: int
    channel: IpcChannel


@dataclass(slots=True)
class PrivOp(Event):
    pid: int
    capability: str


# --- decisions ---------------------------------------------------------------


class Verdict(Enum):
    ALLOW = "Allow"
    DENY = "Deny"
    ALLOW_BY_EXCEPTION = "AllowByException"

    __hash__ = object.__hash__


class DenyReason(Enum):
    NONE = "None"
    PRIVILEGED_OP = "PrivilegedOp"
    INTEGRITY_WRITE = "IntegrityWrite"
    SENSITIVITY_READ = "SensitivityRead"

    __hash__ = object.__hash__


class ExceptionKind(Enum):
    NONE = "None"
    FILE_LIST = "FileList"
    PRIVILEGE_LIST = "PrivilegeList"

    __hash__ = object.__hash__


_ALLOW = Verdict.ALLOW
_DENY = Verdict.DENY
_NO_REASON = DenyReason.NONE
"""Members that ``Decision`` reads on every construction, bound once: a
read of ``Verdict.DENY`` goes through the enum class, a module-level
name does not."""


TaintUpdate = tuple[str, TaintState, TaintState]
"""(entity id, old state, new state), recorded once per actual transition."""


_EXCEPTION_KINDS = {
    DenyReason.PRIVILEGED_OP: ExceptionKind.PRIVILEGE_LIST,
    DenyReason.INTEGRITY_WRITE: ExceptionKind.FILE_LIST,
    DenyReason.SENSITIVITY_READ: ExceptionKind.FILE_LIST,
}
"""Per reason, the exception list that can allow the refused access."""


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of applying one event.

    A decision carries a reason exactly when its verdict is not ALLOW: for
    DENY, why the access is refused; for ALLOW_BY_EXCEPTION, what the
    denial reason would have been. Denied operations propagate nothing, so
    DENY implies an empty ``taint_updates``.
    """

    verdict: Verdict
    reason: DenyReason = DenyReason.NONE
    taint_updates: tuple[TaintUpdate, ...] = ()

    def __post_init__(self) -> None:
        if (self.reason is _NO_REASON) != (self.verdict is _ALLOW):
            raise ValueError("a decision carries a reason exactly when its verdict is not Allow")
        if self.verdict is _DENY and self.taint_updates:
            raise ValueError("a denied operation must not carry taint updates")

    @property
    def exception_kind(self) -> ExceptionKind:
        """The list whose grant allowed the access; NONE unless the verdict
        is ALLOW_BY_EXCEPTION."""
        if self.verdict is Verdict.ALLOW_BY_EXCEPTION:
            return _EXCEPTION_KINDS[self.reason]
        return ExceptionKind.NONE


ALLOW = Decision(Verdict.ALLOW)
"""Shared constant for the common clean-allow outcome."""

DENIED = {r: Decision(Verdict.DENY, r) for r in _EXCEPTION_KINDS}
BY_EXCEPTION = {r: Decision(Verdict.ALLOW_BY_EXCEPTION, r) for r in _EXCEPTION_KINDS}
"""Per reason, the shared decision that refuses an access and the one that
allows it by exception. With ``ALLOW`` they are the seven outcomes a
decision can have, apart from its taint updates."""
