"""Exceptional-access lists and the system-wide environment bit.

Each application (identified by its key, the inode of its executable) can
hold per-file access-mode grants and a set of privilege grants. While the
environment bit says Secure, the engine records every access it would
otherwise refuse; while it says Unsecure, those records authorize the same
accesses and nothing new may be recorded. A file has an exception list
only once it holds a grant; the engine looks grants up by file id and
keeps no list of its own.

On-disk format (UTF-8 text, ``#`` starts a comment line):

    cumac-exceptions v1
    # key 4 /usr/sbin/httpd
    F 9 4 w
    P 4 CAP_NET_BIND_SERVICE

``F <fid> <key> <modes>`` grants an application the listed modes (``r``,
``w`` or ``rw``) on one file; ``P <key> <CAP_NAME>`` grants one
capability. Saved documents are canonical: file entries sorted by
(fid, key), privilege entries by (key, capability name). ``# key <key>
<path>`` comments are advisory annotations for human review and survive a
round trip; only the numbers are semantic. Numbers are ASCII decimal
digits: an entry with any other digit is a format error, and a comment
with one is ignored.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import StoreFormatError, StoreModeError, StoreVersionError
from .model import Key, validate_capability

FORMAT_HEADER = "cumac-exceptions v1"


class EnvironmentBit(Enum):
    """One bit for the entire system: Secure records, Unsecure enforces.
    It is set by the operator before a run and stays fixed during it."""

    SECURE = "Secure"
    UNSECURE = "Unsecure"


class AccessMode(Enum):
    READ = "r"
    WRITE = "w"


@dataclass(slots=True)
class AccessModeVector:
    """Permitted access modes for one (file, key) pair; a stored vector
    always has at least one bit set."""

    read: bool = False
    write: bool = False

    def has(self, mode: AccessMode) -> bool:
        return self.read if mode is AccessMode.READ else self.write

    def set(self, mode: AccessMode) -> bool:
        """Set one mode bit; returns True if it was newly set."""
        if mode is AccessMode.READ:
            was = self.read
            self.read = True
        else:
            was = self.write
            self.write = True
        return not was

    def render(self) -> str:
        return ("r" if self.read else "") + ("w" if self.write else "")


@dataclass(slots=True)
class FileExceptionEntry:
    """One item of a file's exceptional-access list: which application may
    access the file, and how."""

    key: Key
    modes: AccessModeVector


class ExceptionStore:
    """Central store for both exceptional-access lists.

    Lists are keyed by file id and application key here rather than being
    scattered through file records. A file has a list only once it holds
    a grant, so a lookup for any other file misses at once.
    """

    def __init__(self, bit: EnvironmentBit = EnvironmentBit.UNSECURE):
        self.bit = bit
        self._file_lists: dict[int, list[FileExceptionEntry]] = {}
        self._priv_lists: dict[Key, set[str]] = {}
        self.key_paths: dict[Key, str] = {}

    # -- views ----------------------------------------------------------------

    def file_entries(self, fid: int) -> list[FileExceptionEntry]:
        """The exception list of a file, mutated in place; made, empty, on
        the first call for that file, which only recording and loading do."""
        return self._file_lists.setdefault(fid, [])

    def iter_file_triples(self) -> Iterator[tuple[int, Key, AccessMode]]:
        for fid, entries in self._file_lists.items():
            for entry in entries:
                if entry.modes.read:
                    yield (fid, entry.key, AccessMode.READ)
                if entry.modes.write:
                    yield (fid, entry.key, AccessMode.WRITE)

    def iter_priv_pairs(self) -> Iterator[tuple[Key, str]]:
        for key, caps in self._priv_lists.items():
            for cap in caps:
                yield (key, cap)

    def triple_count(self) -> int:
        """Number of distinct recorded grants (file mode bits plus
        capabilities); learning counters are derived from its delta."""
        n = sum(1 for _ in self.iter_file_triples())
        return n + sum(len(caps) for caps in self._priv_lists.values())

    # -- recording (Secure only) ------------------------------------------------

    def _require_secure(self) -> None:
        if self.bit is not EnvironmentBit.SECURE:
            raise StoreModeError(
                "exceptional accesses may only be recorded in the Secure environment"
            )

    def record_file_exception(self, key: Key, fid: int, mode: AccessMode) -> bool:
        """Record a (key, fid, mode) grant; idempotent. Returns True when
        the mode bit was newly set."""
        self._require_secure()
        entries = self.file_entries(fid)
        for entry in entries:
            if entry.key == key:
                return entry.modes.set(mode)
        vec = AccessModeVector()
        vec.set(mode)
        entries.append(FileExceptionEntry(key, vec))
        return True

    def record_priv_exception(self, key: Key, capability: str) -> bool:
        """Record a capability grant for an application; idempotent."""
        self._require_secure()
        validate_capability(capability)
        caps = self._priv_lists.setdefault(key, set())
        if capability in caps:
            return False
        caps.add(capability)
        return True

    # -- lookup (any mode) --------------------------------------------------------

    def check_file_exception(self, key: Key, fid: int, mode: AccessMode) -> bool:
        entries = self._file_lists.get(fid)
        if not entries:
            return False
        for entry in entries:
            if entry.key == key:
                return entry.modes.has(mode)
        return False

    def check_priv_exception(self, key: Key, capability: str) -> bool:
        caps = self._priv_lists.get(key)
        return bool(caps) and capability in caps

    # -- persistence ---------------------------------------------------------------

    def save(self) -> str:
        """Render the canonical text form; byte-stable for equal contents."""
        lines = [FORMAT_HEADER]
        for key in sorted(self.key_paths):
            lines.append(f"# key {key} {self.key_paths[key]}")
        file_rows = []
        for fid, entries in self._file_lists.items():
            for entry in entries:
                modes = entry.modes.render()
                if modes:
                    file_rows.append((fid, entry.key, modes))
        for fid, key, modes in sorted(file_rows):
            lines.append(f"F {fid} {key} {modes}")
        priv_rows = []
        for key, caps in self._priv_lists.items():
            priv_rows.extend((key, cap) for cap in caps)
        for key, cap in sorted(priv_rows):
            lines.append(f"P {key} {cap}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(
        cls, text: str | bytes, bit: EnvironmentBit = EnvironmentBit.UNSECURE
    ) -> "ExceptionStore":
        """Parse a saved document; duplicate entries merge (set semantics)."""
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StoreFormatError(0, f"document is not valid UTF-8: {exc}") from None
        store = cls(bit)
        saw_header = False
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                store._load_comment(line)
                continue
            if not saw_header:
                if line != FORMAT_HEADER:
                    raise StoreVersionError(
                        line_no, f"unknown format header {line!r} (want {FORMAT_HEADER!r})"
                    )
                saw_header = True
                continue
            store._load_entry(line_no, line)
        if not saw_header:
            raise StoreVersionError(0, f"missing format header {FORMAT_HEADER!r}")
        return store

    def _load_comment(self, line: str) -> None:
        parts = line[1:].split(None, 2)
        if len(parts) == 3 and parts[0] == "key" and _is_uint(parts[1]):
            self.key_paths[int(parts[1])] = parts[2]

    def _load_entry(self, line_no: int, line: str) -> None:
        parts = line.split()
        kind = parts[0]
        if kind == "F":
            if len(parts) != 4:
                raise StoreFormatError(line_no, f"file entry needs 4 fields, got {len(parts)}")
            fid = _load_int(line_no, "fid", parts[1])
            key = _load_int(line_no, "key", parts[2])
            if parts[3] not in ("r", "w", "rw"):
                raise StoreFormatError(line_no, f"invalid mode vector {parts[3]!r}")
            entries = self.file_entries(fid)
            for entry in entries:
                if entry.key == key:
                    vec = entry.modes
                    break
            else:
                vec = AccessModeVector()
                entries.append(FileExceptionEntry(key, vec))
            vec.read = vec.read or "r" in parts[3]
            vec.write = vec.write or "w" in parts[3]
        elif kind == "P":
            if len(parts) != 3:
                raise StoreFormatError(
                    line_no, f"privilege entry needs 3 fields, got {len(parts)}"
                )
            key = _load_int(line_no, "key", parts[1])
            try:
                validate_capability(parts[2])
            except ValueError as exc:
                raise StoreFormatError(line_no, str(exc)) from None
            self._priv_lists.setdefault(key, set()).add(parts[2])
        else:
            raise StoreFormatError(line_no, f"unknown entry kind {kind!r}")

    def checksum(self) -> str:
        """Digest of the canonical form; used to prove enforcement runs
        leave the store untouched."""
        return hashlib.sha256(self.save().encode("utf-8")).hexdigest()


def _is_uint(token: str) -> bool:
    # ASCII digits only: int() also reads other scripts' digits, and
    # str.isdigit() also passes superscripts that int() refuses.
    return token.isascii() and token.isdecimal()


def _load_int(line_no: int, label: str, token: str) -> int:
    if not _is_uint(token):
        raise StoreFormatError(line_no, f"{label} must be an unsigned integer, got {token!r}")
    return int(token)
