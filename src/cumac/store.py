"""Exceptional-access grants, and the environment bit a run is made in.

A grant is a (file id, application key, access mode) triple or an
(application key, capability) pair, where an application's key is the
inode of its executable. The environment bit is the engine's ``mode``, not
the store's: a Secure run records every access it would otherwise refuse;
an Unsecure run lets those records authorize the same accesses and records
nothing. The store holds the grants as two sets, and the engine keeps none
of its own. Iteration is sorted whatever the hash seed: file triples by
(fid, key, mode) with ``r`` before ``w``, privilege pairs by (key,
capability name).

On-disk format (UTF-8 text, lines end at ``\n``, ``#`` starts a comment line):

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

from enum import Enum
from itertools import groupby
from operator import itemgetter
from typing import Iterator

from .errors import StoreFormatError, StoreVersionError
from .model import Key, validate_capability

FORMAT_HEADER = "cumac-exceptions v1"


class EnvironmentBit(Enum):
    """One bit for the entire system: Secure records, Unsecure enforces.
    It is set by the operator before a run and stays fixed during it."""

    SECURE = "Secure"
    UNSECURE = "Unsecure"

    __hash__ = object.__hash__  # as ``model.TaintState``


class AccessMode(Enum):
    READ = "r"
    WRITE = "w"

    __hash__ = object.__hash__  # as ``model.TaintState``


_MODES_OF = {
    "r": (AccessMode.READ,),
    "w": (AccessMode.WRITE,),
    "rw": (AccessMode.READ, AccessMode.WRITE),
}
"""Per mode vector of a file entry, its access modes, read first."""

_GRANT_KEY = itemgetter(1)  # the key of a (fid, key, mode) file grant
_GRANT_PAIR = itemgetter(0, 1)  # the (fid, key) pair of a file grant
_PRIV_KEY = itemgetter(0)  # the key of a (key, capability) privilege grant


class ExceptionStore:
    """Central store for both kinds of exceptional-access grant.

    It holds exactly two sets: (fid, key, mode) file grants and (key,
    capability) privilege grants. ``iter_file_triples`` and
    ``iter_priv_pairs`` yield them in the sorted order the module
    docstring gives.
    """

    def __init__(self):
        self._file_grants: set[tuple[int, Key, AccessMode]] = set()
        self._priv_grants: set[tuple[Key, str]] = set()
        self.key_paths: dict[Key, str] = {}

    # -- views ----------------------------------------------------------------

    def file_entries(self, fid: int) -> list[tuple[Key, AccessMode]]:
        """One file's (key, mode) grants, sorted; a copy, not a view.

        Nothing in the package calls this. It is kept because the benchmark
        tracer (``perfbench/tracer.py``) looks it up by name when it installs
        its counters and fails without it."""
        return [(key, mode) for f, key, mode in self.iter_file_triples() if f == fid]

    def iter_file_triples(self) -> Iterator[tuple[int, Key, AccessMode]]:
        return iter(sorted(self._file_grants, key=_grant_order))

    def iter_priv_pairs(self) -> Iterator[tuple[Key, str]]:
        return iter(sorted(self._priv_grants))

    def granted_keys(self) -> set[Key]:
        """Every application key that holds a grant of either kind."""
        keys = set(map(_GRANT_KEY, self._file_grants))
        keys.update(map(_PRIV_KEY, self._priv_grants))
        return keys

    def triple_count(self) -> int:
        """Number of distinct recorded grants (file mode bits plus
        capabilities); learning counters are derived from its delta."""
        return len(self._file_grants) + len(self._priv_grants)

    # -- recording ------------------------------------------------------------

    def record_file_exception(self, key: Key, fid: int, mode: AccessMode) -> bool:
        """Record a (key, fid, mode) grant; idempotent. Returns True when
        the grant is new."""
        return _add(self._file_grants, (fid, key, mode))

    def record_priv_exception(self, key: Key, capability: str) -> bool:
        """Record a capability grant for an application; idempotent.
        Returns True when the grant is new."""
        validate_capability(capability)
        return _add(self._priv_grants, (key, capability))

    # -- lookup ---------------------------------------------------------------

    def check_file_exception(self, key: Key, fid: int, mode: AccessMode) -> bool:
        return (fid, key, mode) in self._file_grants

    def check_priv_exception(self, key: Key, capability: str) -> bool:
        return (key, capability) in self._priv_grants

    # -- persistence ---------------------------------------------------------------

    def save(self) -> str:
        """Render the canonical text form; byte-stable for equal contents."""
        lines = [FORMAT_HEADER]
        for key in sorted(self.key_paths):
            lines.append(f"# key {key} {self.key_paths[key]}")
        for (fid, key), grants in groupby(self.iter_file_triples(), _GRANT_PAIR):
            lines.append(f"F {fid} {key} {''.join(mode.value for _, _, mode in grants)}")
        for key, cap in self.iter_priv_pairs():
            lines.append(f"P {key} {cap}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str | bytes) -> "ExceptionStore":
        """Parse a saved document; duplicate entries merge (set semantics)."""
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StoreFormatError(0, f"document is not valid UTF-8: {exc}") from None
        store = cls()
        saw_header = False
        for line_no, raw in enumerate(text.split("\n"), start=1):
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
            modes = _MODES_OF.get(parts[3])
            if modes is None:
                raise StoreFormatError(line_no, f"invalid mode vector {parts[3]!r}")
            for mode in modes:
                self._file_grants.add((fid, key, mode))
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
            self._priv_grants.add((key, parts[2]))
        else:
            raise StoreFormatError(line_no, f"unknown entry kind {kind!r}")


def _grant_order(grant: tuple[int, Key, AccessMode]) -> tuple[int, Key, str]:
    """A file grant's place in sorted order: by fid, key, then mode
    letter, so ``r`` comes before ``w``."""
    fid, key, mode = grant
    return fid, key, mode.value


def _add(grants: set, grant: tuple) -> bool:
    """Add one grant; True when it was not held yet."""
    if grant in grants:
        return False
    grants.add(grant)
    return True


def _is_uint(token: str) -> bool:
    # ASCII digits only: int() also reads other scripts' digits, and
    # str.isdigit() also passes superscripts that int() refuses.
    return token.isascii() and token.isdecimal()


def _load_int(line_no: int, label: str, token: str) -> int:
    if not _is_uint(token):
        raise StoreFormatError(line_no, f"{label} must be an unsigned integer, got {token!r}")
    return int(token)
