"""Core type behavior: permission bits, capabilities, decision invariants."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cumac.errors import PermsFormatError
from cumac.model import (
    Decision,
    DenyReason,
    ExceptionKind,
    FileRecord,
    PermissionBits,
    TaintState,
    Verdict,
    entity_sort_key,
    executable,
    file_entity,
    is_integrity_protected,
    is_sensitivity_protected,
    proc_entity,
    validate_capability,
)


class TestPermissionBits:
    def test_755(self):
        bits = PermissionBits.parse("755")
        assert bits.any_exec and bits.mode == 0o755
        assert bits.render() == "755"

    def test_000_all_false(self):
        bits = PermissionBits.parse("000")
        assert bits == PermissionBits()

    def test_644(self):
        bits = PermissionBits.parse("644")
        assert bits.mode == 0o644
        assert not bits.any_exec

    def test_round_trip_all_512(self):
        for value in range(512):
            text = format(value, "03o")
            bits = PermissionBits.parse(text)
            assert bits.render() == text
            assert bits.mode == value
            assert bits.any_exec == any(int(digit) & 1 for digit in text)

    def test_one_field(self):
        assert [f.name for f in fields(PermissionBits)] == ["mode"]
        assert isinstance(PermissionBits.__dict__["parse"], classmethod)

    def test_error_names_offending_character(self):
        with pytest.raises(PermsFormatError, match="'9'"):
            PermissionBits.parse("955")
        with pytest.raises(PermsFormatError, match="'x'"):
            PermissionBits.parse("7x5")

    def test_wrong_length_rejected(self):
        for bad in ("", "7", "7777", "75"):
            with pytest.raises(PermsFormatError):
                PermissionBits.parse(bad)

    @given(st.text(max_size=6))
    def test_parse_total(self, text):
        try:
            bits = PermissionBits.parse(text)
        except PermsFormatError:
            return
        assert bits.render() == text


class TestProtectionPredicates:
    def _file(self, perms, is_dir=False):
        return FileRecord(fid=1, path="/x", perms=PermissionBits.parse(perms), is_directory=is_dir)

    def test_integrity_755(self):
        assert is_integrity_protected(self._file("755")) is True

    def test_integrity_777(self):
        assert is_integrity_protected(self._file("777")) is False

    def test_integrity_646(self):
        assert is_integrity_protected(self._file("646")) is False

    def test_sensitivity_600(self):
        assert is_sensitivity_protected(self._file("600")) is True

    def test_sensitivity_644(self):
        assert is_sensitivity_protected(self._file("644")) is False

    def test_sensitivity_000(self):
        assert is_sensitivity_protected(self._file("000")) is True

    def test_executable_needs_exec_bit_and_not_dir(self):
        assert executable(self._file("755")) is True
        assert executable(self._file("644")) is False
        assert executable(self._file("755", is_dir=True)) is False
        assert executable(self._file("001")) is True

    def test_predicates_agree_with_the_bits_for_every_mode(self):
        for mode in range(512):
            bits = PermissionBits(mode)
            for is_dir in (False, True):
                f = FileRecord(fid=1, path="/x", perms=bits, is_directory=is_dir)
                assert executable(f) is (bool(mode & 0o111) and not is_dir)
                assert is_integrity_protected(f) is (not mode & 0o002)
                assert is_sensitivity_protected(f) is (not mode & 0o004)


class TestCapability:
    def test_valid(self):
        assert validate_capability("CAP_SYS_MODULE") == "CAP_SYS_MODULE"
        assert validate_capability("CAP_NET_BIND_SERVICE") == "CAP_NET_BIND_SERVICE"

    @pytest.mark.parametrize("bad", ["", "cap_sys_module", "CAP_", "SYS_MODULE", "CAP_lower", "CAP_A B"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            validate_capability(bad)


_UPDATE = (proc_entity(1), TaintState.NON_INTRUSION, TaintState.POTENTIAL_INTRUSION)


class TestDecision:
    def test_deny_with_updates_rejected(self):
        with pytest.raises(ValueError):
            Decision(Verdict.DENY, DenyReason.PRIVILEGED_OP, taint_updates=(_UPDATE,))
        with pytest.raises(ValueError):
            Decision(Verdict.DENY, DenyReason.PRIVILEGED_OP, (_UPDATE,))

    def test_exception_kind_requires_exception_verdict(self):
        # A reason is present exactly when the verdict is not Allow; the
        # exception kind follows from the reason.
        with pytest.raises(ValueError):
            Decision(Verdict.ALLOW, DenyReason.INTEGRITY_WRITE)
        with pytest.raises(ValueError):
            Decision(Verdict.ALLOW_BY_EXCEPTION)
        with pytest.raises(ValueError):
            Decision(Verdict.DENY)

    @pytest.mark.parametrize(
        "verdict, reason, kind",
        [
            (Verdict.ALLOW, DenyReason.NONE, ExceptionKind.NONE),
            (Verdict.DENY, DenyReason.PRIVILEGED_OP, ExceptionKind.NONE),
            (Verdict.DENY, DenyReason.INTEGRITY_WRITE, ExceptionKind.NONE),
            (Verdict.DENY, DenyReason.SENSITIVITY_READ, ExceptionKind.NONE),
            (Verdict.ALLOW_BY_EXCEPTION, DenyReason.PRIVILEGED_OP, ExceptionKind.PRIVILEGE_LIST),
            (Verdict.ALLOW_BY_EXCEPTION, DenyReason.INTEGRITY_WRITE, ExceptionKind.FILE_LIST),
            (Verdict.ALLOW_BY_EXCEPTION, DenyReason.SENSITIVITY_READ, ExceptionKind.FILE_LIST),
        ],
    )
    def test_exception_kind_follows_from_the_outcome(self, verdict, reason, kind):
        assert Decision(verdict, reason).exception_kind is kind
        if verdict is not Verdict.DENY:
            assert Decision(verdict, reason, (_UPDATE,)).exception_kind is kind

    def test_well_formed(self):
        d = Decision(Verdict.ALLOW_BY_EXCEPTION, DenyReason.INTEGRITY_WRITE, (_UPDATE,))
        assert d.exception_kind is ExceptionKind.FILE_LIST
        assert d.taint_updates == (_UPDATE,)
        assert Decision(Verdict.DENY, DenyReason.SENSITIVITY_READ).taint_updates == ()


class TestEntityIds:
    def test_namespacing(self):
        assert proc_entity(5) == "proc:5"
        assert file_entity(5) == "file:5"
        assert proc_entity(5) != file_entity(5)

    def test_numeric_sort(self):
        entities = ["file:10", "file:2", "proc:1", "proc:10", "proc:9"]
        ordered = sorted(entities, key=entity_sort_key)
        assert ordered == ["file:2", "file:10", "proc:1", "proc:9", "proc:10"]
