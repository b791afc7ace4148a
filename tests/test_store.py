"""Exception-store semantics: recording, lookup, and the canonical text form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumac.errors import StoreFormatError, StoreVersionError
from cumac.store import AccessMode, ExceptionStore


class TestRecordFile:
    def test_record_then_check(self):
        store = ExceptionStore()
        store.record_file_exception(10, 77, AccessMode.WRITE)
        assert store.check_file_exception(10, 77, AccessMode.WRITE)

    def test_double_record_is_single_entry(self):
        store = ExceptionStore()
        assert store.record_file_exception(10, 77, AccessMode.WRITE) is True
        assert store.record_file_exception(10, 77, AccessMode.WRITE) is False
        assert list(store.iter_file_triples()) == [(77, 10, AccessMode.WRITE)]

    def test_read_and_write_merge_into_one_entry(self):
        store = ExceptionStore()
        store.record_file_exception(10, 77, AccessMode.READ)
        store.record_file_exception(10, 77, AccessMode.WRITE)
        file_lines = [line for line in store.save().splitlines() if line.startswith("F ")]
        assert file_lines == ["F 77 10 rw"]


class TestCheckFile:
    def test_unknown_fid_is_false(self):
        assert ExceptionStore().check_file_exception(10, 999, AccessMode.READ) is False

    def test_mode_mismatch_is_false(self):
        store = ExceptionStore()
        store.record_file_exception(10, 77, AccessMode.READ)
        assert store.check_file_exception(10, 77, AccessMode.WRITE) is False

    def test_key_isolation(self):
        store = ExceptionStore()
        store.record_file_exception(10, 77, AccessMode.WRITE)
        assert store.check_file_exception(11, 77, AccessMode.WRITE) is False


class TestPriv:
    def test_record_then_check(self):
        store = ExceptionStore()
        store.record_priv_exception(10, "CAP_NET_BIND_SERVICE")
        assert store.check_priv_exception(10, "CAP_NET_BIND_SERVICE")

    def test_double_record_is_set_semantics(self):
        store = ExceptionStore()
        assert store.record_priv_exception(10, "CAP_KILL") is True
        assert store.record_priv_exception(10, "CAP_KILL") is False
        assert list(store.iter_priv_pairs()) == [(10, "CAP_KILL")]

    def test_key_isolation(self):
        store = ExceptionStore()
        store.record_priv_exception(10, "CAP_KILL")
        assert store.check_priv_exception(11, "CAP_KILL") is False

    def test_empty_store_is_false(self):
        assert ExceptionStore().check_priv_exception(10, "CAP_KILL") is False

    def test_bad_capability_rejected(self):
        with pytest.raises(ValueError):
            ExceptionStore().record_priv_exception(10, "cap_kill")


class TestPersistence:
    def test_empty_store_document(self):
        assert ExceptionStore().save() == "cumac-exceptions v1\n"

    def test_single_entry_round_trips_byte_identically(self):
        store = ExceptionStore()
        store.record_file_exception(10, 77, AccessMode.WRITE)
        text = store.save()
        assert text == "cumac-exceptions v1\nF 77 10 w\n"
        assert ExceptionStore.load(text).save() == text

    def test_entries_sorted_in_canonical_order(self):
        store = ExceptionStore()
        store.record_priv_exception(11, "CAP_KILL")
        store.record_priv_exception(10, "CAP_SYS_MODULE")
        store.record_priv_exception(10, "CAP_CHOWN")
        store.record_file_exception(5, 90, AccessMode.READ)
        store.record_file_exception(2, 90, AccessMode.WRITE)
        store.record_file_exception(1, 3, AccessMode.READ)
        store.record_file_exception(1, 3, AccessMode.WRITE)
        assert store.save() == (
            "cumac-exceptions v1\n"
            "F 3 1 rw\n"
            "F 90 2 w\n"
            "F 90 5 r\n"
            "P 10 CAP_CHOWN\n"
            "P 10 CAP_SYS_MODULE\n"
            "P 11 CAP_KILL\n"
        )

    def test_key_path_comments_survive_round_trip(self):
        store = ExceptionStore()
        store.record_priv_exception(4, "CAP_NET_BIND_SERVICE")
        store.key_paths[4] = "/usr/sbin/httpd"
        text = store.save()
        assert "# key 4 /usr/sbin/httpd" in text
        assert ExceptionStore.load(text).save() == text

    def test_plain_comments_and_blank_lines_ignored(self):
        text = "# hand written\n\ncumac-exceptions v1\n# whatever\nF 77 10 rw\n"
        store = ExceptionStore.load(text)
        assert store.check_file_exception(10, 77, AccessMode.READ)
        assert store.check_file_exception(10, 77, AccessMode.WRITE)

    def test_duplicate_lines_merge(self):
        text = "cumac-exceptions v1\nF 77 10 r\nF 77 10 w\nP 9 CAP_KILL\nP 9 CAP_KILL\n"
        store = ExceptionStore.load(text)
        assert store.save() == "cumac-exceptions v1\nF 77 10 rw\nP 9 CAP_KILL\n"

    def test_unknown_version_is_version_error(self):
        with pytest.raises(StoreVersionError):
            ExceptionStore.load("cumac-exceptions v2\n")
        with pytest.raises(StoreVersionError):
            ExceptionStore.load("")

    @pytest.mark.parametrize(
        "line,phrase",
        [
            ("F 77 10", "4 fields"),
            ("F 77 10 rwx", "mode vector"),
            ("F x 10 rw", "unsigned integer"),
            ("F \u00b2 10 rw", "unsigned integer"),
            ("F \u0661 10 rw", "unsigned integer"),
            ("F 77 \uff11 rw", "unsigned integer"),
            ("P \u00b2 CAP_KILL", "unsigned integer"),
            ("P 10", "3 fields"),
            ("P 10 kill", "capability"),
            ("Q 1 2", "unknown entry kind"),
        ],
    )
    def test_malformed_entries_are_positioned_errors(self, line, phrase):
        with pytest.raises(StoreFormatError, match=phrase) as exc_info:
            ExceptionStore.load(f"cumac-exceptions v1\n{line}\n")
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("token", ["\u00b2", "\u0661", "\uff11"])
    def test_non_ascii_key_comments_are_inert(self, token):
        store = ExceptionStore.load(f"cumac-exceptions v1\n# key {token} /x\nP 1 CAP_KILL\n")
        assert store.key_paths == {}
        assert store.save() == "cumac-exceptions v1\nP 1 CAP_KILL\n"

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_only_a_newline_ends_a_line(self, brk):
        # A comment runs to the next "\n", whatever other line breaks it holds.
        store = ExceptionStore.load(f"cumac-exceptions v1\r\n# key 4 /a{brk}b\r\nP 4 CAP_KILL\n")
        assert store.key_paths == {4: f"/a{brk}b"}
        assert store.check_priv_exception(4, "CAP_KILL")
        assert ExceptionStore.load(store.save()).save() == store.save()

    def test_load_rejects_non_utf8(self):
        with pytest.raises(StoreFormatError, match="UTF-8"):
            ExceptionStore.load(b"cumac-exceptions v1\n\xff\xfe\n")


_file_triples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
        st.sampled_from([AccessMode.READ, AccessMode.WRITE]),
    ),
    max_size=60,
)
_priv_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.sampled_from(["CAP_KILL", "CAP_CHOWN", "CAP_SYS_MODULE", "CAP_NET_RAW"]),
    ),
    max_size=40,
)


class TestRandomizedRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(files=_file_triples, privs=_priv_pairs)
    def test_save_load_preserves_all_queries(self, files, privs):
        store = ExceptionStore()
        for key, fid, mode in files:
            store.record_file_exception(key, fid, mode)
        for key, cap in privs:
            store.record_priv_exception(key, cap)
        text = store.save()
        loaded = ExceptionStore.load(text)
        for key, fid, mode in files:
            assert loaded.check_file_exception(key, fid, mode)
        for key, fid, _ in files:
            negatives = not store.check_file_exception(key + 1000, fid, AccessMode.READ)
            assert negatives == (not loaded.check_file_exception(key + 1000, fid, AccessMode.READ))
        for key, cap in privs:
            assert loaded.check_priv_exception(key, cap)
        # canonical: save . load . save is byte identical
        assert loaded.save() == text

    @settings(max_examples=60, deadline=None)
    @given(files=_file_triples, privs=_priv_pairs, seed=st.integers(0, 2**16))
    def test_store_contents_independent_of_record_order(self, files, privs, seed):
        import random

        ops = [("f", t) for t in files] + [("p", t) for t in privs]
        shuffled = ops[:]
        random.Random(seed).shuffle(shuffled)

        def build(sequence):
            store = ExceptionStore()
            for kind, item in sequence:
                if kind == "f":
                    store.record_file_exception(item[0], item[1], item[2])
                else:
                    store.record_priv_exception(item[0], item[1])
            return store.save()

        assert build(ops) == build(shuffled)
