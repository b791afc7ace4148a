"""Per-event rules of the tracing engine, plus its global invariants."""

import json
from dataclasses import fields, replace

import pytest

from conftest import (
    ETC_DIR,
    HOSTS,
    LS,
    SH,
    SHADOW,
    TMP_LOG,
    USB_TOOL,
    Driver,
    make_driver,
    small_config,
)
from cumac.engine import Engine, EngineConfig
from cumac.errors import ConfigError, PermsFormatError, TraceError
from cumac.lwm import LwmEngine
from cumac.model import (
    Copy,
    Create,
    DenyReason,
    ExceptionKind,
    Exec,
    FileRecord,
    Fork,
    Ipc,
    IpcChannel,
    Login,
    PermissionBits,
    PrivOp,
    ProcessRecord,
    Read,
    RemoteComm,
    TaintState,
    UserRecord,
    Verdict,
    Write,
)
from cumac.store import AccessMode, EnvironmentBit, ExceptionStore
from cumac.trace import Trace, TraceHeader

PI = TaintState.POTENTIAL_INTRUSION
NI = TaintState.NON_INTRUSION


class TestNewEngine:
    def test_empty_config(self):
        engine = Engine(EngineConfig(), ExceptionStore())
        assert engine.processes == {}
        assert engine.files == {}

    def test_seed_identity(self):
        config = EngineConfig(
            users={"root": UserRecord("root", True)},
            files=[FileRecord(fid=10, path="/bin/sh", perms=PermissionBits.parse("755"))],
        )
        engine = Engine(config, ExceptionStore())
        assert engine.files[10].path == "/bin/sh"
        assert engine.files[10].taint is NI

    def test_seed_records_are_copied_field_by_field(self):
        f = FileRecord(10, "/mnt", PermissionBits.parse("751"), "alice", NI, True, True)
        p = ProcessRecord(3, 10, NI, "alice")
        config = EngineConfig(users={"alice": UserRecord("alice")}, files=[f], processes=[p])
        engine = Engine(config, ExceptionStore())
        assert engine.files[10] == f and engine.files[10] is not f
        assert engine.processes[3] == p and engine.processes[3] is not p
        assert [x.name for x in fields(FileRecord)] == [
            "fid", "path", "perms", "owner", "taint", "is_directory", "on_mobile_mount"
        ]
        assert [x.name for x in fields(ProcessRecord)] == ["pid", "key", "taint", "user"]

    def test_duplicate_fid_rejected(self):
        config = EngineConfig(
            files=[
                FileRecord(fid=10, path="/a", perms=PermissionBits.parse("644")),
                FileRecord(fid=10, path="/b", perms=PermissionBits.parse("644")),
            ]
        )
        with pytest.raises(ConfigError, match="duplicate fid 10"):
            Engine(config, ExceptionStore())

    def test_duplicate_path_rejected(self):
        config = EngineConfig(
            files=[
                FileRecord(fid=10, path="/a", perms=PermissionBits.parse("644")),
                FileRecord(fid=11, path="/a", perms=PermissionBits.parse("644")),
            ]
        )
        with pytest.raises(ConfigError, match="duplicate path"):
            Engine(config, ExceptionStore())

    def test_configs_are_reusable(self):
        config = small_config()
        d = Driver(Engine(config, ExceptionStore()))
        d.taint_via_net(1)
        second = Engine(config, ExceptionStore())
        assert second.processes[1].taint is NI


class TestFork:
    def test_tainted_parent_taints_child(self, driver):
        driver.taint_via_net(1)
        decision = driver.fork(1, 30)
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(30).taint is PI
        assert decision.taint_updates == (("proc:30", NI, PI),)

    def test_clean_parent_clean_child(self, driver):
        decision = driver.fork(1, 30)
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(30).taint is NI
        assert decision.taint_updates == ()

    def test_fork_twice_inherits_key(self, driver):
        driver.fork(1, 30)
        driver.fork(1, 31)
        assert driver.proc(30).key == driver.proc(1).key == SH
        assert driver.proc(31).taint is NI
        assert driver.proc(30).user == driver.proc(1).user

    def test_live_child_pid_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="already live"):
            driver.fork(1, 2)

    def test_unknown_parent_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="unknown pid 99"):
            driver.fork(99, 30)


class TestExec:
    def test_tainted_file_taints_process(self, driver):
        driver.taint_via_net(1)
        driver.copy(1, SH, "/tmp/evil", "755")  # tainted writer, executable dst
        evil = driver.engine._files_by_path["/tmp/evil"]
        assert driver.file(evil).taint is PI
        decision = driver.exec(2, evil)
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(2).taint is PI

    def test_mobile_mount_file_taints_process_and_itself(self, driver):
        driver.mount(1, "/mnt/usb")
        decision = driver.exec(2, USB_TOOL)
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(2).taint is PI
        assert driver.file(USB_TOOL).taint is PI

    def test_clean_local_exec_updates_key_only(self, driver):
        decision = driver.exec(1, LS)
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(1).key == LS
        assert driver.proc(1).taint is NI

    def test_non_executable_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="not executable"):
            driver.exec(1, HOSTS)

    def test_key_switch_changes_exception_identity(self):
        store = ExceptionStore()
        store.record_priv_exception(LS, "CAP_KILL")
        d = make_driver(store=store)
        d.taint_via_net(1)
        assert d.priv(1, "CAP_KILL").verdict is Verdict.DENY  # key is still SH
        d.exec(1, LS)
        assert d.priv(1, "CAP_KILL").verdict is Verdict.ALLOW_BY_EXCEPTION


class TestRemoteComm:
    def test_remote_peer_taints(self, driver):
        decision = driver.net(1, "93.184.216.34")
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(1).taint is PI

    def test_loopback_does_not_taint(self, driver):
        for peer in ("127.0.0.1", "127.9.9.9", "::1"):
            assert driver.net(1, peer).taint_updates == ()
        assert driver.proc(1).taint is NI

    def test_already_tainted_logs_no_duplicate_update(self, driver):
        driver.net(1, "93.184.216.34")
        decision = driver.net(1, "93.184.216.34")
        assert decision.verdict is Verdict.ALLOW
        assert decision.taint_updates == ()


class TestLogin:
    def test_untrusted_login_taints(self, driver):
        decision = driver.login(1, "mallory")
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(1).taint is PI
        assert driver.proc(1).user == "mallory"

    def test_trusted_login_clean(self, driver):
        assert driver.login(1, "root").taint_updates == ()
        assert driver.proc(1).taint is NI

    def test_untrusted_login_then_fork_taints_child(self, driver):
        driver.login(1, "mallory")
        driver.fork(1, 30)
        assert driver.proc(30).taint is PI

    def test_unknown_user_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="unknown user"):
            driver.login(1, "nobody")


class TestMount:
    def test_snapshot_file_counts_as_mobile_after_mount(self, driver):
        driver.mount(1, "/mnt/usb")
        assert driver.engine.file_on_mobile_mount(driver.file(USB_TOOL)) is True
        assert driver.engine.file_on_mobile_mount(driver.file(LS)) is False

    def test_mount_unmount_without_access_is_inert(self, driver):
        driver.mount(1, "/mnt/usb")
        driver.unmount(1)
        assert driver.engine.tainted_entities() == set()
        assert all(d.verdict is Verdict.ALLOW for _, d in driver.log)

    def test_file_created_under_live_mount_is_mobile(self, driver):
        driver.mount(1, "/mnt/usb")
        driver.create(1, "/mnt/usb/dropper", "755")
        fid = driver.engine._files_by_path["/mnt/usb/dropper"]
        assert driver.file(fid).on_mobile_mount is True

    def test_overlapping_prefixes_are_trace_errors(self, driver):
        driver.mount(1, "/mnt/usb")
        with pytest.raises(TraceError, match="overlaps"):
            driver.mount(2, "/mnt/usb/sub")
        with pytest.raises(TraceError, match="overlaps"):
            driver.mount(3, "/mnt")

    def test_duplicate_live_mount_id_is_trace_error(self, driver):
        driver.mount(1, "/mnt/usb")
        with pytest.raises(TraceError, match="already live"):
            driver.mount(1, "/tmp")

    def test_unmount_unknown_id_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="not live"):
            driver.unmount(9)

    def test_mount_id_reusable_after_unmount(self, driver):
        driver.mount(1, "/mnt/usb")
        driver.unmount(1)
        assert driver.mount(1, "/mnt/usb").verdict is Verdict.ALLOW


class TestCopy:
    def test_mobile_source_taints_executable_destination(self, driver):
        driver.mount(1, "/mnt/usb")
        decision = driver.copy(1, USB_TOOL, "/tmp/adore", "755")
        assert decision.verdict is Verdict.ALLOW
        fid = driver.engine._files_by_path["/tmp/adore"]
        assert driver.file(fid).taint is PI
        assert driver.proc(1).taint is NI  # the copying process stays clean

    def test_clean_local_copy_stays_clean(self, driver):
        driver.copy(1, HOSTS, "/tmp/hosts.bak", "644")
        fid = driver.engine._files_by_path["/tmp/hosts.bak"]
        assert driver.file(fid).taint is NI

    def test_tainted_process_taints_executable_destination(self, driver):
        driver.taint_via_net(1)
        driver.copy(1, HOSTS, "/tmp/trojan", "755")
        fid = driver.engine._files_by_path["/tmp/trojan"]
        assert driver.file(fid).taint is PI

    def test_non_executable_destination_never_tainted(self, driver):
        driver.mount(1, "/mnt/usb")
        driver.copy(1, USB_TOOL, "/tmp/tool.txt", "644")
        fid = driver.engine._files_by_path["/tmp/tool.txt"]
        assert driver.file(fid).taint is NI

    def test_missing_parent_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="parent directory"):
            driver.copy(1, HOSTS, "/nope/x", "644")

    def test_tainted_copy_onto_protected_existing_file_denied(self, driver):
        driver.taint_via_net(1)
        decision = driver.copy(1, HOSTS, "/bin/ls", "644")
        assert decision.verdict is Verdict.DENY
        assert decision.reason is DenyReason.INTEGRITY_WRITE

    def test_tainted_copy_to_protected_directory_denied(self, driver):
        driver.taint_via_net(1)
        decision = driver.copy(1, HOSTS, "/etc/evil.conf", "644")
        assert decision.verdict is Verdict.DENY
        assert "/etc/evil.conf" not in driver.engine._files_by_path

    def test_existing_destination_keeps_its_perms(self, driver):
        driver.copy(1, HOSTS, "/tmp/app.log", "755")
        assert driver.file(TMP_LOG).perms.render() == "666"

    def test_exception_allowed_copy_still_taints_destination(self, driver):
        store = driver.engine.store
        store.record_file_exception(SH, LS, AccessMode.WRITE)
        driver.taint_via_net(1)
        decision = driver.copy(1, HOSTS, "/bin/ls", "644")
        assert decision.verdict is Verdict.ALLOW_BY_EXCEPTION
        assert decision.exception_kind is ExceptionKind.FILE_LIST
        assert driver.file(LS).taint is PI


class TestIpc:
    def test_pipe_taints_receiver(self, driver):
        driver.taint_via_net(1)
        decision = driver.ipc(1, 2, IpcChannel.PIPE)
        assert decision.verdict is Verdict.ALLOW
        assert driver.proc(2).taint is PI

    def test_pipe_has_no_backward_flow(self, driver):
        driver.taint_via_net(2)
        driver.ipc(1, 2, IpcChannel.PIPE)  # clean sender, tainted receiver
        assert driver.proc(1).taint is NI

    def test_shared_memory_taints_both(self, driver):
        driver.taint_via_net(2)
        decision = driver.ipc(1, 2, IpcChannel.SHARED_MEMORY)
        assert driver.proc(1).taint is PI
        assert decision.taint_updates == (("proc:1", NI, PI),)

    def test_self_ipc_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="must differ"):
            driver.ipc(1, 1, IpcChannel.PIPE)

    @pytest.mark.parametrize("channel", [IpcChannel.SIGNAL, IpcChannel.SOCKET_LOCAL])
    def test_other_directed_channels(self, channel, driver):
        driver.taint_via_net(1)
        driver.ipc(1, 2, channel)
        assert driver.proc(2).taint is PI


class TestCreate:
    def test_tainted_create_in_world_writable_tmp_allowed_and_tainted(self, driver):
        driver.taint_via_net(1)
        decision = driver.create(1, "/tmp/dropper", "755")
        assert decision.verdict is Verdict.ALLOW
        fid = driver.engine._files_by_path["/tmp/dropper"]
        assert driver.file(fid).taint is PI

    def test_tainted_create_in_protected_etc_denied(self, driver):
        driver.taint_via_net(1)
        decision = driver.create(1, "/etc/backdoor.conf", "644")
        assert decision.verdict is Verdict.DENY
        assert decision.reason is DenyReason.INTEGRITY_WRITE
        assert "/etc/backdoor.conf" not in driver.engine._files_by_path

    def test_clean_create_anywhere_writable_is_clean(self, driver):
        decision = driver.create(1, "/tmp/notes.txt", "644")
        assert decision.verdict is Verdict.ALLOW
        fid = driver.engine._files_by_path["/tmp/notes.txt"]
        assert driver.file(fid).taint is NI

    def test_existing_path_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="already exists"):
            driver.create(1, "/etc/hosts", "644")

    def test_missing_parent_is_trace_error(self, driver):
        with pytest.raises(TraceError, match="parent directory"):
            driver.create(1, "/opt/x", "644")

    def test_exception_allowed_create_still_taints_executable(self, driver):
        store = driver.engine.store
        store.record_file_exception(SH, ETC_DIR, AccessMode.WRITE)
        driver.taint_via_net(1)
        decision = driver.create(1, "/etc/cron.hourly", "755")
        assert decision.verdict is Verdict.ALLOW_BY_EXCEPTION
        assert decision.exception_kind is ExceptionKind.FILE_LIST
        fid = driver.engine._files_by_path["/etc/cron.hourly"]
        assert decision.taint_updates == ((f"file:{fid}", NI, PI),)


class TestWrite:
    def test_tainted_write_to_protected_binary_denied(self, driver):
        driver.taint_via_net(1)
        decision = driver.write(1, LS)
        assert decision.verdict is Verdict.DENY
        assert decision.reason is DenyReason.INTEGRITY_WRITE
        assert driver.file(LS).taint is NI  # denied writes propagate nothing

    def test_tainted_write_to_own_world_writable_log_allowed(self, driver):
        driver.taint_via_net(1)
        decision = driver.write(1, TMP_LOG)
        assert decision.verdict is Verdict.ALLOW
        assert driver.file(TMP_LOG).taint is NI  # not executable

    def test_recorded_exception_permits_the_write(self, driver):
        store = driver.engine.store
        store.record_file_exception(SH, LS, AccessMode.WRITE)
        driver.taint_via_net(1)
        decision = driver.write(1, LS)
        assert decision.verdict is Verdict.ALLOW_BY_EXCEPTION
        assert decision.exception_kind is ExceptionKind.FILE_LIST

    def test_exception_allowed_write_still_taints_executable(self, driver):
        store = driver.engine.store
        store.record_file_exception(SH, LS, AccessMode.WRITE)
        driver.taint_via_net(1)
        decision = driver.write(1, LS)
        assert driver.file(LS).taint is PI
        assert decision.taint_updates == (("file:12", NI, PI),)

    def test_clean_write_anywhere_allowed(self, driver):
        assert driver.write(1, LS).verdict is Verdict.ALLOW
        assert driver.file(LS).taint is NI


class TestRead:
    def test_tainted_read_of_shadow_denied(self, driver):
        driver.taint_via_net(1)
        decision = driver.read(1, SHADOW)
        assert decision.verdict is Verdict.DENY
        assert decision.reason is DenyReason.SENSITIVITY_READ

    def test_tainted_read_of_world_readable_allowed(self, driver):
        driver.taint_via_net(1)
        assert driver.read(1, HOSTS).verdict is Verdict.ALLOW

    def test_clean_read_of_shadow_allowed(self, driver):
        assert driver.read(1, SHADOW).verdict is Verdict.ALLOW

    def test_reads_never_propagate_taint(self, driver):
        driver.taint_via_net(1)
        driver.copy(1, SH, "/tmp/evil", "755")  # tainted executable
        evil = driver.engine._files_by_path["/tmp/evil"]
        driver.read(2, evil)
        assert driver.proc(2).taint is NI


class TestPrivOp:
    def test_tainted_module_load_denied(self, driver):
        driver.taint_via_net(1)
        decision = driver.priv(1, "CAP_SYS_MODULE")
        assert decision.verdict is Verdict.DENY
        assert decision.reason is DenyReason.PRIVILEGED_OP

    def test_tainted_ptrace_denied(self, driver):
        driver.login(1, "mallory")
        assert driver.priv(1, "CAP_SYS_PTRACE").verdict is Verdict.DENY

    def test_clean_process_any_capability_allowed(self, driver):
        assert driver.priv(1, "CAP_SYS_MODULE").verdict is Verdict.ALLOW

    def test_secure_mode_allows_and_records(self, secure_driver):
        secure_driver.taint_via_net(1)
        decision = secure_driver.priv(1, "CAP_SYS_MODULE")
        assert decision.verdict is Verdict.ALLOW
        assert secure_driver.engine.store.check_priv_exception(SH, "CAP_SYS_MODULE")

    def test_exception_permits_in_enforcement(self, driver):
        store = driver.engine.store
        store.record_priv_exception(SH, "CAP_SYS_MODULE")
        driver.taint_via_net(1)
        decision = driver.priv(1, "CAP_SYS_MODULE")
        assert decision.verdict is Verdict.ALLOW_BY_EXCEPTION
        assert decision.exception_kind is ExceptionKind.PRIVILEGE_LIST


class TestSecureLearning:
    def test_learning_covers_all_three_denial_kinds(self, secure_driver):
        d = secure_driver
        store = d.engine.store
        d.taint_via_net(1)
        assert d.write(1, LS).verdict is Verdict.ALLOW
        assert d.read(1, SHADOW).verdict is Verdict.ALLOW
        assert d.priv(1, "CAP_CHOWN").verdict is Verdict.ALLOW
        assert store.check_file_exception(SH, LS, AccessMode.WRITE)
        assert store.check_file_exception(SH, SHADOW, AccessMode.READ)
        assert store.check_priv_exception(SH, "CAP_CHOWN")

    def test_clean_operations_record_nothing(self, secure_driver):
        d = secure_driver
        d.write(1, LS)
        d.read(1, SHADOW)
        d.priv(1, "CAP_CHOWN")
        assert d.engine.store.triple_count() == 0

    def test_a_shared_store_is_written_only_by_the_secure_engine(self):
        store = ExceptionStore()
        learner = make_driver(EnvironmentBit.SECURE, store)
        enforcer = make_driver(store=store)
        assert enforcer.engine.mode is EnvironmentBit.UNSECURE
        learner.taint_via_net(1)
        enforcer.taint_via_net(1)
        learner.write(1, LS)
        learned = store.save()
        assert enforcer.write(1, LS).verdict is Verdict.ALLOW_BY_EXCEPTION
        assert enforcer.read(1, SHADOW).verdict is Verdict.DENY
        assert enforcer.priv(1, "CAP_CHOWN").verdict is Verdict.DENY
        assert store.save() == learned
        # The learner keeps its own mode while the enforcer runs.
        assert learner.read(1, SHADOW).verdict is Verdict.ALLOW
        assert store.check_file_exception(SH, SHADOW, AccessMode.READ)


def _state_fingerprint(engine: Engine):
    procs = {p.pid: (p.key, p.taint, p.user) for p in engine.processes.values()}
    files = {
        f.fid: (f.path, f.perms, f.taint, f.is_directory, f.on_mobile_mount)
        for f in engine.files.values()
    }
    return (procs, files, dict(engine.mounts))


def _full_state(engine: Engine):
    return (
        repr(engine.processes),
        repr(engine.files),
        dict(engine._files_by_path),
        dict(engine.mounts),
        engine.store.save(),
    )


class TestLibraryEvents:
    """Events built by library code carry ids no parser has checked; an id
    that contradicts engine state is refused before anything changes, even
    where a tainted actor in the Secure environment would record a grant."""

    @pytest.mark.parametrize(
        "event, message",
        [
            (Create(99, 1, "/etc/new.conf", "755", "root", False, HOSTS), "fid 7 already live"),
            (Copy(99, 1, USB_TOOL, "/etc/hosts", "644", "root", SHADOW), "names '/etc/shadow'"),
            (Copy(99, 1, USB_TOOL, "/etc/hosts", "644", "root", 99), "already exists"),
        ],
    )
    def test_contradicting_ids_leave_state_unchanged(self, secure_driver, event, message):
        d = secure_driver
        d.taint_via_net(1)
        d.mount(1, "/mnt/usb")
        before = _full_state(d.engine)
        with pytest.raises(TraceError, match=message):
            d.engine.step(event)
        assert _full_state(d.engine) == before

    @pytest.mark.parametrize(
        "event",
        [
            Create(99, 1, "/etc/new.conf", "999", "root", False, 13),
            Copy(99, 1, USB_TOOL, "/etc/tool", "999", "root", 13),
        ],
    )
    def test_bad_perms_leave_state_unchanged(self, secure_driver, event):
        d = secure_driver
        d.taint_via_net(1)
        d.mount(1, "/mnt/usb")
        before = _full_state(d.engine)
        with pytest.raises(PermsFormatError):
            d.engine.step(event)
        assert _full_state(d.engine) == before


# Per event kind, a valid event on the small world with pid 1 tainted and
# /mnt/usb mounted, and the fields that name a live process or file. The
# ids an event creates (``Fork.child_pid``, ``Copy.dst_fid``,
# ``Create.new_fid``) are not among them.
_LOOKUPS = [
    (Fork(50, 1, 30), ("parent_pid",)),
    (Exec(50, 1, SH), ("pid", "fid")),
    (RemoteComm(50, 1, "203.0.113.9"), ("pid",)),
    (Login(50, 1, "mallory"), ("pid",)),
    (Copy(50, 1, USB_TOOL, "/tmp/tool", "755", "root", 13), ("pid", "src_fid")),
    (Create(50, 1, "/tmp/new", "755", "root", False, 13), ("pid",)),
    (Write(50, 1, LS), ("pid", "fid")),
    (Read(50, 1, SHADOW), ("pid", "fid")),
    (Ipc(50, 1, 2, IpcChannel.SHARED_MEMORY), ("from_pid", "to_pid")),
    (PrivOp(50, 1, "CAP_SYS_MODULE"), ("pid",)),
]
_UNKNOWN = 99


def _lwm_state(engine: LwmEngine):
    return (
        dict(engine.subject_levels),
        dict(engine.object_levels),
        dict(engine._fid_by_path),
        dict(engine._mounts),
        {prefix: list(fids) for prefix, fids in engine._high_below.items()},
    )


def _engines():
    """A Secure tracing engine that would record any grant it is asked
    about, and a low-water-mark engine, on the same world."""
    d = make_driver(mode=EnvironmentBit.SECURE)
    d.taint_via_net(1)
    d.mount(1, "/mnt/usb")
    config = small_config()
    header = TraceHeader(list(config.users.values()), config.files, config.processes)
    lwm = LwmEngine(Trace(header), config)
    lwm.step(d.log[-1][0])
    return d.engine, lwm


class TestUnknownIds:
    """An event naming a pid or fid that is not live is refused, with the
    id's kind and value in the message, before either engine changes."""

    @pytest.mark.parametrize("event", [event for event, _ in _LOOKUPS], ids=lambda e: type(e).__name__)
    def test_the_valid_event_steps(self, event):
        for stepper in _engines():
            stepper.step(event)

    @pytest.mark.parametrize(
        "event, field",
        [(event, name) for event, names in _LOOKUPS for name in names],
        ids=[f"{type(event).__name__}.{name}" for event, names in _LOOKUPS for name in names],
    )
    def test_unknown_id_is_refused_and_changes_nothing(self, event, field):
        kind = "pid" if field.endswith("pid") else "fid"
        bad = replace(event, **{field: _UNKNOWN})
        engine, lwm = _engines()
        engine_before, lwm_before = _full_state(engine), _lwm_state(lwm)
        for stepper in (engine, lwm):
            with pytest.raises(TraceError) as caught:
                stepper.step(bad)
            assert str(caught.value) == f"event 50: unknown {kind} {_UNKNOWN}"
            assert (caught.value.seq, caught.value.reason) == (50, f"unknown {kind} {_UNKNOWN}")
        assert _full_state(engine) == engine_before
        assert _lwm_state(lwm) == lwm_before

    @pytest.mark.parametrize(
        "event, names", [case for case in _LOOKUPS if len(case[1]) > 1],
        ids=[type(event).__name__ for event, names in _LOOKUPS if len(names) > 1],
    )
    def test_the_first_unknown_field_is_named(self, event, names):
        bad = replace(event, **{name: _UNKNOWN + i for i, name in enumerate(names)})
        kind = "pid" if names[0].endswith("pid") else "fid"
        for stepper in _engines():
            with pytest.raises(TraceError, match=f"^event 50: unknown {kind} {_UNKNOWN}$"):
                stepper.step(bad)


class TestInvariants:
    def test_denials_are_inert(self, driver):
        driver.taint_via_net(1)
        before = _state_fingerprint(driver.engine)
        decision = driver.write(1, LS)
        assert decision.verdict is Verdict.DENY
        assert _state_fingerprint(driver.engine) == before

    def test_taint_is_monotone_over_a_session(self, driver):
        driver.taint_via_net(1)
        driver.fork(1, 30)
        driver.ipc(30, 2, IpcChannel.SHARED_MEMORY)
        driver.copy(2, SH, "/tmp/evil", "755")
        for _, decision in driver.log:
            for _, old, new in decision.taint_updates:
                assert old is NI and new is PI

    def test_replay_is_deterministic(self):
        def run():
            d = make_driver()
            d.mount(1, "/mnt/usb")
            d.exec(2, USB_TOOL)
            d.write(2, TMP_LOG)
            d.priv(2, "CAP_SYS_MODULE")
            rows = [
                (type(ev).__name__, dec.verdict.value, dec.reason.value, dec.taint_updates)
                for ev, dec in d.log
            ]
            return json.dumps(rows, default=str)

        assert run() == run()

    def test_decision_locality_under_permutation(self):
        # Unrelated prefix events, permuted, leave the shared suffix verdicts alone.
        def run(prefix_order):
            d = make_driver()
            prefix = {
                "a": lambda: d.fork(1, 40),
                "b": lambda: d.net(2, "127.0.0.1"),
                "c": lambda: d.read(2, HOSTS),
            }
            for name in prefix_order:
                prefix[name]()
            # shared suffix touching neither pid 40 nor anything the prefix tainted
            out = [
                d.login(2, "mallory").verdict,
                d.write(2, LS).verdict,
                d.priv(2, "CAP_SYS_PTRACE").verdict,
            ]
            return out

        baseline = run("abc")
        for order in ("acb", "bac", "bca", "cab", "cba"):
            assert run(order) == baseline
