"""Independent taint oracle and taint-graph export.

The oracle recomputes which entities end up tainted by reachability over
a time-expanded information-flow graph: each node is one entity at one
step, so that taint acquired late cannot flow backwards through earlier
events. It never builds that graph. Every flow edge below joins two nodes
of the same step and every persistence edge points forward in time, so
one pass over the trace in order visits the graph in time order, keeping
the set of entities reached so far. It runs no engine code: the caller
passes the verdict sequence under test (denied events contribute no
edges), and the structure the edges need (which files exist, which are
executable, which sit on a mobile mount) is kept locally in that pass.

Flow edges per allowed event:

* fork: parent process -> child process
* exec: file -> process
* ipc over pipe/signal/local socket: sender -> receiver
* ipc over shared memory: both directions
* write/create/copy to an executable file: acting process -> file,
  and for copy additionally source file -> destination file

Sources (entrances):

* a process the moment it communicates with a non-loopback peer
* a process the moment an untrusted user logs into it
* a mobile-mount executable the moment it is exec'd
* the executable destination of a copy whose source sits on a mobile mount
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .engine import EngineConfig
from .errors import TraceError
from .model import (
    LOOPBACK_PREFIXES,
    Copy,
    Create,
    Exec,
    Fork,
    Ipc,
    IpcChannel,
    Login,
    Mount,
    PermissionBits,
    PrivOp,
    Read,
    RemoteComm,
    Unmount,
    UserRecord,
    Verdict,
    Write,
    file_entity,
    proc_entity,
    under_live_mount,
)
from .trace import EVENT_VERBS, Trace, collector_paused

if TYPE_CHECKING:
    from .replay import ReplayReport

_DENY = Verdict.DENY
_SHARED_MEMORY = IpcChannel.SHARED_MEMORY
"""Members the oracle and the export read per event, bound once: a read
of ``Verdict.DENY`` goes through the enum class, a module-level name
does not."""


@dataclass(slots=True)
class _FileFacts:
    """Structural facts about a file the oracle needs: taint-free."""

    path: str
    is_executable: bool
    is_directory: bool
    mobile: bool


def taint_oracle(
    trace: Trace,
    verdicts: Sequence[Verdict],
    config: EngineConfig | None = None,
) -> set[str]:
    """Recompute the final tainted-entity set by one pass in time order.

    The pass visits the time-expanded flow graph in time order and keeps
    the entities reached so far. ``verdicts`` is the verdict sequence of
    the run under test, one per event; ``config`` supplies only the users'
    trust flags. The cyclic garbage collector is paused during the pass,
    then left as it was found: what the pass keeps holds no reference
    cycles and is freed, in its own frame, before the collector resumes.
    An allowed event of a kind that neither engine knows raises
    ``TraceError``, as the engines do.
    """
    if len(verdicts) != len(trace.events):
        raise ValueError("one verdict per event is required")
    users = (config or EngineConfig.from_trace(trace)).users
    with collector_paused():
        return _reached_entities(trace, verdicts, users)


def _reached_entities(
    trace: Trace, verdicts: Sequence[Verdict], users: dict[str, UserRecord]
) -> set[str]:
    # Structure: which files exist, what is executable, what sits on a
    # mobile mount. Created files take the ids their events carry.
    files = {
        f.fid: _FileFacts(f.path, f.perms.any_exec and not f.is_directory, f.is_directory, False)
        for f in trace.header.files
    }
    mounts: dict[int, str] = {}

    def register(fid: int, path: str, perms: str, is_directory: bool) -> _FileFacts:
        facts = _FileFacts(
            path,
            PermissionBits.parse(perms).any_exec and not is_directory,
            is_directory,
            under_live_mount(mounts, path),
        )
        files[fid] = facts
        return facts

    def observe_mobile(facts: _FileFacts) -> bool:
        # Same lazy rule as the engine: a file counts as mobile when used
        # under a live mount, and the observation is memoized.
        if not facts.mobile and mounts and under_live_mount(mounts, facts.path):
            facts.mobile = True
        return facts.mobile

    # The reached pids and fids: an entity joins when an entrance or an
    # edge from a reached entity touches it, and never leaves.
    procs: set[int] = set()
    fids: set[int] = set()
    for ev, verdict in zip(trace.events, verdicts):
        kind = type(ev)
        if kind is Read or kind is PrivOp or verdict is _DENY:
            # Reads and privileged operations propagate nothing, and
            # denied events contribute no edges.
            continue
        if kind is Write:
            if files[ev.fid].is_executable and ev.pid in procs:
                fids.add(ev.fid)
        elif kind is Fork:
            if ev.parent_pid in procs:
                procs.add(ev.child_pid)
        elif kind is Exec:
            if observe_mobile(files[ev.fid]):
                fids.add(ev.fid)
            if ev.fid in fids:
                procs.add(ev.pid)
        elif kind is Ipc:
            if ev.from_pid in procs:
                procs.add(ev.to_pid)
            elif ev.channel is _SHARED_MEMORY and ev.to_pid in procs:
                procs.add(ev.from_pid)
        elif kind is Create:
            new = register(ev.new_fid, ev.path, ev.perms, ev.is_directory)
            if new.is_executable and ev.pid in procs:
                fids.add(ev.new_fid)
        elif kind is Copy:
            src = files[ev.src_fid]
            src_mobile = observe_mobile(src)
            dst = files.get(ev.dst_fid)
            if dst is None:
                dst = register(ev.dst_fid, ev.dst_path, ev.dst_perms, src.is_directory)
            if dst.is_executable and (src_mobile or ev.pid in procs or ev.src_fid in fids):
                fids.add(ev.dst_fid)
        elif kind is RemoteComm:
            if not ev.peer_address.startswith(LOOPBACK_PREFIXES):
                procs.add(ev.pid)
        elif kind is Login:
            user = users.get(ev.user)
            if user is None or not user.trusted:
                procs.add(ev.pid)
        elif kind is Mount:
            mounts[ev.mount_id] = ev.path_prefix
        elif kind is Unmount:
            mounts.pop(ev.mount_id, None)
        else:
            raise TraceError(ev.seq, f"unknown event kind {kind.__name__}")

    tainted = {proc_entity(pid) for pid in procs}
    tainted.update(file_entity(fid) for fid in fids)
    return tainted


# -- taint-graph export --------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_EDGE_ENDINGS = ('"];', '", style=dashed, color=red];')
"""The end of an edge's attribute list after its label text, indexed by
whether the event was denied: denied events show as dashed red edges."""

_TAINTED_ATTRS = ", color=red, fontcolor=red"


def export_taint_graph(report: "ReplayReport", trace: Trace) -> str:
    """Render the replayed trace as canonical Graphviz DOT text.

    Entities become nodes (tainted ones red), events become labelled edges
    in sequence order, and denied events show as dashed edges. Output is
    byte-stable for equal inputs.

    Process and file ids are integers and are written unquoted inside the
    quotes; only free text (peers, users, capabilities, paths) goes
    through ``_dot_quote``. An event of a kind that neither engine knows
    raises ``TraceError``, as the engines do.
    """
    tainted = set(report.final_taint)
    proc_pids: set[int] = {p.pid for p in trace.header.processes}
    file_labels: dict[int, str] = {f.fid: f.path for f in trace.header.files}
    extra_nodes: dict[str, str] = {}  # node id to its quoted form
    edges: list[str] = []
    add = edges.append

    def extra_node(entity: str) -> str:
        quoted = extra_nodes.get(entity)
        if quoted is None:
            quoted = extra_nodes[entity] = _dot_quote(entity)
        return quoted

    for ev, decision in zip(report.events, report.decisions):
        kind = type(ev)
        denied = decision.verdict is _DENY
        try:
            verb = EVENT_VERBS[kind]
        except KeyError:
            raise TraceError(ev.seq, f"unknown event kind {kind.__name__}") from None
        ending = _EDGE_ENDINGS[denied]
        if kind is Read:
            add(f'  "file:{ev.fid}" -> "proc:{ev.pid}" [label="{ev.seq} {verb}{ending}')
        elif kind is Write:
            add(f'  "proc:{ev.pid}" -> "file:{ev.fid}" [label="{ev.seq} {verb}{ending}')
        elif kind is Fork:
            proc_pids.add(ev.child_pid)
            add(f'  "proc:{ev.parent_pid}" -> "proc:{ev.child_pid}" [label="{ev.seq} {verb}{ending}')
        elif kind is Exec:
            add(f'  "file:{ev.fid}" -> "proc:{ev.pid}" [label="{ev.seq} {verb}{ending}')
        elif kind is Ipc:
            add(f'  "proc:{ev.from_pid}" -> "proc:{ev.to_pid}" [label="{ev.seq} {verb}{ending}')
            if ev.channel is _SHARED_MEMORY:
                add(f'  "proc:{ev.to_pid}" -> "proc:{ev.from_pid}" [label="{ev.seq} {verb}{ending}')
        elif kind is Create:
            if not denied:
                file_labels[ev.new_fid] = ev.path
                add(f'  "proc:{ev.pid}" -> "file:{ev.new_fid}" [label="{ev.seq} {verb}{ending}')
        elif kind is Copy:
            # A denied copy onto an existing file still shows its edges.
            dst = ev.dst_fid
            if not denied or dst in file_labels:
                file_labels.setdefault(dst, ev.dst_path)
                tail = f' [label="{ev.seq} {verb}{ending}'
                add(f'  "proc:{ev.pid}" -> "file:{dst}"{tail}')
                add(f'  "file:{ev.src_fid}" -> "file:{dst}"{tail}')
        elif kind is PrivOp:
            cap = extra_node(f"cap:{ev.capability}")
            add(f'  "proc:{ev.pid}" -> {cap} [label="{ev.seq} {verb}{ending}')
        elif kind is RemoteComm:
            addr = extra_node(f"addr:{ev.peer_address}")
            add(f'  {addr} -> "proc:{ev.pid}" [label="{ev.seq} {verb}{ending}')
        elif kind is Login:
            user = extra_node(f"user:{ev.user}")
            add(f'  {user} -> "proc:{ev.pid}" [label="{ev.seq} {verb}{ending}')
        # Mount/Unmount carry no entity-to-entity flow.

    lines = ["digraph taint_trace {", "  rankdir=LR;"]
    for pid in sorted(proc_pids):
        red = _TAINTED_ATTRS if f"proc:{pid}" in tainted else ""
        lines.append(f'  "proc:{pid}" [shape=ellipse{red}];')
    for fid in sorted(file_labels):
        entity = f"file:{fid}"
        red = _TAINTED_ATTRS if entity in tainted else ""
        label = _dot_quote(f"{entity} {file_labels[fid]}")
        lines.append(f'  "{entity}" [shape=box, label={label}{red}];')
    for entity in sorted(extra_nodes):
        lines.append(f"  {extra_nodes[entity]} [shape=diamond];")
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
