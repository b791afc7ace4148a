"""Independent taint oracle and taint-graph export.

The oracle recomputes which entities end up tainted by breadth-first
reachability over a time-expanded information-flow graph built straight
from the trace in one pass. It runs no engine code: the caller passes the
verdict sequence under test (denied events contribute no edges), and the
structure the edges need (which files exist, which are executable, which
sit on a mobile mount) is kept locally in that pass. Each node is one
entity at one step, so that taint acquired late cannot flow backwards
through earlier events.

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

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .engine import EngineConfig
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
    """Recompute the final tainted-entity set by graph reachability.

    ``verdicts`` is the verdict sequence of the run under test, one per
    event; ``config`` supplies only the users' trust flags. The cyclic
    garbage collector is paused while the graph is built and searched,
    then left as it was found: the graph holds no reference cycles, so
    collections would only walk it again and again as it grows. It is
    built in its own frame, so it is freed before the collector resumes.
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

    # The time-expanded graph. Nodes are numbered as they appear; node n is
    # one entity at one step, steps[n], and successors[n] lists the nodes
    # it reaches (None while it has none). Processes and files are keyed
    # by id, each kind in its own table of latest nodes.
    steps: list[int] = []
    successors: list[list[int] | None] = []
    latest_proc: dict[int, int] = {}
    latest_file: dict[int, int] = {}
    sources: list[int] = []

    def node(latest: dict[int, int], ident: int, step: int) -> int:
        previous = latest.get(ident)
        if previous is not None and steps[previous] == step:
            return previous
        current = latest[ident] = len(steps)
        steps.append(step)
        successors.append(None)
        if previous is not None:
            # Persistence edge: an entity's earlier node reaches its later one.
            edge(previous, current)
        return current

    def edge(src: int, dst: int) -> None:
        out = successors[src]
        if out is None:
            successors[src] = [dst]
        else:
            out.append(dst)

    for ev, verdict in zip(trace.events, verdicts):
        kind = type(ev)
        if kind is Read or kind is PrivOp or verdict is Verdict.DENY:
            # Reads and privileged operations propagate nothing, and
            # denied events contribute no edges.
            continue
        step = ev.seq
        if kind is Write:
            if files[ev.fid].is_executable:
                edge(node(latest_proc, ev.pid, step), node(latest_file, ev.fid, step))
        elif kind is Fork:
            edge(node(latest_proc, ev.parent_pid, step), node(latest_proc, ev.child_pid, step))
        elif kind is Exec:
            file_node = node(latest_file, ev.fid, step)
            if observe_mobile(files[ev.fid]):
                sources.append(file_node)
            edge(file_node, node(latest_proc, ev.pid, step))
        elif kind is Ipc:
            a = node(latest_proc, ev.from_pid, step)
            b = node(latest_proc, ev.to_pid, step)
            edge(a, b)
            if ev.channel is IpcChannel.SHARED_MEMORY:
                edge(b, a)
        elif kind is Create:
            if register(ev.new_fid, ev.path, ev.perms, ev.is_directory).is_executable:
                edge(node(latest_proc, ev.pid, step), node(latest_file, ev.new_fid, step))
        elif kind is Copy:
            src = files[ev.src_fid]
            src_mobile = observe_mobile(src)
            dst = files.get(ev.dst_fid)
            if dst is None:
                dst = register(ev.dst_fid, ev.dst_path, ev.dst_perms, src.is_directory)
            if dst.is_executable:
                dst_node = node(latest_file, ev.dst_fid, step)
                edge(node(latest_proc, ev.pid, step), dst_node)
                edge(node(latest_file, ev.src_fid, step), dst_node)
                if src_mobile:
                    sources.append(dst_node)
        elif kind is RemoteComm:
            if not ev.peer_address.startswith(LOOPBACK_PREFIXES):
                sources.append(node(latest_proc, ev.pid, step))
        elif kind is Login:
            user = users.get(ev.user)
            if user is None or not user.trusted:
                sources.append(node(latest_proc, ev.pid, step))
        elif kind is Mount:
            mounts[ev.mount_id] = ev.path_prefix
        elif kind is Unmount:
            mounts.pop(ev.mount_id, None)

    reached = bytearray(len(steps))
    for n in sources:
        reached[n] = 1
    queue = deque(sources)
    while queue:
        for nxt in successors[queue.popleft()] or ():
            if not reached[nxt]:
                reached[nxt] = 1
                queue.append(nxt)
    # Persistence edges chain an entity's nodes, so an entity is reached
    # exactly when its latest node is.
    tainted = {proc_entity(pid) for pid, n in latest_proc.items() if reached[n]}
    tainted.update(file_entity(fid) for fid, n in latest_file.items() if reached[n])
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
    through ``_dot_quote``.
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
        denied = decision.verdict is Verdict.DENY
        tail = f' [label="{ev.seq} {EVENT_VERBS[kind]}{_EDGE_ENDINGS[denied]}'
        if kind is Read:
            add(f'  "file:{ev.fid}" -> "proc:{ev.pid}"{tail}')
        elif kind is Write:
            add(f'  "proc:{ev.pid}" -> "file:{ev.fid}"{tail}')
        elif kind is Fork:
            proc_pids.add(ev.child_pid)
            add(f'  "proc:{ev.parent_pid}" -> "proc:{ev.child_pid}"{tail}')
        elif kind is Exec:
            add(f'  "file:{ev.fid}" -> "proc:{ev.pid}"{tail}')
        elif kind is Ipc:
            add(f'  "proc:{ev.from_pid}" -> "proc:{ev.to_pid}"{tail}')
            if ev.channel is IpcChannel.SHARED_MEMORY:
                add(f'  "proc:{ev.to_pid}" -> "proc:{ev.from_pid}"{tail}')
        elif kind is Create:
            if not denied:
                file_labels[ev.new_fid] = ev.path
                add(f'  "proc:{ev.pid}" -> "file:{ev.new_fid}"{tail}')
        elif kind is Copy:
            # A denied copy onto an existing file still shows its edges.
            dst = ev.dst_fid
            if not denied or dst in file_labels:
                file_labels.setdefault(dst, ev.dst_path)
                add(f'  "proc:{ev.pid}" -> "file:{dst}"{tail}')
                add(f'  "file:{ev.src_fid}" -> "file:{dst}"{tail}')
        elif kind is PrivOp:
            add(f'  "proc:{ev.pid}" -> {extra_node(f"cap:{ev.capability}")}{tail}')
        elif kind is RemoteComm:
            add(f'  {extra_node(f"addr:{ev.peer_address}")} -> "proc:{ev.pid}"{tail}')
        elif kind is Login:
            add(f'  {extra_node(f"user:{ev.user}")} -> "proc:{ev.pid}"{tail}')
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
