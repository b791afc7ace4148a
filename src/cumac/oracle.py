"""Independent taint oracle and taint-graph export.

The oracle recomputes which entities end up tainted by breadth-first
reachability over a time-expanded information-flow graph built straight
from the trace in one pass. It runs no engine code: the caller passes the
verdict sequence under test (denied events contribute no edges), and the
structure the edges need (which files exist, which are executable, which
sit on a mobile mount) is kept locally in that pass. Nodes are (entity,
step) pairs so that taint acquired late cannot flow backwards through
earlier events.

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
    entity_sort_key,
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

    adjacency: dict[tuple[str, int], list[tuple[str, int]]] = {}
    last_node: dict[str, tuple[str, int]] = {}
    sources: list[tuple[str, int]] = []

    def node(entity: str, step: int) -> tuple[str, int]:
        # Persistence edge: an entity's earlier node reaches its later one.
        current = (entity, step)
        previous = last_node.get(entity)
        if previous is not None and previous != current:
            adjacency.setdefault(previous, []).append(current)
        last_node[entity] = current
        return current

    def edge(src: tuple[str, int], dst: tuple[str, int]) -> None:
        adjacency.setdefault(src, []).append(dst)

    for ev, verdict in zip(trace.events, verdicts):
        if verdict is Verdict.DENY:
            continue  # denied events contribute no edges
        step = ev.seq
        if isinstance(ev, Fork):
            edge(node(proc_entity(ev.parent_pid), step), node(proc_entity(ev.child_pid), step))
        elif isinstance(ev, Exec):
            file_node = node(file_entity(ev.fid), step)
            if observe_mobile(files[ev.fid]):
                sources.append(file_node)
            edge(file_node, node(proc_entity(ev.pid), step))
        elif isinstance(ev, RemoteComm):
            if not ev.peer_address.startswith(LOOPBACK_PREFIXES):
                sources.append(node(proc_entity(ev.pid), step))
        elif isinstance(ev, Login):
            user = users.get(ev.user)
            if user is None or not user.trusted:
                sources.append(node(proc_entity(ev.pid), step))
        elif isinstance(ev, Ipc):
            a = node(proc_entity(ev.from_pid), step)
            b = node(proc_entity(ev.to_pid), step)
            edge(a, b)
            if ev.channel is IpcChannel.SHARED_MEMORY:
                edge(b, a)
        elif isinstance(ev, Write):
            if files[ev.fid].is_executable:
                edge(node(proc_entity(ev.pid), step), node(file_entity(ev.fid), step))
        elif isinstance(ev, Create):
            if register(ev.new_fid, ev.path, ev.perms, ev.is_directory).is_executable:
                edge(node(proc_entity(ev.pid), step), node(file_entity(ev.new_fid), step))
        elif isinstance(ev, Copy):
            src = files[ev.src_fid]
            src_mobile = observe_mobile(src)
            dst = files.get(ev.dst_fid)
            if dst is None:
                dst = register(ev.dst_fid, ev.dst_path, ev.dst_perms, src.is_directory)
            if dst.is_executable:
                dst_node = node(file_entity(ev.dst_fid), step)
                edge(node(proc_entity(ev.pid), step), dst_node)
                edge(node(file_entity(ev.src_fid), step), dst_node)
                if src_mobile:
                    sources.append(dst_node)
        elif isinstance(ev, Mount):
            mounts[ev.mount_id] = ev.path_prefix
        elif isinstance(ev, Unmount):
            mounts.pop(ev.mount_id, None)
        # Read and PrivOp propagate nothing.

    reached: set[tuple[str, int]] = set()
    queue = deque(n for n in sources if n not in reached)
    reached.update(sources)
    while queue:
        current = queue.popleft()
        for nxt in adjacency.get(current, ()):
            if nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)
    return {entity for entity, _ in reached}


# -- taint-graph export --------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_taint_graph(report: "ReplayReport", trace: Trace) -> str:
    """Render the replayed trace as canonical Graphviz DOT text.

    Entities become nodes (tainted ones red), events become labelled edges
    in sequence order, and denied events show as dashed edges. Output is
    byte-stable for equal inputs.
    """
    tainted = set(report.final_taint)
    proc_nodes: set[str] = {proc_entity(p.pid) for p in trace.header.processes}
    file_labels: dict[str, str] = {
        file_entity(f.fid): f.path for f in trace.header.files
    }
    extra_nodes: set[str] = set()
    edges: list[str] = []

    for ev, decision in zip(report.events, report.decisions):
        denied = decision.verdict is Verdict.DENY
        attrs = [f"label={_dot_quote(f'{ev.seq} {EVENT_VERBS[type(ev)]}')}"]
        if denied:
            attrs.append("style=dashed")
            attrs.append("color=red")
        suffix = f" [{', '.join(attrs)}];"

        def add(src: str, dst: str) -> None:
            edges.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)}{suffix}")

        if isinstance(ev, Fork):
            proc_nodes.add(proc_entity(ev.child_pid))
            add(proc_entity(ev.parent_pid), proc_entity(ev.child_pid))
        elif isinstance(ev, Exec):
            add(file_entity(ev.fid), proc_entity(ev.pid))
        elif isinstance(ev, RemoteComm):
            peer = f"addr:{ev.peer_address}"
            extra_nodes.add(peer)
            add(peer, proc_entity(ev.pid))
        elif isinstance(ev, Login):
            user = f"user:{ev.user}"
            extra_nodes.add(user)
            add(user, proc_entity(ev.pid))
        elif isinstance(ev, Ipc):
            add(proc_entity(ev.from_pid), proc_entity(ev.to_pid))
            if ev.channel is IpcChannel.SHARED_MEMORY:
                add(proc_entity(ev.to_pid), proc_entity(ev.from_pid))
        elif isinstance(ev, Write):
            add(proc_entity(ev.pid), file_entity(ev.fid))
        elif isinstance(ev, Read):
            add(file_entity(ev.fid), proc_entity(ev.pid))
        elif isinstance(ev, Create):
            if not denied:
                file_labels[file_entity(ev.new_fid)] = ev.path
                add(proc_entity(ev.pid), file_entity(ev.new_fid))
        elif isinstance(ev, Copy):
            # A denied copy onto an existing file still shows its edges.
            dst = file_entity(ev.dst_fid)
            if not denied or dst in file_labels:
                file_labels.setdefault(dst, ev.dst_path)
                add(proc_entity(ev.pid), dst)
                add(file_entity(ev.src_fid), dst)
        elif isinstance(ev, PrivOp):
            cap = f"cap:{ev.capability}"
            extra_nodes.add(cap)
            add(proc_entity(ev.pid), cap)
        # Mount/Unmount carry no entity-to-entity flow.

    lines = ["digraph taint_trace {", "  rankdir=LR;"]
    for entity in sorted(proc_nodes, key=entity_sort_key):
        attrs = ["shape=ellipse"]
        if entity in tainted:
            attrs.append("color=red")
            attrs.append("fontcolor=red")
        lines.append(f"  {_dot_quote(entity)} [{', '.join(attrs)}];")
    for entity in sorted(file_labels, key=entity_sort_key):
        attrs = ["shape=box", f"label={_dot_quote(entity + ' ' + file_labels[entity])}"]
        if entity in tainted:
            attrs.append("color=red")
            attrs.append("fontcolor=red")
        lines.append(f"  {_dot_quote(entity)} [{', '.join(attrs)}];")
    for entity in sorted(extra_nodes):
        lines.append(f"  {_dot_quote(entity)} [shape=diamond];")
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
