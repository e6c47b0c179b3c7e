"""Workflow export: turn closed scenario networks into an operational
flow graph.

An action precedes another when the closed Allen cell between them is a
nonempty subset of {b, m}; anything less committed leaves the pair
parallel.  The precedence order is transitively reduced, groups of
actions sharing all reduced neighbours collapse into and-split/and-join
bands, repetition markers wrap their targets in loop nodes, and
alternative scenarios hang side by side between one xor-split/xor-join
pair.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .allen import Relation, Value
from .hybrid import HybridNetwork, hybrid_close
from .recipe import Recipe, RepetitionMarker, encode_recipe

_NOT_BM = ~Relation.parse("{b,m}").mask

_KINDS = ("action", "and-split", "and-join", "xor-split", "xor-join",
          "loop", "no-op")


class WorkflowNode(Value):
    __slots__ = ("id", "kind", "label")

    def __init__(self, id: str, kind: str, label: str = ""):
        if kind not in _KINDS:
            raise ValueError(f"bad node kind {kind!r}")
        self._set(id, kind, label)


class WorkflowGraph(Value):
    """Nodes, directed edges (style "" for flow, "back" for loop
    returns) and the loop-body membership used for rendering."""

    __slots__ = ("nodes", "edges", "loops")

    def __init__(self, nodes: tuple[WorkflowNode, ...], edges: tuple[tuple[str, str, str], ...],
                 loops: tuple[tuple[str, tuple[str, ...]], ...] = ()):
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node id")
        known = set(ids)
        for frm, to, style in edges:
            if frm not in known or to not in known:
                raise ValueError(f"edge endpoint missing: {frm} -> {to}")
            if style not in ("", "back"):
                raise ValueError(f"bad edge style {style!r}")
        for head, body in loops:
            if head not in known or not set(body) <= known:
                raise ValueError("loop body mentions unknown node")
        self._set(nodes, edges, loops)

    def node(self, id_: str) -> WorkflowNode:
        return next(n for n in self.nodes if n.id == id_)


def _precedence(h: HybridNetwork) -> dict[str, set[str]]:
    ids = h.intervals
    after = {a: {b for b, cell in zip(ids, row) if cell and not cell & _NOT_BM}
             for a, row in zip(ids, h.qcn._matrix)}
    # {e} diagonals and converse mirror cells leave only transitivity to check
    if any(not after[b] <= after[a] for a in ids for b in after[a]):
        raise ValueError("precedence is not transitive")
    return after


def _loop_label(m: RepetitionMarker, guards: Mapping[str, str]) -> str:
    if m.mode == "sporadic":
        return f"sporadic in {m.ref}"
    if m.mode == "alternation":
        return f"alternate with {m.ref}"
    if m.count is not None:
        return f"repeat {m.count} times"
    return f"until {guards.get(m.ref, m.ref)}"


def _scenario_flow(h: HybridNetwork, markers: Sequence[RepetitionMarker],
                   prefix: str, guards: Mapping[str, str]):
    """One scenario's internal flow; returns nodes, edges, loop bodies
    and the attachment frontiers: the heads of the actions with no
    reduced predecessor and the tails of those with no reduced successor."""
    ids = list(h.intervals)
    after = _precedence(h)
    # the transitive reduction: what follows a, but follows nothing after a
    succs = {a: frozenset(after[a].difference(*(after[c] for c in after[a]))) for a in ids}
    preds = {a: frozenset(x for x in ids if a in succs[x]) for a in ids}

    marked = {m.target: m for m in markers if m.target in after}

    groups: dict[tuple[frozenset, frozenset], list[str]] = {}
    for a in ids:
        if a in marked or (not preds[a] and not succs[a]):
            continue
        groups.setdefault((preds[a], succs[a]), []).append(a)
    bands = sorted((sorted(members) for members in groups.values()
                    if len(members) > 1))

    nodes = [WorkflowNode(prefix + a, "action", a) for a in ids]
    edges: set[tuple[str, str, str]] = set()
    loops: list[tuple[str, tuple[str, ...]]] = []

    head = {a: prefix + a for a in ids}  # where incoming flow enters
    tail = {a: prefix + a for a in ids}  # where outgoing flow leaves
    for k, members in enumerate(bands, start=1):
        split = WorkflowNode(f"{prefix}and-split:{k}", "and-split")
        join = WorkflowNode(f"{prefix}and-join:{k}", "and-join")
        nodes += [split, join]
        for a in members:
            head[a] = split.id
            tail[a] = join.id
            edges |= {(split.id, prefix + a, ""), (prefix + a, join.id, "")}
    for target, marker in marked.items():
        loop = WorkflowNode(f"{prefix}loop:{target}", "loop",
                            _loop_label(marker, guards))
        nodes.append(loop)
        head[target] = tail[target] = loop.id
        body = [prefix + target]
        edges |= {(loop.id, prefix + target, ""),
                  (prefix + target, loop.id, "back")}
        if marker.mode in ("sporadic", "alternation"):
            noop = WorkflowNode(f"{prefix}noop:{target}", "no-op", "no-op")
            nodes.append(noop)
            body.append(noop.id)
            edges |= {(loop.id, noop.id, ""), (noop.id, loop.id, "back")}
        loops.append((loop.id, tuple(body)))

    edges |= {(tail[a], head[b], "") for a in ids for b in succs[a]}

    minimal = sorted({head[a] for a in ids if not preds[a]})
    maximal = sorted({tail[a] for a in ids if not succs[a]})
    return nodes, edges, loops, minimal, maximal


def to_workflow(scenarios: Sequence[tuple[str, HybridNetwork]],
                markers: Sequence[RepetitionMarker] = (),
                guards: Optional[Mapping[str, str]] = None) -> WorkflowGraph:
    """Merge closed, action-only scenario networks into one workflow
    graph with a single source and sink.  One scenario hangs between
    them; several hang between an xor-split and an xor-join, with ids
    prefixed by their label, each entered (left) through its own
    and-split (and-join) when it has several first (last) nodes."""
    guards = guards or {}
    scenarios = [(label, h) for label, h in scenarios if h.intervals]
    nodes = [WorkflowNode("source", "no-op", "source"),
             WorkflowNode("sink", "no-op", "sink")]
    edges: set[tuple[str, str, str]] = set()
    loops: list[tuple[str, tuple[str, ...]]] = []
    split, join, several = "source", "sink", len(scenarios) > 1
    if several:
        split, join = "xor-split", "xor-join"
        nodes += [WorkflowNode(split, split, "xor"),
                  WorkflowNode(join, join, "xor")]
        edges |= {("source", split, ""), (join, "sink", "")}
    elif not scenarios:
        edges.add(("source", "sink", ""))
    for label, h in scenarios:
        prefix = f"{label}:" if several else ""
        sub_nodes, sub_edges, sub_loops, minimal, maximal = _scenario_flow(
            h, markers, prefix, guards)
        nodes += sub_nodes
        edges |= sub_edges
        loops += sub_loops
        enter, leave = split, join
        if several and len(minimal) > 1:
            enter = f"{prefix}enter"
            nodes.append(WorkflowNode(enter, "and-split"))
            edges.add((split, enter, ""))
        if several and len(maximal) > 1:
            leave = f"{prefix}leave"
            nodes.append(WorkflowNode(leave, "and-join"))
            edges.add((leave, join, ""))
        edges |= {(enter, n, "") for n in minimal}
        edges |= {(n, leave, "") for n in maximal}

    return WorkflowGraph(tuple(sorted(nodes, key=lambda n: n.id)),
                         tuple(sorted(edges)), tuple(sorted(loops)))


def recipe_workflow(r: Recipe) -> WorkflowGraph:
    """Encode, close and restrict every scenario of a recipe, then
    export the merged workflow."""
    actions = {n.id for n in r.preliminaries + r.steps}
    closed = []
    for label, h in encode_recipe(r):
        ch = hybrid_close(h)
        if ch.inconsistent:
            raise ValueError(f"scenario {label!r} is inconsistent")
        keep = [i for i in ch.intervals if i in actions]
        closed.append((label, ch.restricted(keep)))
    guards = {s.id: s.predicate for s in r.states}
    return to_workflow(closed, r.markers, guards)


# ---------------------------------------------------------------------------
# rendering

_SHAPE = {
    "action": 'shape=box',
    "and-split": 'shape=box, style=filled',
    "and-join": 'shape=box, style=filled',
    "xor-split": 'shape=diamond',
    "xor-join": 'shape=diamond',
    "loop": 'shape=diamond, style=rounded',
    "no-op": 'shape=circle',
}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _node_line(n: WorkflowNode, indent: str) -> str:
    return (f"{indent}{_quote(n.id)} [{_SHAPE[n.kind]}, "
            f"label={_quote(n.label)}];")


def emit_dot(w: WorkflowGraph) -> str:
    """Deterministic Graphviz text: nodes sorted by id, loop bodies in
    clusters, one sorted edge per line, back edges dashed."""
    inner = {member for _, body in w.loops for member in body}
    lines = ["digraph workflow {", "  rankdir=LR;"]
    for n in w.nodes:
        if n.id not in inner:
            lines.append(_node_line(n, "  "))
    for head, body in w.loops:
        lines.append(f"  subgraph {_quote('cluster:' + head)} {{")
        for member in sorted(body):
            lines.append(_node_line(w.node(member), "    "))
        lines.append("  }")
    for frm, to, style in w.edges:
        dashed = " [style=dashed]" if style == "back" else ""
        lines.append(f"  {_quote(frm)} -> {_quote(to)}{dashed};")
    lines.append("}")
    return "\n".join(lines) + "\n"
