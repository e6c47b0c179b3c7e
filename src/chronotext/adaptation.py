"""Revision-based adaptation: substitute an ingredient by removing its
actions from the network, grafting a domain-knowledge sub-network onto
anchor nodes, and restoring consistency while keeping as much of the
original recipe as possible.

Constraints carry provenance tags.  Domain knowledge is hard and is
never touched; recipe constraints are soft and may be relaxed (replaced
by the tautology) when they conflict with the knowledge.  `revise`
retains a cardinality-maximal consistent soft subset, breaking ties
toward lexicographically smaller constraint ids.  Edits mapping the
outcome back onto the source text are span-based only.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .allen import FULL_MASK, Relation, Value, _put
from .annotation import RecipeSyntaxError, parse_dsl
from .hybrid import HybridNetwork, hybrid_atomic_consistent
from .metric import (
    POSITIVE,
    BoundWindow,
    ScaleBoundExceeded,
    _close_with,
    end_of,
    start_of,
)
from .recipe import (
    _ENDPOINT_SUFFIXES,
    _R5,
    ActionNode,
    Recipe,
    StateNode,
    TimerNode,
    _node_id,
    _scenario_builder,
    _scenario_intervals,
)

MAX_REVISION_SOFT = 24


def _negated(w: BoundWindow) -> BoundWindow:
    return BoundWindow(None if w.hi is None else -w.hi,
                       None if w.lo is None else -w.lo,
                       w.hi_strict, w.lo_strict)


class TaggedConstraint(Value):
    """One constraint with provenance.  The id is deterministic: the
    two endpoint ids in lexicographic order plus the provenance layer,
    so identical pipelines always produce identical ids."""

    __slots__ = ("id", "kind", "frm", "to", "cell", "window", "provenance")

    def __init__(self, id: str, kind: str, frm: str, to: str, cell: Optional[Relation] = None,
                 window: Optional[BoundWindow] = None, provenance: str = "recipe-soft"):
        if provenance not in ("domain-hard", "recipe-soft"):
            raise ValueError(f"bad provenance {provenance!r}")
        if kind == "allen":
            if cell is None or window is not None:
                raise ValueError("allen constraint needs a cell only")
        elif kind == "metric":
            if window is None or cell is not None:
                raise ValueError("metric constraint needs a window only")
        else:
            raise ValueError(f"bad kind {kind!r}")
        _put(self, "id", id)
        _put(self, "kind", kind)
        _put(self, "frm", frm)
        _put(self, "to", to)
        _put(self, "cell", cell)
        _put(self, "window", window)
        _put(self, "provenance", provenance)

    # the id's layer is the provenance's last word, "hard" or "soft"
    @classmethod
    def allen(cls, a: str, cell: Relation, b: str, provenance: str) -> "TaggedConstraint":
        if b < a:
            a, b, cell = b, a, cell.converse()
        return cls(f"{a}~{b}:{provenance.partition('-')[2]}", "allen", a, b,
                   cell=cell, provenance=provenance)

    @classmethod
    def metric(cls, frm: str, to: str, window: BoundWindow, provenance: str) -> "TaggedConstraint":
        if to < frm:
            frm, to, window = to, frm, _negated(window)
        return cls(f"{frm}~{to}:{provenance.partition('-')[2]}", "metric", frm, to,
                   window=window, provenance=provenance)

    def __str__(self) -> str:
        body = (f"{self.frm} {self.cell} {self.to}" if self.kind == "allen"
                else f"{self.to} - {self.frm} in {self.window}")
        return f"[{self.id}] {body}"


class TaggedNetwork(Value):
    """A hybrid network held as individually addressable constraints.

    `network` is the network of `intervals`, `anon_points` and
    `constraints`, built on each read.  `constraints` are kept in id
    order, the order `revise` walks them in.  `new_nodes` lists injected
    action nodes as (id, label) pairs and `anchors` the recipe nodes the
    knowledge attaches to; both exist so revision outcomes can be mapped
    back onto the source text.
    """

    __slots__ = ("intervals", "constraints", "anon_points", "new_nodes", "anchors")

    def __init__(self, intervals: Sequence[str], constraints: Iterable[TaggedConstraint],
                 anon_points: Sequence[str] = (), new_nodes: Sequence[tuple[str, str]] = (),
                 anchors: Sequence[str] = ()):
        constraints = tuple(sorted(constraints, key=lambda c: c.id))
        ids = [c.id for c in constraints]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate constraint id {dup!r}")
        self._set(tuple(intervals), constraints, tuple(anon_points), tuple(new_nodes),
                  tuple(anchors))

    @property
    def network(self) -> HybridNetwork:
        return _network_from(self.intervals, self.anon_points, self.constraints)


def _network_from(intervals: Sequence[str], anon_points: Sequence[str],
                  constraints: Sequence[TaggedConstraint]) -> HybridNetwork:
    allen = [(c.frm, c.cell, c.to) for c in constraints if c.kind == "allen"]
    metric = [(c.frm, c.to, c.window) for c in constraints if c.kind == "metric"]
    return HybridNetwork.build(intervals, allen, metric, anon_points)


def _merged(triples: Iterable[tuple[str, Relation, str]], provenance: str) -> list[TaggedConstraint]:
    """One Allen constraint per pair, as a network build makes its cell: a
    pair stated twice holds both; reading the network checks any self-constraint."""
    out: dict[str, TaggedConstraint] = {}
    for a, rel, b in triples:
        c = TaggedConstraint.allen(a, rel, b, provenance)
        if c.id in out:
            c = c.replace(cell=c.cell & out[c.id].cell)
        out[c.id] = c
    return list(out.values())


def _windows(triples: Iterable[tuple[str, str, BoundWindow]],
             provenance: str) -> list[TaggedConstraint]:
    """One metric constraint per (start, end) pair, as a network build
    makes it: the windows stated on the pair, conjoined with end - start
    > 0; a pair left at exactly that says nothing more."""
    out: dict[tuple[str, str], BoundWindow] = {}
    for start, end, w in triples:
        if (start, end) in out or w.lo is None or w.lo <= 0:  # else w is in (0, inf)
            w = out.get((start, end), POSITIVE).intersect(w)
        if w is None:
            raise ValueError(f"pair {end!r}/{start!r} admits no value; close the network")
        out[start, end] = w
    return [TaggedConstraint.metric(start, end, w, provenance)
            for (start, end), w in out.items() if w != POSITIVE]


# ---------------------------------------------------------------------------
# domain knowledge

class DomainKnowledge(Value):
    """A named sub-network to graft onto a recipe: new nodes, hard
    constraints among them and toward anchors, plus the entities the
    substitution removes.  `lines` maps each node id to the `.know` line
    declaring it, when the knowledge was parsed from text."""

    __slots__ = ("name", "removals", "anchors", "steps", "states", "timers", "relations",
                 "durations", "until_links", "lines")

    def __init__(self, name: str, removals: tuple[str, ...] = (),
                 anchors: tuple[str, ...] = (), steps: tuple[ActionNode, ...] = (),
                 states: tuple[StateNode, ...] = (), timers: tuple[TimerNode, ...] = (),
                 relations: tuple[tuple[str, Relation, str], ...] = (),
                 durations: tuple[tuple[str, BoundWindow], ...] = (),
                 until_links: tuple[tuple[str, str], ...] = (),
                 lines: tuple[tuple[str, int], ...] = ()):
        new = [_node_id(n.id) for n in steps + states + timers]
        if len(set(new)) != len(new):
            raise ValueError("duplicate node id in knowledge")
        known = set(new) | set(anchors)
        for a, _, b in relations:
            if a not in known or b not in known:
                missing = a if a not in known else b
                raise ValueError(f"relation mentions unknown id {missing!r}")
            if a not in set(new) and b not in set(new):
                raise ValueError(f"relation {a!r}/{b!r} touches no knowledge node")
        for nid, _ in list(durations) + list(until_links):
            if nid not in set(new):
                raise ValueError(f"duration/link on unknown node {nid!r}")
        for _, sid in until_links:
            if sid not in known:
                raise ValueError(f"until link to unknown id {sid!r}")
        self._set(name, removals, anchors, steps, states, timers, relations, durations,
                  until_links, lines)

    def new_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.steps + self.timers + self.states)


def parse_knowledge(source: str) -> DomainKnowledge:
    """Parse the knowledge file format: a `knowledge "<name>"` header,
    then `anchor`, `remove`, `step`, `timer` and `rel` lines in the
    recipe DSL's line grammar (`parse_dsl`), steps taking only `for` and
    `until` clauses.  Knowledge steps are not chained: only the stated
    relations hold."""
    name, f = parse_dsl(source, "knowledge")
    return DomainKnowledge(name, **{n: f[n] for n in DomainKnowledge.__slots__[1:]})


def inject(intervals: Sequence[str], soft: Iterable[TaggedConstraint], k: DomainKnowledge,
           anon_points: Sequence[str] = ()) -> TaggedNetwork:
    """Graft the knowledge sub-network onto a recipe: its intervals and
    its recipe-soft constraints (a network with no recipe tags its own
    with `TaggedConstraint.allen` and `.metric`).  The knowledge
    constraints are tagged domain-hard.  No network is built here: the
    ids the constraints name and their consistency are revise's job."""
    existing = set(intervals)
    for a in k.anchors:
        if a not in existing:
            raise KeyError(f"anchor {a!r} not in network")
    new_ids = k.new_ids()
    clash = existing & set(new_ids)
    if clash:
        nid = min(clash)
        raise RecipeSyntaxError(f"knowledge node {nid!r} already in network",
                                dict(k.lines).get(nid))

    hard = _merged(list(k.relations) + [(x, _R5, s) for x, s in k.until_links], "domain-hard")
    hard += _windows([(start_of(nid), end_of(nid), w)
                      for nid, w in list(k.durations) + [(t.id, t.window) for t in k.timers]],
                     "domain-hard")
    labels = tuple((s.id, " ".join((s.verb,) + s.objects)) for s in k.steps)
    return TaggedNetwork(tuple(intervals) + new_ids, [*soft, *hard], anon_points, labels,
                         k.anchors)


# ---------------------------------------------------------------------------
# revision

class RevisionResult(Value):
    __slots__ = ("revised", "retained", "relaxed", "witness", "tagged")

    def __init__(self, revised: HybridNetwork, retained: tuple[str, ...],
                 relaxed: tuple[str, ...], witness: HybridNetwork, tagged: TaggedNetwork):
        self._set(revised, retained, relaxed, witness, tagged)


def _witness_keeps(witness: HybridNetwork, c: TaggedConstraint) -> Optional[HybridNetwork]:
    """The witness of conjoining `c` when the atomic `witness` already
    satisfies it, else None: the witness itself when its atom lies in an
    Allen cell, and its minimal STP closed with a metric window when that
    is consistent, exactly when the window meets the minimal one."""
    if c.kind == "allen":
        return witness if witness.relation(c.frm, c.to) <= c.cell else None
    stp = _close_with(witness.stp, c.frm, c.to, c.window)
    return None if stp.inconsistent else HybridNetwork._raw(witness.qcn, stp)


def revise(t: TaggedNetwork) -> RevisionResult:
    """Retain a maximum-cardinality subset of the soft constraints that
    is consistent together with all hard ones; relaxed constraints are
    simply absent from the revised network (the tautology).

    Ties break toward keeping lexicographically smaller ids, realized
    by an include-first depth-first search in ascending id order with
    cardinality bounding.  Each search node keeps its witness, the first
    atomic scenario of the scenario search that realizes its chosen set,
    and the closed network of its last check.  A candidate the witness
    satisfies (`_witness_keeps`) is included with no check: closure
    removes only atoms and values no realization uses, so the check
    would return that same scenario.  Its conjunction is deferred: the
    next check conjoins every pending constraint into the closed network
    in one pass, intersecting Allen cells and closing from their pairs,
    conjoining metric windows and re-closing the STP from their entries.
    That reaches the closure of the hard constraints plus the candidate
    set, a unique greatest fixpoint, so verdicts and witnesses are those
    of checking that set rebuilt.  `t.network` is read once, for the
    first check; when nothing is relaxed, that network of all the tagged
    constraints is the revised network.
    """
    network, intervals, anon = t.network, t.intervals, t.anon_points
    hard = [c for c in t.constraints if c.provenance == "domain-hard"]
    soft = [c for c in t.constraints if c.provenance == "recipe-soft"]

    def result_for(chosen, witness):
        retained = tuple(c.id for c in chosen)
        relaxed = tuple(sorted(set(c.id for c in soft) - set(retained)))
        return RevisionResult(_network_from(intervals, anon, hard + chosen),
                              retained, relaxed, witness, t)

    ok, witness = hybrid_atomic_consistent(network)
    if ok:
        return RevisionResult(network, tuple(c.id for c in soft), (), witness, t)

    if len(soft) > MAX_REVISION_SOFT:
        raise ScaleBoundExceeded(
            f"{len(soft)} soft constraints exceed the revision bound "
            f"of {MAX_REVISION_SOFT}")
    root = hybrid_atomic_consistent(_network_from(intervals, anon, hard))
    ok, base_witness = root
    if not ok:
        raise ValueError("domain knowledge is self-contradictory")

    cells = network.qcn._index

    def check(closed: HybridNetwork, pending: list[TaggedConstraint]):
        qcn, stp, changed = closed.qcn, closed.stp, []
        for c in pending:
            if c.kind == "allen":
                qcn = qcn.with_cell(c.frm, c.to, qcn.cell(c.frm, c.to) & c.cell)
                changed.append(tuple(sorted((cells[c.frm], cells[c.to]))))
            else:
                stp = _close_with(stp, c.frm, c.to, c.window)
        return hybrid_atomic_consistent(HybridNetwork._raw(qcn, stp), changed=changed)

    best: Optional[list[TaggedConstraint]] = None
    best_witness = base_witness

    def dfs(i, chosen, closed, witness, pending):
        nonlocal best, best_witness
        ceiling = len(chosen) + len(soft) - i
        if best is not None and ceiling <= len(best):
            return
        if i == len(soft):
            best = list(chosen)
            best_witness = witness
            return
        c = soft[i]
        kept = _witness_keeps(witness, c)
        if kept is not None:
            dfs(i + 1, chosen + [c], closed, kept, pending + [c])
        else:
            verdict = check(closed, pending + [c])
            if verdict[0]:
                dfs(i + 1, chosen + [c], verdict.closed, verdict[1], [])
        dfs(i + 1, chosen, closed, witness, pending)

    dfs(0, [], root.closed, base_witness, [])
    return result_for(best, best_witness)


def format_revision(r: RevisionResult) -> str:
    lines = [f"retained {len(r.retained)} of {len(r.retained) + len(r.relaxed)}"
             " soft constraints"]
    lines += [f"  kept    {cid}" for cid in r.retained]
    lines += [f"  relaxed {cid}" for cid in r.relaxed]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# text edits

class Edit(Value):
    __slots__ = ("span", "op", "payload")  # op: "delete" | "insert-after" | "flag-review"

    def __init__(self, span: tuple[int, int], op: str, payload: str = ""):
        self._set(span, op, payload)


_OP_ORDER = {"delete": 0, "insert-after": 1, "flag-review": 2}


def _span_table(r: Recipe) -> dict[str, tuple[int, int]]:
    return {n.id: n.span for n in r.preliminaries + r.steps + r.states if n.span is not None}


def _interval_of_point(p: str) -> str:
    return p.rpartition(".")[0] if p.endswith(_ENDPOINT_SUFFIXES) else p


def adapt_text_edits(result: RevisionResult, source: Recipe) -> tuple[Edit, ...]:
    """Map a revision of the base scenario back onto the recipe text as
    span-based edits: deletions for the nodes it dropped, insert-after
    markers carrying the injected node labels at the first anchor, and
    review flags on the spans of relaxed constraints.  No text is generated."""
    spans = _span_table(source)
    present = set(result.revised.intervals)
    base = _scenario_intervals(source, {m for br in source.branches for m in br.members})
    edits = [Edit(spans[nid], "delete") for nid in base if nid not in present and nid in spans]

    anchor_span = next((spans[a] for a in result.tagged.anchors if a in spans),
                       None)
    if anchor_span is not None:
        for nid, label in result.tagged.new_nodes:
            if nid in present:
                edits.append(Edit(anchor_span, "insert-after", label))

    by_id = {c.id: c for c in result.tagged.constraints}
    for cid in result.relaxed:
        c = by_id[cid]
        ends = (c.frm, c.to) if c.kind == "allen" else (
            _interval_of_point(c.frm), _interval_of_point(c.to))
        flagged = sorted(spans[e] for e in ends if e in spans)
        if flagged:
            edits.append(Edit(flagged[0], "flag-review", cid))

    return tuple(sorted(edits, key=lambda e: (e.span, _OP_ORDER[e.op],
                                              e.payload)))


def adapt_recipe(r: Recipe, k: DomainKnowledge) -> tuple[RevisionResult,
                                                         tuple[Edit, ...]]:
    """Whole pipeline on the base scenario, listed and never built alone:
    drop the substituted entities, make the recipe-soft constraints from
    the rest as a network of them holds them, inject the knowledge,
    revise, map to edits.  Any branch's contradiction or self-constraint
    that excludes equality raises as in `check`, before a bad removal."""
    intervals, allen, metric = _scenario_builder(r)(chosen=())
    gone = set(k.removals)
    if not gone.issubset(intervals):
        raise KeyError(f"unknown id {min(gone.difference(intervals))!r}")
    soft = [c for c in _merged(allen, "recipe-soft")
            if c.cell.mask != FULL_MASK and c.frm not in gone and c.to not in gone]
    soft += _windows([m for m in metric if _interval_of_point(m[0]) not in gone], "recipe-soft")
    result = revise(inject([i for i in intervals if i not in gone], soft, k))
    return result, adapt_text_edits(result, r)


def format_edits(edits: Iterable[Edit]) -> str:
    lines = [f"{e.span[0]}..{e.span[1]} {e.op}"
             + (f" {e.payload}" if e.payload else "")
             for e in edits]
    return "\n".join(lines) + ("\n" if lines else "")
