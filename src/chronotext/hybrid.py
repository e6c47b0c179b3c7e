"""Combined qualitative and metric networks over the same intervals.

A hybrid network keeps an Allen constraint network over intervals next
to a simple temporal problem over their endpoints, in one layout: the
start and end of interval k of `qcn.intervals` are STP points 2k and
2k + 1, any anonymous points follow, and every interval's end - start
lies within (0, inf).  Closure alternates propagation in each layer
with translation across them until neither layer changes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .allen import ALLEN, QCN, Relation, Value, _put, close, format_qcn, scenario_search
from .metric import (
    _ATOM_EDGES,
    BoundWindow,
    POSITIVE,
    STP,
    end_of,
    metric_to_allen,
    start_of,
    stp_close,
)


class HybridNetwork(Value):
    """Immutable pairing of a QCN with an endpoint STP, in the layout above."""

    __slots__ = ("qcn", "stp")

    def __init__(self, qcn: QCN, stp: STP):
        """Pair two built layers.  An STP whose points are in another
        order is reordered (`STP.restricted`, which keeps every bound of a
        permutation), and end - start > 0 is conjoined for each interval
        whose entry does not state it; an STP already in the layout with
        every link is kept as it is, flags included."""
        endpoints = []
        for i in qcn.intervals:
            if not (stp.has_point(start_of(i)) and stp.has_point(end_of(i))):
                raise ValueError(f"interval {i!r} lacks endpoints in the metric layer")
            endpoints += (start_of(i), end_of(i))
        if stp.points[:len(endpoints)] != tuple(endpoints):  # then the rest as they were
            stp = stp.restricted(list(dict.fromkeys(endpoints + list(stp.points))))
        linked, missing = stp._with_edges([(k + 1, k, -1) for k in range(0, len(endpoints), 2)])
        self._set(qcn, linked if missing else stp)

    @classmethod
    def _raw(cls, qcn: QCN, stp: STP) -> "HybridNetwork":
        # no layout check: internal code builds both layers to match
        self = object.__new__(cls)
        _put(self, "qcn", qcn)
        _put(self, "stp", stp)
        return self

    @classmethod
    def build(cls, intervals: Sequence[str],
              allen_constraints: Iterable[tuple[str, Relation, str]] = (),
              metric_constraints: Iterable[tuple[str, str, BoundWindow]] = (),
              anon_points: Sequence[str] = ()) -> "HybridNetwork":
        qcn = QCN.build(intervals, allen_constraints)
        linkage = [(start_of(i), end_of(i), POSITIVE) for i in qcn.intervals]
        points = [p for frm, to, _ in linkage for p in (frm, to)] + list(anon_points)
        stp = STP.build(points, linkage + list(metric_constraints))
        return cls._raw(qcn, stp)

    @property
    def anon_points(self) -> tuple[str, ...]:
        """Every STP point that is not an interval's endpoint."""
        return self.stp.points[2 * len(self.qcn.intervals):]

    @property
    def intervals(self) -> tuple[str, ...]:
        return self.qcn.intervals

    @property
    def inconsistent(self) -> bool:
        return self.qcn.inconsistent or self.stp.inconsistent

    def relation(self, a: str, b: str) -> Relation:
        return self.qcn.cell(a, b)

    def point_window(self, frm: str, to: str) -> BoundWindow:
        return self.stp.window(frm, to)

    def duration_window(self, interval: str) -> BoundWindow:
        return self.stp.window(start_of(interval), end_of(interval))

    def restricted(self, intervals: Sequence[str]) -> "HybridNetwork":
        """Sub-network on the given intervals; anonymous points survive."""
        pts = [p for i in intervals for p in (start_of(i), end_of(i))] + list(self.anon_points)
        return HybridNetwork._raw(self.qcn.restricted(intervals), self.stp.restricted(pts))

    def __repr__(self) -> str:
        flag = " inconsistent" if self.inconsistent else ""
        return f"HybridNetwork(<{len(self.intervals)} intervals>{flag})"


def _export_close(qcn: QCN, stp: STP) -> STP:
    """`stp` with the endpoint edges (`_ATOM_EDGES`) of each atomic cell of
    `qcn`'s upper triangle, over rows 2k, 2k + 1 of interval k, closed: when
    `stp` is minimal, from the entries the export tightened alone, and when
    it is flagged inconsistent, still so."""
    edges = []
    rows = qcn._matrix
    for a, row in enumerate(rows):
        for b in range(a + 1, len(rows)):
            mask = row[b]
            if not mask & (mask - 1):
                pts = (2 * a, 2 * a + 1, 2 * b, 2 * b + 1)
                edges += [(pts[i], pts[j], w) for i, j, w in _ATOM_EDGES[mask.bit_length() - 1]]
    exported, tightened = stp._with_edges(edges)
    return stp_close(exported, changed=tightened if stp.minimal or stp.inconsistent else None)


def hybrid_close(h: HybridNetwork, *,
                 changed: Optional[Sequence[tuple[int, int]]] = None) -> HybridNetwork:
    """Alternate qualitative closure, atom-to-point export, shortest-path
    minimization and point-to-atom import until a fixpoint.

    Inconsistency in either layer is reported as a value: the returned
    network has the offending layer flagged.  Given `changed`, the first
    qualitative closure propagates from its cells (i, j), i < j, alone,
    as `close` does, which requires every other cell to be closed; later
    rounds propagate only from the cells the metric layer tightened.
    Whenever the metric layer is flagged minimal, as it is in every
    round after the first, its closure pivots only on the endpoints of
    the entries the atom export tightened (`stp_close` with `changed`);
    one flagged inconsistent stays so.  Later rounds read back only the
    cells of an interval k whose metric row 2k or 2k + 1 moved since the
    last round (by value: rounds never rescale); the others' read-backs
    are as they were.  A round writes the cells it refines, and their
    converses, into one copy of the qualitative matrix, and builds one
    network from it when the read-back ends.
    """
    qcn, stp = h.qcn, h.stp
    ids = qcn.intervals
    seen = None  # the metric rows the last round read back
    while True:
        qcn = close(qcn, changed=changed)
        if qcn.inconsistent:
            return HybridNetwork._raw(qcn, stp)

        stp = _export_close(qcn, stp)
        if stp.inconsistent:
            return HybridNetwork._raw(qcn, stp)

        # atomic cells were exported above, so the metric layer cannot
        # tighten them; the others keep only the atoms it still admits.
        # The loop reads only the upper triangle of the round's rows, so a
        # refined cell (a, b), a < b, and its converse go to the copy
        e = stp._e
        moved = [seen is None or e[k:k + 2] != seen[k:k + 2] for k in range(0, 2 * len(ids), 2)]
        seen = e
        changed, rows = [], None
        for ai, row in enumerate(qcn._matrix):
            for bi in range(ai + 1, len(ids)):
                mask = row[bi]
                if not (mask & (mask - 1) and (moved[ai] or moved[bi])):
                    continue
                refined = metric_to_allen(stp, ids[ai], ids[bi], Relation(mask)).mask
                if refined != mask:
                    if rows is None:
                        rows = [list(r) for r in qcn._matrix]
                    rows[ai][bi] = refined
                    rows[bi][ai] = ALLEN.converse(refined)
                    changed.append((ai, bi))
        if changed:
            qcn = qcn._raw(ids, rows, qcn._index)
        if qcn.inconsistent or not changed:
            return HybridNetwork._raw(qcn, stp)


class Verdict(tuple):
    """The `(ok, witness)` pair of `hybrid_atomic_consistent`, carrying
    as `closed` the network it searched from, `hybrid_close` of its
    input (flagged inconsistent when that closure already fails)."""

    closed: HybridNetwork

    def __new__(cls, ok: bool, witness: Optional[HybridNetwork], closed: HybridNetwork):
        self = super().__new__(cls, (ok, witness))
        self.closed = closed
        return self


def hybrid_atomic_consistent(h: HybridNetwork, *,
                             changed: Optional[Sequence[tuple[int, int]]] = None) -> Verdict:
    """Search for an atomic scenario of the qualitative layer whose forced
    endpoint constraints are jointly satisfiable with the metric layer.

    The search starts from `hybrid_close(h, changed=changed)`.  The
    refinement is the qualitative search's (`scenario_search`): first
    non-atomic pair in interval order, atoms in canonical order; the
    metric check runs at every fully atomic leaf, which closes the
    root's minimal STP from the entries its atom export tightens.
    """
    start = hybrid_close(h, changed=changed)
    if start.inconsistent:
        return Verdict(False, None, start)

    def leaf(qcn: QCN) -> Optional[HybridNetwork]:
        stp = _export_close(qcn, start.stp)
        return None if stp.inconsistent else HybridNetwork._raw(qcn, stp)

    witness = scenario_search(start.qcn, leaf)
    return Verdict(witness is not None, witness, start)


def format_hybrid(h: HybridNetwork) -> str:
    """The qualitative layer in `format_qcn` form followed by one
    `duration <id> in <window>` line per interval whose duration says
    more than the structural (0, inf)."""
    if h.inconsistent:
        return "inconsistent\n"
    lines = [format_qcn(h.qcn).rstrip("\n")]
    e, index = h.stp._e, h.qcn._index
    for i in sorted(h.intervals):
        s = 2 * index[i]
        if (e[s][s + 1], e[s + 1][s]) != (None, -1):  # (0, inf) at every scale
            lines.append(f"duration {i} in {h.duration_window(i)}")
    return "\n".join(lines) + "\n"
