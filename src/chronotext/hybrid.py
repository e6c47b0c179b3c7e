"""Combined qualitative and metric networks over the same intervals.

A hybrid network keeps an Allen constraint network over intervals next
to a simple temporal problem over their endpoints, with the linkage
constraint end - start in (0, inf) for every interval.  Closure
alternates propagation in each layer with translation across them until
neither layer changes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .allen import QCN, Relation, close, format_qcn, scenario_search
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


class HybridNetwork:
    """Immutable pairing of a QCN with an endpoint STP."""

    __slots__ = ("qcn", "stp", "anon_points")

    def __init__(self, qcn: QCN, stp: STP, anon_points: tuple[str, ...] = ()):
        for i in qcn.intervals:
            if not (stp.has_point(start_of(i)) and stp.has_point(end_of(i))):
                raise ValueError(f"interval {i!r} lacks endpoints in the metric layer")
        self._init(qcn, stp, tuple(anon_points))

    def _init(self, qcn: QCN, stp: STP, anon_points: tuple[str, ...]) -> None:
        object.__setattr__(self, "qcn", qcn)
        object.__setattr__(self, "stp", stp)
        object.__setattr__(self, "anon_points", anon_points)

    @classmethod
    def _raw(cls, qcn: QCN, stp: STP, anon_points: tuple[str, ...]) -> "HybridNetwork":
        # skip the endpoint check for parts that trusted internal code
        # built to match: every interval of `qcn` has both endpoints in `stp`
        self = object.__new__(cls)
        self._init(qcn, stp, anon_points)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HybridNetwork is immutable")

    @classmethod
    def build(cls, intervals: Sequence[str],
              allen_constraints: Iterable[tuple[str, Relation, str]] = (),
              metric_constraints: Iterable[tuple[str, str, BoundWindow]] = (),
              anon_points: Sequence[str] = ()) -> "HybridNetwork":
        qcn = QCN.build(intervals, allen_constraints)
        linkage = [(start_of(i), end_of(i), POSITIVE) for i in qcn.intervals]
        points = [p for frm, to, _ in linkage for p in (frm, to)] + list(anon_points)
        stp = STP.build(points, linkage + list(metric_constraints))
        return cls._raw(qcn, stp, tuple(anon_points))

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

    def with_relation(self, a: str, b: str, r: Relation) -> "HybridNetwork":
        return HybridNetwork._raw(self.qcn.with_cell(a, b, r), self.stp, self.anon_points)

    def with_metric(self, constraints: Iterable[tuple[str, str, BoundWindow]]) -> "HybridNetwork":
        return HybridNetwork._raw(self.qcn, self.stp.with_constraints(constraints),
                                  self.anon_points)

    def restricted(self, intervals: Sequence[str]) -> "HybridNetwork":
        """Sub-network on the given intervals; anonymous points survive."""
        pts = [p for i in intervals for p in (start_of(i), end_of(i))]
        pts += [p for p in self.anon_points if self.stp.has_point(p)]
        return HybridNetwork._raw(self.qcn.restricted(intervals),
                                  self.stp.restricted(pts), self.anon_points)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HybridNetwork)
                and self.qcn == other.qcn and self.stp == other.stp)

    def __hash__(self) -> int:
        return hash((self.qcn, self.stp))

    def __repr__(self) -> str:
        flag = " inconsistent" if self.inconsistent else ""
        return f"HybridNetwork(<{len(self.intervals)} intervals>{flag})"


def _endpoint_indices(h: HybridNetwork) -> list[tuple[int, int]]:
    """Per interval, the STP indices of its start and end points."""
    index = h.stp._index
    return [(index[start_of(i)], index[end_of(i)]) for i in h.intervals]


def _forced_atom_edges(qcn: QCN, ends: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The encoded endpoint edges (`_ATOM_EDGES`) of every atomic cell,
    upper triangle only, over the STP indices `ends` of each interval."""
    out = []
    rows = qcn._matrix
    for a, row in enumerate(rows):
        for b in range(a + 1, len(rows)):
            mask = row[b]
            if not mask & (mask - 1):
                pts = ends[a] + ends[b]
                out += [(pts[i], pts[j], w) for i, j, w in _ATOM_EDGES[mask.bit_length() - 1]]
    return out


def _export_close(qcn: QCN, stp: STP, ends: list[tuple[int, int]]) -> STP:
    """`stp` with the atomic cells of `qcn` exported, closed: when `stp`
    is minimal, from the entries the export tightened alone, and when it
    is flagged inconsistent, still so."""
    exported, tightened = stp._with_edges(_forced_atom_edges(qcn, ends))
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
    cells with an endpoint whose metric row moved since the last round
    (by value: rounds never rescale); the others' read-backs are as they were.
    """
    qcn, stp = h.qcn, h.stp
    ends = _endpoint_indices(h)
    seen = None  # the metric rows the last round read back
    while True:
        qcn = close(qcn, changed=changed)
        if qcn.inconsistent:
            return HybridNetwork._raw(qcn, stp, h.anon_points)

        stp = _export_close(qcn, stp, ends)
        if stp.inconsistent:
            return HybridNetwork._raw(qcn, stp, h.anon_points)

        # atomic cells were exported above, so the metric layer cannot
        # tighten them; the others keep only the atoms it still admits
        # (_with_mask changes no cell the loop has yet to read)
        e = stp._e
        moved = [seen is None or e[i] != seen[i] or e[j] != seen[j] for i, j in ends]
        seen = e
        changed = []
        ids = qcn.intervals
        for ai, row in enumerate(qcn._matrix):
            for bi in range(ai + 1, len(ids)):
                mask = row[bi]
                if not (mask & (mask - 1) and (moved[ai] or moved[bi])):
                    continue
                refined = metric_to_allen(stp, ids[ai], ids[bi], Relation(mask))
                if refined.mask != mask:
                    qcn = qcn._with_mask(ai, bi, refined.mask)
                    changed.append((ai, bi))
        if qcn.inconsistent or not changed:
            return HybridNetwork._raw(qcn, stp, h.anon_points)


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

    ends = _endpoint_indices(start)

    def leaf(qcn: QCN) -> Optional[HybridNetwork]:
        stp = _export_close(qcn, start.stp, ends)
        return None if stp.inconsistent else HybridNetwork._raw(qcn, stp, h.anon_points)

    witness = scenario_search(start.qcn, leaf)
    return Verdict(witness is not None, witness, start)


def format_hybrid(h: HybridNetwork) -> str:
    """The qualitative layer in `format_qcn` form followed by one
    `duration <id> in <window>` line per interval whose duration says
    more than the structural (0, inf)."""
    if h.inconsistent:
        return "inconsistent\n"
    lines = [format_qcn(h.qcn).rstrip("\n")]
    e, index = h.stp._e, h.stp._index
    for i in sorted(h.intervals):
        s, t = index[start_of(i)], index[end_of(i)]
        if (e[s][t], e[t][s]) != (None, -1):  # (0, inf) at every scale
            lines.append(f"duration {i} in {h.duration_window(i)}")
    return "\n".join(lines) + "\n"
