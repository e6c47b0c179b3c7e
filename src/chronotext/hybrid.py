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
    BoundWindow,
    POSITIVE,
    STP,
    allen_atom_to_points,
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
        object.__setattr__(self, "qcn", qcn)
        object.__setattr__(self, "stp", stp)
        object.__setattr__(self, "anon_points", tuple(anon_points))

    def __setattr__(self, name, value):
        raise AttributeError("HybridNetwork is immutable")

    @classmethod
    def build(cls, intervals: Sequence[str],
              allen_constraints: Iterable[tuple[str, Relation, str]] = (),
              metric_constraints: Iterable[tuple[str, str, BoundWindow]] = (),
              anon_points: Sequence[str] = ()) -> "HybridNetwork":
        qcn = QCN.build(intervals, allen_constraints)
        points = []
        linkage = []
        for i in qcn.intervals:
            points += [start_of(i), end_of(i)]
            linkage.append((start_of(i), end_of(i), POSITIVE))
        points += list(anon_points)
        stp = STP.build(points, linkage + list(metric_constraints))
        return cls(qcn, stp, tuple(anon_points))

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
        return HybridNetwork(self.qcn.with_cell(a, b, r), self.stp, self.anon_points)

    def with_metric(self, constraints: Iterable[tuple[str, str, BoundWindow]]) -> "HybridNetwork":
        return HybridNetwork(self.qcn, self.stp.with_constraints(constraints),
                             self.anon_points)

    def restricted(self, intervals: Sequence[str]) -> "HybridNetwork":
        """Sub-network on the given intervals; anonymous points survive."""
        pts = []
        for i in intervals:
            pts += [start_of(i), end_of(i)]
        pts += [p for p in self.anon_points if self.stp.has_point(p)]
        return HybridNetwork(self.qcn.restricted(intervals),
                             self.stp.restricted(pts), self.anon_points)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HybridNetwork)
                and self.qcn == other.qcn and self.stp == other.stp)

    def __hash__(self) -> int:
        return hash((self.qcn, self.stp))

    def __repr__(self) -> str:
        flag = " inconsistent" if self.inconsistent else ""
        return f"HybridNetwork(<{len(self.intervals)} intervals>{flag})"


def _forced_atom_constraints(qcn: QCN):
    """Endpoint constraints of every atomic cell, upper triangle only."""
    out = []
    ids = qcn.intervals
    for ai, a in enumerate(ids):
        for b in ids[ai + 1:]:
            cell = qcn.cell(a, b)
            if cell.is_atomic:
                (atom,) = cell.atoms
                out.extend(allen_atom_to_points(atom, a, b))
    return out


def hybrid_close(h: HybridNetwork) -> HybridNetwork:
    """Alternate qualitative closure, atom-to-point export, shortest-path
    minimization and point-to-atom import until a fixpoint.

    Inconsistency in either layer is reported as a value: the returned
    network has the offending layer flagged.  After the first round,
    qualitative closure propagates only from the cells the metric layer
    tightened.
    """
    qcn, stp = h.qcn, h.stp
    changed = None
    while True:
        qcn = close(qcn, changed=changed)
        if qcn.inconsistent:
            return HybridNetwork(qcn, stp, h.anon_points)

        stp = stp_close(stp.with_constraints(_forced_atom_constraints(qcn)))
        if stp.inconsistent:
            return HybridNetwork(qcn, stp, h.anon_points)

        # atomic cells were exported above, so the metric layer cannot
        # tighten them; the others keep only the atoms it still admits
        changed = []
        ids = qcn.intervals
        for ai, a in enumerate(ids):
            for bi, b in enumerate(ids[ai + 1:], ai + 1):
                cell = qcn.cell(a, b)
                if cell.is_atomic:
                    continue
                refined = metric_to_allen(stp, a, b, cell)
                if refined != cell:
                    qcn = qcn.with_cell(a, b, refined)
                    changed.append((ai, bi))
        if qcn.inconsistent:
            return HybridNetwork(qcn, stp, h.anon_points)
        if not changed:
            return HybridNetwork(qcn, stp, h.anon_points)


def hybrid_atomic_consistent(h: HybridNetwork) -> tuple[bool, Optional[HybridNetwork]]:
    """Search for an atomic scenario of the qualitative layer whose forced
    endpoint constraints are jointly satisfiable with the metric layer.

    The refinement is the qualitative search's (`scenario_search`): first
    non-atomic pair in interval order, atoms in canonical order; the
    metric check runs at every fully atomic leaf.
    """
    start = hybrid_close(h)
    if start.inconsistent:
        return False, None

    def leaf(qcn: QCN) -> Optional[HybridNetwork]:
        stp = stp_close(start.stp.with_constraints(_forced_atom_constraints(qcn)))
        return None if stp.inconsistent else HybridNetwork(qcn, stp, h.anon_points)

    witness = scenario_search(start.qcn, leaf)
    return (witness is not None), witness


def format_hybrid(h: HybridNetwork) -> str:
    """The qualitative layer in `format_qcn` form followed by one
    `duration <id> in <window>` line per interval whose duration says
    more than the structural (0, inf)."""
    if h.inconsistent:
        return "inconsistent\n"
    lines = [format_qcn(h.qcn).rstrip("\n")]
    for i in sorted(h.intervals):
        w = h.duration_window(i)
        if w != POSITIVE:
            lines.append(f"duration {i} in {w}")
    return "\n".join(lines) + "\n"
