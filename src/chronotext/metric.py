"""Metric constraints over time points: bound windows, simple temporal
problems (STP), their disjunctive extension (TCSP), and the two
translations that connect interval relations to endpoint constraints.

All quantities are exact rationals in canonical units of minutes.
Strict inequalities are carried as explicit flags.  The one
shortest-path routine runs on an exact integer encoding of the
(value, strictness) bounds, with strictness a -1 offset below a
multiplier larger than the number of points; there are no epsilon
approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Iterable, Optional, Sequence

from .allen import FULL_MASK, BaseRelation, Relation


class ScaleBoundExceeded(ValueError):
    """An instance is larger than the supported desk-scale search bound."""


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class BoundWindow:
    """An interval of admissible values for a point difference, with
    per-bound strictness; None means unbounded on that side."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    lo_strict: bool = False
    hi_strict: bool = False

    def __post_init__(self):
        lo = None if self.lo is None else _frac(self.lo)
        hi = None if self.hi is None else _frac(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # infinite bounds are open by convention
        if lo is None:
            object.__setattr__(self, "lo_strict", True)
        if hi is None:
            object.__setattr__(self, "hi_strict", True)
        if lo is not None and hi is not None:
            if lo > hi:
                raise ValueError(f"empty window: lo {lo} > hi {hi}")
            if lo == hi and (self.lo_strict or self.hi_strict):
                raise ValueError("a zero-width window must be closed on both sides")

    @classmethod
    def closed(cls, lo, hi) -> "BoundWindow":
        return cls(_frac(lo), _frac(hi))

    @classmethod
    def exact(cls, v) -> "BoundWindow":
        v = _frac(v)
        return cls(v, v)

    @classmethod
    def above(cls, lo, strict: bool = True) -> "BoundWindow":
        return cls(_frac(lo), None, lo_strict=strict)

    @classmethod
    def at_most(cls, hi, lo=0, lo_strict: bool = True, hi_strict: bool = False) -> "BoundWindow":
        return cls(_frac(lo), _frac(hi), lo_strict=lo_strict, hi_strict=hi_strict)

    @property
    def unbounded(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, v) -> bool:
        v = _frac(v)
        if self.lo is not None and (v < self.lo or (v == self.lo and self.lo_strict)):
            return False
        if self.hi is not None and (v > self.hi or (v == self.hi and self.hi_strict)):
            return False
        return True

    def intersect(self, other: "BoundWindow") -> Optional["BoundWindow"]:
        """The common window, or None when the overlap is empty."""
        (f1, b1), (f2, b2) = _window_to_bounds(self), _window_to_bounds(other)
        return _bounds_to_window(_btighter(f1, f2), _btighter(b1, b2))

    def overlaps(self, other: "BoundWindow") -> bool:
        return self.intersect(other) is not None

    def __str__(self) -> str:
        left = "(" if self.lo_strict else "["
        right = ")" if self.hi_strict else "]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"{left}{lo}, {hi}{right}"


FOREVER = BoundWindow(None, None)
POSITIVE = BoundWindow.above(0)


@dataclass(frozen=True)
class TimePoint:
    """A real-valued time variable: an interval endpoint or a free point."""

    id: str
    interval: Optional[str] = None
    role: str = "anon"  # "start" | "end" | "anon"

    def __post_init__(self):
        if self.role not in ("start", "end", "anon"):
            raise ValueError(f"bad role {self.role!r}")
        if (self.role == "anon") != (self.interval is None):
            raise ValueError("endpoint roles require an interval, anon forbids one")


def start_of(interval: str) -> str:
    return f"{interval}.start"


def end_of(interval: str) -> str:
    return f"{interval}.end"


# ---------------------------------------------------------------------------
# bounds: (value, strict) pairs for t_to - t_from <= value; None = +infinity

Bound = tuple[Optional[Fraction], bool]
_INF: Bound = (None, True)
_ZERO: Bound = (Fraction(0), False)


def _btighter(a: Bound, b: Bound) -> Bound:
    """The stronger of two upper bounds; at equal values strict wins."""
    if a[0] is None:
        return b
    if b[0] is None:
        return a
    if a[0] != b[0]:
        return a if a[0] < b[0] else b
    return a if a[1] else b


def _window_to_bounds(w: BoundWindow) -> tuple[Bound, Bound]:
    """(forward, backward) upper bounds for a window on t_to - t_from."""
    fwd: Bound = _INF if w.hi is None else (w.hi, w.hi_strict)
    bwd: Bound = _INF if w.lo is None else (-w.lo, w.lo_strict)
    return fwd, bwd


def _bounds_to_window(fwd: Bound, bwd: Bound) -> Optional[BoundWindow]:
    """The window on t_to - t_from under the upper bound `fwd` and the
    upper bound `bwd` on t_from - t_to, or None when no value fits."""
    hi, hi_strict = fwd
    lo, lo_strict = (None, True) if bwd[0] is None else (-bwd[0], bwd[1])
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
    return BoundWindow(lo, hi, lo_strict, hi_strict)


class STP:
    """A simple temporal problem: one window per ordered point pair,
    represented internally as a matrix of upper bounds on differences.

    Instances are immutable.  `stp_close` returns the minimal network,
    in which every window is the tightest implied one, or a network
    flagged inconsistent when the distance graph has a negative cycle.
    """

    __slots__ = ("points", "_index", "_u", "inconsistent", "minimal")

    def __init__(self, points: Sequence[str], matrix, inconsistent: bool = False,
                 minimal: bool = False):
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})
        object.__setattr__(self, "_u", tuple(tuple(row) for row in matrix))
        object.__setattr__(self, "inconsistent", inconsistent)
        object.__setattr__(self, "minimal", minimal)
        if len(self._index) != len(self.points):
            raise ValueError("duplicate point ids")

    def __setattr__(self, name, value):
        raise AttributeError("STP is immutable")

    @classmethod
    def build(cls, points: Sequence[str],
              constraints: Iterable[tuple[str, str, BoundWindow]] = ()) -> "STP":
        """Construct from (from, to, window) triples; repeated windows on
        a pair conjoin by intersection."""
        return cls((), ()).with_constraints(constraints, points)

    def with_constraints(self, constraints: Iterable[tuple[str, str, BoundWindow]],
                         new_points: Sequence[str] = ()) -> "STP":
        """This network on its points plus `new_points`, with the
        (from, to, window) triples conjoined in."""
        points = self.points + tuple(p for p in new_points if p not in self._index)
        n = len(points)
        old = len(self.points)
        u = [list(row) + [_INF] * (n - old) for row in self._u]
        u += [[_INF] * n for _ in range(old, n)]
        for i in range(old, n):
            u[i][i] = _ZERO
        index = {p: i for i, p in enumerate(points)}
        for frm, to, w in constraints:
            if frm not in index:
                raise KeyError(f"unknown point {frm!r}")
            if to not in index:
                raise KeyError(f"unknown point {to!r}")
            i, j = index[frm], index[to]
            fwd, bwd = _window_to_bounds(w)
            u[i][j] = _btighter(u[i][j], fwd)
            u[j][i] = _btighter(u[j][i], bwd)
        return STP(points, u)

    def window(self, frm: str, to: str) -> BoundWindow:
        """The window currently recorded for t_to - t_from."""
        if self.inconsistent:
            raise ValueError("windows are undefined on an inconsistent network")
        i, j = self._index[frm], self._index[to]
        w = _bounds_to_window(self._u[i][j], self._u[j][i])
        if w is None:
            raise ValueError(f"pair {frm!r}/{to!r} admits no value; close the network")
        return w

    def has_point(self, p: str) -> bool:
        return p in self._index

    def restricted(self, points: Sequence[str]) -> "STP":
        """The sub-network on the given points, dropping every bound that
        mentions a discarded point (paths through them are not kept)."""
        keep = [self._index[p] for p in points]
        u = [[self._u[i][j] for j in keep] for i in keep]
        return STP(points, u, inconsistent=self.inconsistent)

    def __eq__(self, other) -> bool:
        return (isinstance(other, STP) and self.points == other.points
                and self._u == other._u and self.inconsistent == other.inconsistent)

    def __hash__(self) -> int:
        return hash((self.points, self._u, self.inconsistent))

    def __repr__(self) -> str:
        flag = " inconsistent" if self.inconsistent else ""
        return f"STP(<{len(self.points)} points>{flag})"


def _scaled(u: list[list[Bound]]) -> tuple[list[list[Optional[int]]], int, int]:
    """Encode a bound matrix as integers, with the scale factors D and M.

    A bound (v, strict) becomes v*D*M - strict, where D is the least
    common multiple of the finite values' denominators and M = n + 1;
    +infinity becomes None.  A simple path has at most n - 1 strict legs,
    fewer than M, so integer sums order paths exactly as the
    lexicographic (value, strict) arithmetic does.
    """
    m = len(u) + 1
    d = 1
    for row in u:
        for v, _ in row:
            if v is not None and d % v.denominator:
                d = lcm(d, v.denominator)
    dm = d * m
    enc = [[None if v is None else v.numerator * (dm // v.denominator) - strict
            for v, strict in row] for row in u]
    return enc, d, m


def _int_shortest_paths(e: list[list[Optional[int]]]) -> bool:
    """Floyd-Warshall over an integer distance matrix (None is +infinity),
    in place.  False when some cycle has negative total weight, in which
    case the matrix is left partly tightened."""
    for k, ek in enumerate(e):
        legs = [(j, w) for j, w in enumerate(ek) if w is not None]
        for ei in e:
            eik = ei[k]
            if eik is None:
                continue
            for j, w in legs:
                c = eik + w
                eij = ei[j]
                if eij is None or c < eij:
                    ei[j] = c
    return all(row[i] is None or row[i] >= 0 for i, row in enumerate(e))


def _shortest_paths(u: list[list[Bound]]) -> bool:
    """All-pairs shortest paths over a bound matrix, in place, computed
    on its integer encoding (`_scaled`).

    False when the distance graph has a cycle of negative total weight,
    or of zero weight with a strict leg; `u` is then left unchanged.
    """
    e, d, m = _scaled(u)
    start = [row[:] for row in e]
    if not _int_shortest_paths(e):
        return False
    for ui, ei, si in zip(u, e, start):
        for j, v in enumerate(ei):
            if v != si[j]:
                q = -(-v // m)  # ceil(v / m)
                ui[j] = (Fraction(q, d), q * m != v)
    return True


def stp_close(s: STP) -> STP:
    """All-pairs shortest paths over the distance graph.

    Returns the minimal network: every pair carries its tightest implied
    window.  A cycle of negative total weight, or zero weight with a
    strict leg, flags the result inconsistent.
    """
    u = [list(row) for row in s._u]
    if not _shortest_paths(u):
        return STP(s.points, u, inconsistent=True)
    return STP(s.points, u, minimal=True)


@dataclass(frozen=True)
class MetricConstraint:
    """A disjunctive metric constraint: the difference must fall in one
    of several windows.  Windows are normalized sorted and disjoint."""

    frm: str
    to: str
    windows: tuple[BoundWindow, ...]

    def __post_init__(self):
        if not self.windows:
            raise ValueError("a constraint needs at least one window")
        object.__setattr__(self, "windows", _normalize_windows(self.windows))


def _normalize_windows(windows: Sequence[BoundWindow]) -> tuple[BoundWindow, ...]:
    def key(w: BoundWindow):
        unbounded = w.lo is None
        return (0 if unbounded else 1, w.lo if not unbounded else 0, not w.lo_strict)

    merged: list[BoundWindow] = []
    for w in sorted(windows, key=key):
        if merged:
            last = merged[-1]
            joinable = False
            if last.hi is None:
                joinable = True
            elif w.lo is None:
                joinable = True
            elif w.lo < last.hi or (w.lo == last.hi and not (w.lo_strict and last.hi_strict)):
                joinable = True
            if joinable:
                if last.hi is None or (w.hi is not None and w.hi <= last.hi):
                    hi, his = last.hi, last.hi_strict
                else:
                    hi, his = w.hi, w.hi_strict
                merged[-1] = BoundWindow(last.lo, hi, last.lo_strict, his)
                continue
        merged.append(w)
    return tuple(merged)


@dataclass(frozen=True)
class TCSP:
    points: tuple[str, ...]
    constraints: tuple[MetricConstraint, ...]


MAX_TCSP_WINDOWS = 4
MAX_TCSP_DISJUNCTIVE = 12


def tcsp_consistent(t: TCSP) -> tuple[bool, Optional[STP]]:
    """Search window selections for a consistent STP.

    Selections are explored in deterministic order: constraints sorted by
    (from, to) id pair, windows in normalized order; the first surviving
    combination is returned as witness.  Instances beyond the desk-scale
    bounds (4 windows per constraint, 12 disjunctive constraints) are
    rejected.
    """
    for c in t.constraints:
        if len(c.windows) > MAX_TCSP_WINDOWS:
            raise ScaleBoundExceeded(
                f"constraint {c.frm}->{c.to} has {len(c.windows)} windows")
    disjunctive = [c for c in t.constraints if len(c.windows) > 1]
    if len(disjunctive) > MAX_TCSP_DISJUNCTIVE:
        raise ScaleBoundExceeded(f"{len(disjunctive)} disjunctive constraints")

    ordered = sorted(t.constraints, key=lambda c: (c.frm, c.to))
    base = STP.build(t.points)

    def search(k: int, acc: STP) -> Optional[STP]:
        closed = stp_close(acc)
        if closed.inconsistent:
            return None
        if k == len(ordered):
            return closed
        c = ordered[k]
        for w in c.windows:
            found = search(k + 1, acc.with_constraints([(c.frm, c.to, w)]))
            if found is not None:
                return found
        return None

    witness = search(0, base)
    return (witness is not None), witness


# ---------------------------------------------------------------------------
# Allen <-> metric translations

# per atom, its defining endpoint constraints as (from, to, window) over
# the local points 0-3: x.start, x.end, y.start, y.end
_EQ = BoundWindow.exact(0)
_ATOM_POINTS = (
    ((1, 2, POSITIVE),),                                        # b
    ((3, 0, POSITIVE),),                                        # bi
    ((1, 2, _EQ),),                                             # m
    ((3, 0, _EQ),),                                             # mi
    ((0, 2, POSITIVE), (2, 1, POSITIVE), (1, 3, POSITIVE)),     # o
    ((2, 0, POSITIVE), (0, 3, POSITIVE), (3, 1, POSITIVE)),     # oi
    ((2, 0, POSITIVE), (1, 3, POSITIVE)),                       # d
    ((0, 2, POSITIVE), (3, 1, POSITIVE)),                       # di
    ((0, 2, _EQ), (1, 3, POSITIVE)),                            # s
    ((0, 2, _EQ), (3, 1, POSITIVE)),                            # si
    ((1, 3, _EQ), (2, 0, POSITIVE)),                            # f
    ((1, 3, _EQ), (0, 2, POSITIVE)),                            # fi
    ((0, 2, _EQ), (1, 3, _EQ)),                                 # e
)


def allen_atom_to_points(atom: BaseRelation, x: str, y: str) -> tuple[tuple[str, str, BoundWindow], ...]:
    """The defining endpoint constraints of an atom, as (from, to, window)
    triples over the canonical start/end point ids of the two intervals."""
    pts = (start_of(x), end_of(x), start_of(y), end_of(y))
    return tuple((pts[i], pts[j], w) for i, j, w in _ATOM_POINTS[atom])


# Per atom, its endpoint constraints as encoded (i, j, bound) edges over
# the local points.  Every finite atom bound has value 0, so it encodes
# as 0, or -1 when strict, whatever the scale.
_ATOM_EDGES = tuple(
    tuple((a, b, -strict) for i, j, w in constraints
          for a, b, (v, strict) in zip((i, j), (j, i), _window_to_bounds(w)) if v is not None)
    for constraints in _ATOM_POINTS)


def _cycle_splits() -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """Every simple directed cycle on the 4 local points (6 of two legs,
    8 of three, 6 of four), with every split of its legs into D legs, as
    sorted flat indices 4*i + j, and atom legs, as (i, j) pairs: at least
    one of each kind and no two D legs cyclically adjacent."""
    out = []
    for size in (2, 3, 4):
        every = (1 << size) - 1
        for cycle in permutations(range(4), size):
            if cycle[0] != min(cycle):
                continue
            legs = tuple(zip(cycle, cycle[1:] + cycle[:1]))
            for split in range(1, every):
                if split & ((split << 1 | split >> (size - 1)) & every):
                    continue
                out.append((tuple(sorted(4 * a + b for n, (a, b) in enumerate(legs) if split >> n & 1)),
                            tuple(leg for n, leg in enumerate(legs) if not split >> n & 1)))
    return tuple(out)


_CYCLE_SPLITS = _cycle_splits()


def _cycle_tests(edges) -> tuple[tuple[int, Optional[int], int], ...]:
    """The negative-cycle tests that decide one atom, given its encoded
    edges, against the integer-encoded 4x4 sub-matrix D of a minimal STP.

    Each test (p, q, k) reads D by flat index and excludes the atom when
    D[p] (+ D[q], unless q is None) < k, both entries finite: one per
    split of `_CYCLE_SPLITS` whose atom legs are all edges of the atom,
    each D-leg set with its largest k (the negated sum of its atom legs);
    one-leg tests come first.
    """
    atom = {(a, b): w for a, b, w in edges}
    best: dict[tuple[int, ...], int] = {}
    for d_legs, atom_legs in _CYCLE_SPLITS:
        k = 0
        for leg in atom_legs:
            w = atom.get(leg)
            if w is None:
                break
            k -= w
        else:
            if best.get(d_legs, -1) < k:
                best[d_legs] = k
    return tuple((key[0], key[1] if len(key) > 1 else None, k)
                 for key, k in sorted(best.items(), key=lambda item: (len(item[0]), item[0])))


_ATOM_TESTS = tuple(_cycle_tests(edges) for edges in _ATOM_EDGES)


def metric_to_allen(s: STP, x: str, y: str, within: Optional[Relation] = None) -> Relation:
    """The atoms of `within` (default: all 13) compatible with a minimal
    STP's implied windows.

    A minimal simple temporal network is globally consistent, so joint
    satisfiability of an atom's endpoint constraints can be decided on
    the four-point projection alone: the atom is compatible when adding
    its edges to the integer-encoded 4x4 sub-matrix D closes no negative
    cycle.  Each atom is decided by its precomputed cycle tests
    (`_cycle_tests`, generated from the atom endpoint table).  They are
    exact: the bounds of a minimal network are closed, so a run of D legs
    in a negative cycle can be replaced by its one closing D leg, which is
    no weaker; D alone and an atom's edges alone have no negative cycle;
    and a cycle on four points has at most four strict legs, fewer than
    the scale M = 5, so its integer sum is negative exactly when the
    cycle is.
    """
    if not s.minimal or s.inconsistent:
        raise ValueError("metric_to_allen requires a minimal consistent network")
    idx = []
    for p in (start_of(x), end_of(x), start_of(y), end_of(y)):
        if not s.has_point(p):
            raise KeyError(f"interval endpoint {p!r} not in network")
        idx.append(s._index[p])
    sub, _, _ = _scaled([[s._u[i][j] for j in idx] for i in idx])
    d = sub[0] + sub[1] + sub[2] + sub[3]
    candidates = FULL_MASK if within is None else within.mask
    mask = 0
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        for p, q, k in _ATOM_TESTS[low.bit_length() - 1]:
            v = d[p]
            if v is None:
                continue
            if q is not None:
                w = d[q]
                if w is None:
                    continue
                v += w
            if v < k:
                break
        else:
            mask |= low
    return Relation(mask)


def format_constraint(frm: str, to: str, w: BoundWindow) -> str:
    return f"{to} - {frm} in {w}"


def format_stp(s: STP) -> str:
    """One line per informative point pair, pairs in sorted id order."""
    if s.inconsistent:
        return "inconsistent\n"
    names = sorted(s.points)
    lines = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            w = s.window(a, b)
            if not w.unbounded:
                lines.append(format_constraint(a, b, w))
    return "\n".join(lines) + "\n" if lines else ""
