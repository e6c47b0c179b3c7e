"""Metric constraints over time points: bound windows, simple temporal
problems (STP), their disjunctive extension (TCSP), and the two
translations that connect interval relations to endpoint constraints,
which take each Allen atom's endpoint signs from `allen.ENDPOINT_SIGNS`.

All quantities are exact rationals in canonical units of minutes.
Strict inequalities are carried as explicit flags on windows.  An STP
stores only an exact integer encoding of its bounds, a (value, strict)
upper bound kept as value*D*M - strict under a common denominator D and
a multiplier M larger than the number of points; the one Floyd-Warshall,
the incremental closure from tightened entries, the read-back to Allen
atoms and the atom export all work on that encoding, and bounds become
`Fraction`s again only when a window is read.  A network already
minimal is extended, not re-closed: `stp_close(s, changed=...)`
propagates only the entries tightened since, which the TCSP search, the
hybrid closure rounds and search leaves, and revision all use.  There
are no epsilon approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Iterable, Optional, Sequence

from .allen import ENDPOINT_SIGNS, FULL_MASK, BaseRelation, Relation


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


def start_of(interval: str) -> str:
    return f"{interval}.start"


def end_of(interval: str) -> str:
    return f"{interval}.end"


# ---------------------------------------------------------------------------
# bounds: (value, strict) pairs for t_to - t_from <= value; None = +infinity

Bound = tuple[Optional[Fraction], bool]
_INF: Bound = (None, True)


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


def _scaled(u: Sequence[Sequence[Bound]]) -> tuple[list[list[Optional[int]]], int, int]:
    """Encode a bound matrix as integers, with the scale factors D and M.

    A bound (v, strict) becomes v*D*M - strict, where D is the least
    common multiple of the finite values' denominators and
    M = max(n + 1, 5); +infinity becomes None.
    """
    m = max(len(u) + 1, 5)
    d = 1
    for row in u:
        for v, _ in row:
            if v is not None and d % v.denominator:
                d = lcm(d, v.denominator)
    dm = d * m
    enc = [[None if v is None else v.numerator * (dm // v.denominator) - strict
            for v, strict in row] for row in u]
    return enc, d, m


def _decoded(e: Optional[int], d: int, m: int) -> Bound:
    """The (value, strict) bound of a stored entry e = q*M - strict."""
    if e is None:
        return _INF
    q = -(-e // m)  # ceil(e / m)
    return Fraction(q, d), q * m != e


class STP:
    """A simple temporal problem: one window per ordered point pair.

    What is stored is one integer matrix `_e`, with `_e[i][j]` the upper
    bound on t_j - t_i: a bound (v, strict) is kept as v*D*M - strict,
    None meaning +infinity, under the scale D (the least common multiple
    of the denominators seen so far) and the multiplier M >= max(n + 1, 5).
    Every stored entry carries at most one strict unit, so a simple path,
    of at most n - 1 < M legs, sums to at most M - 1 of them: integer sums
    order paths exactly as (value, strict) arithmetic does.  Decoding back
    to `Fraction`s happens only in `window` and in the read-only view
    `_u`; equality and hashing are by value, whatever the scale.

    Instances are immutable.  `stp_close` returns the minimal network,
    in which every window is the tightest implied one, or a network
    flagged inconsistent when the distance graph has a negative cycle.
    Conjoining constraints keeps the inconsistent flag, since a
    tightening keeps the cycle, and drops the minimal one; `restricted`
    drops both.
    """

    __slots__ = ("points", "_index", "_e", "_d", "_m", "inconsistent", "minimal")

    def __init__(self, points: Sequence[str], matrix, inconsistent: bool = False,
                 minimal: bool = False):
        """`matrix` holds (value, strict) upper bounds, value None for
        +infinity, row i column j bounding t_j - t_i."""
        points = tuple(points)
        e, d, m = _scaled(matrix)
        self._init(points, {p: i for i, p in enumerate(points)},
                   tuple(map(tuple, e)), d, m, inconsistent, minimal)

    def _init(self, points, index, e, d, m, inconsistent, minimal) -> None:
        if len(index) != len(points):
            raise ValueError("duplicate point ids")
        put = object.__setattr__
        put(self, "points", points)
        put(self, "_index", index)
        put(self, "_e", e)
        put(self, "_d", d)
        put(self, "_m", m)
        put(self, "inconsistent", inconsistent)
        put(self, "minimal", minimal)

    @classmethod
    def _raw(cls, points, index, e, d, m, inconsistent=False, minimal=False) -> "STP":
        # from an encoded matrix that already holds the invariant
        self = object.__new__(cls)
        self._init(points, index, e, d, m, inconsistent, minimal)
        return self

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
        (from, to, window) triples conjoined in.

        The stored entries are rescaled, exactly, only when a new
        denominator or new points change D or M.
        """
        points = self.points + tuple(p for p in new_points if p not in self._index)
        index = self._index if len(points) == len(self.points) else \
            {p: i for i, p in enumerate(points)}
        n, old = len(points), len(self.points)
        d = self._d
        edges = []
        for frm, to, w in constraints:
            if frm not in index:
                raise KeyError(f"unknown point {frm!r}")
            if to not in index:
                raise KeyError(f"unknown point {to!r}")
            for v in (w.lo, w.hi):
                if v is not None and d % v.denominator:
                    d = lcm(d, v.denominator)
            edges.append((index[frm], index[to], w))
        m = max(self._m, n + 1)
        if d == self._d and m == self._m:
            rows = [list(row) for row in self._e]
        else:
            # q*M - s becomes q*(D'/D)*M' - s
            f, old_m = d // self._d * m, self._m
            rows = [[None if v is None else -(-v // old_m) * (f - old_m) + v for v in row]
                    for row in self._e]
        for row in rows:
            row += [None] * (n - old)
        for i in range(old, n):
            rows.append([None] * n)
            rows[i][i] = 0
        dm = d * m
        for i, j, w in edges:
            if w.hi is not None:
                v = w.hi.numerator * (dm // w.hi.denominator) - w.hi_strict
                if rows[i][j] is None or v < rows[i][j]:
                    rows[i][j] = v
            if w.lo is not None:
                v = -w.lo.numerator * (dm // w.lo.denominator) - w.lo_strict
                if rows[j][i] is None or v < rows[j][i]:
                    rows[j][i] = v
        return STP._raw(points, index, tuple(map(tuple, rows)), d, m,
                        inconsistent=self.inconsistent)

    def _with_edges(self, edges: Iterable[tuple[int, int, int]]) -> tuple["STP", list[tuple[int, int]]]:
        """This network with encoded edges (i, j, w) conjoined in, each
        bounding t_j - t_i by a bound of value 0 (w = 0, or -1 when
        strict), whose encoding is the same at every scale; and the
        entries (i, j) the edges tightened, each listed once."""
        rows = [list(row) for row in self._e]
        tightened = {}
        for i, j, w in edges:
            v = rows[i][j]
            if v is None or w < v:
                rows[i][j] = w
                tightened[i, j] = None
        return (STP._raw(self.points, self._index, tuple(map(tuple, rows)), self._d, self._m,
                         inconsistent=self.inconsistent),
                list(tightened))

    @property
    def _u(self) -> tuple[tuple[Bound, ...], ...]:
        """The stored matrix decoded to (value, strict) upper bounds."""
        d, m = self._d, self._m
        return tuple(tuple(_decoded(v, d, m) for v in row) for row in self._e)

    def window(self, frm: str, to: str) -> BoundWindow:
        """The window currently recorded for t_to - t_from."""
        if self.inconsistent:
            raise ValueError("windows are undefined on an inconsistent network")
        i, j = self._index[frm], self._index[to]
        w = _bounds_to_window(_decoded(self._e[i][j], self._d, self._m),
                              _decoded(self._e[j][i], self._d, self._m))
        if w is None:
            raise ValueError(f"pair {frm!r}/{to!r} admits no value; close the network")
        return w

    def has_point(self, p: str) -> bool:
        return p in self._index

    def restricted(self, points: Sequence[str]) -> "STP":
        """The sub-network on the given points, dropping every bound that
        mentions a discarded point (paths through them are not kept).
        Dropping bounds may remove a negative cycle, so the result is not
        flagged inconsistent: the next closure decides it."""
        points = tuple(points)
        keep = [self._index[p] for p in points]
        e = tuple(tuple(self._e[i][j] for j in keep) for i in keep)
        return STP._raw(points, {p: i for i, p in enumerate(points)}, e, self._d, self._m)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, STP) and self.points == other.points
                and self.inconsistent == other.inconsistent):
            return False
        if self._d == other._d and self._m == other._m:
            return self._e == other._e
        return self._u == other._u

    def __hash__(self) -> int:
        return hash((self.points, self._u, self.inconsistent))

    def __repr__(self) -> str:
        flag = " inconsistent" if self.inconsistent else ""
        return f"STP(<{len(self.points)} points>{flag})"


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


def stp_close(s: STP, *, changed: Optional[Sequence[tuple[int, int]]] = None) -> STP:
    """All-pairs shortest paths over the distance graph.

    Returns the minimal network, flagged `minimal`: every pair carries
    its tightest implied window.  A cycle of negative total weight, or
    zero weight with a strict leg, flags the result inconsistent; its
    matrix is then the input's.

    With `changed` None the integer Floyd-Warshall runs on a copy of the
    stored matrix.  Otherwise `changed` lists the entries (i, j) tightened
    since `s` was last minimal (by value: a rescale keeps it so), and only
    they are propagated, each in O(n^2) by
    e[a][b] = min(e[a][b], e[a][i] + e[i][j] + e[j][b]); a tightened entry
    whose two-leg cycle e[i][j] + e[j][i] is negative flags the result
    inconsistent, and an input already flagged inconsistent stays so.
    Either way a shortest path may sum several strict units, and each
    new entry is put back to q*M - [strict] with q = ceil(e / M); a sum of
    three stored entries carries at most three strict units, fewer than
    M >= 5.  Both ways give the same matrix.
    """
    m = s._m
    if changed is None:
        e = [list(row) for row in s._e]
        if not _int_shortest_paths(e):
            return STP._raw(s.points, s._index, s._e, s._d, m, inconsistent=True)
        rows = tuple(tuple([v if v is None or not v % m else v - v % m + m - 1 for v in row])
                     for row in e)
        return STP._raw(s.points, s._index, rows, s._d, m, minimal=True)
    if s.inconsistent:
        return s
    e = [list(row) for row in s._e]
    for i, j in changed:
        w = e[i][j]
        if w is None:
            continue
        back = e[j][i]
        if back is not None and w + back < 0:
            return STP._raw(s.points, s._index, s._e, s._d, m, inconsistent=True)
        # e[a][i] and e[j][b] cannot change while (i, j) is propagated,
        # since no cycle through it is negative
        legs = [(b, v) for b, v in enumerate(e[j]) if v is not None]
        for ea in e:
            x = ea[i]
            if x is None:
                continue
            x += w
            for b, v in legs:
                c = x + v
                eab = ea[b]
                if eab is None or c < eab:
                    ea[b] = c if not c % m else c - c % m + m - 1
    return STP._raw(s.points, s._index, tuple(map(tuple, e)), s._d, m, minimal=True)


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
    combination is returned as witness.  Each child is its parent's
    minimal STP with one window conjoined, closed from that window's two
    entries.  Instances beyond the desk-scale bounds (4 windows per
    constraint, 12 disjunctive constraints) are rejected.
    """
    for c in t.constraints:
        if len(c.windows) > MAX_TCSP_WINDOWS:
            raise ScaleBoundExceeded(
                f"constraint {c.frm}->{c.to} has {len(c.windows)} windows")
    disjunctive = [c for c in t.constraints if len(c.windows) > 1]
    if len(disjunctive) > MAX_TCSP_DISJUNCTIVE:
        raise ScaleBoundExceeded(f"{len(disjunctive)} disjunctive constraints")

    ordered = sorted(t.constraints, key=lambda c: (c.frm, c.to))

    def search(k: int, closed: STP) -> Optional[STP]:
        # each child closes from its parent's minimal network and the
        # two entries of its one new window
        if k == len(ordered):
            return closed
        c = ordered[k]
        for w in c.windows:
            child = closed.with_constraints([(c.frm, c.to, w)])
            i, j = child._index[c.frm], child._index[c.to]
            child = stp_close(child, changed=[(i, j), (j, i)])
            if not child.inconsistent:
                found = search(k + 1, child)
                if found is not None:
                    return found
        return None

    witness = search(0, stp_close(STP.build(t.points)))
    return (witness is not None), witness


# ---------------------------------------------------------------------------
# Allen <-> metric translations

# Per atom, its defining signs (p, q, s), s the sign of t_p - t_q over
# the local points 0-3 (x.start, x.end, y.start, y.end): the entries
# where another atom differs from it alone, those that the other three
# and start < end do not imply.
_DEFINING_SIGNS = tuple(
    tuple((k >> 1, 2 + (k & 1), s) for k, s in enumerate(signs)
          if any(other[k] != s and other[:k] + other[k + 1:] == signs[:k] + signs[k + 1:]
                 for other in ENDPOINT_SIGNS))
    for signs in ENDPOINT_SIGNS)


def allen_atom_to_points(atom: BaseRelation, x: str, y: str) -> tuple[tuple[str, str, BoundWindow], ...]:
    """The defining endpoint constraints of an atom, as (from, to, window)
    triples over the canonical start/end point ids of the two intervals:
    the signs of its `ENDPOINT_SIGNS` entry that the others do not imply."""
    pts = (start_of(x), end_of(x), start_of(y), end_of(y))
    return tuple((pts[q], pts[p], POSITIVE) if s > 0
                 else (pts[p], pts[q], POSITIVE if s else BoundWindow.exact(0))
                 for p, q, s in _DEFINING_SIGNS[atom])


# Per atom, its endpoint constraints as encoded (i, j, bound) edges, on
# t_j - t_i, over the local points.  Every atom bound is 0 or strict 0,
# encoded as 0 or -1 whatever the scale: a sign s of t_p - t_q gives the
# forward edge (p, q, -s) when s >= 0 and the backward (q, p, s) when s <= 0.
_ATOM_EDGES = tuple(
    tuple(edge for p, q, s in signs
          for edge, holds in (((p, q, -s), s >= 0), ((q, p, s), s <= 0)) if holds)
    for signs in _DEFINING_SIGNS)


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
    its edges to the 4x4 sub-matrix D of the stored integer matrix closes
    no negative cycle.  Each atom is decided by its precomputed cycle
    tests (`_cycle_tests`, generated from the atom endpoint table).  They
    are exact: the bounds of a minimal network are closed, so a run of D
    legs in a negative cycle can be replaced by its one closing D leg,
    which is no weaker; D alone and an atom's edges alone have no negative
    cycle; and a cycle on four points has four legs, each carrying at most
    one strict unit (a stored entry holds at most one, an atom edge is 0
    or -1), so at most four, fewer than the multiplier M >= 5: its integer
    sum is negative exactly when the cycle is.
    """
    if not s.minimal or s.inconsistent:
        raise ValueError("metric_to_allen requires a minimal consistent network")
    index = s._index
    idx = []
    for p in (start_of(x), end_of(x), start_of(y), end_of(y)):
        i = index.get(p)
        if i is None:
            raise KeyError(f"interval endpoint {p!r} not in network")
        idx.append(i)
    e = s._e
    d = [e[i][j] for i in idx for j in idx]
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
