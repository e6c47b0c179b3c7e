"""Metric constraints over time points: bound windows, simple temporal
problems (STP), their disjunctive extension (TCSP), and the two
translations that connect interval relations to endpoint constraints,
which take each Allen atom's endpoint signs from `allen.ENDPOINT_SIGNS`.

All quantities are exact rationals in canonical units of minutes.
Strict inequalities are carried as explicit flags on windows.  Bounds
have two forms: `BoundWindow`s at the API, and inside an `STP` one exact
integer encoding, an upper bound v, strict or not, kept as v*D*M -
[strict] under a common denominator D and the fixed strictness
multiplier M = 5 (see `STP`).  Windows enter through one encoder
(`_window_edges`); the one shortest-path kernel (Floyd-Warshall through
a set of pivot points), the read-back to Allen atoms and the atom export
all work on the encoding, and bounds become `Fraction`s again only when
`STP.window` reads one.  A network already
minimal is extended, not re-closed: `stp_close(s, changed=...)` pivots
only on the endpoints of the entries tightened since, which the TCSP
search, the hybrid closure rounds and search leaves, and revision all
use.  There are no epsilon approximations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Iterable, Optional, Sequence

from .allen import ENDPOINT_SIGNS, FULL_MASK, Relation, Value, _picker, _put


class ScaleBoundExceeded(ValueError):
    """An instance is larger than the supported desk-scale search bound."""


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _lo_rank(w: BoundWindow) -> tuple:
    # lower bounds, loosest first: -inf, then by value, closed before open
    return (w.lo is not None, w.lo or 0, w.lo_strict)


def _hi_rank(w: BoundWindow) -> tuple:
    # upper bounds, tightest first: by value, open before closed, then +inf
    return (w.hi is None, w.hi or 0, not w.hi_strict)


class BoundWindow(Value):
    """An interval of admissible values for a point difference, with
    per-bound strictness; None means unbounded on that side."""

    __slots__ = ("lo", "hi", "lo_strict", "hi_strict")

    def __init__(self, lo: Optional[Fraction], hi: Optional[Fraction],
                 lo_strict: bool = False, hi_strict: bool = False):
        lo = None if lo is None else _frac(lo)
        hi = None if hi is None else _frac(hi)
        if lo is not None and hi is not None:
            if lo > hi:
                raise ValueError(f"empty window: lo {lo} > hi {hi}")
            if lo == hi and (lo_strict or hi_strict):
                raise ValueError("a zero-width window must be closed on both sides")
        _put(self, "lo", lo)
        _put(self, "hi", hi)
        # infinite bounds are open by convention
        _put(self, "lo_strict", True if lo is None else lo_strict)
        _put(self, "hi_strict", True if hi is None else hi_strict)

    @classmethod
    def closed(cls, lo, hi) -> "BoundWindow":
        return cls(lo, hi)

    @classmethod
    def exact(cls, v) -> "BoundWindow":
        return cls(v, v)

    @classmethod
    def above(cls, lo, strict: bool = True) -> "BoundWindow":
        return cls(lo, None, lo_strict=strict)

    @classmethod
    def at_most(cls, hi, lo=0, lo_strict: bool = True, hi_strict: bool = False) -> "BoundWindow":
        return cls(lo, hi, lo_strict=lo_strict, hi_strict=hi_strict)

    @property
    def unbounded(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def intersect(self, other: "BoundWindow") -> Optional["BoundWindow"]:
        """The common window, or None when the overlap is empty."""
        lo, hi = max(self, other, key=_lo_rank), min(self, other, key=_hi_rank)
        return _window_or_none(lo.lo, hi.hi, lo.lo_strict, hi.hi_strict)

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


def _window_or_none(lo: Optional[Fraction], hi: Optional[Fraction],
                    lo_strict: bool, hi_strict: bool) -> Optional[BoundWindow]:
    """The window with these bounds, or None when no value fits."""
    if lo is not None and hi is not None and (lo > hi or lo == hi and (lo_strict or hi_strict)):
        return None
    return BoundWindow(lo, hi, lo_strict, hi_strict)


# ---------------------------------------------------------------------------
# simple temporal problems

_M = 5  # the strictness multiplier of the stored encoding (see `STP`)


def _window_edges(pairs: Iterable[tuple[int, int, BoundWindow]], dm: int) -> list[tuple[int, int, int]]:
    """Windows (i, j, w) on t_j - t_i as encoded (i, j, bound) edges at
    the scale D*M = `dm`, whose D every finite bound's denominator divides."""
    out = []
    for i, j, w in pairs:
        if w.hi is not None:
            out.append((i, j, w.hi.numerator * (dm // w.hi.denominator) - w.hi_strict))
        if w.lo is not None:
            out.append((j, i, -w.lo.numerator * (dm // w.lo.denominator) - w.lo_strict))
    return out


class STP(Value):
    """A simple temporal problem: one window per ordered point pair.

    What is stored is one integer matrix `_e`, with `_e[i][j]` the upper
    bound on t_j - t_i: a bound v, strict or not, is kept as v*D*M -
    [strict], None meaning +infinity, under the scale D (the least common
    multiple of the windows' denominators) and the fixed multiplier
    M = 5.  Each stored entry carries at most one strict unit, and a sum
    is of two entries (the kernel) or around a four-point cycle (the
    read-back, see `metric_to_allen`), so M bounds every carry: integer
    sums order bounds exactly as exact values with strictness flags do.
    Decoding back to `Fraction`s happens only in `window`; equality is by
    value, whatever the scale, and hashing by what no rescale changes.

    `STP(points, constraints)`, the same as `STP.build`, conjoins (from,
    to, window) triples into the network on `points` with no other bound.
    Instances are immutable.  Only closure establishes the two flags:
    `stp_close` returns the minimal network, every window the tightest
    implied one, by Floyd-Warshall through every point or, from a minimal
    network since tightened, through the tightened entries' endpoints; a
    negative cycle flags it inconsistent.  Conjoining constraints keeps
    the inconsistent flag, since a tightening keeps the cycle, and drops
    the minimal one; `restricted` drops both.
    """

    __slots__ = ("points", "_index", "_e", "_d", "inconsistent", "minimal")

    def __init__(self, points: Sequence[str],
                 constraints: Iterable[tuple[str, str, BoundWindow]] = ()):
        """The network on `points` with the (from, to, window) triples
        conjoined in, encoded once under D the least common multiple of
        their denominators; repeated windows on a pair conjoin by
        intersection."""
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}
        n, d, pairs = len(points), 1, []
        for frm, to, w in constraints:
            if frm not in index:
                raise KeyError(f"unknown point {frm!r}")
            if to not in index:
                raise KeyError(f"unknown point {to!r}")
            for v in (w.lo, w.hi):
                if v is not None and d % v.denominator:
                    d = lcm(d, v.denominator)
            pairs.append((index[frm], index[to], w))
        if len(index) != n:
            raise ValueError("duplicate point ids")
        rows = [[None] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 0
        for i, j, w in _window_edges(pairs, d * _M):
            if rows[i][j] is None or w < rows[i][j]:
                rows[i][j] = w
        self._set(points, index, tuple(map(tuple, rows)), d, False, False)

    @classmethod
    def _raw(cls, points, index, e, d, inconsistent=False, minimal=False) -> "STP":
        # from an encoded matrix that already holds the invariant
        self = object.__new__(cls)
        _put(self, "points", points)
        _put(self, "_index", index)
        _put(self, "_e", e)
        _put(self, "_d", d)
        _put(self, "inconsistent", inconsistent)
        _put(self, "minimal", minimal)
        return self

    @classmethod
    def build(cls, points: Sequence[str],
              constraints: Iterable[tuple[str, str, BoundWindow]] = ()) -> "STP":
        """`STP(points, constraints)`."""
        return cls(points, constraints)

    def _rescaled(self, d: int) -> tuple[tuple[Optional[int], ...], ...]:
        """The stored matrix at the scale `d`, a multiple of D, each entry
        q*M - s as q*(d/D)*M - s: the same values, so minimality holds."""
        if d == self._d:
            return self._e
        f = (d // self._d - 1) * _M
        return tuple(tuple(None if v is None else -(-v // _M) * f + v for v in row)
                     for row in self._e)

    def _with_edges(self, edges: Iterable[tuple[int, int, int]]) -> tuple["STP", list[tuple[int, int]]]:
        """This network with encoded edges (i, j, w), each bounding t_j - t_i
        by the bound stored as w at its scale, conjoined in, and the entries
        (i, j) they tightened, each once.  Only the rows holding a tightened
        entry are copied; the others are shared, as instances are immutable."""
        e = self._e
        rows = list(e)
        tightened = {}
        for i, j, w in edges:
            v = rows[i][j]
            if v is None or w < v:
                if rows[i] is e[i]:
                    rows[i] = list(e[i])
                rows[i][j] = w
                tightened[i, j] = None
        for i, _ in tightened:
            rows[i] = tuple(rows[i])
        return (STP._raw(self.points, self._index, tuple(rows) if tightened else e, self._d,
                         inconsistent=self.inconsistent),
                list(tightened))

    def window(self, frm: str, to: str) -> BoundWindow:
        """The window currently recorded for t_to - t_from: the upper
        bound from the stored entry on it, the lower bound negated from
        the one on t_from - t_to, each entry q*M - [strict] read as q/D,
        strict when off a multiple of M."""
        if self.inconsistent:
            raise ValueError("windows are undefined on an inconsistent network")
        i, j = self._index[frm], self._index[to]
        fwd, bwd = self._e[i][j], self._e[j][i]
        w = _window_or_none(None if bwd is None else Fraction(-bwd // _M, self._d),
                            None if fwd is None else Fraction(-(-fwd // _M), self._d),
                            bwd is not None and bwd % _M > 0, fwd is not None and fwd % _M > 0)
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
        index = {p: i for i, p in enumerate(points)}
        if len(index) != len(points):
            raise ValueError("duplicate point ids")
        e = tuple(map(_picker(keep), map(self._e.__getitem__, keep)))
        return STP._raw(points, index, e, self._d)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, STP) and self.points == other.points
                and self.inconsistent == other.inconsistent):
            return False
        d = lcm(self._d, other._d)
        return self._rescaled(d) == other._rescaled(d)

    def __hash__(self) -> int:
        # by each entry's sign and strict unit, which no rescale changes
        return hash((self.points, self.inconsistent, tuple(
            None if v is None else (v > 0, v % _M) for row in self._e for v in row)))

    def __repr__(self) -> str:
        flag = " inconsistent" if self.inconsistent else ""
        return f"STP(<{len(self.points)} points>{flag})"


def _int_shortest_paths(e: list[list[Optional[int]]],
                        pivots: Optional[Iterable[int]] = None) -> bool:
    """Floyd-Warshall, in place, over an integer distance matrix (None is
    +infinity) through the points `pivots` in order, all when None.  An
    improving sum of two entries (two strict units at most, fewer than M)
    is written back as q*M - [strict], q = ceil(sum / M).  False at the
    first pivot with a negative diagonal entry, the matrix then partly
    tightened; a negative cycle through pivots shows by its last pivot."""
    for k in range(len(e)) if pivots is None else pivots:
        ek = e[k]
        if ek[k] is not None and ek[k] < 0:
            return False
        legs = [(j, w) for j, w in enumerate(ek) if w is not None]
        for ei in e:
            eik = ei[k]
            if eik is None:
                continue
            for j, w in legs:
                c = eik + w
                eij = ei[j]
                if eij is None or c < eij:
                    ei[j] = c if not c % _M else c - c % _M + _M - 1
    return True


def stp_close(s: STP, *, changed: Optional[Sequence[tuple[int, int]]] = None) -> STP:
    """All-pairs shortest paths over the distance graph.

    Returns the minimal network, flagged `minimal`: every pair carries
    its tightest implied window.  A cycle of negative total weight, or
    zero weight with a strict leg, flags the result inconsistent; its
    matrix is then the input's.

    One kernel, `_int_shortest_paths`, runs on a copy of the stored
    matrix, through every point when `changed` is None.  Otherwise
    `changed` lists the entries (i, j) tightened since `s` was last
    minimal (by value: a rescale keeps it so), and the pivots are the
    endpoints of the finite ones: a new shortest path, or a negative
    cycle, alternates old minimal entries with tightened ones, so its
    inner points are such endpoints.  A tightened entry with a negative
    two-leg cycle e[i][j] + e[j][i] flags the result inconsistent before
    any pass; with no pivot the input's rows are shared; an input
    flagged inconsistent is returned as it is.
    """
    e, pivots = s._e, None
    if changed is not None:
        if s.inconsistent:
            return s
        pivots = set()
        for i, j in changed:
            w, back = e[i][j], e[j][i]
            if w is not None:
                if back is not None and w + back < 0:
                    return STP._raw(s.points, s._index, e, s._d, inconsistent=True)
                pivots.update((i, j))
        if not pivots:
            return STP._raw(s.points, s._index, e, s._d, minimal=True)
        pivots = sorted(pivots)
    rows = [list(row) for row in e]
    if not _int_shortest_paths(rows, pivots):
        return STP._raw(s.points, s._index, e, s._d, inconsistent=True)
    return STP._raw(s.points, s._index, tuple(map(tuple, rows)), s._d, minimal=True)


class MetricConstraint(Value):
    """A disjunctive metric constraint: the difference must fall in one
    of several windows.  Windows are normalized sorted and disjoint."""

    __slots__ = ("frm", "to", "windows")

    def __init__(self, frm: str, to: str, windows: tuple[BoundWindow, ...]):
        if not windows:
            raise ValueError("a constraint needs at least one window")
        self._set(frm, to, _normalize_windows(windows))


def _normalize_windows(windows: Sequence[BoundWindow]) -> tuple[BoundWindow, ...]:
    """The values of `windows` as sorted disjoint windows: by lower bound, each
    merged into the last kept one when they meet, with the looser upper bound."""
    merged: list[BoundWindow] = []
    for w in sorted(windows, key=_lo_rank):
        last = merged[-1] if merged else None
        if last is None or not (last.hi is None or w.lo is None or w.lo < last.hi or (
                w.lo == last.hi and not (w.lo_strict and last.hi_strict))):
            merged.append(w)
            continue
        top = max(last, w, key=_hi_rank)
        merged[-1] = BoundWindow(last.lo, top.hi, last.lo_strict, top.hi_strict)
    return tuple(merged)


class TCSP(Value):
    __slots__ = ("points", "constraints")

    def __init__(self, points: tuple[str, ...], constraints: tuple[MetricConstraint, ...]):
        self._set(points, constraints)


MAX_TCSP_WINDOWS = 4
MAX_TCSP_DISJUNCTIVE = 12


def _close_with(s: STP, frm: str, to: str, w: BoundWindow) -> STP:
    """Minimal `s` plus one window on t_to - t_from, closed from the entries
    `_with_edges` tightened (none: the rows of `s` are shared).  A window
    whose denominator D does not divide rescales `s` first, still minimal."""
    i, j = s._index[frm], s._index[to]
    d = lcm(s._d, *(v.denominator for v in (w.lo, w.hi) if v is not None))
    if d != s._d:
        s = STP._raw(s.points, s._index, s._rescaled(d), d, s.inconsistent, s.minimal)
    child, tightened = s._with_edges(_window_edges([(i, j, w)], d * _M))
    return stp_close(child, changed=tightened)


def tcsp_consistent(t: TCSP) -> tuple[bool, Optional[STP]]:
    """Search window selections for a consistent STP.

    Selections are explored in deterministic order: constraints sorted by
    (from, to) id pair, windows in normalized order; the first surviving
    combination is returned as witness.  The search starts from the minimal
    STP of the hulls (first window's lower to last window's upper bound;
    Schwalb & Dechter), in which every selection's windows lie: it cuts
    only subtrees without a witness.  A one-window constraint's hull is
    its window, so the levels are the disjunctive constraints, each child
    conjoining one window; a disjunctive hull with a fractional bound is
    left out, so each witness keeps the scale of the windows it chose.
    Unknown points and instances beyond 4 windows per constraint or 12
    disjunctive constraints are rejected before the search.
    """
    hulls, levels = [], []
    for c in sorted(t.constraints, key=lambda c: (c.frm, c.to)):
        if len(c.windows) > MAX_TCSP_WINDOWS:
            raise ScaleBoundExceeded(
                f"constraint {c.frm}->{c.to} has {len(c.windows)} windows")
        first, last = c.windows[0], c.windows[-1]
        hull = BoundWindow(first.lo, last.hi, first.lo_strict, last.hi_strict)
        if len(c.windows) > 1:
            levels.append(c)
            if any(v is not None and v.denominator != 1 for v in (first.lo, last.hi)):
                hull = FOREVER  # conjoins nothing, but `STP.build` still checks its points
        hulls.append((c.frm, c.to, hull))
    if len(levels) > MAX_TCSP_DISJUNCTIVE:
        raise ScaleBoundExceeded(f"{len(levels)} disjunctive constraints")

    def search(k: int, closed: STP) -> Optional[STP]:
        if closed.inconsistent or k == len(levels):
            return None if closed.inconsistent else closed
        c = levels[k]
        found = (search(k + 1, _close_with(closed, c.frm, c.to, w)) for w in c.windows)
        return next((f for f in found if f is not None), None)

    witness = search(0, stp_close(STP.build(t.points, hulls)))
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


def _leg_sets() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The D-leg sets of `_CYCLE_SPLITS` that decide every atom at once
    against the integer-encoded 4x4 sub-matrix D of a minimal STP, the
    one-entry and two-entry sets apart.

    Each (drops, row, column[, row, column], keep_neg, keep_zero) reads
    D by (row, column): its entry, or the sum of both when finite, drops
    the atoms of `drops` below 0 and those not in `keep_zero` at 0.  An
    atom leaves on a set when a split with those D legs has all its atom
    legs among the atom's edges: below 0, and at 0 too when one is strict.
    """
    drops: dict[tuple[int, ...], tuple[int, int]] = {}
    for atom, edges in enumerate(_ATOM_EDGES):
        weight = {(a, b): w for a, b, w in edges}
        for d_legs, atom_legs in _CYCLE_SPLITS:
            weights = [weight.get(leg) for leg in atom_legs]
            if None not in weights:
                neg, zero = drops.get(d_legs, (0, 0))
                drops[d_legs] = (neg | 1 << atom, zero | any(weights) << atom)
    reads: tuple[list, list] = ([], [])
    for legs, (neg, zero) in sorted(drops.items()):
        entries = (x for leg in legs for x in divmod(leg, 4))
        reads[len(legs) - 1].append((neg, *entries, FULL_MASK & ~neg, FULL_MASK & ~zero))
    return tuple(reads[0]), tuple(reads[1])


_ONE_READS, _TWO_READS = _leg_sets()


def metric_to_allen(s: STP, x: str, y: str, within: Optional[Relation] = None) -> Relation:
    """The atoms of `within` (default: all 13) compatible with a minimal
    STP's implied windows.

    A minimal simple temporal network is globally consistent, so joint
    satisfiability of an atom's endpoint constraints can be decided on
    the four-point projection alone: the atom is compatible when adding
    its edges to the 4x4 sub-matrix D of the stored integer matrix closes
    no negative cycle.  The bounds of a minimal network are closed, so a
    run of D legs in a negative cycle can be replaced by its one closing
    D leg, which is no weaker; D alone and an atom's edges alone have no
    negative cycle; a cycle on four points carries at most four strict
    units (a stored entry holds at most one, an atom edge is 0 or -1),
    fewer than the multiplier M = 5.  So the atom is excluded exactly
    when the D legs of such a cycle sum below k, its strict atom legs
    (k <= 3).  The 14 D-leg sets (`_leg_sets`: 10 of one leg, 4 of two)
    decide all atoms, since every sum is in one of two classes: each
    stored entry is q*M - [strict], so one or two of them sum to at most
    0 or to at least M - 2 = 3 >= k.  A sum below 0 excludes every atom
    the set bears on, a sum of 0 those with a strict atom leg on it, and
    a positive sum none.  A set is read only when the mask still holds
    an atom that a sum below 0 drops; otherwise it cannot change the
    mask, as a sum of 0 drops only some of those atoms.  A `within` of
    another calculus raises `ValueError`.
    """
    if not s.minimal or s.inconsistent:
        raise ValueError("metric_to_allen requires a minimal consistent network")
    index = s._index
    try:
        cols = (index[f"{x}.start"], index[f"{x}.end"], index[f"{y}.start"], index[f"{y}.end"])
    except KeyError as missing:
        raise KeyError(f"interval endpoint {missing.args[0]!r} not in network") from None
    if within is None:
        mask = FULL_MASK
    elif within.calculus is Relation.calculus:
        mask = within.mask
    else:
        raise ValueError(f"{within!r} is of another calculus than Relation")
    e = s._e
    rows = (e[cols[0]], e[cols[1]], e[cols[2]], e[cols[3]])
    for drops, pr, pc, keep_neg, keep_zero in _ONE_READS:
        if mask & drops:
            v = rows[pr][cols[pc]]
            if v is not None and v <= 0:
                mask &= keep_neg if v else keep_zero
    for drops, pr, pc, qr, qc, keep_neg, keep_zero in _TWO_READS:
        if mask & drops:
            v, w = rows[pr][cols[pc]], rows[qr][cols[qc]]
            if v is not None and w is not None:
                v += w
                if v <= 0:
                    mask &= keep_neg if v else keep_zero
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
