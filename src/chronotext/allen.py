"""Allen's interval algebra: base relations, disjunctive relations, and
qualitative constraint networks with path-consistency closure.

Intervals are convex spans of time with start < end.  Any two intervals
stand in exactly one of 13 base relations, determined by the ordering of
their four endpoints.  `ENDPOINT_SIGNS` is the one statement of that
meaning; converse, the metric export of an atom (`metric._ATOM_EDGES`)
and INDU's validity rule derive from it.
Partial knowledge is a *set* of base relations (a disjunction); networks
label interval pairs with such sets and are tightened by intersecting
each label with the composition of any two-leg path around it.

The composition table below was generated from exhaustive enumeration of
endpoint weak orders and is embedded as a constant; the test suite
re-derives it independently.

The calculus value, the relation and network base classes and the
path-consistency routine defined here serve the INDU algebra as well,
and the scenario search serves the hybrid layer.

A calculus composes and converses disjunctive relations by table lookup,
not atom by atom.  It derives split tables from its atom tables on first
use, in a shape that follows from its mask width: four half-by-half
tables for at most 16 bits (Allen's 13 split 7 + 6), one table per atom
over 8-bit chunks of the right operand for wider masks (INDU's 39
slots); its converse is one table over every mask for at most 16 bits,
and one table per 8-bit chunk for wider masks.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from functools import cached_property, lru_cache
from itertools import repeat
from operator import itemgetter, or_
from typing import Callable, Iterator, Optional, Sequence, TypeVar


class BaseRelation(enum.IntEnum):
    """The 13 atomic interval relations, in canonical order.

    The integer value is the canonical index used for tie-breaking and
    serialization everywhere in this package.
    """

    b = 0    # before
    bi = 1   # after
    m = 2    # meets
    mi = 3   # met-by
    o = 4    # overlaps
    oi = 5   # overlapped-by
    d = 6    # during
    di = 7   # contains
    s = 8    # starts
    si = 9   # started-by
    f = 10   # finishes
    fi = 11  # finished-by
    e = 12   # equals

    @property
    def converse(self) -> "BaseRelation":
        return _CONVERSE[self]

    @classmethod
    def parse(cls, token: str) -> "BaseRelation":
        """Resolve a canonical name or an accepted alias (<, >, p, a, pi, eq, =)."""
        name = _ALIASES.get(token, token)
        try:
            return cls[name]
        except KeyError:
            raise ValueError(f"unknown base relation {token!r}") from None


_ALIASES = {"<": "b", "p": "b", ">": "bi", "a": "bi", "pi": "bi", "eq": "e", "=": "e"}

# ENDPOINT_SIGNS[a] holds, for x a y, the signs (-1, 0, 1) of xs - ys,
# xs - ye, xe - ys and xe - ye (Allen, CACM 1983).
ENDPOINT_SIGNS = (
    (-1, -1, -1, -1),  # b
    (1, 1, 1, 1),      # bi
    (-1, -1, 0, -1),   # m
    (1, 0, 1, 1),      # mi
    (-1, -1, 1, -1),   # o
    (1, -1, 1, 1),     # oi
    (1, -1, 1, -1),    # d
    (-1, -1, 1, 1),    # di
    (0, -1, 1, -1),    # s
    (0, -1, 1, 1),     # si
    (1, -1, 1, 0),     # f
    (-1, -1, 1, 0),    # fi
    (0, -1, 1, 0),     # e
)

_ATOM_OF_SIGNS = {signs: atom for atom, signs in zip(BaseRelation, ENDPOINT_SIGNS)}

# y a' x negates every difference and swaps xs - ye with xe - ys
_CONVERSE = {atom: _ATOM_OF_SIGNS[-ss, -es, -se, -ee]
             for atom, (ss, se, es, ee) in zip(BaseRelation, ENDPOINT_SIGNS)}

N_ATOMS = 13
FULL_MASK = (1 << N_ATOMS) - 1

# COMPOSITION[i][j] is the bitmask of atoms k such that x i y and y j z
# admit x k z for some endpoint configuration.  Generated once from the
# endpoint-order enumeration oracle; do not edit by hand.
COMPOSITION = (
    (1, 8191, 1, 341, 1, 341, 341, 1, 1, 1, 341, 1, 1),
    (8191, 2, 1130, 2, 1130, 2, 1130, 2, 1130, 2, 2, 2, 2),
    (1, 682, 1, 7168, 1, 336, 336, 1, 4, 4, 336, 1, 4),
    (2197, 2, 4864, 2, 1120, 2, 1120, 2, 1120, 2, 8, 8, 8),
    (1, 682, 1, 672, 21, 8176, 336, 2197, 16, 2192, 336, 21, 16),
    (2197, 2, 2192, 2, 8176, 42, 1120, 682, 1120, 42, 32, 672, 32),
    (1, 2, 1, 2, 341, 1130, 64, 8191, 64, 1130, 64, 341, 64),
    (2197, 682, 2192, 672, 2192, 672, 8176, 128, 2192, 128, 672, 128, 128),
    (1, 2, 1, 8, 21, 1120, 64, 2197, 256, 4864, 64, 21, 256),
    (2197, 2, 2192, 8, 2192, 32, 1120, 128, 4864, 512, 32, 128, 512),
    (1, 2, 4, 2, 336, 42, 64, 682, 64, 42, 1024, 7168, 1024),
    (1, 682, 4, 672, 16, 672, 336, 128, 16, 128, 7168, 2048, 2048),
    (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
)


# A calculus whose masks are at most this many bits wide composes by
# half-by-half tables; a wider one by per-atom tables over 8-bit chunks.
SPLIT_MAX_WIDTH = 16


def _lift(row: Sequence[int], lo: int, width: int) -> list[int]:
    """The table of `row` over a bit field: entry x is the OR of
    row[lo + k] over the bits k of x, for every x < 2**width."""
    table = [0]
    for k in range(lo, lo + width):
        value = row[k]
        table += [x | value for x in table]
    return table


@lru_cache(maxsize=1 << 12)
def _chunk_keys(mask: int) -> tuple[int, ...]:
    """The entry p·256 + chunk value of each nonzero 8-bit chunk p of
    the mask, the keys of a right operand in a per-atom chunk table."""
    return tuple(lo // 8 * 256 | mask >> lo & 255 for lo in range(0, mask.bit_length(), 8)
                 if mask >> lo & 255)


@lru_cache(maxsize=1 << 12)
def _atom_rows(calc: Calculus, mask: int) -> tuple[list[int], ...]:
    """The per-atom chunk tables of the mask's atoms, in ascending order,
    the rows of a left operand; never mutated."""
    tables = calc._atom_chunks
    return tuple(tables[a] for a in range(mask.bit_length()) if mask >> a & 1)


def _shared(rows) -> list[list[int]]:
    """The rows as lists, with equal values held by one int object."""
    canon = {}.setdefault
    return [list(map(canon, row, row)) for row in rows]


class Calculus:
    """A qualitative calculus over bitmask relations: the atom at each bit
    position, the composition row of each atom, the converse atom of each
    atom, and the identity and full masks.

    `compose` and `converse` lift the atom tables to arbitrary masks by
    table lookup (after GQR: Gantner, Westphal & Wölfl, 2008).  The
    tables are derived from `rows` and `conv` on first use, and their
    shape follows from the width w of the full mask:

    - w <= SPLIT_MAX_WIDTH (Allen, 13): each operand splits into a low
      half of ceil(w/2) bits and a high half; four tables, one per pair
      of halves, hold the composition of every pair of half-masks, and
      a composition ORs four entries (36,864 entries for Allen);
    - wider (INDU, 39 slots): every atom of the full mask has one table
      over the 8-bit chunks of the right operand, and a composition ORs
      the entries of each left atom at each nonzero right chunk.

    `converse` is one lookup in a table over every mask for w <=
    SPLIT_MAX_WIDTH (8,192 entries for Allen, no two equal), and wider
    the OR of one table per 8-bit chunk.  Equal values in a table share
    one int object.

    `compose` is the one composition of relation objects.  `close` reads
    the same tables in line instead: it fetches the tables of the popped
    cell and of its converse once and, per third interval, ORs their
    entries at cells already loaded.  A mask's per-atom tables and chunk
    keys are memoized (`_atom_rows`, `_chunk_keys`) in bounded caches.
    """

    def __init__(self, atoms: tuple, rows: tuple[tuple[int, ...], ...], conv: tuple[int, ...],
                 identity: int, full: int):
        self.atoms, self.rows, self.conv = atoms, rows, conv
        self.identity, self.full = identity, full

    def compose(self, m1: int, m2: int) -> int:
        halves = self._halves
        if halves:
            t0, t1, cut, low, high = halves
            r0, r1 = t0[m1 & low], t1[m1 >> cut]
            b0, b1 = m2 & low, m2 >> cut | high
            return r0[b0] | r0[b1] | r1[b0] | r1[b1]
        keys, out, full = _chunk_keys(m2), 0, self.full
        for table in _atom_rows(self, m1):
            for key in keys:
                out |= table[key]
            if out == full:
                break
        return out

    def _spans(self, size: int) -> list[tuple[int, int]]:
        """(lowest bit, width) of each field when the full mask's bits are
        cut into fields of `size`."""
        width = self.full.bit_length()
        return [(lo, min(size, width - lo)) for lo in range(0, width, size)]

    @cached_property
    def _halves(self) -> Optional[tuple]:
        """(T0, T1, cut, low mask, 1 << cut), or None when the full mask is
        wider than SPLIT_MAX_WIDTH.  The half-by-half tables are stored by
        left half: row x of Tl concatenates the compositions of the left
        half l, as x, with every low right half y (entry y) and then with
        every high right half y (entry (1 << cut) | y)."""
        width = self.full.bit_length()
        if width > SPLIT_MAX_WIDTH:
            return None
        cut = (width + 1) // 2
        spans = self._spans(cut)
        tables = []
        for lo, size in spans:
            table = [[0] * ((1 << cut) + (1 << width - cut))]
            for a in range(lo, lo + size):
                row = _lift(self.rows[a], 0, cut) + _lift(self.rows[a], cut, width - cut)
                table += [list(map(or_, prev, row)) for prev in table]
            tables.append(_shared(table))
        return (*tables, cut, (1 << cut) - 1, 1 << cut)

    @cached_property
    def _atom_chunks(self) -> list[Optional[list[int]]]:
        """Per atom of the full mask, its row over each 8-bit chunk p of the
        right operand, at entry p·256 + chunk value; None for other slots."""
        spans = self._spans(8)
        tables = []
        for a, row in enumerate(self.rows):
            flat = None
            if self.full >> a & 1:
                flat = []
                for chunk in _shared(_lift(row, lo, size) for lo, size in spans):
                    flat += chunk + [0] * (256 - len(chunk))
            tables.append(flat)
        return tables

    @cached_property
    def converse(self) -> Callable[[int], int]:
        """The function from a mask to its converse (see above)."""
        bits = [1 << c for c in self.conv]
        width = self.full.bit_length()
        if width <= SPLIT_MAX_WIDTH:
            return _lift(bits, 0, width).__getitem__
        chunks = _shared(_lift(bits, lo, size) for lo, size in self._spans(8))

        def converse(mask: int) -> int:
            out = 0
            for table in chunks:
                out |= table[mask & 255]
                mask >>= 8
            return out
        return converse


ALLEN = Calculus(tuple(BaseRelation), COMPOSITION,
                 tuple(int(a.converse) for a in BaseRelation),
                 1 << BaseRelation.e, FULL_MASK)


_put = object.__setattr__


def _picker(keep: Sequence[int]) -> Callable[[Sequence], tuple]:
    """`itemgetter(*keep)`, returning a tuple for any number of keys."""
    if len(keep) > 1:
        return itemgetter(*keep)
    return lambda row: tuple(map(row.__getitem__, keep))


class Value:
    """Base of the package's immutable values.  `_fields` is read once per
    class, along its MRO: the parent's fields, then the class's own
    `__slots__`, in constructor order (a subclass needs no `__slots__`).
    `__init__` validates, then stores them.  Values of one class are equal,
    and hash alike, by their fields but those in `_uncompared` (a network's
    `_index`, derived from its `intervals`).  `replace` goes through the
    constructor; pickling restores every field.  Values built in bulk (the
    `_raw` networks of each closure and search leaf, relations, tagged
    constraints) store one `_put` per field: `_set` costs over a third more."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, *values) -> None:
        # `_put` returns None, so `any` stores every field
        any(map(_put, repeat(self), self._fields, values))

    def _compared(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields if n not in self._uncompared])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        return type(self)(**{n: getattr(self, n) for n in self._fields} | changes)

    def __reduce__(self):
        return _restored, (type(self), {n: getattr(self, n) for n in self._fields})


def _restored(cls, fields: dict):
    self = object.__new__(cls)
    any(map(_put, repeat(self), fields, fields.values()))
    return self


class BitmaskRelation(Value):
    """An immutable set of atoms of one calculus, held as a bitmask over
    the calculus's atom table; the empty set is the contradiction.

    Subclasses name their `calculus` and say how one atom is coerced to
    its bit position (`_index`, which also parses a text token) and how
    it prints (`_atom_str`).  Equality is by exact type and mask.
    """

    __slots__ = ("mask",)
    calculus: Calculus

    def __init__(self, mask: int):
        if mask & ~self.calculus.full:
            raise ValueError(f"relation mask out of range: {mask}")
        _put(self, "mask", mask)

    @classmethod
    def of(cls, *atoms):
        mask = 0
        for a in atoms:
            bit = 1 << cls._index(a)
            if bit & ~cls.calculus.full:
                raise ValueError(f"invalid {cls.__name__} atom {a}")
            mask |= bit
        return cls(mask)

    @classmethod
    def parse(cls, text: str):
        """Parse a brace-delimited, comma-separated atom set such as ``{b,m}``."""
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"relation must be brace-delimited: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls(0)
        return cls.of(*(tok.strip() for tok in body.split(",")))

    @property
    def atoms(self) -> tuple:
        table, mask, out = self.calculus.atoms, self.mask, []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(table[low.bit_length() - 1])
        return tuple(out)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __contains__(self, atom) -> bool:
        return bool(self.mask >> self._index(atom) & 1)

    def __iter__(self) -> Iterator:
        return iter(self.atoms)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __or__(self, other):
        return type(self)(self.mask | other.mask)

    def __and__(self, other):
        return type(self)(self.mask & other.mask)

    def __le__(self, other) -> bool:
        return self.mask & ~other.mask == 0

    def converse(self):
        return type(self)(self.calculus.converse(self.mask))

    def compose(self, other):
        return type(self)(self.calculus.compose(self.mask, other.mask))

    def __str__(self) -> str:
        return "{" + ",".join(self._atom_str(a) for a in self.atoms) + "}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}.parse({str(self)!r})"


class Relation(BitmaskRelation):
    """A disjunctive set of Allen base relations between two intervals;
    the full 13-atom set carries no information.  Atoms are given as
    `BaseRelation` members or their names and aliases."""

    __slots__ = ()
    calculus = ALLEN

    @staticmethod
    def _index(atom) -> int:
        return int(BaseRelation.parse(atom) if isinstance(atom, str) else atom)

    @staticmethod
    def _atom_str(atom) -> str:
        return atom.name


EMPTY = Relation(0)
FULL = Relation(FULL_MASK)
IDENTITY = Relation.of(BaseRelation.e)


class Network(Value):
    """A constraint network over named intervals for one calculus.

    `QCN(intervals, constraints)`, the same as `QCN.build`, conjoins (a,
    relation, b) triples into the network on `intervals` with no other
    constraint.  The matrix is converse-symmetric with the identity on
    the diagonal; cells are masks, read back as the subclass's relation
    type.  Instances are immutable; tightening operations return new
    networks.
    """

    __slots__ = ("intervals", "_index", "_matrix")
    _uncompared = ("_index",)
    relation: type[BitmaskRelation]

    def __init__(self, intervals: Sequence[str], constraints=()):
        """Repeated constraints on a pair intersect.  A self-constraint that
        excludes the identity is an error; one that admits it says nothing
        and is dropped."""
        intervals = tuple(intervals)
        idx = {name: i for i, name in enumerate(intervals)}
        if len(idx) != len(intervals):
            raise ValueError("duplicate interval ids")
        calc = self.relation.calculus
        m = [[calc.full] * len(intervals) for _ in intervals]
        for i, row in enumerate(m):
            row[i] = calc.identity
        for a, rel, b in constraints:
            if a not in idx or b not in idx:
                missing = a if a not in idx else b
                raise KeyError(f"unknown interval {missing!r}")
            i, j = idx[a], idx[b]
            if i == j:
                if not rel.mask & calc.identity:
                    raise ValueError(f"self-constraint on {a!r} excludes equality")
                continue
            m[i][j] &= rel.mask
            m[j][i] = calc.converse(m[i][j])
        self._set(intervals, idx, tuple(map(tuple, m)))

    @classmethod
    def build(cls, intervals: Sequence[str], constraints=()):
        """`cls(intervals, constraints)`."""
        return cls(intervals, constraints)

    def cell(self, a: str, b: str):
        return self.relation(self._matrix[self._index[a]][self._index[b]])

    def with_cell(self, a: str, b: str, rel):
        i, j = self._index[a], self._index[b]
        if i == j:
            raise ValueError("cannot replace a diagonal cell")
        if rel.calculus is not self.relation.calculus:
            raise ValueError(f"{rel!r} is of another calculus than {self.relation.__name__}")
        rows = list(self._matrix)  # rows i and j are replaced, the others shared
        ri, rj = rows[i], rows[j]
        rows[i] = ri[:j] + (rel.mask,) + ri[j + 1:]
        rows[j] = rj[:i] + (rel.calculus.converse(rel.mask),) + rj[i + 1:]
        return self._raw(self.intervals, rows, self._index)

    def restricted(self, keep: Sequence[str]):
        """The induced subnetwork on the given intervals (order preserved),
        valid as a sub-matrix of a valid network is."""
        keep = tuple(keep)
        idx = [self._index[k] for k in keep]
        index = {name: i for i, name in enumerate(keep)}
        if len(index) != len(keep):
            raise ValueError("duplicate interval ids")
        return self._raw(keep, map(_picker(idx), map(self._matrix.__getitem__, idx)), index)

    @property
    def inconsistent(self) -> bool:
        return not all(map(all, self._matrix))

    def __len__(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.intervals)!r}, <{len(self)}x{len(self)}>)"

    @classmethod
    def _raw(cls, intervals, matrix, index):
        # from a matrix that already holds the invariant; `index` is the
        # {name: position} map of `intervals`, shared with the network the
        # matrix was derived from
        self = object.__new__(cls)
        _put(self, "intervals", intervals)
        _put(self, "_index", index)
        _put(self, "_matrix", tuple(map(tuple, matrix)))
        return self


class QCN(Network):
    """A qualitative constraint network over named intervals with Allen
    relations in its cells."""

    __slots__ = ()
    relation = Relation


def close(net: Network, *, changed: Optional[Sequence[tuple[int, int]]] = None) -> Network:
    """Queue-driven path consistency (PC-2) over the network's calculus:
    the largest fixpoint of C[i][j] <- C[i][j] & compose(C[i][k], C[k][j])
    over all triples.  Output cells are subsets of input cells and the
    operation is idempotent.  It runs `_propagate`, the loop the scenario
    search runs in place, on a copy of the matrix and freezes the result.

    The pairs (i, j), i < j, of `changed` start on a FIFO queue, or every
    pair when it is None.  Popping (i, j) revises (i, k) with
    C[i][j] C[j][k] and then (k, j) as its converse, (j, k) with
    C[j][i] C[i][k], for every other k (conv(A B) = conv(B) conv(A)); a
    pair whose cell shrinks is queued again unless it is already waiting.
    Stops at the first empty cell, which marks the network inconsistent;
    the other cells of such a result are only partially tightened.
    Starting from `changed` alone is exact only when the network was
    closed before those cells were tightened: every cell outside
    `changed` must already be closed.

    Composing a nonempty relation with the full one gives the full one,
    so a revision whose bound would be composed from a full cell cannot
    change anything and is skipped without composing: a popped pair with
    a full cell, the (i, k) revision when C[j][k] is full and the (k, j)
    revision when C[i][k] is full.  The other revisions run in the same
    order, so closed results are those of revising every triple; so are
    inconsistent ones unless an input cell is empty (empty composed with
    full is empty, so such a run may stop at another empty cell).

    No revision calls `Calculus.compose`: the compositions are read from
    the calculus's split tables in line (after GQR, and van Beek &
    Manchak, JAIR 1996), in the shape `Calculus._halves` selects.  The
    left operands, C[i][j] and C[j][i], have their tables fetched once
    per pop; the right operands, C[j][k] and C[i][k], are already loaded.
    Each revision then ORs four half-table entries (Allen), or, left atom
    by left atom in ascending order, the entries at the right operand's
    nonzero chunks (INDU), stopping once the bound covers the cell, which
    the full mask always does.  Only a cell that really shrinks runs
    `tighten`: its trail entry, its converse, its place on the queue and
    the empty-cell test.
    """
    n = len(net.intervals)
    if n < 3:
        return net  # no triangle, and no table to build
    m = [list(row) for row in net._matrix]
    if changed is None:
        changed = [(i, j) for i in range(n) for j in range(i + 1, n)]
    _propagate(net.relation.calculus, m, changed)
    return net._raw(net.intervals, m, net._index)


def _propagate(calc: Calculus, m: list[list[int]], changed: Sequence[tuple[int, int]],
               trail: Optional[list[tuple[int, int, int]]] = None) -> bool:
    """`close`'s loop on the list-of-lists matrix `m`, in place; False at the
    first cell it empties.  With a trail, (a, b, old mask) goes on it before
    cell (a, b) is tightened, so popping it newest first undoes the run."""
    n = len(m)
    converse, full, halves = calc.converse, calc.full, calc._halves
    queue = deque(changed)
    waiting = bytearray(n * n)  # waiting[a·n + b] for a queued pair (a, b), a < b
    for i, j in changed:
        waiting[i * n + j] = 1

    def tighten(a: int, b: int, new: int) -> bool:
        """Store C[a][b] = new, a strict subset of the cell; False when empty."""
        if trail is not None:
            trail.append((a, b, m[a][b]))
        m[a][b] = new
        m[b][a] = converse(new)
        if a > b:
            a, b = b, a
        if not waiting[a * n + b]:
            waiting[a * n + b] = 1
            queue.append((a, b))
        return new != 0

    while queue:
        i, j = queue.popleft()
        waiting[i * n + j] = 0
        rel = m[i][j]
        if rel == full:
            continue
        mi, mj = m[i], m[j]
        if halves:
            t0, t1, cut, low, high = halves
            r0, r1 = t0[rel & low], t1[rel >> cut]
            ji = mj[i]
            c0, c1 = t0[ji & low], t1[ji >> cut]
            for k in range(n):
                if k == i or k == j:
                    continue
                jk, ik = mj[k], mi[k]
                if jk != full:
                    x0, x1 = jk & low, jk >> cut | high
                    new = ik & (r0[x0] | r0[x1] | r1[x0] | r1[x1])
                    if new != ik:
                        if not tighten(i, k, new):
                            return False
                        ik = new
                if ik != full:
                    x0, x1 = ik & low, ik >> cut | high
                    new = jk & (c0[x0] | c0[x1] | c1[x0] | c1[x1])
                    if new != jk and not tighten(j, k, new):
                        return False
        else:
            rows, crows = _atom_rows(calc, rel), _atom_rows(calc, mj[i])
            for k in range(n):
                if k == i or k == j:
                    continue
                jk, ik = mj[k], mi[k]
                if jk != full:
                    keys, out = _chunk_keys(jk), 0
                    for row in rows:
                        for key in keys:
                            out |= row[key]
                        if out & ik == ik:
                            break
                    new = ik & out
                    if new != ik:
                        if not tighten(i, k, new):
                            return False
                        ik = new
                if ik != full:
                    keys, out = _chunk_keys(ik), 0
                    for row in crows:
                        for key in keys:
                            out |= row[key]
                        if out & jk == jk:
                            break
                    new = jk & out
                    if new != jk and not tighten(j, k, new):
                        return False
    return True


W = TypeVar("W")


def scenario_search(start: QCN, leaf: Callable[[QCN], Optional[W]]) -> Optional[W]:
    """Depth-first search for an atomic refinement of a closed, consistent
    network.  The first pair (i < j) in interval order whose cell is not
    atomic is split into its atoms in canonical order; each choice is
    propagated from that pair alone, and one that empties a cell is
    dropped.  Every closed atomic network is handed to `leaf`, and the
    first witness it returns (not None) ends the search; None when no
    leaf yields one.

    One mutable matrix and an undo trail serve the whole search, not a
    network per node (Schulte, ICLP 1999).  Trying an atom trails the
    pair's cell, writes the atom and its converse and runs `_propagate`
    from that pair; backtracking pops the trail back to the level's mark.
    Cells only shrink, so the scan for the next open pair resumes after
    the level's pair.  Each leaf gets a snapshot; `start` is not changed.
    The open levels are a list, so no recursion limit applies.
    """
    calc = start.relation.calculus
    n = len(start.intervals)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = [list(row) for row in start._matrix]
    trail, levels, p = [], [], 0  # a level: (pair position, atoms left, trail mark)
    while True:
        for p in range(p, len(pairs)):
            i, j = pairs[p]
            mask = m[i][j]
            if mask & (mask - 1):
                levels.append((p, mask, len(trail)))
                break
        else:
            found = leaf(start._raw(start.intervals, m, start._index))
            if found is not None:
                return found
        while levels:
            p, mask, mark = levels.pop()
            while len(trail) > mark:
                a, b, old = trail.pop()
                m[a][b], m[b][a] = old, calc.converse(old)
            bit = mask & -mask
            if mask != bit:  # done after its last atom: an outer level's undo covers it
                levels.append((p, mask ^ bit, mark))
            i, j = pairs[p]
            trail.append((i, j, m[i][j]))
            m[i][j], m[j][i] = bit, calc.converse(bit)
            if n < 3 or _propagate(calc, m, [(i, j)], trail):  # n < 3: no triangle, no table
                p += 1
                break
        else:
            return None


def atomic_consistent(net: QCN) -> tuple[bool, Optional[QCN]]:
    """Search for an atomic refinement (one atom per cell) that survives
    closure, backtracking over atom choices in canonical order: `close`
    once at the root, then `scenario_search`.

    Path consistency alone is incomplete for general Allen networks, but
    it is complete for atomic ones, so a closed atomic network is
    realizable.  Returns (True, scenario) or (False, None).
    """
    start = close(net)
    scenario = None if start.inconsistent else scenario_search(start, lambda qcn: qcn)
    return scenario is not None, scenario


@lru_cache(maxsize=1 << 13)
def _mask_text(mask: int) -> str:
    # one entry per Allen mask at most
    return str(Relation(mask))


def format_qcn(net: QCN) -> str:
    """Serialize a network: header line listing the intervals, then one
    line per informative upper-triangle cell with ids in sorted order.

    Tautology cells are omitted; atoms print in canonical order.  The
    format round-trips bit-exactly through parse_qcn.
    """
    names = sorted(net.intervals)
    index, rows = net._index, net._matrix
    lines = ["intervals " + " ".join(names)]
    for pos, a in enumerate(names):
        row = rows[index[a]]
        for b in names[pos + 1:]:
            mask = row[index[b]]
            if mask != FULL_MASK:
                lines.append(f"{a} {b} {_mask_text(mask)}")
    return "\n".join(lines) + "\n"


def parse_qcn(text: str) -> QCN:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "intervals":
        raise ValueError("expected an 'intervals' header line")
    names = lines[0].split()[1:]
    constraints = []
    for ln in lines[1:]:
        match = re.fullmatch(r"(\S+)\s+(\S+)\s+(\{.*\})", ln)
        if not match:
            raise ValueError(f"bad constraint line: {ln!r}")
        a, b, rel = match.groups()
        constraints.append((a, Relation.parse(rel), b))
    return QCN.build(names, constraints)
