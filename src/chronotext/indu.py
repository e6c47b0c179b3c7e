"""The INDU algebra: Allen relations augmented with a qualitative
comparison of the two intervals' durations.

An atom pairs an Allen base relation with a duration sign (<, =, >).
Not every pair is coherent: an interval strictly inside another is
necessarily shorter, so d, s, f force <, their converses force >, and
equality forces = (derived from `allen.ENDPOINT_SIGNS`).  That leaves 25
valid atoms.  Composition works component-wise (Allen table for the
interval part, order transitivity for the sign part) and filters the
result through the same validity rule.

`INDURelation`, `INDUNetwork` and `indu_close` are the one bitmask
relation type, network class and path-consistency routine of `allen.py`;
INDU supplies only its atom, composition and converse tables and the
``allen^sign`` atom syntax.
"""

from __future__ import annotations

from typing import NamedTuple

from .allen import (
    COMPOSITION, ENDPOINT_SIGNS, N_ATOMS, QCN, BaseRelation, BitmaskRelation, Calculus,
    Network, close,
)

SIGNS = ("<", "=", ">")
_SIGN_INDEX = {"<": 0, "=": 1, ">": 2}
_SIGN_FLIP = {"<": ">", "=": "=", ">": "<"}

# order transitivity of duration comparisons: sign(x,z) given sign(x,y), sign(y,z)
_SIGN_COMPOSE = {
    ("<", "<"): ("<",), ("<", "="): ("<",), ("=", "<"): ("<",),
    (">", ">"): (">",), (">", "="): (">",), ("=", ">"): (">",),
    ("=", "="): ("=",),
    ("<", ">"): ("<", "=", ">"), (">", "<"): ("<", "=", ">"),
}

# dur(x) - dur(y) = (xe - ye) - (xs - ys): its sign is forced unless
# those two differences have the same nonzero sign
_FORCED_SIGN = {atom: SIGNS[1 + (ee > ss) - (ee < ss)]
                for atom, (ss, _, _, ee) in zip(BaseRelation, ENDPOINT_SIGNS)
                if not ss == ee != 0}


class INDUAtom(NamedTuple):
    allen: BaseRelation
    dur: str

    @property
    def index(self) -> int:
        return int(self.allen) * 3 + _SIGN_INDEX[self.dur]

    @property
    def converse(self) -> "INDUAtom":
        return INDUAtom(self.allen.converse, _SIGN_FLIP[self.dur])

    @property
    def valid(self) -> bool:
        forced = _FORCED_SIGN.get(self.allen)
        return forced is None or forced == self.dur

    def __str__(self) -> str:
        return f"{self.allen.name}^{self.dur}"


N_SLOTS = 39
_ALL_ATOMS = tuple(INDUAtom(a, s) for a in BaseRelation for s in SIGNS)
VALID_MASK = 0
for _atom in _ALL_ATOMS:
    if _atom.valid:
        VALID_MASK |= 1 << _atom.index


def valid_atoms() -> tuple[INDUAtom, ...]:
    """The 25 coherent (Allen, sign) pairs, in canonical order."""
    return tuple(a for a in _ALL_ATOMS if a.valid)


def _spread(allen_mask: int) -> int:
    """The `<` slot (bit 3a) of every Allen atom a of the mask."""
    return sum(1 << 3 * a for a in range(N_ATOMS) if allen_mask >> a & 1)


_SPREAD_COMPOSITION = tuple(tuple(_spread(mask) for mask in row) for row in COMPOSITION)
_SIGN_BITS = {pair: sum(1 << _SIGN_INDEX[s] for s in signs)
              for pair, signs in _SIGN_COMPOSE.items()}


def _compose_slots(i: int, j: int) -> int:
    a1, s1 = _ALL_ATOMS[i]
    a2, s2 = _ALL_ATOMS[j]
    # slots of one Allen atom are 3 apart, so the product places a copy
    # of the sign bits on every atom of the Allen composition
    return _SPREAD_COMPOSITION[a1][a2] * _SIGN_BITS[s1, s2] & VALID_MASK


INDU = Calculus(
    _ALL_ATOMS,
    tuple(tuple(_compose_slots(i, j) for j in range(N_SLOTS)) for i in range(N_SLOTS)),
    tuple(a.converse.index for a in _ALL_ATOMS),
    1 << INDUAtom(BaseRelation.e, "=").index,
    VALID_MASK,
)


class INDURelation(BitmaskRelation):
    """A set of valid INDU atoms.  Atoms are given as `INDUAtom`s,
    (allen, sign) pairs or ``allen^sign`` tokens."""

    __slots__ = ()
    calculus = INDU

    @staticmethod
    def _index(atom) -> int:
        if isinstance(atom, str):
            if "^" not in atom:
                raise ValueError(f"INDU atom must be allen^sign: {atom!r}")
            atom = atom.split("^", 1)
        allen, dur = atom
        if dur not in _SIGN_INDEX:
            raise ValueError(f"unknown duration sign {dur!r}")
        if isinstance(allen, str):
            allen = BaseRelation.parse(allen)
        return int(allen) * 3 + _SIGN_INDEX[dur]

    _atom_str = staticmethod(str)


INDU_IDENTITY = INDURelation(INDU.identity)
INDU_TAUTOLOGY = INDURelation(VALID_MASK)


class INDUNetwork(Network):
    """Interval network with INDU cells; the same constructor and shape
    contract as QCN (diagonal identity, converse symmetry, immutable)."""

    __slots__ = ()
    relation = INDURelation


def indu_close(net: INDUNetwork) -> INDUNetwork:
    """Triangle fixpoint with INDU composition; cells only shrink, the
    result is idempotent, and an empty cell flags inconsistency (the
    other cells of an inconsistent result are only partially tightened)."""
    return close(net)


def _allen_part(mask: int) -> int:
    out = 0
    for slot in range(N_SLOTS):
        if mask & (1 << slot):
            out |= 1 << (slot // 3)
    return out


def project_allen(net: INDUNetwork) -> QCN:
    """Drop the duration signs, keeping the union of Allen parts per cell."""
    return QCN._raw(net.intervals, [[_allen_part(c) for c in row] for row in net._matrix],
                    net._index)
