"""The INDU algebra: Allen relations augmented with a qualitative
comparison of the two intervals' durations.

An atom pairs an Allen base relation with a duration sign (<, =, >).
Not every pair is coherent: an interval strictly inside another is
necessarily shorter, so d, s, f force <, their converses force >, and
equality forces =.  That leaves 25 valid atoms.  Composition works
component-wise (Allen table for the interval part, order transitivity
for the sign part) and filters the result through the same validity
rule.
"""

from __future__ import annotations

from typing import NamedTuple

from .allen import (
    COMPOSITION, N_ATOMS, QCN, BaseRelation, Calculus, Network, Relation,
    path_consistency,
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

_FORCED_SIGN = {
    BaseRelation.d: "<", BaseRelation.s: "<", BaseRelation.f: "<",
    BaseRelation.di: ">", BaseRelation.si: ">", BaseRelation.fi: ">",
    BaseRelation.e: "=",
}


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
INDU_FULL = VALID_MASK


def valid_atoms() -> tuple[INDUAtom, ...]:
    """The 25 coherent (Allen, sign) pairs, in canonical order."""
    return tuple(a for a in _ALL_ATOMS if a.valid)


def _compose_slots(i: int, j: int) -> int:
    a1, s1 = _ALL_ATOMS[i]
    a2, s2 = _ALL_ATOMS[j]
    out = 0
    allen_mask = COMPOSITION[a1][a2]
    for a3 in range(N_ATOMS):
        if not allen_mask & (1 << a3):
            continue
        for s3 in _SIGN_COMPOSE[(s1, s2)]:
            out |= 1 << (a3 * 3 + _SIGN_INDEX[s3])
    return out & VALID_MASK


INDU = Calculus(
    tuple(tuple(_compose_slots(i, j) for j in range(N_SLOTS)) for i in range(N_SLOTS)),
    tuple(a.converse.index for a in _ALL_ATOMS),
    1 << INDUAtom(BaseRelation.e, "=").index,
    VALID_MASK,
)


class INDURelation:
    """A set of valid INDU atoms; the empty set is the contradiction."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if mask & ~VALID_MASK:
            raise ValueError("relation contains invalid atoms")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("INDURelation is immutable")

    @classmethod
    def of(cls, *atoms: INDUAtom | tuple) -> "INDURelation":
        mask = 0
        for a in atoms:
            if not isinstance(a, INDUAtom):
                allen, dur = a
                if isinstance(allen, str):
                    allen = BaseRelation.parse(allen)
                a = INDUAtom(allen, dur)
            if not a.valid:
                raise ValueError(f"invalid INDU atom {a}")
            mask |= 1 << a.index
        return cls(mask)

    @classmethod
    def parse(cls, text: str) -> "INDURelation":
        """Parse a brace-delimited set of ``allen^sign`` atoms."""
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"INDU relation must be brace-delimited: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls(0)
        atoms = []
        for tok in body.split(","):
            tok = tok.strip()
            if "^" not in tok:
                raise ValueError(f"INDU atom must be allen^sign: {tok!r}")
            name, sign = tok.split("^", 1)
            if sign not in _SIGN_INDEX:
                raise ValueError(f"unknown duration sign {sign!r}")
            atoms.append(INDUAtom(BaseRelation.parse(name), sign))
        return cls.of(*atoms)

    @classmethod
    def from_allen(cls, rel: Relation) -> "INDURelation":
        """All valid atoms whose Allen part lies in the given relation
        (the reading of a bare interval constraint, signs unknown)."""
        mask = 0
        for a in rel:
            for s in SIGNS:
                atom = INDUAtom(a, s)
                if atom.valid:
                    mask |= 1 << atom.index
        return cls(mask)

    @property
    def atoms(self) -> tuple[INDUAtom, ...]:
        return tuple(a for a in _ALL_ATOMS if self.mask & (1 << a.index))

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __contains__(self, atom: INDUAtom) -> bool:
        return bool(self.mask & (1 << atom.index))

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __and__(self, other: "INDURelation") -> "INDURelation":
        return INDURelation(self.mask & other.mask)

    def __or__(self, other: "INDURelation") -> "INDURelation":
        return INDURelation(self.mask | other.mask)

    def __le__(self, other: "INDURelation") -> bool:
        return self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, INDURelation) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(("indu", self.mask))

    def __str__(self) -> str:
        return "{" + ",".join(str(a) for a in self.atoms) + "}"

    def __repr__(self) -> str:
        return f"INDURelation.parse({str(self)!r})"


INDU_IDENTITY = INDURelation(INDU.identity)
INDU_TAUTOLOGY = INDURelation(VALID_MASK)


def indu_converse(rel: INDURelation) -> INDURelation:
    return INDURelation(INDU.converse(rel.mask))


def indu_compose(r1: INDURelation, r2: INDURelation) -> INDURelation:
    return INDURelation(INDU.compose(r1.mask, r2.mask))


class INDUNetwork(Network):
    """Interval network with INDU cells; same shape contract as QCN
    (diagonal identity, converse symmetry, immutable)."""

    __slots__ = ()
    calculus = INDU
    relation = INDURelation


def indu_close(net: INDUNetwork) -> INDUNetwork:
    """Triangle fixpoint with INDU composition; cells only shrink, the
    result is idempotent, and an empty cell flags inconsistency (the
    other cells of an inconsistent result are only partially tightened)."""
    return path_consistency(net)


def _allen_part(mask: int) -> int:
    out = 0
    for slot in range(N_SLOTS):
        if mask & (1 << slot):
            out |= 1 << (slot // 3)
    return out


def project_allen(net: INDUNetwork) -> QCN:
    """Drop the duration signs, keeping the union of Allen parts per cell."""
    return QCN(net.intervals, [[_allen_part(c) for c in row] for row in net._matrix])


def project_relation(rel: INDURelation) -> Relation:
    return Relation(_allen_part(rel.mask))
