import random

import pytest
from hypothesis import given, strategies as st

from chronotext.allen import FULL_MASK, QCN, BaseRelation, Relation, close
from chronotext.indu import (
    INDU, INDU_IDENTITY, INDU_TAUTOLOGY, VALID_MASK, INDUAtom, INDUNetwork,
    INDURelation, indu_close, indu_compose, indu_converse, project_allen,
    project_relation, valid_atoms,
)
from oracles import (
    compose_by_atoms, converse_by_atoms, indu_pairs_by_enumeration,
    indu_triples_by_enumeration, sweep_closure,
)


def A(name, sign):
    return INDUAtom(BaseRelation.parse(name), sign)


class TestValidAtoms:
    def test_count_is_25(self):
        assert len(valid_atoms()) == 25

    def test_examples(self):
        assert A("s", "<") in valid_atoms()
        assert A("e", "<") not in valid_atoms()

    def test_matches_duration_semantics(self):
        # the validity rule equals what two realized intervals can exhibit
        observed = {(a, s) for a, s in indu_pairs_by_enumeration()}
        assert {(a.allen.name, a.dur) for a in valid_atoms()} == observed


SLOTS = tuple(INDUAtom(a, s) for a in BaseRelation for s in ("<", "=", ">"))


def _random_relations(rng, count):
    """Seeded masks of both relation types, the empty and full ones first."""
    rels = [Relation(0), Relation(FULL_MASK), INDURelation(0), INDU_TAUTOLOGY]
    for _ in range(count):
        rels.append(Relation(rng.randrange(FULL_MASK + 1)))
        rels.append(INDURelation(rng.getrandbits(39) & VALID_MASK))
    return rels


class TestSharedRelationType:
    """`Relation` and `INDURelation` are one bitmask relation type over
    two calculi."""

    def test_single_atoms_round_trip(self):
        rels = [Relation.of(a) for a in BaseRelation]
        rels += [INDURelation.of(a) for a in valid_atoms()]
        for rel in rels:
            assert rel.is_atomic and len(rel) == 1
            assert type(rel).parse(str(rel)) == rel

    def test_random_masks_round_trip(self):
        for rel in _random_relations(random.Random(5), 200):
            assert type(rel).parse(str(rel)) == rel
            assert eval(repr(rel), {"Relation": Relation, "INDURelation": INDURelation}) == rel

    def test_atoms_match_table_scan(self):
        # the scans the two types made before they shared one
        for rel in _random_relations(random.Random(6), 200):
            if isinstance(rel, INDURelation):
                assert rel.atoms == tuple(a for a in SLOTS if rel.mask & (1 << a.index))
            else:
                assert rel.atoms == tuple(a for a in BaseRelation if rel.mask & (1 << a))
            assert list(rel) == list(rel.atoms)
            assert all(a in rel for a in rel.atoms)

    def test_equality_is_by_type(self):
        for mask in (0, 1, 5, 4096):
            assert Relation(mask) != INDURelation(mask)
            assert not Relation(mask) == INDURelation(mask)
            assert Relation(mask) == Relation(mask)
            assert hash(Relation(mask)) == hash(Relation(mask))

    @pytest.mark.parametrize("make, mask", [
        (Relation, FULL_MASK + 1), (Relation, -1),
        (INDURelation, VALID_MASK + 1), (INDURelation, -1),
        (INDURelation, 1 << A("d", ">").index),
    ])
    def test_out_of_calculus_mask_rejected(self, make, mask):
        with pytest.raises(ValueError, match="out of range"):
            make(mask)

    def test_immutable(self):
        for rel in (Relation(1), INDURelation(1)):
            with pytest.raises(AttributeError):
                rel.mask = 2

    def test_set_operators_keep_the_type(self):
        for a, b in ((Relation(3), Relation(6)), (INDURelation(3), INDURelation(6))):
            for got in (a & b, a | b, a.converse(), a.compose(b)):
                assert type(got) is type(a)
            assert (a & b).mask == 2 and (a | b).mask == 7
            assert a & b <= a <= a | b


class TestConverse:
    def test_examples(self):
        assert indu_converse(INDURelation.of(("m", "<"))) == INDURelation.of(("mi", ">"))
        assert indu_converse(INDU_IDENTITY) == INDU_IDENTITY

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(200):
            rel = INDURelation(rng.randrange(VALID_MASK + 1) & VALID_MASK)
            assert indu_converse(indu_converse(rel)) == rel


class TestCompose:
    def test_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            rel = INDURelation(rng.randrange(VALID_MASK + 1) & VALID_MASK)
            assert indu_compose(INDU_IDENTITY, rel) == rel
            assert indu_compose(rel, INDU_IDENTITY) == rel

    def test_meets_shorter_chain(self):
        # frozen from the endpoint+duration enumeration oracle
        got = indu_compose(INDURelation.of(("m", "<")), INDURelation.of(("m", "<")))
        assert got == INDURelation.of(("b", "<"))

    def test_validity_filter_discards_incoherent_pairs(self):
        # d composed content can never carry dur >
        got = indu_compose(INDURelation.of(("d", "<")), INDURelation.of(("s", "<")))
        for atom in got:
            assert atom.valid
        with pytest.raises(ValueError):
            INDURelation.of(("d", ">"))

    def test_projection_agrees_with_allen_compose(self):
        for a1 in BaseRelation:
            for a2 in BaseRelation:
                r1 = INDURelation.from_allen(Relation.of(a1))
                r2 = INDURelation.from_allen(Relation.of(a2))
                got = project_relation(indu_compose(r1, r2))
                want = Relation.of(a1).compose(Relation.of(a2))
                assert got == want, f"{a1.name} ; {a2.name}"


valid_masks = st.integers(min_value=0, max_value=VALID_MASK).map(lambda m: m & VALID_MASK)


class TestCompositionTables:
    """`INDU.compose` and `INDU.converse` look masks up in tables derived
    from the atom rows; the references loop over atoms."""

    def test_valid_atom_with_random_masks_on_both_sides(self):
        rng = random.Random(419)
        masks = [rng.getrandbits(VALID_MASK.bit_length()) & VALID_MASK for _ in range(2000)]
        for atom in valid_atoms():
            bit = 1 << atom.index
            for mask in masks:
                assert INDU.compose(bit, mask) == compose_by_atoms(INDU.rows, bit, mask)
                assert INDU.compose(mask, bit) == compose_by_atoms(INDU.rows, mask, bit)
            assert INDU.converse(bit) == 1 << atom.converse.index

    def test_every_valid_atom_with_every_chunk(self):
        """A valid atom composed with a valid mask within one 8-bit chunk
        reads exactly one table entry, so this reads every entry that a
        valid mask can reach; the converse of such a mask likewise."""
        chunks = [mask for p in range(0, VALID_MASK.bit_length(), 8)
                  for mask in (byte << p for byte in range(256)) if mask & ~VALID_MASK == 0]
        for mask in chunks:
            for atom in valid_atoms():
                bit = 1 << atom.index
                assert INDU.compose(bit, mask) == compose_by_atoms(INDU.rows, bit, mask)
            assert INDU.converse(mask) == converse_by_atoms(INDU.conv, mask)

    @given(valid_masks, valid_masks)
    def test_mask_pairs(self, m1, m2):
        assert INDU.compose(m1, m2) == compose_by_atoms(INDU.rows, m1, m2)
        assert INDU.converse(m1) == converse_by_atoms(INDU.conv, m1)


class TestClose:
    def test_diagonal_only_unchanged(self):
        net = INDUNetwork(["x", "y", "z"])
        assert indu_close(net) == net

    def test_starts_shorter_chain_matches_oracle(self):
        net = INDUNetwork.build(
            ["x", "y", "z"],
            [("x", INDURelation.of(("s", "<")), "y"),
             ("y", INDURelation.of(("s", "<")), "z")],
        )
        closed = indu_close(net)
        cell = closed.cell("x", "z")
        allowed = INDURelation.of(("s", "<"), ("b", "<"), ("m", "<"), ("o", "<"), ("d", "<"))
        assert cell <= allowed
        # oracle: configurations with x s y, y s z and the implied durations
        oracle = {p3 for p1, p2, p3 in indu_triples_by_enumeration()
                  if p1 == ("s", "<") and p2 == ("s", "<")}
        assert {(a.allen.name, a.dur) for a in cell} == oracle

    def test_fixed_duration_timers_not_caught_without_metric(self):
        # two equal-relations to differently-sized timers survive pure
        # INDU closure; only the metric layer can contradict them
        net = INDUNetwork.build(
            ["bake", "one_hour", "two_hours"],
            [("bake", INDU_IDENTITY, "one_hour"),
             ("bake", INDU_IDENTITY, "two_hours")],
        )
        closed = indu_close(net)
        assert not closed.inconsistent
        assert closed.cell("one_hour", "two_hours") == INDU_IDENTITY

    def test_idempotent_and_monotone(self):
        rng = random.Random(17)
        for _ in range(20):
            names = ["x", "y", "z"]
            cons = []
            for i in range(3):
                for j in range(i + 1, 3):
                    mask = rng.randrange(1, VALID_MASK + 1) & VALID_MASK
                    if mask == 0:
                        mask = INDU_IDENTITY.mask
                    cons.append((names[i], INDURelation(mask), names[j]))
            net = INDUNetwork.build(names, cons)
            once = indu_close(net)
            assert indu_close(once) == once
            if not once.inconsistent:
                for i, a in enumerate(names):
                    for b in names[i + 1:]:
                        assert once.cell(a, b) <= net.cell(a, b)

    def test_realizable_atomic_networks_never_empty(self):
        for p1, p2, p3 in sorted(indu_triples_by_enumeration()):
            net = INDUNetwork.build(
                ["x", "y", "z"],
                [("x", INDURelation.of(p1), "y"),
                 ("y", INDURelation.of(p2), "z"),
                 ("x", INDURelation.of(p3), "z")],
            )
            assert not indu_close(net).inconsistent, (p1, p2, p3)


    def test_agrees_with_sweep(self):
        # same verdict as the plain sweep, and the same matrix when consistent
        rng = random.Random(2011)
        verdicts = []
        for _ in range(60):
            n = rng.randint(3, 6)
            names = [f"v{i}" for i in range(n)]
            density = rng.uniform(0.3, 1.0)
            cons = [(names[i], INDURelation.of(*rng.sample(valid_atoms(), rng.randint(1, 8))),
                     names[j])
                    for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            net = INDUNetwork.build(names, cons)
            closed = indu_close(net)
            matrix = [[net.cell(a, b).mask for b in names] for a in names]
            expected = sweep_closure(matrix, INDU.rows, INDU.conv)
            assert closed.inconsistent == (expected is None)
            if expected is not None:
                assert closed == INDUNetwork(names, expected)
            verdicts.append(closed.inconsistent)
        assert 5 <= sum(verdicts) <= 55


class TestBuild:
    def test_self_constraint_must_admit_identity(self):
        # the rule QCN.build applies: a self-constraint without e^= is an error
        with pytest.raises(ValueError, match="excludes equality"):
            INDUNetwork.build(["x"], [("x", INDURelation.of(("b", "<")), "x")])
        loose = INDU_IDENTITY | INDURelation.of(("b", "<"))
        assert INDUNetwork.build(["x", "y"], [("x", loose, "x")]) == INDUNetwork(["x", "y"])

    def test_results_pass_the_public_validation(self):
        rng = random.Random(19)
        for _ in range(20):
            names = ["w", "x", "y", "z"]
            def rel():
                return INDURelation(rng.randrange(INDU.full + 1) & VALID_MASK)
            net = INDUNetwork.build(names, [(a, rel(), b) for a in names for b in names
                                            if a != b and rng.random() < 0.4])
            net = net.with_cell(*rng.sample(names, 2), rel())
            assert INDUNetwork(net.intervals, net._matrix) == net

    def test_with_cell_rejects_diagonal_and_other_calculus(self):
        net = INDUNetwork(["x", "y"])
        with pytest.raises(ValueError, match="diagonal"):
            net.with_cell("x", "x", INDU_IDENTITY)
        with pytest.raises(ValueError, match="another calculus than INDURelation"):
            net.with_cell("x", "y", Relation.of("b"))
        with pytest.raises(ValueError, match="another calculus than Relation"):
            QCN(["x", "y"]).with_cell("x", "y", INDURelation.of(("b", "<")))

    def test_public_constructor_validates(self):
        ident, before = INDU_IDENTITY.mask, INDURelation.of(("b", "<")).mask
        after = indu_converse(INDURelation(before)).mask
        with pytest.raises(ValueError, match="converse-symmetric"):
            INDUNetwork(["x", "y"], [[ident, before], [before, ident]])
        with pytest.raises(ValueError, match="diagonal"):
            INDUNetwork(["x", "y"], [[before, before], [after, ident]])
        # d^= is not a valid atom; the matrix is converse-symmetric, so only
        # the range check rejects it
        invalid, converse = 1 << A("d", "=").index, 1 << A("di", "=").index
        with pytest.raises(ValueError, match="relation mask out of range"):
            INDUNetwork(["x", "y"], [[ident, invalid], [converse, ident]])

    def test_public_constructor_checks_the_shape(self):
        ident, before = INDU_IDENTITY.mask, INDURelation.of(("b", "<")).mask
        after = indu_converse(INDURelation(before)).mask
        for matrix in ([[ident]], [[ident, before], [after]],
                       [[ident, before, 1], [after, ident, 1]]):
            with pytest.raises(ValueError, match="must be 2x2"):
                INDUNetwork(["x", "y"], matrix)


class TestProjection:
    def test_examples(self):
        rel = INDURelation.of(("m", "<"), ("m", "="))
        assert project_relation(rel) == Relation.of("m")
        net = INDUNetwork(["x", "y"])
        q = project_allen(net)
        assert q.cell("x", "x") == Relation.of("e")

    def test_close_then_project_tightens_at_least_as_much(self):
        rng = random.Random(23)
        for _ in range(20):
            names = ["x", "y", "z"]
            cons = []
            for i in range(3):
                for j in range(i + 1, 3):
                    mask = rng.randrange(1, VALID_MASK + 1) & VALID_MASK or INDU_IDENTITY.mask
                    cons.append((names[i], INDURelation(mask), names[j]))
            net = INDUNetwork.build(names, cons)
            lhs = project_allen(indu_close(net))
            rhs = close(project_allen(net))
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    assert lhs.cell(a, b) <= rhs.cell(a, b)

    def test_from_allen_on_every_mask(self):
        # the reference keeps, atom by atom, the valid atoms whose Allen part
        # the mask holds; every Allen mask, the empty and full ones included
        for mask in range(FULL_MASK + 1):
            rel = Relation(mask)
            want = INDURelation.of(*(a for a in valid_atoms() if a.allen in rel))
            assert INDURelation.from_allen(rel) == want, mask
            assert project_relation(want) == rel


class TestSerialization:
    def test_atom_format(self):
        assert str(A("m", "<")) == "m^<"
        rel = INDURelation.of(("m", "<"), ("m", "="), ("b", ">"))
        assert str(rel) == "{b^>,m^<,m^=}"

    def test_parse_roundtrip(self):
        rel = INDURelation.of(("m", "<"), ("e", "="), ("oi", ">"))
        assert INDURelation.parse(str(rel)) == rel
        assert INDURelation.parse("{}") == INDURelation(0)

    def test_canonical_order(self):
        rel = INDURelation.of(("b", ">"), ("b", "<"), ("b", "="))
        assert str(rel) == "{b^<,b^=,b^>}"
