import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chronotext import allen
from chronotext.allen import (
    ALLEN, COMPOSITION, FULL, FULL_MASK, EMPTY, N_ATOMS, BaseRelation, Calculus, QCN,
    Relation, atomic_consistent, close, format_qcn, parse_qcn,
)
from chronotext.indu import INDU, INDUNetwork, INDURelation
from oracles import (
    atom_by_definition,
    compose_all_path_consistency,
    compose_by_atoms,
    composition_by_enumeration,
    converse_by_atoms,
    full_queue_atomic_consistent,
    full_queue_scenario_search,
    object_format_qcn,
    per_entry_restricted,
    realizable_atom_triples,
    realize_small,
    sweep_closure,
)

relations = st.builds(Relation, st.integers(min_value=0, max_value=FULL_MASK))


def F(x):
    return Fraction(x)


def iv(a, b):
    return (F(a), F(b))


class TestAtoms:
    def test_thirteen_atoms_with_canonical_indices(self):
        assert len(BaseRelation) == 13
        assert [a.value for a in BaseRelation] == list(range(13))
        assert [a.name for a in BaseRelation] == [
            "b", "bi", "m", "mi", "o", "oi", "d", "di", "s", "si", "f", "fi", "e"]

    def test_converse_is_involution_and_fixes_e(self):
        for a in BaseRelation:
            assert a.converse.converse is a
        assert BaseRelation.e.converse is BaseRelation.e

    def test_aliases(self):
        assert BaseRelation.parse("<") is BaseRelation.b
        assert BaseRelation.parse(">") is BaseRelation.bi
        assert BaseRelation.parse("p") is BaseRelation.b
        assert BaseRelation.parse("a") is BaseRelation.bi
        assert BaseRelation.parse("pi") is BaseRelation.bi
        assert BaseRelation.parse("eq") is BaseRelation.e
        assert BaseRelation.parse("=") is BaseRelation.e
        with pytest.raises(ValueError):
            BaseRelation.parse("q")


class TestBaseRelationOf:
    """The atom of two realized intervals, read off their endpoints by
    definition (`oracles.atom_by_definition`)."""

    def test_all_thirteen_reachable(self):
        """Every atom shows on the grid 0..3, and swapping the two
        intervals shows its `converse`."""
        seen = set()
        configs = [(a, b, c, d)
                   for a in range(4) for b in range(a + 1, 4)
                   for c in range(4) for d in range(c + 1, 4)]
        for a, b, c, d in configs:
            x, y = iv(a, b), iv(c, d)
            atom = BaseRelation[atom_by_definition(x, y)]
            assert BaseRelation[atom_by_definition(y, x)] is atom.converse
            seen.add(atom)
        assert seen == set(BaseRelation)


class TestRelation:
    def test_parse_and_str_roundtrip(self):
        r = Relation.parse("{b, m}")
        assert str(r) == "{b,m}"
        assert Relation.parse("{<, eq}") == Relation.of("b", "e")
        assert Relation.parse("{}") == EMPTY

    def test_converse_examples(self):
        assert Relation.of("b").converse() == Relation.of("bi")
        assert Relation.of("d", "f").converse() == Relation.of("di", "fi")
        assert FULL.converse() == FULL

    @given(relations)
    def test_converse_involution(self, r):
        assert r.converse().converse() == r

    @given(relations, relations)
    def test_converse_of_composition(self, r, s):
        assert r.compose(s).converse() == s.converse().compose(r.converse())

    def test_compose_identity(self):
        e = Relation.of("e")
        for a in BaseRelation:
            r = Relation.of(a)
            assert e.compose(r) == r
            assert r.compose(e) == r
        rng = random.Random(7)
        for _ in range(100):
            r = Relation(rng.randrange(FULL_MASK + 1))
            assert e.compose(r) == r

    def test_compose_with_empty_is_empty(self):
        assert EMPTY.compose(FULL) == EMPTY
        assert FULL.compose(EMPTY) == EMPTY

    def test_compose_frozen_examples(self):
        # expected sets computed by the endpoint-enumeration oracle
        assert Relation.of("m").compose(Relation.of("m")) == Relation.of("b")
        assert Relation.of("b").compose(Relation.of("bi")) == FULL

    def test_composition_table_matches_enumeration(self):
        oracle = composition_by_enumeration()
        for a1 in BaseRelation:
            for a2 in BaseRelation:
                got = Relation.of(a1).compose(Relation.of(a2))
                want = Relation.of(*oracle[(a1.name, a2.name)])
                assert got == want, f"compose({a1.name},{a2.name})"


def worked_network():
    # the hamburger-and-pasta fragment: four intervals, three constraints
    return QCN.build(
        ["mince", "brown", "prepare", "combine"],
        [("mince", Relation.of("b"), "brown"),
         ("prepare", Relation.of("d", "f"), "brown"),
         ("combine", Relation.of("bi", "mi"), "prepare")],
    )


class TestClose:
    def test_worked_network_consistent_and_derives_mince_prepare(self):
        closed = close(worked_network())
        assert not closed.inconsistent
        assert closed.cell("mince", "prepare") == Relation.of("b")

    def test_single_interval_unchanged(self):
        net = QCN(["solo"])
        assert close(net) == net

    @pytest.mark.parametrize("network", [QCN, INDUNetwork], ids=["allen", "indu"])
    def test_two_intervals_derive_no_table(self, network):
        """No triangle, so closing fewer than three intervals derives none
        of the calculus's split tables."""
        calc = network.relation.calculus
        copy = Calculus(calc.atoms, calc.rows, calc.conv, calc.identity, calc.full)
        relation = type("Fresh", (network.relation,), {"__slots__": (), "calculus": copy})
        net = type("Fresh", (network,), {"__slots__": (), "relation": relation})(["a", "b"])
        assert close(net) is net
        assert not {"_halves", "_atom_chunks", "converse"} & copy.__dict__.keys()

    def test_cyclic_precedence_inconsistent(self):
        net = QCN.build(
            ["x", "y", "z"],
            [("x", Relation.of("b"), "y"),
             ("y", Relation.of("b"), "z"),
             ("z", Relation.of("b"), "x")],
        )
        assert close(net).inconsistent

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(25):
            names = ["a", "b", "c", "d"]
            cons = [(names[i], Relation(rng.randrange(1, FULL_MASK + 1)), names[j])
                    for i in range(4) for j in range(i + 1, 4)]
            once = close(QCN.build(names, cons))
            assert close(once) == once

    def test_cells_shrink(self):
        net = worked_network()
        closed = close(net)
        for a in net.intervals:
            for b in net.intervals:
                assert closed.cell(a, b) <= net.cell(a, b)

    def test_closure_keeps_realizable_atoms(self):
        # every atom induced by some realization must survive closure
        rng = random.Random(99)
        for _ in range(40):
            names = ["x", "y", "z"]
            cons = [(names[i], Relation(rng.randrange(1, FULL_MASK + 1)), names[j])
                    for i in range(3) for j in range(i + 1, 3)]
            net = QCN.build(names, cons)
            closed = close(net)
            witness = realize_small(net)
            if witness is None:
                continue
            for i, a in enumerate(names):
                for b_ in names[i + 1:]:
                    induced = BaseRelation[atom_by_definition(witness[a], witness[b_])]
                    if induced in net.cell(a, b_):
                        assert induced in closed.cell(a, b_)


class TestCompositionTables:
    """`ALLEN.compose` and `ALLEN.converse` look masks up in tables derived
    from the atom rows; the references loop over atoms."""

    def test_atom_with_every_mask_on_both_sides(self):
        for a in range(N_ATOMS):
            atom = 1 << a
            for mask in range(FULL_MASK + 1):
                assert ALLEN.compose(atom, mask) == compose_by_atoms(COMPOSITION, atom, mask)
                assert ALLEN.compose(mask, atom) == compose_by_atoms(COMPOSITION, mask, atom)

    def test_every_pair_of_half_masks(self):
        """A mask within the low 7 bits or within the high 6 composed with
        another reads exactly one table entry, so this reads every entry."""
        halves = list(range(1 << 7)) + [high << 7 for high in range(1, 1 << 6)]
        for m1 in halves:
            for m2 in halves:
                assert ALLEN.compose(m1, m2) == compose_by_atoms(COMPOSITION, m1, m2)

    def test_random_mask_pairs(self):
        rng = random.Random(409)
        for _ in range(20000):
            m1, m2 = rng.getrandbits(N_ATOMS), rng.getrandbits(N_ATOMS)
            assert ALLEN.compose(m1, m2) == compose_by_atoms(COMPOSITION, m1, m2)

    def test_converse_of_every_mask(self):
        for mask in range(FULL_MASK + 1):
            assert ALLEN.converse(mask) == converse_by_atoms(ALLEN.conv, mask)


class TestCloseAgainstSweep:
    def test_random_networks(self):
        # same verdict as the plain sweep, and the same matrix when consistent
        rng = random.Random(2011)
        verdicts = []
        for _ in range(120):
            n = rng.randint(3, 7)
            names = [f"v{i}" for i in range(n)]
            density = rng.uniform(0.3, 1.0)
            cons = [(names[i], Relation.of(*rng.sample(list(BaseRelation), rng.randint(1, 5))),
                     names[j])
                    for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            net = QCN.build(names, cons)
            closed = close(net)
            matrix = [[net.cell(a, b).mask for b in names] for a in names]
            expected = sweep_closure(matrix, ALLEN.rows, ALLEN.conv)
            assert closed.inconsistent == (expected is None)
            if expected is not None:
                assert closed._matrix == tuple(map(tuple, expected))
            verdicts.append(closed.inconsistent)
        assert 10 <= sum(verdicts) <= 110


def random_network(rng, n, size):
    """A complete network on n intervals, each cell `size` random atoms."""
    names = [f"v{i}" for i in range(n)]
    return QCN.build(names, [(names[i], Relation.of(*rng.sample(list(BaseRelation), size)),
                              names[j]) for i in range(n) for j in range(i + 1, n)])


class TestIncrementalClose:
    def test_one_tightened_cell(self):
        """Closing from the one cell tightened in a closed network gives
        the verdict of closing from every pair, and the same network when
        consistent (an inconsistent one stops at its first empty cell)."""
        rng = random.Random(61)
        verdicts = set()
        for _ in range(150):
            n = rng.randint(3, 9)
            closed = close(random_network(rng, n, rng.randint(5, 9)))
            if closed.inconsistent:
                continue
            i, j = sorted(rng.sample(range(n), 2))
            a, b = closed.intervals[i], closed.intervals[j]
            atoms = closed.cell(a, b).atoms
            if len(atoms) < 2:
                continue
            keep = rng.sample(atoms, rng.randint(1, len(atoms) - 1))
            tightened = closed.with_cell(a, b, Relation.of(*keep))
            full, incremental = close(tightened), close(tightened, changed=[(i, j)])
            assert incremental.inconsistent == full.inconsistent
            if not full.inconsistent:
                assert incremental == full
            verdicts.add(full.inconsistent)
        assert verdicts == {True, False}

    def test_changed_none_queues_every_pair(self):
        net = worked_network()
        assert close(net, changed=None) == close(net)
        assert close(net, changed=[]) == net


class TestUniversalBoundSkip:
    @pytest.mark.parametrize("calc", [ALLEN, INDU], ids=["allen", "indu"])
    def test_composition_with_full_is_full(self, calc):
        """The premise of skipping revisions bounded by a full cell."""
        for slot, atom in enumerate(calc.atoms):
            bit = 1 << slot
            if bit & calc.full:
                assert calc.compose(bit, calc.full) == calc.full, atom
                assert calc.compose(calc.full, bit) == calc.full, atom

    @pytest.mark.parametrize("relation, network", [(Relation, QCN), (INDURelation, INDUNetwork)],
                             ids=["allen", "indu"])
    def test_same_networks_as_composing_every_revision(self, relation, network):
        """Skipping full bounds leaves every output cell as it was, for
        consistent and inconsistent results, from every pair and from a
        few pairs of a network that is not closed; networks have 3 to 12
        intervals and labels of every size below full."""
        rng = random.Random(97)
        slots = atom_slots(relation.calculus)
        verdicts, sizes = set(), set()

        def label():
            size = rng.randint(1, len(slots) - 1)
            sizes.add(size)
            return relation(sum(1 << s for s in rng.sample(slots, size)))

        for _ in range(120):
            n = rng.randint(3, 12)
            names = [f"v{i}" for i in range(n)]
            density = rng.uniform(0.2, 0.9)
            net = network.build(names, [(names[i], label(), names[j]) for i in range(n)
                                        for j in range(i + 1, n) if rng.random() < density])
            got = close(net)
            assert got == compose_all_path_consistency(net)
            verdicts.add(got.inconsistent)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            changed = rng.sample(pairs, rng.randint(1, len(pairs)))
            assert close(net, changed=changed) \
                == compose_all_path_consistency(net, changed)
        assert verdicts == {True, False}
        assert sizes == set(range(1, len(slots)))

    @pytest.mark.parametrize("calc", [ALLEN, INDU], ids=["allen", "indu"])
    def test_cycle_law(self, calc):
        """c in a;b iff b in a~;c iff a in c;b~ for all atoms a, b, c.  So
        while the popped cell is nonempty a (k, j) revision never empties a
        cell: the (i, k) revision of the same k would have emptied one."""
        bits = [1 << slot for slot in atom_slots(calc)]
        comp = {(a, b): calc.compose(a, b) for a in bits for b in bits}
        conv = {a: calc.converse(a) for a in bits}
        for (a, b), ab in comp.items():
            for c in bits:
                assert bool(ab & c) == bool(comp[conv[a], c] & b) \
                    == bool(comp[c, conv[b]] & a), (a, b, c)

    @pytest.mark.parametrize("calc", [ALLEN, INDU], ids=["allen", "indu"])
    def test_converse_of_composition_swaps_the_operands(self, calc):
        """conv(a b) = conv(b) conv(a) for all atom pairs and random mask
        pairs: the premise of making the (k, j) revision as its converse,
        the (j, k) revision with C[j][i] C[i][k]."""
        rng = random.Random(29)
        bits = [1 << slot for slot in atom_slots(calc)]
        width = calc.full.bit_length()
        pairs = [(a, b) for a in bits for b in bits] + [
            (rng.getrandbits(width) & calc.full, rng.getrandbits(width) & calc.full)
            for _ in range(2000)]
        for a, b in pairs:
            assert calc.converse(calc.compose(a, b)) \
                == calc.compose(calc.converse(b), calc.converse(a)), (a, b)

    @pytest.mark.parametrize("changed", [None, [(0, 1)]], ids=["every-pair", "popped-pair"])
    def test_empty_input_cell_stops_at_the_first_emptied_cell(self, changed):
        """From an input that already holds an empty cell, the kernel stops
        at the first cell it empties, here in a (k, j) revision: (y, z)."""
        rel = INDURelation.parse
        net = INDUNetwork.build("xyzw", [
            ("x", rel("{b^<,b^=,b^>}"), "y"), ("x", rel("{bi^<,bi^=,bi^>}"), "y"),
            ("z", rel("{d^<}"), "x"), ("w", rel("{d^<}"), "z")])
        closed = close(net, changed=changed)
        assert closed.inconsistent
        assert [(a, b) for i, a in enumerate(closed.intervals) for b in closed.intervals[i + 1:]
                if not closed.cell(a, b).mask] == [("x", "y"), ("y", "z")]

    def test_close_never_composes_a_full_cell(self):
        self.check_table_reads(Relation, QCN)

    def test_indu_close_never_composes_a_full_cell(self):
        self.check_table_reads(INDURelation, INDUNetwork)

    @staticmethod
    def check_table_reads(relation, network):
        """The kernel reads the tables of exactly the compositions without
        a full operand that the path consistency composing on every
        revision makes, in its order, and nothing else, each (k, j)
        revision C[k][i] C[i][j] of C[k][j] made as its converse
        C[j][i] C[i][k] of C[j][k].  Labels of 9 atoms leave the network
        as it is; labels of 5 atoms make revisions that tighten, so a
        right operand C[i][k] is read after its own (i, k) revision."""
        calc = relation.calculus
        conv = calc.converse
        for size in (9, 5):
            net = random_network_with_gaps(random.Random(5), 9, relation, network, size)
            reads = []
            closed = close(recording(network, reads)._raw(
                net.intervals, net._matrix, net._index))
            made = []
            assert closed._matrix == compose_all_path_consistency(net, log=made)._matrix
            assert not closed.inconsistent
            assert (closed._matrix != net._matrix) == (size == 5)
            # a consistent run logs, per third interval k, the (i, k)
            # composition and then the (k, j) one
            made[1::2] = [(conv(right), conv(left), conv(cell))
                          for left, right, cell in made[1::2]]
            composed = [c for c in made if calc.full not in c[:2]]
            assert len(composed) > 100
            assert len(composed) < len(made)
            assert reads == table_reads(calc, composed)


class RecordedRow(list):
    """A composition table row that logs (owner, key) on every read."""

    def __init__(self, row, owner, log):
        super().__init__(row)
        self.owner, self.log = owner, log

    def __getitem__(self, key):
        self.log.append((self.owner, key))
        return list.__getitem__(self, key)


def recording(network, log):
    """A subclass of `network` over a copy of its calculus whose table rows
    log their reads: a half-table row as ((half, left half), key), a
    per-atom chunk table as (atom slot, key)."""
    calc = network.relation.calculus
    copy = Calculus(calc.atoms, calc.rows, calc.conv, calc.identity, calc.full)
    if calc._halves:
        t0, t1, *shape = calc._halves
        copy.__dict__["_halves"] = (
            [RecordedRow(row, (0, x), log) for x, row in enumerate(t0)],
            [RecordedRow(row, (1, x), log) for x, row in enumerate(t1)], *shape)
    else:
        copy.__dict__["_atom_chunks"] = [row and RecordedRow(row, slot, log)
                                         for slot, row in enumerate(calc._atom_chunks)]
    relation = type("Recorded", (network.relation,), {"__slots__": (), "calculus": copy})
    return type("Recorded", (network,), {"__slots__": (), "relation": relation})


def table_reads(calc, compositions):
    """The reads `recording` logs for composing each (left, right, cell)
    in turn: four half-table entries (Allen), or the right operand's
    nonzero chunks for each left atom in ascending order until the bound
    covers the cell (INDU)."""
    reads = []
    for left, right, cell in compositions:
        if calc._halves:
            _, _, cut, low, high = calc._halves
            for row in ((0, left & low), (1, left >> cut)):
                reads += [(row, right & low), (row, right >> cut | high)]
            continue
        keys = [p << 5 | right >> p & 255 for p in range(0, calc.full.bit_length(), 8)
                if right >> p & 255]
        bound = 0
        for slot in atom_slots(calc):
            if left >> slot & 1:
                for key in keys:
                    reads.append((slot, key))
                    bound |= calc._atom_chunks[slot][key]
                if bound & cell == cell:
                    break
    return reads


def atom_slots(calc):
    return [slot for slot in range(calc.full.bit_length()) if calc.full >> slot & 1]


def random_network_with_gaps(rng, n, relation=Relation, network=QCN, size=9):
    """A network on n intervals with about half its cells unconstrained
    and the others labelled by `size` random atoms."""
    names = [f"v{i}" for i in range(n)]
    slots = atom_slots(relation.calculus)
    return network.build(names, [(names[i], relation(sum(1 << s for s in rng.sample(slots, size))),
                                  names[j]) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < 0.5])


def clear_memos():
    allen._chunk_keys.cache_clear()
    allen._atom_rows.cache_clear()


class TestMemos:
    """`_chunk_keys` and `_atom_rows` memoize a mask's chunk keys and its
    per-atom tables for `close` and `Calculus.compose` (INDU's shape)."""

    def test_cached_values_are_tuples_over_unchanged_tables(self):
        """Each value is a tuple, the rows are the calculus's own tables,
        and no close or composition through the caches alters a table."""
        rng = random.Random(37)
        tables = [row and list(row) for row in INDU._atom_chunks]
        for _ in range(50):
            close(random_network_with_gaps(rng, rng.randint(3, 9), INDURelation, INDUNetwork,
                                           rng.randint(3, 12)))
        for _ in range(500):
            mask = rng.getrandbits(INDU.full.bit_length()) & INDU.full
            keys, rows = allen._chunk_keys(mask), allen._atom_rows(INDU, mask)
            assert type(keys) is tuple and type(rows) is tuple
            assert keys == tuple(p // 8 * 256 + (mask >> p & 255) for p in range(0, 40, 8)
                                 if mask >> p & 255)
            assert all(row is INDU._atom_chunks[slot] for row, slot in zip(
                rows, [slot for slot in atom_slots(INDU) if mask >> slot & 1], strict=True))
            INDU.compose(mask, rng.getrandbits(40) & INDU.full)
        assert INDU._atom_chunks == tables

    def test_indu_close_alike_with_cold_and_warm_caches(self):
        rng = random.Random(41)
        verdicts = set()
        for _ in range(200):
            net = random_network_with_gaps(rng, rng.randint(3, 9), INDURelation, INDUNetwork,
                                           rng.randint(3, 12))
            clear_memos()
            cold = close(net)
            assert close(net)._matrix == cold._matrix
            verdicts.add((cold.inconsistent, cold == net))
        assert verdicts == {(True, False), (False, False), (False, True)}

    def test_compose_is_the_union_of_the_atom_rows(self):
        """From cleared caches, on random masks drawn from a small pool so
        that most lookups hit: INDU's path ORs `rows[a][b]` over the atoms
        a of the left mask and b of the right one."""
        rng = random.Random(43)
        pool = [rng.getrandbits(INDU.full.bit_length()) & INDU.full for _ in range(60)]
        clear_memos()
        for _ in range(2000):
            m1, m2 = rng.choice(pool), rng.choice(pool)
            assert INDU.compose(m1, m2) == compose_by_atoms(INDU.rows, m1, m2)
        assert allen._atom_rows.cache_info().hits > 0
        assert allen._chunk_keys.cache_info().hits > 0


class TestSearchAgainstFullQueue:
    def test_random_networks(self):
        """The search that closes each child from its fixed cell alone gives
        the verdict and witness of the search that re-closes every pair."""
        rng = random.Random(83)
        seen = set()
        for _ in range(160):
            net = random_network(rng, rng.randint(4, 10), rng.choice((3, 6, 6, 7)))
            got = atomic_consistent(net)
            assert got == full_queue_atomic_consistent(net)
            seen.add((close(net).inconsistent, got[0]))
        # closure refutes some, the search refutes some that closure passes
        assert seen == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("relation, network", [(Relation, QCN), (INDURelation, INDUNetwork)])
    def test_leaf_sequence_after_rejected_leaves(self, relation, network):
        """A leaf that rejects the first k leaves it is handed makes the
        search backtrack through the undo trail: the leaves are the full
        queue search's, in its order, each a snapshot that later nodes do
        not change, and the start network is unchanged."""
        rng = random.Random(89)
        rejected = 0
        for _ in range(60):
            start = close(random_network_with_gaps(rng, rng.randint(4, 7), relation, network,
                                                   size=rng.choice((2, 3, 4))))
            if start.inconsistent:
                continue
            frozen = network._raw(start.intervals, start._matrix, start._index)
            k = rng.choice((0, 1, 3, 8, 30))
            logs = []
            for search in (allen.scenario_search, full_queue_scenario_search):
                log = []
                witness = search(start, lambda net: log.append(net) or (net if len(log) > k else None))
                assert witness is (log[-1] if len(log) > k else None)
                logs.append(log)
            got, expected = logs
            assert [tuple(map(tuple, net._matrix)) for net in got] == [
                net._matrix for net in expected]
            assert got == expected
            assert start == frozen
            rejected += min(k, len(got))
        assert rejected >= 100


class TestWorkCounts:
    """Search nodes propagate in place through `allen._propagate`, not
    through `close`, so the bench tracer's `allen.atomic_consistent.nodes`
    and `hybrid.hybrid_atomic_consistent.nodes` ratios, which count the
    `close` calls made directly under those spans, now count only the root
    and round closes: 1 per `atomic_consistent` call, and 0 under
    `hybrid_atomic_consistent`, whose round closes sit under the traced
    `hybrid_close`."""

    def test_close_calls_per_search(self, monkeypatch):
        """`atomic_consistent` runs the propagation core once for its root
        `close` and once per search node; their number on a fixed network
        is pinned: 1 root plus 13 nodes."""
        calls = []
        real = allen._propagate
        monkeypatch.setattr(allen, "_propagate", lambda *a: calls.append(a[2]) or real(*a))
        ok, scenario = allen.atomic_consistent(random_network(random.Random(7), 8, 6))
        assert ok and scenario is not None
        assert len(calls) == 14

    def test_one_close_per_search(self, monkeypatch):
        """`atomic_consistent` calls `close` exactly once, at the root."""
        calls = []
        real = allen.close
        monkeypatch.setattr(allen, "close", lambda net, **kw: calls.append(kw) or real(net, **kw))
        ok, scenario = allen.atomic_consistent(random_network(random.Random(7), 8, 6))
        assert ok and scenario is not None
        assert calls == [{}]

    def test_unconstrained_search_memory(self):
        """The 60-interval search of `test_unconstrained_beyond_the_recursion_limit`
        keeps one matrix and a trail, not a network per open level (one per
        level took a 56.9 MB peak)."""
        net = QCN([f"x{i}" for i in range(60)])
        tracemalloc.start()
        try:
            ok, _ = atomic_consistent(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 4 << 20


class TestAtomicConsistent:
    def test_worked_network(self):
        ok, scenario = atomic_consistent(worked_network())
        assert ok
        for i, a in enumerate(scenario.intervals):
            for b in scenario.intervals[i + 1:]:
                assert len(scenario.cell(a, b)) == 1
        assert realize_small(scenario) is not None

    def test_empty_cell_network(self):
        net = QCN.build(["x", "y"], [("x", EMPTY, "y")])
        ok, scenario = atomic_consistent(net)
        assert not ok and scenario is None

    def test_canonical_tie_break(self):
        net = QCN.build(["x", "y"], [("x", Relation.of("b", "bi"), "y")])
        ok, scenario = atomic_consistent(net)
        assert ok
        assert scenario.cell("x", "y") == Relation.of("b")

    def test_unconstrained_beyond_the_recursion_limit(self):
        """60 unconstrained intervals leave 1,770 pairs to split, one
        search level each: the witness is atomic and closed."""
        net = QCN([f"x{i}" for i in range(60)])
        ok, scenario = atomic_consistent(net)
        assert ok
        ids = scenario.intervals
        assert all(len(scenario.cell(a, b)) == 1 for i, a in enumerate(ids) for b in ids[i + 1:])
        assert close(scenario) == scenario

    def test_agrees_with_realize_small(self):
        rng = random.Random(42)
        for _ in range(60):
            names = ["x", "y", "z"]
            cons = [(names[i], Relation(rng.randrange(1, FULL_MASK + 1)), names[j])
                    for i in range(3) for j in range(i + 1, 3)]
            net = QCN.build(names, cons)
            ok, _ = atomic_consistent(net)
            assert ok == (realize_small(net) is not None)


class TestRealizeSmall:
    def test_meets_witness(self):
        net = QCN.build(["x", "y"], [("x", Relation.of("m"), "y")])
        witness = realize_small(net)
        assert witness is not None
        assert witness["x"][1] == witness["y"][0]

    def test_contradiction(self):
        net = QCN.build(["x", "y"], [("x", Relation.of("b"), "y"),
                                     ("y", Relation.of("b"), "x")])
        assert realize_small(net) is None

    def test_worked_network_witness(self):
        net = worked_network()
        witness = realize_small(net)
        assert witness is not None
        for i, a in enumerate(net.intervals):
            for b in net.intervals[i + 1:]:
                assert BaseRelation[atom_by_definition(witness[a], witness[b])] in net.cell(a, b)

    def test_scale_bound(self):
        with pytest.raises(ValueError):
            realize_small(QCN(["a", "b", "c", "d", "e"]))

    def test_matches_independent_triple_enumeration(self):
        # realizability of atomic 3-interval networks agrees with the
        # independently coded grid oracle
        triples = realizable_atom_triples()
        rng = random.Random(5)
        atoms = [a.name for a in BaseRelation]
        for _ in range(200):
            t = (rng.choice(atoms), rng.choice(atoms), rng.choice(atoms))
            net = QCN.build(
                ["x", "y", "z"],
                [("x", Relation.of(t[0]), "y"),
                 ("y", Relation.of(t[1]), "z"),
                 ("x", Relation.of(t[2]), "z")],
            )
            assert (realize_small(net) is not None) == (t in triples)


class TestConstructor:
    @pytest.mark.parametrize("relation, network", [(Relation, QCN), (INDURelation, INDUNetwork)])
    def test_build_is_the_constructor(self, relation, network):
        """`network(ids, constraints)` is `network.build(ids, constraints)`
        on any list, repeated pairs and self-constraints included, and each
        cell is the intersection of the constraints on its pair, read in
        either direction."""
        rng = random.Random(53)
        calc = relation.calculus
        for _ in range(200):
            ids = [f"n{k}" for k in range(rng.randint(1, 6))]
            cs = []
            for _ in range(rng.randint(0, 12)):
                a, b = rng.choice(ids), rng.choice(ids)
                mask = rng.getrandbits(calc.full.bit_length()) & calc.full
                # a self-constraint that admits the identity, the one kind allowed
                cs.append((a, relation(mask | calc.identity if a == b else mask), b))
            net = network(ids, cs)
            assert type(net) is network and net == network.build(ids, cs)
            for a in ids:
                for b in ids:
                    want = calc.identity if a == b else calc.full
                    for x, rel, y in cs:
                        if a != b and (x, y) == (a, b):
                            want &= rel.mask
                        elif a != b and (x, y) == (b, a):
                            want &= rel.converse().mask
                    assert net.cell(a, b).mask == want


class TestRestricted:
    @pytest.mark.parametrize("relation, network", [(Relation, QCN), (INDURelation, INDUNetwork)])
    def test_matches_validating_constructor(self, relation, network):
        """A restriction, in any order and to any subset (none, one, two,
        all and any number of ids in turn), is the network the constructor
        builds from the same cells, and the entry-by-entry copy."""
        rng = random.Random(89)
        full = relation.calculus.full
        for trial in range(200):
            ids = [f"n{k}" for k in range(rng.randint(1, 7))]
            net = network.build(ids, [(a, relation(rng.getrandbits(full.bit_length()) & full), b)
                                      for i, a in enumerate(ids) for b in ids[i + 1:]
                                      if rng.random() < 0.6])
            size = (0, 1, 2, len(ids), rng.randint(0, len(ids)))[trial % 5]
            keep = rng.sample(ids, min(size, len(ids)))
            cut = net.restricted(keep)
            assert cut._matrix == per_entry_restricted(net._matrix, [ids.index(k) for k in keep])
            assert cut == network.build(keep, [(a, net.cell(a, b), b) for x, a in enumerate(keep)
                                               for b in keep[x + 1:]])
            assert type(cut) is network and cut._index == {k: i for i, k in enumerate(keep)}

    def test_rejects_duplicate_and_unknown_ids(self):
        net = QCN.build(["a", "b", "c"], [("a", Relation.of("b"), "b")])
        with pytest.raises(ValueError, match="duplicate interval ids"):
            net.restricted(["a", "b", "a"])
        with pytest.raises(KeyError):
            net.restricted(["a", "z"])


class TestWithCell:
    @pytest.mark.parametrize("relation, network", [(Relation, QCN), (INDURelation, INDUNetwork)])
    def test_matches_validating_constructor_and_shares_rows(self, relation, network):
        """A replaced cell gives the network the constructor builds from
        the edited matrix's upper triangle; only the two rows it touches
        are new, the others are the input's own row objects."""
        rng = random.Random(97)
        calc = relation.calculus

        def random_mask():
            return rng.getrandbits(calc.full.bit_length()) & calc.full

        for _ in range(200):
            ids = [f"n{k}" for k in range(rng.randint(2, 7))]
            net = network.build(ids, [(a, relation(random_mask()), b)
                                      for i, a in enumerate(ids) for b in ids[i + 1:]
                                      if rng.random() < 0.6])
            i, j = rng.sample(range(len(ids)), 2)
            mask = random_mask()
            got = net.with_cell(ids[i], ids[j], relation(mask))
            m = [list(row) for row in net._matrix]
            m[i][j], m[j][i] = mask, calc.converse(mask)
            assert got == network.build(ids, [(a, relation(m[x][y]), b)
                                              for x, a in enumerate(ids)
                                              for y, b in enumerate(ids) if x < y])
            assert [new is old for new, old in zip(got._matrix, net._matrix)] == [
                k not in (i, j) for k in range(len(ids))]


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        net = worked_network()
        text = format_qcn(net)
        # canonical form sorts ids; content round-trips exactly and the
        # text itself is stable under a second pass
        assert parse_qcn(text) == net.restricted(sorted(net.intervals))
        assert format_qcn(parse_qcn(text)) == text

    def test_tautology_cells_omitted(self):
        net = QCN.build(["a", "z", "q"], [("a", Relation.of("b"), "z")])
        text = format_qcn(net)
        lines = text.strip().splitlines()
        assert lines[0] == "intervals a q z"
        assert lines[1:] == ["a z {b}"]
        assert parse_qcn(text) == net.restricted(["a", "q", "z"])

    def test_atoms_print_in_canonical_order(self):
        net = QCN.build(["a", "b"], [("a", Relation.of("e", "m", "b"), "b")])
        assert "a b {b,m,e}" in format_qcn(net)

    def test_every_mask_prints_as_its_relation(self):
        """Every one of the 8,192 masks, placed once in the cells of random
        networks over ids in shuffled order, prints as it does through one
        `Relation` per cell, through both triangles of the matrix."""
        rng = random.Random(83)
        masks = list(range(FULL_MASK + 1))
        rng.shuffle(masks)
        while masks:
            ids = [f"n{k}" for k in range(rng.randint(2, 12))]
            rng.shuffle(ids)
            cons = [(a, Relation(masks.pop()), b)
                    for i, a in enumerate(ids) for b in ids[i + 1:] if masks]
            net = QCN.build(ids, cons)
            assert format_qcn(net) == object_format_qcn(net)

    def test_header_word_must_be_exact(self):
        with pytest.raises(ValueError, match="'intervals' header"):
            parse_qcn("intervalsfoo a b\na b {b}\n")
        assert parse_qcn("intervals a b\na b {b}\n").cell("a", "b") == Relation.of("b")
