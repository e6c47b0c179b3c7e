"""Top-level acceptance gates, one test per shipped capability.

Each test prints a single verdict line (run pytest with -s to see them
together).  Wherever a value matters, it is checked against an oracle
computed from first principles in this file rather than against the
library's own tables.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from chronotext.adaptation import (
    TaggedConstraint, TaggedNetwork, _network_from, adapt_recipe,
    parse_knowledge, revise,
)
from chronotext.allen import (
    FULL, IDENTITY, BaseRelation, QCN, Relation, close,
)
from chronotext.annotation import doc_to_qcn, parse_recipe_dsl, parse_timeml
from chronotext.hybrid import (
    HybridNetwork, hybrid_atomic_consistent, hybrid_close,
)
from chronotext.indu import (
    INDUAtom, INDUNetwork, INDURelation, indu_close, valid_atoms,
)
from chronotext.metric import (
    POSITIVE, BoundWindow, STP, end_of, metric_to_allen, start_of, stp_close,
)
from chronotext.recipe import (
    ActionNode, PhenomenonTag, Recipe, RepetitionMarker, StateNode,
    encode_recipe, phenomena_coverage,
)
from chronotext.workflow import emit_dot, recipe_workflow

from oracles import allen_part_by_atoms, indu_lift, reachable, realize_small, successors

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


@contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2}: FAIL  {label}")
        raise
    print(f"criterion {number:>2}: PASS  {label}")


# ---------------------------------------------------------------------------
# endpoint-enumeration oracle, independent of the composition table

def _atom_of(al, ah, bl, bh):
    if ah < bl:
        return BaseRelation.b
    if bh < al:
        return BaseRelation.bi
    if ah == bl:
        return BaseRelation.m
    if bh == al:
        return BaseRelation.mi
    if al == bl and ah == bh:
        return BaseRelation.e
    if al == bl:
        return BaseRelation.s if ah < bh else BaseRelation.si
    if ah == bh:
        return BaseRelation.f if bl < al else BaseRelation.fi
    if bl < al and ah < bh:
        return BaseRelation.d
    if al < bl and bh < ah:
        return BaseRelation.di
    return BaseRelation.o if al < bl else BaseRelation.oi


def _weak_orders_6():
    """Every weak order of six endpoint ranks, canonicalized."""
    seen = set()
    for ranks in product(range(6), repeat=6):
        uniq = sorted(set(ranks))
        canon = tuple(uniq.index(r) for r in ranks)
        if canon not in seen:
            seen.add(canon)
    return seen


def test_01_composition_against_endpoint_oracle():
    with verdict(1, "169 atomic compositions match endpoint enumeration"):
        table = {}
        for xl, xh, yl, yh, zl, zh in _weak_orders_6():
            if not (xl < xh and yl < yh and zl < zh):
                continue
            key = (_atom_of(xl, xh, yl, yh), _atom_of(yl, yh, zl, zh))
            table.setdefault(key, set()).add(_atom_of(xl, xh, zl, zh))
        for r1 in BaseRelation:
            for r2 in BaseRelation:
                expect = Relation.of(*table[(r1, r2)])
                assert Relation.of(r1).compose(Relation.of(r2)) == expect, \
                    (r1.name, r2.name)


def test_02_algebra_laws():
    with verdict(2, "converse involution, identity, converse-of-composition"):
        rng = random.Random(90121)
        singles = [Relation.of(a) for a in BaseRelation]
        rels = singles + [Relation(rng.randrange(1, 1 << 13))
                          for _ in range(1000)]
        for r in rels:
            assert r.converse().converse() == r
            assert r.compose(IDENTITY) == r
            assert IDENTITY.compose(r) == r
        pairs = [(r1, r2) for r1 in singles for r2 in singles]
        pairs += [(rels[rng.randrange(len(rels))], rels[rng.randrange(len(rels))])
                  for _ in range(1000)]
        for r1, r2 in pairs:
            assert r1.compose(r2).converse() == r2.converse().compose(r1.converse())


def test_03_worked_recipe_network():
    with verdict(3, "hotdish fixture closes as expected"):
        r = parse_recipe_dsl((FIXTURES / "lutheran.rcp").read_text())
        _, h = encode_recipe(r)[0]
        closed = hybrid_close(h)
        assert not closed.inconsistent
        assert closed.relation("mince_garlic", "prepare_pasta") == Relation.parse("{b}")
        cell = closed.relation("combine", "prepare_pasta")
        assert cell in (Relation.parse("{bi}"), Relation.parse("{mi}"),
                        Relation.parse("{bi,mi}"))
        # every remaining atom must be realizable, none spurious
        for atom in cell:
            refined = HybridNetwork(h.qcn.with_cell("combine", "prepare_pasta", Relation.of(atom)),
                                    h.stp)
            ok, witness = hybrid_atomic_consistent(refined)
            assert ok and witness is not None


def test_04_closure_flags_inconsistency_exactly():
    with verdict(4, "closure agrees with realization on all 13^3 atomic nets"):
        atoms = [Relation.of(a) for a in BaseRelation]
        names = ("x", "y", "z")
        consistent = 0
        for ra, rb, rc in product(atoms, repeat=3):
            net = QCN.build(names, [("x", ra, "y"), ("x", rb, "z"),
                                    ("y", rc, "z")])
            flagged = close(net).inconsistent
            witness = realize_small(net)
            assert flagged == (witness is None), (str(ra), str(rb), str(rc))
            consistent += witness is not None
        assert consistent == 409  # known count of realizable atomic triples


def test_05_indu_atoms_and_projection():
    with verdict(5, "25 valid atoms; projected composition matches Allen"):
        assert len(valid_atoms()) == 25
        for a1 in BaseRelation:
            for a2 in BaseRelation:
                lifted = indu_lift(Relation.of(a1)).compose(indu_lift(Relation.of(a2)))
                assert allen_part_by_atoms(lifted) == Relation.of(a1).compose(Relation.of(a2))


# ---------------------------------------------------------------------------
# metric oracle: simple-path enumeration over declared bounds

_INF = (None, True)


def _badd(a, b):
    if a[0] is None or b[0] is None:
        return _INF
    return (a[0] + b[0], a[1] or b[1])


def _btighter(a, b):
    if b[0] is None:
        return a[0] is not None
    if a[0] is None:
        return False
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def _path_oracle(points, declared):
    n = len(points)
    idx = {p: i for i, p in enumerate(points)}
    upper = [[_INF] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = (Fraction(0), False)
    for frm, to, w in declared:
        i, j = idx[frm], idx[to]
        if w.hi is not None and _btighter((w.hi, w.hi_strict), upper[i][j]):
            upper[i][j] = (w.hi, w.hi_strict)
        if w.lo is not None and _btighter((-w.lo, w.lo_strict), upper[j][i]):
            upper[j][i] = (-w.lo, w.lo_strict)

    def walk(seq):
        acc = upper[seq[0]][seq[1]]
        for a, b in zip(seq[1:], seq[2:]):
            acc = _badd(acc, upper[a][b])
        return acc

    def best(i, j):
        out = upper[i][j]
        mids = [k for k in range(n) if k not in (i, j)]
        for r in range(1, len(mids) + 1):
            for mid in permutations(mids, r):
                cand = walk((i,) + mid + (j,))
                if _btighter(cand, out):
                    out = cand
        return out

    negative = False
    for i in range(n):
        mids = [k for k in range(n) if k != i]
        for r in range(1, len(mids) + 1):
            for mid in permutations(mids, r):
                if _btighter(walk((i,) + mid + (i,)), (Fraction(0), False)):
                    negative = True
    return best, negative


def test_06_metric_windows():
    with verdict(6, "duration window minimal; negative cycles flagged"):
        simmer = STP.build([start_of("simmer"), end_of("simmer")],
                           [(start_of("simmer"), end_of("simmer"),
                             BoundWindow.closed(120, 180))])
        closed = stp_close(simmer)
        assert not closed.inconsistent and closed.minimal
        assert closed.window(start_of("simmer"), end_of("simmer")) \
            == BoundWindow.closed(120, 180)

        cycle = STP.build(["a", "b", "c"], [
            ("a", "b", BoundWindow.exact(3)),
            ("b", "c", BoundWindow.exact(3)),
            ("a", "c", BoundWindow.closed(1, 2)),
        ])
        assert stp_close(cycle).inconsistent

        rng = random.Random(60049)
        for _ in range(40):
            n = rng.choice((4, 5))
            points = [f"p{i}" for i in range(n)]
            declared = []
            for i, j in combinations(range(n), 2):
                if rng.random() >= 0.55:
                    continue
                lo = Fraction(rng.randint(-8, 4))
                hi = lo + Fraction(rng.randint(0, 6))
                los, his = rng.random() < 0.3, rng.random() < 0.3
                if lo == hi:
                    los = his = False
                w = (BoundWindow(lo, None, los, True) if rng.random() < 0.15
                     else BoundWindow(lo, hi, los, his))
                declared.append((points[i], points[j], w))
            s = stp_close(STP.build(points, declared))
            best, negative = _path_oracle(points, declared)
            assert s.inconsistent == negative
            if s.inconsistent:
                continue
            idx = {p: i for i, p in enumerate(points)}
            for a in points:
                for b in points:
                    if a == b:
                        continue
                    w = s.window(a, b)
                    hi = best(idx[a], idx[b])
                    lo = best(idx[b], idx[a])
                    assert (w.hi, w.hi is None or w.hi_strict) == (hi[0], hi[1])
                    expect_lo = (None, True) if lo[0] is None else (-lo[0], lo[1])
                    assert (w.lo, w.lo is None or w.lo_strict) == expect_lo


def test_07_hybrid_closure():
    with verdict(7, "mixed-duration encoding consistent; pure case reduces"):
        h = HybridNetwork.build(
            ["bake", "is_brown"],
            [("bake", Relation.parse("{m}"), "is_brown")],
            [(start_of("bake"), end_of("bake"), BoundWindow.at_most(25))])
        closed = hybrid_close(h)
        assert not closed.inconsistent
        assert closed.duration_window("bake") == BoundWindow.at_most(25)

        rng = random.Random(41117)
        ids = ("w", "x", "y", "z")
        for _ in range(30):
            triples = [(a, Relation(rng.randrange(1, 1 << 13)), b)
                       for a, b in combinations(ids, 2)]
            hybrid = HybridNetwork.build(ids, triples)
            assert hybrid_close(hybrid).qcn == close(QCN.build(ids, triples))


def test_08_annotation_snippet():
    with verdict(8, "annotated snippet yields one link and e1 {di} e2"):
        doc = parse_timeml((FIXTURES / "snippet.tml").read_text())
        assert len(doc.tlinks) == 1
        qcn = doc_to_qcn(doc)
        assert qcn.cell("e1", "e2") == Relation.parse("{di}")
        assert not close(qcn).inconsistent


# ---------------------------------------------------------------------------
# expressiveness suite: one constructor per phenomenon/formalism pairing

def _indu_sign(sign):
    return INDURelation.of(*[(a, sign) for a in BaseRelation
                             if INDUAtom(a, sign).valid])


def _tml(events, tlinks):
    parts = []
    for eid in events:
        parts.append(f'<EVENT eid="{eid}" class="OCCURENCE"> {eid} </EVENT>')
        parts.append(f'<MAKEINSTANCE eiid="i{eid}" eventID="{eid}" '
                     f'tense="NONE" aspect="NONE" pos="VERB"/>')
    for a, t, b in tlinks:
        parts.append(f'<TLINK eventInstanceID="i{a}" relatedToEvent="i{b}" '
                     f'relType="{t}"/>')
    return " ".join(parts)


def _tml_qcn(events, tlinks):
    return doc_to_qcn(parse_timeml(_tml(events, tlinks)))


def _interval_stp(intervals, constraints):
    points = [p for i in intervals for p in (start_of(i), end_of(i))]
    linkage = [(start_of(i), end_of(i), POSITIVE) for i in intervals]
    return stp_close(STP.build(points, linkage + constraints))


def _allen_qualitative_duration():
    q = close(QCN.build(["add_sauce", "coated"],
                        [("add_sauce", Relation.parse("{m}"), "coated")]))
    assert not q.inconsistent


def _allen_total_order():
    q = close(QCN.build(["mince", "brown", "combine"],
                        [("mince", Relation.parse("{b}"), "brown"),
                         ("brown", Relation.parse("{b}"), "combine")]))
    assert not q.inconsistent
    assert q.cell("mince", "combine") == Relation.parse("{b}")


def _allen_partial_order():
    q = close(QCN.build(["slice", "mince", "brown"],
                        [("slice", Relation.parse("{b}"), "brown"),
                         ("mince", Relation.parse("{b}"), "brown")]))
    assert not q.inconsistent
    assert q.cell("slice", "mince") == FULL  # free to run in either order


def _allen_simultaneity():
    q = close(QCN.build(["prepare", "brown"],
                        [("prepare", Relation.parse("{d,f}"), "brown")]))
    assert not q.inconsistent


def _indu_qualitative_duration():
    net = INDUNetwork.build(["bake", "cool"], [
        ("bake", INDURelation.of(("m", "<"), ("m", "=")), "cool")])
    assert not indu_close(net).inconsistent


def _indu_precise_duration():
    ref = INDUNetwork.build(["bake", "one_hour"],
                            [("bake", _indu_sign("="), "one_hour")])
    assert not indu_close(ref).inconsistent
    chain = indu_close(INDUNetwork.build(
        ["remove_cover", "fifteen", "bake"],
        [("remove_cover", INDURelation.of(("s", "<")), "fifteen"),
         ("fifteen", INDURelation.of(("f", "<")), "bake")]))
    assert not chain.inconsistent
    assert chain.cell("remove_cover", "bake") == INDURelation.of(("d", "<"))


def _indu_imprecise_duration():
    net = INDUNetwork.build(["bake", "is_brown", "cap"], [
        ("bake", indu_lift(Relation.parse("{m}")), "is_brown"),
        ("bake", _indu_sign("<") | _indu_sign("="), "cap")])
    assert not indu_close(net).inconsistent


def _indu_total_order():
    net = indu_close(INDUNetwork.build(["a", "b", "c"], [
        ("a", indu_lift(Relation.parse("{b}")), "b"),
        ("b", indu_lift(Relation.parse("{b}")), "c")]))
    assert not net.inconsistent
    assert allen_part_by_atoms(net.cell("a", "c")) == Relation.parse("{b}")


def _indu_partial_order():
    net = indu_close(INDUNetwork.build(["slice", "mince", "brown"], [
        ("slice", indu_lift(Relation.parse("{b}")), "brown"),
        ("mince", indu_lift(Relation.parse("{b}")), "brown")]))
    assert not net.inconsistent
    assert allen_part_by_atoms(net.cell("slice", "mince")) == FULL


def _indu_simultaneity():
    net = INDUNetwork.build(["a", "b"], [("a", INDURelation.of(("e", "=")), "b")])
    assert not indu_close(net).inconsistent
    assert not INDUAtom(BaseRelation.e, "<").valid  # equal intervals, equal length


def _metric_qualitative_duration():
    s = _interval_stp(["add_sauce", "coated"], [
        (end_of("add_sauce"), start_of("coated"), BoundWindow.exact(0))])
    assert not s.inconsistent
    assert metric_to_allen(s, "add_sauce", "coated") == Relation.parse("{m}")


def _metric_precise_duration():
    s = _interval_stp(["bake"], [
        (start_of("bake"), end_of("bake"), BoundWindow.exact(60))])
    assert not s.inconsistent
    assert s.window(start_of("bake"), end_of("bake")) == BoundWindow.exact(60)


def _metric_imprecise_duration():
    s = _interval_stp(["simmer"], [
        (start_of("simmer"), end_of("simmer"), BoundWindow.closed(120, 180))])
    assert not s.inconsistent
    assert s.window(start_of("simmer"), end_of("simmer")) \
        == BoundWindow.closed(120, 180)


def _metric_total_order():
    s = _interval_stp(["a", "b"], [(end_of("a"), start_of("b"), POSITIVE)])
    assert not s.inconsistent
    assert metric_to_allen(s, "a", "b") == Relation.parse("{b}")


def _metric_partial_order():
    s = _interval_stp(["slice", "mince", "brown"], [
        (end_of("slice"), start_of("brown"), POSITIVE),
        (end_of("mince"), start_of("brown"), POSITIVE)])
    assert not s.inconsistent
    assert metric_to_allen(s, "slice", "mince") == FULL


def _metric_simultaneity():
    s = _interval_stp(["prepare", "brown"], [
        (start_of("brown"), start_of("prepare"), POSITIVE),
        (end_of("prepare"), end_of("brown"), BoundWindow.above(0, strict=False))])
    assert not s.inconsistent
    assert metric_to_allen(s, "prepare", "brown") == Relation.parse("{d,f}")


def _timeml_qualitative_duration():
    q = _tml_qcn(["add_sauce", "coated"], [("add_sauce", "IBEFORE", "coated")])
    assert q.cell("add_sauce", "coated") == Relation.parse("{m}")
    assert not close(q).inconsistent


def _timeml_precise_duration():
    # the duration rides on a reference event of fixed length
    q = _tml_qcn(["bake", "one_hour"], [("bake", "SIMULTANEOUS", "one_hour")])
    assert q.cell("bake", "one_hour") == Relation.parse("{e}")
    assert not close(q).inconsistent


def _timeml_total_order():
    q = close(_tml_qcn(["e1", "e2", "e3"],
                       [("e1", "BEFORE", "e2"), ("e2", "BEFORE", "e3")]))
    assert not q.inconsistent
    assert q.cell("e1", "e3") == Relation.parse("{b}")


def _timeml_partial_order():
    q = close(_tml_qcn(["e1", "e2", "e3"],
                       [("e1", "BEFORE", "e3"), ("e2", "BEFORE", "e3")]))
    assert not q.inconsistent
    assert q.cell("e1", "e2") == FULL


def _timeml_simultaneity():
    q = _tml_qcn(["stir", "shake"], [("stir", "SIMULTANEOUS", "shake")])
    assert q.cell("stir", "shake") == Relation.parse("{e}")
    assert not close(q).inconsistent


def _timeml_indeterminate_repetition():
    # annotate the stopping state; the action meets it
    q = _tml_qcn(["beat", "stiff_peaks"], [("beat", "IBEFORE", "stiff_peaks")])
    assert q.cell("beat", "stiff_peaks") == Relation.parse("{m}")
    assert not close(q).inconsistent


def _timeml_sporadic():
    q = _tml_qcn(["simmer", "stir"], [("simmer", "INCLUDES", "stir")])
    assert q.cell("simmer", "stir") == Relation.parse("{di}")
    assert not close(q).inconsistent


def _until_loop_recipe():
    return Recipe(
        title="relish base",
        steps=(ActionNode("combine", "combine fruit and vinegar"),
               ActionNode("simmer", "simmer the mixture"),
               ActionNode("serve", "serve")),
        states=(StateNode("thick", "mixture is thick"),),
        markers=(RepetitionMarker("simmer", "count", ref="thick"),),
        until_links=(("simmer", "thick"),),
    )


def _workflow_qualitative_duration():
    g = recipe_workflow(_until_loop_recipe())
    loop = next(n for n in g.nodes if n.kind == "loop")
    assert loop.label == "until mixture is thick"  # guarded by the state


def _workflow_total_order():
    g = recipe_workflow(Recipe(
        title="chain",
        steps=(ActionNode("a", "stir"), ActionNode("b", "whisk"),
               ActionNode("c", "fold"))))
    assert successors(g, "source") == ("a",)
    assert successors(g, "a") == ("b",)
    assert successors(g, "b") == ("c",)
    assert successors(g, "c") == ("sink",)


def _workflow_partial_order():
    g = recipe_workflow(Recipe(
        title="prep",
        preliminaries=(ActionNode("slice", "slice", kind="preliminary"),
                       ActionNode("mince", "mince", kind="preliminary")),
        steps=(ActionNode("brown", "brown"),)))
    split = next(n for n in g.nodes if n.kind == "and-split")
    join = next(n for n in g.nodes if n.kind == "and-join")
    assert successors(g, split.id) == ("mince", "slice")
    assert successors(g, "slice") == successors(g, "mince") == (join.id,)
    assert successors(g, join.id) == ("brown",)


def _workflow_indeterminate_repetition():
    g = recipe_workflow(_until_loop_recipe())
    loop = next(n for n in g.nodes if n.kind == "loop")
    (head, body), = g.loops
    assert head == loop.id and body == ("simmer",)
    assert ("simmer", loop.id, "back") in g.edges
    assert successors(g, "combine") == (loop.id,)
    assert successors(g, loop.id) == ("serve", "simmer")


def _alternation_recipe():
    return Recipe(
        title="batter",
        steps=(ActionNode("melt", "melt the butter"),
               ActionNode("add_milk", "add milk a little at a time"),
               ActionNode("add_flour", "add flour a little at a time"),
               ActionNode("beat", "beat until smooth")),
        markers=(RepetitionMarker("add_milk", "alternation", ref="add_flour"),))


def _workflow_alternation():
    g = recipe_workflow(_alternation_recipe())
    loop = next(n for n in g.nodes if n.kind == "loop")
    assert loop.label == "alternate with add_flour"
    (head, body), = g.loops
    assert head == loop.id
    assert any(g.node(m).kind == "no-op" for m in body)  # idle partner turn


def _workflow_sporadic():
    g = recipe_workflow(parse_recipe_dsl((FIXTURES / "hot_relish.rcp").read_text()))
    loops = [n for n in g.nodes if n.kind == "loop"]
    assert loops and all(n.label == "sporadic in simmer" for n in loops)
    bodies = dict(g.loops)
    for n in loops:
        assert any(g.node(m).kind == "no-op" for m in bodies[n.id])


def _workflow_exclusive_disjunction():
    g = recipe_workflow(parse_recipe_dsl((FIXTURES / "hot_relish.rcp").read_text()))
    kinds = {n.kind for n in g.nodes}
    assert "xor-split" in kinds and "xor-join" in kinds


_EXPRESSIVENESS_CELLS = [
    ("allen", "qualitative duration", _allen_qualitative_duration),
    ("allen", "total order", _allen_total_order),
    ("allen", "partial order", _allen_partial_order),
    ("allen", "simultaneity", _allen_simultaneity),
    ("indu", "qualitative duration", _indu_qualitative_duration),
    ("indu", "precise quantitative duration", _indu_precise_duration),
    ("indu", "imprecise quantitative duration", _indu_imprecise_duration),
    ("indu", "total order", _indu_total_order),
    ("indu", "partial order", _indu_partial_order),
    ("indu", "simultaneity", _indu_simultaneity),
    ("metric", "qualitative duration", _metric_qualitative_duration),
    ("metric", "precise quantitative duration", _metric_precise_duration),
    ("metric", "imprecise quantitative duration", _metric_imprecise_duration),
    ("metric", "total order", _metric_total_order),
    ("metric", "partial order", _metric_partial_order),
    ("metric", "simultaneity", _metric_simultaneity),
    ("timeml", "qualitative duration", _timeml_qualitative_duration),
    ("timeml", "precise quantitative duration", _timeml_precise_duration),
    ("timeml", "total order", _timeml_total_order),
    ("timeml", "partial order", _timeml_partial_order),
    ("timeml", "simultaneity", _timeml_simultaneity),
    ("timeml", "indeterminate repetition", _timeml_indeterminate_repetition),
    ("timeml", "sporadic repetition", _timeml_sporadic),
    ("workflow", "qualitative duration", _workflow_qualitative_duration),
    ("workflow", "total order", _workflow_total_order),
    ("workflow", "partial order", _workflow_partial_order),
    ("workflow", "indeterminate repetition", _workflow_indeterminate_repetition),
    ("workflow", "alternation", _workflow_alternation),
    ("workflow", "sporadic repetition", _workflow_sporadic),
    ("workflow", "exclusive disjunction", _workflow_exclusive_disjunction),
]


def test_09_expressiveness_matrix():
    with verdict(9, f"{len(_EXPRESSIVENESS_CELLS)} formalism/phenomenon cells"):
        for formalism, phenomenon, build in _EXPRESSIVENESS_CELLS:
            try:
                build()
            except AssertionError as err:
                raise AssertionError(f"{formalism} / {phenomenon}: {err}") from err
        # fixtures plus the loop recipes jointly exercise every phenomenon
        covered = phenomena_coverage(_until_loop_recipe())
        covered |= phenomena_coverage(_alternation_recipe())
        for name in ("lutheran.rcp", "hot_relish.rcp"):
            covered |= phenomena_coverage(
                parse_recipe_dsl((FIXTURES / name).read_text()))
        assert covered == set(PhenomenonTag)


@pytest.mark.parametrize("formalism, phenomena", [
    ("non-convex intervals", "qualitative duration, total order, partial order,"
     " simultaneity, indeterminate repetition, alternation, sporadic repetition"),
    ("cyclic intervals", "qualitative duration, indeterminate repetition,"
     " alternation"),
])
def test_09_expressiveness_out_of_scope(formalism, phenomena):
    pytest.skip(f"{formalism} algebra not implemented; uncovered cells: {phenomena}")


def test_10_adaptation():
    with verdict(10, "substitution keeps every soft constraint, edits stable"):
        recipe = parse_recipe_dsl((FIXTURES / "lutheran.rcp").read_text())
        knowledge = parse_knowledge((FIXTURES / "lentils.know").read_text())
        result, edits = adapt_recipe(recipe, knowledge)
        assert result.relaxed == ()
        assert len(edits) > 0
        closed = hybrid_close(result.revised)
        assert not closed.inconsistent
        for c in result.tagged.constraints:
            if c.provenance != "domain-hard":
                continue
            if c.kind == "allen":
                assert closed.relation(c.frm, c.to) <= c.cell
            else:
                w = closed.point_window(c.frm, c.to)
                assert w.intersect(c.window) == w
        again, edits_again = adapt_recipe(recipe, knowledge)
        assert (result.retained, result.relaxed) == (again.retained, again.relaxed)
        assert edits == edits_again

        # conflict fixtures: revision is cardinality-maximal, checked by
        # exhausting every subset of the soft constraints
        def check_maximal(tagged):
            res = revise(tagged)
            softs = [c.id for c in tagged.constraints if c.provenance == "recipe-soft"]
            hards = [c for c in tagged.constraints if c.provenance == "domain-hard"]
            by_id = {c.id: c for c in tagged.constraints}

            def consistent(chosen):
                net = _network_from(
                    tagged.network.intervals, tagged.network.anon_points,
                    hards + [by_id[i] for i in chosen])
                return hybrid_atomic_consistent(net)[0]

            best = max(len(sub) for r in range(len(softs) + 1)
                       for sub in combinations(softs, r) if consistent(sub))
            assert len(res.retained) == best
            assert consistent(res.retained)
            return res

        chain_soft = [TaggedConstraint.allen(f"s{i + 1}", Relation.parse("{bi,mi}"),
                                             f"s{i}", "recipe-soft")
                      for i in (1, 2, 3)]
        chain_hard = [TaggedConstraint.allen("s4", Relation.parse("{b}"),
                                             "s1", "domain-hard")]
        res = check_maximal(TaggedNetwork.build(
            ["s1", "s2", "s3", "s4"], chain_soft + chain_hard))
        assert res.relaxed == ("s3~s4:soft",)  # ties break toward low ids

        mixed = TaggedNetwork.build(["a", "b"], [
            TaggedConstraint.metric(start_of("a"), end_of("a"),
                                    BoundWindow.closed(10, 20), "recipe-soft"),
            TaggedConstraint.allen("a", Relation.parse("{b}"), "b", "recipe-soft"),
            TaggedConstraint.metric(end_of("a"), start_of("b"),
                                    BoundWindow.exact(5), "recipe-soft"),
            TaggedConstraint.metric(start_of("a"), end_of("a"),
                                    BoundWindow.closed(30, 40), "domain-hard"),
        ])
        res = check_maximal(mixed)
        assert res.relaxed == ("a.end~a.start:soft",)


def test_11_workflow_golden():
    with verdict(11, "hotdish workflow matches the golden rendering"):
        g = recipe_workflow(parse_recipe_dsl((FIXTURES / "lutheran.rcp").read_text()))
        assert emit_dot(g) == (GOLDEN / "lutheran.dot").read_text()

        prelims = ("drain_beans", "mince_garlic", "slice_onion")
        split = next(n.id for n in g.nodes if n.kind == "and-split"
                     and successors(g, n.id) == prelims)
        joins = {successors(g, p) for p in prelims}
        assert len(joins) == 1  # one band around all three
        (join,), = joins
        assert set(successors(g, join)) == {"brown", "prepare_pasta"}
        assert not reachable(g, "brown", "prepare_pasta")
        assert not reachable(g, "prepare_pasta", "brown")
        assert reachable(g, split, "brown")
