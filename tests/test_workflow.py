"""Workflow export: precedence, reduction, bands, loops, xor merge and
the dot rendering."""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from chronotext.allen import Relation
from chronotext.annotation import parse_recipe_dsl
from chronotext.hybrid import HybridNetwork, hybrid_atomic_consistent, hybrid_close
from chronotext.recipe import ActionNode, Recipe, RepetitionMarker, encode_recipe
from chronotext.workflow import (
    WorkflowGraph,
    WorkflowNode,
    _precedence,
    _scenario_flow,
    emit_dot,
    recipe_workflow,
    to_workflow,
)

import recipes
from oracles import object_precedence, reachable, triple_loop_scenario_flow

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def chain_recipe(n: int) -> Recipe:
    steps = tuple(ActionNode(f"s{i}", "stir", (str(i),), kind="step")
                  for i in range(1, n + 1))
    return Recipe(title="chain", steps=steps)


class TestLutheranGolden:
    def test_matches_golden_bytes(self):
        got = emit_dot(recipe_workflow(recipes.lutheran()))
        assert got == (GOLDEN / "lutheran.dot").read_text()

    def test_fixture_parse_agrees(self):
        parsed = parse_recipe_dsl((FIXTURES / "lutheran.rcp").read_text())
        assert emit_dot(recipe_workflow(parsed)) == \
            (GOLDEN / "lutheran.dot").read_text()

    def test_preliminaries_share_one_band_before_brown(self):
        w = recipe_workflow(recipes.lutheran())
        prelims = ["slice_onion", "mince_garlic", "drain_beans"]
        splits = {f for f, t, _ in w.edges if t in prelims}
        joins = {t for f, t, _ in w.edges if f in prelims}
        assert len(splits) == 1 and len(joins) == 1
        (split,), (join,) = splits, joins
        assert w.node(split).kind == "and-split"
        assert w.node(join).kind == "and-join"
        assert (join, "brown", "") in w.edges
        assert reachable(w, join, "brown")

    def test_prepare_parallel_to_brown(self):
        w = recipe_workflow(recipes.lutheran())
        assert not reachable(w, "brown", "prepare_pasta")
        assert not reachable(w, "prepare_pasta", "brown")

    def test_single_source_and_sink(self):
        w = recipe_workflow(recipes.lutheran())
        flow = [(f, t) for f, t, style in w.edges if style == ""]
        entered = {t for _, t in flow}
        left = {f for f, _ in flow}
        assert [n.id for n in w.nodes if n.id not in entered] == ["source"]
        assert [n.id for n in w.nodes if n.id not in left] == ["sink"]


class TestChains:
    def test_single_action(self):
        w = recipe_workflow(chain_recipe(1))
        assert [(n.id, n.kind) for n in w.nodes] == [
            ("s1", "action"), ("sink", "no-op"), ("source", "no-op")]
        assert w.edges == (("s1", "sink", ""), ("source", "s1", ""))

    def test_chain_is_transitively_reduced(self):
        w = recipe_workflow(chain_recipe(5))
        expected = {("source", "s1"), ("s1", "s2"), ("s2", "s3"),
                    ("s3", "s4"), ("s4", "s5"), ("s5", "sink")}
        assert {(f, t) for f, t, _ in w.edges} == expected

    def test_reduction_preserves_reachability(self):
        r = recipes.lutheran()
        w = recipe_workflow(r)
        actions = {n.id for n in r.preliminaries + r.steps}
        from chronotext.recipe import encode_recipe
        closed = hybrid_close(encode_recipe(r)[0][1])
        bm = Relation.parse("{b,m}")
        for a, b in itertools.permutations(sorted(actions), 2):
            if closed.relation(a, b) <= bm:
                assert reachable(w, a, b), f"{a} should reach {b}"

    def test_empty_inputs(self):
        w = to_workflow([])
        assert [n.id for n in w.nodes] == ["sink", "source"]
        assert w.edges == (("source", "sink", ""),)
        assert to_workflow([("base", HybridNetwork.build([]))]) == w


ORDERS = [Relation.parse(t) for t in ("{b}", "{m}", "{b,m}", "{b,m,o}", "{o}", "{s,e}", "{bi,mi}",
                                      "{b,bi}", "{d,di,f}")]


class TestPrecedenceOnMasks:
    def test_random_closed_scenarios(self):
        """The precedence read from cell masks is the one read through a
        `Relation` per ordered pair, on closed networks and on the atomic
        scenarios their search finds."""
        rng = random.Random(101)
        seen = set()
        for _ in range(200):
            ids = [f"a{k}" for k in range(rng.randint(2, 7))]
            rng.shuffle(ids)
            cons = [(a, rng.choice(ORDERS) if rng.random() < 0.8
                     else Relation(rng.randint(1, 8191)), b)
                    for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.6]
            closed = hybrid_close(HybridNetwork.build(ids, cons))
            if closed.inconsistent:
                continue
            ok, witness = hybrid_atomic_consistent(closed)
            for h in [closed] + ([witness] if ok else []):
                after = _precedence(h)
                assert after == object_precedence(h)
                seen.add(sum(map(len, after.values())) > 0)
        assert seen == {True, False}

    def test_empty_cell_is_no_precedence(self):
        h = HybridNetwork.build(["a", "b"], [("a", Relation(0), "b")])
        assert _precedence(h) == object_precedence(h) == {"a": set(), "b": set()}


class TestReductionAgainstTripleLoop:
    def test_flows_match(self):
        """The flow of one scenario, its reduction read from `after` as
        set differences, is the flow of the reduction over every triple:
        the same nodes, edges, loops and frontiers, on random closed
        networks and scenarios with loop markers, and on the recipes'."""
        rng = random.Random(211)
        cases = []
        for r in (recipes.lutheran(), recipes.hot_relish()):
            actions = {n.id for n in r.preliminaries + r.steps}
            guards = {st.id: st.predicate for st in r.states}
            for label, h in encode_recipe(r):
                ch = hybrid_close(h)
                cases.append((ch.restricted([i for i in ch.intervals if i in actions]),
                              r.markers, f"{label}:", guards))
        for _ in range(200):
            ids = [f"a{k}" for k in range(rng.randint(1, 8))]
            rng.shuffle(ids)
            cons = [(a, rng.choice(ORDERS), b)
                    for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.7]
            closed = hybrid_close(HybridNetwork.build(ids, cons))
            if closed.inconsistent:
                continue
            ok, witness = hybrid_atomic_consistent(closed)
            targets = rng.sample(ids, rng.randint(0, min(2, len(ids))))
            modes = rng.choices(["sporadic", "alternation", "count"], k=2)
            markers = tuple(RepetitionMarker(a, "count", count=2) if mode == "count"
                            else RepetitionMarker(a, mode, ref=ids[0])
                            for a, mode in zip(targets, modes))
            for h in [closed] + ([witness] if ok else []):
                cases.append((h, markers, rng.choice(["", "base:"]), {}))
        kinds = Counter()
        for h, markers, prefix, guards in cases:
            got = _scenario_flow(h, markers, prefix, guards)
            assert got == triple_loop_scenario_flow(h, markers, prefix, guards)
            kinds.update({n.kind for n in got[0]})
        assert len(cases) > 150 and kinds["and-split"] > 15 and kinds["loop"] > 80


class TestScenariosAndLoops:
    def test_chilli_xor(self):
        w = recipe_workflow(recipes.hot_relish())
        kinds = {n.id: n.kind for n in w.nodes}
        assert kinds["xor-split"] == "xor-split"
        assert kinds["xor-join"] == "xor-join"
        branches = {t for f, t, _ in w.edges if f == "xor-split"}
        assert branches == {"base:chop", "hot:chop"}
        assert ("hot:chop", "hot:add_chillis", "") in w.edges

    def test_scenarios_ending_in_one_step(self):
        """Each scenario whose flow ends in a single step joins the xor
        through that step, with no and-join."""
        w = recipe_workflow(parse_recipe_dsl(
            'recipe "T"\nstep a "chop"\nstep b "fry"\n'
            'alt extra {\n  step c "garnish"\n  rel c {bi} b\n}\n'))
        into_join = {f for f, t, _ in w.edges if t == "xor-join"}
        assert into_join == {"base:b", "extra:c"}
        assert not any(n.kind == "and-join" for n in w.nodes)

    def test_sporadic_loop_nodes(self):
        w = recipe_workflow(recipes.hot_relish())
        loop = w.node("base:loop:stir")
        assert loop.kind == "loop"
        assert loop.label == "sporadic in simmer"
        bodies = dict(w.loops)
        assert set(bodies["base:loop:stir"]) == {"base:stir", "base:noop:stir"}
        assert ("base:stir", "base:loop:stir", "back") in w.edges
        assert ("base:noop:stir", "base:loop:stir", "back") in w.edges

    def test_stir_loop_after_add_onions(self):
        # stir happens during simmer, so it cannot begin before the
        # step that precedes simmer has finished
        w = recipe_workflow(recipes.hot_relish())
        assert ("base:add_onions", "base:loop:stir", "") in w.edges
        assert not reachable(w, "base:simmer", "base:loop:stir")

    def test_alternation_pair(self):
        r = Recipe(
            title="t",
            steps=(ActionNode("knead", "knead", kind="step"),
                   ActionNode("rest", "rest", kind="step")),
            markers=(RepetitionMarker("knead", "alternation", ref="rest"),),
        )
        w = recipe_workflow(r)
        assert w.node("loop:knead").label == "alternate with rest"
        assert dict(w.loops)["loop:knead"] == ("knead", "noop:knead")
        assert {t for f, t, _ in w.edges if f == "source"} == \
            {"loop:knead", "rest"}

    def test_count_markers(self):
        base = chain_recipe(2)
        counted = Recipe(
            title="t", steps=base.steps,
            markers=(RepetitionMarker("s1", "count", count=3),))
        w = recipe_workflow(counted)
        assert w.node("loop:s1").label == "repeat 3 times"
        assert dict(w.loops)["loop:s1"] == ("s1",)
        assert ("loop:s1", "s2", "") in w.edges

    def test_until_marker_uses_state_predicate(self):
        net = HybridNetwork.build(["whisk"])
        marker = RepetitionMarker("whisk", "count", ref="whisk.until")
        w = to_workflow([("base", net)], (marker,),
                        {"whisk.until": "peaks are stiff"})
        assert w.node("loop:whisk").label == "until peaks are stiff"


class TestGraphValidation:
    def test_duplicate_node(self):
        n = WorkflowNode("a", "action", "a")
        with pytest.raises(ValueError, match="duplicate"):
            WorkflowGraph((n, n), ())

    def test_dangling_edge(self):
        n = WorkflowNode("a", "action", "a")
        with pytest.raises(ValueError, match="endpoint"):
            WorkflowGraph((n,), (("a", "ghost", ""),))

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            WorkflowNode("a", "band")

    def test_inconsistent_recipe_rejected(self):
        parsed = parse_recipe_dsl((FIXTURES / "cyclic.rcp").read_text())
        with pytest.raises(ValueError, match="inconsistent"):
            recipe_workflow(parsed)


class TestEmitDot:
    def test_deterministic(self):
        a = emit_dot(recipe_workflow(recipes.hot_relish()))
        b = emit_dot(recipe_workflow(recipes.hot_relish()))
        assert a == b

    def test_loop_rendering(self):
        text = emit_dot(recipe_workflow(recipes.hot_relish()))
        assert 'subgraph "cluster:base:loop:stir" {' in text
        assert '"base:stir" -> "base:loop:stir" [style=dashed];' in text

    def test_empty_graph(self):
        text = emit_dot(to_workflow([]))
        assert text.splitlines() == [
            "digraph workflow {",
            "  rankdir=LR;",
            '  "sink" [shape=circle, label="sink"];',
            '  "source" [shape=circle, label="source"];',
            '  "source" -> "sink";',
            "}",
        ]

    def test_nodes_sorted_and_quoted(self):
        text = emit_dot(recipe_workflow(recipes.lutheran()))
        node_lines = [l for l in text.splitlines() if "[shape=" in l]
        names = [l.split('"')[1] for l in node_lines]
        assert names == sorted(names)
