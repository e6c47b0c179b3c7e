"""Revision-based adaptation: tagging, removal, injection, revision
and the span edits mapping results back onto the text."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from chronotext import adaptation, recipe as recipe_module
from chronotext.adaptation import (
    DomainKnowledge,
    TaggedConstraint,
    TaggedNetwork,
    adapt_recipe,
    adapt_text_edits,
    format_edits,
    format_revision,
    parse_knowledge,
    revise,
    _network_from,
    _witness_keeps,
)
from chronotext.allen import Relation
from chronotext.annotation import RecipeSyntaxError, parse_recipe_dsl
from chronotext.hybrid import (
    HybridNetwork,
    hybrid_atomic_consistent,
    hybrid_close,
)
from chronotext.metric import STP, BoundWindow, ScaleBoundExceeded, end_of, start_of
from chronotext.recipe import ActionNode, AlternativeBranch, Recipe, encode_recipe

import recipes
from oracles import (
    graft,
    object_tag_soft,
    random_window,
    rebuild_adapt,
    rebuild_revise,
    window_witness_keeps,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

R = Relation.parse


def lutheran_network() -> HybridNetwork:
    _, h = encode_recipe(recipes.lutheran())[0]
    return h


def without(h: HybridNetwork, *ids: str) -> HybridNetwork:
    return h.restricted([i for i in h.intervals if i not in ids])


def lentil_knowledge() -> DomainKnowledge:
    return parse_knowledge((FIXTURES / "lentils.know").read_text())


def hard(a, cell, b):
    return TaggedConstraint.allen(a, R(cell), b, "domain-hard")


def soft(a, cell, b):
    return TaggedConstraint.allen(a, R(cell), b, "recipe-soft")


class TestTaggedConstraint:
    def test_id_normalizes_order(self):
        c = TaggedConstraint.allen("zeta", R("{b}"), "alpha", "recipe-soft")
        assert c.id == "alpha~zeta:soft"
        assert (c.frm, c.to) == ("alpha", "zeta")
        assert c.cell == R("{bi}")

    def test_metric_id_normalizes_order(self):
        c = TaggedConstraint.metric("b.start", "a.end",
                                    BoundWindow.closed(2, 5), "domain-hard")
        assert c.id == "a.end~b.start:hard"
        assert c.window == BoundWindow.closed(-5, -2)

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            TaggedConstraint("x~y:soft", "allen", "x", "y")
        with pytest.raises(ValueError):
            TaggedConstraint("x~y:soft", "allen", "x", "y", cell=R("{b}"),
                             provenance="whim")


class TestTagSoft:
    """`object_tag_soft`, which `graft` tags a network that comes with no
    recipe by, lists exactly the constraints the network was built from."""

    def test_rebuild_reproduces_network(self):
        h = lutheran_network()
        extracted = object_tag_soft(h)
        assert _network_from(h.intervals, h.anon_points, extracted) == h

    def test_ids_unique_and_sorted_ok(self):
        ids = [c.id for c in object_tag_soft(lutheran_network())]
        assert len(ids) == len(set(ids))
        assert "mince_garlic~brown:soft" not in ids  # normalized order
        assert "brown~mince_garlic:soft" in ids

    def test_structural_links_not_extracted(self):
        h = HybridNetwork.build(["a"])
        assert object_tag_soft(h) == []

    def test_matches_object_pass(self):
        """Rebuilding reproduces the network on every scenario of every
        fixture recipe and on random networks with anonymous points and
        fractional windows."""
        networks = [h for name in ("lutheran.rcp", "hot_relish.rcp", "cyclic.rcp")
                    for _, h in encode_recipe(parse_recipe_dsl((FIXTURES / name).read_text()))]
        rng = random.Random(29)
        for _ in range(100):
            ids = [f"i{k}" for k in range(rng.randint(1, 4))]
            points = [p for i in ids for p in (start_of(i), end_of(i))] + ["origin"]
            metric = [(*rng.sample(points, 2), BoundWindow(
                F(rng.randint(-9, -1), rng.choice((1, 3))), F(rng.randint(1, 9), 2),
                rng.random() < 0.5, rng.random() < 0.5)) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.5:  # an interval's own structural link, restated
                metric.append((start_of(ids[0]), end_of(ids[0]), BoundWindow.above(0)))
            networks.append(HybridNetwork.build(
                ids, [(ids[0], Relation(rng.randint(1, 8191)), b) for b in ids[1:]], metric,
                anon_points=["origin"]))
        for h in networks:
            assert _network_from(h.intervals, h.anon_points, object_tag_soft(h)) == h


class TestRemoveEntities:
    def test_remove_prelim_preserves_step_cells(self):
        h = lutheran_network()
        trimmed = without(h, "drain_beans")
        assert "drain_beans" not in trimmed.intervals
        before = hybrid_close(h)
        after = hybrid_close(trimmed)
        steps = [s.id for s in recipes.lutheran().steps]
        for a, b in itertools.combinations(steps, 2):
            assert before.relation(a, b) == after.relation(a, b)

    def test_remove_nothing(self):
        h = lutheran_network()
        assert without(h) == h

    def test_remove_everything(self):
        h = lutheran_network()
        empty = without(h, *h.intervals)
        assert empty.intervals == ()
        assert not hybrid_close(empty).inconsistent

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="chickpeas"):
            adapt_recipe(recipes.lutheran(), DomainKnowledge("k", removals=("chickpeas",)))


class TestParseKnowledge:
    def test_lentils_fixture(self):
        k = lentil_knowledge()
        assert k.name == "lentils for canned kidney beans"
        assert k.removals == ("drain_beans",)
        assert k.anchors == ("combine",)
        assert [s.id for s in k.steps] == ["cook_lentils", "drain_lentils"]
        assert dict(k.durations) == {"cook_lentils": BoundWindow.exact(30)}
        assert k.relations == (
            ("cook_lentils", R("{b,m}"), "drain_lentils"),
            ("drain_lentils", R("{b}"), "combine"),
        )

    def test_missing_header(self):
        with pytest.raises(RecipeSyntaxError, match="no knowledge header"):
            parse_knowledge("")
        with pytest.raises(RecipeSyntaxError, match="no knowledge header"):
            parse_knowledge('anchor combine\n')

    def test_unknown_directive(self):
        with pytest.raises(RecipeSyntaxError, match="unknown directive"):
            parse_knowledge('knowledge "k"\nsporadic stir in simmer\n')

    def test_relation_endpoints_checked(self):
        with pytest.raises(ValueError, match="unknown id 'ghost'"):
            parse_knowledge('knowledge "k"\nstep s "stir"\nrel s {b} ghost\n')

    def test_trailing_tokens_after_rel(self):
        text = ('knowledge "k"\nstep cook_lentils "cook lentils"\n'
                'step drain_lentils "drain lentils"\n'
                'rel cook_lentils {b,m} drain_lentils junk\n')
        with pytest.raises(RecipeSyntaxError, match="trailing tokens after rel") as err:
            parse_knowledge(text)
        assert err.value.line == 4

    def test_trailing_tokens_after_header(self):
        with pytest.raises(RecipeSyntaxError, match="trailing tokens after name") as err:
            parse_knowledge('knowledge "k" extra\nanchor combine\n')
        assert err.value.line == 1

    @pytest.mark.parametrize("line", ["rel k0 {b} zz", "rel k0 {b} gone"])
    def test_undeclared_id_reports_line(self, line):
        # a removed recipe id is not declared by the knowledge either
        text = ('knowledge "k"\nremove gone\nanchor combine\n'
                f'step k0 "stir"\n{line}\n')
        with pytest.raises(RecipeSyntaxError, match="unknown id") as err:
            parse_knowledge(text)
        assert err.value.line == 5

    @pytest.mark.parametrize("line", ['step k.start "stir"', "timer t.end 5 min"])
    def test_endpoint_suffixed_id_reports_line(self, line):
        # an id ending in .start or .end would share its name with an
        # endpoint of another id in the metric layer
        with pytest.raises(RecipeSyntaxError, match="reserved for interval endpoints") as err:
            parse_knowledge(f'knowledge "k"\nanchor combine\n{line}\n')
        assert err.value.line == 3

    def test_programmatic_endpoint_suffixed_id_is_rejected(self):
        # built without the DSL, such a step used to reach `adapt_recipe`,
        # which failed on the duplicate id 'y.end~y.start:hard'
        with pytest.raises(ValueError) as err:
            DomainKnowledge("k", steps=(ActionNode("y", "soak"), ActionNode("y.end", "drain"),
                                        ActionNode("y.start", "cook")),
                            relations=(("y.end", R("{b}"), "y.start"),),
                            durations=(("y", BoundWindow.exact(5)),))
        assert err.value.args == ("id 'y.end' ends in '.end', reserved for interval endpoints",)

    def test_anchors_and_forward_references_resolve(self):
        k = parse_knowledge('knowledge "k"\nrel k0 {b} k1\n'
                            'rel k1 {b} combine\nanchor combine\n'
                            'step k0 "soak"\nstep k1 "cook"\n')
        assert k.relations == (("k0", R("{b}"), "k1"),
                               ("k1", R("{b}"), "combine"))

    def test_anchor_only_relation_rejected(self):
        with pytest.raises(ValueError, match="touches no knowledge node"):
            DomainKnowledge("k", anchors=("a", "b"),
                            relations=(("a", R("{b}"), "b"),))

    def test_anchor_only_relation_reports_line(self):
        text = ('knowledge "k"\nanchor combine\nanchor bake\n'
                'rel combine {b} bake\n')
        with pytest.raises(RecipeSyntaxError,
                           match="touches no knowledge node") as err:
            parse_knowledge(text)
        assert err.value.line == 4

    def test_node_lines_recorded(self):
        k = lentil_knowledge()
        assert k.lines == (("cook_lentils", 4), ("drain_lentils", 5))


class TestInject:
    def test_lentil_injection(self):
        h = without(lutheran_network(), "drain_beans")
        t = graft(h, lentil_knowledge())
        hard_cs = [c for c in t.constraints if c.provenance == "domain-hard"]
        assert len(hard_cs) == 3
        assert {c.id for c in hard_cs} == {
            "cook_lentils~drain_lentils:hard",
            "combine~drain_lentils:hard",
            "cook_lentils.end~cook_lentils.start:hard",
        }
        assert set(t.network.intervals) >= {"cook_lentils", "drain_lentils"}
        assert t.anchors == ("combine",)
        assert t.new_nodes == (("cook_lentils", "cook lentils in water"),
                               ("drain_lentils", "drain the lentils"))

    def test_empty_knowledge_is_identity(self):
        h = lutheran_network()
        t = graft(h, DomainKnowledge("nothing"))
        assert t.network == h
        assert all(c.provenance == "recipe-soft" for c in t.constraints)

    def test_knowledge_timer_window_is_hard(self):
        """A `.know` timer's window is a domain-hard duration like a
        step's `for`: tied to bake, it outranks bake's recipe window,
        which is the one constraint relaxed and flagged."""
        source = (FIXTURES / "lutheran.rcp").read_text()
        k = parse_knowledge('knowledge "k"\nanchor bake\ntimer t 100 min\nrel t {e} bake\n')
        result, edits = adapt_recipe(parse_recipe_dsl(source), k)
        timer = next(c for c in result.tagged.constraints if c.id == "t.end~t.start:hard")
        assert (timer.frm, timer.to, timer.window) == ("t.end", "t.start", BoundWindow.exact(-100))
        assert format_revision(result).startswith("retained 12 of 13 soft constraints\n")
        assert result.relaxed == ("bake.end~bake.start:soft",)
        flag = [e for e in edits if e.op == "flag-review"]
        assert [e.payload for e in flag] == ["bake.end~bake.start:soft"]
        assert source[flag[0].span[0]:flag[0].span[1]].startswith("step bake")

    def test_anchor_must_resolve(self):
        h = without(lutheran_network(), "drain_beans")
        k = DomainKnowledge("k", anchors=("drain_beans",))
        with pytest.raises(KeyError, match="drain_beans"):
            graft(h, k)

    def test_node_clash(self):
        k = DomainKnowledge(
            "k", steps=(recipes.lutheran().steps[0],), anchors=())
        with pytest.raises(ValueError, match="already in network"):
            graft(lutheran_network(), k)

    def test_node_clash_names_knowledge_line(self):
        k = parse_knowledge('knowledge "k"\nanchor combine\n'
                            'step bake "bake it"\nrel bake {b} combine\n')
        with pytest.raises(RecipeSyntaxError, match="'bake' already in network") as err:
            graft(lutheran_network(), k)
        assert err.value.line == 3


def exhaustive_best(intervals, hard_cs, soft_cs):
    """Reference revision: try all soft subsets, largest first, in
    lexicographic id order within a size."""
    soft_sorted = sorted(soft_cs, key=lambda c: c.id)
    for size in range(len(soft_sorted), -1, -1):
        for combo in itertools.combinations(soft_sorted, size):
            ok, _ = hybrid_atomic_consistent(
                _network_from(intervals, (), list(hard_cs) + list(combo)))
            if ok:
                return tuple(c.id for c in combo)
    raise AssertionError("hard constraints alone inconsistent")


class TestRevise:
    def test_lentil_case_no_conflict(self):
        h = without(lutheran_network(), "drain_beans")
        t = graft(h, lentil_knowledge())
        result = revise(t)
        assert result.relaxed == ()
        assert set(result.retained) == {c.id for c in t.constraints
                                        if c.provenance == "recipe-soft"}
        assert not hybrid_close(result.revised).inconsistent
        ok, _ = hybrid_atomic_consistent(result.revised)
        assert ok

    def test_nothing_relaxed_returns_the_tagged_network(self, monkeypatch):
        """With every soft constraint kept, the revised network is the
        tagged network itself, and revision builds no network."""
        t = graft(without(lutheran_network(), "drain_beans"), lentil_knowledge())

        def no_build(*args, **kwargs):
            raise AssertionError("revise built a HybridNetwork")

        monkeypatch.setattr(HybridNetwork, "build", no_build)
        result = revise(t)
        assert result.relaxed == ()
        assert result.revised is t.network

    def test_hard_constraints_untouched(self):
        h = without(lutheran_network(), "drain_beans")
        result = revise(graft(h, lentil_knowledge()))
        for c in result.tagged.constraints:
            if c.provenance != "domain-hard":
                continue
            if c.kind == "allen":
                assert result.revised.relation(c.frm, c.to) == c.cell
            else:
                assert result.revised.point_window(c.frm, c.to) == c.window

    def test_witness_is_atomic_and_consistent(self):
        h = without(lutheran_network(), "drain_beans")
        result = revise(graft(h, lentil_knowledge()))
        w = result.witness
        assert not w.inconsistent
        for i, a in enumerate(w.intervals):
            for b in w.intervals[i + 1:]:
                assert len(w.relation(a, b)) == 1

    def test_single_conflict(self):
        t = TaggedNetwork.build(
            ["x", "y"], [hard("x", "{b}", "y"), soft("x", "{bi}", "y")])
        result = revise(t)
        assert result.relaxed == ("x~y:soft",)
        assert result.retained == ()
        assert result.revised.relation("x", "y") == R("{b}")

    def test_pair_conflict_tie_break(self):
        # either soft alone is fine; together they close a cycle with
        # the hard constraint, so the lexicographically larger id goes
        t = TaggedNetwork.build(
            ["x", "y", "z"],
            [hard("z", "{b}", "x"), soft("x", "{b}", "y"),
             soft("y", "{b}", "z")])
        result = revise(t)
        assert result.retained == ("x~y:soft",)
        assert result.relaxed == ("y~z:soft",)

    def test_hard_self_contradiction(self):
        t = TaggedNetwork.build(
            ["x", "y", "z"],
            [hard("x", "{b}", "y"), hard("y", "{b}", "z"),
             hard("x", "{bi}", "z")])
        with pytest.raises(ValueError, match="self-contradictory"):
            revise(t)

    def test_scale_bound(self):
        n = 26
        ids = [f"x{i:02d}" for i in range(n)]
        cs = [soft(ids[i], "{b}", ids[i + 1]) for i in range(n - 1)]
        cs.append(hard(ids[-1], "{b}", ids[0]))
        with pytest.raises(ScaleBoundExceeded):
            revise(TaggedNetwork.build(ids, cs))

    def test_maximality_exhaustive(self):
        import random
        rng = random.Random(17)
        atoms = ["{b}", "{bi}", "{m}", "{mi}", "{e}", "{d}", "{di}"]
        for _ in range(12):
            names = ["p", "q", "r", "s"]
            pairs = list(itertools.combinations(names, 2))
            rng.shuffle(pairs)
            cs = []
            for a, b in pairs[:rng.randint(2, 5)]:
                maker = hard if rng.random() < 0.4 else soft
                cs.append(maker(a, rng.choice(atoms), b))
            t = TaggedNetwork.build(names, cs)
            hard_cs = [c for c in cs if c.provenance == "domain-hard"]
            soft_cs = [c for c in cs if c.provenance == "recipe-soft"]
            ok, _ = hybrid_atomic_consistent(
                _network_from(names, (), hard_cs))
            if not ok:
                with pytest.raises(ValueError):
                    revise(t)
                continue
            result = revise(t)
            assert result.retained == exhaustive_best(names, hard_cs, soft_cs)

    def test_deterministic(self):
        def run():
            h = without(lutheran_network(), "drain_beans")
            return revise(graft(h, lentil_knowledge()))

        a, b = run(), run()
        assert a == b
        assert format_revision(a) == format_revision(b)
        assert "retained" in format_revision(a)


class TestAdaptTextEdits:
    def test_lentil_edit_list(self):
        source = (FIXTURES / "lutheran.rcp").read_text()
        recipe = parse_recipe_dsl(source)
        result, edits = adapt_recipe(recipe, lentil_knowledge())
        assert result.relaxed == ()
        ops = [(e.op, e.payload) for e in edits]
        assert ops == [
            ("delete", ""),
            ("insert-after", "cook lentils in water"),
            ("insert-after", "drain the lentils"),
        ]
        deleted = edits[0].span
        assert source[deleted[0]:deleted[1]].startswith("prelim drain_beans")
        anchor = edits[1].span
        assert source[anchor[0]:anchor[1]].startswith("step combine")
        assert edits[1].span == edits[2].span

    def test_identity_revision_empty_edits(self):
        recipe = parse_recipe_dsl((FIXTURES / "lutheran.rcp").read_text())
        _, edits = adapt_recipe(recipe, DomainKnowledge("noop"))
        assert edits == ()

    def test_programmatic_endpoint_suffixed_step_is_rejected(self):
        # such a recipe used to reach `adapt_recipe`, which failed on the
        # duplicate id 'x.end~x.start:soft' (exit 1, "inconsistent", in `adapt`)
        with pytest.raises(ValueError) as err:
            Recipe("t", steps=(ActionNode("x", "boil"), ActionNode("x.end", "drain"),
                               ActionNode("x.start", "serve")),
                   durations=(("x", BoundWindow.exact(5)),))
        assert err.value.args == ("id 'x.end' ends in '.end', reserved for interval endpoints",)

    def test_relaxed_constraint_flagged(self):
        source = ('recipe "T"\n'
                  'step a "saute onions"\n'
                  'step b "deglaze pan"\n')
        recipe = parse_recipe_dsl(source)
        k = DomainKnowledge(
            "force simultaneous starts",
            anchors=("a", "b"),
            steps=(recipes.lutheran().steps[0].__class__(
                "z", "heat", ("the", "pan")),),
            relations=(("z", R("{m}"), "a"), ("z", R("{m}"), "b")),
        )
        result, edits = adapt_recipe(recipe, k)
        assert result.relaxed == ("a~b:soft",)
        flags = [e for e in edits if e.op == "flag-review"]
        assert len(flags) == 1
        assert flags[0].payload == "a~b:soft"
        assert source[flags[0].span[0]:flags[0].span[1]].startswith("step a")

    def test_format_edits_lines(self):
        recipe = parse_recipe_dsl((FIXTURES / "lutheran.rcp").read_text())
        _, edits = adapt_recipe(recipe, lentil_knowledge())
        text = format_edits(edits)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].endswith(" delete")
        assert lines[1].endswith(" insert-after cook lentils in water")
        assert format_edits(()) == ""

    def test_adapt_builds_the_base_scenario_only(self, monkeypatch):
        """`adapt` lists the base scenario alone and builds no network of
        the recipe: its one network is the tagged one.  hot_relish has one
        alt block, so `encode_recipe` builds two scenarios."""
        built, listed = [], []

        class Counting:
            @staticmethod
            def build(intervals, *rest):
                built.append(list(intervals))
                return HybridNetwork.build(intervals, *rest)

        def counting_builder(r):
            scenario = recipe_module._scenario_builder(r)

            def counted(chosen):
                listed.append(tuple(chosen))
                return scenario(chosen)
            return counted

        monkeypatch.setattr(recipe_module, "HybridNetwork", Counting)
        monkeypatch.setattr(adaptation, "_scenario_builder", counting_builder)
        recipe = parse_recipe_dsl((FIXTURES / "hot_relish.rcp").read_text())
        knowledge = parse_knowledge((FIXTURES / "slow_cooker.know").read_text())
        adapt_recipe(recipe, knowledge)
        assert listed == [()]
        assert built == []
        assert len(encode_recipe(recipe)) == 2 == len(built)
        assert built[0] == ["chop", "add_onions", "simmer", "stir"]


def random_tagged(rng):
    """Three or four intervals under random Allen cells and metric
    windows, hard and soft, with planted conflicts: a soft cell disjoint
    from the hard one on the same pair, a soft duration after the hard
    one on the same interval."""
    names = ["p", "q", "r", "s"][:rng.randint(3, 4)]
    cells = ["{b}", "{bi}", "{m}", "{o}", "{d}", "{e}", "{b,m}", "{o,d,s}", "{bi,mi,oi}"]
    cs = {}

    def add(c):
        cs.setdefault(c.id, c)

    for a, b in itertools.combinations(names, 2):
        roll = rng.random()
        if roll < 0.25:
            cell = rng.choice(cells)
            add(hard(a, cell, b))
            if roll < 0.1:
                add(soft(a, rng.choice([c for c in cells if not R(c).mask & R(cell).mask]), b))
        if rng.random() < 0.5:
            add(soft(a, rng.choice(cells), b))
    for x in names:
        hi = None
        if rng.random() < 0.4:
            lo = rng.randint(1, 6)
            hi = lo + rng.randint(0, 4)
            add(TaggedConstraint.metric(start_of(x), end_of(x), BoundWindow.closed(lo, hi),
                                        "domain-hard"))
        if rng.random() < 0.5:
            lo = hi + 1 if hi is not None and rng.random() < 0.5 else rng.randint(1, 8)
            add(TaggedConstraint.metric(start_of(x), end_of(x),
                                        BoundWindow(lo, lo + rng.randint(1, 3), False,
                                                    rng.random() < 0.3), "recipe-soft"))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(names, 2)
        lo = F(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        add(TaggedConstraint.metric(start_of(a), start_of(b),
                                    BoundWindow(lo, lo + rng.randint(1, 6), rng.random() < 0.3),
                                    rng.choice(("domain-hard", "recipe-soft"))))
    return TaggedNetwork.build(names, cs.values())


def revision_events(monkeypatch):
    """The witness tests (`("witness", kind, kept)`) and the checks
    (`("check", ok)`) that `revise` makes from now on, in call order."""
    events = []
    keeps, check = adaptation._witness_keeps, adaptation.hybrid_atomic_consistent

    def spied_keeps(witness, c):
        kept = keeps(witness, c)
        events.append(("witness", c.kind, kept is not None))
        return kept

    def spied_check(h, **kw):
        verdict = check(h, **kw)
        events.append(("check", verdict[0]))
        return verdict

    monkeypatch.setattr(adaptation, "_witness_keeps", spied_keeps)
    monkeypatch.setattr(adaptation, "hybrid_atomic_consistent", spied_check)
    return events


class TestReviseAgainstRebuild:
    def test_random_tagged_networks(self, monkeypatch):
        """Revising from each search node's closed network and witness,
        with candidates the witness satisfies kept unchecked, gives the
        retained and relaxed ids, the revised network and the witness of
        rebuilding and closing the candidate network at every check."""
        events = revision_events(monkeypatch)
        rng = random.Random(83)
        relaxed_kinds, outcomes = set(), set()
        for _ in range(150):
            t = random_tagged(rng)
            try:
                ref = rebuild_revise(t)
            except ValueError as e:
                with pytest.raises(type(e)):
                    revise(t)
                outcomes.add("contradictory")
                continue
            got = revise(t)
            assert (got.retained, got.relaxed) == (ref.retained, ref.relaxed)
            assert got.revised == ref.revised
            assert got.witness == ref.witness
            assert format_revision(got) == format_revision(ref)
            kinds = {c.kind for c in t.constraints if c.id in got.relaxed}
            relaxed_kinds |= kinds
            outcomes.add("relaxed" if got.relaxed else "kept all")
        assert relaxed_kinds == {"allen", "metric"}
        assert outcomes == {"contradictory", "relaxed", "kept all"}
        assert ("witness", "allen", True) in events
        assert ("witness", "metric", True) in events
        # a candidate its node's witness fails can still be consistent:
        # the check right after the miss keeps it
        assert any(e[0] == "witness" and not e[2] and nxt == ("check", True)
                   for e, nxt in zip(events, events[1:]))

    def test_checks_pinned(self, monkeypatch):
        """On a fixed set of tagged networks revision makes 370
        `hybrid_atomic_consistent` calls when every candidate is checked,
        299 when those the witness satisfies are kept unchecked, with the
        rebuilt search's results."""
        rng = random.Random(97)
        cases = [random_tagged(rng) for _ in range(60)]
        refs = []
        for t in cases:
            try:
                refs.append(rebuild_revise(t))
            except ValueError:
                refs.append(None)
        events = revision_events(monkeypatch)
        for t, ref in zip(cases, refs):
            if ref is None:
                with pytest.raises(ValueError):
                    revise(t)
                continue
            got = revise(t)
            assert (got.retained, got.witness) == (ref.retained, ref.witness)
        assert sum(e[0] == "check" for e in events) == 299

    def test_lentil_case_matches_rebuild(self):
        h = without(lutheran_network(), "drain_beans")
        t = graft(h, lentil_knowledge())
        got, ref = revise(t), rebuild_revise(t)
        assert (got.retained, got.relaxed, got.revised, got.witness) == \
            (ref.retained, ref.relaxed, ref.revised, ref.witness)

    def test_closes_from_scratch_at_most_twice(self, full_closes):
        """Only the two networks built from the tagged constraints (all
        of them, then the hard ones) are closed through every point; every
        candidate extends the closed network of its search node."""
        runs = full_closes
        rng = random.Random(89)
        searched = 0
        for _ in range(60):
            t = random_tagged(rng)
            runs.clear()
            try:
                result = revise(t)
            except ValueError:
                continue
            assert len(runs) <= 2
            searched += bool(result.relaxed)
        assert searched >= 10


def touching_windows(rng, w):
    """Windows outside the minimal window `w` that share one of its
    finite end values, each side closed or open at random, each with
    whether it meets `w`: only when both are closed at that value."""
    out = []
    if w.hi is not None:
        t = BoundWindow(w.hi, w.hi + rng.randint(1, 3), rng.random() < 0.5, rng.random() < 0.5)
        out.append((t, not (t.lo_strict or w.hi_strict)))
    if w.lo is not None:
        t = BoundWindow(w.lo - rng.randint(1, 3), w.lo, rng.random() < 0.5, rng.random() < 0.5)
        out.append((t, not (t.hi_strict or w.lo_strict)))
    return out


class TestWitnessKeeps:
    def test_matches_window_reference(self):
        """Keeping a metric candidate when closing the witness's minimal
        STP with it stays consistent agrees with decoding the pair's
        minimal window and intersecting it with the candidate's, and
        gives the same closed witness.  The windows include new
        denominators (the rescaling close), strict and unbounded sides,
        and windows touching the minimal one at a closed or an open end."""
        rng = random.Random(61)
        seen = Counter()
        for _ in range(60):
            ok, witness = hybrid_atomic_consistent(random_tagged(rng).network)
            if not ok:
                continue
            for _ in range(10):
                frm, to = rng.sample(witness.stp.points, 2)
                minimal = witness.stp.window(frm, to)
                for w, meets in [(random_window(rng, 8), None)] + touching_windows(rng, minimal):
                    c = TaggedConstraint.metric(frm, to, w, "recipe-soft")
                    got = _witness_keeps(witness, c)
                    assert got == window_witness_keeps(witness, c)
                    kept = got is not None
                    assert not (kept and got.inconsistent)
                    if any(v is not None and witness.stp._d % v.denominator
                           for v in (w.lo, w.hi)):
                        seen["rescaled", kept] += 1
                    if w.lo is None or w.hi is None:
                        seen["unbounded", kept] += 1
                    if w.lo_strict and w.lo is not None or w.hi_strict and w.hi is not None:
                        seen["strict", kept] += 1
                    if meets is not None:
                        assert kept == meets
                        seen["touching", kept] += 1
        for kept in (True, False):
            for case in ("rescaled", "unbounded", "strict", "touching"):
                assert seen[case, kept], (case, kept)

    def test_revise_decodes_no_window(self, monkeypatch):
        """`revise` decides every candidate on the encoded STP: neither
        `STP.window` nor `BoundWindow.intersect` runs, on the lentil case
        and on random tagged networks whose witnesses keep and drop
        metric candidates."""
        lentils = graft(without(lutheran_network(), "drain_beans"),
                         lentil_knowledge())
        rng = random.Random(83)
        cases = [random_tagged(rng) for _ in range(60)]
        events = revision_events(monkeypatch)
        decodes = Counter()

        def count(cls, name):
            real = getattr(cls, name)

            def counted(*args):
                decodes[name] += 1
                return real(*args)
            monkeypatch.setattr(cls, name, counted)

        count(STP, "window")
        count(BoundWindow, "intersect")
        for t in [lentils] + cases:
            try:
                revise(t)
            except ValueError:
                continue
        assert ("witness", "metric", True) in events
        assert ("witness", "metric", False) in events
        assert decodes == {}
        lentils.network.stp.window(*lentils.network.stp.points[:2])  # the counters do count
        assert decodes["window"] > 0


SUBSTITUTION_CELLS = ("{b}", "{bi}", "{m}", "{b,m}", "{o,d,s}", "{s,si,e}", "{d,f}",
                      "{bi,mi,oi}", "{di}", "{b,bi,m,mi,o,oi,d,di,s,si,f,fi,e}")


def random_substitution(rng):
    """A `.rcp` and a `.know` text: preliminaries, steps with `for`,
    `for … until` caps, `until`, `meanwhile` and `last … of`, a timer, a
    sporadic step, `rel` lines (a tautological one, a pair stated twice,
    a self-constraint) and an alt block; knowledge that removes recipe ids (reusing one for
    a new node), anchors the rest and relates new nodes to anchors by
    random cells, which plants conflicts."""
    cell = lambda: rng.choice(SUBSTITUTION_CELLS)  # noqa: E731
    prelims = [f"p{i}" for i in range(rng.randint(0, 2))]
    steps = [f"s{i}" for i in range(rng.randint(2, 5))]
    lines = ['recipe "r"'] + [f'prelim {p} "chop {p}"' for p in prelims]
    for n, s in enumerate(steps):
        roll, minutes = rng.random(), rng.randint(1, 30)
        clause = ("" if roll < 0.3 else f" for {minutes} min" if roll < 0.45
                  else f" for {minutes}-{minutes + rng.randint(1, 9)} min" if roll < 0.55
                  else f' for {minutes} min until "done"' if roll < 0.7
                  else ' until "ready"' if roll < 0.8
                  else " meanwhile" if n and roll < 0.9
                  else f" last {rng.randint(1, 9)} min of {steps[rng.randrange(n)]}" if n
                  else "")
        lines.append(f'step {s} "stir {s}"{clause}')
    ids = prelims + steps
    if rng.random() < 0.4:
        lines += [f"timer t0 {rng.randint(2, 20)} min",
                  f"rel t0 {rng.choice(('{s}', '{f}', '{d}', '{e}'))} {rng.choice(steps)}"]
    if rng.random() < 0.3:
        lines.append(f"sporadic {steps[-1]} in {steps[0]}")
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(ids, 2)
        stated = [R(cell())]
        if rng.random() < 0.3:  # the same pair again, wider, in either order
            stated.insert(rng.randrange(2), Relation(stated[0].mask | R(cell()).mask))
        lines += [f"rel {a} {rel} {b}" if rng.random() < 0.5 else f"rel {b} {rel.converse()} {a}"
                  for rel in stated]
    if rng.random() < 0.1:  # said nothing when it admits equality, else an error
        lines.append(f"rel {ids[0]} {rng.choice(('{s,si,e}', '{b}'))} {ids[0]}")
    if rng.random() < 0.4:
        lines += ['alt hot "if hot" {', '  step c0 "add chilli" for 2 min',
                  f"  rel c0 {cell()} {rng.choice(steps)}", "}"]

    removals = rng.sample(ids, rng.randint(0, 2))
    kept = [i for i in ids if i not in removals]
    know = ['knowledge "k"'] + [f"remove {i}" for i in removals]
    anchors = rng.sample(kept, min(len(kept), rng.randint(1, 2)))
    know += [f"anchor {a}" for a in anchors]
    new = [f"n{i}" for i in range(rng.randint(1, 2))]
    if removals and rng.random() < 0.3:
        new[0] = removals[0]
    for n in new:
        know.append(f'step {n} "soak {n}"' + rng.choice(("", " for 10 min", ' until "soft"')))
        know += [f"rel {n} {cell()} {a}" for a in anchors if rng.random() < 0.7]
    if rng.random() < 0.3:
        know += ["timer k0 5 min", f"rel k0 {cell()} {new[0]}"]
    return "\n".join(lines) + "\n", "\n".join(know) + "\n"


class TestAdaptAgainstRebuild:
    """`adapt_recipe` makes the recipe-soft constraints from the base
    scenario's lists; `rebuild_adapt` builds the scenario, restricts it
    and reads them back.  The tagged constraints, in order, the tagged
    network, the revision and the edits are the same, and so is any error."""

    @staticmethod
    def outcome(r, k):
        try:
            t, ref, ref_edits = rebuild_adapt(r, k)
        except (KeyError, ValueError) as e:
            with pytest.raises(type(e)) as err:
                adapt_recipe(r, k)
            assert err.value.args == e.args
            return type(e).__name__
        result, edits = adapt_recipe(r, k)
        assert result.tagged.constraints == t.constraints
        assert result.tagged.network == t.network
        assert result == ref
        assert edits == ref_edits
        return "relaxed" if result.relaxed else "kept all"

    @pytest.mark.parametrize("rcp, know, outcome", [
        ("lutheran.rcp", "lentils.know", "kept all"),
        ("hot_relish.rcp", "slow_cooker.know", "relaxed"),
    ])
    def test_fixtures(self, rcp, know, outcome):
        r = parse_recipe_dsl((FIXTURES / rcp).read_text())
        assert self.outcome(r, parse_knowledge((FIXTURES / know).read_text())) == outcome

    @pytest.mark.parametrize("windows, outcome", [
        ((BoundWindow.closed(0, 5),), "kept all"),
        ((BoundWindow.above(0, strict=False),), "kept all"),
        ((BoundWindow.closed(1, 9), BoundWindow.closed(5, 16)), "kept all"),
        ((BoundWindow.exact(0),), "ValueError"),
        ((BoundWindow.closed(1, 2), BoundWindow.closed(5, 6)), "ValueError"),
    ], ids=["closed-at-0", "nonnegative", "two-meeting", "zero", "two-apart"])
    def test_programmatic_durations(self, windows, outcome):
        """Windows the DSL never makes, one closed at 0 or two on one step,
        are conjoined with end - start > 0; a step they leave no value
        fails as decoding its pair did, unless the knowledge removes it."""
        r = Recipe("t", steps=(ActionNode("a", "stir"), ActionNode("b", "fold")),
                   durations=tuple(("a", w) for w in windows))
        assert self.outcome(r, DomainKnowledge("k")) == outcome
        assert self.outcome(r, DomainKnowledge("k", removals=("a",))) == "kept all"

    def test_programmatic_self_constraint_in_an_alt_branch(self):
        """A self-constraint that excludes equality, in a branch the base
        scenario lacks, fails as building that branch's scenario fails."""
        r = Recipe("t", steps=(ActionNode("a", "stir"), ActionNode("c", "add chilli")),
                   relations=(("c", R("{b}"), "c"),), branches=(AlternativeBranch("hot", ("c",)),))
        assert self.outcome(r, DomainKnowledge("k")) == "ValueError"

    def test_generated_substitutions(self):
        rng = random.Random(30)
        seen, features = Counter(), Counter()
        while seen["kept all"] + seen["relaxed"] < 200:
            rcp, know = random_substitution(rng)
            try:
                r, k = parse_recipe_dsl(rcp), parse_knowledge(know)
            except ValueError:
                seen["unparsed"] += 1
                continue
            outcome = self.outcome(r, k)
            seen[outcome] += 1
            if outcome in ("kept all", "relaxed"):
                pairs = Counter(frozenset((a, b)) for a, _, b in r.relations)
                features.update(f for f, there in (
                    ("removal", k.removals), ("cap", "until" in rcp and " for " in rcp),
                    ("timer", r.timers), ("last", r.last_links), ("alt", r.branches),
                    ("tautology", SUBSTITUTION_CELLS[-1] in rcp),
                    ("twice", max(pairs.values(), default=1) > 1)) if there)
        assert seen["relaxed"] >= 40 and seen["kept all"] >= 40, seen
        assert seen["ValueError"] >= 5 and seen["RecipeSyntaxError"] >= 1, seen
        assert min(features.values()) >= 20 and len(features) == 7, features
