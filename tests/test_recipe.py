import random
from collections import Counter
from fractions import Fraction

import pytest

from chronotext.allen import FULL, Relation, close
from chronotext.hybrid import hybrid_atomic_consistent, hybrid_close
from chronotext.metric import BoundWindow, ScaleBoundExceeded
from chronotext.recipe import (
    ActionNode,
    AlternativeBranch,
    PhenomenonTag,
    Recipe,
    RepetitionMarker,
    StateNode,
    TimerNode,
    MAX_ALT_BLOCKS,
    duration_cap,
    encode_duration,
    encode_recipe,
    phenomena_coverage,
)
from oracles import contradictory_pairs, per_scenario_encode_recipe
from recipes import hot_relish, lutheran


R = Relation.parse
F = Fraction


class TestEncodeDuration:
    def test_exact_hour(self):
        assert encode_duration("1hr") == BoundWindow.exact(60)

    def test_range(self):
        assert encode_duration("2-3 hours") == BoundWindow.closed(120, 180)
        assert encode_duration("2–3 hours") == BoundWindow.closed(120, 180)
        assert encode_duration("2 to 3 hours") == BoundWindow.closed(120, 180)

    def test_about_widens(self):
        assert encode_duration("about 25 minutes") == BoundWindow.closed(20, 30)

    def test_unit_normalization(self):
        assert encode_duration("60 min") == encode_duration("1hr")
        assert encode_duration("1.5 hours") == BoundWindow.exact(90)
        assert encode_duration("1/2 hour") == BoundWindow.exact(30)
        assert encode_duration("1/02 hour") == BoundWindow.exact(30)
        assert encode_duration("90 mins") == BoundWindow.exact(90)

    def test_about_factor_configurable(self, monkeypatch):
        monkeypatch.setattr("chronotext.recipe.ABOUT_FACTOR", F(1, 10))
        assert encode_duration("about 10 min") == BoundWindow.closed(9, 11)

    def test_cap_ignores_widening(self):
        assert duration_cap("about 25 minutes") == 25
        assert duration_cap("2-3 hours") == 180
        assert duration_cap("1hr") == 60

    @pytest.mark.parametrize("bad", [
        "25", "soon", "3-2 hours", "about 2-3 hours", "0 min", "five minutes",
        "10 sec", "1/0 min", "2-1/0 h", "about 1/0 min", "1/00 min",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            encode_duration(bad)


class TestModelValidation:
    def test_timer_needs_positive_duration(self):
        with pytest.raises(ValueError):
            TimerNode("t", BoundWindow.closed(0, 5))
        with pytest.raises(ValueError):
            TimerNode("t", BoundWindow(None, F(5)))

    def test_marker_modes(self):
        RepetitionMarker("a", "sporadic", ref="c")
        RepetitionMarker("a", "alternation", ref="b")
        RepetitionMarker("a", "count", count=3)
        RepetitionMarker("a", "count", ref="st")
        with pytest.raises(ValueError):
            RepetitionMarker("a", "sporadic")
        with pytest.raises(ValueError):
            RepetitionMarker("a", "count", ref="st", count=3)
        with pytest.raises(ValueError):
            RepetitionMarker("a", "sometimes", ref="c")

    def test_action_kinds(self):
        with pytest.raises(ValueError):
            ActionNode("a", "stir", kind="note")
        with pytest.raises(ValueError):
            ActionNode("a", "stir", kind="preliminary", meanwhile=True)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            Recipe("t", steps=(ActionNode("a", "x"), ActionNode("a", "y")))

    def test_unknown_references(self):
        with pytest.raises(ValueError):
            Recipe("t", steps=(ActionNode("a", "x"),),
                   relations=(("a", R("{b}"), "ghost"),))
        with pytest.raises(ValueError):
            Recipe("t", steps=(ActionNode("a", "x"),),
                   markers=(RepetitionMarker("a", "sporadic", ref="ghost"),))

    def test_unknown_duration_id(self):
        """A window on an id the recipe does not declare is an error, not
        a constraint that encoding drops; declared ids still take one."""
        with pytest.raises(ValueError, match="unknown id 'zz'"):
            Recipe("t", steps=(ActionNode("a", "x"),),
                   durations=(("zz", BoundWindow.exact(5)),))
        r = Recipe("t", steps=(ActionNode("a", "x"),),
                   durations=(("a", BoundWindow.exact(5)),))
        [(_, h)] = encode_recipe(r)
        assert hybrid_close(h).duration_window("a") == BoundWindow.exact(5)

    def test_branch_members_disjoint(self):
        steps = (ActionNode("a", "x"), ActionNode("b", "y"))
        with pytest.raises(ValueError):
            Recipe("t", steps=steps,
                   branches=(AlternativeBranch("b1", ("a",)),
                             AlternativeBranch("b2", ("a",))))

    def test_overlapping_spans(self):
        with pytest.raises(ValueError):
            Recipe("t", steps=(ActionNode("a", "x", span=(0, 10)),
                               ActionNode("b", "y", span=(5, 15))))


class TestLutheranEncoding:
    def test_single_base_scenario(self):
        scenarios = encode_recipe(lutheran())
        assert [label for label, _ in scenarios] == ["base"]

    def test_worked_cells(self):
        (_, net), = encode_recipe(lutheran())
        assert net.relation("mince_garlic", "brown") == R("{b}")
        assert net.relation("slice_onion", "brown") == R("{b}")
        assert net.relation("prepare_pasta", "brown") == R("{d,f}")
        assert net.relation("combine", "prepare_pasta") == R("{bi,mi}")
        assert net.relation("add_sauce", "combine") == R("{bi,mi}")
        assert net.relation("pour", "add_sauce") == R("{bi,mi}")
        assert net.relation("bake", "pour") == R("{bi,mi}")

    def test_duration_and_timer_windows(self):
        (_, net), = encode_recipe(lutheran())
        assert net.duration_window("bake") == BoundWindow.exact(60)
        assert net.duration_window("remove_cover.timer") == BoundWindow.exact(15)

    def test_last_of_rule(self):
        (_, net), = encode_recipe(lutheran())
        assert net.relation("remove_cover.timer", "bake") == R("{f}")
        assert net.relation("remove_cover", "remove_cover.timer") == R("{s}")
        # positioned by the timer, not the text chain
        assert net.relation("remove_cover", "bake") == FULL

    def test_until_state_rule(self):
        (_, net), = encode_recipe(lutheran())
        assert net.relation("add_sauce", "add_sauce.until") == R("{m}")

    def test_scenario_is_consistent(self):
        (_, net), = encode_recipe(lutheran())
        closed = hybrid_close(net)
        assert not closed.inconsistent
        ok, witness = hybrid_atomic_consistent(net)
        assert ok
        assert closed.relation("remove_cover", "bake") <= R("{d,f}")

    def test_preliminaries_precede_everything_after_closure(self):
        (_, net), = encode_recipe(lutheran())
        closed = hybrid_close(net)
        for later in ("prepare_pasta", "combine", "add_sauce", "pour", "bake"):
            assert closed.relation("slice_onion", later) == R("{b}"), later
        assert closed.relation("slice_onion", "mince_garlic") == FULL

    def test_coverage(self):
        assert phenomena_coverage(lutheran()) == frozenset({
            PhenomenonTag.PRECISE_QUANTITATIVE_DURATION,
            PhenomenonTag.QUALITATIVE_DURATION,
            PhenomenonTag.TOTAL_ORDER,
            PhenomenonTag.PARTIAL_ORDER,
            PhenomenonTag.SIMULTANEITY,
        })

    def test_deterministic(self):
        a = encode_recipe(lutheran())
        b = encode_recipe(lutheran())
        assert [l for l, _ in a] == [l for l, _ in b]
        assert all(x == y for (_, x), (_, y) in zip(a, b))


class TestSmallCases:
    def test_single_step(self):
        r = Recipe("t", steps=(ActionNode("only", "stir"),))
        (label, net), = encode_recipe(r)
        assert label == "base"
        assert net.intervals == ("only",)
        assert not hybrid_close(net).inconsistent

    def test_text_order_chain_closure(self):
        r = Recipe("t", steps=tuple(
            ActionNode(f"s{i}", "do") for i in range(1, 5)))
        (_, net), = encode_recipe(r)
        closed = hybrid_close(net)
        for i in range(1, 4):
            assert closed.relation(f"s{i + 1}", f"s{i}") == R("{bi,mi}")
        assert closed.relation("s3", "s1") == R("{bi}")
        assert closed.relation("s4", "s1") == R("{bi}")
        assert closed.relation("s4", "s2") == R("{bi}")

    def test_meanwhile_first_step_rejected(self):
        r = Recipe("t", steps=(ActionNode("a", "x", meanwhile=True),
                               ActionNode("b", "y")))
        with pytest.raises(ValueError):
            encode_recipe(r)

    def test_contradictory_explicit_relations(self):
        r = Recipe("t", steps=(ActionNode("a", "x"), ActionNode("b", "y")),
                   relations=(("a", R("{b}"), "b"), ("b", R("{b}"), "a")))
        with pytest.raises(ValueError):
            encode_recipe(r)

    def test_explicit_relation_overrides_text_order(self):
        r = Recipe("t", steps=(ActionNode("a", "x"), ActionNode("b", "y")),
                   relations=(("b", R("{d}"), "a"),))
        (_, net), = encode_recipe(r)
        assert net.relation("b", "a") == R("{d}")

    def test_removing_preliminary_leaves_step_cells_alone(self):
        full = lutheran()
        trimmed = Recipe(
            title=full.title,
            preliminaries=full.preliminaries[1:],
            steps=full.steps,
            states=full.states,
            timers=full.timers,
            relations=full.relations,
            markers=full.markers,
            branches=full.branches,
            durations=full.durations,
            until_links=full.until_links,
            last_links=full.last_links,
        )
        (_, net_full), = encode_recipe(full)
        (_, net_trim), = encode_recipe(trimmed)
        c_full = hybrid_close(net_full)
        c_trim = hybrid_close(net_trim)
        step_ids = [s.id for s in full.steps]
        for i, a in enumerate(step_ids):
            for b in step_ids[i + 1:]:
                assert c_full.relation(a, b) == c_trim.relation(a, b), (a, b)

    def test_timer_listed_as_a_branch_member(self):
        """A programmatic recipe may list a timer in a branch, which the
        DSL cannot write: the timer is then in that branch's scenario only."""
        r = Recipe("t", steps=(ActionNode("a", "stir"),),
                   timers=(TimerNode("tm", BoundWindow.closed(5, 10)),),
                   branches=(AlternativeBranch("x", ("tm",)),))
        assert [(label, h.intervals) for label, h in encode_recipe(r)] == [
            ("base", ("a",)), ("x", ("a", "tm"))]


class TestChilliRelish:
    def test_two_scenarios(self):
        scenarios = encode_recipe(hot_relish())
        assert [label for label, _ in scenarios] == ["base", "hot"]

    def test_base_excludes_branch(self):
        scenarios = dict(encode_recipe(hot_relish()))
        assert "add_chillis" not in scenarios["base"].intervals
        assert "add_chillis" in scenarios["hot"].intervals

    def test_branch_constraint_applies_only_when_chosen(self):
        scenarios = dict(encode_recipe(hot_relish()))
        assert scenarios["hot"].relation("add_chillis", "add_onions") == R("{s,e,si}")

    def test_sporadic_rule_and_chain_skip(self):
        scenarios = dict(encode_recipe(hot_relish()))
        for net in scenarios.values():
            assert net.relation("simmer", "stir") == R("{di}")
            # the chain passes over the sporadic action
            assert net.relation("simmer", "add_onions") == R("{bi,mi}")
            assert net.relation("stir", "add_onions") == FULL

    def test_both_scenarios_consistent(self):
        for _, net in encode_recipe(hot_relish()):
            assert not hybrid_close(net).inconsistent
            ok, _ = hybrid_atomic_consistent(net)
            assert ok

    def test_coverage(self):
        tags = phenomena_coverage(hot_relish())
        assert PhenomenonTag.IMPRECISE_QUANTITATIVE_DURATION in tags
        assert PhenomenonTag.SPORADIC_REPETITION in tags
        assert PhenomenonTag.EXCLUSIVE_DISJUNCTION in tags
        assert PhenomenonTag.SIMULTANEITY in tags
        assert PhenomenonTag.TOTAL_ORDER in tags

    def test_two_branches_give_four_scenarios(self):
        r = hot_relish()
        extra = Recipe(
            title=r.title,
            steps=r.steps + (ActionNode("garnish", "garnish"),),
            relations=r.relations,
            markers=r.markers,
            branches=r.branches + (AlternativeBranch("fancy", ("garnish",)),),
            durations=r.durations,
        )
        labels = [label for label, _ in encode_recipe(extra)]
        assert labels == ["base", "fancy", "hot", "fancy+hot"]


    def test_alt_blocks_are_bounded(self):
        """Scenarios double with each alt block; beyond 12 blocks the
        encoder refuses before deriving a constraint."""
        steps = tuple(ActionNode(f"s{k}", "stir") for k in range(MAX_ALT_BLOCKS + 2))
        branches = tuple(AlternativeBranch(f"b{k}", (f"s{k + 1}",))
                         for k in range(MAX_ALT_BLOCKS + 1))
        with pytest.raises(ScaleBoundExceeded, match="13 alt blocks exceed the bound of 12"):
            encode_recipe(Recipe("t", steps=steps, branches=branches))
        few = Recipe("t", steps=steps[:4], branches=branches[:3])
        assert len(encode_recipe(few)) == 8


class TestOtherMarkers:
    def test_alternation_carries_no_constraints(self):
        r = Recipe("t", steps=(ActionNode("noodles", "layer"),
                               ActionNode("cheese", "layer"),
                               ActionNode("bake", "bake")),
                   markers=(RepetitionMarker("noodles", "alternation", ref="cheese"),))
        (_, net), = encode_recipe(r)
        assert net.relation("noodles", "cheese") == FULL
        # alternating pair leaves the chain, bake follows nothing
        assert net.relation("bake", "noodles") == FULL
        tags = phenomena_coverage(r)
        assert PhenomenonTag.ALTERNATION in tags
        assert PhenomenonTag.TOTAL_ORDER not in tags

    def test_count_markers(self):
        base = dict(steps=(ActionNode("toss", "toss"), ActionNode("serve", "serve")),
                    states=(StateNode("golden", "golden brown"),))
        until = Recipe("t", markers=(RepetitionMarker("toss", "count", ref="golden"),),
                       **base)
        fixed = Recipe("t", markers=(RepetitionMarker("toss", "count", count=4),),
                       **base)
        assert PhenomenonTag.INDETERMINATE_REPETITION in phenomena_coverage(until)
        assert PhenomenonTag.INDETERMINATE_REPETITION not in phenomena_coverage(fixed)
        (_, net), = encode_recipe(until)
        assert net.relation("toss", "golden") == FULL

    def test_mixed_duration_model(self):
        # as the parser stores it: capped window plus the until link
        r = Recipe("t",
                   steps=(ActionNode("bake", "bake"),),
                   states=(StateNode("is_brown", "lightly browned"),),
                   durations=(("bake", BoundWindow.at_most(25)),),
                   until_links=(("bake", "is_brown"),))
        (_, net), = encode_recipe(r)
        assert net.relation("bake", "is_brown") == R("{m}")
        assert net.duration_window("bake") == BoundWindow.at_most(25)
        closed = hybrid_close(net)
        assert not closed.inconsistent
        tags = phenomena_coverage(r)
        assert PhenomenonTag.QUALITATIVE_DURATION in tags
        assert PhenomenonTag.IMPRECISE_QUANTITATIVE_DURATION in tags


def random_recipe(rng):
    """A seeded `Recipe` of 2-7 steps mixing every encoding rule: meanwhile
    steps, until states and last-of timers (some shared by two actions),
    sporadic, alternation and count markers, `alt` branches over steps
    (some holding until actions, last-of references or marker targets),
    duration windows, and explicit relations with random masks between
    any two ids, branch members, timers and states included, so that
    some pairs contradict."""
    prelims = tuple(ActionNode(f"p{i}", "prep", kind="preliminary")
                    for i in range(rng.randint(0, 2)))
    steps = tuple(ActionNode(f"s{i}", "do", meanwhile=i > 0 and rng.random() < 0.15)
                  for i in range(rng.randint(2, 7)))
    step_ids = [s.id for s in steps]
    until = [(s, f"{s}.until") for s in step_ids if rng.random() < 0.3]
    states = [StateNode(sid, "done") for _, sid in until]
    if states and rng.random() < 0.3:
        until.append((rng.choice(step_ids), rng.choice(states).id))
    if rng.random() < 0.2:
        states.append(StateNode("idle", "idle"))
    timers, last = [], []
    for s in step_ids:
        if rng.random() < 0.3:
            timers.append(TimerNode(f"{s}.timer", BoundWindow.closed(1, rng.randint(2, 30))))
            refs = [x.id for x in prelims + steps + tuple(states) if x.id != s]
            last.append((s, timers[-1].id, rng.choice(refs)))
    if last and rng.random() < 0.3:
        _, tid, ref = rng.choice(last)
        last.append((rng.choice([s for s in step_ids if s != ref]), tid, ref))
    if rng.random() < 0.2:
        timers.append(TimerNode("t", BoundWindow.closed(5, 10)))
    markers = []
    for mode in ("sporadic", "alternation"):
        if rng.random() < 0.3:
            target, ref = rng.sample(step_ids, 2)
            markers.append(RepetitionMarker(target, mode, ref=ref))
    if rng.random() < 0.2:
        markers.append(RepetitionMarker(rng.choice(step_ids), "count", count=2))
    free = rng.sample(step_ids, len(step_ids))
    branches = []
    for b in range(rng.randint(0, 3)):
        members = tuple(free.pop() for _ in range(min(len(free), rng.randint(1, 2))))
        if members:
            branches.append(AlternativeBranch(f"b{b}", members))
    ids = [x.id for x in prelims + steps + tuple(states) + tuple(timers)]
    relations = [(*rng.sample(ids, 2), rng.randrange(1, FULL.mask + 1))
                 for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.3:
        i = rng.randrange(len(step_ids) - 1)
        relations.append((step_ids[i], step_ids[i + 1], rng.randrange(1, FULL.mask + 1)))
    durations = [(s, BoundWindow.closed(1, rng.randint(1, 20))) for s in step_ids
                 if rng.random() < 0.3]
    return Recipe("random", prelims, steps, tuple(states), tuple(timers),
                  tuple((a, Relation(m), b) for a, b, m in relations), tuple(markers),
                  tuple(branches), tuple(durations), tuple(until), tuple(last))


def _features(r):
    members = {m for br in r.branches for m in br.members}
    timers, states = {t.id for t in r.timers}, {s.id for s in r.states}
    mentioned = {x for a, _, b in r.relations for x in (a, b)}
    return {
        "last-of reference in a branch": any(ref in members for _, _, ref in r.last_links),
        "until action in a branch": any(a in members for a, _ in r.until_links),
        "marker target in a branch": any(m.target in members for m in r.markers),
        "relation on a branch member": bool(mentioned & members),
        "relation on a timer": bool(mentioned & timers),
        "relation on a state": bool(mentioned & states),
        "meanwhile step": any(s.meanwhile for s in r.steps),
        "three branches": len(r.branches) == 3,
    }


class TestEncoderAgainstPerScenarioOracle:
    """`encode_recipe` derives the constraints once and filters them per
    scenario; `oracles.per_scenario_encode_recipe` derives and checks
    them again in every scenario."""

    def test_random_recipes(self):
        rng = random.Random(1)
        seen = Counter()
        for _ in range(800):
            r = random_recipe(rng)
            seen.update(k for k, v in _features(r).items() if v)
            try:
                want = per_scenario_encode_recipe(r)
            except Exception as exc:
                want = exc
            try:
                got = encode_recipe(r)
            except Exception as exc:
                got = exc
            if isinstance(want, Exception):
                assert type(got) is type(want), (r, want)
                pairs = len(contradictory_pairs(r))
                seen[f"contradictory pairs: {min(pairs, 2)}"] += 1
                if pairs <= 1:
                    assert str(got) == str(want)
                continue
            seen["encoded"] += 1
            assert [label for label, _ in got] == [label for label, _ in want]
            for (label, g), (_, w) in zip(got, want):
                assert g.intervals == w.intervals, (r, label)
                assert g.qcn._matrix == w.qcn._matrix, (r, label)
                assert g.stp == w.stp, (r, label)
        for feature in list(_features(lutheran())) + [
                "contradictory pairs: 1", "contradictory pairs: 2", "encoded"]:
            assert seen[feature] >= 10, (feature, seen)
