import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chronotext import allen, hybrid, metric
from chronotext.allen import (
    FULL,
    FULL_MASK,
    QCN,
    Relation,
    atomic_consistent,
    close,
)
from chronotext.adaptation import parse_knowledge, revise
from chronotext.hybrid import (
    HybridNetwork,
    format_hybrid,
    hybrid_atomic_consistent,
    hybrid_close,
)
from chronotext.annotation import parse_recipe_dsl
from chronotext.metric import STP, BoundWindow, POSITIVE, end_of, start_of
from chronotext.recipe import _scenario_builder, encode_recipe

import oracles
import recipes
from oracles import (
    descend_hybrid_atomic_consistent,
    every_cell_hybrid_close,
    object_format_hybrid,
    full_queue_hybrid_atomic_consistent,
    full_queue_hybrid_close,
    graft,
    overlay_hybrid_close,
    random_window,
)


F = Fraction
R = Relation.parse
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestBuild:
    def test_linkage_present(self):
        h = HybridNetwork.build(["a", "b"])
        closed = hybrid_close(h)
        assert closed.duration_window("a") == POSITIVE

    def test_missing_endpoints_rejected(self):
        qcn = QCN.build(["a"])
        stp = STP.build(["a.start"])
        with pytest.raises(ValueError):
            HybridNetwork(qcn, stp)

    def test_missing_start_rejected_naming_the_interval(self):
        qcn = QCN.build(["a", "b"])
        stp = STP.build(["a.start", "a.end", "b.end"])
        with pytest.raises(ValueError, match="interval 'b' lacks endpoints"):
            HybridNetwork(qcn, stp)

    def test_internal_constructions_skip_the_endpoint_check(self, monkeypatch):
        calls = []
        real = STP.has_point
        monkeypatch.setattr(STP, "has_point", lambda stp, p: calls.append(p) or real(stp, p))
        h = HybridNetwork.build(["a", "b", "c"], [("a", R("{b,m}"), "b"), ("b", R("{o,d}"), "c")],
                                [("a.start", "c.end", BoundWindow.closed(1, 9)),
                                 ("b.start", "b.end", BoundWindow.closed(2, 3))])
        closed = hybrid_close(h)
        assert hybrid_atomic_consistent(closed)[0]
        assert closed.restricted(["a", "c"]).intervals == ("a", "c")
        assert calls == []

    def test_accessors(self):
        h = HybridNetwork.build(
            ["a", "b"],
            allen_constraints=[("a", R("{b}"), "b")],
            metric_constraints=[("a.end", "b.start", BoundWindow.closed(5, 10))],
        )
        assert h.relation("a", "b") == R("{b}")
        assert h.relation("b", "a") == R("{bi}")
        assert h.point_window("a.end", "b.start") == BoundWindow.closed(5, 10)

    def test_anon_points_carried(self):
        h = HybridNetwork.build(["a"], anon_points=["x0"],
                                metric_constraints=[("a.end", "x0", BoundWindow.exact(3))])
        closed = hybrid_close(h)
        assert closed.point_window("a.end", "x0") == BoundWindow.exact(3)


class TestHybridClose:
    def test_state_meets_with_duration_cap(self):
        # the action meets its result state and lasts at most 25 minutes
        h = HybridNetwork.build(
            ["bake", "is_brown"],
            allen_constraints=[("bake", R("{m}"), "is_brown")],
            metric_constraints=[("bake.start", "bake.end", BoundWindow.at_most(25))],
        )
        closed = hybrid_close(h)
        assert not closed.inconsistent
        assert closed.point_window("bake.end", "is_brown.start") == BoundWindow.exact(0)
        assert closed.duration_window("bake") == BoundWindow.at_most(25)

    def test_fixed_timer_against_shorter_duration(self):
        h = HybridNetwork.build(
            ["timer", "bake"],
            allen_constraints=[("timer", R("{e}"), "bake")],
            metric_constraints=[
                ("timer.start", "timer.end", BoundWindow.exact(60)),
                ("bake.start", "bake.end", BoundWindow.closed(10, 20)),
            ],
        )
        assert hybrid_close(h).inconsistent

    def test_metric_layer_refines_relations(self):
        # endpoint equalities force "finishes" without any Allen input
        h = HybridNetwork.build(
            ["t", "bake"],
            metric_constraints=[
                ("bake.start", "t.start", BoundWindow.exact(45)),
                ("bake.end", "t.end", BoundWindow.exact(0)),
                ("bake.start", "bake.end", BoundWindow.exact(60)),
            ],
        )
        closed = hybrid_close(h)
        assert not closed.inconsistent
        assert closed.relation("t", "bake") == R("{f}")

    def test_qualitative_layer_tightens_windows(self):
        h = HybridNetwork.build(
            ["a", "b"],
            allen_constraints=[("a", R("{m}"), "b")],
        )
        closed = hybrid_close(h)
        assert closed.point_window("a.end", "b.start") == BoundWindow.exact(0)

    def test_idempotent(self):
        nets = [
            HybridNetwork.build(["a", "b"], [("a", R("{b,m,o}"), "b")]),
            HybridNetwork.build(
                ["x", "y", "z"],
                [("x", R("{m}"), "y"), ("y", R("{b,m}"), "z")],
                [("x.start", "x.end", BoundWindow.closed(1, 2))],
            ),
        ]
        for h in nets:
            once = hybrid_close(h)
            assert hybrid_close(once) == once


masks = st.integers(1, FULL_MASK).map(Relation)


@st.composite
def allen_only_hybrids(draw):
    n = draw(st.integers(2, 4))
    ids = [f"i{k}" for k in range(n)]
    cons = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                cons.append((ids[a], draw(masks), ids[b]))
    return HybridNetwork.build(ids, cons)


class TestAllenOnlyReduction:
    @settings(max_examples=60, deadline=None)
    @given(allen_only_hybrids())
    def test_close_reduces_to_qualitative_closure(self, h):
        assert hybrid_close(h).qcn == close(h.qcn)

    @settings(max_examples=40, deadline=None)
    @given(allen_only_hybrids())
    def test_atomic_search_matches_qualitative_search(self, h):
        ok_h, wit_h = hybrid_atomic_consistent(h)
        ok_q, wit_q = atomic_consistent(h.qcn)
        assert ok_h == ok_q
        if ok_h:
            assert wit_h.qcn == wit_q


class TestHybridAtomicConsistent:
    def test_metric_prunes_first_candidate(self):
        # s requires the left interval to be shorter; equal fixed durations
        # leave only e
        h = HybridNetwork.build(
            ["a", "b"],
            allen_constraints=[("a", R("{s,e}"), "b")],
            metric_constraints=[
                ("a.start", "a.end", BoundWindow.exact(10)),
                ("b.start", "b.end", BoundWindow.exact(10)),
            ],
        )
        ok, witness = hybrid_atomic_consistent(h)
        assert ok
        assert witness.relation("a", "b") == R("{e}")
        assert witness.qcn == close(witness.qcn)

    def test_no_scenario_survives_metric(self):
        h = HybridNetwork.build(
            ["a", "b"],
            allen_constraints=[("a", R("{s}"), "b")],
            metric_constraints=[
                ("a.start", "a.end", BoundWindow.exact(10)),
                ("b.start", "b.end", BoundWindow.exact(10)),
            ],
        )
        ok, witness = hybrid_atomic_consistent(h)
        assert not ok and witness is None

    def test_witness_scenario_is_atomic_and_refines_input(self):
        h = HybridNetwork.build(
            ["x", "y", "z"],
            allen_constraints=[("x", R("{b,m}"), "y"), ("y", R("{b,m,o}"), "z")],
        )
        ok, witness = hybrid_atomic_consistent(h)
        assert ok
        closed = hybrid_close(h)
        ids = witness.intervals
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                assert len(witness.relation(a, b)) == 1
                assert witness.relation(a, b) <= closed.relation(a, b)


class TestRestriction:
    def test_restricted_drops_interval_and_its_constraints(self):
        h = HybridNetwork.build(
            ["a", "b", "c"],
            allen_constraints=[("a", R("{b}"), "b"), ("b", R("{b}"), "c")],
            metric_constraints=[("a.end", "b.start", BoundWindow.exact(5))],
        )
        cut = h.restricted(["a", "c"])
        assert cut.intervals == ("a", "c")
        assert cut.relation("a", "c") == FULL
        closed = hybrid_close(cut)
        assert closed.point_window("a.end", "c.start") == BoundWindow(None, None)


def random_hybrid_input(rng):
    """The intervals, Allen constraints, metric constraints and anonymous
    points of a random network, as `HybridNetwork.build` takes them."""
    ids = [f"i{k}" for k in range(rng.randint(2, 5))]
    allen = [(a, Relation(rng.randint(1, FULL_MASK)), b)
             for ai, a in enumerate(ids) for b in ids[ai + 1:]
             if rng.random() < 0.5]
    points = [p for i in ids for p in (start_of(i), end_of(i))]
    metric = [(*rng.sample(points, 2), random_window(rng, 10))
              for _ in range(rng.randint(0, len(ids)))]
    return ids, allen, metric, []


def random_hybrid(rng):
    return HybridNetwork.build(*random_hybrid_input(rng))


class TestCloseAgainstOverlay:
    def test_random_hybrids(self):
        """The pruned integer read-back closes every network exactly as
        the tuple Floyd-Warshall with the 13-overlay read-back on every
        pair does."""
        rng = random.Random(31)
        verdicts = set()
        for _ in range(150):
            h = random_hybrid(rng)
            closed, ref = hybrid_close(h), overlay_hybrid_close(h)
            assert format_hybrid(closed) == format_hybrid(ref)
            verdicts.add(closed.inconsistent)
            if not closed.inconsistent:
                assert closed == ref
        assert verdicts == {True, False}


ORDERINGS = [R(t) for t in ("{b,bi}", "{b,m,bi,mi}", "{b,m,bi}", "{b,bi,o,oi}", "{b,bi,d,di}")]


def random_schedule_input(rng):
    """A small disjunctive schedule: mostly order disjunctions, bounded
    durations, and every interval inside [0, horizon] after an anonymous
    origin.  Pairwise read-back often leaves atoms no joint scenario
    allows, so the search backtracks at leaves and sometimes fails."""
    ids = [f"i{k}" for k in range(rng.randint(3, 4))]
    allen = [(a, rng.choice(ORDERINGS) if rng.random() < 0.7
              else Relation(rng.randint(1, FULL_MASK)), b)
             for ai, a in enumerate(ids) for b in ids[ai + 1:] if rng.random() < 0.8]
    horizon = rng.randint(6, 14)
    metric = []
    for i in ids:
        metric += [(start_of(i), end_of(i), BoundWindow.closed(rng.randint(1, 3), rng.randint(3, 5))),
                   ("origin", start_of(i), BoundWindow.above(0, strict=False)),
                   ("origin", end_of(i), BoundWindow.at_most(horizon, lo_strict=False))]
    return ids, allen, metric, ["origin"]


def random_schedule(rng):
    return HybridNetwork.build(*random_schedule_input(rng))


class TestSearchAgainstRecursion:
    def test_random_hybrids(self):
        """The shared scenario search gives the verdict and witness of the
        earlier hybrid recursion over validated networks."""
        rng = random.Random(47)
        seen = set()
        for make in [random_hybrid] * 150 + [random_schedule] * 150:
            h = make(rng)
            got, ref = hybrid_atomic_consistent(h), descend_hybrid_atomic_consistent(h)
            assert got == ref
            seen.add((hybrid_close(h).inconsistent, got[0]))
        # closure refutes some, the search refutes some that closure passes
        assert seen == {(True, False), (False, False), (False, True)}


def count_closes(monkeypatch, module):
    """Route `module.close` through a counter; returns the list of calls."""
    calls = []
    real = module.close
    monkeypatch.setattr(module, "close", lambda net, **kw: calls.append(kw) or real(net, **kw))
    return calls


class TestIncrementalAgainstFullQueue:
    def test_random_hybrids(self, monkeypatch):
        """Closure rounds after the first propagate from the cells the
        metric layer tightened, and search nodes from the cell they fix;
        both agree with closing every pair each time."""
        rounds = count_closes(monkeypatch, hybrid)
        rng = random.Random(53)
        seen, later_rounds = set(), 0
        for make in [random_hybrid] * 150 + [random_schedule] * 150:
            h = make(rng)
            rounds.clear()
            closed = hybrid_close(h)
            later_rounds += sum(1 for kw in rounds if kw["changed"])
            ref = full_queue_hybrid_close(h)
            assert format_hybrid(closed) == format_hybrid(ref)
            if not closed.inconsistent:
                assert closed == ref
            got = hybrid_atomic_consistent(h)
            assert got == full_queue_hybrid_atomic_consistent(h)
            seen.add((closed.inconsistent, got[0]))
        assert seen == {(True, False), (False, False), (False, True)}
        assert later_rounds >= 100


class TestFormatHybrid:
    @pytest.mark.parametrize("scale", [F(1), F(1, 6)])
    def test_duration_lines_match_decoded_windows(self, scale):
        """Only a duration other than (0, inf) prints, at every scale: the
        skip on its encoded entries agrees with decoding every window.  The
        metric layer here has no linkage, so the constructor conjoins it and
        [0, inf) becomes (0, inf)."""
        windows = {"a": POSITIVE, "b": BoundWindow.above(0, strict=False),
                   "c": BoundWindow.at_most(5), "d": BoundWindow.above(2),
                   "e": BoundWindow.above(scale)}
        stp = STP.build([p for i in windows for p in (start_of(i), end_of(i))],
                        [(start_of(i), end_of(i), w) for i, w in windows.items()])
        assert stp._d == scale.denominator
        h = HybridNetwork(QCN.build(list(windows), [("a", R("{b,m}"), "b")]), stp)
        text = format_hybrid(h)
        assert text == object_format_hybrid(h)
        assert [ln for ln in text.splitlines() if ln.startswith("duration")] == [
            "duration c in (0, 5]", "duration d in (2, inf)",
            f"duration e in ({scale}, inf)"]

    def test_random_hybrids_match_decoded_windows(self):
        rng = random.Random(79)
        for make in [random_hybrid, random_schedule] * 100:
            closed = hybrid_close(make(rng))
            assert format_hybrid(closed) == object_format_hybrid(closed)


MIXED = [R(t) for t in ("{b,m}", "{b,m,o}", "{m,o,s}", "{b,bi}", "{o,d,s}", "{b,m,bi,mi}",
                         "{s,d,f,e}")]


def random_rounds(rng):
    """Four to six intervals under mixed convex and non-convex relations,
    bounded durations and a few windows between endpoints: about two in
    five take two or more closure rounds, and one in fifty three."""
    ids = [f"i{k}" for k in range(rng.randint(4, 6))]
    allen = [(a, rng.choice(MIXED) if rng.random() < 0.7 else Relation(rng.randint(1, FULL_MASK)), b)
             for ai, a in enumerate(ids) for b in ids[ai + 1:] if rng.random() < 0.5]
    metric = [(start_of(i), end_of(i), BoundWindow.closed(rng.randint(1, 4), rng.randint(4, 8)))
              for i in ids if rng.random() < 0.8]
    points = [p for i in ids for p in (start_of(i), end_of(i))]
    metric += [(*rng.sample(points, 2), random_window(rng, 8)) for _ in range(rng.randint(0, 3))]
    return HybridNetwork.build(ids, allen, metric)


class TestRoundSkip:
    def test_matches_reading_every_cell_each_round(self, monkeypatch):
        """On networks that take two or more rounds, reading back only the
        cells with an endpoint whose metric row moved gives the closure
        that reads back every non-atomic cell in every round, with fewer
        read-backs; some networks need a read-back after round 1 to change
        a cell (three rounds), so skipping every later read-back differs."""
        rounds = count_closes(monkeypatch, hybrid)
        reads = Counter()
        for module in (hybrid, oracles):
            real = module.metric_to_allen
            monkeypatch.setattr(module, "metric_to_allen",
                                lambda *a, m=module.__name__, f=real: reads.update([m]) or f(*a))
        rng = random.Random(73)
        depths, totals = Counter(), Counter()
        for _ in range(1000):
            h = random_rounds(rng)
            rounds.clear()
            reads.clear()
            closed = hybrid_close(h)
            if len(rounds) < 2:
                continue
            depths[len(rounds)] += 1
            ref = every_cell_hybrid_close(h)
            assert format_hybrid(closed) == format_hybrid(ref)
            assert closed == ref
            assert reads["chronotext.hybrid"] <= reads["oracles"]
            totals += reads
        assert depths[2] >= 300 and depths[3] >= 5
        assert totals["chronotext.hybrid"] < 0.9 * totals["oracles"]


class TestWorkCounts:
    def test_close_calls_per_search(self, monkeypatch):
        """`hybrid_close` calls `close` once per round, and each runs the
        propagation core once; the scenario search runs the core in place
        once per node.  Their numbers on a fixed network are pinned: 2
        rounds plus 89 nodes.  The bench tracer's
        `hybrid.hybrid_atomic_consistent.nodes` ratio counts the `close`
        calls made directly under that span, so it now counts only round
        closes, and those sit under the traced `hybrid_close`: it reads 0."""
        rounds = count_closes(monkeypatch, hybrid)
        propagations = []
        real = allen._propagate
        monkeypatch.setattr(allen, "_propagate", lambda *a: propagations.append(a[2]) or real(*a))
        ok, witness = hybrid_atomic_consistent(random_schedule(random.Random(0)))
        assert ok and witness is not None
        assert (len(rounds), len(propagations) - len(rounds)) == (2, 89)

    def test_no_bound_encoding_after_build(self, monkeypatch):
        """Closing and searching a built network export atomic cells as
        encoded edges and read the stored integer matrix back: the bound
        encoder does not run, and the numbers of `stp_close` and
        `metric_to_allen` calls are pinned."""
        h = random_schedule(random.Random(0))
        calls = Counter()

        def count(module, name):
            real = getattr(metric, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted, raising=False)

        for name in ("stp_close", "metric_to_allen"):
            count(hybrid, name)
        count(metric, "_window_edges")
        hybrid_close(h)
        assert calls == {"stp_close": 2, "metric_to_allen": 6}
        calls.clear()
        ok, witness = hybrid_atomic_consistent(h)
        assert ok and witness is not None
        assert calls == {"stp_close": 66, "metric_to_allen": 6}


def with_cell(h, a, b, rel):
    """`h` with its Allen cell (a, b) replaced by `rel`."""
    return HybridNetwork(h.qcn.with_cell(a, b, rel), h.stp)


class TestFromClosedNetwork:
    def test_tightened_cell_matches_rebuilt_network(self, full_closes):
        """Closing a closed network tightened at one cell, from that cell
        and the minimal STP, reaches the closure of the input tightened
        at the same cell, and the search from it finds the same witness;
        a closed network's search closes no STP through every point."""
        runs = full_closes
        rng = random.Random(97)
        seen = set()
        for make in [random_hybrid] * 120 + [random_schedule] * 120:
            h = make(rng)
            closed = hybrid_close(h)
            if closed.inconsistent:
                continue
            ids = closed.intervals
            ai, bi = sorted(rng.sample(range(len(ids)), 2))
            a, b = ids[ai], ids[bi]
            r = Relation(rng.randint(1, FULL_MASK))
            tightened = with_cell(closed, a, b, closed.relation(a, b) & r)
            rebuilt = with_cell(h, a, b, h.relation(a, b) & r)
            got, ref = hybrid_close(tightened, changed=[(ai, bi)]), hybrid_close(rebuilt)
            assert got.inconsistent == ref.inconsistent
            if not ref.inconsistent:
                assert got == ref
            runs.clear()
            verdict = hybrid_atomic_consistent(tightened, changed=[(ai, bi)])
            assert runs == []
            assert verdict == hybrid_atomic_consistent(rebuilt)
            assert verdict.closed.inconsistent == ref.inconsistent
            seen.add((got.inconsistent, verdict[0]))
        assert {(True, False), (False, True)} <= seen

    def test_fresh_network_runs_one_floyd_warshall(self, full_closes):
        """A built network's first closure round runs Floyd-Warshall
        through every point; later rounds and every search leaf extend
        its minimal STP."""
        runs = full_closes
        rng = random.Random(101)
        for _ in range(150):
            runs.clear()
            ok, _ = hybrid_atomic_consistent(random_schedule(rng))
            assert len(runs) <= 1


def random_three_intervals(rng):
    """Three intervals, 60 % of the cells a random nonempty mask, and one
    to four integer windows between endpoints, each side unbounded with
    probability 0.25 and strict with probability 0.5."""
    ids = ["x", "y", "z"]
    allen = [(a, Relation(rng.randint(1, FULL_MASK)), b)
             for ai, a in enumerate(ids) for b in ids[ai + 1:] if rng.random() < 0.6]
    points = [p for i in ids for p in (start_of(i), end_of(i))]
    metric = []
    for _ in range(rng.randint(1, 4)):
        lo, hi = (rng.randint(-6, 6) if rng.random() < 0.75 else None for _ in "lh")
        if lo is not None and hi is not None and lo >= hi:
            lo, hi = hi, lo
        window = (BoundWindow.exact(lo) if lo is not None and lo == hi
                  else BoundWindow(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        metric.append((*rng.sample(points, 2), window))
    return HybridNetwork.build(ids, allen, metric)


def window_inside(exact, reported):
    """Whether the (lo, lo_strict, hi, hi_strict) window `exact` lies
    inside the BoundWindow `reported`; None is unbounded."""
    lo, lo_strict, hi, hi_strict = exact
    if reported.lo is not None and (lo is None or lo < reported.lo or (
            lo == reported.lo and reported.lo_strict and not lo_strict)):
        return False
    return reported.hi is None or hi is not None and (hi < reported.hi or (
        hi == reported.hi and (hi_strict or not reported.hi_strict)))


class TestExactOracle:
    """`oracles.exact_hybrid` decides a network by endpoint orders; the
    closure and the search are sound against it."""

    def test_small_cases(self):
        h = HybridNetwork.build(["x", "y"], [("x", R("{m}"), "y")],
                                [("x.start", "x.end", BoundWindow.closed(2, 3))])
        ok, cells, windows = oracles.exact_hybrid(h)
        assert ok and cells == {("x", "y"): R("{m}").mask}
        assert windows["x.start", "y.start"] == (2, False, 3, False)
        assert windows["x.end", "y.end"] == (0, True, None, True)
        ok, _, _ = oracles.exact_hybrid(HybridNetwork(h.qcn, oracles.conjoined(
            h.stp, [("x.start", "y.start", BoundWindow(None, 2, hi_strict=True))])))
        assert not ok

    def test_random_three_interval_hybrids_are_sound(self):
        """When the oracle finds a realization, `hybrid_close` says
        consistent and every exact cell and window lies inside the reported
        one; the atomic search's verdict is the oracle's."""
        rng = random.Random(113)
        verdicts = Counter()
        for _ in range(100):
            h = random_three_intervals(rng)
            ok, cells, windows = oracles.exact_hybrid(h)
            assert hybrid_atomic_consistent(h)[0] == ok
            verdicts[ok] += 1
            if not ok:
                continue
            closed = hybrid_close(h)
            assert not closed.inconsistent
            for (a, b), mask in cells.items():
                assert mask and not mask & ~closed.relation(a, b).mask
            for (p, q), w in windows.items():
                assert window_inside(w, closed.point_window(p, q)), (p, q, w)
        assert verdicts[True] >= 50 and verdicts[False] >= 20


def raw_input(h):
    """Constraint lists that rebuild the unclosed network `h`: its Allen
    cells above the diagonal and its window on every point pair."""
    ids, points = h.intervals, h.stp.points
    allen = [(a, h.relation(a, b), b) for x, a in enumerate(ids) for b in ids[x + 1:]]
    metric = [(p, q, h.point_window(p, q)) for x, p in enumerate(points) for q in points[x + 1:]]
    return ids, allen, metric, list(h.anon_points)


def metamorphic_inputs():
    """300 random networks, then every scenario of three recipe fixtures,
    as the (intervals, Allen, metric, anonymous points) lists they are
    built from."""
    rng = random.Random(5)
    for make in [random_hybrid_input] * 150 + [random_schedule_input] * 150:
        yield make(rng)
    for name in ("lutheran.rcp", "hot_relish.rcp", "cyclic.rcp"):
        for _, h in encode_recipe(parse_recipe_dsl((FIXTURES / name).read_text())):
            yield raw_input(h)


class TestMetamorphic:
    """Two runs of the package that must agree at any size, with no
    oracle: the closure is the one fixpoint of sound, monotone
    tightenings, so neither the order of its input nor a constraint that
    input already implies can change it."""

    def test_order_of_intervals_and_constraints(self):
        """Building from the same lists in another order gives the same
        closed cells and windows and the same search verdict."""
        rng = random.Random(7)
        verdicts = Counter()
        for ids, allen, metric, anon in metamorphic_inputs():
            h = HybridNetwork.build(ids, allen, metric, anon)
            other = HybridNetwork.build(*[rng.sample(x, len(x)) for x in (ids, allen, metric, anon)])
            closed, closed_other = hybrid_close(h), hybrid_close(other)
            assert closed.inconsistent == closed_other.inconsistent
            if not closed.inconsistent:
                assert all(closed.relation(a, b) == closed_other.relation(a, b)
                           for a in ids for b in ids)
                points = closed.stp.points
                assert all(closed.point_window(p, q) == closed_other.point_window(p, q)
                           for p in points for q in points)
            verdict = hybrid_atomic_consistent(h)[0]
            assert hybrid_atomic_consistent(other)[0] == verdict
            verdicts[closed.inconsistent, verdict] += 1
        assert set(verdicts) == {(True, False), (False, False), (False, True)}

    def test_implied_addition(self):
        """Conjoining one closed cell, or one closed window, into the
        input re-closes to the same network."""
        rng = random.Random(11)
        checked = 0
        for ids, allen, metric, anon in metamorphic_inputs():
            closed = hybrid_close(HybridNetwork.build(ids, allen, metric, anon))
            if closed.inconsistent:
                continue
            a, b = rng.sample(ids, 2)
            p, q = rng.sample(closed.stp.points, 2)
            cell = (a, closed.relation(a, b), b)
            window = (p, q, closed.point_window(p, q))
            assert hybrid_close(HybridNetwork.build(ids, allen + [cell], metric, anon)) == closed
            assert hybrid_close(HybridNetwork.build(ids, allen, metric + [window], anon)) == closed
            checked += 1
        assert checked >= 150

    def test_unit_scaling(self):
        """Multiplying every input window by 60, as writing each `min` as
        `hour` does, multiplies every closed window by 60 and changes no
        cell and no search verdict.  The windows are conjoined one at a
        time, each step rebuilding the STP from its decoded bounds at a
        new common denominator, and 60 clears the denominators 2, 3 and
        5 that the minutes need."""
        verdicts = Counter()
        for ids, allen, metric, anon in metamorphic_inputs():
            h = one_window_at_a_time(ids, allen, metric, anon)
            hours = one_window_at_a_time(ids, allen, [(p, q, times_60(w)) for p, q, w in metric], anon)
            assert_times_60(hybrid_close(h), hybrid_close(hours))
            verdict = hybrid_atomic_consistent(h)[0]
            assert hybrid_atomic_consistent(hours)[0] == verdict
            verdicts[verdict] += 1
        assert verdicts[True] >= 250 and verdicts[False] >= 20

    @pytest.mark.parametrize("name", ["lutheran.rcp", "hot_relish.rcp"])
    def test_minutes_written_as_hours(self, name):
        text = (FIXTURES / name).read_text()
        hours = re.sub(r"\bmin\b", "hour", text)
        assert hours != text
        scenarios = encode_recipe(parse_recipe_dsl(text))
        scenarios_in_hours = encode_recipe(parse_recipe_dsl(hours))
        assert [label for label, _ in scenarios] == [label for label, _ in scenarios_in_hours]
        for (_, h), (_, h_hours) in zip(scenarios, scenarios_in_hours):
            closed = hybrid_close(h)
            assert not closed.inconsistent
            assert_times_60(closed, hybrid_close(h_hours))


def one_window_at_a_time(ids, allen, metric, anon):
    """The network of the lists through the public constructor, its STP
    built by conjoining one window after the other (`oracles.conjoined`)."""
    stp = STP.build([p for i in ids for p in (start_of(i), end_of(i))] + anon)
    for window in metric:
        stp = oracles.conjoined(stp, [window])
    return HybridNetwork(QCN.build(ids, allen), stp)


def times_60(w):
    return BoundWindow(None if w.lo is None else w.lo * 60, None if w.hi is None else w.hi * 60,
                       w.lo_strict, w.hi_strict)


def assert_times_60(closed, closed_in_hours):
    """The same verdict and cells, and every window multiplied by 60."""
    assert closed.inconsistent == closed_in_hours.inconsistent
    if not closed.inconsistent:
        assert closed.qcn == closed_in_hours.qcn
        points = closed.stp.points
        assert closed_in_hours.stp.points == points
        assert all(closed_in_hours.point_window(p, q) == times_60(closed.point_window(p, q))
                   for p in points for q in points)


SIZES = (6, 6, 7, 8, 9, 10, 11, 12, 16, 20, 24, 28, 32, 40)


def sized_recipes():
    """A generated recipe text of each size in `SIZES`."""
    rng = random.Random(41)
    return [recipes.sized_recipe(rng, steps) for steps in SIZES]


def sized_scenarios():
    """Every scenario of `sized_recipes()`, as the lists `encode_recipe`
    builds it from."""
    for text in sized_recipes():
        r = parse_recipe_dsl(text)
        scenario = _scenario_builder(r)
        for chosen in ((), *((br.id,) for br in r.branches)):
            yield scenario(chosen)


def point_pairs(h):
    """Each pair of `h`'s points once: a window read the other way round
    is the negation of the same two entries."""
    points = h.stp.points
    return [(p, q) for x, p in enumerate(points) for q in points[x + 1:]]


class TestMetamorphicAtRecipeSizes:
    """`TestMetamorphic`'s relations R2-R4 on every scenario of generated
    recipes of 6 to 40 steps, beyond the reach of the semantic oracles."""

    def test_unit_scaling(self):
        """R2: writing every `min` as `hour` multiplies every window by 60
        and leaves every cell and verdict as it was."""
        verdicts = Counter()
        for text in sized_recipes():
            hours = re.sub(r"\bmin\b", "hour", text)
            assert hours != text
            scenarios = encode_recipe(parse_recipe_dsl(text))
            in_hours = encode_recipe(parse_recipe_dsl(hours))
            assert [label for label, _ in scenarios] == [label for label, _ in in_hours]
            for (_, h), (_, h_hours) in zip(scenarios, in_hours):
                closed, closed_in_hours = hybrid_close(h), hybrid_close(h_hours)
                assert closed.inconsistent == closed_in_hours.inconsistent
                if not closed.inconsistent:
                    assert closed.qcn == closed_in_hours.qcn
                    assert all(closed_in_hours.point_window(p, q) == times_60(closed.point_window(p, q))
                               for p, q in point_pairs(closed))
                verdicts[closed.inconsistent] += 1
        assert verdicts[False] >= 15 and verdicts[True] >= 2, verdicts

    def test_order_of_intervals_and_constraints(self):
        """R3: the scenario's lists in another order close to the same
        cells and windows; the search verdict is compared up to 14
        intervals, where the search stays cheap."""
        rng = random.Random(43)
        searched = Counter()
        for lists in sized_scenarios():
            ids, h = lists[0], HybridNetwork.build(*lists)
            closed = hybrid_close(h)
            other = HybridNetwork.build(*[rng.sample(x, len(x)) for x in lists])
            closed_other = hybrid_close(other)
            assert closed.inconsistent == closed_other.inconsistent
            if not closed.inconsistent:
                assert all(closed.relation(a, b) == closed_other.relation(a, b)
                           for a in ids for b in ids)
                assert all(closed.point_window(p, q) == closed_other.point_window(p, q)
                           for p, q in point_pairs(closed))
            if len(ids) <= 14:
                verdict = hybrid_atomic_consistent(h)[0]
                assert hybrid_atomic_consistent(other)[0] == verdict
                searched[verdict] += 1
        assert searched[True] >= 8 and searched[False] >= 2, searched

    def test_implied_addition(self):
        """R4: conjoining the closed cells, or a closed window, into the
        scenario's lists re-closes to the same network.  All the cells go
        in at once, which also catches a closure that stops before its
        fixpoint on these recipes, where most pairs need no second round."""
        rng = random.Random(47)
        sizes = []
        for ids, allen, metric in sized_scenarios():
            closed = hybrid_close(HybridNetwork.build(ids, allen, metric))
            if closed.inconsistent:
                continue
            cells = [(a, closed.relation(a, b), b) for x, a in enumerate(ids) for b in ids[x + 1:]]
            p, q = rng.sample(closed.stp.points, 2)
            window = (p, q, closed.point_window(p, q))
            assert hybrid_close(HybridNetwork.build(ids, allen + cells, metric)) == closed
            assert hybrid_close(HybridNetwork.build(ids, allen, metric + [window])) == closed
            sizes.append(len(ids))
        assert len(sizes) >= 15 and max(sizes) >= 40, sizes


def assert_layout(h):
    """Interval k's endpoints are STP points 2k and 2k + 1, and the stored
    entry on start - end states end - start > 0."""
    n, e = len(h.intervals), h.stp._e
    assert h.stp.points[:2 * n] == tuple(p for i in h.intervals for p in (start_of(i), end_of(i)))
    for k in range(0, 2 * n, 2):
        assert e[k + 1][k] is not None and e[k + 1][k] < 0


def adapt_fixtures():
    """The two fixture substitutions as (encoded base scenario, knowledge)."""
    for rcp, know in (("lutheran.rcp", "lentils.know"), ("hot_relish.rcp", "slow_cooker.know")):
        (_, h), *_ = encode_recipe(parse_recipe_dsl((FIXTURES / rcp).read_text()))
        yield h, parse_knowledge((FIXTURES / know).read_text())


class TestLayout:
    """Every `HybridNetwork` holds the one layout, whoever built it."""

    def test_every_returned_network(self):
        rng = random.Random(13)
        for ids, allen, metric, anon in list(metamorphic_inputs())[::3]:
            h = HybridNetwork.build(ids, allen, metric, anon)
            verdict = hybrid_atomic_consistent(h)
            for got in (h, h.restricted(rng.sample(ids, rng.randint(1, len(ids)))),
                        hybrid_close(h), verdict.closed) + ((verdict[1],) if verdict[0] else ()):
                assert_layout(got)
        for name in ("lutheran.rcp", "hot_relish.rcp", "cyclic.rcp"):
            for _, h in encode_recipe(parse_recipe_dsl((FIXTURES / name).read_text())):
                assert_layout(h)
        for h, k in adapt_fixtures():
            t = graft(h.restricted([i for i in h.intervals if i not in k.removals]), k)
            result = revise(t)
            for got in (t.network, result.revised, result.witness):
                assert_layout(got)

    def test_constructor_reorders_and_links(self):
        """The public constructor over a shuffled STP, with or without the
        start < end links, makes and closes to the network `build` makes."""
        rng = random.Random(17)
        for ids, allen, metric, anon in metamorphic_inputs():
            points = [p for i in ids for p in (start_of(i), end_of(i))] + anon
            rng.shuffle(points)
            links = [(start_of(i), end_of(i), POSITIVE) for i in ids if rng.random() < 0.5]
            h = HybridNetwork(QCN.build(ids, allen), STP.build(points, metric + links))
            assert_layout(h)
            built = HybridNetwork.build(ids, allen, metric, [p for p in points if p in anon])
            assert h == built
            assert hybrid_close(h) == hybrid_close(built)

    def test_network_in_the_layout_is_kept(self):
        closed = hybrid_close(random_schedule(random.Random(3)))
        assert closed.stp.minimal
        assert HybridNetwork(closed.qcn, closed.stp).stp is closed.stp

    def test_negative_duration_is_inconsistent(self):
        """An STP with no start < end link whose one bound makes a's start
        5 after b's, against a {b} b: the constructor conjoins the links,
        so both closure and search refute it, as they do the built network."""
        qcn = QCN.build(["a", "b"], [("a", R("{b}"), "b")])
        late = ("b.start", "a.start", BoundWindow.exact(5))
        h = HybridNetwork(qcn, STP.build(["a.start", "a.end", "b.start", "b.end"], [late]))
        built = HybridNetwork.build(["a", "b"], [("a", R("{b}"), "b")], [late])
        assert h == built
        for net in (h, built):
            assert hybrid_close(net).inconsistent
            assert format_hybrid(hybrid_close(net)) == "inconsistent\n"
            assert not hybrid_atomic_consistent(net)[0]

    def test_undeclared_point_is_anonymous(self):
        """A point of the STP that is no interval's endpoint is anonymous:
        restriction keeps it, and injection and revision run with it."""
        qcn = QCN.build(["a", "b"], [("a", R("{b}"), "b")])
        stp = STP.build(["o", "a.start", "a.end", "b.start", "b.end"],
                        [("o", "a.start", BoundWindow.exact(5))])
        h = HybridNetwork(qcn, stp)
        assert h.anon_points == ("o",)
        cut = h.restricted(["a"])
        assert cut.stp.points == ("a.start", "a.end", "o")
        assert hybrid_close(cut).point_window("o", "a.start") == BoundWindow.exact(5)
        k = parse_knowledge('knowledge "k"\nanchor a\nstep z "stir"\nrel z {b} a\n')
        t = graft(h, k)
        assert t.network.anon_points == ("o",)
        result = revise(t)
        assert result.relaxed == ()
        assert "a.start~o:soft" in result.retained
        assert result.revised.point_window("o", "a.start") == BoundWindow.exact(5)
