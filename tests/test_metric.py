import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from chronotext import metric
from chronotext.allen import ENDPOINT_SIGNS, FULL, BaseRelation, Relation
from chronotext.indu import INDURelation
from chronotext.metric import (
    MAX_TCSP_DISJUNCTIVE,
    MAX_TCSP_WINDOWS,
    POSITIVE,
    BoundWindow,
    MetricConstraint,
    STP,
    ScaleBoundExceeded,
    TCSP,
    end_of,
    format_constraint,
    format_stp,
    metric_to_allen,
    start_of,
    stp_close,
    tcsp_consistent,
)
from oracles import (
    admits,
    atom_by_definition,
    atom_signs_by_definition,
    atom_windows,
    conjoined,
    _unscaled,
    cycle_test_metric_to_allen,
    decoded,
    per_atom_cycle_tests,
    fw_metric_to_allen,
    overlay_metric_to_allen,
    per_entry_restricted,
    random_window,
    rebuild_tcsp_consistent,
    rescaling_close_with,
    stp_minimal_by_paths,
    stp_of_bounds,
    tuple_conjoin,
    tuple_shortest_paths,
    tuple_stp_close,
)


F = Fraction


class TestBoundWindow:
    def test_contains_respects_strictness(self):
        """A finite bound keeps the strictness it is given, and that is
        what the membership reads (`oracles.admits`)."""
        w = BoundWindow(F(0), F(25), lo_strict=True, hi_strict=False)
        assert (w.lo, w.hi, w.lo_strict, w.hi_strict) == (0, 25, True, False)
        assert not admits(w, 0)
        assert admits(w, F(1, 100))
        assert admits(w, 25)
        assert not admits(w, F(2501, 100))

    def test_infinite_bounds_are_open(self):
        w = BoundWindow(None, F(3))
        assert w.lo is None and w.lo_strict
        assert (w.hi, w.hi_strict) == (3, False)

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError):
            BoundWindow(F(2), F(1))
        with pytest.raises(ValueError):
            BoundWindow(F(1), F(1), lo_strict=True)

    def test_point_window(self):
        w = BoundWindow.exact(60)
        assert w.is_point
        assert (w.lo, w.hi, w.lo_strict, w.hi_strict) == (60, 60, False, False)

    def test_intersect(self):
        a = BoundWindow.closed(0, 10)
        b = BoundWindow(F(5), None, lo_strict=True)
        assert a.intersect(b) == BoundWindow(F(5), F(10), lo_strict=True)
        assert a.intersect(BoundWindow.closed(20, 30)) is None
        # touching bounds survive only if both ends are closed
        assert a.intersect(BoundWindow.closed(10, 12)) == BoundWindow.exact(10)
        assert a.intersect(BoundWindow(F(10), F(12), lo_strict=True)) is None

    def test_intersect_by_membership(self):
        """On random windows the intersection admits exactly the values
        both windows admit, probed at every bound, every midpoint and
        beyond both ends; None exactly when no probe fits both."""
        rng = random.Random(19)
        for _ in range(500):
            a, b = random_window(rng, 4), random_window(rng, 4)
            ends = sorted({v for w in (a, b) for v in (w.lo, w.hi) if v is not None})
            probes = [F(-100), F(100), *ends, *((x + y) / 2 for x, y in zip(ends, ends[1:]))]
            both = [v for v in probes if admits(a, v) and admits(b, v)]
            got = a.intersect(b)
            assert (got is None) == (not both)
            if got is not None:
                assert all(admits(got, v) == (v in both) for v in probes)
                assert got == b.intersect(a)

    def test_str_markers(self):
        assert str(BoundWindow.closed(120, 180)) == "[120, 180]"
        assert str(BoundWindow.at_most(25)) == "(0, 25]"
        assert str(POSITIVE) == "(0, inf)"
        assert str(BoundWindow.closed(F(3, 2), F(5, 2))) == "[3/2, 5/2]"


class TestEndpointNames:
    def test_endpoint_naming(self):
        assert start_of("bake") == "bake.start"
        assert end_of("bake") == "bake.end"


class TestSTPBuild:
    def test_window_roundtrip(self):
        s = STP.build(["x", "y"], [("x", "y", BoundWindow.closed(1, 2))])
        assert s.window("x", "y") == BoundWindow.closed(1, 2)
        assert s.window("y", "x") == BoundWindow.closed(-2, -1)

    def test_repeated_pair_intersects(self):
        s = STP.build(
            ["x", "y"],
            [("x", "y", BoundWindow.closed(0, 10)),
             ("x", "y", BoundWindow.closed(5, 20))],
        )
        assert s.window("x", "y") == BoundWindow.closed(5, 10)

    def test_unknown_point_rejected(self):
        with pytest.raises(KeyError):
            STP.build(["x"], [("x", "z", BoundWindow.exact(0))])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            STP.build(["x", "x"])

    def test_constructor_is_build_and_sets_no_flag(self):
        """`STP(points, constraints)` stores what `STP.build` stores, the
        bounds a (value, strict) tuple reference conjoins, on random
        networks over denominators 1, 2, 3, 5 and 7, and flags the
        result neither minimal nor inconsistent, whatever its windows:
        only closure establishes either flag."""
        rng = random.Random(149)
        verdicts = set()
        for _ in range(300):
            points = [f"p{i}" for i in range(rng.randint(2, 7))]
            cons = [(*rng.sample(points, 2), random_window(rng))
                    for _ in range(rng.randint(1, 2 * len(points)))]
            s, built = STP(points, cons), STP.build(points, cons)
            assert s == built and (s._e, s._d) == (built._e, built._d)
            assert decoded(s) == tuple_conjoin([], [], cons, points)[1]
            assert not (s.minimal or s.inconsistent)
            verdicts.add(stp_close(s).inconsistent)
        assert verdicts == {True, False}

    def test_metric_to_allen_waits_for_closure(self):
        """The read-back refuses a constructed network, consistent or not,
        until `stp_close` has flagged it minimal."""
        xs, xe, ys, ye = start_of("x"), end_of("x"), start_of("y"), end_of("y")
        cons = [(xs, xe, POSITIVE), (ys, ye, POSITIVE), (xe, ys, BoundWindow.closed(1, 2))]
        clash = (ys, xe, BoundWindow.closed(1, 2))  # contradicts the gap
        ok, bad = STP([xs, xe, ys, ye], cons), STP([xs, xe, ys, ye], cons + [clash])
        assert stp_close(bad).inconsistent
        for net in (ok, bad, stp_close(bad)):
            with pytest.raises(ValueError, match="requires a minimal consistent network"):
                metric_to_allen(net, "x", "y")
        assert metric_to_allen(stp_close(ok), "x", "y") == Relation.parse("{b}")

    def test_constructor_names_unknown_point(self):
        """An unknown point is named, a window's `from` before its `to`,
        and before duplicate point ids are."""
        with pytest.raises(KeyError, match="unknown point 'z'"):
            STP.build(["x"], [("x", "z", BoundWindow.exact(0))])
        with pytest.raises(KeyError, match="unknown point 'z'"):
            STP(["x", "x"], [("x", "x", POSITIVE), ("z", "w", BoundWindow.exact(0))])
        with pytest.raises(ValueError, match="duplicate point ids"):
            STP(["x", "x"], [("x", "x", BoundWindow.exact(0))])


def simmer_stp():
    i = "simmer"
    return STP.build(
        [start_of(i), end_of(i)],
        [(start_of(i), end_of(i), BoundWindow.closed(120, 180))],
    )


class TestSTPClose:
    def test_simmer_window_consistent_and_unchanged(self):
        closed = stp_close(simmer_stp())
        assert not closed.inconsistent
        assert closed.window("simmer.start", "simmer.end") == BoundWindow.closed(120, 180)

    def test_forced_negative_cycle(self):
        s = STP.build(
            ["x", "y"],
            [("x", "y", BoundWindow.exact(1)), ("y", "x", BoundWindow.exact(1))],
        )
        assert stp_close(s).inconsistent

    def test_bound_addition(self):
        s = STP.build(
            ["x", "y", "z"],
            [("x", "y", BoundWindow.closed(1, 2)),
             ("y", "z", BoundWindow.closed(1, 2))],
        )
        assert stp_close(s).window("x", "z") == BoundWindow.closed(2, 4)

    def test_zero_cycle_with_strict_leg(self):
        # y strictly after x, but also equal to it
        s = STP.build(
            ["x", "y"],
            [("x", "y", POSITIVE), ("y", "x", BoundWindow.exact(0))],
        )
        assert stp_close(s).inconsistent

    def test_strictness_propagates_through_sums(self):
        s = STP.build(
            ["x", "y", "z"],
            [("x", "y", BoundWindow(F(1), F(2), hi_strict=True)),
             ("y", "z", BoundWindow.closed(1, 2))],
        )
        assert stp_close(s).window("x", "z") == BoundWindow(F(2), F(4), hi_strict=True)

    def test_close_idempotent(self):
        once = stp_close(simmer_stp())
        assert stp_close(once) == once
        assert once.minimal


def _bounds_of(s):
    """Forward (value, strict) bound for every ordered point pair."""
    out = {}
    for a in s.points:
        for b in s.points:
            if a == b:
                continue
            w = s.window(a, b)
            out[(a, b)] = (None, True) if w.hi is None else (w.hi, w.hi_strict)
    return out


def _tighter(a, b):
    if a is None:
        return b
    if a[0] != b[0]:
        return a if a[0] < b[0] else b
    return a if a[1] else b


def _upper_from_constraints(cons):
    """Merged forward (value, strict) bounds per ordered pair, the input
    format of the path-enumeration oracle."""
    ups = {}
    for frm, to, w in cons:
        if w.hi is not None:
            ups[(frm, to)] = _tighter(ups.get((frm, to)), (w.hi, w.hi_strict))
        if w.lo is not None:
            ups[(to, frm)] = _tighter(ups.get((to, frm)), (-w.lo, w.lo_strict))
    return ups


_window_values = st.integers(-6, 6).map(F)


@st.composite
def small_stps(draw):
    n = draw(st.integers(2, 4))
    points = [f"p{i}" for i in range(n)]
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        if i == j:
            continue
        lo = draw(st.one_of(st.none(), _window_values))
        hi = draw(st.one_of(st.none(), _window_values))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        ls = draw(st.booleans()) if lo is not None else True
        hs = draw(st.booleans()) if hi is not None else True
        if lo is not None and lo == hi:
            ls = hs = False
        constraints.append((points[i], points[j], BoundWindow(lo, hi, ls, hs)))
    return points, constraints


class TestCloseAgainstPathEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(small_stps())
    def test_matches_exhaustive_paths(self, case):
        points, cons = case
        s = STP.build(points, cons)
        oracle = stp_minimal_by_paths(s.points, _upper_from_constraints(cons))
        closed = stp_close(s)
        if oracle is None:
            assert closed.inconsistent
        else:
            assert not closed.inconsistent
            assert _bounds_of(closed) == oracle

    def test_fixed_tricky_instances(self):
        cases = [
            # strict and closed zero-length bounds interacting around a cycle
            [("a", "b", BoundWindow(F(0), F(0))),
             ("b", "c", BoundWindow(F(0), None, lo_strict=True)),
             ("a", "c", BoundWindow(None, F(0), hi_strict=False))],
            # negative windows: c sits before a
            [("a", "b", BoundWindow.closed(2, 3)),
             ("b", "c", BoundWindow.closed(-10, -5))],
            [("a", "b", BoundWindow(F(1), F(1))),
             ("b", "c", BoundWindow(F(-1), F(-1))),
             ("a", "c", BoundWindow(F(0), F(0), ))],
        ]
        for cons in cases:
            s = STP.build(["a", "b", "c"], cons)
            oracle = stp_minimal_by_paths(s.points, _upper_from_constraints(cons))
            closed = stp_close(s)
            if oracle is None:
                assert closed.inconsistent
            else:
                assert _bounds_of(closed) == oracle

    def test_seeded_five_point_instances(self):
        rng = random.Random(9)
        for _ in range(25):
            points = ["a", "b", "c", "d", "e"]
            cons = []
            for _ in range(rng.randint(2, 7)):
                i, j = rng.sample(range(5), 2)
                lo = rng.choice([None] + list(range(-5, 6)))
                hi = rng.choice([None] + list(range(-5, 6)))
                if lo is not None and hi is not None and lo > hi:
                    lo, hi = hi, lo
                ls = rng.random() < 0.5 if lo is not None else True
                hs = rng.random() < 0.5 if hi is not None else True
                if lo is not None and lo == hi:
                    ls = hs = False
                cons.append((points[i], points[j],
                             BoundWindow(None if lo is None else F(lo),
                                         None if hi is None else F(hi), ls, hs)))
            s = STP.build(points, cons)
            oracle = stp_minimal_by_paths(s.points, _upper_from_constraints(cons))
            closed = stp_close(s)
            if oracle is None:
                assert closed.inconsistent
            else:
                assert _bounds_of(closed) == oracle


class TestTCSP:
    def test_single_window_reduces_to_stp(self):
        t = TCSP(
            ("x", "y", "z"),
            (MetricConstraint("x", "y", (BoundWindow.closed(1, 2),)),
             MetricConstraint("y", "z", (BoundWindow.closed(1, 2),))),
        )
        ok, witness = tcsp_consistent(t)
        assert ok
        assert witness.window("x", "z") == BoundWindow.closed(2, 4)

    def test_witness_selects_surviving_window(self):
        t = TCSP(
            ("x", "y"),
            (MetricConstraint("x", "y", (BoundWindow.exact(1), BoundWindow.exact(5))),
             MetricConstraint("x", "y", (BoundWindow.closed(4, 6),))),
        )
        ok, witness = tcsp_consistent(t)
        assert ok
        assert witness.window("x", "y") == BoundWindow.exact(5)

    def test_pairwise_conflicting_windows(self):
        t = TCSP(
            ("x", "y"),
            (MetricConstraint("x", "y", (BoundWindow.closed(0, 1), BoundWindow.closed(10, 11))),
             MetricConstraint("x", "y", (BoundWindow.closed(3, 4), BoundWindow.closed(6, 7)))),
        )
        ok, witness = tcsp_consistent(t)
        assert not ok and witness is None

    def test_search_agrees_with_product_enumeration(self):
        rng = random.Random(4)
        points = ("p", "q", "r")
        for _ in range(20):
            cons = []
            for (a, b) in (("p", "q"), ("q", "r"), ("p", "r")):
                wins = []
                for _ in range(rng.randint(1, 3)):
                    lo = rng.randint(-4, 4)
                    hi = lo + rng.randint(0, 2)
                    wins.append(BoundWindow.closed(lo, hi))
                cons.append(MetricConstraint(a, b, tuple(wins)))
            t = TCSP(points, tuple(cons))
            ok, witness = tcsp_consistent(t)

            brute = False
            import itertools
            for pick in itertools.product(*[c.windows for c in cons]):
                s = STP.build(points, [(c.frm, c.to, w) for c, w in zip(cons, pick)])
                if not stp_close(s).inconsistent:
                    brute = True
                    break
            assert ok == brute
            if ok:
                assert not witness.inconsistent

    def test_window_normalization(self):
        c = MetricConstraint("x", "y", (BoundWindow.exact(5), BoundWindow.exact(1)))
        assert c.windows == (BoundWindow.exact(1), BoundWindow.exact(5))
        merged = MetricConstraint(
            "x", "y", (BoundWindow.closed(1, 3), BoundWindow.closed(2, 5)))
        assert merged.windows == (BoundWindow.closed(1, 5),)
        half_open = MetricConstraint(
            "x", "y",
            (BoundWindow(F(1), F(2), hi_strict=True), BoundWindow.closed(2, 3)))
        assert half_open.windows == (BoundWindow.closed(1, 3),)

    def test_normalization_keeps_every_value(self):
        closed_open = MetricConstraint(
            "a", "b", (BoundWindow(F(0), F(5), hi_strict=True), BoundWindow.closed(3, 5)))
        assert closed_open.windows == (BoundWindow.closed(0, 5),)
        open_closed = MetricConstraint(
            "a", "b", (BoundWindow.closed(0, 2), BoundWindow(F(0), F(7), lo_strict=True)))
        assert open_closed.windows == (BoundWindow.closed(0, 7),)
        ok, witness = tcsp_consistent(TCSP(("a", "b"), (
            closed_open, MetricConstraint("a", "b", (BoundWindow.exact(5),)))))
        assert ok and witness.window("a", "b") == BoundWindow.exact(5)

    def test_normalization_by_membership(self):
        """On random window sets the normalized windows admit exactly the
        values some input window admits, probed at every bound, every
        midpoint and beyond both ends; they are sorted, and no two
        consecutive ones meet."""
        rng = random.Random(31)
        for _ in range(500):
            wins = [random_window(rng, 4) for _ in range(rng.randint(1, 4))]
            got = MetricConstraint("x", "y", tuple(wins)).windows
            ends = sorted({v for w in wins for v in (w.lo, w.hi) if v is not None})
            probes = [F(-100), F(100), *ends, *((x + y) / 2 for x, y in zip(ends, ends[1:]))]
            for v in probes:
                assert any(admits(w, v) for w in got) == any(admits(w, v) for w in wins)
            for a, b in zip(got, got[1:]):
                assert a.hi is not None and b.lo is not None
                assert a.hi < b.lo or (a.hi == b.lo and a.hi_strict and b.lo_strict)

    def test_unknown_point_reported_before_the_search(self):
        t = TCSP(("a", "b"), (MetricConstraint("a", "a", (BoundWindow.closed(1, 2),)),
                              MetricConstraint("a", "zz", (BoundWindow.closed(1, 2),))))
        with pytest.raises(KeyError, match="unknown point 'zz'"):
            tcsp_consistent(t)

    def test_empty_window_list_rejected(self):
        with pytest.raises(ValueError):
            MetricConstraint("x", "y", ())

    def test_scale_bounds(self):
        wide = tuple(BoundWindow.exact(10 * i) for i in range(MAX_TCSP_WINDOWS + 1))
        t = TCSP(("x", "y"), (MetricConstraint("x", "y", wide),))
        with pytest.raises(ScaleBoundExceeded):
            tcsp_consistent(t)

        points = tuple(f"n{i}" for i in range(MAX_TCSP_DISJUNCTIVE + 2))
        cons = tuple(
            MetricConstraint(points[i], points[i + 1],
                             (BoundWindow.exact(0), BoundWindow.exact(100)))
            for i in range(MAX_TCSP_DISJUNCTIVE + 1)
        )
        with pytest.raises(ScaleBoundExceeded):
            tcsp_consistent(TCSP(points, cons))


def realization_for(atom):
    """Concrete endpoints exhibiting the atom, found on a small grid."""
    for xs in range(6):
        for xe in range(xs + 1, 6):
            for ys in range(6):
                for ye in range(ys + 1, 6):
                    if atom_by_definition((xs, xe), (ys, ye)) == atom.name:
                        return (F(xs), F(xe)), (F(ys), F(ye))
    raise AssertionError(f"no realization for {atom}")


class TestAtomToPoints:
    """An atom's metric export, `metric._ATOM_EDGES`: the endpoint
    constraints that define it, as encoded edges (i, j, w) bounding
    t_j - t_i over the local points 0-3 (x.start, x.end, y.start,
    y.end), w 0 for <= 0 and -1 for < 0 at every scale."""

    def test_meets(self):
        assert set(metric._ATOM_EDGES[BaseRelation.m]) == {(1, 2, 0), (2, 1, 0)}

    def test_equals(self):
        assert set(metric._ATOM_EDGES[BaseRelation.e]) == {(0, 2, 0), (2, 0, 0),
                                                           (1, 3, 0), (3, 1, 0)}

    def test_during(self):
        # y.start < x.start and x.end < y.end
        assert set(metric._ATOM_EDGES[BaseRelation.d]) == {(0, 2, -1), (3, 1, -1)}

    def test_constraints_characterize_each_atom(self):
        """With start < end, the encoded edges of an atom hold exactly on
        that atom's realizations, and so do the four endpoint windows of
        the oracles' export, whose signs are `ENDPOINT_SIGNS`."""
        assert tuple(atom_signs_by_definition()[a.name] for a in BaseRelation) == ENDPOINT_SIGNS
        values = {}
        for atom in BaseRelation:
            (xs, xe), (ys, ye) = realization_for(atom)
            values[atom] = {"x.start": xs, "x.end": xe, "y.start": ys, "y.end": ye}
        for claimed in BaseRelation:
            cons = atom_windows(claimed, "x", "y")
            for actual, env in values.items():
                t = [env[p] for p in ("x.start", "x.end", "y.start", "y.end")]
                edges = all(t[j] - t[i] < 0 if w else t[j] - t[i] <= 0
                            for i, j, w in metric._ATOM_EDGES[claimed])
                windows = all(admits(w, env[to] - env[frm]) for frm, to, w in cons)
                assert edges == windows == (claimed == actual), (claimed, actual)


def interval_stp(names, extra=()):
    points = []
    cons = []
    for n in names:
        points += [start_of(n), end_of(n)]
        cons.append((start_of(n), end_of(n), POSITIVE))
    return STP.build(points, cons + list(extra))


class TestMetricToAllen:
    def test_unconstrained_pair_gives_full(self):
        closed = stp_close(interval_stp(["x", "y"]))
        assert metric_to_allen(closed, "x", "y") == FULL

    def test_forced_meets(self):
        closed = stp_close(interval_stp(
            ["i", "j"], [(end_of("i"), start_of("j"), BoundWindow.exact(0))]))
        assert metric_to_allen(closed, "i", "j") == Relation.parse("{m}")

    def test_atom_roundtrip_all_thirteen(self):
        for atom in BaseRelation:
            extra = atom_windows(atom, "x", "y")
            closed = stp_close(interval_stp(["x", "y"], extra))
            assert not closed.inconsistent
            assert metric_to_allen(closed, "x", "y") == Relation.of(atom), atom

    def test_bake_remove_cover_windows(self):
        # a 60-minute bake, a 15-minute timer finishing it, the cover
        # coming off when the timer starts
        extra = (
            [(start_of("bake"), end_of("bake"), BoundWindow.exact(60)),
             (start_of("t"), end_of("t"), BoundWindow.exact(15))]
            + list(atom_windows(BaseRelation.f, "t", "bake"))
            + list(atom_windows(BaseRelation.s, "remove_cover", "t"))
        )
        closed = stp_close(interval_stp(["bake", "t", "remove_cover"], extra))
        assert not closed.inconsistent
        rel = metric_to_allen(closed, "remove_cover", "bake")
        assert rel == Relation.parse("{d}")
        assert rel <= Relation.parse("{d,f}")

    def test_requires_minimal_network(self):
        raw = interval_stp(["x", "y"])
        with pytest.raises(ValueError):
            metric_to_allen(raw, "x", "y")

    def test_unknown_interval(self):
        closed = stp_close(interval_stp(["x", "y"]))
        with pytest.raises(KeyError):
            metric_to_allen(closed, "x", "z")

    def test_rejects_relation_of_another_calculus(self):
        """An INDU `within` is refused, as `with_cell` refuses it, rather
        than its slots read as Allen atoms (slot 7, m^=, is not di)."""
        closed = stp_close(interval_stp(["x", "y"]))
        within = INDURelation.of(("b", "<"), ("m", "="))
        with pytest.raises(ValueError, match="is of another calculus than Relation"):
            metric_to_allen(closed, "x", "y", within)


class TestSerialization:
    def test_constraint_line(self):
        line = format_constraint("bake.start", "bake.end", BoundWindow.at_most(25))
        assert line == "bake.end - bake.start in (0, 25]"

    def test_format_stp_lists_informative_pairs(self):
        closed = stp_close(simmer_stp())
        assert format_stp(closed) == "simmer.start - simmer.end in [-180, -120]\n"

    def test_format_inconsistent(self):
        s = STP.build(
            ["x", "y"],
            [("x", "y", BoundWindow.exact(1)), ("y", "x", BoundWindow.exact(1))],
        )
        assert format_stp(stp_close(s)) == "inconsistent\n"


# ---------------------------------------------------------------------------
# the integer shortest-path kernel against the reference tuple
# Floyd-Warshall and 13-overlay read-back in tests/oracles.py

def random_stp(rng, n):
    points = [f"p{i}" for i in range(n)]
    cons = [(*rng.sample(points, 2), random_window(rng))
            for _ in range(rng.randint(1, 2 * n))]
    return STP.build(points, cons)


class TestIntegerShortestPaths:
    def test_stp_close_matches_tuple_floyd_warshall(self):
        rng = random.Random(17)
        verdicts = set()
        for _ in range(300):
            s = random_stp(rng, rng.randint(2, 7))
            closed, ref = stp_close(s), tuple_stp_close(s)
            assert closed.inconsistent == ref.inconsistent
            verdicts.add(closed.inconsistent)
            if not closed.inconsistent:
                assert closed == ref
                assert closed.minimal
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [2, 5, 12, 40])
    def test_strict_chain_does_not_carry_into_value(self, n):
        # n - 1 strict legs of value 0, then of value 1/3: the strictness
        # count must stay below the value scale, even with far more legs
        # than the multiplier M
        points = [f"p{i}" for i in range(n)]
        for step in (F(0), F(1, 3)):
            leg = BoundWindow(step, None, lo_strict=True)
            s = STP.build(points, [(a, b, leg) for a, b in zip(points, points[1:])])
            closed = stp_close(s)
            assert closed == tuple_stp_close(s)
            assert closed.window(points[0], points[-1]) == BoundWindow(
                step * (n - 1), None, lo_strict=True)

    def test_zero_cycle_with_one_strict_leg(self):
        def cycle(strict):
            return STP.build(["a", "b", "c"], [
                ("a", "b", BoundWindow(None, F(1, 3))),
                ("b", "c", BoundWindow(None, F(1, 6))),
                ("c", "a", BoundWindow(None, F(-1, 2), hi_strict=strict)),
            ])

        assert stp_close(cycle(True)).inconsistent
        closed = stp_close(cycle(False))
        assert not closed.inconsistent
        assert closed.window("a", "c") == BoundWindow.exact(F(1, 2))

    @pytest.mark.parametrize("strict", [None, 0, 17, 39])
    def test_forty_point_zero_cycles(self, strict):
        """A cycle through 40 points whose legs sum to exactly 0 over mixed
        denominators is inconsistent with one strict leg, wherever it is,
        and consistent with none, as the tuple reference finds."""
        points = [f"p{i}" for i in range(40)]
        legs = [F((-1) ** k * (k % 7 + 1), k % 5 + 1) for k in range(39)]
        legs.append(-sum(legs))
        s = STP.build(points, [
            (a, b, BoundWindow(None, v, hi_strict=k == strict))
            for k, (a, b, v) in enumerate(zip(points, points[1:] + points[:1], legs))])
        closed, ref = stp_close(s), tuple_stp_close(s)
        assert closed.inconsistent == ref.inconsistent == (strict is not None)
        if strict is None:
            assert closed == ref
            assert closed.window("p0", "p39") == BoundWindow.exact(sum(legs[:39]))

    def test_inconsistent_input_left_unchanged(self):
        s = STP.build(["x", "y", "z"], [
            ("x", "y", BoundWindow.closed(1, 2)),
            ("y", "z", BoundWindow.closed(1, 2)),
            ("z", "x", BoundWindow.closed(1, 2)),
        ])
        assert tuple_stp_close(s).inconsistent
        closed = stp_close(s)
        assert closed.inconsistent
        assert decoded(closed) == decoded(s)

    def test_tcsp_matches_tuple_floyd_warshall(self, monkeypatch):
        rng = random.Random(23)
        cases = []
        for _ in range(60):
            points = ("p", "q", "r", "s")[:rng.randint(2, 4)]
            cons = tuple(
                MetricConstraint(*rng.sample(points, 2),
                                 tuple(random_window(rng, 6)
                                       for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4)))
            cases.append(TCSP(points, cons))
        fast = [tcsp_consistent(t) for t in cases]
        monkeypatch.setattr("chronotext.metric.stp_close", tuple_stp_close)
        slow = [tcsp_consistent(t) for t in cases]
        assert fast == slow
        assert {ok for ok, _ in fast} == {True, False}


def random_interval_stp(rng, names):
    points = [p for n in names for p in (start_of(n), end_of(n))]
    extra = [(*rng.sample(points, 2), random_window(rng, 8))
             for _ in range(rng.randint(0, 4))]
    return stp_close(interval_stp(names, extra))


class TestReadBackAgainstOverlay:
    def test_matches_overlay_with_and_without_within(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(150):
            closed = random_interval_stp(rng, ["x", "y", "z"][:rng.randint(2, 3)])
            if closed.inconsistent:
                continue
            names = sorted({p.rsplit(".", 1)[0] for p in closed.points})
            for x in names:
                for y in names:
                    if x == y:
                        continue
                    overlay = overlay_metric_to_allen(closed, x, y)
                    assert metric_to_allen(closed, x, y) == overlay
                    within = Relation(rng.randint(0, FULL.mask))
                    assert metric_to_allen(closed, x, y, within) == overlay & within
                    checked += 1
        assert checked > 200

    def test_within_limits_the_atoms_tested(self):
        closed = stp_close(interval_stp(["x", "y"]))
        assert metric_to_allen(closed, "x", "y", Relation.parse("{b,e}")) \
            == Relation.parse("{b,e}")
        assert metric_to_allen(closed, "x", "y", Relation(0)) == Relation(0)


class TestReadBackAgainstFloydWarshall:
    def test_random_minimal_stps(self):
        """The cycle tests give the atoms of one integer Floyd-Warshall per
        atom, on two intervals and an anonymous point under random windows
        (mixed denominators, strict and unbounded sides), with and without
        `within`, in both argument orders."""
        rng = random.Random(41)
        points = [start_of("x"), end_of("x"), start_of("y"), end_of("y"), "z"]
        sizes = set()
        checked = 0
        while checked < 2000:
            cons = [(start_of(n), end_of(n), random_window(rng, 6))
                    for n in ("x", "y") if rng.random() < 0.8]
            cons += [(*rng.sample(points, 2), random_window(rng, 6))
                     for _ in range(rng.randint(0, 5))]
            closed = stp_close(STP.build(points, cons))
            if closed.inconsistent:
                continue
            for a, b in (("x", "y"), ("y", "x")):
                got = metric_to_allen(closed, a, b)
                assert got == fw_metric_to_allen(closed, a, b)
                within = Relation(rng.randint(0, FULL.mask))
                assert metric_to_allen(closed, a, b, within) \
                    == fw_metric_to_allen(closed, a, b, within)
                sizes.add(len(got))
            checked += 1
        assert sizes == set(range(1, 14))

    def test_two_leg_cycle_excludes_during(self):
        """x lasting [2, 3] cannot lie during y lasting (0, 1], yet the
        windows on xs - ys and ye - xe are unbounded: only the cycle
        xs -> ys -> ye -> xe -> xs, with both durations as its D legs,
        rejects {d}."""
        closed = stp_close(STP.build(
            [start_of("x"), end_of("x"), start_of("y"), end_of("y")],
            [(start_of("x"), end_of("x"), BoundWindow.closed(2, 3)),
             (start_of("y"), end_of("y"), BoundWindow.at_most(1))]))
        assert closed.window(start_of("y"), start_of("x")).unbounded
        assert closed.window(end_of("x"), end_of("y")).unbounded
        during = Relation.of(BaseRelation.d)
        assert metric_to_allen(closed, "x", "y", during) == Relation(0)
        expected = Relation.parse("{b,bi,m,mi,o,oi,di,si,fi}")
        assert metric_to_allen(closed, "x", "y") == expected
        assert fw_metric_to_allen(closed, "x", "y") == expected
        assert metric_to_allen(closed, "y", "x") == expected.converse()


def random_minimal_stps(rng, count):
    """Closed consistent STPs with their interval names: two intervals and
    an anonymous point, or two to six intervals (4 to 12 points),
    under random windows with mixed denominators and strict and unbounded
    sides."""
    made = 0
    while made < count:
        names = [f"i{k}" for k in range(2 if made % 2 else rng.randint(2, 6))]
        points = [p for n in names for p in (start_of(n), end_of(n))] + ["z"] * (made % 2)
        cons = [(start_of(n), end_of(n), random_window(rng, 6)) for n in names if rng.random() < 0.8]
        cons += [(*rng.sample(points, 2), random_window(rng, 6))
                 for _ in range(rng.randint(0, len(points)))]
        closed = stp_close(STP.build(points, cons))
        if not closed.inconsistent:
            made += 1
            yield closed, names


class TestLegSets:
    def test_one_pass_of_fourteen_sums(self):
        assert (len(metric._ONE_READS), len(metric._TWO_READS)) == (10, 4)
        # each of the 12 off-diagonal entries of the 4x4 sub-matrix is read
        read = {(r, c) for _, r, c, _, _ in metric._ONE_READS} \
            | {entry for _, pr, pc, qr, qc, _, _ in metric._TWO_READS for entry in ((pr, pc), (qr, qc))}
        assert read == {(i, j) for i in range(4) for j in range(4) if i != j}

    def test_atom_cycle_tests_have_k_at_most_three(self):
        ks = [k for tests in per_atom_cycle_tests() for _, k in tests]
        assert len(per_atom_cycle_tests()) == 13 and all(per_atom_cycle_tests())
        assert min(ks) == 0 and max(ks) == 3

    def test_encoded_sums_fall_in_two_classes(self):
        """Every one-entry and two-entry sum over the four endpoints of an
        interval pair, in a minimal STP, is at most 0 or at least M - 2:
        so it is below k <= 3 exactly when it is below 0, or 0 with k > 0."""
        rng = random.Random(103)
        seen = set()
        for closed, names in random_minimal_stps(rng, 300):
            m, n = metric._M, len(closed.points)
            x, y = rng.sample(names, 2)
            idx = [closed._index[p] for p in (start_of(x), end_of(x), start_of(y), end_of(y))]
            entries = [closed._e[i][j] for i in idx for j in idx if i != j]
            entries = [v for v in entries if v is not None]
            sums = entries + [a + b for k, a in enumerate(entries) for b in entries[k + 1:]]
            assert all(v <= 0 or v >= m - 2 for v in sums)
            seen.update((v > 0, v == 0, v < 0, n) for v in sums)
        assert {(False, True, False, 4), (False, False, True, 4), (True, False, False, 4)} <= seen
        assert {n for *_, n in seen} == {4, 5, 6, 8, 10, 12}

    def test_matches_per_atom_cycle_tests_on_minimal_stps(self):
        rng = random.Random(107)
        for closed, names in random_minimal_stps(rng, 600):
            x, y = rng.sample(names, 2)
            within = Relation(rng.randint(0, FULL.mask))
            assert metric_to_allen(closed, x, y) == cycle_test_metric_to_allen(closed, x, y)
            assert metric_to_allen(closed, x, y, within) \
                == cycle_test_metric_to_allen(closed, x, y, within)

    def test_matches_per_atom_cycle_tests_on_any_encoded_entries(self):
        """The table and the per-atom tests agree on every 4x4 matrix of
        encoded entries q*M - [strict], M = 5, minimal or not: the two
        classes of sums are a property of the encoding alone.  Sums of 0
        occur often, so treating them as positive would disagree."""
        rng = random.Random(109)
        points = [start_of("x"), end_of("x"), start_of("y"), end_of("y")]
        zeros = 0
        for _ in range(3000):
            m = metric._M
            e = tuple(tuple(0 if i == j else None if rng.random() < 0.25
                            else rng.randint(-2, 2) * m - (rng.random() < 0.5)
                            for j in range(4)) for i in range(4))
            s = STP._raw(tuple(points), {p: i for i, p in enumerate(points)}, e, 1,
                         minimal=True)
            within = Relation(rng.randint(0, FULL.mask))
            assert metric_to_allen(s, "x", "y") == cycle_test_metric_to_allen(s, "x", "y")
            assert metric_to_allen(s, "x", "y", within) \
                == cycle_test_metric_to_allen(s, "x", "y", within)
            zeros += any(e[r][c] == 0 for _, r, c, _, _ in metric._ONE_READS) or any(
                None not in (e[pr][pc], e[qr][qc]) and e[pr][pc] + e[qr][qc] == 0
                for _, pr, pc, qr, qc, _, _ in metric._TWO_READS)
        assert zeros > 1000


class TestRestrictedRows:
    def test_matches_entry_by_entry_copy(self):
        """`restricted` copies the kept rows and columns, in the order
        given (none, one, two, all and any number of points in turn), at
        the same scale, flags dropped, and rejects repeats."""
        rng = random.Random(113)
        for trial, (closed, names) in enumerate(random_minimal_stps(rng, 100)):
            size = (0, 1, 2, len(closed.points), rng.randint(0, len(closed.points)))[trial % 5]
            keep = rng.sample(closed.points, size)
            cut = closed.restricted(keep)
            idx = [closed.points.index(p) for p in keep]
            assert cut._e == per_entry_restricted(closed._e, idx)
            assert (cut.points, cut._d) == (tuple(keep), closed._d)
            assert not (cut.minimal or cut.inconsistent)
        with pytest.raises(ValueError, match="duplicate point ids"):
            closed.restricted([closed.points[0]] * 2)


# ---------------------------------------------------------------------------
# the stored integer matrix against a (value, strict) tuple reference

def tuple_window(u, i, j):
    """The window on t_j - t_i under a tuple bound matrix, or None."""
    (hi, hi_strict), (neg_lo, lo_strict) = u[i][j], u[j][i]
    lo = None if neg_lo is None else -neg_lo
    if lo is not None and hi is not None and (lo > hi or (lo == hi and (lo_strict or hi_strict))):
        return None
    return BoundWindow(lo, hi, lo_strict, hi_strict)


class TestStoredEncoding:
    def test_one_call_build_matches_tuple_reference(self):
        """Random builds of 1 to 8 points and up to 12 windows over the
        denominators 1, 2, 3, 5 and 7 (strict and unbounded sides,
        self-windows and repeated pairs): the scale is the least common
        multiple of every finite bound's denominator, the stored matrix
        is the tuple reference's conjoin into an empty matrix, every
        window is its window, and neither flag is set.  With an unknown
        point or duplicate ids, the first unknown point is named, a
        window's `from` before its `to`, before duplicates are."""
        rng = random.Random(61)
        scales, errors = set(), Counter()
        m = metric._M
        for _ in range(400):
            points = [f"p{k}" for k in range(rng.randint(1, 8))]
            cons = [(rng.choice(points), rng.choice(points), random_window(rng))
                    for _ in range(rng.randint(0, 12))]
            if cons and rng.random() < 0.15:
                k = rng.randrange(len(cons))
                frm, to, w = cons[k]
                cons[k] = (frm, "z", w) if rng.random() < 0.5 else ("y", "z", w)
            if rng.random() < 0.15:
                points.append(rng.choice(points))
            unknown = next((p for frm, to, _ in cons for p in (frm, to) if p not in points), None)
            if unknown is not None:
                with pytest.raises(KeyError, match=f"unknown point '{unknown}'"):
                    STP(points, cons)
                errors[unknown] += 1
                continue
            if len(set(points)) != len(points):
                with pytest.raises(ValueError, match="duplicate point ids"):
                    STP(points, cons)
                errors["duplicate"] += 1
                continue
            s = STP(points, cons)
            ref = tuple_conjoin([], [], cons, points)[1]
            assert s._d == lcm(1, *(v.denominator for _, _, w in cons
                                    for v in (w.lo, w.hi) if v is not None))
            assert (s.points, s.minimal, s.inconsistent) == (tuple(points), False, False)
            assert decoded(s) == ref
            assert all(v is None or v % m in (0, m - 1) for row in s._e for v in row)
            scales.add(s._d)
            for i, a in enumerate(points):
                for j, b in enumerate(points):
                    expected = tuple_window(ref, i, j)
                    if expected is None:
                        with pytest.raises(ValueError):
                            s.window(a, b)
                    else:
                        assert s.window(a, b) == expected
        assert errors.keys() == {"y", "z", "duplicate"}
        assert {1, 2, 3, 5, 6, 7, 105, 210} <= scales

    def test_scale_changes_match_tuple_reference(self):
        """Random chains of `_close_with` from closed STPs, windows over
        the denominators 1, 2, 3, 5, 7, 11 and 13 (strict and unbounded
        sides), with `restricted` and `stp_close` between: after every
        step the verdict and the decoded matrix equal those of the
        reference, which conjoins into the decoded bounds and rebuilds
        with no rescale (`oracles.rescaling_close_with`, and
        `tuple_stp_close` after a restriction), and the scale is the least
        common multiple of the network's and the window's.  So rescaling,
        for a new denominator, keeps every entry exact."""
        rng = random.Random(61)
        scales, verdicts, rescaled = set(), set(), 0
        for _ in range(300):
            s = stp_close(random_stp(rng, rng.randint(2, 6)))
            for _ in range(rng.randint(3, 12)):
                if s.inconsistent:
                    break
                if rng.random() < 0.15 and len(s.points) > 2:
                    keep = rng.sample(s.points, rng.randint(2, len(s.points) - 1))
                    u = decoded(s)
                    ref = tuple_stp_close(stp_of_bounds(keep, [
                        [u[s._index[a]][s._index[b]] for b in keep] for a in keep]))
                    s = stp_close(s.restricted(keep))
                    assert s.inconsistent == ref.inconsistent
                    if not s.inconsistent:
                        assert decoded(s) == decoded(ref)
                    continue
                frm, to = rng.choice(s.points), rng.choice(s.points)
                w = _new_denominator_window(rng) if rng.random() < 0.3 else random_window(rng)
                got, ref = metric._close_with(s, frm, to, w), rescaling_close_with(s, frm, to, w)
                assert got._d == lcm(s._d, *(v.denominator for v in (w.lo, w.hi) if v is not None))
                assert (got.inconsistent, got.minimal) == (ref.inconsistent, ref.minimal)
                assert decoded(got) == decoded(ref)
                if got._d != s._d and any(v for row in s._e for v in row):
                    rescaled += 1
                if not got.inconsistent:
                    assert all(got.window(a, b) == ref.window(a, b)
                               for a in got.points for b in got.points)
                verdicts.add(got.inconsistent)
                scales.add(got._d)
                s = got
        assert verdicts == {True, False}
        assert rescaled > 200
        assert {2, 3, 5, 7, 11, 13} <= {p for d in scales for p in (2, 3, 5, 7, 11, 13) if d % p == 0}

    def test_read_back_on_larger_networks(self):
        """The cycle tests read the stored matrix of 4 to 12 points exactly
        as one integer Floyd-Warshall per atom on the decoded 4x4
        sub-matrix at its own scale does."""
        rng = random.Random(67)
        sizes = set()
        checked = 0
        while checked < 400:
            names = [f"i{k}" for k in range(rng.randint(2, 6))]
            points = [p for n in names for p in (start_of(n), end_of(n))]
            cons = [(start_of(n), end_of(n), POSITIVE) for n in names]
            cons += [(*rng.sample(points, 2), random_window(rng, 8))
                     for _ in range(rng.randint(0, len(points)))]
            closed = stp_close(STP.build(points, cons))
            if closed.inconsistent:
                continue
            sizes.add(len(closed.points))
            x, y = rng.sample(names, 2)
            within = Relation(rng.randint(0, FULL.mask))
            assert metric_to_allen(closed, x, y) == fw_metric_to_allen(closed, x, y)
            assert metric_to_allen(closed, x, y, within) == fw_metric_to_allen(closed, x, y, within)
            checked += 1
        assert sizes == {4, 6, 8, 10, 12}

    def test_equality_agrees_with_decoded_view(self):
        """Equality across scales, neither of which divides the other,
        holds exactly when the decoded matrices agree; a closed network
        and its copy at a new scale, closed with a window it implies
        (`_close_with`), are equal and hash equal."""
        rng = random.Random(137)
        outcomes = set()
        for _ in range(300):
            s = stp_close(random_stp(rng, rng.randint(2, 6)))
            p = s.points[0]
            a = metric._close_with(s, p, p, BoundWindow.closed(F(-1, 11), F(1, 11)))
            b = metric._close_with(s, p, p, BoundWindow.closed(F(-1, 13), F(1, 13)))
            if rng.random() < 0.5:
                b = metric._close_with(b, *rng.sample(s.points, 2), random_window(rng))
            assert (a._d % 11, b._d % 13) == (0, 0)
            assert a == s and hash(a) == hash(s) and a._d != s._d
            equal = a == b
            assert equal == (decoded(a) == decoded(b)) == (b == a)
            if equal:
                assert hash(a) == hash(b)
            outcomes.add(equal)
        assert outcomes == {True, False}

    def test_equality_is_by_value_across_scales(self):
        """The constructor's scale counts a window's denominator even when
        a tighter window on the pair hides its bound."""
        cons = [("x", "y", BoundWindow.closed(1, 2))]
        a = STP.build(["x", "y"], cons)
        b = STP.build(["x", "y"], cons + [("x", "y", BoundWindow(None, F(10, 3)))])
        assert (a._d, b._d) == (1, 3)
        assert a == b and hash(a) == hash(b)
        assert b.window("x", "y") == BoundWindow.closed(1, 2)
        c = STP.build(["x", "y"], cons + [("x", "y", BoundWindow(None, F(10, 3))),
                                          ("x", "y", BoundWindow(None, F(2), hi_strict=True))])
        assert c != a
        assert c.window("x", "y") == BoundWindow(F(1), F(2), hi_strict=True)


# ---------------------------------------------------------------------------
# incremental closure from the tightened entries against the full closure

def _new_denominator_window(rng):
    """A window over denominators 11 and 13, which no `random_window` uses,
    so conjoining it rescales the stored matrix."""
    lo = F(rng.randint(-40, 20), rng.choice((11, 13)))
    return BoundWindow(lo, lo + F(rng.randint(1, 40), rng.choice((11, 13))),
                       False, rng.random() < 0.5)


class TestIncrementalClose:
    def test_changed_entries_match_full_closure(self):
        """On random minimal STPs tightened by one to three windows
        (strict and closed sides, new denominators forcing a rescale),
        closing from the windows' entries gives the full closure's
        verdict and, when consistent, its exact stored matrix, flagged
        minimal."""
        rng = random.Random(71)
        verdicts, rescaled, several = set(), 0, 0
        for _ in range(400):
            s = stp_close(random_stp(rng, rng.randint(2, 7)))
            if s.inconsistent:
                continue
            cons = [(*rng.sample(s.points, 2),
                     _new_denominator_window(rng) if rng.random() < 0.25 else random_window(rng))
                    for _ in range(rng.randint(1, 3))]
            t = conjoined(s, cons)
            rescaled += t._d != s._d
            changed = []
            for frm, to, _ in cons:
                i, j = t._index[frm], t._index[to]
                changed += [(i, j), (j, i)]
            several += len(cons) > 1
            inc, full = stp_close(t, changed=changed), stp_close(t)
            assert inc.inconsistent == full.inconsistent
            verdicts.add(inc.inconsistent)
            if not full.inconsistent:
                assert inc.minimal
                assert (inc._e, inc._d) == (full._e, full._d)
                assert inc == full
        assert verdicts == {True, False}
        assert rescaled >= 40 and several >= 100

    def test_export_edges_match_full_closure(self):
        """Encoded zero-valued edges, as the hybrid atom export conjoins
        them: `_with_edges` lists each tightened entry once, and closing
        from those entries equals the full closure."""
        rng = random.Random(73)
        verdicts = set()
        for _ in range(300):
            s = stp_close(random_stp(rng, rng.randint(2, 7)))
            if s.inconsistent:
                continue
            n = len(s.points)
            edges = [(*rng.sample(range(n), 2), rng.choice((0, -1)))
                     for _ in range(rng.randint(0, 4))]
            t, tightened = s._with_edges(edges)
            assert len(set(tightened)) == len(tightened)
            assert sorted(tightened) == sorted(
                (i, j) for i in range(n) for j in range(n) if t._e[i][j] != s._e[i][j])
            inc, full = stp_close(t, changed=tightened), stp_close(t)
            assert inc.inconsistent == full.inconsistent
            verdicts.add(inc.inconsistent)
            if not full.inconsistent:
                assert inc.minimal and inc._e == full._e
        assert verdicts == {True, False}

    def test_close_with_new_denominators_matches_rescaling_route(self):
        """`_close_with` a window over denominators 11 and 13 rescales the
        minimal network and closes from what the window tightened: the
        same verdict, entries and flags as conjoining into the decoded
        bounds and closing from the window's two entries
        (`oracles.rescaling_close_with`), at the least common multiple of
        the network's scale and the window's denominators."""
        rng = random.Random(139)
        verdicts, rescaled = set(), 0
        for _ in range(400):
            s = stp_close(random_stp(rng, rng.randint(2, 7)))
            if s.inconsistent:
                continue
            frm, to = rng.sample(s.points, 2)
            w = _new_denominator_window(rng) if rng.random() < 0.7 else random_window(rng)
            got, ref = metric._close_with(s, frm, to, w), rescaling_close_with(s, frm, to, w)
            assert got._d == lcm(s._d, *(v.denominator for v in (w.lo, w.hi) if v is not None))
            assert decoded(got) == decoded(ref)
            assert (got.inconsistent, got.minimal) == (ref.inconsistent, ref.minimal)
            verdicts.add(got.inconsistent)
            rescaled += got._d != s._d
        assert verdicts == {True, False}
        assert rescaled > 150

    def test_conjoining_keeps_the_inconsistent_flag(self):
        s = stp_close(STP.build(["a", "b"], [("a", "b", BoundWindow.closed(5, 6)),
                                             ("b", "a", BoundWindow.closed(0, 1))]))
        assert s.inconsistent
        wider = metric._close_with(s, "a", "b", BoundWindow.closed(0, 10))
        assert wider.inconsistent
        assert metric._close_with(s, "a", "b", BoundWindow(F(1, 3), F(7))).inconsistent
        assert s._with_edges([(0, 1, 0)])[0].inconsistent
        assert stp_close(wider, changed=[(0, 1), (1, 0)]).inconsistent
        assert stp_close(wider).inconsistent

    def test_negative_cycles_in_both_modes(self):
        """A self-window that excludes 0 is inconsistent closed from
        scratch and from its entry; so are two windows whose two-leg
        cycles fit but which close a negative cycle through a third
        point, and the result keeps the input's matrix."""
        self_window = ("a", "a", BoundWindow.closed(1, 2))
        assert stp_close(STP.build(["a", "b"], [self_window])).inconsistent
        base = stp_close(STP.build(["a", "b"]))
        assert stp_close(conjoined(base, [self_window]), changed=[(0, 0)]).inconsistent
        assert metric._close_with(base, *self_window).inconsistent
        ten = BoundWindow.closed(0, 10)
        s = stp_close(STP.build(["a", "b", "c"], [("a", "b", ten), ("b", "c", ten), ("a", "c", ten)]))
        t, tightened = s._with_edges(metric._window_edges(
            [(0, 1, BoundWindow.closed(6, 10)), (1, 2, BoundWindow.closed(6, 10))], s._d * metric._M))
        assert len(tightened) == 2 and all(t._e[i][j] + t._e[j][i] >= 0 for i, j in tightened)
        for got in (stp_close(t, changed=tightened), stp_close(t)):
            assert got.inconsistent and got._e is t._e

    def test_none_diagonal(self):
        """The kernel admits +infinity on the diagonal; both verdicts and
        the consistent closure match the tuple reference."""
        m, inf = metric._M, (None, True)
        for back in (-1, -4):
            e = [[None, 3 * m], [back * m, None]]
            u = [[inf, (F(3), False)], [(F(back), False), inf]]
            ok = metric._int_shortest_paths(e)
            assert ok == tuple_shortest_paths(u) == (back >= -3)
            if ok:
                assert [[_unscaled(v, 1, m) for v in row] for row in e] == u

    def test_tcsp_witnesses_match_rebuilt_search(self):
        """The search closing each child from its parent's minimal STP
        returns the verdict and the exact witness of closing every
        node's accumulated STP from scratch, at the scale of the windows
        it picked: per constraint, the one that holds the witness's window."""
        rng = random.Random(79)
        verdicts = set()
        for _ in range(120):
            points = ("p", "q", "r", "s", "t")[:rng.randint(2, 5)]
            cons = tuple(
                MetricConstraint(*rng.sample(points, 2),
                                 tuple(random_window(rng, 8) for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 6)))
            t = TCSP(points, cons)
            ok, witness = tcsp_consistent(t)
            ref_ok, ref = rebuild_tcsp_consistent(t)
            assert ok == ref_ok
            verdicts.add(ok)
            if ok:
                assert decoded(witness) == decoded(ref)
                got = [witness.window(c.frm, c.to) for c in cons]
                picked = [next(w for w in c.windows if w.intersect(g) == g) for c, g in zip(cons, got)]
                assert witness._d == lcm(1, *(v.denominator for w in picked
                                              for v in (w.lo, w.hi) if v is not None))
                assert witness.minimal
        assert verdicts == {True, False}


def integer_tcsps(rng, count):
    """Seeded TCSPs of closed integer windows, as the benchmark draws them."""
    out = []
    for _ in range(count):
        points = ("p", "q", "r", "s", "t")[:rng.randint(3, 5)]
        cons = []
        for _ in range(rng.randint(3, 6)):
            wins = []
            for _ in range(rng.randint(1, 3)):
                lo = rng.randint(-10, 10)
                wins.append(BoundWindow.closed(lo, lo + rng.randint(0, 4)))
            cons.append(MetricConstraint(*rng.sample(points, 2), tuple(wins)))
        out.append(TCSP(points, tuple(cons)))
    return out


def count_stp_closes(monkeypatch):
    """The networks passed to `metric.stp_close` from now on, in call order."""
    closed = []
    real = metric.stp_close
    monkeypatch.setattr(metric, "stp_close", lambda s, **kw: closed.append(s) or real(s, **kw))
    return closed


class TestHullSearch:
    def test_stp_close_calls_pinned(self, monkeypatch):
        """The hull root prunes children on a fixed set of integer TCSPs:
        330 closures before it (each child its own, no hull), fewer now,
        with the rebuilt search's verdicts and exact witnesses."""
        cases = integer_tcsps(random.Random(3), 40)
        refs = [rebuild_tcsp_consistent(t) for t in cases]
        closed = count_stp_closes(monkeypatch)
        got = [tcsp_consistent(t) for t in cases]
        assert len(closed) == 107
        assert sum(ok for ok, _ in got) == 18
        for (ok, witness), (ref_ok, ref) in zip(got, refs):
            assert ok == ref_ok
            if ok:
                assert (witness._e, witness._d) == (ref._e, ref._d)

    def test_hulls_refute_at_the_root(self, monkeypatch):
        """Each window pair alone fits, but the hulls [0, 11] + [0, 11]
        already exclude [30, 41]: one closure, no child."""
        two = (BoundWindow.closed(0, 1), BoundWindow.closed(10, 11))
        t = TCSP(("x", "y", "z"), (
            MetricConstraint("x", "y", two), MetricConstraint("y", "z", two),
            MetricConstraint("x", "z", (BoundWindow.closed(30, 31), BoundWindow.closed(40, 41)))))
        assert rebuild_tcsp_consistent(t) == (False, None)
        closed = count_stp_closes(monkeypatch)
        assert tcsp_consistent(t) == (False, None)
        assert len(closed) == 1

    def test_rational_windows_keep_the_witness_scale(self, monkeypatch):
        """No disjunctive hull with a fractional bound enters the root, so
        the root holds only the one-window constraint, at its scale 5; the
        witness has the scale and the entries of the rebuilt search's."""
        t = TCSP(("x", "y", "z"), (
            MetricConstraint("x", "y", (BoundWindow.closed(F(1, 2), 1),
                                        BoundWindow.closed(3, F(7, 2)))),
            MetricConstraint("y", "z", (BoundWindow(F(1, 3), F(2, 3), True, False),
                                        BoundWindow.closed(5, 6))),
            MetricConstraint("x", "z", (BoundWindow.closed(F(1, 5), F(37, 5)),))))
        closed = count_stp_closes(monkeypatch)
        ok, witness = tcsp_consistent(t)
        root = closed[0]
        assert root._d == 5 and root.window("x", "z") == BoundWindow.closed(F(1, 5), F(37, 5))
        assert all(v is None for i, row in enumerate(root._e) for j, v in enumerate(row)
                   if i != j and {root.points[i], root.points[j]} != {"x", "z"})
        ref_ok, ref = rebuild_tcsp_consistent(t)
        assert ok and ref_ok
        assert (witness._e, witness._d) == (ref._e, ref._d)
        assert witness._d == 30
        assert witness.window("x", "y") == BoundWindow.closed(F(1, 2), 1)

    def test_fractional_one_window_constraints_are_not_levels(self, monkeypatch):
        """One window with fractional bounds on each of the 780 pairs of 40
        points: each goes into the root, which one closure decides, so the
        search has no level to recurse through, and the witness is the
        chain's tightest closure."""
        points = [f"p{i}" for i in range(40)]
        w = BoundWindow.closed(F(1, 2), F(1000000, 3))
        t = TCSP(tuple(points), tuple(MetricConstraint(a, b, (w,))
                                      for i, a in enumerate(points) for b in points[i + 1:]))
        closed = count_stp_closes(monkeypatch)
        ok, witness = tcsp_consistent(t)
        assert ok and witness.minimal and witness._d == 6
        assert len(closed) == 1
        assert witness.window("p0", "p39") == BoundWindow.closed(F(39, 2), F(1000000, 3))
        # the other 37 legs take at least 1/2 each of p39 - p0's upper bound
        assert witness.window("p3", "p5") == BoundWindow.closed(1, F(1000000, 3) - F(37, 2))

    def test_mixed_windows_match_rebuilt_search(self):
        """On random TCSPs that mix one-window constraints with fractional
        bounds, disjunctive ones with fractional hulls and strict integer
        windows, the search from the hull root gives the rebuilt search's
        verdict and witness.  The rebuilt search keeps only the tighter of
        two bounds on one pair, and so a scale the looser one needs; when
        no two constraints share a pair, the entries and scale agree too."""
        rng = random.Random(151)

        def value(denominators):
            return F(rng.randint(-12, 12), rng.choice(denominators))

        def window(denominators, strict):
            lo, hi = sorted((value(denominators), value(denominators)))
            if lo == hi:
                return BoundWindow(lo, hi)
            return BoundWindow(lo, hi, strict and rng.random() < 0.5, strict and rng.random() < 0.5)

        kinds, verdicts, exact = Counter(), set(), Counter()
        for _ in range(400):
            points = tuple(f"p{i}" for i in range(rng.randint(2, 5)))
            cons = []
            for _ in range(rng.randint(1, 5)):
                kind = rng.choice(("fractional one", "fractional several", "strict"))
                denominators = (1,) if kind == "strict" else (2, 3, 4, 5, 6)
                count = 1 if kind == "fractional one" else rng.randint(1 + (kind != "strict"), 3)
                cons.append(MetricConstraint(*rng.sample(points, 2), tuple(
                    window(denominators, kind == "strict") for _ in range(count))))
                kinds[kind] += 1
            t = TCSP(points, tuple(cons))
            ok, witness = tcsp_consistent(t)
            ref_ok, ref = rebuild_tcsp_consistent(t)
            assert ok == ref_ok
            verdicts.add(ok)
            if ok:
                assert decoded(witness) == decoded(ref)
                shared = len({frozenset((c.frm, c.to)) for c in cons}) < len(cons)
                if not shared:
                    assert (witness._e, witness._d) == (ref._e, ref._d)
                exact[shared] += 1
        assert verdicts == {True, False} and min(kinds.values()) > 300 and min(exact.values()) > 50

    def test_implied_window_shares_the_parent(self, monkeypatch):
        """A child whose window the parent already implies tightens no
        entry: one `stp_close` call, and the child keeps the parent's
        matrix, flagged minimal."""
        s = stp_close(STP.build(["x", "y", "z"], [("x", "y", BoundWindow.closed(1, 2)),
                                                  ("y", "z", BoundWindow.closed(1, 2))]))
        closed = count_stp_closes(monkeypatch)
        child = metric._close_with(s, "x", "z", BoundWindow.closed(0, 10))
        assert len(closed) == 1
        assert child._e is s._e and child.minimal and not child.inconsistent
        tighter = metric._close_with(s, "x", "z", BoundWindow.closed(3, 10))
        assert tighter._e is not s._e
        assert tighter.window("x", "z") == BoundWindow.closed(3, 4)

    def test_with_edges_copies_only_tightened_rows(self):
        """`_with_edges` equals conjoining into a full copy, shares every
        row it does not tighten, and shares the matrix when it tightens
        nothing."""
        rng = random.Random(83)
        shared = copied = 0
        for _ in range(300):
            s = stp_close(random_stp(rng, rng.randint(2, 7)))
            n, dm = len(s.points), s._d * metric._M
            edges = [(*rng.sample(range(n), 2), rng.randint(-3 * dm, 3 * dm))
                     for _ in range(rng.randint(0, 4))]
            rows, tightened = [list(row) for row in s._e], {}
            for i, j, w in edges:
                if rows[i][j] is None or w < rows[i][j]:
                    rows[i][j] = w
                    tightened[i, j] = None
            t, got = s._with_edges(edges)
            assert t._e == tuple(map(tuple, rows)) and got == list(tightened)
            assert (t.inconsistent, t.minimal) == (s.inconsistent, False)
            touched = {i for i, _ in tightened}
            for i in range(n):
                assert (t._e[i] is s._e[i]) == (i not in touched)
            if not touched:
                assert t._e is s._e
            shared += n - len(touched)
            copied += len(touched)
        assert shared > copied > 100
