"""The value records: each of the package's 21 immutable records keeps the
contract it had as a frozen dataclass (constructor signature, equality,
hashing, immutability, `replace` and `repr`), and every value, records,
relations and networks alike, survives pickling and deep copying.  A
subclass that declares `__slots__ = ()` keeps all of that, by its
parent's fields."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from chronotext.adaptation import (
    DomainKnowledge,
    Edit,
    RevisionResult,
    TaggedConstraint,
    TaggedNetwork,
)
from chronotext.allen import QCN, Relation
from chronotext.annotation import AnnotatedDoc, Event, Instance, Signal, TLink
from chronotext.hybrid import HybridNetwork, hybrid_close
from chronotext.indu import INDUNetwork, INDURelation
from chronotext.metric import STP, TCSP, BoundWindow, MetricConstraint, stp_close
from chronotext.recipe import (
    ActionNode,
    AlternativeBranch,
    Recipe,
    RepetitionMarker,
    StateNode,
    TimerNode,
)
from chronotext.workflow import WorkflowGraph, WorkflowNode

R = Relation.parse
REQUIRED = inspect.Parameter.empty

# Each record's constructor parameters with their defaults: the fields of
# the frozen dataclass it was, in their order.
SIGNATURES = {
    BoundWindow: (("lo", REQUIRED), ("hi", REQUIRED), ("lo_strict", False), ("hi_strict", False)),
    MetricConstraint: (("frm", REQUIRED), ("to", REQUIRED), ("windows", REQUIRED)),
    TCSP: (("points", REQUIRED), ("constraints", REQUIRED)),
    ActionNode: (("id", REQUIRED), ("verb", REQUIRED), ("objects", ()), ("span", None),
                 ("kind", "step"), ("meanwhile", False)),
    StateNode: (("id", REQUIRED), ("predicate", REQUIRED), ("span", None)),
    TimerNode: (("id", REQUIRED), ("window", REQUIRED)),
    RepetitionMarker: (("target", REQUIRED), ("mode", REQUIRED), ("ref", None), ("count", None)),
    AlternativeBranch: (("id", REQUIRED), ("members", REQUIRED), ("guard", "")),
    Recipe: (("title", REQUIRED), ("preliminaries", ()), ("steps", ()), ("states", ()),
             ("timers", ()), ("relations", ()), ("markers", ()), ("branches", ()),
             ("durations", ()), ("until_links", ()), ("last_links", ())),
    Event: (("eid", REQUIRED), ("eclass", REQUIRED), ("text", REQUIRED), ("span", REQUIRED),
            ("offset", None)),
    Instance: (("eiid", REQUIRED), ("event_id", REQUIRED), ("tense", REQUIRED),
               ("aspect", REQUIRED), ("pos", REQUIRED), ("offset", None)),
    Signal: (("sid", REQUIRED), ("text", REQUIRED), ("span", REQUIRED), ("offset", None)),
    TLink: (("event_instance_id", REQUIRED), ("signal_id", REQUIRED),
            ("related_to_event", REQUIRED), ("rel_type", REQUIRED), ("offset", None)),
    AnnotatedDoc: (("source", REQUIRED), ("text", REQUIRED), ("events", REQUIRED),
                   ("instances", REQUIRED), ("signals", REQUIRED), ("tlinks", REQUIRED)),
    TaggedConstraint: (("id", REQUIRED), ("kind", REQUIRED), ("frm", REQUIRED), ("to", REQUIRED),
                       ("cell", None), ("window", None), ("provenance", "recipe-soft")),
    TaggedNetwork: (("intervals", REQUIRED), ("constraints", REQUIRED), ("anon_points", ()),
                    ("new_nodes", ()), ("anchors", ())),
    DomainKnowledge: (("name", REQUIRED), ("removals", ()), ("anchors", ()), ("steps", ()),
                      ("states", ()), ("timers", ()), ("relations", ()), ("durations", ()),
                      ("until_links", ()), ("lines", ())),
    RevisionResult: (("revised", REQUIRED), ("retained", REQUIRED), ("relaxed", REQUIRED),
                     ("witness", REQUIRED), ("tagged", REQUIRED)),
    Edit: (("span", REQUIRED), ("op", REQUIRED), ("payload", "")),
    WorkflowNode: (("id", REQUIRED), ("kind", REQUIRED), ("label", "")),
    WorkflowGraph: (("nodes", REQUIRED), ("edges", REQUIRED), ("loops", ())),
}

W = BoundWindow.closed(1, Fraction(5, 2))
W_REPR = "BoundWindow(lo=Fraction(1, 1), hi=Fraction(5, 2), lo_strict=False, hi_strict=False)"
H = HybridNetwork.build(["a", "b"], [("b", R("{b}"), "a")])
C = TaggedConstraint.allen("b", R("{b,m}"), "a", "domain-hard")
C_REPR = ("TaggedConstraint(id='a~b:hard', kind='allen', frm='a', to='b',"
          " cell=Relation.parse('{bi,mi}'), window=None, provenance='domain-hard')")
T = TaggedNetwork(["a", "b"], (C,), ["o"], (("b", "stir"),), ("a",))
T_REPR = (f"TaggedNetwork(intervals=('a', 'b'), constraints=({C_REPR},), anon_points=('o',),"
          " new_nodes=(('b', 'stir'),), anchors=('a',))")


def node_repr(id_, verb):
    return (f"ActionNode(id='{id_}', verb='{verb}', objects=(), span=None, kind='step',"
            " meanwhile=False)")


# Per record: one instance, its repr as the frozen dataclass printed it,
# and a change that `replace` must reject (None for a record that checks
# nothing).
SAMPLES = {
    BoundWindow: (W, W_REPR, {"lo": 3, "hi": 2}),
    MetricConstraint: (
        MetricConstraint("a", "b", (BoundWindow.closed(7, 9), W)),
        f"MetricConstraint(frm='a', to='b', windows=({W_REPR}, BoundWindow(lo=Fraction(7, 1),"
        " hi=Fraction(9, 1), lo_strict=False, hi_strict=False)))",
        {"windows": ()}),
    TCSP: (TCSP(("a", "b"), (MetricConstraint("a", "b", (W,)),)),
           f"TCSP(points=('a', 'b'), constraints=(MetricConstraint(frm='a', to='b',"
           f" windows=({W_REPR},)),))",
           None),
    ActionNode: (ActionNode("x", "boil", ("water",), (0, 9)),
                 "ActionNode(id='x', verb='boil', objects=('water',), span=(0, 9), kind='step',"
                 " meanwhile=False)",
                 {"kind": "preliminary", "meanwhile": True}),
    StateNode: (StateNode("x.until", "soft", (0, 9)),
                "StateNode(id='x.until', predicate='soft', span=(0, 9))", None),
    TimerNode: (TimerNode("t", W), f"TimerNode(id='t', window={W_REPR})",
                {"window": BoundWindow.closed(0, 1)}),
    RepetitionMarker: (RepetitionMarker("x", "count", count=3),
                       "RepetitionMarker(target='x', mode='count', ref=None, count=3)",
                       {"ref": "x.until"}),
    AlternativeBranch: (AlternativeBranch("b1", ("x",), "if dry"),
                        "AlternativeBranch(id='b1', members=('x',), guard='if dry')", None),
    Recipe: (Recipe("T", steps=(ActionNode("x", "boil"),), durations=(("x", W),)),
             f"Recipe(title='T', preliminaries=(), steps=({node_repr('x', 'boil')},),"
             " states=(), timers=(), relations=(), markers=(), branches=(),"
             f" durations=(('x', {W_REPR}),), until_links=(), last_links=())",
             {"durations": (("y", W),)}),
    Event: (Event("e1", "OCCURRENCE", "boil", (0, 4), 12),
            "Event(eid='e1', eclass='OCCURRENCE', text='boil', span=(0, 4), offset=12)", None),
    Instance: (Instance("ei1", "e1", "NONE", "NONE", "VERB", 3),
               "Instance(eiid='ei1', event_id='e1', tense='NONE', aspect='NONE', pos='VERB',"
               " offset=3)", None),
    Signal: (Signal("s1", "then", (5, 9), 4),
             "Signal(sid='s1', text='then', span=(5, 9), offset=4)", None),
    TLink: (TLink("ei1", "s1", "ei2", "BEFORE", 8),
            "TLink(event_instance_id='ei1', signal_id='s1', related_to_event='ei2',"
            " rel_type='BEFORE', offset=8)", None),
    AnnotatedDoc: (AnnotatedDoc("<S>boil</S>", "boil", (), (), (), ()),
                   "AnnotatedDoc(source='<S>boil</S>', text='boil', events=(), instances=(),"
                   " signals=(), tlinks=())", None),
    TaggedConstraint: (C, C_REPR, {"provenance": "domain-soft"}),
    TaggedNetwork: (T, T_REPR, {"constraints": (C, C)}),
    DomainKnowledge: (
        DomainKnowledge("k", ("p",), ("a",), (ActionNode("z", "stir"),),
                        relations=(("z", R("{b}"), "a"),)),
        f"DomainKnowledge(name='k', removals=('p',), anchors=('a',),"
        f" steps=({node_repr('z', 'stir')},), states=(), timers=(),"
        " relations=(('z', Relation.parse('{b}'), 'a'),), durations=(), until_links=(),"
        " lines=())",
        {"anchors": ()}),
    RevisionResult: (RevisionResult(T.network, (), (), H, T),
                     "RevisionResult(revised=HybridNetwork(<2 intervals>), retained=(),"
                     f" relaxed=(), witness=HybridNetwork(<2 intervals>), tagged={T_REPR})",
                     None),
    Edit: (Edit((0, 4), "insert-after", "stir"),
           "Edit(span=(0, 4), op='insert-after', payload='stir')", None),
    WorkflowNode: (WorkflowNode("n", "action", "boil"),
                   "WorkflowNode(id='n', kind='action', label='boil')", {"kind": "task"}),
    WorkflowGraph: (WorkflowGraph((WorkflowNode("a", "action"), WorkflowNode("b", "action")),
                                  (("a", "b", ""),)),
                    "WorkflowGraph(nodes=(WorkflowNode(id='a', kind='action', label=''),"
                    " WorkflowNode(id='b', kind='action', label='')), edges=(('a', 'b', ''),),"
                    " loops=())",
                    {"edges": (("a", "z", ""),)}),
}
RECORDS = list(SAMPLES)
IDS = [cls.__name__ for cls in RECORDS]


def fields_of(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__slots__}


def test_the_table_names_every_record():
    assert len(RECORDS) == len(SIGNATURES) == 21
    assert set(RECORDS) == set(SIGNATURES)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
class TestRecordContract:
    def test_constructor_takes_the_dataclass_fields(self, cls):
        params = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
        assert params == list(SIGNATURES[cls])
        assert cls.__slots__ == tuple(name for name, _ in SIGNATURES[cls])

    def test_never_equal_to_a_tuple_or_another_class(self, cls):
        value = SAMPLES[cls][0]
        assert value != tuple(fields_of(value).values())
        twin = type(cls.__name__, (cls,), {})(**fields_of(value))
        assert value != twin and twin != value
        assert repr(twin) == repr(value)

    def test_equal_records_hash_equal(self, cls):
        value = SAMPLES[cls][0]
        rebuilt = cls(**fields_of(value))
        assert rebuilt is not value
        assert rebuilt == value and hash(rebuilt) == hash(value)
        if "offset" in cls.__slots__:  # where a TimeML element starts: not compared
            moved = value.replace(offset=99)
            assert moved == value and hash(moved) == hash(value)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        value = SAMPLES[cls][0]
        for name in cls.__slots__:
            with pytest.raises(AttributeError) as err:
                setattr(value, name, None)
            assert err.value.args == (f"{cls.__name__} is immutable",)
            with pytest.raises(AttributeError) as err:
                delattr(value, name)
            assert err.value.args == (f"{cls.__name__} is immutable",)

    def test_replace_goes_through_the_constructor(self, cls):
        value, _, invalid = SAMPLES[cls]
        assert value.replace() == value
        with pytest.raises(TypeError):
            value.replace(no_such_field=1)
        if invalid is not None:
            with pytest.raises(ValueError):
                value.replace(**invalid)

    def test_repr_is_the_dataclass_form(self, cls):
        value, expected, _ = SAMPLES[cls]
        assert repr(value) == expected


OTHER_VALUES = {
    "Relation": R("{b,oi,e}"),
    "QCN": QCN(["a", "b", "c"], [("a", R("{b,m}"), "b"), ("b", R("{o}"), "c")]),
    "STP": stp_close(STP(["p", "q"], [("p", "q", W)])),
    "HybridNetwork": hybrid_close(HybridNetwork.build(["a", "b"], [("a", R("{b}"), "b")],
                                                      [("a.end", "b.start", W)], ["z"])),
}
VALUES = {cls.__name__: SAMPLES[cls][0] for cls in RECORDS} | OTHER_VALUES


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize("roundtrip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "pickle-protocol-0", "deepcopy", "copy"])
def test_round_trip_keeps_the_value(value, roundtrip):
    twin = roundtrip(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    slots = [n for c in type(value).__mro__ for n in c.__dict__.get("__slots__", ())]
    for name in slots:
        assert getattr(twin, name) == getattr(value, name)


class TestPrintedForms:
    """The string forms and inequalities of the values outside the record table."""

    def test_tagged_constraint_str(self):
        assert str(TaggedConstraint.allen("a", R("{b,m}"), "b", "recipe-soft")) \
            == "[a~b:soft] a {b,m} b"
        assert str(TaggedConstraint.metric("b.start", "a.end", BoundWindow.closed(-10, -5),
                                           "domain-hard")) \
            == "[a.end~b.start:hard] b.start - a.end in [5, 10]"

    def test_network_repr_and_len(self):
        net = QCN(["a", "b"], [("a", R("{b}"), "b")])
        assert repr(net) == "QCN(['a', 'b'], <2x2>)"
        assert len(net) == 2

    def test_stp_repr(self):
        stp = STP(["p", "q"], [("p", "q", W)])
        assert repr(stp) == "STP(<2 points>)"
        broken = stp_close(STP(["p", "q"], [("p", "q", W), ("q", "p", W)]))
        assert repr(broken) == "STP(<2 points> inconsistent)"

    def test_stp_inequality(self):
        stp = STP(["p", "q"], [("p", "q", W)])
        assert stp != STP(["p", "r"], [("p", "r", W)])
        assert stp != STP(["q", "p"], [("p", "q", W)])
        broken = stp_close(STP(["p", "q"], [("p", "q", W), ("q", "p", W)]))
        assert broken.inconsistent
        assert broken != STP._raw(broken.points, broken._index, broken._e, broken._d)


def slotless(cls: type) -> type:
    """A subclass of `cls` that declares `__slots__ = ()`, bound at module
    level under its own name so that pickle finds it."""
    sub = type(f"Slotless{cls.__name__}", (cls,), {"__slots__": ()})
    globals()[sub.__name__] = sub
    return sub


SLOTLESS = {cls: slotless(cls) for cls in [*RECORDS, Relation, INDURelation, QCN, INDUNetwork]}

# Per record: a valid change of one compared field.
CHANGES = {
    BoundWindow: {"hi": Fraction(3)},
    MetricConstraint: {"to": "c"},
    TCSP: {"constraints": ()},
    ActionNode: {"verb": "stir"},
    StateNode: {"predicate": "hard"},
    TimerNode: {"id": "u"},
    RepetitionMarker: {"count": 4},
    AlternativeBranch: {"guard": "if wet"},
    Recipe: {"title": "U"},
    Event: {"text": "stir"},
    Instance: {"tense": "PAST"},
    Signal: {"text": "after"},
    TLink: {"rel_type": "AFTER"},
    AnnotatedDoc: {"text": "stir"},
    TaggedConstraint: {"frm": "c"},
    TaggedNetwork: {"anchors": ()},
    DomainKnowledge: {"name": "j"},
    RevisionResult: {"retained": ("x",)},
    Edit: {"payload": "fold"},
    WorkflowNode: {"label": "stir"},
    WorkflowGraph: {"loops": (("a", ("b",)),)},
}

ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-protocol-0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
class TestSlotlessRecordSubclass:
    """A record's subclass with `__slots__ = ()` stores, compares, hashes,
    prints, replaces and pickles by the record's own fields."""

    def twin(self, cls):
        value = SAMPLES[cls][0]
        return value, SLOTLESS[cls](**fields_of(value))

    def test_stores_the_parent_fields(self, cls):
        value, twin = self.twin(cls)
        assert SLOTLESS[cls]._fields == cls.__slots__
        assert {n: getattr(twin, n) for n in cls.__slots__} == fields_of(value)

    def test_compares_and_hashes_by_the_fields(self, cls):
        value, twin = self.twin(cls)
        again = SLOTLESS[cls](**fields_of(value))
        assert twin == again and hash(twin) == hash(again)
        assert twin != value and value != twin
        changed = twin.replace(**CHANGES[cls])
        assert type(changed) is SLOTLESS[cls]
        assert {n: getattr(changed, n) for n in cls.__slots__} == fields_of(value) | CHANGES[cls]
        assert changed != twin and twin != changed

    def test_repr_shows_the_fields_under_its_own_name(self, cls):
        value, twin = self.twin(cls)
        assert repr(twin) == f"Slotless{repr(value)}"

    def test_replace_goes_through_the_constructor(self, cls):
        value, twin = self.twin(cls)
        assert twin.replace() == twin
        with pytest.raises(TypeError):
            twin.replace(no_such_field=1)
        invalid = SAMPLES[cls][2]
        if invalid is not None:
            with pytest.raises(ValueError):
                twin.replace(**invalid)

    @pytest.mark.parametrize("roundtrip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_round_trip_keeps_the_value(self, cls, roundtrip):
        value, twin = self.twin(cls)
        back = roundtrip(twin)
        assert type(back) is SLOTLESS[cls]
        assert back == twin and hash(back) == hash(twin)
        assert back != twin.replace(**CHANGES[cls])
        assert {n: getattr(back, n) for n in cls.__slots__} == fields_of(value)


PAIRS = [("a", R("{b,m}"), "b"), ("b", R("{o}"), "c")]
INDU_PAIRS = [("a", INDURelation.parse("{b^<,m^=}"), "b")]
# Per relation and network class: a value and another of that class.
SLOTLESS_OTHERS = {
    Relation: (lambda c: c(R("{b,oi,e}").mask), lambda c: c(R("{b}").mask)),
    INDURelation: (lambda c: c.parse("{b^<,m^=}"), lambda c: c.parse("{b^<}")),
    QCN: (lambda c: c(["a", "b", "c"], PAIRS), lambda c: c(["a", "b", "c"], PAIRS[:1])),
    INDUNetwork: (lambda c: c(["a", "b"], INDU_PAIRS), lambda c: c(["a", "b"])),
}


@pytest.mark.parametrize("cls", SLOTLESS_OTHERS, ids=[c.__name__ for c in SLOTLESS_OTHERS])
class TestSlotlessRelationAndNetworkSubclass:
    """Relations and networks take equality, hashing and pickling from
    `Value`, so a subclass with `__slots__ = ()` keeps them too."""

    def test_compares_and_hashes_by_the_fields(self, cls):
        sub = SLOTLESS[cls]
        build, build_other = SLOTLESS_OTHERS[cls]
        value, twin, again = build(cls), build(sub), build(sub)
        assert type(twin) is sub
        assert twin == again and hash(twin) == hash(again)
        assert twin != value and value != twin
        assert twin != build_other(sub)

    @pytest.mark.parametrize("roundtrip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_round_trip_keeps_the_value(self, cls, roundtrip):
        sub = SLOTLESS[cls]
        twin = SLOTLESS_OTHERS[cls][0](sub)
        back = roundtrip(twin)
        assert type(back) is sub
        assert back == twin and hash(back) == hash(twin)


def test_calculi_never_compare_equal_over_the_same_masks():
    qcn = QCN(["a", "b"], [("a", R("{b,m}"), "b")])
    indu = INDUNetwork._raw(qcn.intervals, qcn._matrix, qcn._index)
    assert indu._matrix == qcn._matrix
    assert qcn != indu and indu != qcn
    mask = R("{b,m}").mask
    assert Relation(mask) != INDURelation(mask) and INDURelation(mask) != Relation(mask)
