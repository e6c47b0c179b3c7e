"""The value records: each of the package's 21 immutable records keeps the
contract it had as a frozen dataclass (constructor signature, equality,
hashing, immutability, `replace` and `repr`), and every value, records,
relations and networks alike, survives pickling and deep copying."""

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
    TaggedNetwork: (("network", REQUIRED), ("constraints", REQUIRED), ("new_nodes", ()),
                    ("anchors", ())),
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
H = HybridNetwork.build(["a", "b"], [("a", R("{b}"), "b")])
C = TaggedConstraint.allen("b", R("{b,m}"), "a", "domain-hard")
C_REPR = ("TaggedConstraint(id='a~b:hard', kind='allen', frm='a', to='b',"
          " cell=Relation.parse('{bi,mi}'), window=None, provenance='domain-hard')")
T = TaggedNetwork(H, (C,), (("b", "stir"),), ("a",))
T_REPR = (f"TaggedNetwork(network=HybridNetwork(<2 intervals>), constraints=({C_REPR},),"
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
    RevisionResult: (RevisionResult(H, ("a~b:hard",), (), H, T),
                     "RevisionResult(revised=HybridNetwork(<2 intervals>), retained=('a~b:hard',),"
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
