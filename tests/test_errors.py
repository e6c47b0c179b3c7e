"""Errors the public API raises on malformed calls that the behavioural
tests do not make: one case per `raise`, with its exception type and
message."""

import pytest

from chronotext.adaptation import DomainKnowledge, TaggedConstraint, TaggedNetwork
from chronotext.allen import QCN, Relation, parse_qcn
from chronotext.hybrid import HybridNetwork
from chronotext.indu import INDURelation
from chronotext.metric import STP, BoundWindow, stp_close
from chronotext.recipe import ActionNode, AlternativeBranch, Recipe
from chronotext.workflow import WorkflowGraph, WorkflowNode, to_workflow

R = Relation.parse
W = BoundWindow.closed(1, 2)
A, B = WorkflowNode("a", "action"), WorkflowNode("b", "action")


def stp_window_of_inconsistent():
    s = STP.build(["a", "b"], [("a", "b", W), ("b", "a", W)])
    stp_close(s).window("a", "b")


def unclosed_workflow():
    # a {b} b and b {b} c, with a-c left open: the network is not closed
    h = HybridNetwork.build(["a", "b", "c"], [("a", R("{b}"), "b"), ("b", R("{b}"), "c")])
    to_workflow([("s", h)])


def setattr_on(value):
    def set_it():
        value.intervals = ()
    return set_it


CASES = {
    "relation-braces": (lambda: R("b,m"), ValueError,
                        "relation must be brace-delimited: 'b,m'"),
    "qcn-duplicate-ids": (lambda: QCN(["a", "a"]), ValueError, "duplicate interval ids"),
    "build-duplicate-ids": (lambda: QCN.build(["a", "a"]), ValueError,
                            "duplicate interval ids"),
    "build-unknown-interval": (lambda: QCN.build(["a"], [("a", R("{b}"), "z")]), KeyError,
                               "unknown interval 'z'"),
    "parse-qcn-line": (lambda: parse_qcn("intervals a b\na b\n"), ValueError,
                       "bad constraint line: 'a b'"),
    "indu-caret": (lambda: INDURelation.parse("{b}"), ValueError,
                   "INDU atom must be allen^sign: 'b'"),
    "indu-sign": (lambda: INDURelation.parse("{b^?}"), ValueError, "unknown duration sign '?'"),
    "stp-unknown-from": (lambda: STP.build(["a"], [("z", "a", W)]), KeyError,
                         "unknown point 'z'"),
    "stp-window-inconsistent": (stp_window_of_inconsistent, ValueError,
                                "windows are undefined on an inconsistent network"),
    "recipe-preliminary-kind": (
        lambda: Recipe("T", preliminaries=(ActionNode("p", "x"),)), ValueError,
        "'p' listed as preliminary but kind is 'step'"),
    "recipe-step-kind": (
        lambda: Recipe("T", steps=(ActionNode("s", "x", kind="preliminary"),)), ValueError,
        "'s' listed as step but kind is 'preliminary'"),
    "recipe-duplicate-branch": (
        lambda: Recipe("T", steps=(ActionNode("a", "x"), ActionNode("b", "y")),
                       branches=(AlternativeBranch("h", ("a",)),
                                 AlternativeBranch("h", ("b",)))),
        ValueError, "duplicate branch id 'h'"),
    "tagged-metric-with-cell": (
        lambda: TaggedConstraint("x", "metric", "a", "b", cell=R("{b}"), window=W),
        ValueError, "metric constraint needs a window only"),
    "tagged-kind": (lambda: TaggedConstraint("x", "point", "a", "b"), ValueError,
                    "bad kind 'point'"),
    "tagged-network-duplicate": (
        lambda: TaggedNetwork(["a", "b"], (
            TaggedConstraint.allen("a", R("{b}"), "b", "recipe-soft"),
            TaggedConstraint.allen("a", R("{m}"), "b", "recipe-soft"))),
        ValueError, "duplicate constraint id 'a~b:soft'"),
    "knowledge-duplicate-node": (
        lambda: DomainKnowledge("k", steps=(ActionNode("z", "x"), ActionNode("z", "y"))),
        ValueError, "duplicate node id in knowledge"),
    "knowledge-unknown-relation-id": (
        lambda: DomainKnowledge("k", steps=(ActionNode("z", "x"),),
                                relations=(("z", R("{b}"), "q"),)),
        ValueError, "relation mentions unknown id 'q'"),
    "knowledge-unknown-duration-node": (
        lambda: DomainKnowledge("k", anchors=("a",), durations=(("a", W),)),
        ValueError, "duration/link on unknown node 'a'"),
    "workflow-edge-style": (lambda: WorkflowGraph((A, B), (("a", "b", "dotted"),)), ValueError,
                            "bad edge style 'dotted'"),
    "workflow-loop-member": (lambda: WorkflowGraph((A, B), (), (("a", ("z",)),)), ValueError,
                             "loop body mentions unknown node"),
    "workflow-not-transitive": (unclosed_workflow, ValueError, "precedence is not transitive"),
    "qcn-immutable": (setattr_on(QCN(["a"])), AttributeError, "QCN is immutable"),
    "stp-immutable": (setattr_on(STP.build(["a"])), AttributeError, "STP is immutable"),
    "hybrid-immutable": (setattr_on(HybridNetwork.build(["a"])), AttributeError,
                         "HybridNetwork is immutable"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_public_api_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert err.value.args == (message,)
