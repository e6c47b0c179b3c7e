"""Temporal knowledge representation and reasoning for procedural text.

The package models the instructions of a recipe-like text as networks
of temporal constraints: qualitative interval relations, qualitative
duration comparisons, metric windows over endpoints, or a hybrid of
the last two.  On top of the algebra sit a small annotation pipeline,
a revision-based adaptation engine, and a workflow-graph exporter.
"""

from .allen import (
    EMPTY, FULL, IDENTITY, BaseRelation, QCN, Relation, atomic_consistent,
    close, format_qcn, parse_qcn,
)
from .indu import (
    INDU_IDENTITY, INDU_TAUTOLOGY, INDUAtom, INDUNetwork, INDURelation,
    indu_close, indu_compose, indu_converse, project_allen, project_relation,
    valid_atoms,
)
from .metric import (
    FOREVER, POSITIVE, BoundWindow, MetricConstraint, STP, ScaleBoundExceeded,
    TCSP, end_of, format_stp, metric_to_allen, start_of, stp_close,
    tcsp_consistent,
)
from .hybrid import (
    HybridNetwork, format_hybrid, hybrid_atomic_consistent, hybrid_close,
)
from .recipe import (
    ActionNode, AlternativeBranch, PhenomenonTag, Recipe, RepetitionMarker,
    StateNode, TimerNode, duration_cap, encode_duration, encode_recipe,
    phenomena_coverage,
)
from .annotation import (
    AnnotatedDoc, AnnotationError, DEFAULT_RELTYPE_MAP, Event, Instance,
    RecipeSyntaxError, Signal, TLink, doc_to_qcn, parse_recipe_dsl,
    parse_timeml, serialize_recipe_dsl,
)
from .adaptation import (
    DomainKnowledge, Edit, RevisionResult, TaggedConstraint, TaggedNetwork,
    adapt_recipe, adapt_text_edits, format_edits, format_revision, inject,
    parse_knowledge, remove_entities, revise, tag_soft,
)
from .workflow import (
    WorkflowGraph, WorkflowNode, emit_dot, recipe_workflow, to_workflow,
)

__version__ = "0.1.0"

__all__ = [
    "BaseRelation", "Relation", "QCN", "EMPTY", "FULL", "IDENTITY",
    "close", "atomic_consistent", "format_qcn", "parse_qcn",
    "INDUAtom", "INDURelation", "INDUNetwork", "INDU_IDENTITY",
    "INDU_TAUTOLOGY", "indu_converse", "indu_compose", "indu_close",
    "project_allen", "project_relation", "valid_atoms",
    "BoundWindow", "STP", "TCSP", "MetricConstraint", "POSITIVE", "FOREVER",
    "ScaleBoundExceeded", "start_of", "end_of", "stp_close", "tcsp_consistent",
    "metric_to_allen", "format_stp",
    "HybridNetwork", "hybrid_close", "hybrid_atomic_consistent",
    "format_hybrid",
    "Recipe", "ActionNode", "StateNode", "TimerNode", "RepetitionMarker",
    "AlternativeBranch", "PhenomenonTag", "encode_recipe", "encode_duration",
    "duration_cap", "phenomena_coverage",
    "AnnotatedDoc", "Event", "Instance", "Signal", "TLink",
    "AnnotationError", "RecipeSyntaxError", "DEFAULT_RELTYPE_MAP",
    "parse_timeml", "doc_to_qcn", "parse_recipe_dsl", "serialize_recipe_dsl",
    "TaggedConstraint", "TaggedNetwork", "DomainKnowledge", "RevisionResult",
    "Edit", "tag_soft", "remove_entities", "parse_knowledge", "inject",
    "revise", "adapt_recipe", "adapt_text_edits", "format_revision",
    "format_edits",
    "WorkflowNode", "WorkflowGraph", "to_workflow", "recipe_workflow",
    "emit_dot",
]
