"""Temporal knowledge representation and reasoning for procedural text.

The package models the instructions of a recipe-like text as networks
of temporal constraints: qualitative interval relations, qualitative
duration comparisons, metric windows over endpoints, or a hybrid of
the last two.  On top of the algebra sit a small annotation pipeline,
a revision-based adaptation engine, and a workflow-graph exporter.

Every public name is listed once, in `_EXPORTS`, under the module that
defines it.  Importing the package loads none of those modules: the
first read of a name imports its module (PEP 562), and every read
returns that module's current attribute, so `from chronotext import
QCN, close` loads only `allen`.  `__all__` and `dir()` come from the
same table.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> its public names, in `__all__` order
_EXPORTS = {
    "allen": "BaseRelation Relation QCN EMPTY FULL IDENTITY close atomic_consistent"
             " format_qcn parse_qcn",
    "indu": "INDUAtom INDURelation INDUNetwork INDU_IDENTITY INDU_TAUTOLOGY indu_close"
            " project_allen valid_atoms",
    "metric": "BoundWindow STP TCSP MetricConstraint POSITIVE FOREVER ScaleBoundExceeded"
              " start_of end_of stp_close tcsp_consistent metric_to_allen format_stp",
    "hybrid": "HybridNetwork hybrid_close hybrid_atomic_consistent format_hybrid",
    "recipe": "Recipe ActionNode StateNode TimerNode RepetitionMarker AlternativeBranch"
              " PhenomenonTag encode_recipe encode_duration duration_cap phenomena_coverage",
    "annotation": "AnnotatedDoc Event Instance Signal TLink AnnotationError RecipeSyntaxError"
                  " DEFAULT_RELTYPE_MAP parse_timeml doc_to_qcn parse_recipe_dsl"
                  " serialize_recipe_dsl",
    "adaptation": "TaggedConstraint TaggedNetwork DomainKnowledge RevisionResult Edit tag_soft"
                  " parse_knowledge inject revise adapt_recipe adapt_text_edits"
                  " format_revision format_edits",
    "workflow": "WorkflowNode WorkflowGraph to_workflow recipe_workflow emit_dot",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
