"""The package namespace and start-up: every public name resolves to its
defining module's object, and each entry point loads only the modules a
request reads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chronotext
from chronotext import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LUTHERAN = str(FIXTURES / "lutheran.rcp")
LENTILS = str(FIXTURES / "lentils.know")

# the public names, by defining module
PUBLIC = {
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
    "adaptation": "TaggedConstraint TaggedNetwork DomainKnowledge RevisionResult Edit"
                  " parse_knowledge inject revise adapt_recipe adapt_text_edits"
                  " format_revision format_edits",
    "workflow": "WorkflowNode WorkflowGraph to_workflow recipe_workflow emit_dot",
}
PUBLIC_NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


class TestPublicNames:
    def test_all_is_the_public_list(self):
        assert len(chronotext.__all__) == len(set(chronotext.__all__)) == 75
        assert set(chronotext.__all__) == {name for _, name in PUBLIC_NAMES}

    @pytest.mark.parametrize("module, name", PUBLIC_NAMES, ids=[n for _, n in PUBLIC_NAMES])
    def test_name_is_its_defining_modules_object(self, module, name):
        home = importlib.import_module(f"chronotext.{module}")
        assert getattr(chronotext, name) is getattr(home, name)

    def test_dir_lists_every_public_name(self):
        listed = dir(chronotext)
        assert "__all__" in listed and "__version__" in listed
        assert set(chronotext.__all__) <= set(listed)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from chronotext import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(chronotext.__all__)

    @pytest.mark.parametrize("name", ["realize_small", "no_such_name", "_FULL_MASK"])
    def test_other_names_raise_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(chronotext, name)
        assert not hasattr(chronotext, name)


class TestCallsResolveAtCallTime:
    """A function rebound on its defining module, as the benchmark's tracer
    rebinds it, sees the calls the CLI makes after the rebinding."""

    @staticmethod
    def _count(monkeypatch, target):
        calls = []
        module, attr = target.rsplit(".", 1)
        real = getattr(importlib.import_module(module), attr)
        monkeypatch.setattr(target, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    def test_check_calls_hybrid_close_through_its_module(self, monkeypatch, capsys):
        calls = self._count(monkeypatch, "chronotext.hybrid.hybrid_close")
        assert cli.run(["check", LUTHERAN]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == "scenario base: consistent\n"

    def test_adapt_calls_revise_through_its_module(self, monkeypatch, capsys):
        calls = self._count(monkeypatch, "chronotext.adaptation.revise")
        assert cli.run(["adapt", LUTHERAN, LENTILS]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out


def _loaded_after(code: str) -> set[str]:
    """The `chronotext` modules, `argparse`, `dataclasses`, `fractions` and
    `inspect`, if loaded, in a fresh interpreter after `code` has run."""
    src = str(Path(chronotext.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    report = ("import json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
              " if m in ('argparse', 'dataclasses', 'fractions', 'inspect')"
              " or m.split('.')[0] == 'chronotext')))")
    done = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestStartUp:
    def test_import_package_loads_no_submodule(self):
        assert _loaded_after("import chronotext") == {"chronotext"}

    def test_public_names_load_only_their_module(self):
        # and so neither `dataclasses` nor `fractions`, which `allen` does not need
        assert _loaded_after("from chronotext import QCN, close") == {
            "chronotext", "chronotext.allen"}

    def test_import_cli_loads_nothing_else(self):
        assert _loaded_after("import chronotext.cli") == {"chronotext", "chronotext.cli"}

    def test_check_loads_neither_adaptation_workflow_nor_indu(self):
        loaded = _loaded_after(f"from chronotext import cli\ncli.run(['check', {LUTHERAN!r}])")
        assert "chronotext.hybrid" in loaded
        assert not loaded & {"chronotext.adaptation", "chronotext.workflow", "chronotext.indu"}

    def test_adapt_loads_no_workflow(self):
        loaded = _loaded_after(
            f"from chronotext import cli\ncli.run(['adapt', {LUTHERAN!r}, {LENTILS!r}])")
        assert "chronotext.adaptation" in loaded
        assert "chronotext.workflow" not in loaded

    @pytest.mark.parametrize("argv", [
        ["check", LUTHERAN], ["close", LUTHERAN], ["query", LUTHERAN, "brown", "bake"],
        ["workflow", LUTHERAN], ["timeml", str(FIXTURES / "snippet.tml")],
        ["adapt", LUTHERAN, LENTILS],
    ], ids=lambda argv: argv[0])
    def test_commands_load_neither_dataclasses_nor_inspect(self, argv):
        loaded = _loaded_after(f"from chronotext import cli\ncli.run({argv!r})")
        assert not loaded & {"dataclasses", "inspect"}

    def test_star_import_loads_neither_dataclasses_nor_inspect(self):
        loaded = _loaded_after("from chronotext import *")
        assert "chronotext.workflow" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_search_modules_load_no_text_layer(self):
        loaded = _loaded_after("from chronotext import allen, cli, indu, metric")
        assert not loaded & {f"chronotext.{m}" for m in
                             ("annotation", "recipe", "hybrid", "adaptation", "workflow")}
