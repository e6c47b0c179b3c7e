"""Command-line behaviour: outputs, exit codes, stream separation."""

import argparse
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chronotext
from chronotext.allen import Relation
from chronotext.annotation import DEFAULT_RELTYPE_MAP, parse_recipe_dsl
from chronotext.cli import _parser, run
from chronotext.metric import BoundWindow
from chronotext.recipe import encode_recipe

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

LUTHERAN = str(FIXTURES / "lutheran.rcp")
RELISH = str(FIXTURES / "hot_relish.rcp")
CYCLIC = str(FIXTURES / "cyclic.rcp")
SNIPPET = str(FIXTURES / "snippet.tml")
LENTILS = str(FIXTURES / "lentils.know")


class TestCheck:
    def test_consistent_recipe(self, capsys):
        assert run(["check", LUTHERAN]) == 0
        out = capsys.readouterr()
        assert out.out == "scenario base: consistent\n"
        assert out.err == ""

    def test_branched_recipe_lists_scenarios(self, capsys):
        assert run(["check", RELISH]) == 0
        assert capsys.readouterr().out == ("scenario base: consistent\n"
                                           "scenario hot: consistent\n")

    def test_inconsistent_recipe(self, capsys):
        assert run(["check", CYCLIC]) == 1
        assert capsys.readouterr().out == "scenario base: inconsistent\n"

    def test_annotation_file(self, capsys):
        assert run(["check", SNIPPET]) == 0
        assert capsys.readouterr().out == "scenario document: consistent\n"

    def test_missing_file(self, capsys):
        assert run(["check", str(FIXTURES / "ghost.rcp")]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error" in out.err

    def test_unknown_extension(self, capsys, tmp_path):
        other = tmp_path / "recipe.txt"
        other.write_text("recipe \"x\"\n")
        assert run(["check", str(other)]) == 2
        assert "extension" in capsys.readouterr().err

    def test_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.rcp"
        bad.write_text('recipe "x"\nstep only-half\n')
        assert run(["check", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_directory(self, capsys):
        assert run(["check", str(FIXTURES)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert out.err.count("\n") == 1

    def test_non_utf8_bytes(self, capsys, tmp_path):
        bad = tmp_path / "latin1.rcp"
        bad.write_bytes('recipe "x"\nstep a "saut\u00e9"\n'.encode("latin-1"))
        assert run(["check", str(bad)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("name, message", [
        ("duplicate_alt.rcp", "error: line 6: duplicate branch id 'pasta'\n"),
        ("meanwhile_head.rcp",
         "error: line 5: step 'b' is marked meanwhile but has no antecedent\n"),
        ("zero_denominator.rcp",
         "error: line 2: cannot parse duration phrase '1/0 min'\n"),
        ("repeated_clause.rcp", "error: line 3: repeated step clause 'until'\n"),
        ("endpoint_id.rcp",
         "error: line 3: id 'x.end' ends in '.end', reserved for interval endpoints\n"),
    ])
    def test_malformed_fixture_is_a_syntax_error(self, capsys, name, message):
        """Faults the parser once passed on to the recipe and the encoder,
        which exited 1 (inconsistent) and named no line, crashed with a
        traceback (a zero denominator), or let `adapt` exit 1 on a recipe
        `check` found consistent (an id ending in `.end`)."""
        assert run(["check", str(FIXTURES / name)]) == 2
        assert capsys.readouterr() == ("", message)

    def test_too_many_alt_blocks_build_nothing(self, capsys, monkeypatch):
        """13 alt blocks would make 8,192 scenarios: every command that
        encodes them all exits 3 with one error line, and no scenario
        network is built first."""
        from chronotext.hybrid import HybridNetwork
        builds = []
        real = HybridNetwork.build.__func__
        monkeypatch.setattr(HybridNetwork, "build", classmethod(
            lambda cls, *args, **kw: builds.append(args) or real(cls, *args, **kw)))
        path = str(FIXTURES / "many_alts.rcp")
        for argv in (["check", path], ["close", path], ["workflow", path],
                     ["query", path, "cook", "serve"]):
            assert run(argv) == 3
            assert capsys.readouterr() == ("", "error: 13 alt blocks exceed the bound of 12\n")
        assert builds == []

    @pytest.mark.parametrize("line", ["rel x {b} zz", "sporadic x in y extra"])
    def test_undeclared_id_or_trailing_tokens(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.rcp"
        bad.write_text(f'recipe "r"\nstep x "stir"\nstep y "simmer"\n{line}\n')
        assert run(["check", str(bad)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 4" in out.err


class TestQuery:
    def test_closed_relation_and_window(self, capsys):
        assert run(["query", LUTHERAN, "mince_garlic", "prepare_pasta"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "scenario base",
            "{b}",
            "start(prepare_pasta) - start(mince_garlic) in (0, inf)",
        ]

    def test_duration_bounded_pair(self, capsys):
        assert run(["query", LUTHERAN, "bake", "remove_cover"]) == 0
        out = capsys.readouterr().out
        assert "{di}" in out.splitlines()

    def test_unknown_interval(self, capsys):
        assert run(["query", LUTHERAN, "mince_garlic", "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_unknown_interval_message_unquoted(self, capsys):
        assert run(["query", LUTHERAN, "mince_garlic", "zz"]) == 2
        assert capsys.readouterr().err == "error: unknown interval 'zz'\n"

    def test_inconsistent_network(self, capsys):
        assert run(["query", CYCLIC, "s1", "s2"]) == 1
        assert "inconsistent" in capsys.readouterr().out

    def test_interval_of_a_later_scenario_only(self, capsys):
        """`add_chillis` is in the hot branch, not in the base scenario
        that comes first: nothing is written before the error."""
        assert run(["query", RELISH, "chop", "add_chillis"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: unknown interval 'add_chillis'\n"


def parse_window(text):
    """The BoundWindow that prints as `text`."""
    left, lo, hi, right = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])", text).groups()
    return BoundWindow(None if lo == "-inf" else Fraction(lo), None if hi == "inf" else Fraction(hi),
                       left == "(", right == ")")


def query(capsys, path, a, b):
    """The exit code of `query path a b`, and per scenario its label and
    either None (inconsistent) or the printed relation and window."""
    code = run(["query", path, a, b])
    answers = re.findall(r"scenario (\S+)\n(?:inconsistent|(\S+)\nstart\((\S+)\) - start\((\S+)\) in (.+))\n",
                         capsys.readouterr().out)
    out = []
    for label, rel, later, earlier, window in answers:
        assert (later, earlier) == ((b, a) if rel else ("", ""))
        out.append((label, (Relation.parse(rel), parse_window(window)) if rel else None))
    return code, out


# relType -> the relType of the converse relation
INVERSE_RELTYPE = {name: next(other for other, rel in DEFAULT_RELTYPE_MAP.items()
                              if rel == image.converse())
                   for name, image in DEFAULT_RELTYPE_MAP.items()}


def reversed_tlinks(source):
    """The markup with every TLINK `a R b` written as `b R⁻¹ a`."""
    attr = r'(\w+)="([^"]*)"'

    def flip(tag):
        values = dict(re.findall(attr, tag[0]))
        swap = {"eventInstanceID": values["relatedToEvent"],
                "relatedToEvent": values["eventInstanceID"],
                "relType": INVERSE_RELTYPE[values["relType"]]}
        return re.sub(attr, lambda m: f'{m[1]}="{swap.get(m[1], m[2])}"', tag[0])
    return re.sub(r"<TLINK\b[^>]*>", flip, source)


def random_timeml(rng):
    """Three to six events, each with one instance, and random TLINKs
    between them; some documents are inconsistent."""
    n = rng.randint(3, 6)
    parts = [f'<EVENT eid="e{i}" class="OCCURRENCE"> step{i} </EVENT> <MAKEINSTANCE eiid="ei{i}"'
             f' eventID="e{i}" tense="NONE" aspect="NONE" pos="VERB"/>' for i in range(n)]
    for _ in range(rng.randint(1, n + 2)):
        a, b = rng.sample(range(n), 2)
        parts.append(f'<TLINK eventInstanceID="ei{a}" relatedToEvent="ei{b}"'
                     f' relType="{rng.choice(sorted(DEFAULT_RELTYPE_MAP))}"/>')
    return "\n".join(parts) + "\n"


class TestMetamorphic:
    """Two runs of a command that must agree, with no recorded output."""

    @pytest.mark.parametrize("path", [LUTHERAN, RELISH, CYCLIC],
                             ids=lambda path: Path(path).name)
    def test_query_in_both_directions(self, capsys, path):
        """`query b a` prints the converse of the relation `query a b`
        prints and its window negated, for every pair of intervals of
        the first scenario."""
        (_, h), *_ = encode_recipe(parse_recipe_dsl(Path(path).read_text()))
        ids = h.intervals
        for x, a in enumerate(ids):
            for b in ids[x + 1:]:
                code, forward = query(capsys, path, a, b)
                assert forward
                back_code, backward = query(capsys, path, b, a)
                assert back_code == code
                assert [label for label, _ in backward] == [label for label, _ in forward]
                for (_, there), (_, back) in zip(forward, backward):
                    if there is None:
                        assert back is None
                        continue
                    (rel, w), (back_rel, back_w) = there, back
                    assert back_rel == rel.converse()
                    assert back_w == BoundWindow(None if w.hi is None else -w.hi,
                                                 None if w.lo is None else -w.lo,
                                                 w.hi_strict, w.lo_strict)

    def test_reversed_tlinks(self, capsys, tmp_path):
        """Writing every TLINK `a R b` as `b R⁻¹ a` changes neither the
        `timeml` output nor its exit code."""
        rng = random.Random(29)
        sources = [(FIXTURES / name).read_text() for name in ("snippet.tml", "inconsistent.tml")]
        sources += [random_timeml(rng) for _ in range(40)]
        codes = set()
        for k, source in enumerate(sources):
            flipped = reversed_tlinks(source)
            assert flipped != source
            given, reversed_ = tmp_path / f"d{k}.tml", tmp_path / f"r{k}.tml"
            given.write_text(source)
            reversed_.write_text(flipped)
            code = run(["timeml", str(given)])
            out = capsys.readouterr().out
            assert run(["timeml", str(reversed_)]) == code
            assert capsys.readouterr().out == out
            codes.add(code)
        assert codes == {0, 1}


class TestClose:
    def test_lutheran_minimal_network(self, capsys):
        assert run(["close", LUTHERAN]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "scenario base"
        assert lines[1].startswith("intervals add_sauce")
        assert "brown prepare_pasta {di,fi}" in lines
        assert "duration bake in [60, 60]" in lines
        assert "duration remove_cover.timer in [15, 15]" in lines

    def test_inconsistent(self, capsys):
        assert run(["close", CYCLIC]) == 1
        assert "inconsistent" in capsys.readouterr().out

    def test_annotation(self, capsys):
        assert run(["close", SNIPPET]) == 0
        out = capsys.readouterr().out
        assert "e1 e2 {di}" in out.splitlines()


class TestAdapt:
    def test_lentil_substitution(self, capsys):
        assert run(["adapt", LUTHERAN, LENTILS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("retained")
        assert " delete" in out
        assert "insert-after cook lentils in water" in out
        assert "relaxed" not in out

    def test_deterministic(self, capsys):
        run(["adapt", LUTHERAN, LENTILS])
        first = capsys.readouterr().out
        run(["adapt", LUTHERAN, LENTILS])
        assert capsys.readouterr().out == first

    def test_wrong_extensions(self, capsys):
        assert run(["adapt", SNIPPET, LENTILS]) == 2
        capsys.readouterr()
        assert run(["adapt", LUTHERAN, LUTHERAN]) == 2
        capsys.readouterr()

    def test_scale_bound_exit_code(self, capsys, tmp_path):
        n = 26
        lines = ['recipe "long"']
        lines += [f'step s{i:02d} "stir pot {i}"' for i in range(n)]
        recipe = tmp_path / "long.rcp"
        recipe.write_text("\n".join(lines) + "\n")
        know = tmp_path / "clog.know"
        know.write_text('knowledge "clog"\n'
                        'anchor s00\nanchor s25\n'
                        'step z "shake pan"\n'
                        'rel z {bi} s25\nrel z {b} s00\n')
        assert run(["adapt", str(recipe), str(know)]) == 3
        assert "error" in capsys.readouterr().err

    def test_many_unordered_preliminaries(self, capsys, tmp_path):
        """48 preliminaries leave 1,128 undecided pairs, each split by the
        scenario search, more levels than the interpreter's recursion
        limit allows calls."""
        recipe = tmp_path / "prep.rcp"
        recipe.write_text('recipe "prep"\n'
                          + "".join(f'prelim p{i:02d} "chop item {i}"\n' for i in range(48))
                          + 'step cook "cook everything"\n')
        know = tmp_path / "rinse.know"
        know.write_text('knowledge "k"\nanchor cook\nstep z "rinse"\nrel z {b} cook\n')
        assert run(["adapt", str(recipe), str(know)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("retained 48 of 48 soft constraints\n")

    def test_contradiction_in_a_branch_scenario(self, capsys, tmp_path):
        """`adapt` revises the base scenario only, but like `check` it
        rejects a recipe whose branch scenario states contradictory
        relations."""
        recipe = tmp_path / "hot.rcp"
        recipe.write_text('recipe "hot"\nstep chop "chop"\nstep fry "fry"\n'
                          'alt hot "if hot" {\n  step chilli "add chilli"\n'
                          '  rel chilli {b} chop\n  rel chilli {bi} chop\n}\n')
        know = tmp_path / "k.know"
        know.write_text('knowledge "k"\nanchor fry\nstep z "zest"\nrel z {b} fry\n')
        for argv in (["check", str(recipe)], ["adapt", str(recipe), str(know)]):
            assert run(argv) == 1
            assert capsys.readouterr().err == \
                "error: contradictory relations between 'chilli' and 'chop'\n"

    def test_undeclared_id_exit_code(self, capsys, tmp_path):
        know = tmp_path / "ghost.know"
        know.write_text('knowledge "k"\nstep x "stir"\nrel x {b} zz\n')
        assert run(["adapt", LUTHERAN, str(know)]) == 2
        assert "line 3: unknown id 'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ('anchor combine\nanchor bake\nrel combine {b} bake\n',
         "line 4: relation 'combine'/'bake' touches no knowledge node"),
        ('anchor combine\nstep bake "bake it"\nrel bake {b} combine\n',
         "line 3: knowledge node 'bake' already in network"),
        ('anchor combine\nstep z "soak" for 1/0 min\nrel z {b} combine\n',
         "line 3: cannot parse duration phrase '1/0 min'"),
        ('anchor combine\ntimer t 2-1/0 h\nrel t {b} combine\n',
         "line 3: cannot parse duration phrase '2-1/0 h'"),
        ('anchor combine\nstep z "soak" for 5 min for 6 min\nrel z {b} combine\n',
         "line 3: repeated step clause 'for'"),
        ('anchor combine\nstep z "soak" until "soft" until "mushy"\nrel z {b} combine\n',
         "line 3: repeated step clause 'until'"),
    ])
    def test_malformed_knowledge_exit_code(self, capsys, tmp_path, body, message):
        know = tmp_path / "bad.know"
        know.write_text('knowledge "k"\n' + body)
        assert run(["adapt", LUTHERAN, str(know)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("until", ["", ' until "hot"'])
    def test_branch_members_are_not_deleted(self, capsys, tmp_path, until):
        """Revision runs on the base scenario, which holds no branch
        member: a knowledge that removes nothing deletes no line, also
        when the member's `until` adds a state on the same line."""
        recipe = tmp_path / "relish.rcp"
        text = Path(RELISH).read_text()
        recipe.write_text(text.replace('in the pan"', 'in the pan"' + until))
        know = tmp_path / "rinse.know"
        know.write_text('knowledge "k"\nanchor chop\n'
                        'step n1 "rinse" for 1-2 min\nrel n1 {b} chop\n')
        assert run(["adapt", str(recipe), str(know)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n20..47 insert-after rinse\n")
        assert "delete" not in out

    def test_removed_base_node_deleted_once(self, capsys, tmp_path):
        know = tmp_path / "no_stir.know"
        know.write_text('knowledge "k"\nremove stir\nanchor chop\n'
                        'step n1 "rinse"\nrel n1 {b} chop\n')
        assert run(["adapt", RELISH, str(know)]) == 0
        stir = Path(RELISH).read_text().index('step stir "stir"')
        edits = [line for line in capsys.readouterr().out.splitlines() if ".." in line]
        assert edits == ["20..47 insert-after rinse", f"{stir}..{stir + 16} delete"]

    @pytest.mark.parametrize("old, new, repeat", [
        ("{b,m} drain_lentils", "{b} drain_lentils", "rel cook_lentils {b} drain_lentils"),
        ("for 30 min", 'for 30 min until "soft"', "rel cook_lentils {m} cook_lentils.until"),
    ], ids=["rel", "until"])
    def test_pair_stated_twice_is_intersected(self, capsys, tmp_path, old, new, repeat):
        """A `.know` pair stated twice holds both statements, as in a
        recipe: the output equals that of the one intersected line."""
        text = Path(LENTILS).read_text()
        once, twice = tmp_path / "once.know", tmp_path / "twice.know"
        once.write_text(text.replace(old, new))
        twice.write_text(text.replace(old, new) + repeat + "\n")
        assert run(["adapt", LUTHERAN, str(once)]) == 0
        expected = capsys.readouterr()
        assert run(["adapt", LUTHERAN, str(twice)]) == 0
        assert capsys.readouterr() == expected

    def test_hard_contradiction_exit_code(self, capsys, tmp_path):
        recipe = tmp_path / "tiny.rcp"
        recipe.write_text('recipe "tiny"\nstep a "stir"\n')
        know = tmp_path / "bad.know"
        know.write_text('knowledge "bad"\n'
                        'anchor a\n'
                        'step x "boil water"\nstep y "cool water"\n'
                        'step z "pour water"\n'
                        'rel x {b} y\nrel y {b} z\nrel x {bi} z\n')
        assert run(["adapt", str(recipe), str(know)]) == 1
        assert "self-contradictory" in capsys.readouterr().err


class TestAdaptErrors:
    """The error of each bad `.know` against a recipe, and which error
    comes first when the recipe is bad too."""

    @staticmethod
    def adapt(tmp_path, know, recipe=LUTHERAN):
        path = tmp_path / "k.know"
        path.write_text('knowledge "k"\n' + know)
        return run(["adapt", recipe, str(path)])

    def test_absent_removal(self, capsys, tmp_path):
        assert self.adapt(tmp_path, 'remove chickpeas\nremove bake\nanchor combine\n'
                                    'step z "zest"\nrel z {b} combine\n') == 2
        assert capsys.readouterr() == ("", "error: unknown id 'chickpeas'\n")

    @pytest.mark.parametrize("removal", ["", "remove drain_beans\n"])
    def test_absent_anchor(self, capsys, tmp_path, removal):
        # a removed node is no anchor either
        assert self.adapt(tmp_path, removal + 'anchor drain_beans\nstep z "zest"\n'
                                    'rel z {b} drain_beans\n') == (2 if removal else 0)
        assert capsys.readouterr().err == \
            ("error: anchor 'drain_beans' not in network\n" if removal else "")

    def test_knowledge_node_reuses_a_recipe_id(self, capsys, tmp_path):
        assert self.adapt(tmp_path, 'anchor combine\nstep bake "bake it"\n'
                                    'rel bake {b} combine\n') == 2
        assert capsys.readouterr() == \
            ("", "error: line 3: knowledge node 'bake' already in network\n")

    def test_knowledge_node_reuses_a_removed_id(self, capsys, tmp_path):
        assert self.adapt(tmp_path, 'remove bake\nanchor pour\nstep bake "bake it"\n'
                                    'rel bake {bi} pour\n') == 0
        assert "insert-after bake it" in capsys.readouterr().out

    def test_recipe_contradiction_comes_before_a_bad_removal(self, capsys, tmp_path):
        recipe = tmp_path / "hot.rcp"
        recipe.write_text('recipe "hot"\nstep chop "chop"\nstep fry "fry"\n'
                          'rel fry {b} chop\nrel fry {bi} chop\n')
        assert self.adapt(tmp_path, 'remove chickpeas\nanchor fry\nstep z "zest"\n'
                                    'rel z {b} fry\n', str(recipe)) == 1
        assert capsys.readouterr() == \
            ("", "error: contradictory relations between 'chop' and 'fry'\n")

    @pytest.mark.parametrize("argv", [["check", "self_alt.rcp"],
                                      ["adapt", "self_alt.rcp", "anchor_simmer.know"]],
                             ids=["check", "adapt"])
    def test_self_constraint_in_an_alt_branch(self, capsys, argv):
        # `adapt` builds no scenario, yet rejects what `check` rejects
        assert run([argv[0], *(str(FIXTURES / f) for f in argv[1:])]) == 1
        assert capsys.readouterr() == \
            ("", "error: self-constraint on 'chilli' excludes equality\n")

    def test_recipe_self_constraint_comes_before_a_bad_removal(self, capsys, tmp_path):
        recipe = tmp_path / "soak.rcp"
        recipe.write_text('recipe "soak"\nstep soak "soak"\nstep fry "fry"\nrel soak {b} soak\n')
        assert self.adapt(tmp_path, 'remove chickpeas\nanchor fry\n', str(recipe)) == 1
        assert capsys.readouterr() == \
            ("", "error: self-constraint on 'soak' excludes equality\n")

    def test_knowledge_self_constraint(self, capsys, tmp_path):
        assert self.adapt(tmp_path, 'anchor combine\nstep z "zest"\nrel z {b} z\n') == 1
        assert capsys.readouterr() == \
            ("", "error: self-constraint on 'z' excludes equality\n")


class TestWorkflow:
    def test_lutheran_matches_golden(self, capsys):
        assert run(["workflow", LUTHERAN]) == 0
        assert capsys.readouterr().out == (GOLDEN / "lutheran.dot").read_text()

    def test_inconsistent_recipe(self, capsys):
        assert run(["workflow", CYCLIC]) == 1
        assert "inconsistent" in capsys.readouterr().err

    def test_inconsistent_annotation(self, capsys):
        assert run(["workflow", str(FIXTURES / "inconsistent.tml")]) == 1
        assert capsys.readouterr() == ("", "error: annotation network is inconsistent\n")

    def test_annotation_workflow(self, capsys):
        assert run(["workflow", SNIPPET]) == 0
        out = capsys.readouterr().out
        assert '"e1" [shape=box, label="e1"];' in out


class TestTimeml:
    def test_snippet(self, capsys):
        assert run(["timeml", SNIPPET]) == 0
        assert capsys.readouterr().out == ("intervals e1 e2\n"
                                           "e1 e2 {di}\n"
                                           "consistent\n")

    def test_rejects_recipe_file(self, capsys):
        assert run(["timeml", LUTHERAN]) == 2
        assert ".tml" in capsys.readouterr().err

    def test_markup_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.tml"
        bad.write_text('<TIMEX3 tid="t1"> now </TIMEX3>')
        assert run(["timeml", str(bad)]) == 2
        assert "TIMEX3" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["check", "timeml"])
    def test_unmapped_reltype_exit_code(self, capsys, tmp_path, command):
        """TimeML's own DURING has no Allen image here: an input error,
        exit 2, not the inconsistent verdict's 1.  The message names the
        TLINK's offset."""
        doc = tmp_path / "during.tml"
        text = Path(SNIPPET).read_text().replace("IS_INCLUDED", "DURING")
        doc.write_text(text)
        assert run([command, str(doc)]) == 2
        assert capsys.readouterr().err == (f"error: offset {text.index('<TLINK')}: "
                                           "no Allen image for relType 'DURING'\n")


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate", LUTHERAN])
        assert err.value.code == 2
        capsys.readouterr()

    def test_parser_built_once(self):
        assert _parser() is _parser()

    def test_command_table(self):
        """Subcommands in `--help` order, each with its positional
        arguments, read from the parser rather than its help text."""
        sub, = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        table = [(name, [a.dest for a in p._actions if not a.option_strings])
                 for name, p in sub.choices.items()]
        assert table == [("check", ["file"]), ("close", ["file"]),
                         ("workflow", ["file"]), ("timeml", ["file"]),
                         ("query", ["file", "a", "b"]),
                         ("adapt", ["recipe", "knowledge"])]


class TestInputEncoding:
    """Inputs are read as UTF-8 whatever the locale, and a file that is
    not UTF-8 is named, with its line, in the one-line error."""

    C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    def test_utf8_recipe_under_c_locale(self, tmp_path):
        recipe = tmp_path / "saute.rcp"
        recipe.write_bytes('recipe "x"\nstep a "saut\u00e9 onions"\n'.encode("utf-8"))
        done = TestModuleEntryPoints._run_module("chronotext", "check", str(recipe),
                                                 env=self.C_LOCALE)
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, "scenario base: consistent\n", "")

    def test_utf8_recipe_in_process(self, capsys, tmp_path):
        recipe = tmp_path / "saute.rcp"
        recipe.write_bytes('recipe "x"\nstep a "saut\u00e9 onions"\n'.encode("utf-8"))
        assert run(["check", str(recipe)]) == 0
        assert capsys.readouterr().out == "scenario base: consistent\n"

    def test_crlf_lines_read_as_lf(self, capsys, tmp_path):
        crlf = tmp_path / "crlf.rcp"
        crlf.write_bytes(Path(LUTHERAN).read_bytes().replace(b"\n", b"\r\n"))
        assert run(["close", str(crlf)]) == 0
        assert capsys.readouterr().out.encode() == \
            (GOLDEN / "cli" / "close-lutheran.out").read_bytes()

    def test_latin1_knowledge_names_file_and_line(self, capsys, tmp_path):
        know = tmp_path / "bad.know"
        know.write_bytes('knowledge "k"\nstep x "saut\u00e9"\n'.encode("latin-1"))
        assert run(["adapt", LUTHERAN, str(know)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {know}: line 2: not UTF-8 " \
                          "(invalid continuation byte at byte 26)\n"

    def test_latin1_recipe_names_file_and_line(self, capsys, tmp_path):
        recipe = tmp_path / "latin1.rcp"
        recipe.write_bytes('recipe "x"\n\nstep a "saut\u00e9"\n'.encode("latin-1"))
        assert run(["adapt", str(recipe), LENTILS]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {recipe}: line 3: not UTF-8")
        assert err.count("\n") == 1

    BOM = b"\xef\xbb\xbf"

    def test_bom_recipe_reads_as_without(self, capsys, tmp_path):
        """A leading UTF-8 byte-order mark, as Windows Notepad writes it,
        is skipped."""
        recipe = tmp_path / "bom.rcp"
        recipe.write_bytes(self.BOM + Path(LUTHERAN).read_bytes())
        assert run(["close", LUTHERAN]) == 0
        want = capsys.readouterr()
        assert run(["close", str(recipe)]) == 0
        assert capsys.readouterr() == want

    def test_bom_knowledge_reads_as_without(self, capsys, tmp_path):
        know = tmp_path / "bom.know"
        know.write_bytes(self.BOM + Path(LENTILS).read_bytes())
        assert run(["adapt", LUTHERAN, LENTILS]) == 0
        want = capsys.readouterr()
        assert run(["adapt", LUTHERAN, str(know)]) == 0
        assert capsys.readouterr() == want

    def test_bom_timeml_offsets_count_from_the_text(self, capsys, tmp_path):
        """The mark is no character of the text, so a TimeML error's
        offset is the same as in the file without it."""
        text = Path(SNIPPET).read_text().replace("IS_INCLUDED", "DURING")
        doc = tmp_path / "bom.tml"
        doc.write_bytes(self.BOM + text.encode("utf-8"))
        assert run(["timeml", str(doc)]) == 2
        assert capsys.readouterr().err == (f"error: offset {text.index('<TLINK')}: "
                                           "no Allen image for relType 'DURING'\n")

    def test_bom_file_not_utf8_names_the_files_own_line_and_byte(self, capsys, tmp_path):
        recipe = tmp_path / "bom.rcp"
        recipe.write_bytes(self.BOM + b"\n\n\xff")
        assert run(["check", str(recipe)]) == 2
        assert capsys.readouterr().err == \
            f"error: {recipe}: line 3: not UTF-8 (invalid start byte at byte 5)\n"


class TestOutputEncoding:
    """Output is written as UTF-8 whatever the locale."""

    def test_utf8_knowledge_text_under_c_locale(self, tmp_path):
        know = tmp_path / "saute.know"
        know.write_bytes('knowledge "k"\nanchor combine\nstep z "saut\u00e9 onions"\n'
                         'rel z {b} combine\n'.encode("utf-8"))
        done = TestModuleEntryPoints._run_module("chronotext", "adapt", LUTHERAN, str(know),
                                                 env=TestInputEncoding.C_LOCALE, text=False)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.endswith(b" insert-after saut\xc3\xa9 onions\n")


class TestModuleEntryPoints:
    """`python -m chronotext.cli` and `python -m chronotext` run the CLI."""

    @staticmethod
    def _run_module(module, *args, env=None, text=True):
        src = str(Path(chronotext.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                   **(env or {}))
        return subprocess.run([sys.executable, "-m", module, *args], env=env,
                              capture_output=True, text=text, timeout=60)

    @pytest.mark.parametrize("module", ["chronotext.cli", "chronotext"])
    def test_check_consistent(self, module):
        done = self._run_module(module, "check", LUTHERAN)
        assert done.returncode == 0
        assert done.stdout == "scenario base: consistent\n"

    @pytest.mark.parametrize("module", ["chronotext.cli", "chronotext"])
    def test_check_inconsistent(self, module):
        done = self._run_module(module, "check", CYCLIC)
        assert done.returncode == 1
        assert done.stdout == "scenario base: inconsistent\n"


def _golden_cases():
    lines = (GOLDEN / "cli" / "cases.txt").read_text().splitlines()
    for line in lines:
        if line and not line.startswith("#"):
            name, code, *argv = line.split()
            yield pytest.param(name, int(code), argv, id=name)


def mutant(rng, text):
    """`text` with one line or one blank-separated token dropped,
    duplicated or swapped with another."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    if rng.random() < 0.5:
        items, glue = lines, "\n"
    else:
        items, glue = lines[k].split(" "), " "
    i, j = rng.randrange(len(items)), rng.randrange(len(items))
    change = rng.choice(("drop", "duplicate", "swap"))
    if change == "drop":
        del items[i]
    elif change == "duplicate":
        items.insert(j, items[i])
    else:
        items[i], items[j] = items[j], items[i]
    if glue == " ":
        lines[k] = glue.join(items)
    return "\n".join(lines)


class TestMutationFuzz:
    """Seeded mutants of the fixtures through `run`: every outcome is an
    exit code of 0-3, never an escaping exception."""

    # per fixture, the commands that read it; "{}" is the mutant
    COMMANDS = {
        "lutheran.rcp": (["check", "{}"], ["query", "{}", "brown", "bake"],
                         ["adapt", "{}", "lentils.know"]),
        "hot_relish.rcp": (["close", "{}"], ["workflow", "{}"],
                           ["adapt", "{}", "slow_cooker.know"]),
        "cyclic.rcp": (["check", "{}"], ["workflow", "{}"]),
        "lentils.know": (["adapt", "lutheran.rcp", "{}"],),
        "slow_cooker.know": (["adapt", "hot_relish.rcp", "{}"],),
        "snippet.tml": (["timeml", "{}"], ["close", "{}"], ["workflow", "{}"]),
    }

    def test_mutants_exit_with_a_code(self, capsys, tmp_path):
        rng = random.Random(23)
        codes = set()
        for k in range(360):
            name = sorted(self.COMMANDS)[k % len(self.COMMANDS)]
            path = tmp_path / f"m{k}{Path(name).suffix}"
            path.write_text(mutant(rng, (FIXTURES / name).read_text()))
            argv = [str(path) if a == "{}" else str(FIXTURES / a) if "." in a else a
                    for a in rng.choice(self.COMMANDS[name])]
            code = run(argv)
            assert code in (0, 1, 2, 3), argv
            codes.add(code)
            capsys.readouterr()
        assert {0, 1, 2} <= codes


class TestGoldenOutputs:
    """Recorded stdout bytes and exit codes of the commands on the fixtures."""

    @pytest.mark.parametrize("name, code, argv", _golden_cases())
    def test_stdout_and_exit_code(self, capsys, name, code, argv):
        argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in argv]
        assert run(argv) == code
        assert capsys.readouterr().out.encode() == (GOLDEN / "cli" / f"{name}.out").read_bytes()
