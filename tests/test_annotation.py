"""Front-end parsers: TimeML-subset markup and the recipe DSL."""

import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from chronotext.adaptation import parse_knowledge
from chronotext.allen import FULL, Relation, close
from chronotext.annotation import (
    DEFAULT_RELTYPE_MAP,
    AnnotationError,
    RecipeSyntaxError,
    _tokenize,
    doc_to_qcn,
    parse_recipe_dsl,
    TLink,
    parse_timeml,
    serialize_recipe_dsl,
)
from chronotext.metric import BoundWindow
from chronotext.recipe import ActionNode, AlternativeBranch, Recipe, encode_recipe

import recipes
from oracles import reference_parse_timeml, reference_tokenize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SNIPPET = (FIXTURES / "snippet.tml").read_text()


class TestParseTimeml:
    def test_snippet_inventory(self):
        doc = parse_timeml(SNIPPET)
        assert len(doc.events) == 2
        assert len(doc.instances) == 2
        assert len(doc.signals) == 1
        assert len(doc.tlinks) == 1

    def test_snippet_contents(self):
        doc = parse_timeml(SNIPPET)
        e1, e2 = doc.events
        assert (e1.eid, e1.text.strip()) == ("e1", "Brown")
        assert (e2.eid, e2.text.strip()) == ("e2", "prepare")
        assert e1.eclass == "OCCURENCE"
        assert doc.signals[0].sid == "s1"
        assert doc.signals[0].text.strip() == "Meanwhile"
        link = doc.tlinks[0]
        assert link.event_instance_id == "ei2"
        assert link.signal_id == "s1"
        assert link.related_to_event == "ei1"
        assert link.rel_type == "IS_INCLUDED"

    def test_snippet_instances(self):
        doc = parse_timeml(SNIPPET)
        assert [(m.eiid, m.event_id) for m in doc.instances] == [
            ("ei1", "e1"), ("ei2", "e2")]
        assert all(m.tense == "INFINITIVE" and m.pos == "VERB"
                   for m in doc.instances)

    def test_span_faithful(self):
        doc = parse_timeml(SNIPPET)
        assert doc.text == re.sub(r"<[^>]*>", "", SNIPPET)
        for item in doc.events + doc.signals:
            a, b = item.span
            assert doc.text[a:b] == item.text

    def test_no_tags(self):
        doc = parse_timeml("Stir the pot.\n")
        assert doc.text == "Stir the pot.\n"
        assert doc.events == () and doc.instances == ()
        assert doc.signals == () and doc.tlinks == ()

    def test_unknown_tag_offset(self):
        source = 'Wait <TIMEX3 tid="t1"> an hour </TIMEX3>.'
        with pytest.raises(AnnotationError) as err:
            parse_timeml(source)
        assert err.value.offset == source.index("<TIMEX3")
        assert "TIMEX3" in str(err.value)

    def test_offset_counts_characters_not_bytes(self):
        """The 'é' before the tag is one character and two UTF-8 bytes."""
        source = 'Sauté <TIMEX3 tid="t1"> now </TIMEX3>'
        with pytest.raises(AnnotationError) as err:
            parse_timeml(source)
        assert err.value.offset == 6
        assert source.encode().index(b"<TIMEX3") == 7

    def test_missing_attribute(self):
        with pytest.raises(AnnotationError, match="missing attribute 'class'"):
            parse_timeml('<EVENT eid="e1"> stir </EVENT>')

    def test_dangling_instance_reference(self):
        source = (SNIPPET.replace('eventInstanceID="ei2"',
                                  'eventInstanceID="ei9"'))
        with pytest.raises(AnnotationError) as err:
            parse_timeml(source)
        assert "ei9" in str(err.value)
        assert err.value.offset == source.index("<TLINK")

    def test_dangling_signal_reference(self):
        with pytest.raises(AnnotationError, match="absent signal"):
            parse_timeml(SNIPPET.replace('signalID="s1"', 'signalID="s7"'))

    def test_dangling_event_reference(self):
        with pytest.raises(AnnotationError, match="absent event"):
            parse_timeml('<MAKEINSTANCE eiid="ei1" eventID="e1" '
                         'tense="NONE" aspect="NONE" pos="VERB"/>')

    def test_unterminated_tag(self):
        with pytest.raises(AnnotationError, match="unterminated"):
            parse_timeml("stir <EVENT eid")

    def test_duplicate_eid(self):
        with pytest.raises(AnnotationError, match="duplicate eid"):
            parse_timeml('<EVENT eid="e1" class="X"> a </EVENT>'
                         '<EVENT eid="e1" class="X"> b </EVENT>')

    def test_wrapping_tag_must_wrap(self):
        with pytest.raises(AnnotationError, match="must wrap"):
            parse_timeml('<EVENT eid="e1" class="X"/>')

    def test_makeinstance_must_self_close(self):
        with pytest.raises(AnnotationError, match="self-closing"):
            parse_timeml('<MAKEINSTANCE eiid="ei1" eventID="e1" '
                         'tense="NONE" aspect="NONE" pos="VERB">')

    def test_unexpected_close_and_nesting(self):
        with pytest.raises(AnnotationError, match="unexpected closing"):
            parse_timeml("stir </EVENT>")
        with pytest.raises(AnnotationError, match="nested inside"):
            parse_timeml('<EVENT eid="e1" class="X"> a '
                         '<SIGNAL sid="s1"> b </SIGNAL> </EVENT>')

    def test_unclosed_at_eof(self):
        with pytest.raises(AnnotationError, match="unclosed tag 'EVENT'"):
            parse_timeml('<EVENT eid="e1" class="X"> stir')

    @pytest.mark.parametrize("key, value, tag", [
        ("eid", "e1", '<EVENT eid="e1" class="X"> again </EVENT>'),
        ("eiid", "ei1", '<MAKEINSTANCE eiid="ei1" eventID="e2" tense="NONE" '
                        'aspect="NONE" pos="VERB"/>'),
        ("sid", "s1", '<SIGNAL sid="s1"> then </SIGNAL>'),
    ], ids=["eid", "eiid", "sid"])
    def test_duplicate_names_the_second_tag(self, key, value, tag):
        with pytest.raises(AnnotationError) as err:
            parse_timeml(SNIPPET + " " + tag)
        assert err.value.offset == len(SNIPPET) + 1
        assert str(err.value) == f"offset {len(SNIPPET) + 1}: duplicate {key} {value!r}"

    def test_absent_event_names_its_makeinstance(self):
        source = SNIPPET + (' <MAKEINSTANCE eiid="ei3" eventID="e9" tense="NONE" '
                            'aspect="NONE" pos="VERB"/>')
        with pytest.raises(AnnotationError) as err:
            parse_timeml(source)
        assert str(err.value) == (f"offset {len(SNIPPET) + 1}: "
                                  "MAKEINSTANCE refers to absent event 'e9'")

    def test_offsets_take_no_part_in_comparisons(self):
        link = TLink("ei2", "s1", "ei1", "IS_INCLUDED", offset=7)
        assert link == TLink("ei2", "s1", "ei1", "IS_INCLUDED")
        assert hash(link) == hash(TLink("ei2", "s1", "ei1", "IS_INCLUDED"))
        doc = parse_timeml(SNIPPET)
        without_offsets = dataclasses.replace(doc, tlinks=tuple(
            dataclasses.replace(t, offset=None) for t in doc.tlinks))
        assert without_offsets == doc


class TestDocToQcn:
    def test_snippet_network(self):
        net = doc_to_qcn(parse_timeml(SNIPPET))
        assert sorted(net.intervals) == ["e1", "e2"]
        assert net.cell("e1", "e2") == Relation.parse("{di}")
        assert not close(net).inconsistent

    def test_zero_tlinks_tautology(self):
        doc = parse_timeml('<EVENT eid="e1" class="X"> a </EVENT> then '
                           '<EVENT eid="e2" class="X"> b </EVENT>'
                           '<MAKEINSTANCE eiid="ei1" eventID="e1" '
                           'tense="NONE" aspect="NONE" pos="VERB"/>'
                           '<MAKEINSTANCE eiid="ei2" eventID="e2" '
                           'tense="NONE" aspect="NONE" pos="VERB"/>')
        net = doc_to_qcn(doc)
        assert net.cell("e1", "e2") == FULL
        assert net.cell("e1", "e1") == Relation.parse("{e}")

    def test_contradictory_tlinks(self):
        doc = parse_timeml(
            '<EVENT eid="e1" class="X"> a </EVENT>'
            '<EVENT eid="e2" class="X"> b </EVENT>'
            '<MAKEINSTANCE eiid="ei1" eventID="e1" '
            'tense="NONE" aspect="NONE" pos="VERB"/>'
            '<MAKEINSTANCE eiid="ei2" eventID="e2" '
            'tense="NONE" aspect="NONE" pos="VERB"/>'
            '<TLINK eventInstanceID="ei1" relatedToEvent="ei2" '
            'relType="BEFORE"/>'
            '<TLINK eventInstanceID="ei2" relatedToEvent="ei1" '
            'relType="BEFORE"/>')
        assert close(doc_to_qcn(doc)).inconsistent

    def test_unmapped_reltype(self):
        doc = parse_timeml(SNIPPET.replace("IS_INCLUDED", "DURING"))
        with pytest.raises(ValueError, match="DURING"):
            doc_to_qcn(doc)

    @pytest.mark.parametrize("source, message", [
        (SNIPPET.replace("IS_INCLUDED", "DURING"), "no Allen image for relType 'DURING'"),
    ], ids=["unmapped"])
    def test_reltype_errors_name_the_tlink(self, source, message):
        with pytest.raises(AnnotationError) as err:
            doc_to_qcn(parse_timeml(source))
        assert err.value.offset == source.index("<TLINK")
        assert str(err.value) == f"offset {err.value.offset}: {message}"

    def test_every_reltype_image_is_nonempty(self):
        # so no TLINK of a known relType empties a cell before closure
        assert DEFAULT_RELTYPE_MAP and not any(r.is_empty for r in DEFAULT_RELTYPE_MAP.values())

    def test_multi_instance_event_uses_instance_ids(self):
        doc = parse_timeml(
            '<EVENT eid="e1" class="X"> stir </EVENT>'
            '<MAKEINSTANCE eiid="ei1" eventID="e1" '
            'tense="NONE" aspect="NONE" pos="VERB"/>'
            '<MAKEINSTANCE eiid="ei2" eventID="e1" '
            'tense="NONE" aspect="NONE" pos="VERB"/>')
        assert sorted(doc_to_qcn(doc).intervals) == ["ei1", "ei2"]


def strip_spans(r: Recipe) -> Recipe:
    wipe = lambda nodes: tuple(dataclasses.replace(n, span=None) for n in nodes)
    return dataclasses.replace(
        r,
        preliminaries=wipe(r.preliminaries),
        steps=wipe(r.steps),
        states=wipe(r.states),
    )


class TestParseRecipeDsl:
    def test_lutheran_matches_programmatic(self):
        parsed = parse_recipe_dsl((FIXTURES / "lutheran.rcp").read_text())
        assert strip_spans(parsed) == recipes.lutheran()

    def test_hot_relish_matches_programmatic(self):
        parsed = parse_recipe_dsl((FIXTURES / "hot_relish.rcp").read_text())
        assert strip_spans(parsed) == recipes.hot_relish()

    def test_spans_are_line_ranges(self):
        source = (FIXTURES / "lutheran.rcp").read_text()
        parsed = parse_recipe_dsl(source)
        for node in parsed.preliminaries + parsed.steps:
            a, b = node.span
            line = source[a:b]
            assert node.id in line and "\n" not in line

    def test_cyclic_fixture_shape(self):
        parsed = parse_recipe_dsl((FIXTURES / "cyclic.rcp").read_text())
        assert [s.id for s in parsed.steps] == ["s1", "s2", "s3"]
        assert len(parsed.relations) == 3
        _, network = encode_recipe(parsed)[0]
        from chronotext.hybrid import hybrid_close
        assert hybrid_close(network).inconsistent

    def test_comments_and_blank_lines(self):
        r = parse_recipe_dsl('# header comment\n\nrecipe "T"  # inline\n'
                             'step s1 "stir"   # trailing\n')
        assert r.title == "T"
        assert [s.id for s in r.steps] == ["s1"]

    def test_timer_and_markers(self):
        r = parse_recipe_dsl(
            'recipe "T"\n'
            'step knead "knead dough"\n'
            'step rest "rest dough"\n'
            'timer t1 90 min\n'
            'alternate knead with rest\n')
        assert r.timers[0].id == "t1"
        assert r.timers[0].window == BoundWindow.exact(90)
        assert r.markers[0].mode == "alternation"
        assert (r.markers[0].target, r.markers[0].ref) == ("knead", "rest")

    def test_duration_forms(self):
        r = parse_recipe_dsl(
            'recipe "T"\n'
            'step a "stir" for about 10 min\n'
            'step b "simmer" for 1/2 hour\n')
        d = dict(r.durations)
        assert d["a"] == BoundWindow.closed(8, 12)
        assert d["b"] == BoundWindow.exact(30)

    def test_duration_phrases_stop_at_the_next_clause(self):
        r = parse_recipe_dsl('recipe "T"\n'
                             'step b "rest" for 1-2 hours\n'
                             'step a "stir" for 10 min last 5 min of b meanwhile\n')
        assert dict(r.durations) == {"a": BoundWindow.exact(10),
                                     "b": BoundWindow.closed(60, 120)}
        assert r.timers[0].window == BoundWindow.exact(5)
        assert r.last_links == (("a", "a.timer", "b"),)
        assert r.steps[1].meanwhile

    @pytest.mark.parametrize("clause, message", [
        ("for", "'for' needs a duration"),
        ("for until \"x\"", "'for' needs a duration"),
        ("last of b", "'last' needs a duration"),
        ("last 5 min", "'last <dur> of <id>' expected"),
        ('last 5 min "x"', "'last <dur> of <id>' expected"),
    ], ids=["for-end", "for-until", "last-of", "last-end", "last-string"])
    def test_duration_phrase_errors(self, clause, message):
        with pytest.raises(RecipeSyntaxError) as err:
            parse_recipe_dsl(f'recipe "T"\nstep b "rest"\nstep a "stir" {clause}\n')
        assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize("line, message", [
        ('step a ""', "empty action text"),
        ('prelim p "x" extra', "trailing tokens after prelim"),
        ('timer t "5 min"', "'timer <id> <duration>' expected"),
    ], ids=["empty-text", "prelim-extra", "timer-string"])
    def test_line_shape_errors(self, line, message):
        with pytest.raises(RecipeSyntaxError) as err:
            parse_recipe_dsl(f'recipe "T"\n{line}\n')
        assert str(err.value) == f"line 2: {message}"

    @pytest.mark.parametrize("clause, word", [
        ('until "s" until "t"', "until"),
        ("last 5 min of b last 6 min of b", "last"),
        ("meanwhile meanwhile", "meanwhile"),
        ("for 5 min for 6 min", "for"),
    ])
    def test_repeated_clause(self, clause, word):
        """A clause given twice is an error at its line, not a silent
        override by the second; `for` also ends a `for` phrase."""
        with pytest.raises(RecipeSyntaxError) as err:
            parse_recipe_dsl(f'recipe "T"\nstep b "rest"\nstep a "stir" {clause}\n')
        assert str(err.value) == f"line 3: repeated step clause {word!r}"

    def test_mixed_duration_window(self):
        r = parse_recipe_dsl('recipe "T"\n'
                             'step bake "bake" for 25 min until "brown"\n')
        d = dict(r.durations)
        assert d["bake"] == BoundWindow.at_most(Fraction(25))
        assert r.until_links == (("bake", "bake.until"),)
        assert r.states[0].predicate == "brown"

    def test_empty_input(self):
        with pytest.raises(RecipeSyntaxError, match="no recipe header"):
            parse_recipe_dsl("")
        with pytest.raises(RecipeSyntaxError, match="no recipe header"):
            parse_recipe_dsl("# only a comment\n")

    def test_body_before_header(self):
        with pytest.raises(RecipeSyntaxError, match="no recipe header"):
            parse_recipe_dsl('step s1 "stir"\n')

    def test_meanwhile_first_step(self):
        with pytest.raises(RecipeSyntaxError, match="first step"):
            parse_recipe_dsl('recipe "T"\nstep s1 "stir" meanwhile\n')

    def test_meanwhile_heading_the_chain(self):
        """A branch member before it is no antecedent: the first step of
        the text-order chain cannot be `meanwhile`."""
        source = (FIXTURES / "meanwhile_head.rcp").read_text()
        with pytest.raises(RecipeSyntaxError,
                           match="step 'b' is marked meanwhile but has no antecedent") as err:
            parse_recipe_dsl(source)
        assert err.value.line == 5
        # a chain step before the branch is one
        parse_recipe_dsl(source.replace('alt x {', 'step s "stir"\nalt x {'))

    def test_encoder_keeps_its_meanwhile_check(self):
        r = Recipe("T", steps=(ActionNode("a", "boil"), ActionNode("b", "fry", meanwhile=True)),
                   branches=(AlternativeBranch("x", ("a",)),))
        with pytest.raises(ValueError, match="no antecedent"):
            encode_recipe(r)

    def test_duplicate_branch_id(self):
        with pytest.raises(RecipeSyntaxError, match="duplicate branch id 'pasta'") as err:
            parse_recipe_dsl((FIXTURES / "duplicate_alt.rcp").read_text())
        assert err.value.line == 6

    def test_duplicate_id(self):
        with pytest.raises(RecipeSyntaxError, match="duplicate id 's1'") as err:
            parse_recipe_dsl('recipe "T"\nstep s1 "a"\nstep s1 "b"\n')
        assert err.value.line == 3

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_recipe_dsl('recipe "T"\nstep s1 "a"\nrel s1 {b} ghost\n')

    def test_bad_duration_reports_line(self):
        with pytest.raises(RecipeSyntaxError, match="duration") as err:
            parse_recipe_dsl('recipe "T"\nstep s1 "a" for 10 sec\n')
        assert err.value.line == 2

    def test_unterminated_string(self):
        with pytest.raises(RecipeSyntaxError, match="unterminated string"):
            parse_recipe_dsl('recipe "T\n')

    def test_empty_relation_set(self):
        with pytest.raises(RecipeSyntaxError, match="empty relation"):
            parse_recipe_dsl('recipe "T"\nstep a "x"\nstep b "y"\n'
                             'rel a {} b\n')

    def test_alt_block_errors(self):
        with pytest.raises(RecipeSyntaxError, match="unclosed alt"):
            parse_recipe_dsl('recipe "T"\nstep a "x"\nalt h {\nstep b "y"\n')
        with pytest.raises(RecipeSyntaxError, match="without open alt"):
            parse_recipe_dsl('recipe "T"\n}\n')
        with pytest.raises(RecipeSyntaxError, match="prelim not allowed"):
            parse_recipe_dsl('recipe "T"\nstep a "x"\nalt h {\n'
                             'prelim p "y"\n}\n')
        with pytest.raises(RecipeSyntaxError, match="do not nest"):
            parse_recipe_dsl('recipe "T"\nstep a "x"\nalt h {\nalt g {\n')

    def test_unknown_directive(self):
        with pytest.raises(RecipeSyntaxError, match="unknown directive"):
            parse_recipe_dsl('recipe "T"\nblend s1 "x"\n')

    def test_second_header(self):
        with pytest.raises(RecipeSyntaxError, match="second recipe header"):
            parse_recipe_dsl('recipe "T"\nrecipe "U"\n')

    @pytest.mark.parametrize("line", [
        "rel s1 {b} zz",
        "sporadic zz in s1",
        "alternate s1 with zz",
        'step s2 "fold" last 5 min of zz',
    ])
    def test_undeclared_id_reports_line(self, line):
        with pytest.raises(RecipeSyntaxError, match="unknown id 'zz'") as err:
            parse_recipe_dsl(f'recipe "T"\nstep s1 "stir"\n{line}\nstep s3 "rest"\n')
        assert err.value.line == 3

    def test_forward_references(self):
        r = parse_recipe_dsl('recipe "T"\nstep s1 "stir"\n'
                             'rel s1 {b} s2\nsporadic s1 in s2\n'
                             'step s2 "simmer"\n')
        assert r.relations == (("s1", Relation.parse("{b}"), "s2"),)

    @pytest.mark.parametrize("line, what", [
        ("sporadic s1 in s2 extra", "sporadic"),
        ("alternate s1 with s2 extra", "alternate"),
        ("} extra", "'}'"),
    ])
    def test_trailing_tokens_after_marker_or_closer(self, line, what):
        source = ('recipe "T"\nstep s1 "stir"\nalt h {\nstep s2 "simmer"\n'
                  f'{line}\n}}\n')
        with pytest.raises(RecipeSyntaxError,
                           match=f"trailing tokens after {what}") as err:
            parse_recipe_dsl(source)
        assert err.value.line == 5


class TestSharedLineGrammar:
    """`.rcp` and `.know` share one line grammar: the same step, timer
    and rel lines mean the same under either header."""

    BODY = ('step a "stir the pot" for 10 min until "thick"\n'
            'step b "simmer" for 2-3 hours\n'
            'step c "rest the dough" for about 10 min\n'
            'timer t 90 min\n'
            'rel a {b,m} b\n'
            'rel c {bi} t\n')

    def test_same_lines_parse_alike(self):
        r = strip_spans(parse_recipe_dsl('recipe "k"\n' + self.BODY))
        k = parse_knowledge('knowledge "k"\n' + self.BODY)
        from_k = strip_spans(Recipe(k.name, steps=k.steps, states=k.states,
                                    timers=k.timers, relations=k.relations,
                                    durations=k.durations,
                                    until_links=k.until_links))
        for field in ("steps", "states", "timers", "relations", "durations",
                      "until_links"):
            assert getattr(from_k, field) == getattr(r, field), field
        # R6: `for ... until` caps the duration in both formats
        assert dict(k.durations)["a"] == BoundWindow.at_most(Fraction(10))

    @pytest.mark.parametrize("parse, header", [
        (parse_recipe_dsl, 'recipe "k"'),
        (parse_knowledge, 'knowledge "k"'),
    ])
    def test_derived_until_id_clash_reports_line(self, parse, header):
        source = f'{header}\ntimer a.until 5 min\n' + self.BODY
        with pytest.raises(RecipeSyntaxError, match="duplicate id 'a.until'") as err:
            parse(source)
        assert err.value.line == 3


def outcome(read, *args):
    """What a reader gives: its result, or its error's message and line
    or offset."""
    try:
        return read(*args)
    except (RecipeSyntaxError, AnnotationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), \
            getattr(exc, "offset", None)


class TestReadersAgainstReferences:
    """The token and tag patterns read as the character-stepping readers
    in `oracles` did, on seeded random input."""

    LINE_PIECES = ['"', '"', "{", "}", "{b,m}", "#", " ", "\t", "\u00a0", "\x1c", "\x85",
                   "\u2028", "\u3000", "\u200b", "step", "a", "x1", "sauté", "日本", "for",
                   "10 min", "rel", "alt", "=", "/", "\r", "\x0b"]

    def test_tokens_match(self):
        rng = random.Random(17)
        seen = set()
        for lineno in range(100_000):
            line = "".join(rng.choices(self.LINE_PIECES, k=rng.randint(0, 10)))
            got = outcome(_tokenize, line, lineno)
            assert got == outcome(reference_tokenize, line, lineno), line
            if isinstance(got, list):
                seen.update(token if token == ("word", "{") else token[0] for token in got)
            else:
                seen.add(got[1].split(": ", 1)[1])
        assert seen == {"word", ("word", "{"), "string", "braces", "unterminated string",
                        "unterminated relation set"}

    TAGS = ['<EVENT eid="e1" class="OCCURRENCE">', '</EVENT>', '<SIGNAL sid="s1">',
            '</SIGNAL>', '<MAKEINSTANCE eiid="ei1" eventID="e1" tense="NONE" aspect="NONE" '
            'pos="VERB"/>', '<TLINK eventInstanceID="ei1" relatedToEvent="ei1" '
            'relType="BEFORE" signalID="s1" />', '< EVENT\neid="e2" class="X" >',
            '</ EVENT ignored="1">', '</EVENT/>', '<EVENT eid="e3" class="Y"/ >', '<EVENT/>',
            '<MAKEINSTANCE eiid="ei2" eventID="e2" tense="PAST" aspect="NONE" pos="VERB">',
            '<TLINK relType="AFTER"/>', '<FOO>', '<1>', '<>', '</>', '<//EVENT>',
            '<TIMEX3 tid="t1">', '<EVENT eid="e4" class="Z" 9>', '<SIGNAL sid="s2" /']
    TEXT = ["<", ">", "/", '"', "=", " ", "\n", "\t", "sauté ", "stir ", "\u00a0", "<a <b>"]

    def test_documents_match(self):
        rng = random.Random(19)
        seen = set()
        for _ in range(50_000):
            source = "".join(rng.choice(self.TAGS) if rng.random() < 0.6 else rng.choice(self.TEXT)
                             for _ in range(rng.randint(0, 8)))
            got, want = outcome(parse_timeml, source), outcome(reference_parse_timeml, source)
            assert got == want, source
            if isinstance(got, tuple):
                seen.add(got[1].split(": ", 1)[-1].split(" ", 1)[0])
            else:
                seen.add("ok")
                offsets = [x.offset for c in (got.events, got.instances, got.signals,
                                              got.tlinks) for x in c]
                assert offsets == [x.offset for c in (want.events, want.instances,
                                                      want.signals, want.tlinks) for x in c]
        assert {"ok", "unterminated", "tag", "unknown", "unexpected", "unclosed", "duplicate",
                "malformed", "EVENT", "MAKEINSTANCE", "TLINK"} <= seen


class TestSerializeRecipeDsl:
    @pytest.mark.parametrize("name", ["lutheran.rcp", "hot_relish.rcp",
                                      "cyclic.rcp"])
    def test_fixtures_are_canonical(self, name):
        source = (FIXTURES / name).read_text()
        assert serialize_recipe_dsl(parse_recipe_dsl(source)) == source

    @pytest.mark.parametrize("source", [
        'recipe "T"\nstep a "simmer" for 20 min until "thick"\n',
        'recipe "T"\nstep a "bake"\ntimer t 10-15 min\nrel t {s} a\n',
        'recipe "T"\nstep a "stir"\nstep b "fold"\nalternate a with b\n',
    ], ids=["mixed-duration", "timer", "alternate"])
    def test_canonical_form_is_a_fixed_point(self, source):
        assert serialize_recipe_dsl(parse_recipe_dsl(source)) == source

    @pytest.mark.parametrize("source, window, message", [
        ('recipe "T"\nstep a "simmer" for 20 min until "thick"\n',
         BoundWindow.closed(5, 20), "not of the form"),
        ('recipe "T"\nstep a "simmer" for 20 min\n',
         BoundWindow.above(5), "no DSL duration form"),
    ], ids=["mixed-duration", "open-window"])
    def test_window_without_a_phrase(self, source, window, message):
        r = parse_recipe_dsl(source)
        r = dataclasses.replace(r, durations=(("a", window),))
        with pytest.raises(ValueError, match=message):
            serialize_recipe_dsl(r)

    def test_round_trip_stable(self):
        # sloppy spacing and alias atoms normalize after one pass
        source = ('recipe "T"\n'
                  '  step a   "stir the pot"\n'
                  'step b "simmer"    for   2-3   hours\n'
                  'rel b {p,=} a\n')
        once = serialize_recipe_dsl(parse_recipe_dsl(source))
        twice = serialize_recipe_dsl(parse_recipe_dsl(once))
        assert once == twice
        assert "for 120-180 min" in once
        assert "rel b {b,e} a" in once

    def test_programmatic_round_trip(self):
        for make in (recipes.lutheran, recipes.hot_relish):
            r = make()
            assert strip_spans(parse_recipe_dsl(serialize_recipe_dsl(r))) == r

    def test_count_marker_not_serializable(self):
        r = parse_recipe_dsl('recipe "T"\nstep a "dip"\n')
        from chronotext.recipe import RepetitionMarker
        r = dataclasses.replace(
            r, markers=(RepetitionMarker("a", "count", count=3),))
        with pytest.raises(ValueError, match="no DSL form"):
            serialize_recipe_dsl(r)
