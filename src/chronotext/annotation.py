"""Front-end parsers: a TimeML-subset markup reader and the plain-text
line DSL shared by `.rcp` recipes and `.know` domain-knowledge files,
both carrying text spans back to the source so edits can be mapped onto
it.
"""

from __future__ import annotations

import re
from typing import Optional

from .allen import QCN, Relation, Value
from .metric import BoundWindow
from .recipe import (
    ActionNode,
    AlternativeBranch,
    Recipe,
    RepetitionMarker,
    Span,
    StateNode,
    TimerNode,
    _chain_steps,
    _node_id,
    duration_cap,
    encode_duration,
)


class AnnotationError(ValueError):
    """Markup error; `offset` is the character offset in the input, if known."""

    def __init__(self, message: str, offset: Optional[int] = None):
        super().__init__(message if offset is None else f"offset {offset}: {message}")
        self.offset = offset


class RecipeSyntaxError(ValueError):
    """DSL error; `line` is 1-based, or None for whole-file problems."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# ---------------------------------------------------------------------------
# TimeML subset

class Event(Value):
    __slots__ = ("eid", "eclass", "text", "span", "offset")
    _uncompared = ("offset",)

    def __init__(self, eid: str, eclass: str, text: str, span: Span, offset: Optional[int] = None):
        self._set(eid, eclass, text, span, offset)


class Instance(Value):
    __slots__ = ("eiid", "event_id", "tense", "aspect", "pos", "offset")
    _uncompared = ("offset",)

    def __init__(self, eiid: str, event_id: str, tense: str, aspect: str, pos: str,
                 offset: Optional[int] = None):
        self._set(eiid, event_id, tense, aspect, pos, offset)


class Signal(Value):
    __slots__ = ("sid", "text", "span", "offset")
    _uncompared = ("offset",)

    def __init__(self, sid: str, text: str, span: Span, offset: Optional[int] = None):
        self._set(sid, text, span, offset)


class TLink(Value):
    __slots__ = ("event_instance_id", "signal_id", "related_to_event", "rel_type", "offset")
    _uncompared = ("offset",)

    def __init__(self, event_instance_id: str, signal_id: Optional[str],
                 related_to_event: str, rel_type: str, offset: Optional[int] = None):
        self._set(event_instance_id, signal_id, related_to_event, rel_type, offset)


class AnnotatedDoc(Value):
    __slots__ = ("source", "text", "events", "instances", "signals", "tlinks")

    def __init__(self, source: str, text: str,  # the input without markup; spans index it
                 events: tuple[Event, ...], instances: tuple[Instance, ...],
                 signals: tuple[Signal, ...], tlinks: tuple[TLink, ...]):
        self._set(source, text, events, instances, signals, tlinks)


_WRAPPING = {"EVENT", "SIGNAL"}
_REQUIRED = {  # per known tag
    "EVENT": ("eid", "class"),
    "MAKEINSTANCE": ("eiid", "eventID", "tense", "aspect", "pos"),
    "SIGNAL": ("sid",),
    "TLINK": ("eventInstanceID", "relatedToEvent", "relType"),
}

# A tag runs from `<` to the first `>`, across any other `<`: its closing
# slash, its name, and a body whose stripped end is `/` when self-closing.
# No `>` leaves the last group empty.
_TAG_RE = re.compile(r"<\s*(/?)\s*([A-Za-z][A-Za-z0-9]*)?([^>]*)(>?)")
_ATTR_RE = re.compile(r'([A-Za-z][A-Za-z0-9]*)\s*=\s*"([^"]*)"')


def _parse_attrs(body: str, offset: int) -> dict[str, str]:
    attrs = dict(_ATTR_RE.findall(body))
    stripped = _ATTR_RE.sub("", body).replace("/", "").strip()
    if stripped:
        raise AnnotationError(f"malformed attributes near {stripped.split()[0]!r}", offset)
    return attrs


def parse_timeml(source: str) -> AnnotatedDoc:
    """Scan tag soup limited to EVENT, MAKEINSTANCE, SIGNAL and TLINK.

    EVENT and SIGNAL wrap covered text; MAKEINSTANCE and TLINK are
    self-closing.  Tags may span line breaks.  Every problem is reported
    with the character offset of the offending tag, which each value keeps as
    `offset` (not compared) for `doc_to_qcn`'s errors too.
    """
    events: list[Event] = []
    instances: list[Instance] = []
    signals: list[Signal] = []
    tlinks: list[TLink] = []
    text_parts: list[str] = []  # the text between tags
    text_len = 0
    # name, attrs, source index after it, offset; no tag comes before its
    # closing tag, so the covered text is one slice of the source
    open_tag: Optional[tuple[str, dict, int, int]] = None

    end = 0
    for m in _TAG_RE.finditer(source):
        i = m.start()
        text_parts.append(source[end:i])
        text_len += i - end
        closing, name, body, closed = m.groups()
        if not closed:
            raise AnnotationError("unterminated tag", i)
        if not name:
            raise AnnotationError("tag without a name", i)
        if name not in _REQUIRED:
            raise AnnotationError(f"unknown tag {name!r}", i)
        end = m.end()

        if closing:
            if open_tag is None or open_tag[0] != name:
                raise AnnotationError(f"unexpected closing tag {name!r}", i)
            tag_name, attrs, after, tag_off = open_tag
            covered = source[after:i]
            covered_span = (text_len - len(covered), text_len)
            if tag_name == "EVENT":
                events.append(Event(attrs["eid"], attrs["class"], covered, covered_span,
                                    tag_off))
            else:
                signals.append(Signal(attrs["sid"], covered, covered_span, tag_off))
            open_tag = None
        else:
            if open_tag is not None:
                raise AnnotationError(f"tag {name!r} nested inside open {open_tag[0]!r}", i)
            attrs = _parse_attrs(body, i)
            for req in _REQUIRED[name]:
                if req not in attrs:
                    raise AnnotationError(f"{name} is missing attribute {req!r}", i)
            self_closing = body.rstrip().endswith("/")
            if name in _WRAPPING:
                if self_closing:
                    raise AnnotationError(f"{name} must wrap text", i)
                open_tag = (name, attrs, end, i)
            else:
                if not self_closing:
                    raise AnnotationError(f"{name} must be self-closing", i)
                if name == "MAKEINSTANCE":
                    instances.append(Instance(attrs["eiid"], attrs["eventID"],
                                              attrs["tense"], attrs["aspect"],
                                              attrs["pos"], i))
                else:
                    tlinks.append(TLink(attrs["eventInstanceID"], attrs.get("signalID"),
                                        attrs["relatedToEvent"], attrs["relType"], i))
    text_parts.append(source[end:])

    if open_tag is not None:
        raise AnnotationError(f"unclosed tag {open_tag[0]!r}", open_tag[3])

    ids: dict[str, set[str]] = {}
    for collection, key in ((events, "eid"), (instances, "eiid"), (signals, "sid")):
        seen = ids[key] = set()
        for item in collection:
            value = getattr(item, key)
            if value in seen:
                raise AnnotationError(f"duplicate {key} {value!r}", item.offset)
            seen.add(value)
    for m_ in instances:
        if m_.event_id not in ids["eid"]:
            raise AnnotationError(f"MAKEINSTANCE refers to absent event {m_.event_id!r}",
                                  m_.offset)
    for link in tlinks:
        for ref in (link.event_instance_id, link.related_to_event):
            if ref not in ids["eiid"]:
                raise AnnotationError(f"TLINK refers to absent instance {ref!r}", link.offset)
        if link.signal_id is not None and link.signal_id not in ids["sid"]:
            raise AnnotationError(f"TLINK refers to absent signal {link.signal_id!r}",
                                  link.offset)

    return AnnotatedDoc(source, "".join(text_parts), tuple(events),
                        tuple(instances), tuple(signals), tuple(tlinks))


DEFAULT_RELTYPE_MAP: dict[str, Relation] = {
    "BEFORE": Relation.parse("{b}"),
    "AFTER": Relation.parse("{bi}"),
    "IBEFORE": Relation.parse("{m}"),
    "IAFTER": Relation.parse("{mi}"),
    "INCLUDES": Relation.parse("{di}"),
    "IS_INCLUDED": Relation.parse("{d}"),
    "SIMULTANEOUS": Relation.parse("{e}"),
    "IDENTITY": Relation.parse("{e}"),
    "BEGINS": Relation.parse("{s}"),
    "BEGUN_BY": Relation.parse("{si}"),
    "ENDS": Relation.parse("{f}"),
    "ENDED_BY": Relation.parse("{fi}"),
}


def doc_to_qcn(doc: AnnotatedDoc) -> QCN:
    """One interval per event instance; each TLINK constrains its
    instance against the instance it relates to, by the relation
    `DEFAULT_RELTYPE_MAP` gives its relType.

    Intervals take the underlying event's id when that event has a
    single instance (the common case and the one the snippet uses),
    otherwise the instance id.
    """
    per_event: dict[str, int] = {}
    for inst in doc.instances:
        per_event[inst.event_id] = per_event.get(inst.event_id, 0) + 1
    name = {inst.eiid: inst.event_id if per_event[inst.event_id] == 1 else inst.eiid
            for inst in doc.instances}

    constraints = []
    for link in doc.tlinks:
        rel = DEFAULT_RELTYPE_MAP.get(link.rel_type)
        if rel is None:
            raise AnnotationError(f"no Allen image for relType {link.rel_type!r}",
                                  link.offset)
        constraints.append((name[link.event_instance_id], rel,
                            name[link.related_to_event]))
    return QCN.build([name[inst.eiid] for inst in doc.instances], constraints)


# ---------------------------------------------------------------------------
# recipe DSL

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


# One alternative per token kind; characters no alternative takes are blanks
# (`\s` is exactly `str.isspace`).  A relation set runs to the first `}`,
# even past a `#`; a `{` that only blanks or a comment follow opens a block.
_TOKEN_RE = re.compile(r"""
    "([^"]*")                               # a string, with its closing quote
  | (\{[^}]*\})                             # a relation set
  | ([^\s"{}\#]+|\}|\{(?=\s*(?:\#|\Z)))     # a word, a lone '}', a block '{'
  | \#.*                                    # a comment
  | (["{])                                  # an unclosed quote or relation set
""", re.X | re.S)

_UNCLOSED = {'"': "unterminated string", "{": "unterminated relation set"}


def _tokenize(line: str, lineno: int) -> list[tuple[str, str]]:
    """Split a DSL line into (kind, value) tokens: word, string or
    braces; `#` outside quotes starts a comment."""
    tokens = []
    for string, braces, word, unclosed in _TOKEN_RE.findall(line):
        if word:
            tokens.append(("word", word))
        elif string:
            tokens.append(("string", string[:-1]))
        elif braces:
            tokens.append(("braces", braces))
        elif unclosed:
            raise RecipeSyntaxError(_UNCLOSED[unclosed], lineno)
    return tokens


def _expect(tokens, idx, kind, what, lineno):
    if idx >= len(tokens) or tokens[idx][0] != kind:
        raise RecipeSyntaxError(f"expected {what}", lineno)
    return tokens[idx][1]


def _expect_id(tokens, idx, what, lineno):
    value = _expect(tokens, idx, "word", what, lineno)
    if not _ID_RE.fullmatch(value):
        raise RecipeSyntaxError(f"bad identifier {value!r}", lineno)
    return value


def _at_line(lineno, read, *args):
    """`read(*args)`, a value read from line `lineno` (a duration phrase, a
    relation set or an id), with any `ValueError` it raises reported there."""
    try:
        return read(*args)
    except ValueError as exc:
        raise RecipeSyntaxError(str(exc), lineno) from None


def _action_from_text(id_, text, span, kind, meanwhile, lineno):
    words = text.split()
    if not words:
        raise RecipeSyntaxError("empty action text", lineno)
    return ActionNode(id_, words[0], tuple(words[1:]), span, kind, meanwhile)


# Everything that differs between the two line formats: per header word,
# the noun for its quoted string, the directives and the step clauses.
_GRAMMARS = {
    "recipe": ("title",
               ("prelim", "step", "timer", "rel", "sporadic", "alternate",
                "alt", "}"),
               ("meanwhile", "for", "until", "last")),
    "knowledge": ("name",
                  ("anchor", "remove", "step", "timer", "rel"),
                  ("for", "until")),
}

_FIELDS = ("preliminaries", "steps", "states", "timers", "relations",
           "markers", "branches", "durations", "until_links", "last_links",
           "anchors", "removals")


def parse_dsl(source: str, header: str) -> tuple[str, dict[str, tuple]]:
    """Parse the line DSL shared by `.rcp` recipes (header word "recipe")
    and `.know` domain knowledge ("knowledge"); see the README for the
    grammar.  Returns the header's quoted string and the parsed fields,
    keyed by the `Recipe` and `DomainKnowledge` field names that the two
    wrappers read them by; "lines" holds the (id, line) of every declared
    id.  Spans on actions and states are the character ranges of their
    lines.  An id may be referenced before the line that declares it; an
    id no line declares (anchors count as declared) is an error at the
    referencing line, and so is a `rel` between two undeclared ids."""
    noun, directives, clauses = _GRAMMARS[header]
    name = None
    out: dict[str, list] = {key: [] for key in _FIELDS}
    declared: dict[str, int] = {}  # id -> line
    refs: list[tuple[str, int]] = []  # (id, line) to resolve after the loop
    rels: list[tuple[str, str, int]] = []

    branch: Optional[tuple[str, str, list[str], int]] = None  # id, guard, members, line

    def declare(id_, lineno):
        if id_ in declared:
            raise RecipeSyntaxError(f"duplicate id {id_!r}", lineno)
        _at_line(lineno, _node_id, id_)
        declared[id_] = lineno

    offset = 0
    for lineno, line in enumerate(source.split("\n"), start=1):
        span = (offset, offset + len(line))
        offset += len(line) + 1
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        kind, head = tokens[0]
        if kind != "word":
            raise RecipeSyntaxError(f"unexpected {tokens[0][1]!r}", lineno)
        if name is None and head != header:
            raise RecipeSyntaxError(f"no {header} header", lineno)

        if head == header:
            if name is not None:
                raise RecipeSyntaxError(f"second {header} header", lineno)
            name = _expect(tokens, 1, "string", f"a quoted {noun}", lineno)
            if len(tokens) > 2:
                raise RecipeSyntaxError(f"trailing tokens after {noun}", lineno)

        elif head not in directives:
            raise RecipeSyntaxError(f"unknown directive {head!r}", lineno)

        elif head in ("anchor", "remove"):
            target = _expect_id(tokens, 1, "an id", lineno)
            if len(tokens) > 2:
                raise RecipeSyntaxError(f"trailing tokens after {head}", lineno)
            out["anchors" if head == "anchor" else "removals"].append(target)

        elif head == "prelim":
            if branch is not None:
                raise RecipeSyntaxError("prelim not allowed inside alt", lineno)
            id_ = _expect_id(tokens, 1, "an id", lineno)
            text = _expect(tokens, 2, "string", "quoted text", lineno)
            if len(tokens) > 3:
                raise RecipeSyntaxError("trailing tokens after prelim", lineno)
            declare(id_, lineno)
            out["preliminaries"].append(_action_from_text(
                id_, text, span, "preliminary", False, lineno))

        elif head == "step":
            id_ = _expect_id(tokens, 1, "an id", lineno)
            text = _expect(tokens, 2, "string", "quoted text", lineno)
            said: dict[str, object] = {}  # clause word -> its argument
            idx = 3
            while idx < len(tokens):
                word = _expect(tokens, idx, "word", "a step clause", lineno)
                if word not in clauses:
                    raise RecipeSyntaxError(f"unknown step clause {word!r}", lineno)
                if word in said:
                    raise RecipeSyntaxError(f"repeated step clause {word!r}", lineno)
                if word == "meanwhile":
                    said[word] = True
                    idx += 1
                elif word == "until":
                    said[word] = _expect(tokens, idx + 1, "string",
                                         "a quoted state after 'until'", lineno)
                    idx += 2
                else:  # for, last: the duration is every word up to a stop word
                    stops = ("of",) if word == "last" else ("for", "until", "last", "meanwhile")
                    start = idx = idx + 1
                    while idx < len(tokens) and tokens[idx][0] == "word" \
                            and tokens[idx][1] not in stops:
                        idx += 1
                    if idx == start:
                        raise RecipeSyntaxError(f"'{word}' needs a duration", lineno)
                    phrase = " ".join(value for _, value in tokens[start:idx])
                    if word == "for":
                        said[word] = phrase
                        continue
                    if idx >= len(tokens) or tokens[idx][1] != "of":
                        raise RecipeSyntaxError("'last <dur> of <id>' expected", lineno)
                    ref = _expect_id(tokens, idx + 1, "a reference id", lineno)
                    said[word] = (phrase, ref)
                    refs.append((ref, lineno))
                    idx += 2
            if "meanwhile" in said and not out["steps"]:
                raise RecipeSyntaxError("first step cannot be 'meanwhile'", lineno)
            declare(id_, lineno)
            out["steps"].append(_action_from_text(id_, text, span, "step",
                                                  "meanwhile" in said, lineno))
            if branch is not None:
                branch[2].append(id_)
            if "for" in said and "until" in said:
                out["durations"].append((id_, _at_line(
                    lineno, lambda: BoundWindow.at_most(duration_cap(said["for"])))))
            elif "for" in said:
                out["durations"].append((id_, _at_line(lineno, encode_duration, said["for"])))
            if "last" in said:
                phrase, ref = said["last"]
                timer_id = f"{id_}.timer"
                declare(timer_id, lineno)
                out["timers"].append(TimerNode(timer_id, _at_line(lineno, encode_duration, phrase)))
                out["last_links"].append((id_, timer_id, ref))
            if "until" in said:
                state_id = f"{id_}.until"
                declare(state_id, lineno)
                out["states"].append(StateNode(state_id, said["until"], span))
                out["until_links"].append((id_, state_id))

        elif head == "timer":
            id_ = _expect_id(tokens, 1, "an id", lineno)
            parts = [v for k, v in tokens[2:] if k == "word"]
            if len(parts) != len(tokens) - 2 or not parts:
                raise RecipeSyntaxError("'timer <id> <duration>' expected", lineno)
            declare(id_, lineno)
            out["timers"].append(TimerNode(id_, _at_line(lineno, encode_duration, " ".join(parts))))

        elif head == "rel":
            a = _expect_id(tokens, 1, "an id", lineno)
            braces = _expect(tokens, 2, "braces", "a relation set", lineno)
            b = _expect_id(tokens, 3, "an id", lineno)
            if len(tokens) > 4:
                raise RecipeSyntaxError("trailing tokens after rel", lineno)
            rel = _at_line(lineno, Relation.parse, braces)
            if rel.is_empty:
                raise RecipeSyntaxError("empty relation set", lineno)
            out["relations"].append((a, rel, b))
            refs += [(a, lineno), (b, lineno)]
            rels.append((a, b, lineno))

        elif head in ("sporadic", "alternate"):
            link, mode = (("in", "sporadic") if head == "sporadic"
                          else ("with", "alternation"))
            target = _expect_id(tokens, 1, "an id", lineno)
            if _expect(tokens, 2, "word", f"'{link}'", lineno) != link:
                raise RecipeSyntaxError(f"'{head} <id> {link} <id>' expected", lineno)
            ref = _expect_id(tokens, 3, "an id", lineno)
            if len(tokens) > 4:
                raise RecipeSyntaxError(f"trailing tokens after {head}", lineno)
            out["markers"].append(RepetitionMarker(target, mode, ref=ref))
            refs += [(target, lineno), (ref, lineno)]

        elif head == "alt":
            if branch is not None:
                raise RecipeSyntaxError("alt blocks do not nest", lineno)
            bid = _expect_id(tokens, 1, "a branch id", lineno)
            if any(br.id == bid for br in out["branches"]):
                raise RecipeSyntaxError(f"duplicate branch id {bid!r}", lineno)
            idx = 2
            guard = ""
            if idx < len(tokens) and tokens[idx][0] == "string":
                guard = tokens[idx][1]
                idx += 1
            if idx != len(tokens) - 1 or tokens[idx] != ("word", "{"):
                raise RecipeSyntaxError("alt block must open with '{'", lineno)
            branch = (bid, guard, [], lineno)

        else:  # "}"
            if branch is None:
                raise RecipeSyntaxError("'}' without open alt block", lineno)
            if len(tokens) > 1:
                raise RecipeSyntaxError("trailing tokens after '}'", lineno)
            bid, guard, members, _ = branch
            out["branches"].append(AlternativeBranch(bid, tuple(members), guard))
            branch = None

    if name is None:
        raise RecipeSyntaxError(f"no {header} header")
    if branch is not None:
        raise RecipeSyntaxError(f"unclosed alt block {branch[0]!r}", branch[3])
    known = declared.keys() | set(out["anchors"])
    for id_, lineno in refs:
        if id_ not in known:
            raise RecipeSyntaxError(f"unknown id {id_!r}", lineno)
    for a, b, lineno in rels:
        if a not in declared and b not in declared:
            raise RecipeSyntaxError(
                f"relation {a!r}/{b!r} touches no {header} node", lineno)
    fields = {key: tuple(items) for key, items in out.items()}
    fields["lines"] = tuple(declared.items())
    return name, fields


def parse_recipe_dsl(source: str) -> Recipe:
    """Parse the line-oriented recipe DSL (`parse_dsl` with the "recipe"
    header).  Spans on actions are the character ranges of their lines.
    A `meanwhile` step that heads the text-order chain (`_chain_steps`),
    with no step before it to run alongside, is an error at its line."""
    title, f = parse_dsl(source, "recipe")
    recipe = Recipe(title, **{name: f[name] for name in Recipe._fields[1:]})
    head = _chain_steps(recipe)[:1]
    if head and head[0].meanwhile:
        raise RecipeSyntaxError(f"step {head[0].id!r} is marked meanwhile but has no "
                                "antecedent", dict(f["lines"])[head[0].id])
    return recipe


# ---------------------------------------------------------------------------
# canonical serialization

def _format_window_phrase(w: BoundWindow) -> str:
    if w.lo is None or w.hi is None or w.lo_strict or w.hi_strict:
        raise ValueError(f"window {w} has no DSL duration form")
    if w.is_point:
        return f"{w.lo} min"
    return f"{w.lo}-{w.hi} min"


def serialize_recipe_dsl(r: Recipe) -> str:
    """Emit the canonical DSL form: fixed directive order, durations in
    minutes.  parse-serialize round-trips are stable from the second
    pass on."""
    for m in r.markers:
        if m.mode == "count":
            raise ValueError("count markers have no DSL form")
    durations = dict(r.durations)
    until = dict(r.until_links)
    last = {a: (t, ref) for a, t, ref in r.last_links}
    auto_timers = {t for _, t, _ in r.last_links}
    member_of = {mem: br.id for br in r.branches for mem in br.members}

    def step_line(s: ActionNode) -> str:
        text = " ".join((s.verb,) + s.objects)
        parts = [f'step {s.id} "{text}"']
        if s.meanwhile:
            parts.append("meanwhile")
        if s.id in durations:
            w = durations[s.id]
            if s.id in until and w.lo == 0 and w.lo_strict and w.hi is not None:
                parts.append(f"for {w.hi} min")
            elif s.id in until:
                raise ValueError(
                    f"mixed duration on {s.id!r} is not of the form (0, N]")
            else:
                parts.append(f"for {_format_window_phrase(w)}")
        if s.id in until:
            predicate = next(st.predicate for st in r.states if st.id == until[s.id])
            parts.append(f'until "{predicate}"')
        if s.id in last:
            timer_id, ref = last[s.id]
            w = next(t.window for t in r.timers if t.id == timer_id)
            parts.append(f"last {_format_window_phrase(w)} of {ref}")
        return " ".join(parts)

    lines = [f'recipe "{r.title}"']
    for p in r.preliminaries:
        text = " ".join((p.verb,) + p.objects)
        lines.append(f'prelim {p.id} "{text}"')
    for s in r.steps:
        if s.id not in member_of:
            lines.append(step_line(s))
    for t in r.timers:
        if t.id not in auto_timers:
            lines.append(f"timer {t.id} {_format_window_phrase(t.window)}")
    branch_rels = {br.id: [] for br in r.branches}
    for a, rel, b in r.relations:
        owner = member_of.get(a) or member_of.get(b)
        if owner is not None:
            branch_rels[owner].append((a, rel, b))
        else:
            lines.append(f"rel {a} {rel} {b}")
    for m in r.markers:
        if m.mode == "sporadic":
            lines.append(f"sporadic {m.target} in {m.ref}")
        elif m.mode == "alternation":
            lines.append(f"alternate {m.target} with {m.ref}")
    for br in sorted(r.branches, key=lambda br: br.id):
        guard = f' "{br.guard}"' if br.guard else ""
        lines.append(f"alt {br.id}{guard} {{")
        for s in r.steps:
            if s.id in br.members:
                lines.append(f"  {step_line(s)}")
        for a, rel, b in branch_rels[br.id]:
            lines.append(f"  rel {a} {rel} {b}")
        lines.append("}")
    return "\n".join(lines) + "\n"
