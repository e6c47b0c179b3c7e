"""The procedural-text object model and the rules that compile a recipe
into hybrid constraint networks, one per combination of optional
branches.

Encoding rules, numbered for reference throughout this package:

  R1  preliminaries precede the first step, unordered among themselves
  R2  text order: each step is after-or-met-by its predecessor
  R3  "meanwhile" replaces the text-order default with {d,f}
  R4  quantitative durations become endpoint windows
  R5  "until <state>" makes the action meet the state interval
  R6  mixed duration: R5 plus a duration capped at the stated bound
  R7  "last N of <ref>": a timer finishing the reference; the action
      starts the timer
  R8  sporadic repetition: the container strictly contains the action

Alternation and count markers carry no algebraic constraints; they
survive as markers for workflow loop rendering.
"""

from __future__ import annotations

import enum
import itertools
import re
from fractions import Fraction
from typing import Optional, Sequence

from .allen import IDENTITY, Relation, Value, _put
from .hybrid import HybridNetwork
from .metric import BoundWindow, ScaleBoundExceeded, end_of, start_of


class PhenomenonTag(enum.Enum):
    QUALITATIVE_DURATION = "qualitative-duration"
    PRECISE_QUANTITATIVE_DURATION = "precise-quantitative-duration"
    IMPRECISE_QUANTITATIVE_DURATION = "imprecise-quantitative-duration"
    TOTAL_ORDER = "total-order"
    PARTIAL_ORDER = "partial-order"
    SIMULTANEITY = "simultaneity"
    INDETERMINATE_REPETITION = "indeterminate-repetition"
    ALTERNATION = "alternation"
    SPORADIC_REPETITION = "sporadic-repetition"
    EXCLUSIVE_DISJUNCTION = "exclusive-disjunction"


Span = tuple[int, int]
_ENDPOINT_SUFFIXES = (start_of(""), end_of(""))


def _node_id(id_: str) -> str:
    # x.end would share its name with the end of x, as a point and in constraint ids
    if id_.endswith(_ENDPOINT_SUFFIXES):
        raise ValueError(f"id {id_!r} ends in '.{id_.rpartition('.')[2]}',"
                         " reserved for interval endpoints")
    return id_


class ActionNode(Value):
    __slots__ = ("id", "verb", "objects", "span", "kind", "meanwhile")

    def __init__(self, id: str, verb: str, objects: tuple[str, ...] = (),
                 span: Optional[Span] = None, kind: str = "step", meanwhile: bool = False):
        if kind not in ("preliminary", "step"):
            raise ValueError(f"bad action kind {kind!r}")
        if meanwhile and kind != "step":
            raise ValueError("meanwhile applies to steps only")
        _put(self, "id", id)
        _put(self, "verb", verb)
        _put(self, "objects", objects)
        _put(self, "span", span)
        _put(self, "kind", kind)
        _put(self, "meanwhile", meanwhile)


class StateNode(Value):
    __slots__ = ("id", "predicate", "span")

    def __init__(self, id: str, predicate: str, span: Optional[Span] = None):
        self._set(id, predicate, span)


class TimerNode(Value):
    __slots__ = ("id", "window")

    def __init__(self, id: str, window: BoundWindow):
        if window.lo is None or window.lo <= 0:
            raise ValueError("timer durations must be positively bounded below")
        self._set(id, window)


class RepetitionMarker(Value):
    __slots__ = ("target", "mode", "ref", "count")  # ref: container, partner or until-state id

    def __init__(self, target: str, mode: str, ref: Optional[str] = None,
                 count: Optional[int] = None):
        if mode in ("sporadic", "alternation"):
            if ref is None or count is not None:
                raise ValueError(f"{mode} markers take a reference id only")
        elif mode == "count":
            if (ref is None) == (count is None):
                raise ValueError("count markers take a count or an until-state id")
        else:
            raise ValueError(f"bad marker mode {mode!r}")
        self._set(target, mode, ref, count)


class AlternativeBranch(Value):
    __slots__ = ("id", "members", "guard")

    def __init__(self, id: str, members: tuple[str, ...], guard: str = ""):
        self._set(id, members, guard)


class Recipe(Value):
    __slots__ = ("title", "preliminaries", "steps", "states", "timers", "relations",
                 "markers", "branches", "durations", "until_links", "last_links")

    def __init__(self, title: str, preliminaries: tuple[ActionNode, ...] = (),
                 steps: tuple[ActionNode, ...] = (), states: tuple[StateNode, ...] = (),
                 timers: tuple[TimerNode, ...] = (),
                 relations: tuple[tuple[str, Relation, str], ...] = (),
                 markers: tuple[RepetitionMarker, ...] = (),
                 branches: tuple[AlternativeBranch, ...] = (),
                 durations: tuple[tuple[str, BoundWindow], ...] = (),
                 until_links: tuple[tuple[str, str], ...] = (),
                 last_links: tuple[tuple[str, str, str], ...] = ()):  # (action, timer, ref)
        ids = [_node_id(n.id) for nodes in (preliminaries, steps, states, timers) for n in nodes]
        seen = set()
        for i in ids:
            if i in seen:
                raise ValueError(f"duplicate id {i!r}")
            seen.add(i)
        for kind, nodes in (("preliminary", preliminaries), ("step", steps)):
            for n in nodes:
                if n.kind != kind:
                    raise ValueError(f"{n.id!r} listed as {kind} but kind is {n.kind!r}")

        def need(i):
            if i not in seen:
                raise ValueError(f"unknown id {i!r}")

        for a, _, b in relations:
            need(a), need(b)
        for m in markers:
            need(m.target)
            if m.ref is not None:
                need(m.ref)
        for a, s in until_links:
            need(a), need(s)
        for i, _ in durations:
            need(i)
        for a, t, ref in last_links:
            need(a), need(t), need(ref)
        claimed, branch_ids = set(), set()
        for br in branches:
            if br.id in branch_ids:
                raise ValueError(f"duplicate branch id {br.id!r}")
            branch_ids.add(br.id)
            for m in br.members:
                need(m)
                if m in claimed:
                    raise ValueError(f"{m!r} belongs to two branches")
                claimed.add(m)
        for kind in ("preliminary", "step"):
            spans = sorted(n.span for n in preliminaries + steps
                           if n.kind == kind and n.span is not None)
            for (a, b), (c, d) in zip(spans, spans[1:]):
                if c < b:
                    raise ValueError(f"overlapping {kind} spans {a, b} and {c, d}")
        self._set(title, preliminaries, steps, states, timers, relations, markers,
                  branches, durations, until_links, last_links)


# ---------------------------------------------------------------------------
# duration phrases

_NUMBER = r"(?:\d+\.\d+|\d+/0*[1-9]\d*|\d+)"  # no zero denominator
_DURATION_RE = re.compile(
    rf"^\s*(?P<about>about\s+)?(?P<a>{_NUMBER})\s*"
    rf"(?:(?:-|–|—|to)\s*(?P<b>{_NUMBER})\s*)?"
    rf"(?P<unit>minutes?|mins?|hours?|hrs?|h)\s*$",
    re.IGNORECASE,
)

_UNIT_MINUTES = {"min": 1, "mins": 1, "minute": 1, "minutes": 1,
                 "h": 60, "hr": 60, "hrs": 60, "hour": 60, "hours": 60}

ABOUT_FACTOR = Fraction(1, 5)


def _minutes(numeral: str, unit: int) -> Fraction:
    # an integer numeral (`isdecimal` is the Unicode Nd class `\d` matches)
    # skips the parse of `Fraction(str)`
    return Fraction(int(numeral) * unit) if numeral.isdecimal() else Fraction(numeral) * unit


def _parse_duration(text: str):
    m = _DURATION_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse duration phrase {text!r}")
    about, a, b, unit = m.group("about", "a", "b", "unit")
    unit = _UNIT_MINUTES[unit.lower()]
    a = _minutes(a, unit)
    b = None if b is None else _minutes(b, unit)
    about = about is not None
    if about and b is not None:
        raise ValueError(f"'about' does not combine with a range: {text!r}")
    if a <= 0 or (b is not None and b <= a):
        raise ValueError(f"bad duration bounds in {text!r}")
    return a, b, about


def encode_duration(text: str) -> BoundWindow:
    """Normalize a duration phrase to a window in minutes.

    "N unit" is exact, "N-M unit" closed, "about N unit" widened by
    `ABOUT_FACTOR` (1/5) on each side.
    """
    a, b, about = _parse_duration(text)
    if about:
        return BoundWindow.closed(a * (1 - ABOUT_FACTOR), a * (1 + ABOUT_FACTOR))
    return BoundWindow.closed(a, b if b is not None else a)


def duration_cap(text: str) -> Fraction:
    """The stated upper bound of a phrase, unwidened; used by the mixed
    duration rule R6 where the number is a maximum."""
    a, b, _ = _parse_duration(text)
    return b if b is not None else a


# ---------------------------------------------------------------------------
# encoding

_R1 = Relation.parse("{b}")
_R2 = Relation.parse("{bi,mi}")
_R3 = Relation.parse("{d,f}")
_R5 = Relation.parse("{m}")
_R7_TIMER = Relation.parse("{f}")
_R7_ACTION = Relation.parse("{s}")
_R8 = Relation.parse("{di}")

_CONCURRENT = Relation.parse("{o,oi,d,di,s,si,f,fi,e}")


def _chain_steps(r: Recipe) -> list[ActionNode]:
    """Steps participating in the text-order chain: branch members,
    sporadic or alternating actions and last-of steps are positioned by
    their own rules, not by document order."""
    skip = {m for br in r.branches for m in br.members}
    for m in r.markers:
        if m.mode == "sporadic":
            skip.add(m.target)
        elif m.mode == "alternation":
            skip.add(m.target)
            skip.add(m.ref)
    for action, _, _ in r.last_links:
        skip.add(action)
    return [s for s in r.steps if s.id not in skip]


MAX_ALT_BLOCKS = 12


def encode_recipe(r: Recipe) -> list[tuple[str, HybridNetwork]]:
    """One (label, network) pair per branch combination, the base
    scenario first; rules R1 through R8 applied as documented above.
    The constraints are derived once, so a contradiction in any branch
    combination is reported before any scenario is built, and so is a
    recipe of more than 12 alt blocks (2**12 scenarios)."""
    ids = sorted(br.id for br in r.branches)
    if len(ids) > MAX_ALT_BLOCKS:
        raise ScaleBoundExceeded(f"{len(ids)} alt blocks exceed the bound of {MAX_ALT_BLOCKS}")
    scenario = _scenario_builder(r)
    return [("+".join(chosen) or "base", HybridNetwork.build(*scenario(chosen)))
            for k in range(len(ids) + 1) for chosen in itertools.combinations(ids, k)]


def _scenario_intervals(r: Recipe, excluded: set[str]) -> list[str]:
    """The interval ids of a scenario without the branch members `excluded`."""
    used_by = {}
    for action, sid in r.until_links:
        used_by.setdefault(sid, set()).add(action)
    for action, tid, _ in r.last_links:
        used_by.setdefault(tid, set()).add(action)

    def dropped(i: str) -> bool:
        if i in excluded:
            return True
        users = used_by.get(i)
        return users is not None and users <= excluded

    return [p.id for p in r.preliminaries] \
        + [s.id for s in r.steps if s.id not in excluded] \
        + [t.id for t in r.timers if not dropped(t.id)] \
        + [s.id for s in r.states if not dropped(s.id)]


def _scenario_builder(r: Recipe):
    """Derive every constraint of the recipe once, each with the intervals
    it needs, and reject a contradiction on a pair or a self-constraint
    that excludes equality in any scenario, pairs first.  Returns the
    function that lists the scenario of the chosen branch ids: its
    interval ids, its Allen triples and one (start, end, window) triple
    per duration, the arguments of `HybridNetwork.build`."""
    chain = _chain_steps(r)
    if chain and chain[0].meanwhile:
        raise ValueError(f"step {chain[0].id!r} is marked meanwhile but has no antecedent")
    allen = []  # (constraint, the intervals it needs)

    def add(a, rel, b, *also):
        allen.append(((a, rel, b), {a, b, *also}))

    if chain:
        for p in r.preliminaries:
            add(p.id, _R1, chain[0].id)
    # no branch member is in the chain, so its steps are in every scenario
    explicit_pairs = {frozenset((a, b)) for a, _, b in r.relations}
    for prev, nxt in zip(chain, chain[1:]):
        if frozenset((prev.id, nxt.id)) not in explicit_pairs:
            add(nxt.id, _R3 if nxt.meanwhile else _R2, prev.id)
    for action, sid in r.until_links:
        add(action, _R5, sid)
    for action, tid, ref in r.last_links:
        # both relations need the action, the timer and the reference
        add(tid, _R7_TIMER, ref, action)
        add(action, _R7_ACTION, tid, ref)
    for m in r.markers:
        if m.mode == "sporadic":
            add(m.ref, _R8, m.target)
    for a, rel, b in r.relations:
        add(a, rel, b)

    merged = {}
    for (a, rel, b), _ in allen:
        key = (a, b) if a <= b else (b, a)
        cell = rel if key == (a, b) else rel.converse()
        merged[key] = merged[key] & cell if key in merged else cell
        if merged[key].is_empty:
            raise ValueError(f"contradictory relations between {key[0]!r} and {key[1]!r}")
    for a, b in merged:
        if a == b and not merged[a, b].mask & IDENTITY.mask:
            raise ValueError(f"self-constraint on {a!r} excludes equality")
    allen = [(c, need) for c, need in allen if c[0] != c[2]]  # the rest say nothing

    metric = list(r.durations) + [(t.id, t.window) for t in r.timers]

    def scenario(chosen: Sequence[str]):
        intervals = _scenario_intervals(
            r, {m for br in r.branches if br.id not in chosen for m in br.members})
        live = set(intervals)
        return (intervals, [c for c, need in allen if need <= live],
                [(start_of(i), end_of(i), w) for i, w in metric if i in live])

    return scenario


def phenomena_coverage(r: Recipe) -> frozenset[PhenomenonTag]:
    tags = set()
    windows = [w for _, w in r.durations] + [t.window for t in r.timers]
    for w in windows:
        if w.is_point:
            tags.add(PhenomenonTag.PRECISE_QUANTITATIVE_DURATION)
        else:
            tags.add(PhenomenonTag.IMPRECISE_QUANTITATIVE_DURATION)
    if r.until_links:
        tags.add(PhenomenonTag.QUALITATIVE_DURATION)
    if len(_chain_steps(r)) >= 2:
        tags.add(PhenomenonTag.TOTAL_ORDER)
    if len(r.preliminaries) >= 2:
        tags.add(PhenomenonTag.PARTIAL_ORDER)
    if any(s.meanwhile for s in r.steps) or any(
            rel <= _CONCURRENT for _, rel, _ in r.relations):
        tags.add(PhenomenonTag.SIMULTANEITY)
    for m in r.markers:
        if m.mode == "sporadic":
            tags.add(PhenomenonTag.SPORADIC_REPETITION)
        elif m.mode == "alternation":
            tags.add(PhenomenonTag.ALTERNATION)
        elif m.mode == "count" and m.count is None:
            tags.add(PhenomenonTag.INDETERMINATE_REPETITION)
    if r.branches:
        tags.add(PhenomenonTag.EXCLUSIVE_DISJUNCTION)
    return frozenset(tags)
