"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and size parameters and returns
plain data: DSL or markup text, or constraint triples over atom names.
The program under test only ever sees that text or those networks.

Most inputs are *planted*: they are derived from a concrete realization
(start and end times per interval), so their true verdict and the true
relation of every pair are known without asking the code under test.
A planted inconsistency is a strict-before cycle, which no realization
satisfies and which path consistency always detects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

ATOMS = ("b", "bi", "m", "mi", "o", "oi", "d", "di", "s", "si", "f", "fi", "e")

# TimeML relTypes by the Allen atom they denote; o and oi have none.
RELTYPE = {"b": "BEFORE", "bi": "AFTER", "m": "IBEFORE", "mi": "IAFTER",
           "di": "INCLUDES", "d": "IS_INCLUDED", "e": "SIMULTANEOUS",
           "s": "BEGINS", "si": "BEGUN_BY", "f": "ENDS", "fi": "ENDED_BY"}

VERBS = ("chop", "stir", "whisk", "fold", "simmer", "bake", "rest", "knead",
         "grate", "toast", "drain", "season", "sear", "baste", "blend")
OBJECTS = ("onions", "sauce", "dough", "stock", "garlic", "butter", "rice",
           "beans", "the mixture", "the pan", "herbs", "carrots")


def atom_of(x, y) -> str:
    """The Allen atom between two realized intervals (start < end)."""
    xs, xe = x
    ys, ye = y
    if xe < ys:
        return "b"
    if ye < xs:
        return "bi"
    if xe == ys:
        return "m"
    if ye == xs:
        return "mi"
    if xs == ys and xe == ye:
        return "e"
    if xs == ys:
        return "s" if xe < ye else "si"
    if xe == ye:
        return "f" if xs > ys else "fi"
    if ys < xs and xe < ye:
        return "d"
    if xs < ys and ye < xe:
        return "di"
    return "o" if xs < ys else "oi"


def braces(atoms) -> str:
    return "{" + ",".join(a for a in ATOMS if a in atoms) + "}"


def _widen(rng, actual: str, extra_max: int) -> set[str]:
    """The actual atom plus up to `extra_max` random others."""
    out = {actual}
    out.update(rng.sample(ATOMS, rng.randint(0, extra_max)))
    return out


def _text(rng) -> str:
    return f"{rng.choice(VERBS)} {rng.choice(OBJECTS)}"


# ---------------------------------------------------------------------------
# recipes (.rcp)

@dataclass
class RecipeCase:
    """A generated recipe with its planted ground truth."""

    text: str
    times: dict[str, tuple[int, int]]   # realization of every interval
    durations: dict[str, int]           # id -> realized duration, for all ids
    labels: list[str]                   # scenario labels in output order
    live: dict[str, set[str]]           # label -> interval ids of the scenario
    actions: set[str]                   # prelim and step ids
    query: tuple[str, str]              # an interval pair present in every scenario
    consistent: bool                    # False when an order cycle was planted
    soft_count: int                     # recipe-soft constraints (plain shapes)
    chain: list[str]                    # the text-order chain of steps
    timed: dict[str, str]               # step id -> `for` phrase
    meanwhile: set[str]
    related: set[frozenset]             # interval pairs the text relates directly


def _duration_phrase(rng, d: int) -> str:
    """A `for` phrase whose window contains the realized duration d."""
    kind = rng.randrange(3)
    if kind == 0:
        return f"{d} min" if d % 60 else f"{d // 60} hour"
    if kind == 1:
        lo = rng.randint(max(1, d - 15), d)
        hi = rng.randint(d, d + 20)
        if lo == hi:
            hi += 1
        return f"{lo}-{hi} min"
    # about N widens to [4N/5, 6N/5]
    n = d + rng.randint(-(d // 6), d // 6)
    if not (4 * n <= 5 * d <= 6 * n):
        n = d
    return f"about {n} min"


@dataclass(frozen=True)
class RecipeShape:
    """The cost-relevant structure of a generated recipe; the seed only
    places and fills it."""

    steps: int
    alts: tuple[int, ...] = ()      # members of each alt block
    cyclic: bool = False            # plant a strict-before cycle
    prelims: int = 0
    untils: int = 0                 # chain steps ending `until` a state
    specials: tuple[str, ...] = ()  # "sporadic", "last", "alternate" (a pair)
    rels: int = 0                   # explicit `rel` lines between chain steps
    plain: bool = False             # first step exactly timed, no `for ... until`

    def chain_length(self) -> int:
        return self.steps - len(self.specials) - sum(self.alts)


def gen_recipe(rng: random.Random, shape: RecipeShape, title: str) -> RecipeCase:
    """A recipe of `shape` planted on a realization.

    Chain steps follow text order; about one in five is `meanwhile`.  A
    step that does not end `until` a state gets a `for` window (exact,
    range or `about`) about half the time; with `plain` unset, a step
    that ends `until` a state keeps a `for` cap half the time.  Specials
    are placed by their own rules and alt members float, each related
    to a chain step by its realized atom widened with random others.
    """
    n_chain = shape.chain_length()
    if n_chain < 3:
        raise ValueError(f"{shape} leaves fewer than three chain steps")
    times: dict[str, tuple[int, int]] = {}
    lines: list[str] = [f'recipe "{title}"']
    body: list[str] = []        # step lines in text order
    extra: list[str] = []       # marker and rel lines
    used_pairs: set[frozenset] = set()
    related: set[frozenset] = set()
    timed: dict[str, str] = {}

    prelims = [f"p{j}" for j in range(shape.prelims)]
    for j, p in enumerate(prelims):
        end = -rng.randint(1, 30) - 40 * j
        times[p] = (end - rng.randint(5, 20), end)
        lines.append(f'prelim {p} "{_text(rng)}"')

    chain = [f"s{i}" for i in range(n_chain)]
    stopped = set(rng.sample(chain[1:], shape.untils))
    during: set[str] = set()
    for i, sid in enumerate(chain):
        prev = times[chain[i - 1]] if i else None
        meanwhile = (prev is not None and prev[1] - prev[0] >= 3
                     and rng.random() < 0.2)
        if meanwhile:
            start = rng.randint(prev[0] + 1, prev[1] - 1)
            end = rng.randint(start + 1, prev[1])
            during.add(sid)
        else:
            start = 0 if prev is None else prev[1] + (
                0 if rng.random() < 0.3 else rng.randint(1, 20))
            end = start + rng.randint(5, 90)
        times[sid] = (start, end)
        clause = " meanwhile" if meanwhile else ""
        d = end - start
        if shape.plain and i == 0:
            # an exact window on the first step, for duration conflicts
            clause += f" for {d} min"
            timed[sid] = f"{d} min"
        elif sid in stopped:
            times[f"{sid}.until"] = (end, end + rng.randint(1, 30))
            related.add(frozenset((sid, f"{sid}.until")))
            if not shape.plain and rng.random() < 0.5:
                cap = d + rng.randint(0, 20)
                clause += f" for {cap} min"
                timed[sid] = f"{cap} min until"
            clause += f' until "{rng.choice(OBJECTS)} ready"'
        elif rng.random() < 0.5:
            phrase = _duration_phrase(rng, d)
            clause += f" for {phrase}"
            timed[sid] = phrase
        body.append(f'step {sid} "{_text(rng)}"{clause}')
    span_end = max(e for _, e in times.values())

    k = n_chain
    roomy = [c for c in chain if times[c][1] - times[c][0] >= 4]
    alternates = []
    for role in shape.specials:
        sid = f"s{k}"
        k += 1
        if role == "sporadic":
            ref = rng.choice(roomy)
            rs, re_ = times[ref]
            start = rng.randint(rs + 1, re_ - 2)
            times[sid] = (start, rng.randint(start + 1, re_ - 1))
            body.append(f'step {sid} "{_text(rng)}"')
            extra.append(f"sporadic {sid} in {ref}")
            related.add(frozenset((sid, ref)))
        elif role == "last":
            ref = rng.choice(roomy)
            rs, re_ = times[ref]
            span = rng.randint(2, re_ - rs - 1)
            times[f"{sid}.timer"] = (re_ - span, re_)
            times[sid] = (re_ - span, re_ - span + rng.randint(1, span - 1))
            body.append(f'step {sid} "{_text(rng)}" last {span} min of {ref}')
            related |= {frozenset((sid, f"{sid}.timer")), frozenset((f"{sid}.timer", ref))}
        else:  # alternating steps leave the chain and float
            start = rng.randint(0, span_end)
            times[sid] = (start, start + rng.randint(1, 40))
            body.append(f'step {sid} "{_text(rng)}"')
            alternates.append(sid)
    for a, b in zip(alternates[::2], alternates[1::2]):
        extra.append(f"alternate {a} with {b}")

    # explicit relations: the realized atom widened by random others
    pairs = [(a, b) for i, a in enumerate(chain) for b in chain[i + 1:]]
    for a, b in rng.sample(pairs, shape.rels):
        if rng.random() < 0.5:
            a, b = b, a
        used_pairs.add(frozenset((a, b)))
        extra.append(f"rel {a} {braces(_widen(rng, atom_of(times[a], times[b]), 3))} {b}")

    if shape.cyclic:
        free = [c for c in chain if not any(c in p for p in used_pairs)]
        x, y, z = rng.sample(free if len(free) >= 3 else chain, 3)
        cycle = [(x, y), (y, z), (z, x)]
        if any(frozenset(p) in used_pairs for p in cycle):
            extra = [ln for ln in extra if not ln.startswith("rel ")]
        extra += [f"rel {a} {{b}} {b}" for a, b in cycle]

    blocks: list[str] = []
    alt_members: dict[str, set[str]] = {}
    for j, count in enumerate(shape.alts):
        bid = f"a{j}"
        alt_members[bid] = set()
        blocks.append(f'alt {bid} "if you like it {rng.choice(("hot", "rich", "crisp"))}" {{')
        for _ in range(count):
            sid = f"s{k}"
            k += 1
            alt_members[bid].add(sid)
            start = rng.randint(0, span_end)
            times[sid] = (start, start + rng.randint(1, 40))
            anchor = rng.choice(chain)
            related.add(frozenset((sid, anchor)))
            blocks.append(f'  step {sid} "{_text(rng)}"')
            blocks.append(f"  rel {sid} "
                          f"{braces(_widen(rng, atom_of(times[sid], times[anchor]), 2))} {anchor}")
        blocks.append("}")

    # alt blocks sit between chain steps; markers and relations close the text
    cut = rng.randint(1, len(body))
    text = "\n".join(lines + body[:cut] + blocks + body[cut:] + extra) + "\n"

    related |= used_pairs | {frozenset((p, chain[0])) for p in prelims}
    related |= {frozenset(p) for p in zip(chain, chain[1:])}
    all_members = set().union(*alt_members.values())
    labels, live = [], {}
    for size in range(len(alt_members) + 1):
        for combo in itertools.combinations(sorted(alt_members), size):
            label = "+".join(combo) or "base"
            labels.append(label)
            keep = set().union(*(alt_members[b] for b in combo))
            live[label] = set(times) - (all_members - keep)

    soft = shape.prelims + (n_chain - 1) + shape.untils + len(timed)
    return RecipeCase(text, times, {i: e - s for i, (s, e) in times.items()},
                      labels, live, set(prelims) | {f"s{i}" for i in range(k)},
                      tuple(rng.sample(chain, 2)), not shape.cyclic, soft,
                      chain, timed, during, related)


# ---------------------------------------------------------------------------
# annotation markup (.tml)

@dataclass
class DocCase:
    text: str
    times: dict[str, tuple[int, int]]
    consistent: bool
    linked: set[frozenset]  # event pairs with a TLINK


def gen_timeml(rng: random.Random, n_events: int, n_links: int,
               cyclic: bool) -> DocCase:
    """A TimeML document over `n_events` realized events.  Links use
    the relType of the realized atom; pairs that overlap (o, oi) have no
    relType and are skipped.  `cyclic` adds a BEFORE cycle."""
    events = [f"e{i + 1}" for i in range(n_events)]
    times = {}
    for e in events:
        start = rng.randint(0, 60)
        times[e] = (start, start + rng.choice((5, 10, 15, rng.randint(1, 40))))
    parts = []
    for i, e in enumerate(events):
        parts.append(f'<EVENT eid="{e}" class="OCCURRENCE"> {rng.choice(VERBS)} </EVENT>'
                     f' <MAKEINSTANCE eiid="ei{i + 1}" eventID="{e}" tense="NONE"'
                     f' aspect="NONE" pos="VERB"/> {rng.choice(OBJECTS)}.')
    pairs = [(a, b) for ai, a in enumerate(events) for b in events[ai + 1:]]
    rng.shuffle(pairs)
    links = []
    for a, b in pairs:
        atom = atom_of(times[a], times[b])
        if atom in RELTYPE:
            links.append((a, RELTYPE[atom], b))
        if len(links) == n_links:
            break
    if cyclic:
        x, y, z = rng.sample(events, 3)
        links += [(x, "BEFORE", y), (y, "BEFORE", z), (z, "BEFORE", x)]
    for a, rel, b in links:
        parts.append(f'<TLINK eventInstanceID="ei{a[1:]}" '
                     f'relatedToEvent="ei{b[1:]}" relType="{rel}"/>')
    return DocCase("\n".join(parts) + "\n", times, not cyclic,
                   {frozenset((a, b)) for a, _, b in links})


# ---------------------------------------------------------------------------
# domain knowledge (.know) with planted conflicts

@dataclass
class KnowledgeCase:
    text: str
    conflicts: int  # planted conflicts, each relaxing exactly one soft constraint


def gen_knowledge(rng: random.Random, case: RecipeCase, conflicts: tuple[str, ...],
                  remove: str | None) -> KnowledgeCase:
    """Knowledge for a plain-chain recipe.

    Without conflicts, one new step is placed on the recipe's
    realization and related to an anchor by its realized atom, so it is
    consistent with the recipe.  Each planted conflict instead adds a
    step that contradicts exactly one recipe-soft constraint while the
    knowledge stays consistent on its own:

    * "order": a new step before the first chain step and after the
      last, which only dropping one chain link can satisfy;
    * "duration": a new step equal to the first step but twice as long,
      which only dropping that step's exact `for` window can satisfy.
    """
    chain = case.chain
    lines = [f'knowledge "swap {rng.choice(OBJECTS)}"']
    if remove is not None:
        lines.append(f"remove {remove}")
    anchors = set()
    rels = []
    steps = []
    if not conflicts:
        anchor = rng.choice(chain)
        start = rng.randint(-20, max(e for _, e in case.times.values()))
        d = rng.randint(5, 40)
        steps.append(f'step k0 "{_text(rng)}" for {d} min')
        rels.append(f"rel k0 {braces(_widen(rng, atom_of((start, start + d), case.times[anchor]), 2))} {anchor}")
        anchors.add(anchor)
    for j, kind in enumerate(conflicts, start=1):
        if kind == "duration":
            target = chain[0]
            steps.append(f'step k{j} "{_text(rng)}" for {2 * case.durations[target]} min')
            rels.append(f"rel k{j} {{e}} {target}")
            anchors.add(target)
        else:
            steps.append(f'step k{j} "{_text(rng)}"')
            rels.append(f"rel k{j} {{b}} {chain[0]}")
            rels.append(f"rel k{j} {{bi}} {chain[-1]}")
            anchors.update((chain[0], chain[-1]))
    lines += [f"anchor {a}" for a in sorted(anchors)] + steps + rels
    return KnowledgeCase("\n".join(lines) + "\n", len(conflicts))


# ---------------------------------------------------------------------------
# qualitative networks

def gen_anetwork(rng: random.Random, n: int, d: float, s: float):
    """Nebel's A(n, d, s) with its averages made exact, which keeps the
    search cost of one network closer to that of another: round(n d / 2)
    pairs chosen at random are constrained, so the average degree is d,
    and their labels hold floor(s) or ceil(s) random atoms in turn, so
    the average label size is s.  Unconstrained pairs are omitted (the
    full relation)."""
    nodes = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    chosen = sorted(rng.sample(pairs, min(len(pairs), round(n * d / 2))))
    low = int(s)
    triples = []
    for k, (a, b) in enumerate(chosen):
        size = low + (k % 2 if s > low else 0)
        triples.append((a, set(rng.sample(ATOMS, size)), b))
    return nodes, triples


def gen_planted_network(rng: random.Random, n: int, density: float, extra: int):
    """Van Beek and Manchak's planted-solution networks: realize n random
    intervals, then constrain round(density * pairs) random pairs by the
    realized atom plus up to `extra` random others.  Always consistent;
    returns the realization too."""
    nodes = [f"v{i}" for i in range(n)]
    times = {}
    for v in nodes:
        start = rng.randint(0, 4 * n)
        times[v] = (start, start + rng.randint(1, 2 * n))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    triples = []
    for a, b in sorted(rng.sample(pairs, round(density * len(pairs)))):
        triples.append((a, _widen(rng, atom_of(times[a], times[b]), extra), b))
    return nodes, triples, times


SIGNS = ("<", "=", ">")
# containment and equality fix the duration comparison
FORCED_SIGN = {"d": "<", "s": "<", "f": "<", "di": ">", "si": ">", "fi": ">",
               "e": "="}


def _valid(atom: str, sign: str) -> bool:
    return FORCED_SIGN.get(atom, sign) == sign


def gen_indu(rng: random.Random, n: int, density: float, cyclic: bool):
    """An INDU network planted on realized intervals: round(density *
    pairs) random pairs hold their realized (atom, duration sign) plus
    two random valid others at most.  `cyclic` adds a strict duration
    cycle a < b < c < a over otherwise free Allen parts, which no
    realization satisfies."""
    nodes = [f"v{i}" for i in range(n)]
    times = {}
    for v in nodes:
        start = rng.randint(0, 3 * n)
        times[v] = (start, start + rng.randint(1, 3 * n))
    triples = []
    cycle = set()
    if cyclic:
        x, y, z = rng.sample(range(n), 3)
        cycle = {(x, y, "<"), (y, z, "<"), (z, x, "<")}
    cycle_pairs = {frozenset(c[:2]) for c in cycle}
    free = [(i, j) for i in range(n) for j in range(i + 1, n)
            if frozenset((i, j)) not in cycle_pairs]
    for i, j in sorted(rng.sample(free, round(density * len(free)))):
        a, b = nodes[i], nodes[j]
        (xs, xe), (ys, ye) = times[a], times[b]
        dx, dy = xe - xs, ye - ys
        sign = "<" if dx < dy else "=" if dx == dy else ">"
        label = {(atom_of(times[a], times[b]), sign)}
        for _ in range(2):
            atom, sign = rng.choice(ATOMS), rng.choice(SIGNS)
            if _valid(atom, sign):
                label.add((atom, sign))
        triples.append((a, label, b))
    for i, j, sign in sorted(cycle):
        triples.append((nodes[i], {(a, sign) for a in ATOMS if _valid(a, sign)},
                        nodes[j]))
    return nodes, triples, times, not cyclic


def gen_tcsp(rng: random.Random, n_points: int, n_constraints: int,
             windows: int):
    """A TCSP planted on realized time points: each constraint has one
    window holding the realized difference and `windows - 1` disjoint
    decoys.  Returns (points, [(frm, to, [(lo, hi), ...])], times)."""
    points = [f"t{i}" for i in range(n_points)]
    times = {p: rng.randint(0, 100) for p in points}
    pairs = [(a, b) for ai, a in enumerate(points) for b in points[ai + 1:]]
    rng.shuffle(pairs)
    constraints = []
    for a, b in pairs[:n_constraints]:
        diff = times[b] - times[a]
        width = rng.randint(0, 6)
        lo = diff - rng.randint(0, width)
        spans = [(lo, lo + width)]
        for _ in range(windows - 1):
            gap = rng.randint(3, 30)
            if rng.random() < 0.5:
                hi = spans[0][0] - gap
                spans.insert(0, (hi - rng.randint(0, 8), hi))
            else:
                lo2 = spans[-1][1] + gap
                spans.append((lo2, lo2 + rng.randint(0, 8)))
        rng.shuffle(spans)
        constraints.append((a, b, spans))
    return points, constraints, times
