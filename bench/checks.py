"""Output checks.  Each returns None when the output is right and a
one-line reason when it is not.

The checks judge outputs against the planted ground truth of the
generators, not against the code under test: a verdict must match the
planted one, every relation or window the program prints must admit the
realization the input was planted on, and an Allen witness is realized
by an independent endpoint solver.  An "inconsistent" verdict on a
network without a planted realization is confirmed by an independent
search.  The only calls into the package
read results (`cell`, `window`, `close`) and are bound here, before any
tracer rebinds the package's attributes.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from chronotext.allen import close as _close

from generators import ATOMS, atom_of

_BRACES = re.compile(r"\{([^}]*)\}")
_WINDOW = re.compile(r"([\[(])(\S+), (\S+)([\])])")


def parse_relation(text: str) -> set[str]:
    m = _BRACES.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a relation: {text!r}")
    return {a.strip() for a in m.group(1).split(",") if a.strip()}


def parse_window(text: str):
    """`[lo, hi)`-style text to (lo, lo_strict, hi, hi_strict); None = infinite."""
    m = _WINDOW.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a window: {text!r}")
    left, lo, hi, right = m.groups()
    return (None if lo == "-inf" else Fraction(lo), left == "(",
            None if hi == "inf" else Fraction(hi), right == ")")


def in_window(v, w) -> bool:
    lo, lo_strict, hi, hi_strict = w
    if lo is not None and (v < lo or (v == lo and lo_strict)):
        return False
    if hi is not None and (v > hi or (v == hi and hi_strict)):
        return False
    return True


def _cli(result, code: int):
    got, out, err = result
    if got != code:
        return f"exit code {got}, expected {code}" + (f" ({err.strip()})" if err else "")
    return None


# ---------------------------------------------------------------------------
# recipe commands

def check_check(result, case) -> str | None:
    bad = _cli(result, 0 if case.consistent else 1)
    if bad:
        return bad
    state = "consistent" if case.consistent else "inconsistent"
    want = [f"scenario {label}: {state}" for label in case.labels]
    got = result[1].splitlines()
    return None if got == want else f"check printed {got!r}, expected {want!r}"


def _blocks(out: str, labels):
    """Split `scenario <label>` headed output into per-label line lists."""
    blocks, current = {}, None
    for line in out.splitlines():
        if line.startswith("scenario "):
            current = line[len("scenario "):]
            blocks[current] = []
        elif current is None:
            raise ValueError(f"output before the first scenario: {line!r}")
        else:
            blocks[current].append(line)
    if list(blocks) != list(labels):
        raise ValueError(f"scenarios {list(blocks)}, expected {list(labels)}")
    return blocks


def check_close(result, case) -> str | None:
    bad = _cli(result, 0 if case.consistent else 1)
    if bad:
        return bad
    try:
        blocks = _blocks(result[1], case.labels)
    except ValueError as exc:
        return str(exc)
    for label, lines in blocks.items():
        if not case.consistent:
            if lines != ["inconsistent"]:
                return f"scenario {label}: expected 'inconsistent', got {lines!r}"
            continue
        live = case.live[label]
        if not lines or lines[0].split()[1:] != sorted(live):
            return f"scenario {label}: wrong interval list {lines[:1]!r}"
        pairs, windows = set(), set()
        for line in lines[1:]:
            parts = line.split(" ", 3)
            if parts[0] == "duration":
                i, w = parts[1], parse_window(line.split(" in ", 1)[1])
                windows.add(i)
                if not in_window(case.durations[i], w):
                    return f"scenario {label}: {line!r} excludes realized {case.durations[i]}"
            else:
                a, b, rel = parts[0], parts[1], parse_relation(parts[2])
                pairs.add(frozenset((a, b)))
                actual = atom_of(case.times[a], case.times[b])
                if actual not in rel:
                    return f"scenario {label}: {line!r} excludes realized {actual}"
        # closure only tightens, so every pair the text relates and every
        # step with a `for` window stays informative
        missing = sorted(sorted(p) for p in case.related if p <= live and p not in pairs)
        if missing:
            return f"scenario {label}: no relation line for {missing[0]}"
        untimed = sorted(i for i in case.timed if i in live and i not in windows)
        if untimed:
            return f"scenario {label}: no duration line for {untimed[0]}"
    return None


def check_query(result, case) -> str | None:
    bad = _cli(result, 0 if case.consistent else 1)
    if bad:
        return bad
    try:
        blocks = _blocks(result[1], case.labels)
    except ValueError as exc:
        return str(exc)
    a, b = case.query
    actual = atom_of(case.times[a], case.times[b])
    offset = case.times[b][0] - case.times[a][0]
    for label, lines in blocks.items():
        if not case.consistent:
            if lines != ["inconsistent"]:
                return f"scenario {label}: expected 'inconsistent', got {lines!r}"
            continue
        if len(lines) != 2:
            return f"scenario {label}: expected 2 lines, got {lines!r}"
        if actual not in parse_relation(lines[0]):
            return f"scenario {label}: {lines[0]} excludes realized {actual}"
        head = f"start({b}) - start({a}) in "
        if not lines[1].startswith(head):
            return f"scenario {label}: bad window line {lines[1]!r}"
        if not in_window(offset, parse_window(lines[1][len(head):])):
            return f"scenario {label}: {lines[1]!r} excludes realized {offset}"
    return None


_NODE = re.compile(r'\s*"([^"]+)" \[')
_EDGE = re.compile(r'\s*"([^"]+)" -> "([^"]+)"( \[style=dashed\])?;')


def check_workflow(result, case) -> str | None:
    """Every live action is a node, and every solid edge between two
    actions runs from an action that ends no later than the other starts."""
    bad = _cli(result, 0 if case.consistent else 1)
    if bad or not case.consistent:
        return bad
    out = result[1]
    if not (out.startswith("digraph workflow {\n") and out.endswith("}\n")):
        return "workflow output is not a dot digraph"
    nodes, edges = set(), []
    for line in out.splitlines()[1:-1]:
        edge = _EDGE.fullmatch(line)
        if edge:
            if not edge.group(3):
                edges.append((edge.group(1), edge.group(2)))
            continue
        node = _NODE.match(line)
        if node:
            nodes.add(node.group(1))
    prefixes = [""] if len(case.labels) == 1 else [f"{x}:" for x in case.labels]
    action_of = {}
    for label, prefix in zip(case.labels, prefixes):
        for a in case.live[label] & case.actions:
            if prefix + a not in nodes:
                return f"action {prefix + a!r} missing from the workflow"
            action_of[prefix + a] = a
    for frm, to in edges:
        a, b = action_of.get(frm), action_of.get(to)
        if a and b and case.times[a][1] > case.times[b][0]:
            return f"edge {frm} -> {to} contradicts the realization"
    return None


def check_bytes(result, expected: str) -> str | None:
    bad = _cli(result, 0)
    if bad:
        return bad
    return None if result[1] == expected else "output differs from the golden file"


def check_verdict(result, consistent: bool) -> str | None:
    """Exit code and scenario verdicts only, for inputs without a planted
    realization (the fixtures and the ROADMAP item-4 reproduction)."""
    bad = _cli(result, 0 if consistent else 1)
    if bad:
        return bad
    state = "consistent" if consistent else "inconsistent"
    lines = result[1].splitlines()
    if not lines or any(not ln.endswith(f": {state}") for ln in lines):
        return f"expected every scenario {state}, got {lines!r}"
    return None


def check_timeml(result, doc) -> str | None:
    bad = _cli(result, 0 if doc.consistent else 1)
    if bad:
        return bad
    lines = result[1].splitlines()
    want = "consistent" if doc.consistent else "inconsistent"
    if not lines or lines[-1] != want:
        return f"last line {lines[-1:]!r}, expected {want!r}"
    if lines[0].split()[1:] != sorted(doc.times):
        return f"wrong interval list {lines[0]!r}"
    pairs = set()
    for line in lines[1:-1]:
        a, b, rel = line.split(" ", 2)
        pairs.add(frozenset((a, b)))
        actual = atom_of(doc.times[a], doc.times[b])
        if doc.consistent and actual not in parse_relation(rel):
            return f"{line!r} excludes realized {actual}"
    missing = sorted(sorted(p) for p in doc.linked - pairs)
    return f"no relation line for linked pair {missing[0]}" if missing else None


_RETAINED = re.compile(r"retained (\d+) of (\d+) soft constraints")


def check_adapt(result, soft: int, conflicts: int) -> str | None:
    """Retained plus relaxed is the soft count; nothing is relaxed without
    a planted conflict, and each planted conflict relaxes exactly one
    constraint."""
    bad = _cli(result, 0)
    if bad:
        return bad
    lines = result[1].splitlines()
    m = _RETAINED.fullmatch(lines[0]) if lines else None
    if m is None:
        return f"no retained line: {lines[:1]!r}"
    retained, total = int(m.group(1)), int(m.group(2))
    kept = sum(1 for ln in lines if ln.startswith("  kept "))
    relaxed = sum(1 for ln in lines if ln.startswith("  relaxed "))
    if total != soft:
        return f"{total} soft constraints, expected {soft}"
    if kept != retained or retained + relaxed != total:
        return f"retained {retained} + relaxed {relaxed} != {total} (kept lines {kept})"
    if relaxed != conflicts:
        return f"{relaxed} relaxed, expected {conflicts} for the planted conflicts"
    return None


# ---------------------------------------------------------------------------
# networks

_POINT = {
    "b": [("xe", "<", "ys")], "bi": [("ye", "<", "xs")],
    "m": [("xe", "=", "ys")], "mi": [("ye", "=", "xs")],
    "o": [("xs", "<", "ys"), ("ys", "<", "xe"), ("xe", "<", "ye")],
    "oi": [("ys", "<", "xs"), ("xs", "<", "ye"), ("ye", "<", "xe")],
    "d": [("ys", "<", "xs"), ("xe", "<", "ye")],
    "di": [("xs", "<", "ys"), ("ye", "<", "xe")],
    "s": [("xs", "=", "ys"), ("xe", "<", "ye")],
    "si": [("xs", "=", "ys"), ("ye", "<", "xe")],
    "f": [("xe", "=", "ye"), ("ys", "<", "xs")],
    "fi": [("xe", "=", "ye"), ("xs", "<", "ys")],
    "e": [("xs", "=", "ys"), ("xe", "=", "ye")],
}


def realize_atomic(nodes, atoms: dict) -> dict | None:
    """Realize an atomic Allen network by its endpoint order: merge the
    equal endpoints, rank the strict order, and confirm every atom on
    the ranks.  `atoms` maps (a, b) pairs to one atom name."""
    parent = {}

    def find(p):
        while parent.setdefault(p, p) != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    less = [((v, "s"), (v, "e")) for v in nodes]
    for (a, b), atom in atoms.items():
        ends = {"xs": (a, "s"), "xe": (a, "e"), "ys": (b, "s"), "ye": (b, "e")}
        for p, op, q in _POINT[atom]:
            if op == "=":
                parent[find(ends[p])] = find(ends[q])
            else:
                less.append((ends[p], ends[q]))
    succ: dict = {}
    indegree: dict = {}
    for p, q in less:
        p, q = find(p), find(q)
        succ.setdefault(p, []).append(q)
        indegree[q] = indegree.get(q, 0) + 1
        indegree.setdefault(p, 0)
    rank = {p: 0 for p, k in indegree.items() if k == 0}
    ready = list(rank)
    while ready:
        p = ready.pop()
        for q in succ.get(p, ()):
            rank[q] = max(rank.get(q, 0), rank[p] + 1)
            indegree[q] -= 1
            if indegree[q] == 0:
                ready.append(q)
    if any(k for k in indegree.values()):
        return None  # a strict cycle
    times = {v: (rank[find((v, "s"))], rank[find((v, "e"))]) for v in nodes}
    for (a, b), atom in atoms.items():
        if atom_of(times[a], times[b]) != atom:
            return None
    return times


# Allen relations as bit masks, for the independent search below.  The
# composition and converse tables are read off realizations of interval
# triples over six points, which show every atom combination.
_BIT = {a: 1 << i for i, a in enumerate(ATOMS)}
_FULL = (1 << len(ATOMS)) - 1
_SPANS = [(s, e) for s in range(6) for e in range(s + 1, 6)]
_CONVERSE = {_BIT[atom_of(x, y)]: _BIT[atom_of(y, x)] for x in _SPANS for y in _SPANS}
_COMPOSE: dict[tuple[int, int], int] = {}
for _x, _y, _z in itertools.product(_SPANS, repeat=3):
    _key = (_BIT[atom_of(_x, _y)], _BIT[atom_of(_y, _z)])
    _COMPOSE[_key] = _COMPOSE.get(_key, 0) | _BIT[atom_of(_x, _z)]


def _atoms(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _converse(mask: int) -> int:
    out = 0
    for x in _atoms(mask):
        out |= _CONVERSE[x]
    return out


def _path_consistent(m: list[list[int]]) -> bool:
    """Tighten every (i, k) by (i, j) composed with (j, k) until nothing
    changes; False when a relation becomes empty."""
    n = len(m)
    queue = [(i, j) for i in range(n) for j in range(n) if i != j]
    queued = set(queue)
    while queue:
        i, j = queue.pop()
        queued.discard((i, j))
        for k in range(n):
            if k == i or k == j:
                continue
            for a, b, c in ((i, j, k), (k, i, j)):
                via = 0
                for x in _atoms(m[a][b]):
                    for y in _atoms(m[b][c]):
                        via |= _COMPOSE[(x, y)]
                new = m[a][c] & via
                if new == m[a][c]:
                    continue
                if not new:
                    return False
                m[a][c], m[c][a] = new, _converse(new)
                for pair in ((a, c), (c, a)):
                    if pair not in queued:
                        queued.add(pair)
                        queue.append(pair)
    return True


def allen_consistent(nodes, triples) -> bool:
    """Decide an Allen network: path consistency, branching on the atoms
    of the smallest relation that is neither atomic nor full.  Path
    consistency decides networks of atomic and full relations, so the
    search is exact."""
    index = {v: i for i, v in enumerate(nodes)}
    m = [[_FULL] * len(nodes) for _ in nodes]
    for i in range(len(nodes)):
        m[i][i] = _BIT["e"]
    for a, label, b in triples:
        i, j = index[a], index[b]
        m[i][j] &= sum(_BIT[x] for x in label)
        m[j][i] = _converse(m[i][j])

    def search(m) -> bool:
        if not _path_consistent(m):
            return False
        open_ = [(bin(r).count("1"), i, j) for i, row in enumerate(m)
                 for j, r in enumerate(row) if i < j and r & (r - 1) and r != _FULL]
        if not open_:
            return True
        _, i, j = min(open_)
        for x in _atoms(m[i][j]):
            trial = [row[:] for row in m]
            trial[i][j], trial[j][i] = x, _CONVERSE[x]
            if search(trial):
                return True
        return False

    return search(m)


def check_allen(result, nodes, triples, planted: bool) -> str | None:
    """`atomic_consistent`: a planted network must be reported
    consistent, and any other network reported inconsistent must be
    inconsistent by `allen_consistent`; a witness must be atomic, refine
    its input, be realizable and be unchanged by `close`."""
    ok, scenario = result
    if not ok:
        if planted:
            return "planted-consistent network reported inconsistent"
        return ("consistent network reported inconsistent"
                if allen_consistent(nodes, triples) else None)
    atoms = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            cell = parse_relation(str(scenario.cell(a, b)))
            if len(cell) != 1:
                return f"witness cell {a} {b} is {cell}, not atomic"
            atoms[(a, b)] = next(iter(cell))
    for a, label, b in triples:
        if atoms[(a, b)] not in label:
            return f"witness {a} {atoms[(a, b)]} {b} leaves the input {sorted(label)}"
    if realize_atomic(nodes, atoms) is None:
        return "witness has no realization"
    if _close(scenario) != scenario:
        return "witness is changed by close"
    return None


def check_indu(result, nodes, times, consistent: bool) -> str | None:
    """`indu_close`: a planted network stays consistent and every cell
    keeps the realized (atom, duration sign); a planted duration cycle
    is flagged inconsistent."""
    if not consistent:
        return None if result.inconsistent else "duration cycle not detected"
    if result.inconsistent:
        return "planted-consistent INDU network reported inconsistent"
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            (xs, xe), (ys, ye) = times[a], times[b]
            sign = "<" if xe - xs < ye - ys else "=" if xe - xs == ye - ys else ">"
            actual = (atom_of(times[a], times[b]), sign)
            cell = {(atom.allen.name, atom.dur) for atom in result.cell(a, b).atoms}
            if actual not in cell:
                return f"cell {a} {b} excludes realized {actual}"
    return None


def check_tcsp(result, constraints) -> str | None:
    """`tcsp_consistent` on a planted TCSP: consistent, and the witness
    window of every constraint lies inside one of its input windows."""
    ok, witness = result
    if not ok:
        return "planted TCSP reported inconsistent"
    if witness.inconsistent:
        return "witness is flagged inconsistent"
    for frm, to, windows in constraints:
        lo, lo_strict, hi, hi_strict = parse_window(str(witness.window(frm, to)))
        if lo is None or hi is None or not any(
                wl <= lo and hi <= wh for wl, wh in windows):
            return f"witness window {frm}->{to} lies in no input window {windows}"
    return None
