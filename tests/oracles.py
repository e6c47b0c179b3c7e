"""Brute-force oracles used by the test suite.

Everything here is deliberately written against the raw endpoint
semantics, not against the package's own tables or enumeration code, so
that the two can check each other.  The exceptions are the reference
versions of the metric layer's earlier algorithms (the tuple
Floyd-Warshall, the 13-overlay read-back and the read-back by one
integer Floyd-Warshall per atom), which reuse the package's network
types and atom-to-endpoint table to check its fast paths, but keep
their own copies of the per-call bound encoder (`_scaled`), of the
decoder of the stored matrix (`decoded`), of a plain
integer Floyd-Warshall (`int_shortest_paths`, not the package's
pivoted kernel) and of the window-based atom export (`atom_windows`,
all four endpoint signs of the atom as its definition gives them); the
read-back by per-atom cycle tests rebuilt from the package's cycle splits; the hybrid closure that reads
back every cell in every round, over the package's round steps; the
printing and precedence passes through relation and window objects;
the read-back of a network's constraints as recipe-soft, the one way
the tests tag a network that comes with no recipe; the DSL tokenizer
and the TimeML reader as they stepped through their input one
character at a time; the earlier recursion of
the hybrid scenario search, the scenario search that re-closes every pair at every
node, the path consistency that composes on every revision, the
revision and TCSP searches that close every node's network from scratch,
the adaptation that encodes the base scenario, restricts it and reads its
constraints back before grafting the knowledge,
the revision witness test that decodes and intersects windows, the
one-window conjoin that rebuilds the network from its decoded bounds
(`conjoined`, the tuple conjoin, where the package rescales), and the
recipe encoder that derives every rule again in each scenario (with its
own chain and interval rules, not the package's helpers); the duration
parse through `Fraction(str)`, restriction one entry at a time and the
workflow's transitive reduction over every triple.
`exact_hybrid` states what a hybrid network means, with no closure or
table of the package: endpoint orders, atoms by definition and the plain
integer Floyd-Warshall.
"""

import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm

from chronotext.adaptation import (
    MAX_REVISION_SOFT,
    RevisionResult,
    TaggedConstraint,
    _network_from,
    adapt_text_edits,
    inject,
    revise,
)
from chronotext.allen import FULL_MASK, QCN, BaseRelation, Relation, close
from chronotext.annotation import (
    _REQUIRED,
    AnnotatedDoc,
    AnnotationError,
    Event,
    Instance,
    RecipeSyntaxError,
    Signal,
    TLink,
    _parse_attrs,
)
from chronotext.indu import INDURelation, valid_atoms
from chronotext.hybrid import (
    HybridNetwork,
    _export_close,
    hybrid_atomic_consistent,
    hybrid_close,
)
from chronotext.metric import (
    _ATOM_EDGES,
    _CYCLE_SPLITS,
    _M,
    STP,
    ScaleBoundExceeded,
    BoundWindow,
    POSITIVE,
    _close_with,
    end_of,
    metric_to_allen,
    start_of,
    stp_close,
)
from chronotext.recipe import _DURATION_RE, _UNIT_MINUTES, encode_recipe
from chronotext.workflow import WorkflowNode, _loop_label, _precedence

ATOM_NAMES = ("b", "bi", "m", "mi", "o", "oi", "d", "di", "s", "si", "f", "fi", "e")


def _atom_defs(xs, xe, ys, ye):
    return {
        "b": xe < ys,
        "bi": ye < xs,
        "m": xe == ys,
        "mi": ye == xs,
        "o": xs < ys < xe < ye,
        "oi": ys < xs < ye < xe,
        "d": ys < xs and xe < ye,
        "di": xs < ys and ye < xe,
        "s": xs == ys and xe < ye,
        "si": xs == ys and ye < xe,
        "f": xe == ye and ys < xs,
        "fi": xe == ye and xs < ys,
        "e": xs == ys and xe == ye,
    }


def atom_by_definition(x, y):
    """The atom holding between realized intervals, from the defining
    endpoint predicates; asserts that exactly one predicate fires."""
    holds = [name for name, ok in _atom_defs(x[0], x[1], y[0], y[1]).items() if ok]
    assert len(holds) == 1, f"atoms not a partition at {x}, {y}: {holds}"
    return holds[0]


@lru_cache(maxsize=None)
def atom_signs_by_definition():
    """Per atom name, the signs of xs - ys, xs - ye, xe - ys and xe - ye,
    read off the first realization on the grid 0..3 that shows it."""
    signs = {}
    for xs, xe, ys, ye in product(range(4), repeat=4):
        if xs < xe and ys < ye:
            signs.setdefault(atom_by_definition((xs, xe), (ys, ye)), tuple(
                (p > q) - (p < q) for p, q in ((xs, ys), (xs, ye), (xe, ys), (xe, ye))))
    assert len(signs) == 13
    return signs


def atom_windows(atom, x, y):
    """An atom's endpoint constraints as (from, to, window) triples over
    the start and end point ids of x and y: all four endpoint signs of
    `atom_signs_by_definition`, each as a difference > 0 or = 0."""
    xs, xe, ys, ye = start_of(x), end_of(x), start_of(y), end_of(y)
    pairs = ((xs, ys), (xs, ye), (xe, ys), (xe, ye))
    return tuple((q, p, POSITIVE) if s > 0 else (p, q, POSITIVE if s else BoundWindow.exact(0))
                 for (p, q), s in zip(pairs, atom_signs_by_definition()[atom.name]))


def indu_lift(rel):
    """An Allen relation read as an INDU one, durations unknown: every
    valid atom whose Allen part the relation holds, atom by atom."""
    return INDURelation.of(*(a for a in valid_atoms() if a.allen in rel))


def three_interval_configs():
    """Every realizable endpoint configuration of three intervals, up to
    order-isomorphism: integer endpoints drawn from 0..5 with start < end.

    Six values suffice because three intervals have six endpoints, so any
    weak order over them embeds into 0..5.
    """
    for vals in product(range(6), repeat=6):
        xs, xe, ys, ye, zs, ze = vals
        if xs < xe and ys < ye and zs < ze:
            yield (xs, xe), (ys, ye), (zs, ze)


def composition_by_enumeration():
    """The full 169-entry composition table derived from enumeration:
    maps (atom1, atom2) to the frozenset of atoms observed for (x, z)
    over all configurations with atom1(x, y) and atom2(y, z)."""
    table = {}
    for x, y, z in three_interval_configs():
        r1 = atom_by_definition(x, y)
        r2 = atom_by_definition(y, z)
        r3 = atom_by_definition(x, z)
        table.setdefault((r1, r2), set()).add(r3)
    assert len(table) == 169
    return {k: frozenset(v) for k, v in table.items()}


def realizable_atom_triples():
    """All (r_xy, r_yz, r_xz) atom triples realizable by three intervals."""
    triples = set()
    for x, y, z in three_interval_configs():
        triples.add((atom_by_definition(x, y),
                     atom_by_definition(y, z),
                     atom_by_definition(x, z)))
    return triples


REALIZE_MAX_INTERVALS = 4


@lru_cache(maxsize=8)
def _order_profiles(n):
    """All weak orders of the 2n endpoints (start0, end0, start1, ...) with
    start < end per interval, as endpoint ranks, paired with the bit
    index of the atom induced for every interval pair (i, j), i < j, in
    pair order (`atom_by_definition`).

    Enumeration inserts endpoints one at a time into an ordered chain of
    equivalence blocks, pruning placements that put an end at or before
    its start.
    """
    total = 2 * n
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    profiles = []

    def place(k, blocks, where):
        if k == total:
            ranks = [0] * total
            for pos, blk in enumerate(blocks):
                for endpoint in blk:
                    ranks[endpoint] = pos
            atoms = tuple(int(BaseRelation[atom_by_definition(ranks[2 * i:2 * i + 2],
                                                              ranks[2 * j:2 * j + 2])])
                          for i, j in pair_list)
            profiles.append((tuple(ranks), atoms))
            return
        first = 0
        if k % 2 == 1:  # end endpoints go strictly after their start's block
            first = blocks.index(where[k - 1]) + 1
        for pos in range(first, len(blocks) + 1):
            new_block = [k]
            blocks.insert(pos, new_block)
            where[k] = new_block
            place(k + 1, blocks, where)
            blocks.pop(pos)
            if pos < len(blocks):
                blocks[pos].append(k)
                where[k] = blocks[pos]
                place(k + 1, blocks, where)
                blocks[pos].pop()
        del where[k]

    place(0, [], {})
    return tuple(profiles)


def realize_small(net):
    """Brute-force realization oracle for networks of at most 4 intervals.

    Enumerates every weak order over the 2n endpoints and returns the
    first witness satisfying all cells, a dict of interval id to
    (start, end) Fractions, or None.  Independent of the composition
    table, of closure and of the package's atom-of-endpoints table.
    """
    n = len(net.intervals)
    if n > REALIZE_MAX_INTERVALS:
        raise ValueError(f"realization oracle limited to {REALIZE_MAX_INTERVALS} intervals")
    if n == 0:
        return {}
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cells = [net._matrix[i][j] for i, j in pair_list]
    for ranks, atoms in _order_profiles(n):
        if all(cells[p] & (1 << atoms[p]) for p in range(len(pair_list))):
            return {
                name: (Fraction(ranks[2 * i]), Fraction(ranks[2 * i + 1]))
                for i, name in enumerate(net.intervals)
            }
    return None


def indu_pairs_by_enumeration():
    """All realizable (atom, duration sign) pairs for two intervals,
    endpoints on a 0..7 grid (fine enough to separate every duration
    comparison that two intervals can exhibit)."""
    pairs = set()
    for xs, xe, ys, ye in product(range(8), repeat=4):
        if xs < xe and ys < ye:
            atom = atom_by_definition((xs, xe), (ys, ye))
            dx, dy = xe - xs, ye - ys
            sign = "<" if dx < dy else (">" if dx > dy else "=")
            pairs.add((atom, sign))
    return pairs


def indu_triples_by_enumeration():
    """Realizable ((atom, sign), (atom, sign), (atom, sign)) triples for
    (x,y), (y,z), (x,z) over a 0..7 endpoint grid."""
    triples = set()
    for xs, xe in [(a, b) for a in range(8) for b in range(a + 1, 8)]:
        for ys, ye in [(a, b) for a in range(8) for b in range(a + 1, 8)]:
            axy = atom_by_definition((xs, xe), (ys, ye))
            sxy = _sign(xe - xs, ye - ys)
            for zs, ze in [(a, b) for a in range(8) for b in range(a + 1, 8)]:
                ayz = atom_by_definition((ys, ye), (zs, ze))
                syz = _sign(ye - ys, ze - zs)
                axz = atom_by_definition((xs, xe), (zs, ze))
                sxz = _sign(xe - xs, ze - zs)
                triples.add(((axy, sxy), (ayz, syz), (axz, sxz)))
    return triples


def _sign(a, b):
    return "<" if a < b else (">" if a > b else "=")


# (value, strict) upper bounds on t_to - t_from; None is +infinity
_INF = (None, True)


def _badd(a, b):
    if a[0] is None or b[0] is None:
        return _INF
    return (a[0] + b[0], a[1] or b[1])


def _btighter(a, b):
    """The stronger of two upper bounds; at equal values strict wins."""
    if a[0] is None:
        return b
    if b[0] is None:
        return a
    if a[0] != b[0]:
        return a if a[0] < b[0] else b
    return a if a[1] else b


def _unscaled(e, d, m):
    """The (value, strict) bound of an entry e = v*D*M - strict; None is
    +infinity."""
    if e is None:
        return _INF
    q = -(-e // m)
    return Fraction(q, d), q * m != e


def decoded(s):
    """The stored matrix of an STP as (value, strict) bounds, row i
    column j bounding t_j - t_i, each entry read at the package's
    strictness multiplier `_M`."""
    return [[_unscaled(v, s._d, _M) for v in row] for row in s._e]


def stp_of_bounds(points, u, **flags):
    """The STP over `points` that `STP.build` makes of a (value, strict)
    bound matrix, each finite entry as a window with that upper bound;
    `flags` (`minimal`, `inconsistent`) set through `STP._raw`."""
    s = STP.build(points, [(a, b, BoundWindow(None, v, hi_strict=strict))
                           for a, row in zip(points, u)
                           for b, (v, strict) in zip(points, row) if v is not None])
    return STP._raw(s.points, s._index, s._e, s._d, **flags)


def tuple_shortest_paths(u):
    """Floyd-Warshall over a matrix of (value, strict) bounds, in place,
    with lexicographic tuple arithmetic.  False when some cycle has
    negative weight, or zero weight with a strict leg."""
    n = len(u)
    for k in range(n):
        uk = u[k]
        for i in range(n):
            uik = u[i][k]
            if uik[0] is None:
                continue
            ui = u[i]
            for j in range(n):
                ui[j] = _btighter(ui[j], _badd(uik, uk[j]))
    for i in range(n):
        v, strict = u[i][i]
        if v is not None and (v < 0 or (v == 0 and strict)):
            return False
    return True


def tuple_conjoin(points, u, constraints, new_points=()):
    """A (value, strict) bound matrix over `points` extended by
    `new_points`, with the (from, to, window) triples conjoined by the
    tuple comparison; returns (points, matrix)."""
    points = list(points) + list(new_points)
    n = len(points)
    u = [list(row) + [_INF] * (n - len(row)) for row in u]
    for i in range(len(u), n):
        u.append([_INF] * n)
        u[i][i] = (Fraction(0), False)
    index = {p: i for i, p in enumerate(points)}
    for frm, to, w in constraints:
        i, j = index[frm], index[to]
        if w.hi is not None:
            u[i][j] = _btighter(u[i][j], (w.hi, w.hi_strict))
        if w.lo is not None:
            u[j][i] = _btighter(u[j][i], (-w.lo, w.lo_strict))
    return points, u


def conjoined(s, constraints):
    """An STP with the (from, to, window) triples conjoined into its
    decoded bounds by `tuple_conjoin`, rebuilt by `stp_of_bounds` at the
    scale of what it then holds; it stays flagged inconsistent, since a
    tightening keeps a negative cycle, and is not flagged minimal."""
    return stp_of_bounds(s.points, tuple_conjoin(s.points, decoded(s), constraints)[1],
                         inconsistent=s.inconsistent)


def overlay_metric_to_allen(s, x, y):
    """The atoms whose endpoint constraints, laid over the 4x4 endpoint
    projection of a minimal STP, leave it free of negative cycles: one
    tuple Floyd-Warshall per atom."""
    pts = (start_of(x), end_of(x), start_of(y), end_of(y))
    sub = [[_INF] * 4 for _ in range(4)]
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            w = s.window(p, q)
            if w.hi is not None:
                sub[i][j] = _btighter(sub[i][j], (w.hi, w.hi_strict))
            if w.lo is not None:
                sub[j][i] = _btighter(sub[j][i], (-w.lo, w.lo_strict))
    local = {p: i for i, p in enumerate(pts)}
    mask = 0
    for atom in BaseRelation:
        u = [row[:] for row in sub]
        for frm, to, w in atom_windows(atom, x, y):
            i, j = local[frm], local[to]
            if w.hi is not None:
                u[i][j] = _btighter(u[i][j], (w.hi, w.hi_strict))
            if w.lo is not None:
                u[j][i] = _btighter(u[j][i], (-w.lo, w.lo_strict))
        if tuple_shortest_paths(u):
            mask |= 1 << atom
    return Relation(mask)


def _scaled(u):
    """Encode a (value, strict) bound matrix as integers v*D*M - strict,
    with D the least common multiple of the finite values' denominators
    and M = n + 1; +infinity becomes None.  Returns (matrix, D, M)."""
    m = len(u) + 1
    d = 1
    for row in u:
        for v, _ in row:
            if v is not None:
                d = lcm(d, v.denominator)
    enc = [[None if v is None else v.numerator * (d * m // v.denominator) - strict
            for v, strict in row] for row in u]
    return enc, d, m


def int_shortest_paths(e):
    """Floyd-Warshall over an integer distance matrix (None is +infinity),
    in place, summing entries as they are, with no early exit.  False
    when some diagonal entry ends negative."""
    n = len(e)
    for k in range(n):
        for i in range(n):
            if e[i][k] is None:
                continue
            for j in range(n):
                if e[k][j] is not None and (e[i][j] is None or e[i][k] + e[k][j] < e[i][j]):
                    e[i][j] = e[i][k] + e[k][j]
    return all(e[i][i] is None or e[i][i] >= 0 for i in range(n))


def fw_metric_to_allen(s, x, y, within=None):
    """`metric_to_allen` by one integer Floyd-Warshall per candidate atom
    (`int_shortest_paths`; a simple cycle on four points sums at most
    four strict units, fewer than M = 5): the atom's encoded edges laid
    over a copy of the encoded 4x4 endpoint sub-matrix, the atom kept
    when no negative cycle closes.  The sub-matrix is decoded and
    encoded afresh at its own scale on every call."""
    idx = [s._index[p] for p in (start_of(x), end_of(x), start_of(y), end_of(y))]
    sub, _, _ = _scaled([[_unscaled(s._e[i][j], s._d, _M) for j in idx] for i in idx])
    candidates = FULL_MASK if within is None else within.mask
    mask = 0
    for atom in BaseRelation:
        if not candidates >> atom & 1:
            continue
        e = [row[:] for row in sub]
        for i, j, w in _ATOM_EDGES[atom]:
            if e[i][j] is None or w < e[i][j]:
                e[i][j] = w
        if int_shortest_paths(e):
            mask |= 1 << atom
    return Relation(mask)


@lru_cache(maxsize=None)
def per_atom_cycle_tests():
    """Per atom, its negative-cycle tests (d_legs, k), as the read-back
    decided atom by atom before one pass over D-leg sets did: for each
    split of `_CYCLE_SPLITS` whose atom legs are all edges of the atom,
    the D legs (flat indices into the 4x4 sub-matrix) and k, the negated
    sum of the atom legs' encoded weights, the largest per D-leg set."""
    out = []
    for edges in _ATOM_EDGES:
        weight = {(a, b): w for a, b, w in edges}
        best = {}
        for d_legs, atom_legs in _CYCLE_SPLITS:
            if all(leg in weight for leg in atom_legs):
                k = -sum(weight[leg] for leg in atom_legs)
                best[d_legs] = max(best.get(d_legs, k), k)
        out.append(tuple(sorted(best.items())))
    return tuple(out)


def cycle_test_metric_to_allen(s, x, y, within=None):
    """`metric_to_allen` by `per_atom_cycle_tests`: an atom of `within`
    stays unless the entries of some test's D legs, all finite, sum
    below its k."""
    idx = [s._index[p] for p in (start_of(x), end_of(x), start_of(y), end_of(y))]
    d = [s._e[i][j] for i in idx for j in idx]
    candidates = FULL_MASK if within is None else within.mask
    mask = 0
    for atom, tests in enumerate(per_atom_cycle_tests()):
        if candidates >> atom & 1 and not any(
                all(d[p] is not None for p in legs) and sum(d[p] for p in legs) < k
                for legs, k in tests):
            mask |= 1 << atom
    return Relation(mask)


def random_window(rng, span=12):
    """A seeded window for the differential tests: bounds drawn from
    -span..span over denominators 1, 2, 3, 5 and 7, each side unbounded
    with probability 0.3 and strict with probability 0.5."""
    def value():
        return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3, 5, 7)))

    lo = value() if rng.random() < 0.7 else None
    hi = value() if rng.random() < 0.7 else None
    if lo is not None and hi is not None:
        if lo > hi:
            lo, hi = hi, lo
        if lo == hi:
            return BoundWindow(lo, hi)
    return BoundWindow(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def admits(w, v):
    """Whether the value v lies in the window, read from its bounds and
    their strictness flags; None is unbounded."""
    return ((w.lo is None or w.lo < v or w.lo == v and not w.lo_strict)
            and (w.hi is None or v < w.hi or v == w.hi and not w.hi_strict))


def tuple_stp_close(s, *, changed=None):
    """`stp_close` on the tuple Floyd-Warshall, which closes every pair
    whatever `changed` lists; the result is flagged as the verdict says."""
    u = decoded(s)
    ok = tuple_shortest_paths(u)
    return stp_of_bounds(s.points, u, minimal=ok, inconsistent=not ok)


def _forced_atom_constraints(qcn):
    """Endpoint constraints of every atomic cell, upper triangle only, as
    (from, to, window) triples from `atom_windows`."""
    out = []
    ids = qcn.intervals
    for ai, a in enumerate(ids):
        for b in ids[ai + 1:]:
            cell = qcn.cell(a, b)
            if len(cell) == 1:
                out.extend(atom_windows(cell.atoms[0], a, b))
    return out


def overlay_hybrid_close(h):
    """`hybrid_close` as a plain alternation: qualitative closure, export
    of every atomic cell, `tuple_stp_close`, and `overlay_metric_to_allen`
    read back on every pair, until nothing changes."""
    qcn, stp = h.qcn, h.stp
    while True:
        qcn = close(qcn)
        if qcn.inconsistent:
            return HybridNetwork(qcn, stp)
        ids = qcn.intervals
        pairs = [(a, b) for ai, a in enumerate(ids) for b in ids[ai + 1:]]
        forced = []
        for a, b in pairs:
            cell = qcn.cell(a, b)
            if len(cell) == 1:
                forced.extend(atom_windows(cell.atoms[0], a, b))
        stp = tuple_stp_close(conjoined(stp, forced))
        if stp.inconsistent:
            return HybridNetwork(qcn, stp)
        changed = False
        for a, b in pairs:
            cell = qcn.cell(a, b)
            refined = cell & overlay_metric_to_allen(stp, a, b)
            if refined != cell:
                qcn = qcn.with_cell(a, b, refined)
                changed = True
        if qcn.inconsistent or not changed:
            return HybridNetwork(qcn, stp)


def descend_hybrid_atomic_consistent(h):
    """`hybrid_atomic_consistent` as its own recursion over validated
    networks: re-close, split the first non-atomic pair in interval order
    into its atoms in canonical order through `with_cell`, and run the
    metric check on the forced atoms at every atomic leaf."""
    start = hybrid_close(h)
    if start.inconsistent:
        return False, None
    ids = start.intervals

    def first_open(qcn):
        for ai, a in enumerate(ids):
            for b in ids[ai + 1:]:
                if len(qcn.cell(a, b)) != 1:
                    return a, b
        return None

    def descend(qcn, stp):
        qcn = close(qcn)
        if qcn.inconsistent:
            return None
        pair = first_open(qcn)
        if pair is None:
            forced = [c for ai, a in enumerate(ids) for b in ids[ai + 1:]
                      for c in atom_windows(qcn.cell(a, b).atoms[0], a, b)]
            leaf = stp_close(conjoined(stp, forced))
            if leaf.inconsistent:
                return None
            return HybridNetwork(qcn, leaf)
        a, b = pair
        for atom in qcn.cell(a, b).atoms:
            found = descend(qcn.with_cell(a, b, Relation.of(atom)), stp)
            if found is not None:
                return found
        return None

    witness = descend(start.qcn, start.stp)
    return (witness is not None), witness


def full_queue_scenario_search(start, leaf):
    """`scenario_search` with every pair queued at every node: split the
    first non-atomic pair in interval order into its atoms in canonical
    order, fix the atom in a validated network and close it from scratch."""
    n = len(start.intervals)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def refine(current):
        rows = current._matrix
        open_pair = next(((i, j) for i, j in pairs if len(Relation(rows[i][j])) != 1), None)
        if open_pair is None:
            return leaf(current)
        i, j = open_pair
        for atom in Relation(rows[i][j]).atoms:
            m = [list(row) for row in rows]
            m[i][j] = Relation.of(atom).mask
            m[j][i] = Relation.of(atom.converse).mask
            tightened = close(QCN._raw(current.intervals, m, current._index))
            if not tightened.inconsistent:
                found = refine(tightened)
                if found is not None:
                    return found
        return None

    return refine(start)


def full_queue_atomic_consistent(net):
    """`atomic_consistent` over `full_queue_scenario_search`."""
    start = close(net)
    scenario = None if start.inconsistent else full_queue_scenario_search(start, lambda q: q)
    return scenario is not None, scenario


def full_queue_hybrid_close(h):
    """`hybrid_close` with every pair queued in every round: qualitative
    closure, export of the atomic cells, `stp_close`, and `metric_to_allen`
    read back on the other cells, until nothing changes."""
    qcn, stp = h.qcn, h.stp
    while True:
        qcn = close(qcn)
        if qcn.inconsistent:
            return HybridNetwork(qcn, stp)
        stp = stp_close(conjoined(stp, _forced_atom_constraints(qcn)))
        if stp.inconsistent:
            return HybridNetwork(qcn, stp)
        ids = qcn.intervals
        changed = False
        for a, b in [(a, b) for ai, a in enumerate(ids) for b in ids[ai + 1:]]:
            cell = qcn.cell(a, b)
            if len(cell) != 1:
                refined = metric_to_allen(stp, a, b, cell)
                if refined != cell:
                    qcn = qcn.with_cell(a, b, refined)
                    changed = True
        if qcn.inconsistent or not changed:
            return HybridNetwork(qcn, stp)


def every_cell_hybrid_close(h):
    """`hybrid_close` reading back every non-atomic cell in every round,
    not only those with an endpoint whose metric row moved; the rounds
    are otherwise the package's (incremental closure in both layers)."""
    qcn, stp, changed = h.qcn, h.stp, None
    while True:
        qcn = close(qcn, changed=changed)
        if qcn.inconsistent:
            return HybridNetwork(qcn, stp)
        stp = _export_close(qcn, stp)
        if stp.inconsistent:
            return HybridNetwork(qcn, stp)
        changed = []
        ids = qcn.intervals
        for ai, a in enumerate(ids):
            for bi in range(ai + 1, len(ids)):
                cell = qcn.cell(a, ids[bi])
                if len(cell) != 1:
                    refined = metric_to_allen(stp, a, ids[bi], cell)
                    if refined != cell:
                        qcn = qcn.with_cell(a, ids[bi], refined)
                        changed.append((ai, bi))
        if qcn.inconsistent or not changed:
            return HybridNetwork(qcn, stp)


def full_queue_hybrid_atomic_consistent(h):
    """`hybrid_atomic_consistent` over `full_queue_hybrid_close` and
    `full_queue_scenario_search`, with the metric check at every leaf."""
    start = full_queue_hybrid_close(h)
    if start.inconsistent:
        return False, None

    def leaf(qcn):
        stp = stp_close(conjoined(start.stp, _forced_atom_constraints(qcn)))
        return None if stp.inconsistent else HybridNetwork(qcn, stp)

    witness = full_queue_scenario_search(start.qcn, leaf)
    return witness is not None, witness


def stp_minimal_by_paths(points, upper):
    """Minimal upper bounds for a small STP by exhaustive simple-path
    enumeration over the distance graph.

    `upper` maps (i, j) to a (value, strict) pair bounding t_j - t_i;
    missing pairs are unbounded.  Returns the tightest bound for every
    ordered pair as a dict, or None when some cycle is negative (weight
    below zero, or zero with a strict leg).
    """
    n = len(points)
    inf = _INF
    add, tighter = _badd, _btighter

    def edge(i, j):
        return upper.get((points[i], points[j]), inf)

    # negative cycle check over all simple cycles
    import itertools
    for size in range(2, n + 1):
        for cycle in itertools.permutations(range(n), size):
            w = (Fraction(0), False)
            legs = list(cycle) + [cycle[0]]
            for a, b in zip(legs, legs[1:]):
                w = add(w, edge(a, b))
            if w[0] is not None and (w[0] < 0 or (w[0] == 0 and w[1])):
                return None

    best = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            b = edge(i, j)
            for size in range(1, n - 1):
                for mid in itertools.permutations([k for k in range(n) if k not in (i, j)], size):
                    w = edge(i, mid[0])
                    for a, c in zip(mid, mid[1:]):
                        w = add(w, edge(a, c))
                    w = add(w, edge(mid[-1], j))
                    b = tighter(b, w)
            best[(points[i], points[j])] = b
    return best


def compose_by_atoms(table, m1, m2):
    """The composition of two masks as the OR of `table[a][b]` over every
    atom a of m1 and every atom b of m2."""
    atoms = range(len(table))
    out = 0
    for a in atoms:
        if m1 >> a & 1:
            for b in atoms:
                if m2 >> b & 1:
                    out |= table[a][b]
    return out


def converse_by_atoms(conv, mask):
    """The converse of a mask, atom by atom: `conv[a]` is the converse
    atom of a."""
    return sum(1 << conv[a] for a in range(len(conv)) if mask >> a & 1)


def successors(g, id_):
    """The targets of the workflow graph's flow edges (style "") out of
    `id_`, sorted."""
    return tuple(sorted(t for f, t, style in g.edges if f == id_ and style == ""))


def reachable(g, frm, to):
    """Whether some path of flow edges leads from `frm` to `to`."""
    seen, stack = {frm}, [frm]
    while stack:
        for nxt in successors(g, stack.pop()):
            if nxt == to:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def allen_part_by_atoms(rel):
    """The Allen relation of an INDU relation's atoms, its duration signs
    dropped."""
    return Relation.of(*(atom.allen for atom in rel))


def sweep_closure(matrix, table, conv):
    """Path consistency by plain sweeps over raw masks: tighten every cell
    with every two-leg path until a whole sweep changes nothing.

    `table[a][b]` is the composition mask of atoms a and b, `conv[a]` the
    converse atom of a.  Returns the closed matrix, or None as soon as a
    cell empties.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    changed = True
    while changed:
        changed = False
        for i, j, k in product(range(n), repeat=3):
            if len({i, j, k}) < 3:
                continue
            cur = m[i][j] & compose_by_atoms(table, m[i][k], m[k][j])
            if cur != m[i][j]:
                if not cur:
                    return None
                m[i][j] = cur
                m[j][i] = converse_by_atoms(conv, cur)
                changed = True
    return m


def compose_all_path_consistency(net, changed=None, log=None):
    """`path_consistency` composing on every revision, full cells
    included: the same FIFO queue, revision order and stop at the first
    empty cell.  Each composition is appended to `log`, when one is
    given, as (left operand, right operand, the cell it bounds)."""
    calc = net.relation.calculus
    compose, converse = calc.compose, calc.converse
    n = len(net.intervals)
    m = [list(row) for row in net._matrix]
    if changed is None:
        changed = [(i, j) for i in range(n) for j in range(i + 1, n)]
    queue = deque(changed)
    waiting = [[False] * n for _ in range(n)]
    for i, j in changed:
        waiting[i][j] = True

    def revise(a, b, left, right):
        cur = m[a][b]
        if log is not None:
            log.append((left, right, cur))
        new = cur & compose(left, right)
        if new == cur:
            return True
        m[a][b] = new
        m[b][a] = converse(new)
        if a > b:
            a, b = b, a
        if not waiting[a][b]:
            waiting[a][b] = True
            queue.append((a, b))
        return new != 0

    while queue:
        i, j = queue.popleft()
        waiting[i][j] = False
        rel = m[i][j]
        mj = m[j]
        for k in range(n):
            if k == i or k == j:
                continue
            if not (revise(i, k, rel, mj[k]) and revise(k, j, m[k][i], rel)):
                return net._raw(net.intervals, m, net._index)
    return net._raw(net.intervals, m, net._index)


def rebuild_revise(t):
    """`revise` that rebuilds the network of hard plus candidate soft
    constraints from the tagged constraints at every check and closes it
    from scratch."""
    intervals, anon = t.intervals, t.anon_points
    hard = [c for c in t.constraints if c.provenance == "domain-hard"]
    soft = [c for c in t.constraints if c.provenance == "recipe-soft"]

    def result_for(chosen, witness):
        retained = tuple(c.id for c in chosen)
        relaxed = tuple(sorted(set(c.id for c in soft) - set(retained)))
        return RevisionResult(_network_from(intervals, anon, hard + chosen),
                              retained, relaxed, witness, t)

    ok, witness = hybrid_atomic_consistent(_network_from(intervals, anon, hard + soft))
    if ok:
        return result_for(soft, witness)
    if len(soft) > MAX_REVISION_SOFT:
        raise ScaleBoundExceeded(f"{len(soft)} soft constraints")
    ok, base_witness = hybrid_atomic_consistent(_network_from(intervals, anon, hard))
    if not ok:
        raise ValueError("domain knowledge is self-contradictory")

    best, best_witness = None, base_witness

    def dfs(i, chosen, witness):
        nonlocal best, best_witness
        if best is not None and len(chosen) + len(soft) - i <= len(best):
            return
        if i == len(soft):
            best, best_witness = list(chosen), witness
            return
        candidate = chosen + [soft[i]]
        ok, w = hybrid_atomic_consistent(_network_from(intervals, anon, hard + candidate))
        if ok:
            dfs(i + 1, candidate, w)
        dfs(i + 1, chosen, witness)

    dfs(0, [], base_witness)
    return result_for(best, best_witness)


def graft(h, k):
    """`inject` of a network that comes with no recipe: its intervals, its
    constraints read back by `object_tag_soft` and its anonymous points."""
    return inject(h.intervals, object_tag_soft(h), k, h.anon_points)


def rebuild_adapt(r, k):
    """`adapt_recipe` through a network of the recipe: encode the base
    scenario, restrict it to the intervals the knowledge keeps, read its
    constraints back and graft the knowledge onto them.  Returns the
    tagged network, the revision and the edits."""
    (_, h), *_ = encode_recipe(r)
    gone = set(k.removals)
    unknown = gone - set(h.intervals)
    if unknown:
        raise KeyError(f"unknown id {min(unknown)!r}")
    t = graft(h.restricted([i for i in h.intervals if i not in gone]), k)
    result = revise(t)
    return t, result, adapt_text_edits(result, r)


def window_witness_keeps(witness, c):
    """`adaptation._witness_keeps` as it decided a metric candidate before
    closing: decode the witness's minimal window on the pair, intersect
    it with the candidate's, and close only when they meet."""
    if c.kind == "allen":
        return witness if witness.relation(c.frm, c.to) <= c.cell else None
    if witness.stp.window(c.frm, c.to).intersect(c.window) is None:
        return None
    return HybridNetwork._raw(witness.qcn, _close_with(witness.stp, c.frm, c.to, c.window))


def rebuild_tcsp_consistent(t):
    """`tcsp_consistent`'s search (without its size bounds) closing every
    node's accumulated STP from scratch."""
    ordered = sorted(t.constraints, key=lambda c: (c.frm, c.to))

    def search(k, acc):
        closed = stp_close(acc)
        if closed.inconsistent:
            return None
        if k == len(ordered):
            return closed
        c = ordered[k]
        for w in c.windows:
            found = search(k + 1, conjoined(acc, [(c.frm, c.to, w)]))
            if found is not None:
                return found
        return None

    witness = search(0, STP.build(t.points))
    return witness is not None, witness


def rescaling_close_with(s, frm, to, w):
    """`metric._close_with` with no rescale of the stored matrix: the
    window conjoined into the decoded bounds (`conjoined`), then closed
    from the window's two entries, whether they tightened or not."""
    i, j = s._index[frm], s._index[to]
    return stp_close(conjoined(s, [(frm, to, w)]), changed=[(i, j), (j, i)])


_RULE = {name: Relation.parse(text) for name, text in (
    ("R1", "{b}"), ("R2", "{bi,mi}"), ("R3", "{d,f}"), ("R5", "{m}"),
    ("R7 timer", "{f}"), ("R7 action", "{s}"), ("R8", "{di}"))}


def _per_scenario_live(r, excluded):
    """A scenario's interval ids: every preliminary, every step not
    excluded, and each timer or state not excluded that has no action
    using it (until, last-of) or some action using it not excluded."""
    users = {}
    for action, used in list(r.until_links) + [(a, t) for a, t, _ in r.last_links]:
        users.setdefault(used, []).append(action)

    def kept(i):
        return i not in excluded and (
            i not in users or any(a not in excluded for a in users[i]))

    return [p.id for p in r.preliminaries] \
        + [s.id for s in r.steps if s.id not in excluded] \
        + [t.id for t in r.timers if kept(t.id)] \
        + [s.id for s in r.states if kept(s.id)]


def _per_scenario_allen(r, excluded, live):
    """The qualitative constraints of one scenario, rule by rule, each kept
    only when every interval it mentions (R7: the action, the timer and
    the reference) is live."""
    positioned = set(excluded) | {m for br in r.branches for m in br.members}
    positioned |= {m.target for m in r.markers if m.mode in ("sporadic", "alternation")}
    positioned |= {m.ref for m in r.markers if m.mode == "alternation"}
    positioned |= {a for a, _, _ in r.last_links}
    chain = [s for s in r.steps if s.id not in positioned]
    if chain and chain[0].meanwhile:
        raise ValueError(f"step {chain[0].id!r} is marked meanwhile but has no antecedent")
    out = [(p.id, _RULE["R1"], chain[0].id) for p in r.preliminaries] if chain else []
    stated = {frozenset((a, b)) for a, _, b in r.relations if a in live and b in live}
    for prev, nxt in zip(chain, chain[1:]):
        if frozenset((prev.id, nxt.id)) not in stated:
            out.append((nxt.id, _RULE["R3" if nxt.meanwhile else "R2"], prev.id))
    out += [(a, _RULE["R5"], s) for a, s in r.until_links if a in live and s in live]
    for a, t, ref in r.last_links:
        if a in live and t in live and ref in live:
            out += [(t, _RULE["R7 timer"], ref), (a, _RULE["R7 action"], t)]
    out += [(m.ref, _RULE["R8"], m.target) for m in r.markers
            if m.mode == "sporadic" and m.ref in live and m.target in live]
    return out + [(a, rel, b) for a, rel, b in r.relations if a in live and b in live]


def _merged_pairs(allen, strict):
    """Each pair's intersected relation, oriented from the smaller id, in
    the order the pairs first occur; `strict` raises on the first pair
    that becomes empty."""
    merged = {}
    for a, rel, b in allen:
        key, cell = ((a, b), rel) if a <= b else ((b, a), rel.converse())
        merged[key] = merged[key] & cell if key in merged else cell
        if strict and merged[key].is_empty:
            raise ValueError(f"contradictory relations between {key[0]!r} and {key[1]!r}")
    return merged


def contradictory_pairs(r):
    """The pairs whose constraints intersect to the empty relation in the
    scenario that chooses every branch; none when a meanwhile step heads
    the chain, which every scenario rejects first."""
    live = set(_per_scenario_live(r, set()))
    try:
        merged = _merged_pairs(_per_scenario_allen(r, set(), live), strict=False)
    except ValueError:
        return []
    return [key for key, cell in merged.items() if cell.is_empty]


def per_scenario_encode_recipe(r):
    """`encode_recipe` with every rule derived again for each branch
    combination (sorted by size, then by branch ids), the constraints on
    each pair merged and checked in that scenario alone, one scenario
    after another."""
    ids = sorted(br.id for br in r.branches)
    combos = sorted((c for k in range(len(ids) + 1) for c in combinations(ids, k)),
                    key=lambda c: (len(c), c))
    out = []
    for chosen in combos:
        excluded = {m for br in r.branches if br.id not in chosen for m in br.members}
        intervals = _per_scenario_live(r, excluded)
        live = set(intervals)
        merged = _merged_pairs(_per_scenario_allen(r, excluded, live), strict=True)
        metric = [(start_of(i), end_of(i), w)
                  for i, w in list(r.durations) + [(t.id, t.window) for t in r.timers]
                  if i in live]
        out.append(("+".join(chosen) or "base", HybridNetwork.build(
            intervals, [(a, cell, b) for (a, b), cell in merged.items()], metric)))
    return out


# ---------------------------------------------------------------------------
# per-cell passes through relation and window objects

def object_format_qcn(net):
    """`format_qcn` through one `Relation` per cell."""
    names = sorted(net.intervals)
    lines = ["intervals " + " ".join(names)]
    for pos, a in enumerate(names):
        for b in names[pos + 1:]:
            rel = net.cell(a, b)
            if rel.mask != FULL_MASK:
                lines.append(f"{a} {b} {rel}")
    return "\n".join(lines) + "\n"


def object_format_hybrid(h):
    """`format_hybrid` decoding every duration window and comparing it
    with (0, inf)."""
    if h.inconsistent:
        return "inconsistent\n"
    lines = [object_format_qcn(h.qcn).rstrip("\n")]
    for i in sorted(h.intervals):
        w = h.duration_window(i)
        if w != BoundWindow.above(0):
            lines.append(f"duration {i} in {w}")
    return "\n".join(lines) + "\n"


def object_precedence(h):
    """The precedence pairs of a closed network, through one `Relation`
    per ordered pair: b follows a when their cell is a nonempty subset
    of {b,m}."""
    bm = Relation.parse("{b,m}")
    return {a: {b for b in h.intervals
                if a != b and not h.relation(a, b).is_empty and h.relation(a, b) <= bm}
            for a in h.intervals}


def object_tag_soft(h):
    """Every stated constraint of a network, tagged recipe-soft: one
    `Relation` per upper cell that is not full and one decoded window per
    pair with a finite entry, less each interval's structural start-end
    link, found by the names of its points.  Rebuilding the network from
    them reproduces it."""
    out = []
    for i, a in enumerate(h.intervals):
        for b in h.intervals[i + 1:]:
            cell = h.relation(a, b)
            if cell.mask != FULL_MASK:
                out.append(TaggedConstraint.allen(a, cell, b, "recipe-soft"))
    pts, e = h.stp.points, h.stp._e
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if e[i][j] is None and e[j][i] is None:
                continue
            frm, to = min(x, pts[j]), max(x, pts[j])
            w = h.stp.window(frm, to)
            if (frm.endswith(".end") and to.endswith(".start")
                    and frm[:-4] == to[:-6] and w == BoundWindow(None, 0, True, True)):
                continue
            out.append(TaggedConstraint.metric(frm, to, w, "recipe-soft"))
    return out


# ---------------------------------------------------------------------------
# the front-end readers as they stepped through their input one character
# at a time, before the token and tag patterns

def reference_tokenize(line, lineno):
    """`annotation._tokenize` by hand: (kind, value) tokens of one DSL line."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            i += 1
        elif ch == "#":
            break
        elif ch == '"':
            end = line.find('"', i + 1)
            if end < 0:
                raise RecipeSyntaxError("unterminated string", lineno)
            tokens.append(("string", line[i + 1:end]))
            i = end + 1
        elif ch == "{":
            end = line.find("}", i + 1)
            if end < 0:
                rest = line[i + 1:].split("#", 1)[0]
                if rest.strip():
                    raise RecipeSyntaxError("unterminated relation set", lineno)
                tokens.append(("word", "{"))  # block opener at end of line
                break
            tokens.append(("braces", line[i:end + 1]))
            i = end + 1
        elif ch == "}":
            tokens.append(("word", "}"))
            i += 1
        else:
            j = i
            while j < n and not line[j].isspace() and line[j] not in '"{}#':
                j += 1
            tokens.append(("word", line[i:j]))
            i = j
    return tokens


def reference_parse_timeml(source):
    """`parse_timeml` by hand: one character of text at a time, each tag
    found with `str.find` and its name with a separate match."""
    events, instances, signals, tlinks = [], [], [], []
    text_parts = []
    text_len = 0
    open_tag = None  # name, attrs, text start, offset

    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch != "<":
            text_parts.append(ch)
            text_len += 1
            i += 1
            continue
        end = source.find(">", i)
        if end < 0:
            raise AnnotationError("unterminated tag", i)
        inner = source[i + 1:end].strip()
        closing = inner.startswith("/")
        if closing:
            inner = inner[1:].strip()
        self_closing = inner.endswith("/")
        m = re.match(r"[A-Za-z][A-Za-z0-9]*", inner)
        if not m:
            raise AnnotationError("tag without a name", i)
        name = m.group(0)
        if name not in ("EVENT", "MAKEINSTANCE", "SIGNAL", "TLINK"):
            raise AnnotationError(f"unknown tag {name!r}", i)
        body = inner[m.end():]

        if closing:
            if open_tag is None or open_tag[0] != name:
                raise AnnotationError(f"unexpected closing tag {name!r}", i)
            tag_name, attrs, start, tag_off = open_tag
            covered = "".join(text_parts[start:])
            covered_span = (start, text_len)
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
            if name in ("EVENT", "SIGNAL"):
                if self_closing:
                    raise AnnotationError(f"{name} must wrap text", i)
                open_tag = (name, attrs, text_len, i)
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
        i = end + 1

    if open_tag is not None:
        raise AnnotationError(f"unclosed tag {open_tag[0]!r}", open_tag[3])

    for collection, key in ((events, "eid"), (instances, "eiid"), (signals, "sid")):
        seen = set()
        for item in collection:
            value = getattr(item, key)
            if value in seen:
                raise AnnotationError(f"duplicate {key} {value!r}", item.offset)
            seen.add(value)

    event_ids = {e.eid for e in events}
    instance_ids = {m.eiid for m in instances}
    signal_ids = {s.sid for s in signals}
    for m_ in instances:
        if m_.event_id not in event_ids:
            raise AnnotationError(f"MAKEINSTANCE refers to absent event {m_.event_id!r}",
                                  m_.offset)
    for link in tlinks:
        for ref in (link.event_instance_id, link.related_to_event):
            if ref not in instance_ids:
                raise AnnotationError(f"TLINK refers to absent instance {ref!r}", link.offset)
        if link.signal_id is not None and link.signal_id not in signal_ids:
            raise AnnotationError(f"TLINK refers to absent signal {link.signal_id!r}",
                                  link.offset)

    return AnnotatedDoc(source, "".join(text_parts), tuple(events),
                        tuple(instances), tuple(signals), tuple(tlinks))


# ---------------------------------------------------------------------------
# what a hybrid network means

def exact_hybrid(h):
    """Decide a hybrid network of at most 4 intervals by what it means.

    Every weak order of the interval endpoints (`_order_profiles`) whose
    induced atoms (`atom_by_definition`) lie in every cell is laid over
    the network's windows as `=` or `<` between consecutive blocks and
    closed by `int_shortest_paths`.  The network is consistent iff some
    order is.  Returns (consistent, cells, windows): `cells` maps each
    interval pair (a, b), a before b in `h.intervals`, to the mask of the
    atoms the consistent orders induce; `windows` maps each ordered point
    pair (p, q) to the hull of t_q - t_p over them, as (lo, lo_strict, hi,
    hi_strict) with None for an unbounded side.  Both are empty when the
    network is inconsistent."""
    ids, points = h.intervals, h.stp.points
    n = len(ids)
    if n > REALIZE_MAX_INTERVALS:
        raise ValueError(f"exact oracle limited to {REALIZE_MAX_INTERVALS} intervals")
    index = {p: k for k, p in enumerate(points)}
    endpoint = [index[f(i)] for i in ids for f in (start_of, end_of)]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    masks = [h.relation(a, b).mask for a, b in pairs]
    base, d, m = _scaled(decoded(h.stp))
    hull = None
    atoms_seen = [0] * len(pairs)
    for ranks, atoms in _order_profiles(n):
        if not all(mask >> atom & 1 for mask, atom in zip(masks, atoms)):
            continue
        e = [row[:] for row in base]
        chain = sorted(range(2 * n), key=ranks.__getitem__)
        for x, y in zip(chain, chain[1:]):
            p, q = endpoint[x], endpoint[y]
            tight = [(q, p, 0 if ranks[x] == ranks[y] else -1)]  # t_x - t_y <= 0 or < 0
            if ranks[x] == ranks[y]:
                tight.append((p, q, 0))
            for i, j, w in tight:
                if e[i][j] is None or w < e[i][j]:
                    e[i][j] = w
        if not int_shortest_paths(e):
            continue
        for k, atom in enumerate(atoms):
            atoms_seen[k] |= 1 << atom
        hull = e if hull is None else [
            [None if a is None or b is None else max(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(hull, e)]
    if hull is None:
        return False, {}, {}
    windows = {}
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            hi, hi_strict = _unscaled(hull[i][j], d, m)
            lo, lo_strict = _unscaled(hull[j][i], d, m)
            windows[p, q] = (None if lo is None else -lo, lo_strict, hi, hi_strict)
    return True, dict(zip(pairs, atoms_seen)), windows


# ---------------------------------------------------------------------------
# the conversions around the kernels as they were before the table reads:
# durations through `Fraction(str)`, restriction one entry at a time and
# the transitive reduction over every triple

def fraction_str_parse_duration(text):
    """`recipe._parse_duration` with every numeral read by `Fraction(str)`."""
    m = _DURATION_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse duration phrase {text!r}")
    unit = _UNIT_MINUTES[m.group("unit").lower()]
    a = Fraction(m.group("a")) * unit
    b = Fraction(m.group("b")) * unit if m.group("b") else None
    about = m.group("about") is not None
    if about and b is not None:
        raise ValueError(f"'about' does not combine with a range: {text!r}")
    if a <= 0 or (b is not None and b <= a):
        raise ValueError(f"bad duration bounds in {text!r}")
    return a, b, about


def per_entry_restricted(rows, keep):
    """The sub-matrix of `rows` on the positions `keep`, in that order,
    one entry at a time."""
    return tuple(tuple(rows[i][j] for j in keep) for i in keep)


def triple_loop_scenario_flow(h, markers, prefix, guards):
    """`workflow._scenario_flow` with the transitive reduction by a loop
    over every triple and the neighbours read from the reduced pairs."""
    ids = list(h.intervals)
    after = _precedence(h)
    reduced = {(a, b) for a in ids for b in after[a]
               if not any(b in after[c] for c in after[a])}
    preds = {a: frozenset(x for x, y in reduced if y == a) for a in ids}
    succs = {a: frozenset(y for x, y in reduced if x == a) for a in ids}

    marked = {m.target: m for m in markers if m.target in after}

    groups = {}
    for a in ids:
        if a in marked or (not preds[a] and not succs[a]):
            continue
        groups.setdefault((preds[a], succs[a]), []).append(a)
    bands = sorted((sorted(members) for members in groups.values()
                    if len(members) > 1))

    nodes = [WorkflowNode(prefix + a, "action", a) for a in ids]
    edges = set()
    loops = []

    head = {a: prefix + a for a in ids}  # where incoming flow enters
    tail = {a: prefix + a for a in ids}  # where outgoing flow leaves
    for k, members in enumerate(bands, start=1):
        split = WorkflowNode(f"{prefix}and-split:{k}", "and-split")
        join = WorkflowNode(f"{prefix}and-join:{k}", "and-join")
        nodes += [split, join]
        for a in members:
            head[a] = split.id
            tail[a] = join.id
            edges |= {(split.id, prefix + a, ""), (prefix + a, join.id, "")}
    for target, marker in marked.items():
        loop = WorkflowNode(f"{prefix}loop:{target}", "loop",
                            _loop_label(marker, guards))
        nodes.append(loop)
        head[target] = tail[target] = loop.id
        body = [prefix + target]
        edges |= {(loop.id, prefix + target, ""),
                  (prefix + target, loop.id, "back")}
        if marker.mode in ("sporadic", "alternation"):
            noop = WorkflowNode(f"{prefix}noop:{target}", "no-op", "no-op")
            nodes.append(noop)
            body.append(noop.id)
            edges |= {(loop.id, noop.id, ""), (noop.id, loop.id, "back")}
        loops.append((loop.id, tuple(body)))

    edges |= {(tail[a], head[b], "") for a, b in reduced}

    inner = {member for _, body in loops for member in body}
    frontier = sorted({head[a] for a in ids} | {tail[a] for a in ids})
    external = [(f, t) for f, t, style in edges
                if style == "" and t not in inner]
    flow_in = {t for _, t in external}
    flow_out = {f for f, _ in external}
    minimal = [n for n in frontier if n not in inner and n not in flow_in]
    maximal = [n for n in frontier if n not in inner and n not in flow_out]
    return nodes, edges, loops, minimal, maximal
