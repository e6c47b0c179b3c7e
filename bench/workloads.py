"""The three workloads as seeded lists of ops.

An op is one request: one in-process `chronotext.cli.run([...])` call
with its output captured, or one library call on one network.  Every
op carries the check of its output.  Sizes follow a fixed schedule and
only the content is drawn from the seed, so every seed times inputs of
the same size distribution (`SHAPES` below; `BENCHMARK.json` restates
it).  Calls go through module attributes at call time, so a tracer that
rebinds those attributes sees them.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from chronotext import allen, cli, indu, metric
from chronotext.allen import QCN, Relation
from chronotext.indu import INDUNetwork, INDURelation
from chronotext.metric import TCSP, BoundWindow, MetricConstraint

import checks
import generators as gen

@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None  # why this op is expected to fail today


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()
    return call


# ROADMAP item 4: path consistency accepts this unrealizable network, so
# `check` exits 0 where the true verdict is inconsistent (exit 1).
ITEM4_RCP = """recipe "Four timers"
timer a 1-1000 min
timer b 1-1000 min
timer c 1-1000 min
timer d 1-1000 min
rel a {m,o,si,e} b
rel a {s,si} c
rel a {o,oi,d,s} d
rel b {d,di,si} c
rel b {m,di} d
rel c {bi,o,d,s,si} d
"""
ITEM4_DEFECT = "ROADMAP item 4: check decides by path consistency only"

# snippet.tml: preparing the pasta IS_INCLUDED in browning the meat
SNIPPET = gen.DocCase("", {"e1": (0, 10), "e2": (2, 5)}, True, {frozenset(("e1", "e2"))})

# Recipe-soft constraints of lutheran.rcp once lentils.know removes
# drain_beans: 2 prelim orders, 5 chain links, 1 until link, 2 last-of
# relations, and the bake and timer windows.
LENTILS_SOFT = 12

# Sizes per pass.  A pass takes 20-30 s on a 2-core shared host, so a
# 20 s run makes one.  The schedule fixes every input's
# structure and the seed places and fills it; the seed-to-seed spread
# of a run's figures falls as the number of distinct inputs grows.
#
# recipe-cli: (steps, alt blocks, planted cycle) per generated recipe;
# check, close, query and workflow take turns over them.  Cost climbs
# steeply with steps and scenarios (one hybrid closure per scenario), so
# consistent recipes stop at 14 steps and only the smaller ones
# branch; cyclic ones fail fast at any size.
RECIPE_SIZES = (
    [(6, a, False) for a in (0, 0, 0, 1, 1, 2)] * 2
    + [(n, a, False) for n in (7, 8) for a in (0, 0, 1, 2)] * 2
    + [(n, 0, False) for n in (9, 10, 11, 12)] * 2 + [(13, 0, False), (14, 0, False)]
    + [(n, a, True) for n in (8, 12, 16) for a in (0, 1)]
) * 3
SPECIALS = ((), ("sporadic",), ("last",), ("sporadic", "last"), ("alternate", "alternate"))


def _recipe_shapes(sizes) -> list[gen.RecipeShape]:
    """Rotate 0-2 preliminaries, `until` steps and `rel` lines, and the
    specials of recipes of 7 steps or more, over the sizes; alt blocks
    hold one or two members."""
    shapes = []
    for i, (steps, alts, cyclic) in enumerate(sizes):
        members = tuple(1 + (i + j) % 2 for j in range(alts))
        specials = SPECIALS[i % len(SPECIALS)] if steps >= 7 else ()
        if steps - len(specials) - sum(members) < 3:
            specials = ()
        shapes.append(gen.RecipeShape(steps, members, cyclic, prelims=i % 3,
                                      untils=(i // 3) % 3, specials=specials,
                                      rels=(i // 2) % 3))
    return shapes


RECIPE_SHAPES = _recipe_shapes(RECIPE_SIZES)
RECIPE_COMMANDS = ("check", "close", "query", "workflow")
# timeml: (events, links, planted BEFORE cycle)
TIMEML_SHAPES = ([(n, n + 2, False) for n in (4, 5, 6, 7, 8)] * 2
                 + [(n, n, True) for n in (5, 6, 8)]) * 3

# qcn-search: A(n, d, 6.5) as (n, d), mostly small because search time
# doubles with every node; planted Allen as (n, density, extra atoms);
# INDU as (n, density, duration cycle); TCSP as (points, constraints,
# windows per constraint).
ANET_SHAPES = ([(n, d) for n in (8, 9, 10) for d in (4, 5, 6)] * 2 + [(11, 5), (12, 5)]) * 5
PLANTED_SHAPES = [(n, 0.5, 4) for n in (8, 9, 10, 11, 12)] * 20
INDU_SHAPES = [(n, 0.5, cyc) for n in (6, 7, 8, 9, 10)
               for cyc in (False, False, True)] * 15
TCSP_SHAPES = [(p, c, w) for p in (5, 6, 7) for c, w in ((6, 3), (8, 2))] * 20

# substitution: (recipe, planted conflicts, remove the preliminary).  A
# conflict multiplies the revise checks, whose cost climbs steeply with
# recipe size and with each `until` state, so conflicts are planted on
# 3-step recipes.
ADAPT_SHAPES = (
    [(gen.RecipeShape(n, prelims=1, untils=u, plain=True), (), r)
     for n in (3, 4, 5, 6) for u in (0, 1, 1) for r in (False, True)]
    + [(gen.RecipeShape(3, prelims=1, untils=u, plain=True), kinds, r)
       for kinds in (("order",), ("duration",), ("order", "duration"))
       for u in (0, 0, 1) for r in (False, True)]
) * 5


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text)
    return str(path)


def recipe_cli(seed: int, work: Path, root: Path) -> list[Op]:
    rng = random.Random(f"recipe-cli:{seed}")
    fixtures = root / "fixtures"
    lutheran, relish = str(fixtures / "lutheran.rcp"), str(fixtures / "hot_relish.rcp")
    golden = (root / "tests" / "golden" / "lutheran.dot").read_text()
    ops = [
        Op("check", cli_call(["check", lutheran]), lambda r: checks.check_verdict(r, True)),
        Op("check", cli_call(["check", relish]), lambda r: checks.check_verdict(r, True)),
        Op("check", cli_call(["check", str(fixtures / "cyclic.rcp")]),
           lambda r: checks.check_verdict(r, False)),
        Op("workflow", cli_call(["workflow", lutheran]),
           lambda r: checks.check_bytes(r, golden)),
        Op("timeml", cli_call(["timeml", str(fixtures / "snippet.tml")]),
           lambda r: checks.check_timeml(r, SNIPPET)),
        Op("check", cli_call(["check", _write(work, "item4.rcp", ITEM4_RCP)]),
           lambda r: checks.check_verdict(r, False), ITEM4_DEFECT),
    ]
    for i, shape in enumerate(RECIPE_SHAPES):
        case = gen.gen_recipe(rng, shape, f"Generated {i}")
        path = _write(work, f"r{i}.rcp", case.text)
        command = RECIPE_COMMANDS[i % len(RECIPE_COMMANDS)]
        argv = [command, path] + (list(case.query) if command == "query" else [])
        check = {"check": checks.check_check, "close": checks.check_close,
                 "query": checks.check_query, "workflow": checks.check_workflow}[command]
        ops.append(Op(command, cli_call(argv), lambda r, c=case, f=check: f(r, c)))
    for i, (events, links, cyclic) in enumerate(TIMEML_SHAPES):
        doc = gen.gen_timeml(rng, events, links, cyclic)
        path = _write(work, f"d{i}.tml", doc.text)
        ops.append(Op("timeml", cli_call(["timeml", path]),
                      lambda r, d=doc: checks.check_timeml(r, d)))
    return ops


def qcn_search(seed: int, work: Path, root: Path) -> list[Op]:
    rng = random.Random(f"qcn-search:{seed}")
    ops = []

    def qcn(nodes, triples):
        return QCN.build(nodes, [(a, Relation.parse(gen.braces(lab)), b)
                                 for a, lab, b in triples])

    for n, d in ANET_SHAPES:
        nodes, triples = gen.gen_anetwork(rng, n, d, 6.5)
        net = qcn(nodes, triples)
        ops.append(Op("a-network", lambda net=net: allen.atomic_consistent(net),
                      lambda r, n=nodes, t=triples: checks.check_allen(r, n, t, False)))
    for n, density, extra in PLANTED_SHAPES:
        nodes, triples, _ = gen.gen_planted_network(rng, n, density, extra)
        net = qcn(nodes, triples)
        ops.append(Op("planted", lambda net=net: allen.atomic_consistent(net),
                      lambda r, n=nodes, t=triples: checks.check_allen(r, n, t, True)))
    for n, density, cyclic in INDU_SHAPES:
        nodes, triples, times, consistent = gen.gen_indu(rng, n, density, cyclic)
        net = INDUNetwork.build(nodes, [(a, INDURelation.of(*lab), b)
                                        for a, lab, b in triples])
        ops.append(Op("indu", lambda net=net: indu.indu_close(net),
                      lambda r, n=nodes, t=times, c=consistent: checks.check_indu(r, n, t, c)))
    for points, count, windows in TCSP_SHAPES:
        pts, constraints, _ = gen.gen_tcsp(rng, points, count, windows)
        tcsp = TCSP(tuple(pts), tuple(
            MetricConstraint(a, b, tuple(BoundWindow.closed(lo, hi) for lo, hi in ws))
            for a, b, ws in constraints))
        ops.append(Op("tcsp", lambda t=tcsp: metric.tcsp_consistent(t),
                      lambda r, c=constraints: checks.check_tcsp(r, c)))
    return ops


def substitution(seed: int, work: Path, root: Path) -> list[Op]:
    rng = random.Random(f"substitution:{seed}")
    fixtures = root / "fixtures"
    ops = [Op("adapt", cli_call(["adapt", str(fixtures / "lutheran.rcp"),
                                 str(fixtures / "lentils.know")]),
              lambda r: checks.check_adapt(r, LENTILS_SOFT, 0))]
    for i, (shape, conflicts, remove) in enumerate(ADAPT_SHAPES):
        case = gen.gen_recipe(rng, shape, f"Adapted {i}")
        removed = "p0" if remove else None
        know = gen.gen_knowledge(rng, case, conflicts, removed)
        soft = case.soft_count - remove
        argv = ["adapt", _write(work, f"a{i}.rcp", case.text),
                _write(work, f"a{i}.know", know.text)]
        ops.append(Op("adapt", cli_call(argv),
                      lambda r, s=soft, c=know.conflicts: checks.check_adapt(r, s, c)))
    return ops


BUILDERS = {"recipe-cli": recipe_cli, "qcn-search": qcn_search,
            "substitution": substitution}
