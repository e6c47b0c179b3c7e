"""Self-check of the benchmark at its smallest sizes, so it cannot rot.

    python3 -m pytest -q bench/test_selfcheck.py

Runs every workload end to end, traced and untraced, on a handful of
tiny inputs, and feeds each output check a wrong answer that it must
reject.
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import generators as gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chronotext import allen  # noqa: E402
from chronotext.allen import QCN, Relation  # noqa: E402
from chronotext.indu import INDUNetwork, INDURelation  # noqa: E402
from chronotext.metric import STP, TCSP, BoundWindow, MetricConstraint, tcsp_consistent  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "RECIPE_SHAPES",
                        workloads._recipe_shapes([(6, 1, False), (7, 0, True)] * 2))
    monkeypatch.setattr(workloads, "TIMEML_SHAPES", [(4, 5, False), (5, 5, True)])
    monkeypatch.setattr(workloads, "ANET_SHAPES", [(5, 3)])
    monkeypatch.setattr(workloads, "PLANTED_SHAPES", [(5, 0.5, 3)])
    monkeypatch.setattr(workloads, "INDU_SHAPES", [(4, 0.5, False), (4, 0.5, True)])
    monkeypatch.setattr(workloads, "TCSP_SHAPES", [(4, 3, 3)])
    plain = gen.RecipeShape(3, prelims=1, untils=1, plain=True)
    monkeypatch.setattr(workloads, "ADAPT_SHAPES", [(plain, (), True), (plain, ("order",), False),
                                                    (plain, ("order", "duration"), True)])
    monkeypatch.setattr(run, "PROBES_PER_PASS", 1)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_end_to_end(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if workload == "recipe-cli":  # the ROADMAP item-4 reproduction, once a pass
        assert result["failed"] == 1
    else:
        assert result["failed"] == 0
    if trace:
        assert result["metrics"]["trace.overhead_s"]["value"] > 0


def test_traced_counts_reach_every_layer(tiny, tmp_path):
    """Calls made through names imported into other modules are traced."""
    from tracer import Tracer
    tracer = Tracer()
    ops = workloads.substitution(1, tmp_path, BENCH.parent)[:2]
    tracer.install()
    try:
        for op in ops:
            op.call()
    finally:
        tracer.uninstall()
    assert tracer.calls["hybrid.hybrid_atomic_consistent"] >= 2
    assert tracer.edge_calls[("hybrid.hybrid_close", "allen.close")] >= 1
    assert tracer.edge_calls[("hybrid.hybrid_close", "metric.metric_to_allen")] >= 1
    assert tracer.edge_calls[("adaptation.revise", "hybrid.hybrid_atomic_consistent")] >= 1
    assert allen.close.__module__ == "chronotext.allen" and not hasattr(allen.close, "__wrapped__")


def test_run_refuses_without_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "qcn-search", "--seed", "1", "--seconds", "1"])
    assert exc.value.code != 0


# ---------------------------------------------------------------------------
# every check rejects a wrong answer

def _recipe(seed=2):
    shape = gen.RecipeShape(8, (1,), prelims=1, untils=1, specials=("last",), rels=1)
    return gen.gen_recipe(random.Random(seed), shape, "T")


def _run(argv):
    return workloads.cli_call(argv)()


@pytest.fixture
def rcp(tmp_path):
    case = _recipe()
    path = tmp_path / "r.rcp"
    path.write_text(case.text)
    return case, str(path)


def test_check_check(rcp):
    case, path = rcp
    good = _run(["check", path])
    assert checks.check_check(good, case) is None
    assert checks.check_check((1, good[1].replace(": consistent", ": inconsistent"), ""), case)
    assert checks.check_check((0, good[1].splitlines()[0] + "\n", ""), case)


def test_check_close(rcp):
    case, path = rcp
    good = _run(["close", path])
    assert checks.check_close(good, case) is None
    a, b = case.chain[0], case.chain[1]
    actual = gen.atom_of(case.times[a], case.times[b])
    wrong = next(x for x in gen.ATOMS if x != actual)
    lines = good[1].splitlines()
    lines.insert(2, f"{min(a, b)} {max(a, b)} {{{wrong}}}")
    assert checks.check_close((0, "\n".join(lines) + "\n", ""), case)
    lines = good[1].splitlines()
    lines.insert(2, f"duration {a} in [0, {case.durations[a] - 1}]")
    assert checks.check_close((0, "\n".join(lines) + "\n", ""), case)
    link = f"{min(a, b)} {max(a, b)} "
    dropped = [ln for ln in good[1].splitlines() if not ln.startswith(link)]
    assert len(dropped) < len(good[1].splitlines())
    assert checks.check_close((0, "\n".join(dropped) + "\n", ""), case)
    timed = next(iter(case.timed))
    dropped = [ln for ln in good[1].splitlines() if not ln.startswith(f"duration {timed} ")]
    assert checks.check_close((0, "\n".join(dropped) + "\n", ""), case)


def test_check_query(rcp):
    case, path = rcp
    good = _run(["query", path, *case.query])
    assert checks.check_query(good, case) is None
    a, b = case.query
    actual = gen.atom_of(case.times[a], case.times[b])
    wrong = next(x for x in gen.ATOMS if x != actual)
    bad = "\n".join(f"{{{wrong}}}" if ln.startswith("{") else ln
                    for ln in good[1].splitlines()) + "\n"
    assert checks.check_query((0, bad, ""), case)
    offset = case.times[b][0] - case.times[a][0]
    bad = "\n".join(f"start({b}) - start({a}) in [{offset + 1}, inf)"
                    if ln.startswith("start(") else ln for ln in good[1].splitlines()) + "\n"
    assert checks.check_query((0, bad, ""), case)


def test_check_workflow(rcp):
    case, path = rcp
    good = _run(["workflow", path])
    assert checks.check_workflow(good, case) is None
    first, last = case.chain[0], case.chain[-1]
    prefix = f"{case.labels[0]}:" if len(case.labels) > 1 else ""
    backwards = good[1].replace("}\n", f'  "{prefix}{last}" -> "{prefix}{first}";\n}}\n')
    assert checks.check_workflow((0, backwards, ""), case)
    missing = "\n".join(ln for ln in good[1].splitlines()
                        if f'"{prefix}{first}" [' not in ln) + "\n"
    assert checks.check_workflow((0, missing, ""), case)


def test_check_bytes_and_verdict():
    golden = (BENCH.parent / "tests" / "golden" / "lutheran.dot").read_text()
    assert checks.check_bytes((0, golden, ""), golden) is None
    assert checks.check_bytes((0, golden.replace("bake", "boil"), ""), golden)
    assert checks.check_verdict((0, "scenario base: consistent\n", ""), True) is None
    assert checks.check_verdict((0, "scenario base: consistent\n", ""), False)
    assert checks.check_verdict((1, "scenario base: consistent\n", ""), True)


def test_check_timeml(tmp_path):
    doc = gen.gen_timeml(random.Random(4), 5, 6, False)
    path = tmp_path / "d.tml"
    path.write_text(doc.text)
    good = _run(["timeml", str(path)])
    assert checks.check_timeml(good, doc) is None
    assert checks.check_timeml((1, good[1].replace("\nconsistent", "\ninconsistent"), ""), doc)
    a, b = sorted(doc.times)[:2]
    wrong = next(x for x in gen.ATOMS if x != gen.atom_of(doc.times[a], doc.times[b]))
    lines = good[1].splitlines()
    lines.insert(1, f"{a} {b} {{{wrong}}}")
    assert checks.check_timeml((0, "\n".join(lines) + "\n", ""), doc)
    lines = good[1].splitlines()
    assert checks.check_timeml((0, "\n".join(lines[:1] + lines[2:]) + "\n", ""), doc)


def test_check_adapt(tmp_path):
    case = gen.gen_recipe(random.Random(5), gen.RecipeShape(3, prelims=1, untils=1, plain=True),
                          "A")
    know = gen.gen_knowledge(random.Random(5), case, ("duration",), None)
    (tmp_path / "a.rcp").write_text(case.text)
    (tmp_path / "a.know").write_text(know.text)
    good = _run(["adapt", str(tmp_path / "a.rcp"), str(tmp_path / "a.know")])
    assert checks.check_adapt(good, case.soft_count, 1) is None
    assert checks.check_adapt(good, case.soft_count + 1, 1)
    assert checks.check_adapt(good, case.soft_count, 0)
    dropped = "\n".join(ln for ln in good[1].splitlines() if "relaxed " not in ln) + "\n"
    assert checks.check_adapt((0, dropped, ""), case.soft_count, 1)


def _qcn(nodes, triples):
    return QCN.build(nodes, [(a, Relation.parse(gen.braces(lab)), b) for a, lab, b in triples])


def test_check_allen():
    nodes, triples, _ = gen.gen_planted_network(random.Random(6), 5, 0.6, 3)
    good = allen.atomic_consistent(_qcn(nodes, triples))
    assert checks.check_allen(good, nodes, triples, True) is None
    assert checks.check_allen((False, None), nodes, triples, True)
    assert checks.check_allen((False, None), nodes, triples, False)  # consistent after all
    assert checks.check_allen((True, _qcn(nodes, triples)), nodes, triples, True)  # not atomic
    scenario = good[1]
    a, b = nodes[0], nodes[1]
    other = next(x for x in gen.ATOMS if x not in checks.parse_relation(str(scenario.cell(a, b))))
    assert checks.check_allen((True, scenario), nodes, [(a, {other}, b)], True)  # leaves input
    cycle = QCN.build(["x", "y", "z"], [("x", Relation.parse("{b}"), "y"),
                                        ("y", Relation.parse("{b}"), "z"),
                                        ("z", Relation.parse("{b}"), "x")])
    assert checks.check_allen((True, cycle), ["x", "y", "z"], [], True)  # unrealizable
    ring = [("x", {"b"}, "y"), ("y", {"b", "m"}, "z"), ("x", {"bi", "o"}, "z")]
    assert checks.check_allen((False, None), ["x", "y", "z"], ring, False) is None
    assert checks.allen_consistent(["x", "y", "z"], ring[:2])
    assert checks.realize_atomic(["x", "y"], {("x", "y"): "o"}) is not None
    assert checks.realize_atomic(["x", "y", "z"], {("x", "y"): "b", ("y", "z"): "b",
                                                   ("x", "z"): "bi"}) is None


def test_check_indu():
    nodes, triples, times, consistent = gen.gen_indu(random.Random(7), 5, 0.6, False)
    net = INDUNetwork.build(nodes, [(a, INDURelation.of(*lab), b) for a, lab, b in triples])
    from chronotext.indu import indu_close
    good = indu_close(net)
    assert checks.check_indu(good, nodes, times, True) is None
    assert checks.check_indu(good, nodes, times, False)  # cycle reported undetected
    a, b = nodes[0], nodes[1]
    (xs, xe), (ys, ye) = times[a], times[b]
    sign = "<" if xe - xs < ye - ys else "=" if xe - xs == ye - ys else ">"
    actual = (gen.atom_of(times[a], times[b]), sign)
    others = [(x, s) for x in gen.ATOMS for s in gen.SIGNS
              if (x, s) != actual and gen.FORCED_SIGN.get(x, s) == s]
    wrong = INDUNetwork.build(nodes, [(a, INDURelation.of(*others), b)])
    assert checks.check_indu(wrong, nodes, times, True)


def test_check_tcsp():
    points, constraints, _ = gen.gen_tcsp(random.Random(8), 4, 3, 3)
    tcsp = TCSP(tuple(points), tuple(
        MetricConstraint(a, b, tuple(BoundWindow.closed(lo, hi) for lo, hi in ws))
        for a, b, ws in constraints))
    good = tcsp_consistent(tcsp)
    assert checks.check_tcsp(good, constraints) is None
    assert checks.check_tcsp((False, None), constraints)
    frm, to, windows = constraints[0]
    far = max(hi for _, hi in windows) + 100
    loose = STP.build(points, [(frm, to, BoundWindow.closed(far, far + 1))])
    assert checks.check_tcsp((True, loose), constraints)
