"""Outside-in tracer for the per-layer metrics.

`Tracer.install` wraps each function in `TRACED` and rebinds *every*
attribute of every loaded `chronotext` module that is the original
function object.  Modules import `close`, `stp_close`, `metric_to_allen`,
`hybrid_close` and `hybrid_atomic_consistent` by name, so wrapping only
the defining module would miss most calls.  Spans are folded as they
end into per-name and per-(parent, child) aggregates kept in memory;
self time is a span's duration minus that of its traced children.
Only the traced run installs the wrappers; `uninstall` restores the
originals.  `call_cost` measures what one wrapper adds to a call, which
times the traced call count is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

TRACED = (
    "annotation.parse_recipe_dsl", "annotation.parse_timeml",
    "annotation.doc_to_qcn",
    "recipe.encode_recipe",
    "allen.close", "allen.atomic_consistent",
    "indu.indu_close",
    "metric.stp_close", "metric.metric_to_allen", "metric.tcsp_consistent",
    "hybrid.hybrid_close", "hybrid.hybrid_atomic_consistent",
    "adaptation.parse_knowledge", "adaptation.inject", "adaptation.revise",
    "workflow.to_workflow", "workflow.emit_dot",
    "cli.run",
)


def _encode_probe(t, args, result, parent):
    t.add("recipe.encode_recipe", "scenarios", len(result))
    t.add("recipe.encode_recipe", "intervals", sum(len(h.intervals) for _, h in result))


def _stp_probe(t, args, result, parent):
    t.add("metric.stp_close", "points", len(args[0].points))


def _check_probe(t, args, result, parent):
    if parent == "adaptation.revise":
        t.add("adaptation.revise", "checks_consistent", int(result[0]))


# quantities read from arguments or results, for the ratios below
PROBES = {"recipe.encode_recipe": _encode_probe, "metric.stp_close": _stp_probe,
          "hybrid.hybrid_atomic_consistent": _check_probe}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.edge_calls: dict[tuple[str, str], int] = {}
        self.edge_total: dict[tuple[str, str], float] = {}
        self.quantities: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # [name, time in traced children]
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, quantity: str, amount: int) -> None:
        key = (name, quantity)
        self.quantities[key] = self.quantities.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        stack = self._stack
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([name, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, children = stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + elapsed
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - children
                parent = stack[-1][0] if stack else None
                if parent is not None:
                    stack[-1][1] += elapsed
                    edge = (parent, name)
                    self.edge_calls[edge] = self.edge_calls.get(edge, 0) + 1
                    self.edge_total[edge] = self.edge_total.get(edge, 0.0) + elapsed
            if probe is not None:
                probe(self, args, result, parent)
            return result
        return wrapper

    def install(self) -> None:
        originals = {}
        for qualified in TRACED:
            module, attr = qualified.split(".")
            fn = getattr(importlib.import_module(f"chronotext.{module}"), attr)
            originals[id(fn)] = (fn, self._wrap(qualified, fn))
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "chronotext" or name.startswith("chronotext."))]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def metrics(self, passes: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-pass figures: calls, total_ms and self_ms per traced
        function, times multiplied by `scale`, then the ratios, each
        followed by its base."""
        out: dict[str, tuple[float, str]] = {}
        ms = 1000 * scale / passes
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls.get(name, 0) / passes, "count")
            out[f"{name}.total_ms"] = (ms * self.total.get(name, 0.0), "ms")
            out[f"{name}.self_ms"] = (ms * self.self_time.get(name, 0.0), "ms")

        def ratio(name, unit, num, base, base_unit):
            out[name] = (num / base if base else 0.0, unit)
            out[f"{name}.base"] = (base / passes, base_unit)

        hc, hac = "hybrid.hybrid_close", "hybrid.hybrid_atomic_consistent"
        close, ac = "allen.close", "allen.atomic_consistent"
        revise = "adaptation.revise"
        ratio(f"{hc}.rounds", "count/call", self.edge_calls.get((hc, close), 0),
              self.calls.get(hc, 0), "count")
        ratio(f"{hc}.bridge_share", "ratio",
              ms * passes * self.edge_total.get((hc, "metric.metric_to_allen"), 0.0),
              ms * passes * self.total.get(hc, 0.0), "ms")
        ratio(f"{hac}.nodes", "count/call", self.edge_calls.get((hac, close), 0),
              self.calls.get(hac, 0), "count")
        ratio(f"{ac}.nodes", "count/call", self.edge_calls.get((ac, close), 0),
              self.calls.get(ac, 0), "count")
        checks = self.edge_calls.get((revise, hac), 0)
        ratio(f"{revise}.checks", "count/call", checks, self.calls.get(revise, 0), "count")
        ratio(f"{revise}.check_yield", "ratio",
              self.quantities.get((revise, "checks_consistent"), 0), checks, "count")
        ratio("recipe.encode_recipe.intervals", "count/scenario",
              self.quantities.get(("recipe.encode_recipe", "intervals"), 0),
              self.quantities.get(("recipe.encode_recipe", "scenarios"), 0), "count")
        ratio("metric.stp_close.points", "count/call",
              self.quantities.get(("metric.stp_close", "points"), 0),
              self.calls.get("metric.stp_close", 0), "count")
        return out


def call_cost() -> float:
    """Seconds one wrapper adds to a call, the best of five rounds of
    20 000 calls: a wrapped no-op called under a traced parent, less the
    bare no-op."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("allen.close", noop)
    calls, best = 20000, float("inf")
    for _ in range(5):
        tracer._stack.append(["cli.run", 0.0])
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        middle = perf_counter()
        for _ in range(calls):
            noop()
        end = perf_counter()
        tracer._stack.pop()
        best = min(best, (2 * middle - start - end) / calls)
    return best
