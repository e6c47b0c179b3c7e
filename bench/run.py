"""chronotext benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout.  One process, one thread, one closed-loop client:
each op starts when the previous one has returned.  The seed fixes the
inputs; the run makes whole passes over them until `--seconds` have
gone by, so every run on a seed times the same ops.  Times are
host-scaled (see `calibrate.py`), and outputs are checked outside the
timed region.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics.  With `--trace 1` every pass is traced; the last
line then holds the per-layer metrics per pass and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/chronotext/__init__.py", "fixtures/lutheran.rcp",
            "fixtures/hot_relish.rcp", "fixtures/cyclic.rcp",
            "fixtures/snippet.tml", "fixtures/lentils.know",
            "tests/golden/lutheran.dot")
PROBES_PER_PASS = 12
# Stop starting ops after this long, so a badly regressed program still
# ends the run in time; the summary then says the pass was cut.
DEADLINE_S = 130.0


def _load_package():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"error: not a chronotext checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import chronotext
    if Path(chronotext.__file__).resolve().parent != (ROOT / "src" / "chronotext").resolve():
        sys.exit(f"error: imported chronotext from {chronotext.__file__}, not this checkout")


def probe_setup(workload: str, work: Path) -> float:
    """One fresh interpreter's import-plus-warm-up time, host-scaled."""
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(work)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    setup, kernel = map(float, done.stdout.split())
    return setup * calibrate.REF_S / kernel


class Outcome:
    """Every timed op execution, and the failures."""

    def __init__(self, ops, probe: Callable[[], float] | None = None):
        self.ops = ops
        self.probe = probe  # set to take set-up probes during passes
        self.latencies: list[float] = []  # host-scaled
        self.raw: list[float] = []
        self.kernels: list[float] = []
        self.setup: list[float] = []
        self.failed: list[tuple[object, str]] = []
        self.cut = False

    def run_pass(self, deadline: float) -> float:
        """One pass over the ops; returns its summed host-scaled op time."""
        raw, kernels = [], []
        probe_every = max(1, len(self.ops) // PROBES_PER_PASS)
        for i, op in enumerate(self.ops):
            if time.perf_counter() > deadline:
                self.cut = True
                break
            if self.probe and i % probe_every == probe_every // 2:
                self.setup.append(self.probe())
            kernels.append(calibrate.kernel_time())
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an unexpected exception fails the op
                elapsed = time.perf_counter() - start
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - start
                reason = op.check(result)
            raw.append(elapsed)
            if reason is not None:
                self.failed.append((op, reason))
        kernels.append(calibrate.kernel_time())
        scaled = calibrate.scaled(raw, kernels)
        self.raw += raw
        self.kernels += kernels
        self.latencies += scaled
        return sum(scaled)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> bool:
        return all(op.known_defect for op, _ in self.failed)

    def report(self) -> None:
        print(f"wall clock: p50 {1000 * statistics.median(self.raw):.1f} ms, "
              f"throughput {len(self.raw) / sum(self.raw):.2f} ops/s; host kernel "
              f"median {1000 * statistics.median(self.kernels):.3f} ms "
              f"(reference {1000 * calibrate.REF_S:.3f} ms)")
        seen = set()
        for op, reason in self.failed:
            key = (op.kind, op.known_defect)
            if key not in seen:
                seen.add(key)
                note = f" [known defect: {op.known_defect}]" if op.known_defect else ""
                print(f"failed {op.kind}: {reason}{note}")
        if self.cut:
            print(f"pass cut at the {DEADLINE_S:.0f} s deadline")


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str]]:
    """Host-scaled figures over every timed op execution of the run."""
    lat = outcome.latencies
    return {
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * statistics.quantiles(lat, n=10)[-1], "ms"),
        "setup_s": (statistics.median(outcome.setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - len(outcome.failed) / outcome.attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recipe-cli", "qcn-search", "substitution"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    import probe
    import workloads
    from tracer import Tracer, call_cost

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, work, ROOT)
        probe.warm_up(args.workload, work)
        began = time.perf_counter()
        deadline = began + DEADLINE_S
        passes = 0
        if args.trace:
            outcome, tracer = Outcome(ops), Tracer()
            tracer.install()
        else:
            outcome = Outcome(ops, functools.partial(probe_setup, args.workload, work))
        try:
            while not outcome.cut and (passes == 0 or time.perf_counter() - began < args.seconds):
                outcome.run_pass(deadline)
                passes += 1
        finally:
            if args.trace:
                tracer.uninstall()
        if args.trace:
            scale = calibrate.REF_S / statistics.median(outcome.kernels)
            metrics = tracer.metrics(passes, scale)
            # the wrappers' cost times the traced calls, per pass
            overhead = call_cost() * scale * sum(tracer.calls.values()) / passes
            traced = sum(outcome.latencies) / passes
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_share"] = (overhead / (traced - overhead), "ratio")
        else:
            metrics = end_to_end(outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{passes} {'traced ' if args.trace else ''}passes, "
          f"{outcome.attempted} ops timed, {len(outcome.failed)} failed "
          f"(error_rate {len(outcome.failed) / outcome.attempted:.4f})")
    outcome.report()
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
