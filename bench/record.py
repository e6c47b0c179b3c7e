"""Run the benchmark over several seeds and write a results file.

    python3 bench/record.py OUT.json

For each workload of `BENCHMARK.json` it runs `bench/run.py` once per
seed in `SEEDS` with tracing off and once (first seed) with tracing on,
one run at a time, and writes each end-to-end metric's runs, median and
quartile spread, the traced per-layer figures, and the commit they were
measured on.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = lines[:-1]
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    args = parser.parse_args()
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None

    report = {"commit": commit, "python": platform.python_version(),
              "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[m["name"]] = {"unit": m["unit"], "median": median,
                                     "spread": (q3 - q1) / median if median else 0.0,
                                     "bound": m["bound"], "runs": values}
        traced = one_run(workload, SEEDS[0], spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "summary": runs[0]["summary"],
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_summary": traced["summary"],
        }
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.4g} (spread {v['spread']:.3f})" for k, v in end_to_end.items()),
            flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
