"""Set-up probe: the time a fresh interpreter spends on `import
chronotext` plus the workload's one-time warm-up, which is the same
warm-up the benchmark runs before its first timed op.

    python3 bench/probe.py WORKLOAD WORKDIR

writes its minimal inputs into WORKDIR and prints that time and then
the calibration kernel's time in the same process, both in seconds.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


# the smallest inputs that take a request through every layer it loads
WARM_RCP = 'recipe "Warm-up"\nprelim p "slice onion"\nstep a "stir" for 5 min\nstep b "rest"\n'
WARM_KNOW = 'knowledge "warm-up"\nremove p\n'


def warm_up(workload: str, work: Path) -> None:
    """One untimed request of the workload's kind on a minimal input,
    written into `work`, so that the first timed op pays no one-time
    cost and set-up time holds no ordinary request time."""
    from chronotext import allen, cli, indu, metric

    if workload == "qcn-search":
        net = allen.parse_qcn("intervals a b c\na b {b,m}\nb c {o,d}\n")
        allen.atomic_consistent(net)
        indu.indu_close(indu.INDUNetwork(["a", "b", "c"]))
        window = metric.BoundWindow.closed(1, 5)
        metric.tcsp_consistent(metric.TCSP(("x", "y"), (
            metric.MetricConstraint("x", "y", (window,)),)))
        return
    rcp, know = work / "warm.rcp", work / "warm.know"
    rcp.write_text(WARM_RCP)
    know.write_text(WARM_KNOW)
    argv = ["adapt", str(rcp), str(know)] if workload == "substitution" else ["check", str(rcp)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"warm-up {argv[0]} exited {code}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    import chronotext  # noqa: F401

    warm_up(sys.argv[1], Path(sys.argv[2]))
    setup = time.perf_counter() - T0
    from calibrate import kernel_time
    print(setup, kernel_time(reps=5))
