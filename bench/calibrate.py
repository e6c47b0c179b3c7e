"""Host-speed calibration.

On a shared host the speed of the same pure-Python code drifts by 20-40 %
over seconds to minutes, as other tenants load the machine.  The
benchmark times a fixed stdlib kernel between consecutive ops and scales
each op's time by `REF_S / kernel time`: the result is the op's time on
a host that runs the kernel in `REF_S`.  Interleaved over three minutes
on a 2-core host, a `check` op's wall time moved by 13.5 % (coefficient
of variation of 30 s means) and its scaled time by 2.5 %.

The kernel mixes what chronotext spends its time on: dict and tuple
access, `Fraction` arithmetic and small integer bit loops.  It does not
import chronotext, so no change to the package can change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_S = 0.002  # kernel time when the 2-core reference host is quiet


def kernel() -> int:
    table = {i: (i + 1, 3 * i + 2) for i in range(64)}
    acc = Fraction(0)
    masks = 0
    for i in range(400):
        a, b = table[i & 63]
        acc += Fraction(a, b)
        row = [(x * a) & 0x1FFF for x in range(16)]
        masks |= sum(row) & (1 << (i % 13))
    return masks + acc.denominator


def kernel_time(reps: int = 2) -> float:
    """The fastest of `reps` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(raw: list[float], kernels: list[float]) -> list[float]:
    """Scale each time by the mean of the kernel times taken just before
    and just after it: `kernels` has one more entry than `raw`."""
    return [t * 2 * REF_S / (before + after)
            for t, before, after in zip(raw, kernels, kernels[1:])]
