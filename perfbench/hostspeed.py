"""The host's speed, from a fixed kernel timed next to each measurement.

On a shared VM the CPU speed drifts by up to about 1.8x over seconds to
minutes (measured with a fixed pure-Python loop: wall and CPU time both),
so raw wall times of the same code differ by that much between runs.  The
benchmark therefore times this kernel right before and right after every
measured block and reports the block's wall time scaled to the kernel's
reference time:

    adjusted = wall * REFERENCE_S / mean(kernel time before, kernel time after)

The kernel is benchmark code, so a change to the program moves the
adjusted time just as it moves the wall time, while a change in host speed
moves the kernel as well and mostly cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on an idle 2-vCPU Intel Xeon VM at 2.0 GHz.  Any fixed
# value works; this one keeps adjusted times close to wall times there.
REFERENCE_S = 0.42e-3
REPEATS = 21  # kernel calls per sample, about 10 ms

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64)) / 8.0
_X = _rng.standard_normal(64)


def kernel() -> int:
    """Interpreter work plus small numpy calls, the mix the workloads run."""
    s = 0
    for j in range(4000):
        s += j * j
    y = _X
    for _ in range(60):
        y = np.tanh(_A @ y)
    return s


def sample() -> float:
    """Median wall time of one kernel call over REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def adjusted(wall: float, before: float, after: float) -> float:
    """`wall` scaled to the reference speed, from the samples around it."""
    return wall * REFERENCE_S / ((before + after) / 2.0)
