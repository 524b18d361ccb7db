"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU speed of one process drifts by about 20% over a few
seconds, and 30-second runs on different seeds differ by as much.  The drift
follows the cost of Python bytecode and of small NumPy calls: a fixed loop of
both that never touches rieszcone, timed just before and just after a
measurement, tracks it.  Over 240 s of interleaved operations on a 2-vCPU
host, the quartile spread of 30-second medians fell from 0.23-0.31 (raw
wall time) to 0.04-0.05 (scaled); a pure-Python loop alone only reached
0.11-0.15.  Each timing is therefore reported at a fixed reference speed,

    scaled = wall * REF_LOOP_S / (mean of the loop times before and after),

which is the time the measurement would take on a machine where the loop
takes ``REF_LOOP_S``.  Raw wall times are kept next to the scaled ones in
every result file.
"""

from __future__ import annotations

import time

import numpy as np

REF_LOOP_S = 0.0035
LOOP_REPEATS = 3
_VEC = np.ones(64)


def _loop():
    acc = 0
    for i in range(20_000):
        acc += i * i
    v = _VEC
    for _ in range(1_500):
        v = v * 0.5 + 1.0
    return acc, v


def loop_s():
    """Fastest of LOOP_REPEATS timings of the reference loop."""
    best = float("inf")
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before, after):
    """Multiplier from wall time to reference-speed time."""
    return REF_LOOP_S / (0.5 * (before + after))
