"""Reference kernel that tracks the speed of the machine during a run.

On a shared machine, wall times drift by 20-30 % over tens of seconds as
other tenants load the host.  The benchmark runs this fixed kernel next to
each measurement: before and after every CLI job, and after every batch of
the library loop.  It scales the measurement by REF_S / (kernel time),
which cancels much of the drift.  The kernel never touches nearband, so a
change to the program cannot move it.
"""

import statistics
import time

import numpy as np

# kernel time on the 2-vCPU sandbox the benchmark was built on (Python
# 3.11, numpy 2.4); any fixed value works, it only sets the scale
REF_S = 0.010


def _kernel() -> float:
    # numpy on mid-sized arrays plus interpreter arithmetic, like nearband's mix
    x = np.linspace(0.1, 5.0, 4096)
    acc = 0.0
    for i in range(48):
        y = np.sin(x * (1.0 + i * 1e-3)) ** 2 + np.sqrt(x)
        acc += float(y.sum())
        for k in range(2000):
            acc += k * 1e-9
    return acc


def probe(repeats: int = 3) -> float:
    """Median kernel time in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """seconds measured between two probes, at the reference speed."""
    return seconds * REF_S / (0.5 * (before + after))
