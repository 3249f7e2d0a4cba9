"""Host-speed correction for every timed figure.

The benchmark host is shared with other machines' work.  Its speed for
the same code drifts by up to about 2x, in episodes lasting from a
second to minutes, and wall time and CPU time move together, so the
drift is host speed, not preemption.  No run length averages that out:
ten-to-fifteen-second windows of an unchanged sweep spread 12% (batch)
to 30% (fleet grid), interquartile range over median, and a 2x episode
can cover a whole run.

So every timed figure is divided by a host-speed factor measured next to
it on the same CPU: the time a fixed calibration kernel takes now, over
the time it takes on the reference host in its usual state.  The kernel
mixes, in about equal time, the two kinds of work the program does:
Python object manipulation (which tracked the serial engine best) and
small NumPy array operations (which tracked the lock-step batch best).
It never calls the program, so a change to the program cannot move it.
On the same recordings, dividing by the factor cut the window spread to
about 5-6%.

``run.py`` pins the process to one CPU first: the two CPUs of the host
drift independently, so the kernel must run where the workload runs.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import numpy as np

#: Median kernel time on the reference host (2 vCPU Intel Xeon at
#: 2.1 GHz) in its usual state; the factor there is about 1.
REFERENCE_S = 3.4e-3

SAMPLES = 5


def pin_to_one_cpu() -> None:
    """Keep this process and its children on a single CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel() -> float:
    rng = random.Random(7)
    jobs = [[rng.random(), i, {"work": rng.random()}] for i in range(100)]
    acc = 0.0
    for _ in range(60):
        jobs.sort(key=lambda job: job[0])
        for job in jobs:
            share = job[2]["work"] * 0.5
            acc += share if share < 0.3 else -share
            job[0] = (job[0] + 0.618) % 1.0
    values = np.arange(64.0)
    edges = np.linspace(0.0, 64.0, 10)
    for _ in range(200):
        values = np.minimum(values * 1.0001 + 0.5, 300.0)
        acc += float(np.searchsorted(edges, values, side="right")[0])
    return acc


def factor() -> float:
    """How much slower than the reference host this CPU runs right now."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


class Tracker:
    """Host-speed factors around consecutive timed stretches.

    Each stretch's factor is the mean of the factors measured just
    before and just after it; the one after doubles as the next
    stretch's before.
    """

    def __init__(self) -> None:
        self._before = factor()

    def next(self) -> float:
        after = factor()
        host = (self._before + after) / 2
        self._before = after
        return host
