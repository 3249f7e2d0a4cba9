"""Shared pieces of every workload: results, timing loops, set-up timing.

A workload module exposes ``run(ctx, workload) -> Outcome``.  The
harness owns what is common: the run context (seed, seconds, scratch
directory, tracing flag), the host-speed-corrected repetition loop, the
fresh-interpreter set-up measurement behind ``setup_s``, peak memory,
and quantiles.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from perfbench import hostspeed, spec

#: Fresh interpreters timed per run for ``setup_s``; the median is
#: reported.  One extra untimed start first compiles and caches the
#: program's bytecode, which a user pays once per install, not per run.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0


@dataclass
class Context:
    """One benchmark run's inputs."""

    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def region_s(self) -> float:
        """Seconds of each timed region.  A traced run times the workload
        untraced and then traced, half the run's seconds each, so it
        takes no longer than an untraced run."""
        return self.seconds / 2 if self.trace else self.seconds


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``problems`` lists every failed correctness check; ``metrics`` holds
    the end-to-end metrics (untraced run) or the per-layer metrics
    (traced run), keyed by the names in :mod:`perfbench.spec`.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def as_result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": spec.UNITS[name]}
                for name, value in self.metrics.items()
            },
        }


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrated(seconds: float, rep: Callable[[], None]) -> list[tuple[float, float]]:
    """Call ``rep`` until ``seconds`` have passed (at least once).

    Returns, per call, its wall seconds and the host-speed factor around
    it (the mean of the factors measured just before and just after).
    """
    start = time.perf_counter()
    host = hostspeed.Tracker()
    calls = []
    while True:
        began = time.perf_counter()
        rep()
        took = time.perf_counter() - began
        calls.append((took, host.next()))
        if time.perf_counter() - start >= seconds:
            return calls


def measure_setup(ctx: Context, workload: str) -> tuple[float, float]:
    """Median seconds of a fresh interpreter's set-up, and the median
    seconds its ``import repro.cli`` took, both host-speed corrected.

    Each sample is a new ``python3`` process running
    :mod:`perfbench.setup_probe`, timed from spawn to exit by this
    process.
    """
    walls: list[float] = []
    imports: list[float] = []
    host = hostspeed.Tracker()
    for sample in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.setup_probe", workload,
             str(ctx.seed), str(ctx.workdir)],
            cwd=ctx.root,
            env={**os.environ, "PYTHONPATH": str(ctx.root)},
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed:\n{done.stderr}"
            )
        factor = host.next()
        if sample == 0:
            continue
        walls.append(wall / factor)
        cli_import_s = json.loads(done.stdout.splitlines()[-1])["cli_import_s"]
        imports.append(cli_import_s / factor)
    return statistics.median(walls), statistics.median(imports)
