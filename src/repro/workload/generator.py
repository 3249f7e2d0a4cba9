"""Trace generation: phase machine -> concrete work-unit trace."""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.workload.phases import PhaseMachine
from repro.workload.task import WorkUnit
from repro.workload.trace import Trace


class TraceGenerator:
    """Expands a :class:`~repro.workload.phases.PhaseMachine` into a trace.

    The generator walks the phase machine for the requested duration;
    within each emitting phase segment it releases one work unit per
    phase period, drawing per-unit demand from the phase distribution.
    Generation is fully determined by the seed.

    Args:
        machine: The phase machine to expand.
        seed: RNG seed; identical seeds produce identical traces.
    """

    def __init__(self, machine: PhaseMachine, seed: int = 0):
        self.machine = machine
        self.seed = seed

    def generate(self, duration_s: float, name: str = "generated") -> Trace:
        """Generate a trace covering ``duration_s`` seconds.

        Args:
            duration_s: Trace length in seconds (positive).
            name: Name stamped on the resulting trace.

        Returns:
            A :class:`~repro.workload.trace.Trace` whose units all release
            strictly before ``duration_s``.
        """
        if duration_s <= 0:
            raise WorkloadError(f"duration must be positive: {duration_s}")
        rng = np.random.default_rng(self.seed)
        units: list[WorkUnit] = []
        for phase, start, end in self.machine.walk(rng, duration_s):
            if not phase.emits:
                continue
            # A segment's releases first, then its works in one draw:
            # the walk's own draws fall between segments, so the stream
            # order is that of one draw per unit.
            releases: list[float] = []
            t = start
            while t < end and t < duration_s:
                releases.append(t)
                t += phase.period_s
            works = phase.sample_works(rng, len(releases)).tolist()
            span = phase.deadline_factor * phase.period_s
            units += WorkUnit.batch(
                len(units), releases, works,
                [release + span for release in releases],
                kind=phase.name, min_parallelism=phase.parallelism,
            )
        return Trace(units=units, name=name, duration_s=duration_s)
