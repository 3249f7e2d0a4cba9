"""Phase-structured workload behaviour.

Mobile scenarios are sequences of behavioural *phases*: a web-browsing
session alternates between idle reading, scroll bursts, and page loads;
a game alternates menu and gameplay.  Each phase emits periodic work
units with a characteristic demand distribution; a Markov chain governs
phase transitions.  This phase structure is exactly what reactive DVFS
governors handle poorly and what the paper's RL policy learns to
predict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class PhaseSpec:
    """One behavioural phase.

    Attributes:
        name: Phase label (also stamped on emitted work units).
        period_s: Emission period of work units within the phase (e.g.
            1/60 s for a 60 fps phase).  Zero means the phase emits
            nothing (true idle).
        work_mean: Mean demand per unit in reference-core cycles.
        work_cv: Coefficient of variation of per-unit demand (lognormal).
        deadline_factor: Deadline slack as a multiple of the period: a
            unit released at t gets deadline ``t + deadline_factor *
            period_s``.  1.0 is a hard frame pipeline.
        dwell_mean_s: Mean phase duration (exponential dwell).
        dwell_min_s: Minimum phase duration.
        parallelism: ``min_parallelism`` stamped on emitted units.
    """

    name: str
    period_s: float
    work_mean: float
    work_cv: float
    deadline_factor: float
    dwell_mean_s: float
    dwell_min_s: float = 0.1
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.period_s < 0:
            raise WorkloadError(f"phase {self.name}: negative period")
        if self.period_s > 0 and self.work_mean <= 0:
            raise WorkloadError(f"phase {self.name}: emitting phase needs positive work")
        if self.work_cv < 0:
            raise WorkloadError(f"phase {self.name}: negative work CV")
        if self.period_s > 0 and self.deadline_factor <= 0:
            raise WorkloadError(f"phase {self.name}: deadline factor must be positive")
        if self.dwell_mean_s <= 0 or self.dwell_min_s < 0:
            raise WorkloadError(f"phase {self.name}: invalid dwell parameters")

    @property
    def emits(self) -> bool:
        """Whether the phase produces work units."""
        return self.period_s > 0

    def sample_works(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` units' demands from the phase's lognormal
        distribution in one call, the draws ``count`` single draws
        would make, in order."""
        if self.work_cv == 0:
            return np.full(count, self.work_mean)
        sigma2 = np.log(1.0 + self.work_cv**2)
        mu = np.log(self.work_mean) - sigma2 / 2.0
        return rng.lognormal(mean=mu, sigma=float(np.sqrt(sigma2)), size=count)

    def sample_dwell(self, rng: np.random.Generator) -> float:
        """Draw one phase duration (exponential with a floor)."""
        return max(self.dwell_min_s, float(rng.exponential(self.dwell_mean_s)))


class PhaseMachine:
    """Markov chain over phases.

    Args:
        phases: The phase set; names must be unique.
        transitions: Row-stochastic matrix ``transitions[i][j]`` =
            probability of moving from phase i to phase j when phase i's
            dwell expires.  Self-transitions are allowed (the dwell is
            redrawn).
        initial: Index of the starting phase.

    Raises:
        WorkloadError: On an empty phase set, shape mismatch, or rows
            that do not sum to 1.
    """

    def __init__(
        self,
        phases: list[PhaseSpec],
        transitions: list[list[float]],
        initial: int = 0,
    ):
        if not phases:
            raise WorkloadError("phase machine needs at least one phase")
        names = [p.name for p in phases]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate phase names: {names}")
        matrix = np.asarray(transitions, dtype=float)
        if matrix.shape != (len(phases), len(phases)):
            raise WorkloadError(
                f"transition matrix shape {matrix.shape} does not match "
                f"{len(phases)} phases"
            )
        if np.any(matrix < 0):
            raise WorkloadError("transition probabilities must be non-negative")
        row_sums = matrix.sum(axis=1)
        # np.allclose(row_sums, 1.0, atol=1e-9) without its ~0.1 ms of
        # overhead, which every generated trace pays: a machine is built
        # per trace.
        if not all(abs(s - 1.0) <= 1e-9 + 1e-5 for s in row_sums.tolist()):
            raise WorkloadError(f"transition rows must sum to 1, got {row_sums}")
        if not 0 <= initial < len(phases):
            raise WorkloadError(f"initial phase index {initial} out of range")
        self.phases = list(phases)
        self.matrix = matrix
        self.initial = initial

    def __len__(self) -> int:
        return len(self.phases)

    def walk(self, rng: np.random.Generator, duration_s: float):
        """Yield ``(phase, start_s, end_s)`` segments covering ``duration_s``.

        The final segment is truncated at ``duration_s``.
        """
        if duration_s <= 0:
            raise WorkloadError(f"walk duration must be positive: {duration_s}")
        idx = self.initial
        t = 0.0
        while t < duration_s:
            phase = self.phases[idx]
            dwell = phase.sample_dwell(rng)
            end = min(t + dwell, duration_s)
            yield phase, t, end
            t = end
            idx = int(rng.choice(len(self.phases), p=self.matrix[idx]))
