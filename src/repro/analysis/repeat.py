"""Multi-seed repetition and confidence intervals.

Single-seed comparisons can flatter either side; this harness repeats a
(governor, scenario) measurement across seeds and reports mean, sample
standard deviation, and a normal-approximation confidence interval, so
benches can state how stable a gap is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.stats import mean, stdev
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.fleet.spec import JobSpec

# Two-sided z values for common confidence levels.
_Z = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


@dataclass(frozen=True)
class RepeatedMeasure:
    """Summary of one metric measured across seeds.

    Attributes:
        values: Per-seed measurements, in seed order.
        confidence: The confidence level of :attr:`ci_halfwidth`.
    """

    values: tuple[float, ...]
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not self.values:
            raise ReproError("repeated measure needs at least one value")
        if self.confidence not in _Z:
            raise ReproError(
                f"confidence must be one of {sorted(_Z)}: {self.confidence}"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return mean(self.values)

    @property
    def stdev(self) -> float:
        return stdev(self.values)

    @property
    def ci_halfwidth(self) -> float:
        """Normal-approximation half-width of the confidence interval of
        the mean (0.0 for a single sample)."""
        if self.n < 2:
            return 0.0
        return _Z[self.confidence] * self.stdev / math.sqrt(self.n)

    def overlaps(self, other: "RepeatedMeasure") -> bool:
        """Whether the two confidence intervals overlap (a quick, and
        conservative, no-significant-difference check)."""
        lo_a, hi_a = self.mean - self.ci_halfwidth, self.mean + self.ci_halfwidth
        lo_b, hi_b = other.mean - other.ci_halfwidth, other.mean + other.ci_halfwidth
        return lo_a <= hi_b and lo_b <= hi_a

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci_halfwidth:.2g} (n={self.n})"


def repeat_jobs_over_seeds(
    spec: "JobSpec",
    seeds: list[int],
    metric: str = "energy_per_qos_j",
    jobs: int = 1,
    confidence: float = 0.95,
    timeout_s: float | None = None,
    retries: int = 0,
) -> RepeatedMeasure:
    """Repeat one fleet job across evaluation seeds, possibly in parallel.

    The measurement is a :class:`~repro.fleet.spec.JobSpec` re-run at
    each seed through :func:`repro.fleet.run_fleet`, so the repeats can
    fan out over worker processes.  Values are returned in
    seed order regardless of completion order.

    Args:
        spec: The job to repeat; its own ``seed`` field is ignored.
        seeds: Evaluation seeds; at least one.
        metric: :class:`~repro.fleet.worker.JobSuccess` attribute to
            collect (``energy_j``, ``mean_qos``, ``deadline_miss_rate``,
            or ``energy_per_qos_j``).
        jobs: Worker processes (``0`` = CPU count).
        confidence: Confidence level for the interval.
        timeout_s: Per-job wall-clock budget.
        retries: Extra attempts per failed job.

    Raises:
        ReproError: If any seed's job finally fails, or for an unknown
            metric name.
    """
    from repro.fleet import run_fleet

    if not seeds:
        raise ReproError("need at least one seed")
    valid = ("energy_j", "mean_qos", "deadline_miss_rate", "energy_per_qos_j")
    if metric not in valid:
        raise ReproError(f"unknown metric {metric!r}; available: {list(valid)}")
    result = run_fleet(
        [spec.with_seed(seed) for seed in seeds],
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
    )
    result.raise_on_failure()
    return RepeatedMeasure(
        values=tuple(getattr(s, metric) for s in result.successes),
        confidence=confidence,
    )
