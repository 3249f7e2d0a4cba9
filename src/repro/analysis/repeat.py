"""Multi-seed repetition and confidence intervals.

Single-seed comparisons can flatter either side; :class:`RepeatedMeasure`
summarises one metric measured across seeds — mean, sample standard
deviation, and a normal-approximation confidence interval — so
experiments and benches can state how stable a gap is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.stats import mean, stdev
from repro.errors import ReproError

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

