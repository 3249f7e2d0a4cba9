"""Energy accounting over simulation intervals."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.power.model import PowerBreakdown


@dataclass
class EnergyMeter:
    """Integrates interval power samples into cumulative energy.

    The simulator calls :meth:`record` once per interval with the average
    power over that interval; the meter accumulates joules split by
    component and remembers the sample count for averaging.
    """

    dynamic_j: float = 0.0
    leakage_j: float = 0.0
    uncore_j: float = 0.0
    elapsed_s: float = 0.0
    samples: int = 0

    def record(self, power: PowerBreakdown, interval_s: float) -> None:
        """Add one interval's energy.

        Args:
            power: Average power over the interval.
            interval_s: Interval duration in seconds (must be positive).
        """
        if interval_s <= 0:
            raise ConfigurationError(f"interval must be positive: {interval_s}")
        self.dynamic_j += power.dynamic_w * interval_s
        self.leakage_j += power.leakage_w * interval_s
        self.uncore_j += power.uncore_w * interval_s
        self.elapsed_s += interval_s
        self.samples += 1

    @property
    def total_j(self) -> float:
        """Total accumulated energy in joules."""
        return self.dynamic_j + self.leakage_j + self.uncore_j

    @property
    def average_power_w(self) -> float:
        """Mean power over all recorded time; 0 before any sample."""
        return self.total_j / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def reset(self) -> None:
        """Clear all accumulators."""
        self.dynamic_j = 0.0
        self.leakage_j = 0.0
        self.uncore_j = 0.0
        self.elapsed_s = 0.0
        self.samples = 0
