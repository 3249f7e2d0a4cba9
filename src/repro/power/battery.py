"""A simple battery drain model (extension beyond the paper).

Mobile power-management papers ultimately care about battery life; this
model converts accumulated energy into state-of-charge so examples can
report "hours of use" style numbers.  It is deliberately simple: a fixed
usable energy budget with a coulombic efficiency factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class Battery:
    """Tracks battery state of charge against drawn energy.

    Attributes:
        capacity_j: Usable energy when full, in joules.  A typical
            3000 mAh / 3.85 V phone pack holds about 41.6 kJ.
        efficiency: Discharge efficiency in (0, 1]; the fraction of drawn
            energy actually delivered by the cell chemistry.
    """

    capacity_j: float = 41_580.0
    efficiency: float = 0.95
    drained_j: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ConfigurationError(f"capacity must be positive: {self.capacity_j}")
        if not 0 < self.efficiency <= 1:
            raise ConfigurationError(f"efficiency must be in (0, 1]: {self.efficiency}")

    def drain(self, energy_j: float) -> None:
        """Draw ``energy_j`` joules from the pack (clamped at empty)."""
        if energy_j < 0:
            raise ConfigurationError(f"drained energy must be non-negative: {energy_j}")
        self.drained_j = min(self.capacity_j, self.drained_j + energy_j / self.efficiency)

    @property
    def empty(self) -> bool:
        return self.drained_j >= self.capacity_j

    def runtime_estimate_s(self, average_power_w: float) -> float:
        """Estimated remaining runtime at a sustained average power draw.

        Returns ``float('inf')`` for zero power.
        """
        if average_power_w < 0:
            raise ConfigurationError(f"power must be non-negative: {average_power_w}")
        remaining = (self.capacity_j - self.drained_j) * self.efficiency
        return float("inf") if average_power_w == 0 else remaining / average_power_w
