"""Thermal throttling: a frequency cap applied above a trip temperature.

Mirrors the behaviour of a simple step-wise thermal governor: when a
cluster's node exceeds the trip point, its OPP index is capped; the cap
relaxes once the node cools below the trip point minus a hysteresis band.
Throttling composes *after* any governor decision, as in the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.soc.cluster import Cluster
from repro.thermal.rc import ThermalModel


@dataclass
class ThermalThrottle:
    """Step-wise thermal frequency capping.

    Attributes:
        trip_c: Temperature above which throttling engages.
        hysteresis_c: Cooling margin below ``trip_c`` required to release
            one throttle step.
        step_opps: How many OPP indices each throttle step removes.
    """

    trip_c: float = 85.0
    hysteresis_c: float = 5.0
    step_opps: int = 1
    _levels: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.hysteresis_c < 0:
            raise ConfigurationError(f"hysteresis must be non-negative: {self.hysteresis_c}")
        if self.step_opps < 1:
            raise ConfigurationError(f"step_opps must be >= 1: {self.step_opps}")

    def apply(self, cluster: Cluster, thermal: ThermalModel) -> int:
        """Update the throttle level and cap the cluster's OPP.

        Call once per interval after the governor has set its OPP.

        Returns:
            The (possibly capped) OPP index now in effect.
        """
        name = cluster.spec.name
        temp = thermal.temperature_c(name)
        level = self._levels.get(name, 0)
        if temp > self.trip_c:
            level += 1
        elif temp < self.trip_c - self.hysteresis_c and level > 0:
            level -= 1
        max_level = cluster.spec.opp_table.max_index // self.step_opps
        level = min(level, max_level)
        self._levels[name] = level

        cap = cluster.spec.opp_table.max_index - level * self.step_opps
        if cluster.opp_index > cap:
            cluster.set_opp_index(cap)
        return cluster.opp_index

    def reset(self) -> None:
        """Clear all throttle state."""
        self._levels.clear()
