"""Combined chip power model: dynamic + leakage per core, summed upward."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import ConfigurationError
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel
from repro.soc.chip import Chip
from repro.soc.cluster import Cluster

_utilization = attrgetter("utilization")


@dataclass(frozen=True)
class PowerBreakdown:
    """Power of one cluster (or chip) split into components, in watts."""

    dynamic_w: float
    leakage_w: float
    uncore_w: float = 0.0

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w + self.uncore_w

    def __add__(self, other: "PowerBreakdown") -> "PowerBreakdown":
        return PowerBreakdown(
            dynamic_w=self.dynamic_w + other.dynamic_w,
            leakage_w=self.leakage_w + other.leakage_w,
            uncore_w=self.uncore_w + other.uncore_w,
        )


@dataclass(frozen=True)
class PowerModel:
    """Full-chip power model.

    Attributes:
        dynamic: The switching-power component model.
        leakage: The static-power component model.
        uncore_w: Constant chip uncore/interconnect/memory-controller power
            attributed to the SoC regardless of DVFS state.  This is the
            floor that makes racing-to-idle at absurdly low frequencies
            unattractive, as on real devices.
    """

    dynamic: DynamicPowerModel = field(default_factory=DynamicPowerModel)
    leakage: LeakagePowerModel = field(default_factory=LeakagePowerModel)
    uncore_w: float = 0.25

    def cluster_power(
        self,
        cluster: Cluster,
        temp_c: float | None = None,
        idle_scales: list[float] | None = None,
    ) -> PowerBreakdown:
        """Average power of one cluster over the last simulated interval.

        Uses each core's recorded utilisation and the cluster's current OPP.

        Args:
            cluster: The cluster to price.
            temp_c: Junction temperature for leakage scaling.
            idle_scales: Optional per-core C-state power multipliers (from
                :class:`repro.idle.MenuIdleGovernor`); a power-collapsed
                core's idle fraction pays ``scale`` times the shallow-idle
                dynamic *and* leakage power.  ``None`` means shallow
                clock-gating everywhere.
        """
        return PowerBreakdown(*self.cluster_power_w(cluster, temp_c, idle_scales))

    def cluster_power_w(
        self,
        cluster: Cluster,
        temp_c: float | None = None,
        idle_scales: list[float] | None = None,
    ) -> tuple[float, float]:
        """:meth:`cluster_power` as plain ``(dynamic_w, leakage_w)`` floats.

        The serial engine's per-interval form: it sums the chip in plain
        floats rather than through :class:`PowerBreakdown` objects.
        """
        opp = cluster.current_opp
        v = opp.voltage_v
        cores = cluster.cores
        if idle_scales is None:
            idle_scales = [1.0] * len(cores)
        elif len(idle_scales) != len(cores):
            raise ConfigurationError(
                f"{len(idle_scales)} idle scales for {len(cores)} cores"
            )
        # Every core of a cluster is the cluster's core type at its OPP.
        core = cluster.spec.core
        utils = list(map(_utilization, cores))
        dyn = self.dynamic.cores_power_w(
            core.ceff_f, v, opp.freq_hz, utils, idle_scales
        )
        full_leak = self.leakage.core_power_w(core.leak_a_per_v, v, temp_c)
        leak = 0.0
        for util, scale in zip(utils, idle_scales):
            # Power collapse removes the rail for the idle fraction.
            leak += full_leak * (util + (1.0 - util) * scale)
        return dyn, leak

    def chip_power(self, chip: Chip, temp_c: float | None = None) -> PowerBreakdown:
        """Average power of the whole chip over the last simulated interval."""
        total = PowerBreakdown(0.0, 0.0, uncore_w=self.uncore_w)
        for cluster in chip:
            total = total + self.cluster_power(cluster, temp_c)
        return total
