"""Dynamic (switching) power model.

Dynamic CMOS power follows ``P = alpha * Ceff * V^2 * f`` where ``alpha``
is the activity factor.  We fold activity into the core's interval
utilisation: a core that executed for 40 % of an interval dissipated
switching power for 40 % of it.  An idle-but-clocked core still burns a
small fraction of full activity (clock tree and always-on logic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DynamicPowerModel:
    """Utilisation-scaled CV^2f switching power.

    Attributes:
        idle_activity: Fraction of full switching activity an idle-but-
            clocked core exhibits (clock tree, snoop logic).  Typical
            published values for mobile cores are 3-10 %.
    """

    idle_activity: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_activity <= 1.0:
            raise ConfigurationError(
                f"idle_activity must be in [0, 1]: {self.idle_activity}"
            )

    def core_power_w(
        self,
        ceff_f: float,
        voltage_v: float,
        freq_hz: float,
        utilization: float,
        idle_scale: float = 1.0,
    ) -> float:
        """Average dynamic power of one core over an interval.

        Args:
            ceff_f: Effective switched capacitance in farads.
            voltage_v: Supply voltage in volts.
            freq_hz: Clock frequency in hertz.
            utilization: Fraction of the interval spent executing, [0, 1].
            idle_scale: C-state multiplier on the idle portion's power in
                [0, 1]; 1.0 is shallow clock gating (WFI), smaller values
                model core/cluster power collapse.

        Returns:
            Average power in watts.

        Raises:
            ConfigurationError: If utilisation or idle_scale is outside
                [0, 1] or any electrical parameter is negative.
        """
        return self.cores_power_w(
            ceff_f, voltage_v, freq_hz, (utilization,), (idle_scale,)
        )

    def cores_power_w(
        self,
        ceff_f: float,
        voltage_v: float,
        freq_hz: float,
        utilizations: Iterable[float],
        idle_scales: Iterable[float],
    ) -> float:
        """Summed dynamic power of identical cores sharing one OPP.

        :meth:`core_power_w` per core, added in core order; the two
        iterables pair up per core.

        Raises:
            ConfigurationError: As :meth:`core_power_w`.
        """
        if ceff_f < 0 or voltage_v < 0 or freq_hz < 0:
            raise ConfigurationError("electrical parameters must be non-negative")
        idle_activity = self.idle_activity
        total = 0.0
        for utilization, idle_scale in zip(utilizations, idle_scales):
            if not 0.0 <= utilization <= 1.0:
                raise ConfigurationError(
                    f"utilization must be in [0, 1]: {utilization}"
                )
            if not 0.0 <= idle_scale <= 1.0:
                raise ConfigurationError(
                    f"idle_scale must be in [0, 1]: {idle_scale}"
                )
            activity = utilization + (1.0 - utilization) * idle_activity * idle_scale
            total += activity * ceff_f * voltage_v * voltage_v * freq_hz
        return total
