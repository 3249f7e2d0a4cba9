"""A menu-style cpuidle governor.

Predicts each core's next idle duration from its recent idle history
(EWMA, as the kernel's menu governor does with its correction factors)
and selects the deepest C-state whose target residency fits.  The
simulation engine asks it once per interval per idle core and applies
the selected state's power fraction to that core's idle power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.idle.cstates import CStateTable, mobile_cstates


@dataclass
class MenuIdleGovernor:
    """Per-core idle-duration prediction and C-state selection.

    Attributes:
        table: The C-state table to select from.
        ewma_alpha: Smoothing of the per-core idle-duration estimate.
        latency_limit_s: Optional global wake-latency constraint (a QoS
            knob: latency-critical workloads can forbid deep states).
    """

    table: CStateTable = field(default_factory=mobile_cstates)
    ewma_alpha: float = 0.3
    latency_limit_s: float | None = None
    _predicted: dict[str, float] = field(default_factory=dict, repr=False)
    _idle_run: dict[str, float] = field(default_factory=dict, repr=False)
    selections: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigurationError(f"ewma_alpha must be in (0, 1]: {self.ewma_alpha}")

    def observe(self, core_id: str, idle_s: float, interval_s: float) -> int:
        """Feed one interval's idle time for a core and select its C-state.

        Args:
            core_id: Stable identifier of the core (e.g. ``"big/2"``).
            idle_s: Idle time within the interval, in seconds.
            interval_s: The interval length.

        Returns:
            The selected C-state index for the *next* idle period.
        """
        if not 0 <= idle_s <= interval_s * (1 + 1e-9):
            raise ConfigurationError(
                f"idle time {idle_s} outside interval [0, {interval_s}]"
            )
        # Track contiguous idle: a fully idle interval extends the run,
        # any activity resets it.  The prediction blends the run length
        # with the EWMA of recent idle fractions.
        run = self._idle_run.get(core_id, 0.0)
        if idle_s >= interval_s * (1 - 1e-9):
            run += interval_s
        else:
            run = idle_s
        self._idle_run[core_id] = run

        prev = self._predicted.get(core_id, idle_s)
        predicted = prev + self.ewma_alpha * (idle_s - prev)
        self._predicted[core_id] = predicted

        selection = self.table.deepest_allowed(
            max(predicted, run), self.latency_limit_s
        )
        self.selections[core_id] = selection
        return selection

    def power_fraction(self, core_id: str) -> float:
        """Idle-power multiplier for the core's current C-state (1.0 for
        cores never observed)."""
        selection = self.selections.get(core_id, 0)
        return self.table[selection].power_fraction

    def reset(self) -> None:
        """Forget all prediction and selection state."""
        self._predicted.clear()
        self._idle_run.clear()
        self.selections.clear()
