"""CPU core models.

A core is described by its microarchitectural *capacity* (instructions
retired per cycle relative to a reference core), its effective switched
capacitance (which sets dynamic power), and leakage parameters.  Cores do
not own a frequency — frequency belongs to the cluster's DVFS domain —
but they convert (frequency, utilisation) into executed cycles and power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CoreSpec:
    """Static description of one CPU core.

    Attributes:
        name: Human-readable core name (e.g. ``"A15"`` or ``"A7"``).
        capacity: Relative per-cycle throughput.  A core with capacity 2.0
            retires twice the work per clock of a capacity-1.0 core; used
            by the scheduler to compare clusters and by work draining.
        ceff_f: Effective switched capacitance in farads.  Dynamic power is
            ``ceff_f * V^2 * f`` at 100 % activity.
        leak_a_per_v: Leakage conductance coefficient in amperes per volt at
            the reference temperature; static power is
            ``leak_a_per_v * V^2`` scaled by the thermal model.
        is_big: True for the high-performance ("big") core type.  Only used
            for reporting and scheduler affinity heuristics.
    """

    name: str
    capacity: float
    ceff_f: float
    leak_a_per_v: float
    is_big: bool = False

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError(f"core capacity must be positive: {self.capacity}")
        if self.ceff_f <= 0:
            raise ConfigurationError(f"core Ceff must be positive: {self.ceff_f}")
        if self.leak_a_per_v < 0:
            raise ConfigurationError(
                f"core leakage coefficient must be non-negative: {self.leak_a_per_v}"
            )

    def cycles_available(self, freq_hz: float, interval_s: float) -> float:
        """Raw clock cycles this core offers in one interval at ``freq_hz``."""
        if freq_hz < 0 or interval_s < 0:
            raise ConfigurationError("frequency and interval must be non-negative")
        return freq_hz * interval_s

    def work_available(self, freq_hz: float, interval_s: float) -> float:
        """Capacity-weighted work units (reference-core cycles) per interval.

        This is the quantity the scheduler balances: a big core at the same
        clock offers ``capacity`` times the work of the reference core.
        """
        return self.cycles_available(freq_hz, interval_s) * self.capacity


@dataclass
class CoreState:
    """Mutable per-core runtime state tracked by the simulator.

    Attributes:
        spec: The static core description.
        utilization: Fraction of the previous interval the core spent
            executing work, in [0, 1].
        busy_cycles: Cumulative executed cycles since reset.
        idle: True when the core ran no work in the previous interval.
    """

    spec: CoreSpec
    utilization: float = 0.0
    busy_cycles: float = 0.0
    idle: bool = True

    def record_interval(self, used_cycles: float, freq_hz: float, interval_s: float) -> None:
        """Account one simulated interval of execution.

        Args:
            used_cycles: Clock cycles actually spent executing work.
            freq_hz: The clock frequency during the interval.
            interval_s: Interval length in seconds.

        Raises:
            ConfigurationError: If more cycles were used than available.
        """
        record_cores((self,), (used_cycles,), freq_hz, interval_s)

    def reset(self) -> None:
        """Clear all runtime counters back to the post-construction state."""
        self.utilization = 0.0
        self.busy_cycles = 0.0
        self.idle = True


def record_cores(
    cores: Sequence[CoreState],
    used_cycles: Iterable[float],
    freq_hz: float,
    interval_s: float,
) -> None:
    """Account one simulated interval on cores sharing one clock.

    :meth:`CoreState.record_interval` for a whole DVFS domain in one
    call; ``used_cycles`` pairs with ``cores`` in order.

    Raises:
        ConfigurationError: If a core used negative cycles, or more than
            were available beyond a tiny float tolerance.
    """
    available = cores[0].spec.cycles_available(freq_hz, interval_s)
    # Tolerate tiny float overshoot from the drain loop.
    limit = available * (1 + 1e-9) + 1e-6
    for core, used in zip(cores, used_cycles):
        if used < 0:
            raise ConfigurationError(f"used cycles must be non-negative: {used}")
        if used > limit:
            raise ConfigurationError(
                f"core {core.spec.name} used {used:.3e} cycles but only "
                f"{available:.3e} were available"
            )
        if used > available:
            used = available
        core.utilization = used / available if available > 0 else 0.0
        core.busy_cycles += used
        core.idle = used == 0


# Published-order-of-magnitude parameters for Cortex-A15 / Cortex-A7 class
# cores (Exynos 5422-era 28 nm).  Absolute values are representative, not
# measured; what matters for the reproduction is the big:LITTLE power and
# capacity ratios.
BIG_CORE = CoreSpec(name="A15", capacity=2.0, ceff_f=6.0e-10, leak_a_per_v=0.12, is_big=True)
LITTLE_CORE = CoreSpec(name="A7", capacity=1.0, ceff_f=1.5e-10, leak_a_per_v=0.03, is_big=False)
