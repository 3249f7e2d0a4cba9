"""CPU cluster: a set of identical cores sharing one DVFS domain.

Mobile MPSoCs gang cores into clusters (e.g. 4x Cortex-A15 + 4x
Cortex-A7); all cores in a cluster share a clock and voltage rail, so a
governor decision applies cluster-wide.  The cluster is the unit the
governors and the RL policy control.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.errors import ConfigurationError, OPPError
from repro.soc.core import CoreSpec, CoreState, record_cores
from repro.soc.opp import OperatingPoint, OPPTable


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one cluster.

    Attributes:
        name: Cluster name, unique within a chip (e.g. ``"big"``).
        core: The core type replicated across the cluster.
        n_cores: Number of cores; must be >= 1.
        opp_table: The DVFS operating points shared by all cores.
    """

    name: str
    core: CoreSpec
    n_cores: int
    opp_table: OPPTable

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigurationError(f"cluster needs at least one core: {self.n_cores}")


_utilization = attrgetter("utilization")


class Cluster:
    """Runtime state of one DVFS domain: current OPP plus per-core state.

    The cluster keeps the selected :class:`OperatingPoint` itself, not
    just its index, so frequency and voltage reads do not go back to the
    OPP table; every index change goes through :meth:`_select`.

    Args:
        spec: Static cluster description.
        initial_opp_index: Starting OPP index; defaults to the lowest
            frequency, matching a cold-booted cpufreq policy floor.
    """

    def __init__(self, spec: ClusterSpec, initial_opp_index: int | None = None):
        self.spec = spec
        self.cores: list[CoreState] = [CoreState(spec.core) for _ in range(spec.n_cores)]
        if initial_opp_index is None:
            initial_opp_index = 0
        if not 0 <= initial_opp_index <= spec.opp_table.max_index:
            raise OPPError(
                f"initial OPP index {initial_opp_index} out of range for "
                f"{len(spec.opp_table)}-point table"
            )
        self._select(initial_opp_index)

    def __repr__(self) -> str:
        return (
            f"Cluster({self.spec.name!r}, {self.spec.n_cores}x{self.spec.core.name}, "
            f"opp={self._opp_index} @ {self.current_opp.freq_mhz:.0f} MHz)"
        )

    # -- DVFS control ---------------------------------------------------------

    @property
    def opp_index(self) -> int:
        """Index of the currently selected operating point."""
        return self._opp_index

    @property
    def current_opp(self) -> OperatingPoint:
        """The currently selected operating point."""
        return self._opp

    @property
    def freq_hz(self) -> float:
        """Current cluster clock frequency in hertz."""
        return self._opp.freq_hz

    @property
    def voltage_v(self) -> float:
        """Current cluster supply voltage in volts."""
        return self._opp.voltage_v

    def _select(self, index: int) -> None:
        """Make the (already validated) ``index`` the current OPP."""
        self._opp_index = index
        self._opp = self.spec.opp_table[index]

    def set_opp_index(self, index: int) -> None:
        """Switch the DVFS domain to a new operating point.

        Raises:
            OPPError: If the index is out of range.  Governors should clamp
                with :meth:`repro.soc.opp.OPPTable.clamp_index` first.
        """
        if not 0 <= index <= self.spec.opp_table.max_index:
            raise OPPError(
                f"OPP index {index} out of range for cluster {self.spec.name!r}"
            )
        self._select(index)

    # -- capacity and accounting ----------------------------------------------

    @property
    def n_cores(self) -> int:
        return self.spec.n_cores

    def cycles_available(self, interval_s: float) -> float:
        """Total raw clock cycles across all cores for one interval."""
        return sum(
            c.spec.cycles_available(self.freq_hz, interval_s) for c in self.cores
        )

    def work_available(self, interval_s: float) -> float:
        """Total capacity-weighted work across all cores for one interval."""
        return sum(c.spec.work_available(self.freq_hz, interval_s) for c in self.cores)

    def record_interval(self, cursors: Sequence[float], interval_s: float) -> None:
        """Account one simulated interval on every core at the current OPP.

        Args:
            cursors: Seconds of the interval each core spent executing,
                one per core (the drain's per-core cursors).
            interval_s: Interval length in seconds.

        Raises:
            ConfigurationError: If a core used negative cycles or more
                than were available (see :meth:`CoreState.record_interval`).
        """
        freq = self._opp.freq_hz
        record_cores(self.cores, [c * freq for c in cursors], freq, interval_s)

    @property
    def utilization(self) -> float:
        """Mean per-core utilisation over the previous interval, in [0, 1]."""
        return sum(map(_utilization, self.cores)) / len(self.cores)

    @property
    def max_core_utilization(self) -> float:
        """The busiest core's utilisation — what cpufreq governors react to."""
        return max(map(_utilization, self.cores))

    def reset(self) -> None:
        """Reset runtime counters and return the OPP to the table floor."""
        for core in self.cores:
            core.reset()
        self._select(0)
