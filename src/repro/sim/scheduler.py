"""Task-to-cluster scheduling.

Mobile big.LITTLE kernels use HMP/EAS-style placement: work that a
LITTLE core can finish inside its deadline stays on the LITTLE cluster;
demanding single-threaded work migrates to the big cluster.  The
scheduler here makes that placement per work unit at release time, using
only information a kernel would have: the unit's demand estimate, its
deadline, per-cluster peak capacity, and the current backlog.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import ConfigurationError
from repro.soc.chip import Chip
from repro.workload.task import WorkUnit


class Scheduler(ABC):
    """Maps released work units to cluster names."""

    @abstractmethod
    def assign(
        self, unit: WorkUnit, chip: Chip, backlog_work: dict[str, float], now_s: float
    ) -> str:
        """Choose the cluster that will run ``unit``.

        Args:
            unit: The newly released work unit.
            chip: The chip being simulated.
            backlog_work: Pending work (reference cycles) per cluster name.
            now_s: Current simulation time.

        Returns:
            The chosen cluster's name.
        """


@dataclass
class HMPScheduler(Scheduler):
    """Deadline-aware heterogeneous placement.

    A unit goes to the smallest (lowest peak-capacity) cluster that could
    still meet the unit's deadline at full tilt with the current backlog
    in front of it, with a safety margin.  If no cluster qualifies, the
    highest-capacity cluster takes it.

    The ranking depends only on the chip's static cluster specs, so it
    is computed once per chip and kept for the last chip seen; handing
    the scheduler a different chip object ranks that chip afresh.

    Attributes:
        margin: Capacity safety factor; 0.8 means plan to use at most
            80 % of a cluster's peak rate (headroom for jitter).
    """

    margin: float = 0.8
    _chip: Chip | None = field(default=None, init=False, repr=False, compare=False)
    _ranked: list[tuple[str, float, int]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 < self.margin <= 1:
            raise ConfigurationError(f"margin must be in (0, 1]: {self.margin}")

    def _ranking(self, chip: Chip) -> list[tuple[str, float, int]]:
        """``(name, single-core peak rate, cores)`` per cluster, ordered
        by single-thread peak capacity, smallest first."""
        if chip is not self._chip:
            peaks = [
                (c.spec.name, c.spec.core.capacity * c.spec.opp_table.max_freq_hz,
                 c.n_cores)
                for c in chip.clusters
            ]
            self._ranked = sorted(peaks, key=itemgetter(1))
            self._chip = chip
        return self._ranked

    def assign(
        self, unit: WorkUnit, chip: Chip, backlog_work: dict[str, float], now_s: float
    ) -> str:
        time_left = max(unit.deadline_s - now_s, 1e-6)
        ranked = self._ranking(chip)
        for name, peak, n_cores in ranked:
            peak_1t = peak * min(unit.min_parallelism, n_cores)
            peak_cluster = peak * n_cores
            backlog = backlog_work.get(name, 0.0)
            # The unit itself is rate-limited by its parallelism; the backlog
            # in front of it drains at full cluster rate.
            needed_s = unit.work / (peak_1t * self.margin) + backlog / (
                peak_cluster * self.margin
            )
            if needed_s <= time_left:
                return name
        return ranked[-1][0]


@dataclass
class PinnedScheduler(Scheduler):
    """Sends every unit to one named cluster (for tests and ablations)."""

    cluster_name: str

    def assign(
        self, unit: WorkUnit, chip: Chip, backlog_work: dict[str, float], now_s: float
    ) -> str:
        if self.cluster_name not in chip.cluster_names:
            raise ConfigurationError(
                f"pinned cluster {self.cluster_name!r} not on chip "
                f"{chip.name!r} (has {chip.cluster_names})"
            )
        return self.cluster_name
