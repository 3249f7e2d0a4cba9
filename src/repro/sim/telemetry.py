"""Per-interval observations handed to governors and the RL policy.

The observation is the *only* channel through which any policy sees the
system, mirroring how a cpufreq governor sees load statistics: no policy
gets to peek at the trace or the future.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ClusterObservation:
    """What one DVFS domain looked like over the last interval.

    Attributes:
        cluster: Cluster name.
        time_s: Simulation time at the *end* of the observed interval.
        interval_s: Interval length in seconds.
        opp_index: OPP in effect during the interval.
        n_opps: Size of the cluster's OPP table.
        freq_hz: Frequency in effect during the interval.
        max_freq_hz: Top frequency of the cluster's OPP table.
        utilization: Mean per-core utilisation in [0, 1].
        max_core_utilization: Busiest core's utilisation — the statistic
            kernel governors react to.
        queue_work: Work (reference cycles) still pending at interval end.
        queue_jobs: Number of pending jobs at interval end.
        arrived_work: Work released during the interval.
        completed_work: Work drained during the interval.
        deadline_misses: Jobs that completed late, or were abandoned,
            during the interval.
        completions: Jobs that completed during the interval.
        qos_slack: Normalised urgency of the pending queue in [0, 1]:
            1.0 = empty queue or ample time, 0.0 = a pending job is at or
            past its deadline.
        energy_j: Energy the cluster consumed over the interval.
        temp_c: Cluster thermal-node temperature, if a thermal model runs.
    """

    cluster: str
    time_s: float
    interval_s: float
    opp_index: int
    n_opps: int
    freq_hz: float
    max_freq_hz: float
    utilization: float
    max_core_utilization: float
    queue_work: float
    queue_jobs: int
    arrived_work: float
    completed_work: float
    deadline_misses: int
    completions: int
    qos_slack: float
    energy_j: float
    temp_c: float | None = None

    @property
    def absolute_load(self) -> float:
        """Busiest-core utilisation rescaled to the top OPP.

        This is schedutil's utilisation signal: 0.5 means the busiest core
        would be 50 % loaded *if* the cluster ran at maximum frequency.
        Saturated intervals (utilisation 1.0 at a low OPP) still read below
        1.0, which is exactly the blind spot reactive governors have.
        """
        return self.max_core_utilization * (self.freq_hz / self.max_freq_hz)


def initial_fields(
    cluster: str,
    opp_index: int,
    n_opps: int,
    freq_hz: float,
    max_freq_hz: float,
    interval_s: float,
) -> dict[str, Any]:
    """The fields of :func:`initial_observation` as a plain dict, in
    declaration order (the serve protocol merges client fields into it).
    """
    return {
        "cluster": cluster,
        "time_s": 0.0,
        "interval_s": interval_s,
        "opp_index": opp_index,
        "n_opps": n_opps,
        "freq_hz": freq_hz,
        "max_freq_hz": max_freq_hz,
        "utilization": 0.0,
        "max_core_utilization": 0.0,
        "queue_work": 0.0,
        "queue_jobs": 0,
        "arrived_work": 0.0,
        "completed_work": 0.0,
        "deadline_misses": 0,
        "completions": 0,
        "qos_slack": 1.0,
        "energy_j": 0.0,
        "temp_c": None,
    }


def initial_observation(
    cluster: str,
    opp_index: int,
    n_opps: int,
    freq_hz: float,
    max_freq_hz: float,
    interval_s: float,
) -> ClusterObservation:
    """The all-quiet observation used before the first interval completes."""
    return ClusterObservation(
        **initial_fields(
            cluster, opp_index, n_opps, freq_hz, max_freq_hz, interval_s
        )
    )
