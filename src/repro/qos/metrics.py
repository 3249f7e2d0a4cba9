"""Quality-of-service metrics.

QoS follows the definition the authors' group uses: a work unit that
meets its user-visible deadline delivers full quality; lateness degrades
quality smoothly (a slightly late frame is jank, a very late frame is a
drop).  Scenario QoS is the mean per-unit QoS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.workload.task import Job


def soft_qos(lateness_s: float, grace_s: float) -> float:
    """Per-unit QoS as a function of deadline lateness.

    On-time (lateness <= 0) units score 1.0.  Late units degrade linearly
    to 0.0 over the grace window; beyond it the unit counts as dropped.

    Args:
        lateness_s: Completion time minus deadline (negative = early).
        grace_s: Width of the linear degradation window, > 0.

    Returns:
        QoS in [0, 1].
    """
    if grace_s <= 0:
        raise ConfigurationError(f"grace window must be positive: {grace_s}")
    if lateness_s <= 0:
        return 1.0
    return max(0.0, 1.0 - lateness_s / grace_s)


@dataclass(frozen=True)
class QoSReport:
    """Aggregated QoS over a set of completed (or abandoned) jobs.

    Attributes:
        n_units: Total number of work units considered.
        n_completed: Units that finished (possibly late).
        n_on_time: Units that met their deadline exactly.
        n_dropped: Units that never completed or scored 0 QoS.
        mean_qos: Mean per-unit QoS in [0, 1]; unfinished units score 0.
        deadline_miss_rate: Fraction of units completing after deadline
            (or never).
        mean_lateness_s: Mean positive lateness over late completed units
            (0.0 if none were late).
    """

    n_units: int
    n_completed: int
    n_on_time: int
    n_dropped: int
    mean_qos: float
    deadline_miss_rate: float
    mean_lateness_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_qos <= 1.0:
            raise ConfigurationError(f"mean QoS out of range: {self.mean_qos}")


def evaluate_jobs(
    jobs: Iterable[Job],
    grace_factor: float = 2.0,
    weight_of: Callable[[str], float] | None = None,
) -> QoSReport:
    """Score a collection of jobs.

    Args:
        jobs: Jobs after the simulation ended.  Unfinished jobs count as
            dropped with QoS 0.
        grace_factor: Grace window as a multiple of each unit's own slack
            (deadline minus release), so fast-paced units are judged on a
            proportionally tighter scale.
        weight_of: Weight of a unit kind in ``mean_qos``; every unit
            weighs 1 when omitted.  The count fields stay unweighted.

    Returns:
        A :class:`QoSReport`.
    """
    if grace_factor <= 0:
        raise ConfigurationError(f"grace factor must be positive: {grace_factor}")
    n_units = 0
    n_completed = 0
    n_on_time = 0
    n_dropped = 0
    qos_sum = 0.0
    weight_total = 0.0
    lateness_sum = 0.0
    n_late = 0
    for job in jobs:
        weight = 1.0 if weight_of is None else weight_of(job.unit.kind)
        n_units += 1
        weight_total += weight
        if not job.done:
            n_dropped += 1
            continue
        n_completed += 1
        lateness = job.lateness_s()
        grace = grace_factor * job.unit.slack_s
        q = soft_qos(lateness, grace)
        qos_sum += weight * q
        if lateness <= 0:
            n_on_time += 1
        else:
            n_late += 1
            lateness_sum += lateness
            if q == 0.0:
                n_dropped += 1
    if n_units == 0:
        return QoSReport(0, 0, 0, 0, 1.0, 0.0, 0.0)
    return QoSReport(
        n_units=n_units,
        n_completed=n_completed,
        n_on_time=n_on_time,
        n_dropped=n_dropped,
        mean_qos=qos_sum / weight_total,
        deadline_miss_rate=1.0 - n_on_time / n_units,
        mean_lateness_s=lateness_sum / n_late if n_late else 0.0,
    )
