"""The sequential core of one simulated interval, shared by every engine.

Each DVFS interval, every engine performs the same per-rollout steps
whose state feeds forward from one interval to the next:

1. **admit** the units released before the interval's end and place
   each through the scheduler (:meth:`Lane.admit`),
2. **drain** each cluster's run queue EDF-first across its cores, then
   drop completed jobs and **abandon** jobs past their lateness cutoff
   (:func:`drain`),
3. read the **queue slack** of what is left (:func:`queue_slack`).

The serial :class:`repro.sim.engine.Simulator`, the fixed-OPP fast path
:func:`repro.batch.engine.run_fixed_opp` and the lock-step RL runner in
:mod:`repro.batch.rl` all call these functions, so their arithmetic is
one float-operation sequence by construction rather than by hand
synchronisation.  Each caller keeps only what differs: the serial
engine builds observations, thermals and per-core accounting around
the core; the batch paths price power along an array axis through
:func:`core_power`, the fixed-OPP path along the interval axis and the
lock-step runner along the lane axis.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.scheduler import Scheduler
from repro.soc.chip import Chip
from repro.soc.core import CoreSpec, CoreState, record_cores
from repro.workload.task import Job, WorkUnit
from repro.workload.trace import Trace

GRACE_FACTOR = 2.0
"""Default lateness window, as a multiple of a unit's nominal slack,
after which a pending unit is abandoned (and a late completion scores
zero QoS)."""

edf_key = attrgetter("unit.deadline_s", "unit.uid")
"""Earliest deadline first; the unique uid breaks ties deterministically."""


def n_intervals(duration_s: float, dt: float) -> int:
    """Intervals needed to cover ``duration_s`` (at least one)."""
    return max(1, math.ceil(duration_s / dt))


class Lane:
    """One rollout's arrival schedule, run queues and jobs.

    Args:
        trace: The workload trace (units sorted by release time).
        cluster_names: One run queue per name, in chip order.
        dt: Interval length in seconds.
        n_steps: Number of intervals the rollout runs.
        grace_factor: Abandon window (see :data:`GRACE_FACTOR`).
    """

    __slots__ = ("units", "arrive_until", "cutoff", "queues", "jobs",
                 "unit_idx")

    def __init__(self, trace: Trace, cluster_names: Sequence[str],
                 dt: float, n_steps: int,
                 grace_factor: float = GRACE_FACTOR) -> None:
        self.units: Sequence[WorkUnit] = trace.units
        # A unit arrives in the first interval whose end ``t1 = t0 + dt``
        # it precedes (``release_s < t1``); searchsorted(side="left") of
        # the sorted release times against those t1 floats is exactly
        # that strict-inequality cutoff per step.
        releases = np.array([u.release_s for u in self.units])
        edges = np.array([step * dt + dt for step in range(n_steps)])
        self.arrive_until: list[int] = np.searchsorted(
            releases, edges, side="left"
        ).tolist()
        self.cutoff = {
            u.uid: u.deadline_s + grace_factor * u.slack_s for u in self.units
        }
        self.queues: dict[str, list[Job]] = {n: [] for n in cluster_names}
        self.jobs: list[Job] = []
        self.unit_idx = 0

    def admit(self, step: int, t0: float, scheduler: Scheduler,
              chip: Chip) -> dict[str, float]:
        """Release interval ``step``'s arrivals and place them.

        The scheduler sees each cluster's current backlog, so a unit's
        placement accounts for the units placed before it.  Each queue
        is summed once per interval; after a placement only the queue
        that grew is summed again, and only if another unit follows.

        Returns:
            The work placed per cluster; clusters that received none
            are absent.

        Raises:
            SimulationError: If the scheduler names an unknown cluster.
        """
        queues = self.queues
        arrived: dict[str, float] = {}
        until = self.arrive_until[step]
        if self.unit_idx >= until:
            return arrived
        backlog = {
            name: sum(j.remaining for j in q) for name, q in queues.items()
        }
        while True:
            unit = self.units[self.unit_idx]
            target = scheduler.assign(unit, chip, backlog, t0)
            if target not in queues:
                raise SimulationError(
                    f"scheduler placed unit {unit.uid} on unknown cluster "
                    f"{target!r}"
                )
            job = Job(unit)
            queue = queues[target]
            queue.append(job)
            self.jobs.append(job)
            arrived[target] = arrived.get(target, 0.0) + unit.work
            self.unit_idx += 1
            if self.unit_idx >= until:
                return arrived
            backlog[target] = sum(j.remaining for j in queue)

    def release_steps(self) -> list[int]:
        """The steps whose :meth:`admit` releases at least one unit; at
        every other step it returns an empty mapping and changes
        nothing."""
        return np.flatnonzero(
            np.diff(self.arrive_until, prepend=0)
        ).tolist()

    def all_jobs(self) -> list[Job]:
        """Every job, plus the units the horizon never released.

        Unreleased units (e.g. a release landing exactly on the final
        interval edge) still count: they are work the trace promised,
        scored as dropped.
        """
        return self.jobs + [Job(u) for u in self.units[self.unit_idx:]]


def drain(
    queue: list[Job],
    n_cores: int,
    rate: float,
    t0: float,
    dt: float,
    cutoff: Mapping[int, float],
    start: float = 0.0,
) -> tuple[list[float], float, int, int]:
    """Serve one cluster's run queue EDF-first for one interval.

    Each job is offered capacity from its ``min_parallelism`` least-
    loaded cores (lowest index first on ties), and a completion time is
    interpolated inside the interval from the work actually consumed.
    Afterwards, in place, completed jobs leave the queue and jobs whose
    abandon ``cutoff`` (by uid) precedes the interval end are dropped.

    Args:
        queue: The cluster's pending jobs; sorted and filtered in place.
        n_cores: Cores in the cluster.
        rate: Work per second per core (capacity x frequency).
        t0: Interval start time.
        dt: Interval length.
        cutoff: Abandon time per unit uid (:attr:`Lane.cutoff`).
        start: Seconds of the interval every core has already lost; a
            DVFS transition stall pre-consumes them (the cluster clock
            is down).

    Returns:
        ``(cursors, completed_work, completions, misses)``: seconds of
        the interval each core consumed, the work consumed, the jobs
        completed, and the late completions plus abandoned jobs.
    """
    cursors = [start] * n_cores
    completed_work = 0.0
    completions = 0
    misses = 0
    if len(queue) > 1:
        queue.sort(key=edf_key)
    if rate > 0:
        for job in queue:
            rem = job.remaining
            par = job.unit.min_parallelism
            if par >= n_cores:
                par = n_cores
            if par == 1:
                # The min-cursor core, earliest index on ties (a stable
                # sort's first element).  ``share = w * (a / a)`` is
                # exactly ``w``, so the single-core case skips the split.
                i = 0
                low = cursors[0]
                for j in range(1, n_cores):
                    if cursors[j] < low:
                        i = j
                        low = cursors[j]
                a = (dt - low) * rate
                if a <= 0:
                    continue
                w = rem if rem <= a else a
                finish = low + w / rate
                cursors[i] = finish
            else:
                order = sorted(range(n_cores), key=cursors.__getitem__)[:par]
                avail = [(dt - cursors[i]) * rate for i in order]
                total_avail = sum(avail)
                if total_avail <= 0:
                    continue
                w = rem if rem <= total_avail else total_avail
                finish = 0.0
                for i, a in zip(order, avail):
                    share = w * (a / total_avail)
                    cursors[i] += share / rate
                    if share > 0:
                        finish = max(finish, cursors[i])
            job.remaining = rem - w
            completed_work += w
            if job.remaining <= 0:
                job.completed_at_s = t0 + finish
                completions += 1
                if job.completed_at_s > job.unit.deadline_s:
                    misses += 1
    t1 = t0 + dt
    kept = [j for j in queue if j.remaining > 0 and t1 <= cutoff[j.unit.uid]]
    # Every queued job had work left before the drain, so the jobs that
    # neither completed nor were kept are the abandoned ones.
    misses += len(queue) - completions - len(kept)
    queue[:] = kept
    return cursors, completed_work, completions, misses


def queue_slack(queue: Sequence[Job], now_s: float) -> float:
    """Normalised urgency of the pending queue, 1.0 (relaxed) to 0.0."""
    slack = 1.0
    for job in queue:
        nominal = job.unit.slack_s
        if nominal <= 0:
            return 0.0
        slack = min(slack, max(0.0, (job.unit.deadline_s - now_s) / nominal))
    return slack


def core_power(
    cursors: np.ndarray,
    freq: float | np.ndarray,
    available: float | np.ndarray,
    volt: float | np.ndarray,
    leak_base: float | np.ndarray,
    ceff: float | np.ndarray,
    idle_activity: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-core utilisation and power from drain cursors, elementwise.

    The array form of :meth:`repro.power.model.PowerModel.cluster_power`'s
    per-core terms (shallow idle, no temperature scaling) at one OPP per
    row.  ``cursors`` is ``(rows, cores)``; the other operands broadcast
    against it — scalars or ``(rows, 1)`` columns along the interval
    axis, full ``(rows, cores)`` arrays along the lane axis.  The caller
    precomputes the OPP's ``available = freq * dt`` and
    ``leak_base = leak_a * volt * volt``, the serial leakage model's own
    first products.  Every product keeps the scalar expression's
    left-associated order, so each element is bit-equal to it; the
    serial shallow-idle scale ``* 1.0`` is an exact no-op and is left
    out.

    Returns:
        ``(used_cycles, utilisation, power)``: the first two shaped like
        ``cursors``, ``power`` stacking dynamic (``power[0]``) and
        leakage (``power[1]``) watts in one ``(2, rows, cores)`` array;
        sum its cores with :func:`sequential_sum`.
    """
    used = np.minimum(cursors * freq, available)
    util = used / available
    idle = 1.0 - util
    power = np.empty((2,) + used.shape)
    power[0] = (util + idle * idle_activity) * ceff * volt * volt * freq
    power[1] = leak_base * (util + idle)
    return used, util, power


def sequential_sum(
    terms: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Sums along ``axis`` in the serial loops' order: ``0.0`` plus each
    term in index order.

    ``np.add.accumulate`` adds strictly left to right (``np.sum`` and
    ``np.add.reduce`` add pairwise and round differently); its last
    entry is the fold from the first term.  The closing ``+ 0.0`` is the
    serial ``0.0`` start: a fold from the first term differs from one
    from ``0.0`` only by the sign of an all-``-0.0`` sum, which it
    clears.  ``out``, if given, receives the result.
    """
    total = np.add.accumulate(terms, axis=axis)
    last = total[(slice(None),) * (axis % terms.ndim) + (-1,)]
    return np.add(last, 0.0, out=out)


def guard_cycles(
    cursors: np.ndarray,
    freqs: np.ndarray,
    cores: Sequence[CoreSpec],
    dt: float,
) -> None:
    """:func:`repro.soc.core.record_cores`'s over-capacity guard over a
    log of drained intervals.

    A core with cursor ``c`` in ``[0, dt]`` used ``c * f`` cycles in
    ``[0, f * dt]`` (rounding is monotone), so only intervals with a
    cursor outside ``[0, dt]`` can fail the guard.  Those few go through
    ``record_cores`` itself, which owns the float tolerance and raises
    the serial engine's error past it.

    Args:
        cursors: Seconds each core consumed, ``(steps, rows, cores)``.
        freqs: The frequency each row ran at, as anything that
            broadcasts to ``(steps, rows)``.
        cores: Per row, the core type of its cluster.
        dt: Interval length.

    Raises:
        ConfigurationError: If a core used negative cycles or more than
            its interval offered.
    """
    suspect = ((cursors < 0) | (cursors > dt)).any(axis=2)
    for step, row in np.argwhere(suspect).tolist():
        freq = float(np.broadcast_to(freqs, suspect.shape)[step, row])
        states = [CoreState(cores[row]) for _ in range(cursors.shape[2])]
        record_cores(states, (cursors[step, row] * freq).tolist(), freq, dt)
