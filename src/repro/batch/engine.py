"""The vectorised multi-rollout backend.

:class:`BatchEngine` runs many (scenario, seed, governor) rollouts in
one process.  Three fast paths keep only the sequential interval core
of :mod:`repro.sim.interval` — arrival, scheduling, EDF draining and
abandonment, whose state feeds forward interval to interval — and drop
or hoist what the serial engine recomputes around it:

* :func:`run_fixed_opp` runs one table-free governor job (see
  :mod:`repro.batch.plans`): its decisions collapse to one precomputed
  OPP index per cluster, and no observation is built.
* :func:`run_governor_pass` runs one job of a reactive governor of
  :data:`~repro.batch.plans.REACTIVE_GOVERNORS`: every cluster calls
  its real governor's ``decide`` on a four-field observation updated in
  place, and the drain cursors and OPP of each interval are logged.
* ``rl-policy`` jobs train through
  :func:`repro.batch.rl.train_policy_batch` and evaluate greedily
  through :func:`repro.batch.rl.evaluate_policies_batch`; jobs sharing
  a chip preset, state geometry and episode plan
  (:func:`~repro.batch.plans.rl_group_key`) train lock-step — one NumPy
  op per interval across all rollouts.

The first two take ``(spec, chip, trace)`` and price power once, after
the loop, vectorised along the interval axis from the logged cursors
(:func:`_price`, built on :func:`repro.sim.interval.core_power`); the
RL path prices along the lane axis every interval, because its rewards
read the energy, and integrates the energy at episode end.

The contract is **bit identity** with :class:`repro.sim.engine.Simulator`
(version :data:`repro.sim.engine.ENGINE_VERSION`).  The interval core is
the serial engine's own code; around it, cores, clusters and interval
energies add up through :func:`repro.sim.interval.sequential_sum`, an
``np.add.accumulate`` that keeps the serial left-associated ``+=``
order — ``np.sum`` uses pairwise summation, which rounds differently.

:meth:`BatchEngine.plan` decides which path runs each job, from that
job's spec alone, and :meth:`BatchEngine.units` which RL jobs share a
pass.  Rollouts no fast path can express — other governors,
checkpoints, full-system substrates, per-job trace files — run on the
reference simulator, so ``run_batch`` accepts arbitrary job lists and
is *always* exact.

Observed runs take the same paths: each publishes its run's ``sim.*``
counters and the ``engine.phase.*_s`` counters it has through
:func:`repro.sim.engine.publish_run`, as the serial engine does, so
the deterministic counters agree by construction.
"""

from __future__ import annotations

import time
from typing import Hashable, Sequence

import numpy as np

from repro.batch.plans import (
    REACTIVE_GOVERNORS,
    fixed_opp_index,
    is_reactive,
    is_rl_vectorisable,
    is_vectorisable,
    rl_group_key,
)
from repro.errors import GovernorError, SimulationError
from repro.fleet.spec import JobSpec
from repro.governors import create
from repro.governors.base import Governor
from repro.obs import OBS, ObsSession, use
from repro.power.model import PowerModel
from repro.qos.metrics import evaluate_jobs
from repro.sim.engine import publish_run
from repro.sim.interval import (
    GRACE_FACTOR,
    Lane,
    core_power,
    drain,
    guard_cycles,
    n_intervals,
    sequential_sum,
)
from repro.sim.result import SimulationResult
from repro.sim.scheduler import HMPScheduler
from repro.soc.chip import Chip
from repro.soc.cluster import Cluster
from repro.soc.opp import OperatingPoint
from repro.workload.scenarios import get_scenario
from repro.workload.task import Job
from repro.workload.trace import Trace


def _price(
    chip: Chip,
    cursor_logs: Sequence[np.ndarray],
    freqs: Sequence[float | np.ndarray],
    volts: Sequence[float | np.ndarray],
    model: PowerModel,
    dt: float,
) -> tuple[float, float, float]:
    """One rollout's ``(dynamic_j, leakage_j, uncore_j)`` from its logged
    intervals, bit-identical to the serial engine's meter.

    Each cluster is priced along the interval axis in one
    :func:`~repro.sim.interval.core_power` pass; every sum — cores per
    cluster, clusters in chip order per interval, interval energies per
    rollout — is a :func:`~repro.sim.interval.sequential_sum`, the
    serial engine's ``+=`` order.

    Args:
        chip: The rollout's chip; only its static specs are read.
        cursor_logs: Per cluster, in chip order, the seconds of each
            interval every core consumed, shaped ``(steps, cores)``.
        freqs: Per cluster, the frequency in effect: a scalar for one
            fixed OPP, else a ``(steps, 1)`` column.
        volts: The matching voltages.
        model: The power model.
        dt: Interval length.

    Raises:
        ConfigurationError: If a core used more cycles than its interval
            offered (:func:`repro.sim.interval.guard_cycles`).
    """
    n_steps = cursor_logs[0].shape[0]
    cluster_power = []
    for cluster, log, freq, volt in zip(chip, cursor_logs, freqs, volts):
        core = cluster.spec.core
        guard_cycles(log[:, None], freq, [core], dt)
        power = core_power(
            log, freq, freq * dt, volt, core.leak_a_per_v * volt * volt,
            core.ceff_f, model.dynamic.idle_activity,
        )[2]
        cluster_power.append(sequential_sum(power))
    # (2, steps): clusters added in chip order, as the serial chip sum.
    chip_power = sequential_sum(np.stack(cluster_power), axis=0)
    dynamic_j, leakage_j = sequential_sum(chip_power * dt).tolist()
    uncore_j = float(sequential_sum(np.full(n_steps, model.uncore_w * dt)))
    return dynamic_j, leakage_j, uncore_j


def _result(
    governor: str,
    trace: Trace,
    lane: Lane,
    n_steps: int,
    dt: float,
    energy: tuple[float, float, float],
    opp_switches: int,
) -> SimulationResult:
    """A finished lane as the serial engine reports it."""
    dynamic_j, leakage_j, uncore_j = energy
    return SimulationResult(
        governor=governor,
        trace_name=trace.name,
        duration_s=n_steps * dt,
        total_energy_j=dynamic_j + leakage_j + uncore_j,
        dynamic_energy_j=dynamic_j,
        leakage_energy_j=leakage_j,
        uncore_energy_j=uncore_j,
        qos=evaluate_jobs(lane.all_jobs(), grace_factor=GRACE_FACTOR),
        intervals=n_steps,
        opp_switches=opp_switches,
    )


def run_fixed_opp(spec: JobSpec, chip: Chip, trace: Trace) -> SimulationResult:
    """One table-free rollout, bit-identical to the serial engine.

    Args:
        spec: The job; its governor must be table-free
            (:func:`repro.batch.plans.is_vectorisable`).
        chip: A freshly built chip (never mutated here — only its static
            specs are read).
        trace: The evaluation trace.

    Raises:
        SimulationError: If the spec's governor has no fixed-OPP plan.
    """
    dt = spec.interval_s
    n_steps = n_intervals(trace.duration_s, dt)
    scheduler = HMPScheduler()

    opps: list[OperatingPoint] = []
    opp_switches = 0
    for cluster in chip:
        index = fixed_opp_index(spec.governor, cluster.spec.opp_table)
        if index is None:
            raise SimulationError(
                f"governor {spec.governor!r} has no fixed-OPP plan; "
                "use the serial engine"
            )
        # The serial engine counts one OPP switch when the first
        # interval's decision moves the cluster off its reset index (0).
        if index != 0:
            opp_switches += 1
        opps.append(cluster.spec.opp_table[index])
    # Seconds-of-interval consumed per (interval, core) for each cluster;
    # rows of intervals whose queue was empty stay zero.
    cursor_logs = [np.zeros((n_steps, cluster.n_cores)) for cluster in chip]

    lane = Lane(trace, chip.cluster_names, dt, n_steps)
    clusters = [
        (lane.queues[cluster.spec.name], cluster.n_cores,
         cluster.spec.core.capacity * opp.freq_hz, log)
        for cluster, opp, log in zip(chip, opps, cursor_logs)
    ]
    # Phase wall times, read only under an observability session.
    clock = OBS.enabled
    schedule_ns = drain_ns = 0
    if clock:
        ns = time.perf_counter_ns()
    for step in range(n_steps):
        t0 = step * dt
        lane.admit(step, t0, scheduler, chip)
        if clock:
            ns1 = time.perf_counter_ns()
            schedule_ns += ns1 - ns
        for queue, n_cores, rate, log in clusters:
            if queue:
                log[step] = drain(queue, n_cores, rate, t0, dt, lane.cutoff)[0]
        if clock:
            ns = time.perf_counter_ns()
            drain_ns += ns - ns1

    energy = _price(
        chip, cursor_logs, [opp.freq_hz for opp in opps],
        [opp.voltage_v for opp in opps], PowerModel(), dt,
    )
    result = _result(spec.governor, trace, lane, n_steps, dt, energy,
                     opp_switches)
    if clock:
        publish_run(result, {
            "schedule": schedule_ns, "drain": drain_ns,
            "power_thermal": time.perf_counter_ns() - ns,
        })
    return result


class _Observation:
    """The observation fields the reactive governors read.

    One per cluster, updated in place after each interval; the
    governors of :data:`~repro.batch.plans.REACTIVE_GOVERNORS` keep
    none of it.  ``opp_index`` and ``freq_hz`` double as the cluster's
    current OPP, as the serial engine's observation equals the
    cluster's OPP after its decision.
    """

    __slots__ = ("time_s", "opp_index", "freq_hz", "max_core_utilization")

    def __init__(self, freq_hz: float) -> None:
        # The all-quiet observation of the reset cluster (OPP 0).
        self.time_s = 0.0
        self.opp_index = 0
        self.freq_hz = freq_hz
        self.max_core_utilization = 0.0


class _GovernedCluster:
    """One cluster of :func:`run_governor_pass`: its governor, queue and
    interval log."""

    __slots__ = ("governor", "decide", "clamp", "obs", "queue", "n_cores",
                 "freqs", "volts", "rates", "available", "idle", "cursors",
                 "opps", "switches")

    def __init__(self, governor: Governor, cluster: Cluster,
                 queue: list[Job], dt: float) -> None:
        table = cluster.spec.opp_table
        capacity = cluster.spec.core.capacity
        self.governor = governor
        self.decide = governor.decide
        self.clamp = table.clamp_index
        self.queue = queue
        self.n_cores = cluster.n_cores
        # Per OPP index, the serial engine's drain rate and the cycles
        # Cluster.record_interval offers, as the same float operations.
        self.freqs = [opp.freq_hz for opp in table]
        self.volts = [opp.voltage_v for opp in table]
        self.rates = [capacity * f for f in self.freqs]
        self.available = [f * dt for f in self.freqs]
        self.obs = _Observation(self.freqs[0])
        self.idle = [0.0] * cluster.n_cores
        self.cursors: list[list[float]] = []
        self.opps: list[int] = []
        self.switches = 0


def run_governor_pass(
    spec: JobSpec, chip: Chip, trace: Trace
) -> SimulationResult:
    """One reactive-governor rollout, bit-identical to the serial engine.

    Each interval admits its arrivals; then every cluster calls its
    governor's ``decide`` on last interval's observation — with the
    serial engine's ``int()`` and ``clamp_index`` checks — and drains
    its queue at the chosen OPP.  The cursors and OPP are logged, and
    the observation is updated in place from the busiest core's cursor
    (utilisation is monotone in the cursor, so that core's utilisation
    is the maximum).  Power and energy are priced after the loop
    (:func:`_price`).

    Args:
        spec: The job; it must pass
            :func:`~repro.batch.plans.is_reactive`.
        chip: A freshly built chip (never mutated here — only its static
            specs are read).
        trace: The evaluation trace.

    Raises:
        SimulationError: For a spec the pass cannot express, or a
            governor object that is not exactly its listed type.
        GovernorError: If a governor returns a non-integer decision.
        ConfigurationError: If a core used more cycles than offered.
    """
    if not is_reactive(spec):
        raise SimulationError(
            f"job {spec.job_id} cannot run in the governor pass; "
            "use the serial engine"
        )
    dt = spec.interval_s
    n_steps = n_intervals(trace.duration_s, dt)
    scheduler = HMPScheduler()
    lane = Lane(trace, chip.cluster_names, dt, n_steps)
    clusters: list[_GovernedCluster] = []
    for cluster in chip:
        governor = create(spec.governor)
        if type(governor) is not REACTIVE_GOVERNORS[spec.governor]:
            raise SimulationError(
                f"governor {spec.governor!r} built a "
                f"{type(governor).__name__}; the governor pass runs "
                "only the listed types"
            )
        governor.reset(cluster)
        clusters.append(
            _GovernedCluster(governor, cluster,
                             lane.queues[cluster.spec.name], dt)
        )

    # Phase wall times, read only under an observability session.
    clock = OBS.enabled
    governor_ns = schedule_ns = drain_ns = 0
    if clock:
        ns = time.perf_counter_ns()
    for step in range(n_steps):
        t0 = step * dt
        t1 = t0 + dt
        # Each decision reads its own cluster's last observation only,
        # so deciding for every cluster before any drains, as the serial
        # engine does, leaves them unchanged.
        for c in clusters:
            obs = c.obs
            decision = c.decide(obs)
            try:
                decision = int(decision)
            except (TypeError, ValueError):
                raise GovernorError(
                    f"governor {c.governor.name!r} returned "
                    f"non-integer decision {decision!r}"
                ) from None
            decision = c.clamp(decision)
            if decision != obs.opp_index:
                c.switches += 1
                obs.opp_index = decision
                obs.freq_hz = c.freqs[decision]
            c.opps.append(decision)
        if clock:
            ns1 = time.perf_counter_ns()
            governor_ns += ns1 - ns
        lane.admit(step, t0, scheduler, chip)
        if clock:
            ns2 = time.perf_counter_ns()
            schedule_ns += ns2 - ns1
        for c in clusters:
            obs = c.obs
            queue = c.queue
            if queue:
                decision = obs.opp_index
                cursors = drain(queue, c.n_cores, c.rates[decision],
                                t0, dt, lane.cutoff)[0]
                available = c.available[decision]
                used = max(cursors) * obs.freq_hz
                obs.max_core_utilization = (
                    available if used > available else used
                ) / available
            else:
                cursors = c.idle
                obs.max_core_utilization = 0.0
            c.cursors.append(cursors)
            obs.time_s = t1
        if clock:
            ns = time.perf_counter_ns()
            drain_ns += ns - ns2

    energy = _price(
        chip, [np.array(c.cursors) for c in clusters],
        [np.array(c.freqs)[c.opps, None] for c in clusters],
        [np.array(c.volts)[c.opps, None] for c in clusters],
        PowerModel(), dt,
    )
    result = _result(spec.governor, trace, lane, n_steps, dt, energy,
                     sum(c.switches for c in clusters))
    if clock:
        publish_run(result, {
            "governor": governor_ns, "schedule": schedule_ns,
            "drain": drain_ns, "power_thermal": time.perf_counter_ns() - ns,
        })
    return result


class BatchEngine:
    """Runs a list of job specs in one process, fast path where possible.

    Args:
        specs: The rollouts to run.  Any mix of governors is accepted;
            per spec :meth:`plan` picks a fast path or the reference
            simulator.
    """

    def __init__(self, specs: Sequence[JobSpec]) -> None:
        self.specs = list(specs)

    def plan(self) -> list[bool]:
        """Per spec, whether a fast path will run it.

        The one planner: :meth:`run` and :meth:`units` both start
        here.  A function of each spec alone: neither the other specs
        nor an observability session change a spec's path, since every
        path publishes the same counters.
        """
        return [
            is_vectorisable(spec) or is_reactive(spec)
            or is_rl_vectorisable(spec)
            for spec in self.specs
        ]

    def units(self, workers: int = 1) -> list[list[int]]:
        """Split the specs into units of work: single jobs and chunks.

        A *chunk* is two or more ``rl-policy`` jobs that :meth:`plan`
        marks fast and that share one
        :func:`~repro.batch.plans.rl_group_key`, so they train
        lock-step.  Every other job is a unit of one.  Single-job units
        come first, in spec order, then the chunks: a chunk's members
        only finish when the whole chunk does, so the cheap units run
        before the dear ones.

        Args:
            workers: Processes that will run the units side by side.
                Each RL group is dealt into at most this many slices, as
                even as possible, so a pool keeps its lock-step jobs in
                parallel; a slice of one is a single job.

        Returns:
            Lists of spec indices; every index appears in exactly one
            unit.
        """
        return self._units(self.plan(), workers)

    def _units(self, plan: list[bool], workers: int) -> list[list[int]]:
        chunks: list[list[int]] = []
        for group in _rl_groups(self.specs, plan):
            n, parts = len(group), min(workers, len(group))
            for k in range(parts):
                part = group[k * n // parts:(k + 1) * n // parts]
                if len(part) >= 2:
                    chunks.append(part)
        chunked = {i for chunk in chunks for i in chunk}
        singles = [[i] for i in range(len(self.specs)) if i not in chunked]
        return singles + chunks

    def run(
        self, sessions: Sequence[ObsSession | None] | None = None
    ) -> list[SimulationResult]:
        """All rollouts, in spec order.

        Args:
            sessions: Per spec, the observability session that receives
                its metrics, lock-step lanes included (see
                :func:`_sessions`).
        """
        plan = self.plan()
        sessions = _sessions(sessions, len(self.specs))
        results: list[SimulationResult | None] = [None] * len(self.specs)
        for unit in self._units(plan, workers=1):
            specs = [self.specs[i] for i in unit]
            unit_sessions = [sessions[i] for i in unit]
            for i, result in zip(
                unit, _run_unit(specs, plan[unit[0]], unit_sessions)
            ):
                results[i] = result
        return results


def _sessions(
    sessions: Sequence[ObsSession | None] | None, n: int
) -> list[ObsSession | None]:
    """The sessions of ``n`` jobs (all ``None``, the active one, when no
    list is given); :class:`SimulationError` unless there are ``n``."""
    sessions = list(sessions or [None] * n)
    if len(sessions) != n:
        raise SimulationError(f"{len(sessions)} observability sessions for {n} jobs")
    return sessions


def _rl_groups(specs: Sequence[JobSpec], plan: list[bool]) -> list[list[int]]:
    """Indices of the ``rl-policy`` specs the plan sends to a fast path,
    grouped by :func:`~repro.batch.plans.rl_group_key` in order of first
    appearance."""
    groups: dict[Hashable, list[int]] = {}
    for i, (spec, fast) in enumerate(zip(specs, plan)):
        if fast and spec.is_rl:
            groups.setdefault(rl_group_key(spec), []).append(i)
    return list(groups.values())


def _run_unit(
    specs: list[JobSpec], fast: bool, sessions: list[ObsSession | None]
) -> list[SimulationResult]:
    """One unit of :meth:`BatchEngine.units` through the path its plan
    chose."""
    from repro.fleet.worker import _build_chip, simulate_spec

    spec = specs[0]
    if fast and spec.is_rl:
        return _run_rl_group(specs, sessions)
    with use(sessions[0]):
        if not fast:
            return [simulate_spec(spec)]
        chip = _build_chip(spec)
        trace = get_scenario(spec.scenario).trace(spec.duration_s, seed=spec.seed)
        run = run_governor_pass if is_reactive(spec) else run_fixed_opp
        return [run(spec, chip, trace)]


def _run_rl_group(
    specs: Sequence[JobSpec], sessions: Sequence[ObsSession | None]
) -> list[SimulationResult]:
    """Train RL jobs together, then evaluate each lane greedily.

    Reproduces :func:`repro.fleet.worker.simulate_spec` per spec — fresh
    chip, and the spec's training job
    (:func:`repro.fleet.worker._train_job`) whose power model its
    evaluation shares — with the training and evaluation loops run
    lock-step across the group, a group of one included.
    """
    from repro.batch.rl import evaluate_policies_batch, train_policy_batch
    from repro.fleet.worker import _build_chip, _train_job

    jobs = [_train_job(spec, _build_chip(spec), PowerModel()) for spec in specs]
    trained = train_policy_batch(jobs, sessions)
    traces = [
        get_scenario(spec.scenario).trace(spec.duration_s, seed=spec.seed)
        for spec in specs
    ]
    return evaluate_policies_batch(
        [job.chip for job in jobs],
        [result.policies for result in trained],
        traces,
        interval_s=specs[0].interval_s,
        power_models=[job.power_model for job in jobs],
        sessions=sessions,
    )


def run_batch(
    specs: Sequence[JobSpec],
    sessions: Sequence[ObsSession | None] | None = None,
) -> list[SimulationResult]:
    """Convenience wrapper: ``BatchEngine(specs).run(sessions)``."""
    return BatchEngine(specs).run(sessions)
