"""The vectorised multi-rollout backend.

:class:`BatchEngine` runs many (scenario, seed, governor) rollouts in
one process.  Rollouts whose governor is table-free (see
:mod:`repro.batch.plans`) take the *fast path*: the per-interval loop
keeps only the sequential interval core of :mod:`repro.sim.interval` —
arrival, scheduling, EDF draining and abandonment, whose state feeds
forward interval to interval — while everything the serial engine
recomputes per interval around that core is hoisted out:

* governor dispatch and decision clamping collapse to one precomputed
  OPP index per cluster,
* observation construction is skipped entirely — nothing reads it,
* per-core utilisation, power, and energy integration move *after* the
  loop, vectorised over the interval axis from a recorded per-interval
  core-cursor matrix (:func:`repro.sim.interval.core_power`).

The contract is **bit identity** with :class:`repro.sim.engine.Simulator`
(version :data:`repro.sim.engine.ENGINE_VERSION`).  The interval core is
the serial engine's own code; around it, cores and clusters accumulate
as a *sequence of elementwise adds* (the serial left-associated ``+=``
order) and energy integrates interval products in a plain Python loop —
``np.sum`` uses pairwise summation, which rounds differently.

``rl-policy`` jobs get their own fast path: training is sequential
*within* a rollout but independent *across* rollouts, so groups of RL
jobs sharing a chip preset, state geometry, and episode plan (see
:func:`repro.batch.plans.rl_group_key`) train lock-step through
:func:`repro.batch.rl.train_policy_batch` — one NumPy op per interval
across all rollouts — and then evaluate greedily through
:func:`repro.batch.rl.evaluate_policies_batch`, under the same
bit-identity contract.  A group needs at least two members: lock-step
overhead only pays for itself across lanes.

Rollouts neither fast path can express — reactive governors, singleton
RL jobs, full-system substrates, metric/trace collection, or any run
under an active observability session (which must see real engine
spans) — fall back to the reference simulator, so ``run_batch`` accepts
arbitrary job lists and is *always* exact.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.batch.plans import (
    fixed_opp_index,
    is_rl_vectorisable,
    is_vectorisable,
    rl_group_key,
)
from repro.errors import SimulationError
from repro.fleet.spec import JobSpec
from repro.obs import OBS
from repro.power.model import PowerModel
from repro.qos.metrics import evaluate_jobs
from repro.sim.interval import (
    GRACE_FACTOR,
    Lane,
    column_sum,
    core_power,
    drain,
    n_intervals,
)
from repro.sim.result import SimulationResult
from repro.sim.scheduler import HMPScheduler
from repro.soc.chip import Chip
from repro.soc.opp import OperatingPoint
from repro.workload.scenarios import get_scenario
from repro.workload.trace import Trace


def run_fixed_opp(
    spec: JobSpec,
    chip: Chip,
    trace: Trace,
    power_model: PowerModel | None = None,
) -> SimulationResult:
    """One table-free rollout, bit-identical to the serial engine.

    Args:
        spec: The job; its governor must be table-free
            (:func:`repro.batch.plans.is_vectorisable`).
        chip: A freshly built chip (never mutated here — only its static
            specs are read).
        trace: The evaluation trace.
        power_model: Defaults to the engine default :class:`PowerModel`.

    Raises:
        SimulationError: If the spec's governor has no fixed-OPP plan.
    """
    model = power_model or PowerModel()
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
    for step in range(n_steps):
        t0 = step * dt
        lane.admit(step, t0, scheduler, chip)
        for queue, n_cores, rate, log in clusters:
            if queue:
                log[step] = drain(queue, n_cores, rate, t0, dt, lane.cutoff)[0]
    qos = evaluate_jobs(lane.all_jobs(), grace_factor=GRACE_FACTOR)

    # Power, vectorised over the interval axis; clusters accumulate in
    # chip order, as the serial engine's chip-power sum does.
    chip_dyn = np.zeros(n_steps)
    chip_leak = np.zeros(n_steps)
    for cluster, opp, log in zip(chip, opps, cursor_logs):
        core = cluster.spec.core
        _, _, dyn, leak = core_power(
            log, opp.freq_hz, opp.voltage_v, core.ceff_f, core.leak_a_per_v,
            model.dynamic.idle_activity, dt,
        )
        chip_dyn = chip_dyn + column_sum(dyn)
        chip_leak = chip_leak + column_sum(leak)

    # Energy integration: the meter adds one interval product at a time,
    # so accumulate sequentially (np.sum's pairwise order differs).
    dynamic_j = 0.0
    for x in (chip_dyn * dt).tolist():
        dynamic_j += x
    leakage_j = 0.0
    for x in (chip_leak * dt).tolist():
        leakage_j += x
    uncore_j = 0.0
    uncore_step = model.uncore_w * dt
    for _ in range(n_steps):
        uncore_j += uncore_step
    total_j = dynamic_j + leakage_j + uncore_j

    return SimulationResult(
        governor=spec.governor,
        trace_name=trace.name,
        duration_s=n_steps * dt,
        total_energy_j=total_j,
        dynamic_energy_j=dynamic_j,
        leakage_energy_j=leakage_j,
        uncore_energy_j=uncore_j,
        qos=qos,
        intervals=n_steps,
        opp_switches=opp_switches,
    )


class BatchEngine:
    """Runs a list of job specs in one process, fast path where possible.

    Args:
        specs: The rollouts to run.  Any mix of governors is accepted;
            per spec the engine picks the vectorised fast path
            (table-free governors) or the reference simulator.
        force_serial: Run everything through the reference simulator
            (the bit-identity oracle used by tests and benchmarks).
    """

    def __init__(
        self, specs: Sequence[JobSpec], force_serial: bool = False
    ) -> None:
        self.specs = list(specs)
        self.force_serial = force_serial

    def plan(self) -> list[bool]:
        """Per spec, whether a fast path will run it."""
        return self._plan()[0]

    def units(self, workers: int = 1) -> list[list[int]]:
        """Split the specs into units of work: single jobs and RL chunks.

        A *chunk* is two or more RL jobs that share
        :func:`~repro.batch.plans.rl_group_key` and that :meth:`plan`
        marks fast; it trains and evaluates lock-step in one call.
        Every other job is a unit of one, so an all-serial plan (forced,
        or under an observability session) yields only single jobs.
        Single-job units come first, in spec order, then the chunks: a
        chunk's members only finish when the whole chunk does, so
        running them last keeps every single job from waiting behind
        one.

        Args:
            workers: Processes that will run the units side by side.
                Each RL group is dealt into at most this many slices, as
                even as possible, so a pool keeps its RL jobs in
                parallel; a slice of one is a single job (a lone RL job
                trains serially, exactly like one lane).

        Returns:
            Lists of spec indices; every index appears in exactly one
            unit.
        """
        return self._units(self._plan()[1], workers)

    def _plan(self) -> tuple[list[bool], list[list[int]]]:
        """The per-spec fast-path flags and the lock-step RL groups."""
        # An active observability session must see real engine spans
        # and counters, which only the serial engine emits.
        if self.force_serial or OBS.enabled:
            return [False] * len(self.specs), []
        fast = [is_vectorisable(spec) for spec in self.specs]
        # Lock-step training only pays for itself across lanes; a
        # singleton RL job runs the (identical) serial trainer.
        groups = [g for g in _rl_groups(self.specs) if len(g) >= 2]
        for group in groups:
            for i in group:
                fast[i] = True
        return fast, groups

    def _units(
        self, groups: list[list[int]], workers: int
    ) -> list[list[int]]:
        chunks: list[list[int]] = []
        for group in groups:
            n, parts = len(group), min(workers, len(group))
            for k in range(parts):
                part = group[k * n // parts:(k + 1) * n // parts]
                if len(part) >= 2:
                    chunks.append(part)
        chunked = {i for chunk in chunks for i in chunk}
        singles = [[i] for i in range(len(self.specs)) if i not in chunked]
        return singles + chunks

    def run(self) -> list[SimulationResult]:
        """All rollouts, in spec order."""
        plan, groups = self._plan()
        results: list[SimulationResult | None] = [None] * len(self.specs)
        for unit in self._units(groups, workers=1):
            if len(unit) > 1:
                grouped = _run_rl_group([self.specs[i] for i in unit])
                for i, result in zip(unit, grouped):
                    results[i] = result
                continue
            [i] = unit
            spec = self.specs[i]
            if plan[i]:
                from repro.fleet.worker import _build_chip

                chip = _build_chip(spec)
                trace = get_scenario(spec.scenario).trace(
                    spec.duration_s, seed=spec.seed
                )
                results[i] = run_fixed_opp(spec, chip, trace)
            else:
                from repro.fleet.worker import simulate_spec

                results[i] = simulate_spec(spec)
        return results


def _rl_groups(specs: Sequence[JobSpec]) -> list[list[int]]:
    """Spec indices of lock-step-eligible RL jobs, grouped by
    :func:`~repro.batch.plans.rl_group_key`."""
    groups: dict[Hashable, list[int]] = {}
    for i, spec in enumerate(specs):
        if is_rl_vectorisable(spec):
            groups.setdefault(rl_group_key(spec), []).append(i)
    return list(groups.values())


def _run_rl_group(specs: Sequence[JobSpec]) -> list[SimulationResult]:
    """Train one RL group lock-step, then evaluate each lane greedily.

    Reproduces :func:`repro.fleet.worker.simulate_spec` per spec — fresh
    chip, per-job learning ledger, one power model shared between a
    job's training and its evaluation — with the training and evaluation
    loops batched across the group.
    """
    from repro.batch.rl import (
        RLTrainJob,
        evaluate_policies_batch,
        train_policy_batch,
    )
    from repro.fleet.worker import _build_chip, _job_learn_recorder

    jobs = [
        RLTrainJob(
            chip=_build_chip(spec),
            scenario=get_scenario(spec.scenario),
            episodes=spec.train_episodes,
            episode_duration_s=spec.train_episode_s or spec.duration_s,
            base_seed=spec.train_base_seed,
            config=spec.policy_config,
            interval_s=spec.interval_s,
            power_model=PowerModel(),
            recorder=_job_learn_recorder(spec),
        )
        for spec in specs
    ]
    train_policy_batch(jobs)
    traces = [
        get_scenario(spec.scenario).trace(spec.duration_s, seed=spec.seed)
        for spec in specs
    ]
    return evaluate_policies_batch(
        [job.chip for job in jobs],
        [job.policies for job in jobs],
        traces,
        interval_s=specs[0].interval_s,
        power_models=[job.power_model for job in jobs],
    )


def run_batch(
    specs: Sequence[JobSpec], force_serial: bool = False
) -> list[SimulationResult]:
    """Convenience wrapper: ``BatchEngine(specs).run()``."""
    return BatchEngine(specs, force_serial=force_serial).run()
