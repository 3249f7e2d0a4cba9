"""The interval-driven MPSoC simulator.

The engine advances in fixed DVFS-sampling intervals (default 10 ms,
matching cpufreq).  Each interval it:

1. lets each cluster's governor pick an OPP from the *previous*
   interval's observation (governors are causal),
2. applies thermal throttling on top of the governor decision,
3. releases newly arrived work units and places them via the scheduler,
4. drains each cluster's run queue EDF-first across its cores,
5. integrates power into energy and steps the thermal model,
6. publishes fresh per-cluster observations.

Work units that blow far past their deadline are abandoned (the frame is
dropped), like a real compositor would, so a starved system pays in QoS
rather than queueing unboundedly.  Steps 3 and 4 and the abandonment are
the shared interval core of :mod:`repro.sim.interval`.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

from repro.errors import GovernorError, SimulationError
from repro.governors.base import Governor
from repro.obs import OBS
from repro.obs.context import trace_args
from repro.idle.governor import MenuIdleGovernor
from repro.mem.dram import DRAMModel
from repro.power.energy import EnergyMeter
from repro.power.model import PowerBreakdown, PowerModel
from repro.qos.metrics import evaluate_jobs
from repro.sim.interval import (
    GRACE_FACTOR,
    Lane,
    drain,
    n_intervals,
    queue_slack,
)
from repro.sim.result import IntervalSample, SimulationResult
from repro.sim.scheduler import HMPScheduler, Scheduler
from repro.sim.telemetry import ClusterObservation, initial_observation
from repro.soc.chip import Chip
from repro.soc.cluster import Cluster
from repro.soc.transition import DVFSTransitionModel
from repro.thermal.rc import ThermalModel
from repro.thermal.throttle import ThermalThrottle
from repro.workload.trace import Trace

GovernorFactory = Callable[[Cluster], Governor]

ENGINE_VERSION = "5.0"
"""Version of the simulated-numbers contract.

Bump whenever a change alters the numbers any (chip, trace, governor)
run produces — power-model arithmetic, drain order, scheduler
behaviour, QoS scoring.  The run cache (:mod:`repro.cache`) folds this
into every cache key, so stale results self-invalidate on upgrade.  The
batch backend (:mod:`repro.batch`) shares this engine's interval core
(:mod:`repro.sim.interval`) and reproduces the rest of this version's
float-operation sequence; ``tests/test_engine_golden.py`` pins the
numbers per version."""

DECISION_LATENCY_BUCKETS = (
    1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
)
"""Bucket bounds (seconds) for the per-decision governor latency
histogram — log-ish spacing from 100 ns to 10 ms, bracketing both a
table lookup and a full RL forward pass."""


PHASES = ("governor", "schedule", "drain", "power_thermal", "observe")
"""The engine's timed phases, each published as an
``engine.phase.<name>_s`` counter."""


def publish_run(result: SimulationResult, phase_ns: Mapping[str, float]) -> None:
    """Add one finished run to the active registry, if any.

    The one place the ``sim.*`` counters are published, for the serial
    engine, the batch fast paths and every lock-step lane alike, so
    their deterministic counters agree by construction: each is a field
    of ``result`` (``sim.jobs`` is the QoS report's unit count, one per
    trace unit).  ``phase_ns`` holds wall nanoseconds per timed phase
    of :data:`PHASES`; a path passes only the phases it has.
    """
    if OBS.enabled:
        m = OBS.metrics
        m.counter("sim.runs").inc()
        m.counter("sim.intervals").inc(result.intervals)
        m.counter("sim.opp_switches").inc(result.opp_switches)
        m.counter("sim.jobs").inc(result.qos.n_units)
        m.counter("sim.energy_j").inc(result.total_energy_j)
        m.counter("sim.simulated_s").inc(result.duration_s)
        m.gauge("sim.last_mean_qos").set(result.qos.mean_qos)
        m.gauge("sim.last_deadline_miss_rate").set(result.qos.deadline_miss_rate)
        for phase, ns in phase_ns.items():
            m.counter(f"engine.phase.{phase}_s").inc(ns / 1e9)


class Simulator:
    """Runs one workload trace under one power-management policy.

    Args:
        chip: The MPSoC to simulate.  Its runtime state is reset at
            :meth:`run`.
        trace: The workload trace to execute.
        governors: Either a mapping of cluster name to a (stateful)
            :class:`~repro.governors.base.Governor`, or a factory called
            once per cluster to build one.
        power_model: Chip power model; a default is built when omitted.
        scheduler: Unit placement policy; defaults to
            :class:`~repro.sim.scheduler.HMPScheduler`.
        interval_s: DVFS sampling interval in seconds.
        thermal: Optional thermal model with one node per cluster.
        throttle: Optional thermal throttle (requires ``thermal``).
        grace_factor: Lateness window, as a multiple of each unit's
            nominal slack, after which a pending unit is abandoned and a
            late completion scores zero QoS.  Shared with QoS scoring.
        record_samples: Keep a per-interval chip time series in the result.
        record_observations: Keep the full observation log per cluster.
        idle_governor: Optional cpuidle model; idle cores' power is
            discounted by their selected C-state.
        transition: Optional DVFS transition-cost model (stall + energy
            per OPP switch).
        memory: Optional DRAM power model fed by executed work.
        qos_classes: Optional service-class map; when given, the result's
            QoS report is class-weighted
            (:func:`repro.qos.classes.evaluate_jobs_weighted`).
    """

    def __init__(
        self,
        chip: Chip,
        trace: Trace,
        governors: Mapping[str, Governor] | GovernorFactory,
        power_model: PowerModel | None = None,
        scheduler: Scheduler | None = None,
        interval_s: float = 0.01,
        thermal: ThermalModel | None = None,
        throttle: ThermalThrottle | None = None,
        grace_factor: float = GRACE_FACTOR,
        record_samples: bool = False,
        record_observations: bool = False,
        idle_governor: MenuIdleGovernor | None = None,
        transition: DVFSTransitionModel | None = None,
        memory: DRAMModel | None = None,
        qos_classes: "QoSClassMap | None" = None,
    ):
        if interval_s <= 0:
            raise SimulationError(f"interval must be positive: {interval_s}")
        if grace_factor <= 0:
            raise SimulationError(f"grace factor must be positive: {grace_factor}")
        if throttle is not None and thermal is None:
            raise SimulationError("throttling requires a thermal model")
        if transition is not None and transition.latency_s >= interval_s:
            raise SimulationError(
                f"transition latency {transition.latency_s} s must be shorter "
                f"than the interval {interval_s} s"
            )
        self.chip = chip
        self.trace = trace
        self.power_model = power_model or PowerModel()
        self.scheduler = scheduler or HMPScheduler()
        self.interval_s = interval_s
        self.thermal = thermal
        self.throttle = throttle
        self.grace_factor = grace_factor
        self.record_samples = record_samples
        self.record_observations = record_observations
        self.idle_governor = idle_governor
        self.transition = transition
        self.memory = memory
        self.qos_classes = qos_classes

        if callable(governors):
            self.governors: dict[str, Governor] = {
                c.spec.name: governors(c) for c in chip
            }
        else:
            missing = set(chip.cluster_names) - set(governors)
            if missing:
                raise SimulationError(f"no governor for clusters: {sorted(missing)}")
            self.governors = {name: governors[name] for name in chip.cluster_names}

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Simulate the whole trace and return the aggregated result.

        The chip, thermal model, throttle and governors are all reset
        first, so repeated calls are independent runs (governors that
        learn, like the RL policy, may carry knowledge via their own
        ``reset`` semantics).
        """
        chip = self.chip
        dt = self.interval_s
        chip.reset()
        thermal = self.thermal
        throttle = self.throttle
        idle_governor = self.idle_governor
        transition = self.transition
        memory = self.memory
        if thermal is not None:
            thermal.reset()
        if throttle is not None:
            throttle.reset()
        if idle_governor is not None:
            idle_governor.reset()
        if memory is not None:
            memory.reset()
        for cluster in chip:
            self.governors[cluster.spec.name].reset(cluster)

        # Per-cluster state lives in lists in chip order.
        clusters = list(chip)
        names = [c.spec.name for c in clusters]
        governors = [self.governors[name] for name in names]
        tables = [c.spec.opp_table for c in clusters]
        n_opps = [len(table) for table in tables]
        max_freqs = [table.max_freq_hz for table in tables]
        capacities = [c.spec.core.capacity for c in clusters]
        core_ids = [
            [f"{name}/{i}" for i in range(c.n_cores)]
            for name, c in zip(names, clusters)
        ]
        indices = range(len(clusters))
        obs = [
            initial_observation(
                name, c.opp_index, n, c.freq_hz, max_freq, dt
            )
            for name, c, n, max_freq in zip(names, clusters, n_opps, max_freqs)
        ]
        meter = EnergyMeter()
        samples: list[IntervalSample] = []
        obs_log: dict[str, list[ClusterObservation]] = {
            name: [] for name in names
        }
        record_observations = self.record_observations
        cluster_power_w = self.power_model.cluster_power_w
        uncore_w = self.power_model.uncore_w
        opp_switches = 0
        n_steps = n_intervals(self.trace.duration_s, dt)
        lane = Lane(self.trace, names, dt, n_steps,
                    grace_factor=self.grace_factor)
        queues = [lane.queues[name] for name in names]
        cutoff = lane.cutoff

        # Observability probes: `clock` is False and `tracer` is None
        # unless a session is active, so the disabled path costs one
        # local truthiness check per probe and the simulated numbers are
        # untouched either way.  While enabled, the five phases' wall
        # times add up in local ints and reach the registry once, at
        # run end, as the `engine.phase.*_s` counters.
        clock = OBS.enabled
        tracer = OBS.tracer if clock else None
        decision_hist = (
            OBS.metrics.histogram(
                "sim.decision_latency_s", DECISION_LATENCY_BUCKETS
            )
            if OBS.enabled
            else None
        )
        run_span = (
            tracer.begin(
                "engine.run", cat="engine",
                trace=self.trace.name, intervals=n_steps,
                **trace_args(),
            )
            if tracer
            else None
        )
        governor_ns = schedule_ns = drain_ns = power_ns = observe_ns = 0

        for step in range(n_steps):
            t0 = step * dt
            t1 = t0 + dt
            if clock:
                ns0 = time.perf_counter_ns()

            # 1. Governor decisions from last interval's observation.
            stall_s = [0.0] * len(clusters)
            transition_energy = [0.0] * len(clusters)
            for i in indices:
                cluster = clusters[i]
                governor = governors[i]
                if decision_hist is not None:
                    decide_t0 = time.perf_counter()
                decision = governor.decide_traced(obs[i], tracer)
                if decision_hist is not None:
                    decision_hist.observe(time.perf_counter() - decide_t0)
                try:
                    decision = int(decision)
                except (TypeError, ValueError):
                    raise GovernorError(
                        f"governor {governor.name!r} returned "
                        f"non-integer decision {decision!r}"
                    ) from None
                decision = tables[i].clamp_index(decision)
                if decision != cluster.opp_index:
                    opp_switches += 1
                    if transition is not None:
                        stall_s[i] = transition.latency_s
                        transition_energy[i] = transition.energy_j(
                            cluster.voltage_v, tables[i][decision].voltage_v,
                        )
                    cluster.set_opp_index(decision)

            # 2. Thermal throttling caps the governor's choice.
            if throttle is not None and thermal is not None:
                for i in indices:
                    cluster = clusters[i]
                    before = cluster.opp_index
                    throttle.apply(cluster, thermal)
                    if cluster.opp_index != before:
                        opp_switches += 1
                        if transition is not None:
                            stall_s[i] = transition.latency_s
                            transition_energy[i] += transition.energy_j(
                                tables[i][before].voltage_v,
                                cluster.voltage_v,
                            )
            if clock:
                ns1 = time.perf_counter_ns()
                governor_ns += ns1 - ns0

            # 3. Release arrivals and place them.
            arrived = lane.admit(step, t0, self.scheduler, chip)
            if clock:
                ns2 = time.perf_counter_ns()
                schedule_ns += ns2 - ns1

            # 4+5. Drain run queues (a transitioning cluster stalls
            # first) and abandon hopelessly late jobs (dropped frames).
            drained: list[tuple[float, int, int]] = []
            for i in indices:
                cluster = clusters[i]
                cursors, completed, completions, misses = drain(
                    queues[i], cluster.n_cores,
                    capacities[i] * cluster.freq_hz, t0, dt, cutoff,
                    start=min(stall_s[i], dt),
                )
                drained.append((completed, completions, misses))
                cluster.record_interval(cursors, dt)
            if clock:
                ns3 = time.perf_counter_ns()
                drain_ns += ns3 - ns2

            # 6. Power, energy, thermals (C-state selection feeds the
            # per-core idle-power discount).  The chip sum adds clusters
            # in chip order onto the uncore floor.
            temps = (
                [thermal.temperature_c(name) for name in names]
                if thermal is not None else None
            )
            cluster_energy: list[float] = []
            dynamic_w = 0.0
            leakage_w = 0.0
            for i in indices:
                cluster = clusters[i]
                scales = None
                if idle_governor is not None:
                    scales = []
                    for core, core_id in zip(cluster.cores, core_ids[i]):
                        idle_s = (1.0 - core.utilization) * dt
                        idle_governor.observe(core_id, idle_s, dt)
                        scales.append(idle_governor.power_fraction(core_id))
                dyn, leak = cluster_power_w(
                    cluster, temps[i] if temps is not None else None, scales
                )
                dynamic_w += dyn
                leakage_w += leak
                # The cluster's PowerBreakdown.total_w: no uncore term.
                cluster_energy.append((dyn + leak) * dt + transition_energy[i])
            if transition is not None:
                dynamic_w += sum(transition_energy) / dt
            chip_uncore_w = uncore_w
            if memory is not None:
                total_completed = sum(d[0] for d in drained)
                chip_uncore_w += memory.interval_power_w(total_completed, dt)
            chip_power = PowerBreakdown(dynamic_w, leakage_w, chip_uncore_w)
            meter.record(chip_power, dt)
            if thermal is not None:
                thermal.step(
                    {name: e / dt for name, e in zip(names, cluster_energy)},
                    dt,
                )
            if clock:
                ns4 = time.perf_counter_ns()
                power_ns += ns4 - ns3

            # 7. Publish observations.
            for i in indices:
                cluster = clusters[i]
                name = names[i]
                completed_work, completions, misses = drained[i]
                queue = queues[i]
                obs[i] = ClusterObservation(
                    cluster=name,
                    time_s=t1,
                    interval_s=dt,
                    opp_index=cluster.opp_index,
                    n_opps=n_opps[i],
                    freq_hz=cluster.freq_hz,
                    max_freq_hz=max_freqs[i],
                    utilization=cluster.utilization,
                    max_core_utilization=cluster.max_core_utilization,
                    queue_work=sum(j.remaining for j in queue),
                    queue_jobs=len(queue),
                    arrived_work=arrived.get(name, 0.0),
                    completed_work=completed_work,
                    deadline_misses=misses,
                    completions=completions,
                    qos_slack=queue_slack(queue, t1),
                    energy_j=cluster_energy[i],
                    temp_c=temps[i] if temps is not None else None,
                )
                if record_observations:
                    obs_log[name].append(obs[i])

            if self.record_samples:
                samples.append(
                    IntervalSample(
                        time_s=t1,
                        power_w=chip_power.total_w,
                        opp_indices={
                            name: c.opp_index for name, c in zip(names, clusters)
                        },
                        utilizations={
                            name: c.utilization
                            for name, c in zip(names, clusters)
                        },
                        queue_jobs=sum(len(q) for q in queues),
                    )
                )
            if clock:
                observe_ns += time.perf_counter_ns() - ns4

        classes = self.qos_classes
        qos = evaluate_jobs(
            lane.all_jobs(), grace_factor=self.grace_factor,
            weight_of=classes.weight_of if classes is not None else None,
        )
        governor_name = "+".join(
            sorted({g.name for g in self.governors.values()})
        )
        if tracer:
            tracer.end(run_span)
        result = SimulationResult(
            governor=governor_name,
            trace_name=self.trace.name,
            duration_s=n_steps * dt,
            total_energy_j=meter.total_j,
            dynamic_energy_j=meter.dynamic_j,
            leakage_energy_j=meter.leakage_j,
            uncore_energy_j=meter.uncore_j,
            qos=qos,
            intervals=n_steps,
            opp_switches=opp_switches,
            samples=samples,
            observations=obs_log if self.record_observations else {},
        )
        if clock:
            publish_run(result, dict(zip(PHASES, (
                governor_ns, schedule_ns, drain_ns, power_ns, observe_ns,
            ))))
        return result
