"""Per-job execution in (or out of) a worker process.

:func:`execute_job` recomputes one :class:`~repro.fleet.spec.JobSpec`
from scratch — fresh chip, fresh power model, trace regenerated from the
spec's seed — so a job's result depends only on its spec, never on which
process ran it or what ran before.  That is what makes parallel fleet
rows bit-identical to in-process (``jobs=1``) ones.

:func:`run_unit` is the guarded pool entry: it times one unit of work
(a single job, or a lock-step chunk), arms a ``SIGALRM``-based
wall-clock timeout (so a hung simulation is interrupted *inside* the
worker and the pool slot is reclaimed), and converts any exception into
structured :class:`JobFailure` rows instead of letting it propagate and
poison the executor.

Both kinds of unit run through :mod:`repro.batch`: a single job as a
batch of one inside :func:`execute_job` (so a table-free governor takes
the fixed-OPP fast path and a reactive one the governor pass), an RL
chunk as one lock-step batch.  Every job, chunk members included,
runs with its ``trace_context`` bound inside a ``fleet.job`` span
(:func:`_job_scope`), and a ``collect_metrics`` job gets its own
observability session; a chunk hands each member's session to the
batch, so each member's snapshot holds only its own counters.
:func:`simulate_spec` stays the serial reference both are held to.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from repro.core.trainer import RLTrainJob
    from repro.obs import ObsSession
    from repro.obs.learn import LearnRecorder

from repro.errors import ReproError
from repro.fleet.spec import CHECKPOINT_PREFIX, JobSpec
from repro.governors import Governor, create
from repro.power.model import PowerModel
from repro.sim.engine import Simulator
from repro.sim.result import SimulationResult
from repro.soc.chip import Chip
from repro.soc.presets import PRESETS
from repro.workload.scenarios import get_scenario
from repro.workload.trace import Trace


@dataclass(frozen=True)
class JobMeasurement:
    """The raw metrics one job produces (mirrors a sweep row).

    Attributes:
        metrics: Observability-registry snapshot captured inside the
            worker (``collect_metrics``/``trace_dir`` jobs only, else
            ``None``); carries a ``"meta"`` section tagging the job id
            and worker pid.
        trace_path: The per-job Chrome trace file (``trace_dir`` jobs
            only, else ``None``).
    """

    energy_j: float
    mean_qos: float
    deadline_miss_rate: float
    energy_per_qos_j: float
    sim_duration_s: float
    metrics: dict | None = None
    trace_path: str | None = None


@dataclass(frozen=True)
class JobSuccess:
    """A completed job: its spec, metrics, and execution telemetry.

    Attributes:
        index: Position in the expanded grid (aggregation sort key).
        wall_s: Wall-clock seconds of the successful attempt.
        attempts: 1-based number of attempts used.
        cached: Whether the result came from the run cache
            (:mod:`repro.cache`) instead of a fresh simulation; cached
            rows carry the cache-probe wall time, not a simulation's.
    """

    spec: JobSpec
    index: int
    energy_j: float
    mean_qos: float
    deadline_miss_rate: float
    energy_per_qos_j: float
    sim_duration_s: float
    wall_s: float
    attempts: int = 1
    metrics: dict | None = None
    trace_path: str | None = None
    cached: bool = False

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def sim_throughput(self) -> float:
        """Simulated seconds per wall-clock second."""
        return self.sim_duration_s / self.wall_s if self.wall_s > 0 else 0.0


@dataclass(frozen=True)
class JobFailure:
    """A job that exhausted its attempts; the sweep-row-shaped tombstone.

    Attributes:
        error_type: Exception class name (``"JobTimeout"`` for timeouts).
        error: The exception message.
        traceback_str: Formatted traceback from the worker.
        attempts: 1-based number of attempts used.
        timed_out: Whether the final attempt hit the per-job timeout.
    """

    spec: JobSpec
    index: int
    error_type: str
    error: str
    traceback_str: str
    wall_s: float
    attempts: int = 1
    timed_out: bool = False

    @property
    def job_id(self) -> str:
        return self.spec.job_id


JobOutcome = JobSuccess | JobFailure


class JobTimeout(ReproError):
    """Raised inside a worker when a job overruns its wall-clock budget."""


def _build_chip(spec: JobSpec) -> Chip:
    if spec.chip_obj is not None:
        return spec.chip_obj
    try:
        factory = PRESETS[spec.chip]
    except KeyError:
        raise ReproError(
            f"unknown chip preset {spec.chip!r}; available: {sorted(PRESETS)}"
        ) from None
    return factory()


def _make_simulator(
    spec: JobSpec, chip: Chip, trace: Trace,
    governors: Mapping[str, Governor], power_model: PowerModel
) -> Simulator:
    """The job's simulator; full-system jobs get the X1 substrate
    (thermals + throttling, cpuidle, DVFS transition costs)."""
    if not spec.full_system:
        return Simulator(
            chip,
            trace,
            governors,
            power_model=power_model,
            interval_s=spec.interval_s,
        )
    from repro.idle.governor import MenuIdleGovernor
    from repro.soc.transition import DVFSTransitionModel
    from repro.thermal.rc import default_thermal_model
    from repro.thermal.throttle import ThermalThrottle

    return Simulator(
        chip,
        trace,
        governors,
        power_model=power_model,
        interval_s=spec.interval_s,
        thermal=default_thermal_model(chip.cluster_names),
        throttle=ThermalThrottle(trip_c=85.0),
        idle_governor=MenuIdleGovernor(),
        transition=DVFSTransitionModel(),
    )


def _job_learn_recorder(spec: JobSpec) -> "LearnRecorder | None":
    """The job's learning-ledger recorder, when the spec asks for one.

    Ledger files follow the per-job trace naming scheme —
    ``<job-id>-pid<pid>.jsonl`` — so a parallel fleet's workers never
    contend for one file and ledgers join back to traces by name.
    """
    if spec.learn_log_dir is None:
        return None
    from repro.obs.learn import LearnRecorder

    return LearnRecorder(_job_file(spec.learn_log_dir, spec, ".jsonl"))


def _job_file(directory: str, spec: JobSpec, suffix: str) -> Path:
    """``<directory>/<job-id>-pid<pid><suffix>``, the job id made
    path-safe: one file per job and worker process."""
    safe_id = spec.job_id.replace("/", "-").replace(":", "_")
    return Path(directory) / f"{safe_id}-pid{os.getpid()}{suffix}"


def _train_job(
    spec: JobSpec, chip: Chip, power_model: PowerModel
) -> "RLTrainJob":
    """The RL training job a plain-substrate spec asks for; the job's
    evaluation shares ``power_model``."""
    from repro.core.trainer import RLTrainJob

    return RLTrainJob(
        chip=chip,
        scenario=get_scenario(spec.scenario),
        episodes=spec.train_episodes,
        episode_duration_s=spec.train_episode_s or spec.duration_s,
        base_seed=spec.train_base_seed,
        config=spec.policy_config,
        interval_s=spec.interval_s,
        power_model=power_model,
        recorder=_job_learn_recorder(spec),
    )


def _run_rl(
    spec: JobSpec, chip: Chip, eval_trace: Trace, power_model: PowerModel
) -> SimulationResult:
    """Train the proposed policy on the job's scenario, evaluate greedily."""
    from repro.core.trainer import frozen_policies, make_policies, train_policy

    if not spec.full_system:
        job = _train_job(spec, chip, power_model)
        policies = train_policy(**vars(job)).policies
    else:
        # X1-style: the policy learns inside the full-system simulator,
        # so it experiences C-states, transition stalls and throttling.
        scenario = get_scenario(spec.scenario)
        episode_s = spec.train_episode_s or spec.duration_s
        policies = make_policies(chip, spec.policy_config)
        for episode in range(spec.train_episodes):
            ep_trace = scenario.trace(
                episode_s, seed=spec.train_base_seed + episode
            )
            _make_simulator(spec, chip, ep_trace, policies, power_model).run()
    with frozen_policies(policies):
        return _make_simulator(
            spec, chip, eval_trace, policies, power_model
        ).run()


def _run_checkpoint(
    spec: JobSpec, chip: Chip, eval_trace: Trace, power_model: PowerModel
) -> SimulationResult:
    from repro.core.checkpoint import load_policies

    directory = spec.governor.removeprefix(CHECKPOINT_PREFIX)
    policies = load_policies(directory, chip=chip)
    for p in policies.values():
        p.online = False
    return _make_simulator(spec, chip, eval_trace, policies, power_model).run()


def execute_job(spec: JobSpec) -> JobMeasurement:
    """Run one job from scratch and return its metrics.

    Deterministic in the spec alone: the chip is freshly built from its
    preset, the power model is the default, and every trace (evaluation
    and RL training episodes) is regenerated from the spec's seeds.
    ``collect_metrics`` jobs additionally run inside a metrics-only
    observability session (spans stay off — they are worthless across a
    process boundary at fleet scale) and attach the registry snapshot,
    tagged with the job id and worker pid under ``"meta"``.
    ``trace_dir`` jobs instead capture with tracing *on* and write a
    pid- and epoch-stamped Chrome trace into the directory, one lane per
    worker process once merged.

    When the spec carries a ``trace_context``, it is re-bound here —
    contextvars do not cross executor threads or process pools, so this
    is the explicit hand-off point.  A ``fleet.job`` span, on the job's
    session or else the active tracer, wraps the execution, tagging the
    whole job subtree with the originating trace_id.

    Raises:
        ReproError: For unknown chips/scenarios/governors; any simulation
            exception propagates (the runner converts it to a
            :class:`JobFailure`).
    """
    from repro.obs import use

    session = _job_session(spec)
    with _job_scope(spec, session), use(session):
        measurement = _execute_job_inner(spec)
    return _observed(spec, measurement, session)


@contextmanager
def _job_scope(spec: JobSpec, session: "ObsSession | None") -> Iterator[None]:
    """Re-bind the job's ``trace_context`` and wrap the block in a
    ``fleet.job`` span tagged with the job id and trace id, on the job
    session's tracer or else the active one."""
    from repro.obs import OBS
    from repro.obs.context import bind, trace_args

    tracer = OBS.tracer if session is None else session.tracer
    with bind(spec.trace_context), tracer.span(
        "fleet.job", cat="fleet", job_id=spec.job_id, **trace_args()
    ):
        yield


def _job_session(spec: JobSpec) -> "ObsSession | None":
    """A fresh registry for a ``collect_metrics``/``trace_dir`` job, else
    ``None``; a ``trace_dir`` job gets its own tracer, a metrics-only job
    keeps an in-process fleet's tracer so per-job isolation eats no spans.
    """
    if not spec.collect_metrics and spec.trace_dir is None:
        return None
    from repro import obs

    if spec.trace_dir is not None:
        tracer: obs.Tracer | obs.NullTracer = obs.Tracer()
    else:
        tracer = obs.OBS.tracer if obs.OBS.enabled else obs.NULL_TRACER
    return obs.ObsSession(tracer=tracer, metrics=obs.MetricsRegistry())


def _observed(
    spec: JobSpec, measurement: JobMeasurement, session: "ObsSession | None"
) -> JobMeasurement:
    """``measurement`` with the job's snapshot (tagged with the job id
    and worker pid under ``"meta"``) and trace file attached."""
    if session is None:
        return measurement
    snapshot = session.metrics.snapshot()
    snapshot["meta"] = {"job_id": spec.job_id, "pid": os.getpid()}
    trace_path = (
        _write_job_trace(spec, session) if spec.trace_dir is not None else None
    )
    return replace(measurement, metrics=snapshot, trace_path=trace_path)


def _write_job_trace(spec: JobSpec, session: ObsSession) -> str:
    """Write the job's Chrome trace as ``<job-id>-pid<pid>.json``.

    The trace is stamped with the worker pid (one merged-timeline lane
    per process) and the tracer epoch (``time.perf_counter`` origin,
    shared machine-wide) so :func:`repro.obs.export.merge_traces` can
    align traces from concurrent workers.
    """
    from repro.obs.export import write_chrome_trace

    path = _job_file(spec.trace_dir or ".", spec, ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(
        path,
        session.tracer,
        session.metrics,
        process_name=spec.job_id,
        pid=os.getpid(),
        epoch_us=session.tracer.epoch_s * 1e6,
    )
    return str(path)


def simulate_spec(spec: JobSpec) -> SimulationResult:
    """Run one spec's simulation from scratch (the measurement core).

    This is the reference execution every alternative backend is held
    to: :mod:`repro.batch` falls back to it for rollouts its fast path
    cannot express, and its fast path must reproduce this function's
    numbers bit for bit.

    Raises:
        ReproError: For unknown chips/scenarios/governors.
    """
    chip = _build_chip(spec)
    scenario = get_scenario(spec.scenario)
    eval_trace = scenario.trace(spec.duration_s, seed=spec.seed)
    power_model = PowerModel()
    if spec.is_rl:
        return _run_rl(spec, chip, eval_trace, power_model)
    if spec.is_checkpoint:
        return _run_checkpoint(spec, chip, eval_trace, power_model)
    governor_name = spec.governor
    create(governor_name)  # fail fast on unknown names
    return _make_simulator(
        spec, chip, eval_trace,
        lambda cluster: create(governor_name), power_model,
    ).run()


def _measurement(spec: JobSpec, run: SimulationResult) -> JobMeasurement:
    return JobMeasurement(
        energy_j=run.total_energy_j,
        mean_qos=run.qos.mean_qos,
        deadline_miss_rate=run.qos.deadline_miss_rate,
        energy_per_qos_j=run.energy_per_qos_j,
        sim_duration_s=spec.duration_s,
    )


def _execute_job_inner(spec: JobSpec) -> JobMeasurement:
    # A batch of one: a fast path where one applies, else simulate_spec
    # (batch imports this module, so import it lazily).
    from repro.batch import run_batch

    [run] = run_batch([spec])
    return _measurement(spec, run)


def _arm_timeout(timeout_s: float | None) -> bool:
    """Arm a SIGALRM wall-clock guard; returns whether one was armed.

    Only possible on POSIX main threads (pool workers run tasks on their
    main thread, so the parallel path always qualifies on Linux); when
    unavailable the job simply runs unguarded.
    """
    if timeout_s is None:
        return False
    if not hasattr(signal, "SIGALRM"):
        return False
    if threading.current_thread() is not threading.main_thread():
        return False

    def _on_alarm(signum: int, frame: object) -> None:
        raise JobTimeout(f"job exceeded {timeout_s} s wall-clock budget")

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    return True


def _disarm_timeout(armed: bool) -> None:
    if armed:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_unit(
    members: Sequence[tuple[int, JobSpec]],
    attempt: int = 1,
    timeout_s: float | None = None,
    job_fn: Callable[[JobSpec], JobMeasurement] = execute_job,
) -> list[JobOutcome]:
    """The guarded pool entry: never raises, one outcome per member.

    A unit of one runs ``job_fn``; a lock-step RL chunk (see
    :meth:`repro.batch.BatchEngine.units`) runs as one
    :func:`repro.batch.run_batch` call, inside every member's
    :func:`_job_scope` and with each ``collect_metrics`` member's own
    session.

    Args:
        members: The unit's ``(grid index, spec)`` pairs; the index is
            stamped on each outcome for ordered aggregation.
        attempt: 1-based attempt number, stamped on each outcome.
        timeout_s: Per-job wall-clock budget; the unit gets it times
            its member count.  Overruns raise :class:`JobTimeout`
            inside the worker (freeing the pool slot) and yield
            ``timed_out`` failures.
        job_fn: The measurement function for a unit of one; tests
            substitute hanging or raising top-level functions here.

    Returns:
        One outcome per member, in order, each carrying an equal share
        of the unit's wall time.  If the unit raises or overruns, every
        member is a :class:`JobFailure` with that error.
    """
    start = time.perf_counter()
    budget = None if timeout_s is None else timeout_s * len(members)
    armed = _arm_timeout(budget)
    try:
        if len(members) == 1:
            measurements = [job_fn(members[0][1])]
        else:
            from repro.batch import run_batch

            specs = [spec for _, spec in members]
            sessions = [_job_session(spec) for spec in specs]
            with ExitStack() as scopes:
                for spec, session in zip(specs, sessions):
                    scopes.enter_context(_job_scope(spec, session))
                runs = run_batch(specs, sessions)
            measurements = [
                _observed(spec, _measurement(spec, run), session)
                for spec, run, session in zip(specs, runs, sessions)
            ]
    except Exception as exc:
        share = (time.perf_counter() - start) / len(members)
        return [
            JobFailure(
                spec=spec,
                index=index,
                error_type=type(exc).__name__,
                error=str(exc),
                traceback_str=traceback.format_exc(),
                wall_s=share,
                attempts=attempt,
                timed_out=isinstance(exc, JobTimeout),
            )
            for index, spec in members
        ]
    finally:
        _disarm_timeout(armed)
    share = (time.perf_counter() - start) / len(members)
    return [
        _success(spec, index, measurement, share, attempt)
        for (index, spec), measurement in zip(members, measurements)
    ]


def _success(
    spec: JobSpec,
    index: int,
    measurement: JobMeasurement,
    wall_s: float,
    attempt: int,
    cached: bool = False,
) -> JobSuccess:
    return JobSuccess(
        spec=spec,
        index=index,
        energy_j=measurement.energy_j,
        mean_qos=measurement.mean_qos,
        deadline_miss_rate=measurement.deadline_miss_rate,
        energy_per_qos_j=measurement.energy_per_qos_j,
        sim_duration_s=measurement.sim_duration_s,
        wall_s=wall_s,
        attempts=attempt,
        metrics=measurement.metrics,
        trace_path=measurement.trace_path,
        cached=cached,
    )


def _measured(success: JobSuccess) -> JobMeasurement:
    """A success's raw metrics, as the run cache stores them."""
    return JobMeasurement(
        energy_j=success.energy_j,
        mean_qos=success.mean_qos,
        deadline_miss_rate=success.deadline_miss_rate,
        energy_per_qos_j=success.energy_per_qos_j,
        sim_duration_s=success.sim_duration_s,
    )
