"""Per-job execution in (or out of) a worker process.

:func:`execute_job` recomputes one :class:`~repro.fleet.spec.JobSpec`
from scratch — fresh chip, fresh power model, trace regenerated from the
spec's seed — so a job's result depends only on its spec, never on which
process ran it or what ran before.  That is what makes parallel fleet
rows bit-identical to a serial sweep.

:func:`run_job` is the guarded pool entry: it times the attempt, arms a
``SIGALRM``-based wall-clock timeout (so a hung simulation is
interrupted *inside* the worker and the pool slot is reclaimed), and
converts any exception into a structured :class:`JobFailure` instead of
letting it propagate and poison the executor.

Both run their work through :mod:`repro.batch`: :func:`execute_job` as
a batch of one (so a table-free governor takes the fixed-OPP fast
path), :func:`run_chunk` as one lock-step batch over an RL chunk.
:func:`simulate_spec` stays the serial reference both are held to.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from repro.core.policy import RLPowerManagementPolicy
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

    safe_id = spec.job_id.replace("/", "-").replace(":", "_")
    directory = Path(spec.learn_log_dir)
    return LearnRecorder(directory / f"{safe_id}-pid{os.getpid()}.jsonl")


@contextmanager
def frozen_policies(
    policies: "Mapping[str, RLPowerManagementPolicy]",
) -> "Iterator[None]":
    """Temporarily freeze RL policies for a greedy evaluation run.

    Clears every policy's ``online`` flag on entry and restores the
    original flags on exit (even on error), so a training loop can
    interleave held-out evaluations without losing its learning state.
    Freezing only toggles flags — it never touches Q-tables, exploration
    RNGs, or TD statistics — which is what keeps an evaluate-then-resume
    sequence bit-identical to uninterrupted training.
    """
    saved = {name: p.online for name, p in policies.items()}
    try:
        for p in policies.values():
            p.online = False
        yield
    finally:
        for name, p in policies.items():
            p.online = saved[name]


def _run_rl(
    spec: JobSpec, chip: Chip, eval_trace: Trace, power_model: PowerModel
) -> SimulationResult:
    """Train the proposed policy on the job's scenario, evaluate greedily."""
    from repro.core.trainer import make_policies, train_policy

    scenario = get_scenario(spec.scenario)
    episode_s = spec.train_episode_s or spec.duration_s
    if not spec.full_system:
        training = train_policy(
            chip,
            scenario,
            episodes=spec.train_episodes,
            episode_duration_s=episode_s,
            base_seed=spec.train_base_seed,
            config=spec.policy_config,
            interval_s=spec.interval_s,
            power_model=power_model,
            recorder=_job_learn_recorder(spec),
        )
        policies = training.policies
    else:
        # X1-style: the policy learns inside the full-system simulator,
        # so it experiences C-states, transition stalls and throttling.
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
    is the explicit hand-off point — and a ``fleet.job`` span wraps the
    traced execution, tagging the whole job subtree with the
    originating trace_id.

    Raises:
        ReproError: For unknown chips/scenarios/governors; any simulation
            exception propagates (the runner converts it to a
            :class:`JobFailure`).
    """
    from repro.obs.context import bind

    with bind(spec.trace_context):
        if spec.collect_metrics or spec.trace_dir is not None:
            from dataclasses import replace as _replace

            from repro import obs
            from repro.obs.context import trace_args

            want_trace = spec.trace_dir is not None
            # A serial (in-process) fleet may already be tracing; keep its
            # tracer wired up so per-job metric isolation doesn't eat spans.
            outer = (
                obs.OBS.tracer
                if (obs.OBS.enabled and obs.OBS.tracer.enabled)
                else None
            )
            with obs.capture(trace=want_trace) as session:
                if outer is not None and not want_trace:
                    obs.OBS.tracer = outer
                tracer = obs.OBS.tracer if obs.OBS.tracer.enabled else None
                if tracer:
                    with tracer.span(
                        "fleet.job", cat="fleet",
                        job_id=spec.job_id, **trace_args(),
                    ):
                        measurement = _execute_job_inner(spec)
                else:
                    measurement = _execute_job_inner(spec)
            snapshot = session.metrics.snapshot()
            snapshot["meta"] = {"job_id": spec.job_id, "pid": os.getpid()}
            trace_path = _write_job_trace(spec, session) if want_trace else None
            return _replace(
                measurement, metrics=snapshot, trace_path=trace_path
            )
        return _execute_job_inner(spec)


def _write_job_trace(spec: JobSpec, session: ObsSession) -> str:
    """Write the job's Chrome trace as ``<job-id>-pid<pid>.json``.

    The trace is stamped with the worker pid (one merged-timeline lane
    per process) and the tracer epoch (``time.perf_counter`` origin,
    shared machine-wide) so :func:`repro.obs.export.merge_traces` can
    align traces from concurrent workers.
    """
    from repro.obs.export import write_chrome_trace

    pid = os.getpid()
    safe_id = spec.job_id.replace("/", "-").replace(":", "_")
    directory = Path(spec.trace_dir or ".")
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{safe_id}-pid{pid}.json"
    write_chrome_trace(
        path,
        session.tracer,
        session.metrics,
        process_name=spec.job_id,
        pid=pid,
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
    # A batch of one: the fixed-OPP fast path where it applies, else
    # simulate_spec (batch imports this module, so import it lazily).
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


def run_job(
    spec: JobSpec,
    index: int = 0,
    attempt: int = 1,
    timeout_s: float | None = None,
    job_fn: Callable[[JobSpec], JobMeasurement] = execute_job,
) -> JobOutcome:
    """The guarded pool entry: never raises, always returns an outcome.

    Args:
        spec: The job to run.
        index: Grid position, stamped on the outcome for ordered
            aggregation.
        attempt: 1-based attempt number, stamped on the outcome.
        timeout_s: Wall-clock budget; overruns raise :class:`JobTimeout`
            inside the worker (freeing the pool slot) and yield a
            ``timed_out`` :class:`JobFailure`.
        job_fn: The measurement function; tests substitute hanging or
            raising top-level functions here.
    """
    start = time.perf_counter()
    armed = _arm_timeout(timeout_s)
    try:
        measurement = job_fn(spec)
    except JobTimeout as exc:
        return JobFailure(
            spec=spec,
            index=index,
            error_type="JobTimeout",
            error=str(exc),
            traceback_str=traceback.format_exc(),
            wall_s=time.perf_counter() - start,
            attempts=attempt,
            timed_out=True,
        )
    except Exception as exc:
        return JobFailure(
            spec=spec,
            index=index,
            error_type=type(exc).__name__,
            error=str(exc),
            traceback_str=traceback.format_exc(),
            wall_s=time.perf_counter() - start,
            attempts=attempt,
        )
    finally:
        _disarm_timeout(armed)
    return _success(
        spec, index, measurement, time.perf_counter() - start, attempt
    )


def run_chunk(
    members: Sequence[tuple[int, JobSpec]],
    timeout_s: float | None = None,
) -> list[JobOutcome]:
    """The guarded entry for a lock-step RL chunk: never raises.

    Runs every member through one :func:`repro.batch.run_batch` call
    under a wall-clock budget of ``timeout_s`` per member.

    Args:
        members: The chunk's ``(grid index, spec)`` pairs
            (see :meth:`repro.batch.BatchEngine.units`).
        timeout_s: Per-job budget; the chunk gets ``timeout_s`` times
            its member count.

    Returns:
        One outcome per member, in order.  On success each member is a
        first-attempt :class:`JobSuccess` carrying an equal share of the
        chunk's wall time.  If the call raises or overruns, every member
        is a :class:`JobFailure` with that error; the runner then reruns
        each member singly through :func:`run_job`, so the chunk
        attempt counts against no job's retries.
    """
    from repro.batch import run_batch

    start = time.perf_counter()
    specs = [spec for _, spec in members]
    budget = None if timeout_s is None else timeout_s * len(specs)
    armed = _arm_timeout(budget)
    try:
        runs = run_batch(specs)
    except Exception as exc:
        share = (time.perf_counter() - start) / len(specs)
        return [
            JobFailure(
                spec=spec,
                index=index,
                error_type=type(exc).__name__,
                error=str(exc),
                traceback_str=traceback.format_exc(),
                wall_s=share,
                timed_out=isinstance(exc, JobTimeout),
            )
            for index, spec in members
        ]
    finally:
        _disarm_timeout(armed)
    share = (time.perf_counter() - start) / len(specs)
    return [
        _success(spec, index, _measurement(spec, run), share, 1)
        for (index, spec), run in zip(members, runs)
    ]


def _success(
    spec: JobSpec,
    index: int,
    measurement: JobMeasurement,
    wall_s: float,
    attempt: int,
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
    )
