"""The fleet executor: a job grid over a process pool.

``run_fleet`` takes an expanded job list (or a
:class:`~repro.fleet.spec.FleetSpec`) and executes every job with

* **failure isolation** — a crashing or hanging job becomes a structured
  :class:`~repro.fleet.worker.JobFailure` row; the rest of the grid is
  unaffected,
* **bounded retry** — failed/timed-out jobs are re-queued up to
  ``retries`` extra attempts,
* **deterministic aggregation** — outcomes are sorted by grid index, so
  the result is independent of worker count and completion order, and
* **telemetry** — every lifecycle transition is emitted to ``on_event``
  (see :mod:`repro.fleet.events`).

``jobs=1`` runs everything in-process through the *same* guarded entry
points, which is both the fast path for small grids and the reference the
determinism tests compare the pool against.

Every unit of work — one job, or with the default ``job_fn`` a
lock-step chunk (:meth:`repro.batch.BatchEngine.units`) — runs
through :func:`~repro.fleet.worker.run_unit`, and both loops hand its
outcomes to one settle step.  Events, retries, cache probe and store
all stay per job; see ``docs/fleet.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ReproError
from repro.fleet.events import (
    FleetEvent,
    FleetFinished,
    FleetProgress,
    FleetStarted,
    JobCached,
    JobDone,
    JobFailed,
    JobQueued,
    JobRetried,
)
from repro.fleet.spec import FleetSpec, JobSpec
from repro.fleet.worker import (
    JobFailure,
    JobMeasurement,
    JobOutcome,
    JobSuccess,
    _measured,
    _success,
    execute_job,
    run_unit,
)

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult
    from repro.cache import RunCache
    from repro.obs.opslog import OpsLogger


def _trace_id(spec: JobSpec) -> str:
    """The spec's correlation id, for stamping onto fleet events."""
    return spec.trace_context.trace_id if spec.trace_context else ""


#: One unit of work: ``(grid index, spec)`` pairs, one job or a chunk.
_Unit = list[tuple[int, JobSpec]]


def _units(
    indexed: list[tuple[int, JobSpec]],
    job_fn: Callable[[JobSpec], JobMeasurement],
    jobs: int,
) -> list[_Unit]:
    """Group the dispatched jobs into units of work for ``jobs`` workers.

    The default :func:`~repro.fleet.worker.execute_job` gets the batch
    backend's units; any other ``job_fn`` measures one job per call.
    """
    if job_fn is not execute_job:
        return [[pair] for pair in indexed]
    # Lazy: repro.batch imports repro.fleet.spec, which imports this
    # package.
    from repro.batch import BatchEngine

    units = BatchEngine([job_spec for _, job_spec in indexed]).units(jobs)
    return [[indexed[i] for i in unit] for unit in units]


def resolve_workers(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means the CPU count."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ReproError(f"worker count must be >= 1: {jobs}")
    return jobs


@dataclass
class FleetResult:
    """Everything a finished fleet produced.

    Attributes:
        outcomes: One entry per grid job, in grid order (successes and
            failures interleaved exactly where their specs sat).
        workers: Worker-process count used.
        wall_s: Fleet wall-clock seconds.
    """

    outcomes: list[JobOutcome] = field(default_factory=list)
    workers: int = 1
    wall_s: float = 0.0

    @property
    def successes(self) -> list[JobSuccess]:
        return [o for o in self.outcomes if isinstance(o, JobSuccess)]

    @property
    def failures(self) -> list[JobFailure]:
        return [o for o in self.outcomes if isinstance(o, JobFailure)]

    @property
    def n_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hits(self) -> int:
        """Jobs served from the run cache instead of simulated."""
        return sum(1 for s in self.successes if s.cached)

    @property
    def cache_misses(self) -> int:
        """Jobs that actually executed (everything not a cache hit)."""
        return self.n_jobs - self.cache_hits

    @property
    def serial_wall_estimate_s(self) -> float:
        """Sum of per-job walls — what one process would have paid."""
        return sum(o.wall_s for o in self.outcomes)

    @property
    def speedup(self) -> float:
        """Estimated serial-vs-fleet wall-clock ratio."""
        return self.serial_wall_estimate_s / self.wall_s if self.wall_s > 0 else 0.0

    def raise_on_failure(self) -> None:
        """Raise a :class:`ReproError` summarising any failed jobs."""
        if not self.failures:
            return
        lines = [
            f"  {f.job_id}: {f.error_type}: {f.error} "
            f"({f.attempts} attempt{'s' if f.attempts != 1 else ''})"
            for f in self.failures
        ]
        raise ReproError(
            f"{len(self.failures)} of {self.n_jobs} fleet jobs failed:\n"
            + "\n".join(lines)
        )

    def sweep_result(
        self, seed: int | None = None, strict: bool = True
    ) -> "SweepResult":
        """The successes as a :class:`~repro.analysis.sweep.SweepResult`.

        Args:
            seed: Keep only rows of one evaluation seed (``None`` = all).
            strict: Raise if any job failed (default), rather than
                silently aggregating a grid with holes.
        """
        from repro.fleet.aggregate import to_sweep_result

        if strict:
            self.raise_on_failure()
        return to_sweep_result(self.successes, seed=seed)


def _resolve_cache(cache: "RunCache | bool | None") -> "RunCache | None":
    """Normalise the ``cache`` argument: ``True`` opens the default
    store, ``False``/``None`` disables caching, a :class:`RunCache`
    instance is used as-is."""
    if cache is None or cache is False:
        return None
    if cache is True:
        from repro.cache import RunCache

        return RunCache()
    return cache


def run_fleet(
    spec: FleetSpec | Sequence[JobSpec],
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    on_event: Callable[[FleetEvent], None] | None = None,
    job_fn: Callable[[JobSpec], JobMeasurement] = execute_job,
    cache: "RunCache | bool | None" = None,
    ops_log: "OpsLogger | None" = None,
) -> FleetResult:
    """Execute a grid of simulation jobs, possibly in parallel.

    Args:
        spec: A :class:`~repro.fleet.spec.FleetSpec` (expanded here) or
            an already-expanded job list.
        jobs: Worker processes; ``None`` defers to the fleet spec (or 1
            for a bare job list), ``0`` means the CPU count.
        timeout_s: Per-job wall-clock budget, positive (``None``
            defers to the spec; jobs overrunning it fail with
            ``timed_out=True``).  A
            lock-step chunk gets the budget times its member count;
            if it overruns, its members rerun singly.
        retries: Extra attempts per failed job (``None`` defers to the
            spec, default 0).
        on_event: Telemetry callback (:mod:`repro.fleet.events`).
        job_fn: Measurement function executed per job; must be a
            module-level (picklable) callable for ``jobs > 1``.  The
            default also lets ``rl-policy`` cache misses that share
            :func:`~repro.batch.plans.rl_group_key` run lock-step, in
            at most one chunk per worker and group (see the module
            docstring); any other function measures one job per call.
        cache: Content-addressed run cache (:mod:`repro.cache`).
            ``True`` opens the default store; a :class:`RunCache`
            instance pins a specific directory.  Cacheable jobs whose
            result is already stored are served without dispatching a
            worker (a :class:`~repro.fleet.events.JobCached` event
            instead of queue/done), and fresh successes are stored for
            the next run.  ``None``/``False`` (default) disables both.
        ops_log: Structured ops logger
            (:class:`repro.obs.opslog.OpsLogger`); every terminal job
            transition (done, cached, final failure) appends one
            ``kind="job"`` record carrying the job's trace_id.

    Returns:
        A :class:`FleetResult` with one outcome per job in grid order.
    """
    if isinstance(spec, FleetSpec):
        specs = spec.expand()
        jobs = spec.jobs if jobs is None else jobs
        timeout_s = spec.timeout_s if timeout_s is None else timeout_s
        retries = spec.retries if retries is None else retries
    else:
        specs = list(spec)
    jobs = resolve_workers(1 if jobs is None else jobs)
    retries = 0 if retries is None else retries
    if retries < 0:
        raise ReproError(f"retries must be non-negative: {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ReproError(f"timeout must be positive: {timeout_s}")
    if not specs:
        raise ReproError("fleet needs at least one job")

    store = _resolve_cache(cache)
    start = time.perf_counter()

    # Cache probe: hits become ready-made outcomes before any worker
    # spawns; only the misses are dispatched.
    outcomes: list[JobOutcome] = []
    indexed: list[tuple[int, JobSpec]] = []
    if store is None:
        indexed = list(enumerate(specs))
    else:
        for index, job_spec in enumerate(specs):
            probe_start = time.perf_counter()
            measurement = store.probe(job_spec)
            if measurement is None:
                indexed.append((index, job_spec))
                continue
            outcomes.append(_success(
                job_spec, index, measurement,
                time.perf_counter() - probe_start, attempt=0, cached=True,
            ))

    units = _units(indexed, job_fn, jobs)
    workers = max(1, min(jobs, len(units)))
    emit = on_event or (lambda event: None)
    if ops_log is not None:
        emit = _ops_logging_emit(ops_log, emit)
    emit(FleetStarted(n_jobs=len(specs), workers=workers))
    for hit in outcomes:
        emit(JobCached(index=hit.index, job_id=hit.job_id, wall_s=hit.wall_s,
                       trace_id=_trace_id(hit.spec)))
    if outcomes:
        emit(
            FleetProgress(
                done=len(outcomes),
                failed=0,
                total=len(specs),
                elapsed_s=time.perf_counter() - start,
            )
        )

    if units:
        tally = _Tally(emit, retries, start, total=len(specs),
                       base_done=len(outcomes))
        if workers <= 1:
            fresh = _run_serial(units, timeout_s, job_fn, tally)
        else:
            fresh = _run_pool(units, workers, timeout_s, job_fn, tally)
        if store is not None:
            for outcome in fresh:
                if isinstance(outcome, JobSuccess):
                    store.store(outcome.spec, _measured(outcome))
        outcomes.extend(fresh)

    outcomes.sort(key=lambda o: o.index)
    result = FleetResult(
        outcomes=outcomes, workers=workers, wall_s=time.perf_counter() - start
    )
    emit(
        FleetFinished(
            done=len(result.successes),
            failed=len(result.failures),
            wall_s=result.wall_s,
        )
    )
    return result


def _ops_logging_emit(
    ops_log: "OpsLogger", downstream: Callable[[FleetEvent], None]
) -> Callable[[FleetEvent], None]:
    """Wrap an event callback so terminal job events also append one
    structured ops record (the only writes go through the logger)."""
    from repro.obs.opslog import job_record_from_event

    def emit(event: FleetEvent) -> None:
        record = job_record_from_event(event)
        if record is not None:
            ops_log.log(record)
        downstream(event)

    return emit


@dataclass
class _Tally:
    """Reports each unit's outcomes and decides what runs next.

    Shared by the serial and pool loops.  Emits one completion event
    per job and, once a job is finished, one :class:`FleetProgress`;
    ``total``/``base_done`` fold pre-resolved jobs (cache hits) into
    the totals so a partially-cached fleet still counts to 100 %.
    """

    emit: Callable[[FleetEvent], None]
    retries: int
    start: float
    total: int
    base_done: int
    outcomes: list[JobOutcome] = field(default_factory=list)
    failed: int = 0

    def settle(
        self, unit: _Unit, attempt: int, outcomes: Sequence[JobOutcome]
    ) -> list[tuple[_Unit, int]]:
        """Settle one unit's outcomes; returns the ``(unit, attempt)``
        follow-ups to run, in order.

        A failed chunk's members rerun singly as first attempts, so the
        chunk counts against no job's retries; a failed single job
        reruns at ``attempt + 1`` while ``retries`` allows.
        """
        follow: list[tuple[_Unit, int]] = []
        for pair, outcome in zip(unit, outcomes):
            index, job_spec = pair
            trace_id = _trace_id(job_spec)
            if isinstance(outcome, JobSuccess):
                self.emit(JobDone(
                    index=index, job_id=job_spec.job_id,
                    wall_s=outcome.wall_s,
                    sim_throughput=outcome.sim_throughput,
                    metrics=outcome.metrics, trace_path=outcome.trace_path,
                    trace_id=trace_id,
                ))
                self._finish(outcome)
            elif len(unit) > 1:
                follow.append(([pair], 1))
            else:
                final = attempt > self.retries
                self.emit(JobFailed(
                    index=index, job_id=job_spec.job_id, attempt=attempt,
                    error=f"{outcome.error_type}: {outcome.error}",
                    timed_out=outcome.timed_out, final=final,
                    trace_id=trace_id,
                ))
                if final:
                    self._finish(outcome)
                else:
                    self.emit(JobRetried(index=index, job_id=job_spec.job_id,
                                         attempt=attempt + 1,
                                         trace_id=trace_id))
                    follow.append(([pair], attempt + 1))
        return follow

    def pool_failure(
        self, unit: _Unit, attempt: int, exc: Exception
    ) -> list[tuple[_Unit, int]]:
        """Settle a unit the pool itself failed (a dead worker, say):
        each member fails as if it had run as a unit of one."""
        follow: list[tuple[_Unit, int]] = []
        for index, job_spec in unit:
            failure = JobFailure(
                spec=job_spec,
                index=index,
                error_type=type(exc).__name__,
                error=str(exc),
                traceback_str="",
                wall_s=0.0,
                attempts=attempt,
            )
            follow += self.settle([(index, job_spec)], attempt, [failure])
        return follow

    def _finish(self, outcome: JobOutcome) -> None:
        self.outcomes.append(outcome)
        self.failed += isinstance(outcome, JobFailure)
        self.emit(
            FleetProgress(
                done=self.base_done + len(self.outcomes) - self.failed,
                failed=self.failed,
                total=self.total,
                elapsed_s=time.perf_counter() - self.start,
            )
        )


def _queue(unit: _Unit, emit: Callable[[FleetEvent], None]) -> None:
    for index, job_spec in unit:
        emit(JobQueued(index=index, job_id=job_spec.job_id,
                       trace_id=_trace_id(job_spec)))


def _run_serial(
    units: list[_Unit],
    timeout_s: float | None,
    job_fn: Callable[[JobSpec], JobMeasurement],
    tally: _Tally,
) -> list[JobOutcome]:
    """Run units in-process, in order; a unit's follow-ups (retries,
    a failed chunk's single reruns) run before the next unit."""
    for unit in units:
        _queue(unit, tally.emit)
        pending = [(unit, 1)]
        while pending:
            current, attempt = pending.pop()
            outcomes = run_unit(current, attempt, timeout_s, job_fn)
            pending += reversed(tally.settle(current, attempt, outcomes))
    return tally.outcomes


def _run_pool(
    units: list[_Unit],
    workers: int,
    timeout_s: float | None,
    job_fn: Callable[[JobSpec], JobMeasurement],
    tally: _Tally,
) -> list[JobOutcome]:
    """Run units on a process pool, submitted in order; follow-ups are
    submitted as their unit settles."""
    running: dict[Future[list[JobOutcome]], tuple[_Unit, int]] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:

        def submit(unit: _Unit, attempt: int) -> None:
            future = pool.submit(run_unit, unit, attempt, timeout_s, job_fn)
            running[future] = (unit, attempt)

        for unit in units:
            _queue(unit, tally.emit)
            submit(unit, 1)

        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                unit, attempt = running.pop(future)
                try:
                    outcomes = future.result()
                except Exception as exc:  # pool-level (e.g. pickling) error
                    follow = tally.pool_failure(unit, attempt, exc)
                else:
                    follow = tally.settle(unit, attempt, outcomes)
                for next_unit, next_attempt in follow:
                    submit(next_unit, next_attempt)
    return tally.outcomes
