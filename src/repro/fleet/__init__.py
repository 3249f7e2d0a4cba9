"""repro.fleet — parallel fleet execution for device-scale sweeps.

A declarative grid of simulation jobs — chip preset x scenario x
governor-or-checkpoint x seed — executed across worker processes with
deterministic per-job seeding, per-job timeouts, bounded retry, failure
isolation, and a progress/telemetry event stream.  Parallel results
aggregate bit-identically to serial runs.

Quick start::

    from repro.fleet import FleetSpec, run_fleet

    spec = FleetSpec(
        scenarios=("gaming", "web_browsing"),
        governors=("ondemand", "schedutil"),
        seeds=(100, 200),
        duration_s=10.0,
    )
    result = run_fleet(spec, jobs=4)
    print(result.sweep_result(seed=100).mean_energy_per_qos("ondemand"))

Module map:

* :mod:`repro.fleet.spec`      — :class:`JobSpec` / :class:`FleetSpec`
* :mod:`repro.fleet.worker`    — per-job execution, timeout guard,
  :class:`JobSuccess` / :class:`JobFailure`
* :mod:`repro.fleet.runner`    — the process-pool executor
* :mod:`repro.fleet.events`    — telemetry events + :class:`EventLog`
* :mod:`repro.fleet.aggregate` — order-independent aggregation
"""

from repro.fleet.aggregate import (
    failure_table,
    fleet_summary,
    merge_job_metrics,
    result_table,
    split_by_seed,
    to_sweep_result,
    to_sweep_rows,
    trace_paths,
)
from repro.fleet.events import (
    EventLog,
    FleetEvent,
    FleetFinished,
    FleetProgress,
    FleetStarted,
    JobCached,
    JobDone,
    JobFailed,
    JobQueued,
    JobRetried,
    format_event,
    format_progress_line,
)
from repro.fleet.runner import FleetResult, resolve_workers, run_fleet
from repro.fleet.spec import CHECKPOINT_PREFIX, RL_POLICY, FleetSpec, JobSpec
from repro.fleet.worker import (
    JobFailure,
    JobMeasurement,
    JobOutcome,
    JobSuccess,
    JobTimeout,
    execute_job,
    run_unit,
)

__all__ = [
    "CHECKPOINT_PREFIX",
    "EventLog",
    "FleetEvent",
    "FleetFinished",
    "FleetProgress",
    "FleetResult",
    "FleetSpec",
    "FleetStarted",
    "JobCached",
    "JobDone",
    "JobFailed",
    "JobFailure",
    "JobMeasurement",
    "JobOutcome",
    "JobQueued",
    "JobRetried",
    "JobSpec",
    "JobSuccess",
    "JobTimeout",
    "RL_POLICY",
    "execute_job",
    "failure_table",
    "fleet_summary",
    "format_event",
    "format_progress_line",
    "merge_job_metrics",
    "resolve_workers",
    "result_table",
    "run_fleet",
    "run_unit",
    "split_by_seed",
    "to_sweep_result",
    "to_sweep_rows",
    "trace_paths",
]
