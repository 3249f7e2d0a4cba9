"""Declarative job and grid specifications for fleet execution.

A :class:`JobSpec` names everything one simulation job needs — chip
preset, scenario, governor (or RL training, or a saved checkpoint), the
evaluation seed, and durations — as plain picklable data, so the job can
be shipped to a worker process and recomputed deterministically from the
spec alone.  A :class:`FleetSpec` is the cartesian grid
(chips x scenarios x governors x seeds) plus the runtime knobs (worker
count, per-job timeout, retry budget), and expands to an ordered job
list.

Grid expansion order is the contract that makes parallel execution
aggregate identically to an in-process run: jobs are indexed in
chip-major, scenario-, governor-, seed-minor order — the row order of
:func:`repro.analysis.sweep.sweep` — and results are re-sorted by that
index no matter when each worker finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.core.config import PolicyConfig
from repro.errors import ReproError
from repro.obs.context import TraceContext
from repro.soc.chip import Chip

RL_POLICY = "rl-policy"
"""Governor name that makes a job train + evaluate the proposed policy."""

CHECKPOINT_PREFIX = "checkpoint:"
"""Governor-name prefix that evaluates a saved policy checkpoint."""


@dataclass(frozen=True)
class JobSpec:
    """One fully-determined simulation job.

    Attributes:
        scenario: Workload scenario name.
        governor: Baseline governor name, ``"rl-policy"`` (train the
            proposed policy on the scenario, then evaluate greedily), or
            ``"checkpoint:<dir>"`` (evaluate a saved checkpoint).
        seed: Evaluation trace seed.
        chip: Chip preset name (see :data:`repro.soc.presets.PRESETS`).
        duration_s: Evaluation trace length in simulated seconds.
        interval_s: DVFS sampling interval.
        train_episodes: RL training budget (``rl-policy`` jobs only).
        train_base_seed: First training-trace seed; episode ``k`` uses
            ``train_base_seed + k`` (disjoint from ``seed`` by
            convention, as in :func:`repro.analysis.sweep.sweep`).
        train_episode_s: Per-episode trace length; ``None`` means
            ``duration_s``.
        full_system: Simulate with thermals + throttling, cpuidle
            C-states, and DVFS transition costs enabled (the X1
            configuration).
        collect_metrics: Run the job under a metrics-only observability
            session (:func:`repro.obs.capture`) and ship the registry
            snapshot back on the job's success/``JobDone`` event.
        trace_dir: When set (implies ``collect_metrics`` behaviour with
            tracing on), the worker writes a per-job Chrome trace named
            ``<job_id>-pid<pid>.json`` into this directory, tagged with
            the worker pid and the tracer epoch so
            :func:`repro.obs.export.merge_traces` can stitch the fleet
            onto one timeline.
        learn_log_dir: When set on an ``rl-policy`` job, the worker's
            training loop appends a per-episode learning ledger
            (:class:`repro.obs.learn.LearnRecorder`) named
            ``<job_id>-pid<pid>.jsonl`` into this directory.  Training
            results are bit-identical either way; ``full_system`` RL
            jobs run their own episode loop and do not ledger.
        policy_config: RL policy configuration override.
        chip_obj: Escape hatch for non-preset chips (e.g. loaded from a
            device-tree JSON); takes precedence over ``chip``.  Not
            JSON-serialisable.
        trace_context: Correlation identity of the request this job
            serves (:class:`repro.obs.context.TraceContext`); the worker
            re-binds it before executing so the job's spans, events, and
            ops records carry the originating trace_id.  Deliberately
            excluded from :meth:`to_mapping` and from equality — the
            run cache keys on the spec mapping, and *who asked* must
            never change *what is computed*.
    """

    scenario: str
    governor: str
    seed: int = 100
    chip: str = "exynos5422"
    duration_s: float = 20.0
    interval_s: float = 0.01
    train_episodes: int = 12
    train_base_seed: int = 0
    train_episode_s: float | None = None
    full_system: bool = False
    collect_metrics: bool = False
    trace_dir: str | None = None
    learn_log_dir: str | None = None
    policy_config: PolicyConfig | None = field(default=None, repr=False)
    chip_obj: Chip | None = field(default=None, repr=False, compare=False)
    trace_context: TraceContext | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ReproError("job spec needs a scenario name")
        if not self.governor:
            raise ReproError("job spec needs a governor name")
        if self.duration_s <= 0:
            raise ReproError(f"duration must be positive: {self.duration_s}")
        if self.interval_s <= 0:
            raise ReproError(f"interval must be positive: {self.interval_s}")
        if self.train_episodes < 1:
            raise ReproError(
                f"need at least one training episode: {self.train_episodes}"
            )
        if self.train_episode_s is not None and self.train_episode_s <= 0:
            raise ReproError(
                f"episode duration must be positive: {self.train_episode_s}"
            )

    @property
    def job_id(self) -> str:
        """Human-readable identity, e.g. ``exynos5422/gaming/ondemand/s100``."""
        return f"{self.chip}/{self.scenario}/{self.governor}/s{self.seed}"

    @property
    def is_rl(self) -> bool:
        return self.governor == RL_POLICY

    @property
    def is_checkpoint(self) -> bool:
        return self.governor.startswith(CHECKPOINT_PREFIX)

    def to_mapping(self) -> dict[str, Any]:
        """A JSON-serialisable dict (round-trips via :meth:`from_mapping`).

        Raises:
            ReproError: If the spec carries a non-serialisable
                ``chip_obj`` or ``policy_config``.
        """
        if self.chip_obj is not None:
            raise ReproError("a job spec with chip_obj cannot be serialised")
        if self.policy_config is not None:
            raise ReproError(
                "a job spec with a policy_config cannot be serialised"
            )
        # trace_context is correlation identity, not job identity: the
        # run cache hashes this mapping, and two requests asking for the
        # same computation must share a cache entry.
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("chip_obj", "policy_config", "trace_context")
        }
        return data

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from a mapping (e.g. parsed JSON).

        A ``trace_context`` key is accepted as either a
        :class:`~repro.obs.context.TraceContext` or its
        ``to_mapping`` form, so explicitly-correlated requests can ship
        specs over JSON envelopes.

        Raises:
            ReproError: For unknown keys.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown job spec keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(data)
        ctx = kwargs.get("trace_context")
        if ctx is not None and not isinstance(ctx, TraceContext):
            kwargs["trace_context"] = TraceContext.from_mapping(ctx)
        return cls(**kwargs)


@dataclass(frozen=True)
class FleetSpec:
    """A declarative grid of jobs plus fleet runtime knobs.

    The grid is the cartesian product
    ``chips x scenarios x (governors [+ rl-policy]) x seeds``; every job
    shares the duration/interval/training settings.

    Attributes:
        scenarios: Scenario names (one axis of the grid).
        governors: Governor names (baselines and/or ``checkpoint:<dir>``).
        seeds: Evaluation seeds.
        chips: Chip preset names.
        include_rl: Append ``rl-policy`` to the governor axis (after the
            baselines, matching a sweep's row order).
        collect_metrics: Every job runs under a metrics-only
            observability session; snapshots come back per job and merge
            via :func:`repro.fleet.aggregate.merge_job_metrics`.
        trace_dir: Directory for per-job Chrome traces (see
            :attr:`JobSpec.trace_dir`); ``None`` disables tracing.
        learn_log_dir: Directory for per-job learning ledgers (see
            :attr:`JobSpec.learn_log_dir`); ``None`` disables them.
        jobs: Default worker-process count for
            :func:`repro.fleet.runner.run_fleet` (``None`` = CPU count).
        timeout_s: Per-job wall-clock timeout (``None`` = unlimited).
        retries: Extra attempts granted to a failed/timed-out job.
    """

    scenarios: tuple[str, ...]
    governors: tuple[str, ...]
    seeds: tuple[int, ...] = (100,)
    chips: tuple[str, ...] = ("exynos5422",)
    include_rl: bool = False
    duration_s: float = 20.0
    interval_s: float = 0.01
    train_episodes: int = 12
    train_base_seed: int = 0
    train_episode_s: float | None = None
    full_system: bool = False
    collect_metrics: bool = False
    trace_dir: str | None = None
    learn_log_dir: str | None = None
    jobs: int | None = 1
    timeout_s: float | None = None
    retries: int = 0

    def __post_init__(self) -> None:
        # Tolerate lists (e.g. parsed JSON) by freezing the axes.
        for name in ("scenarios", "governors", "seeds", "chips"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not self.scenarios:
            raise ReproError("fleet spec needs at least one scenario")
        if not self.governors and not self.include_rl:
            raise ReproError("fleet spec needs at least one governor")
        if not self.seeds:
            raise ReproError("fleet spec needs at least one seed")
        if not self.chips:
            raise ReproError("fleet spec needs at least one chip")
        if self.retries < 0:
            raise ReproError(f"retries must be non-negative: {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ReproError(f"timeout must be positive: {self.timeout_s}")
        if self.jobs is not None and self.jobs < 1:
            raise ReproError(f"worker count must be >= 1: {self.jobs}")

    @property
    def governor_axis(self) -> tuple[str, ...]:
        """The governor axis with ``rl-policy`` appended when requested."""
        if self.include_rl and RL_POLICY not in self.governors:
            return self.governors + (RL_POLICY,)
        return self.governors

    @property
    def n_jobs(self) -> int:
        """Grid size (number of jobs :meth:`expand` yields)."""
        return (
            len(self.chips)
            * len(self.scenarios)
            * len(self.governor_axis)
            * len(self.seeds)
        )

    def expand(self) -> list[JobSpec]:
        """The ordered job list: chip-major, then scenario, governor, seed."""
        specs: list[JobSpec] = []
        for chip in self.chips:
            for scenario in self.scenarios:
                for governor in self.governor_axis:
                    for seed in self.seeds:
                        specs.append(
                            JobSpec(
                                scenario=scenario,
                                governor=governor,
                                seed=seed,
                                chip=chip,
                                duration_s=self.duration_s,
                                interval_s=self.interval_s,
                                train_episodes=self.train_episodes,
                                train_base_seed=self.train_base_seed,
                                train_episode_s=self.train_episode_s,
                                full_system=self.full_system,
                                collect_metrics=self.collect_metrics,
                                trace_dir=self.trace_dir,
                                learn_log_dir=self.learn_log_dir,
                            )
                        )
        return specs

    def to_mapping(self) -> dict[str, Any]:
        """A JSON-serialisable dict (round-trips via :meth:`from_mapping`)."""
        data: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "FleetSpec":
        """Build a fleet spec from a mapping (e.g. a parsed JSON file).

        Raises:
            ReproError: For unknown keys.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown fleet spec keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)
