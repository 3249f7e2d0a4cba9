"""Decision plans: which rollouts the batch backend can run, and how.

A governor is *table-free* when its decision sequence is known before
the rollout starts.  The three classic fixed-OPP kernel governors
qualify — ``performance`` pins the top operating point, ``powersave``
the bottom, ``userspace`` a fixed index (the middle of the table under
its default construction) — because their ``decide`` methods ignore the
observation entirely.  For those, the whole
decide → observe → decide feedback loop collapses to a constant, and
the per-interval engine machinery (governor dispatch, observation
construction, per-interval power evaluation) is replaced by
:func:`repro.batch.engine.run_fixed_opp`.

The reactive governors of :data:`REACTIVE_GOVERNORS` — ``ondemand``,
``conservative`` and ``interactive`` — are sequential: interval ``t``'s
decision depends on interval ``t-1``'s observation.  But each reads only
four observation fields, so :func:`repro.batch.engine.run_governor_pass`
runs one such job, calling the real ``decide`` on a four-field
observation and pricing power after the loop.

RL training jobs are sequential *within* a rollout but embarrassingly
parallel *across* rollouts: :func:`is_rl_vectorisable` and
:func:`rl_group_key` identify groups of ``rl-policy`` jobs that share
one chip preset, state geometry, and episode plan, so
:mod:`repro.batch.rl` can train them lock-step — one NumPy op per
interval across all rollouts — instead of one serial training loop per
job.

Everything else — other governors (``schedutil``, ``scenario-aware``),
checkpoints, full-system substrates, per-job trace files — runs through
the reference :class:`repro.sim.engine.Simulator` unchanged.  Whether a
run is observed plays no part: the plan depends on the specs alone.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.config import PolicyConfig
from repro.fleet.spec import JobSpec
from repro.governors.base import Governor
from repro.governors.conservative import ConservativeGovernor
from repro.governors.interactive import InteractiveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.soc.opp import OPPTable

#: Fixed-OPP index per table-free governor, given the cluster's OPP
#: table.  Each entry mirrors the governor's ``decide`` exactly:
#: ``performance`` returns ``n_opps - 1`` (== ``max_index``),
#: ``powersave`` returns 0, and a default-constructed ``userspace``
#: resolves to ``max_index // 2`` at reset.
_FIXED_OPP_PLANS: dict[str, Callable[[OPPTable], int]] = {
    "performance": lambda table: table.max_index,
    "powersave": lambda table: 0,
    "userspace": lambda table: table.max_index // 2,
}

TABLE_FREE_GOVERNORS = frozenset(_FIXED_OPP_PLANS)
"""Governor names whose decisions are observation-independent."""

REACTIVE_GOVERNORS: dict[str, type[Governor]] = {
    cls.name: cls
    for cls in (OndemandGovernor, ConservativeGovernor, InteractiveGovernor)
}
"""Reactive governors the governor pass runs, by registry name.

Each ``decide`` reads only ``max_core_utilization``, ``freq_hz``,
``opp_index`` and ``time_s`` of its observation and keeps none of it.
The pass admits a governor object only if its type is exactly the one
listed here: a subclass may read more."""


def fixed_opp_index(governor: str, table: OPPTable) -> int | None:
    """The constant OPP index ``governor`` would hold, or ``None``.

    ``None`` means the governor is not table-free (its decisions depend
    on observations) and the rollout must run sequentially.
    """
    plan = _FIXED_OPP_PLANS.get(governor)
    if plan is None:
        return None
    return table.clamp_index(plan(table))


def _plain_substrate(spec: JobSpec) -> bool:
    """Whether the job runs on the plain simulation substrate.

    Every fast path needs it: full-system extras (thermals, idle states,
    transition costs) change the per-interval coupling, a per-job trace
    file (``trace_dir``) holds the serial engine's ``engine.run`` span
    and ``governor.decide`` instants, and an in-memory ``chip_obj`` has
    no preset to rebuild from.  Metric collection does not matter: every
    path publishes the same ``sim.*`` counters.
    """
    return (
        not spec.full_system
        and spec.trace_dir is None
        and spec.chip_obj is None
    )


def is_vectorisable(spec: JobSpec) -> bool:
    """Whether the fixed-OPP fast path can run this job: a table-free
    governor, no ``policy_config``, on the plain substrate."""
    return (
        spec.governor in TABLE_FREE_GOVERNORS
        and spec.policy_config is None
        and _plain_substrate(spec)
    )


def is_reactive(spec: JobSpec) -> bool:
    """Whether the governor pass can run this job: a governor of
    :data:`REACTIVE_GOVERNORS`, no ``policy_config``, on the plain
    substrate."""
    return (
        spec.governor in REACTIVE_GOVERNORS
        and spec.policy_config is None
        and _plain_substrate(spec)
    )


def is_rl_vectorisable(spec: JobSpec) -> bool:
    """Whether the lock-step RL trainer can run this job.

    Requires an ``rl-policy`` job on the plain substrate.  Unlike
    :func:`is_vectorisable` this *allows* a ``policy_config`` (per-job
    hyperparameters vectorise fine) and a ``learn_log_dir`` (the ledger
    recorder only reads learner state between episodes); ``full_system``
    RL learns inside the full-system simulator and stays serial.
    """
    return spec.is_rl and _plain_substrate(spec)


def rl_group_key(spec: JobSpec) -> Hashable:
    """What must match for RL jobs to share one lock-step pass.

    Lanes in a group share interval edges, episode boundaries, and one
    population Q-table per cluster, so everything that shapes those —
    chip preset, timing, episode plan, and the policy's state/action
    geometry — is part of the key.  Seeds and learning-rate style
    hyperparameters deliberately are not: they vary per lane.
    """
    cfg = spec.policy_config or PolicyConfig()
    return (
        spec.chip,
        spec.interval_s,
        spec.duration_s,
        spec.train_episodes,
        spec.train_episode_s or spec.duration_s,
        cfg.util_bins, cfg.trend_bins, cfg.opp_bins, cfg.slack_bins,
        cfg.n_actions,
    )
