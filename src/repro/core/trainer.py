"""Episode-based training and evaluation drivers for the RL policy.

The paper's policy learns online; for reproducible tables we train it
over a fixed number of episodes of a scenario (each episode a fresh
seeded trace) and then evaluate greedily on a held-out seed.
:func:`train_lanes` is the one episode loop: :func:`train_policy` runs
it over one lane on the serial engine, the bit-identity reference, and
:func:`repro.batch.rl.train_policy_batch` over lock-step lanes, one or
many.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.config import PolicyConfig
from repro.core.policy import RLPowerManagementPolicy
from repro.errors import PolicyError
from repro.obs import OBS, ObsSession, use
from repro.obs.learn import LearnRecorder, learn_record
from repro.power.model import PowerModel
from repro.rl.stats import TDErrorStats
from repro.sim.engine import Simulator
from repro.sim.result import SimulationResult
from repro.soc.chip import Chip
from repro.workload.scenarios import Scenario
from repro.workload.trace import Trace


@dataclass(frozen=True)
class EpisodeRecord:
    """Summary of one training episode.

    The convergence fields (``td_error_mean_abs``, ``epsilon``,
    ``reward``) aggregate over the episode's updates across all
    clusters' policies — the per-episode curve the paper's E5 experiment
    and ``repro trace`` report.
    """

    episode: int
    total_energy_j: float
    mean_qos: float
    energy_per_qos_j: float
    q_coverage: float
    td_error_mean_abs: float = 0.0
    epsilon: float = 0.0
    reward: float = 0.0


@dataclass
class TrainingResult:
    """Outcome of :func:`train_policy`.

    Attributes:
        policies: One trained policy per cluster name; still in online
            mode (set ``online=False`` to freeze, or use
            :func:`evaluate_policy`).
        history: Per-episode learning curve (E5's data).
    """

    policies: dict[str, RLPowerManagementPolicy]
    history: list[EpisodeRecord] = field(default_factory=list)


def make_policies(
    chip: Chip, config: PolicyConfig | None = None
) -> dict[str, RLPowerManagementPolicy]:
    """One fresh policy instance per cluster, with decorrelated seeds."""
    base = (config or PolicyConfig()).seed
    policies: dict[str, RLPowerManagementPolicy] = {}
    for i, name in enumerate(chip.cluster_names):
        cfg = config or PolicyConfig()
        if i > 0:
            # Decorrelate exploration across clusters.  replace() keeps
            # every other field — including ones added later — intact.
            cfg = replace(cfg, seed=base + 1000 * i)
        policies[name] = RLPowerManagementPolicy(cfg, online=True)
    return policies


@dataclass
class RLTrainJob:
    """One training job: :func:`train_policy`'s arguments for fresh
    policies (:func:`make_policies`), under the same names."""

    chip: Chip
    scenario: Scenario
    episodes: int = 12
    episode_duration_s: float = 30.0
    base_seed: int = 0
    config: PolicyConfig | None = None
    interval_s: float = 0.01
    power_model: PowerModel | None = None
    recorder: LearnRecorder | None = None


RunEpisode = Callable[[list[Trace], bool], list[SimulationResult]]
"""Runs one episode of every lane, given each lane's trace and whether
the policies learn; returns one result per lane."""


def train_policy(
    chip: Chip,
    scenario: Scenario,
    episodes: int = 12,
    episode_duration_s: float = 30.0,
    base_seed: int = 0,
    config: PolicyConfig | None = None,
    interval_s: float = 0.01,
    power_model: PowerModel | None = None,
    policies: dict[str, RLPowerManagementPolicy] | None = None,
    recorder: LearnRecorder | None = None,
    episode_offset: int = 0,
) -> TrainingResult:
    """Train the RL policy on a scenario over several episodes.

    Args:
        chip: The MPSoC to control.
        scenario: Workload scenario; each episode draws a fresh seed.
        episodes: Number of training episodes.
        episode_duration_s: Simulated seconds per episode.
        base_seed: First trace seed; episode ``k`` uses ``base_seed + k``.
        config: Policy configuration (shared across clusters).
        interval_s: DVFS sampling interval.
        power_model: Chip power model (default model when omitted).
        policies: Pre-existing policies to continue training (e.g. for
            curriculum over several scenarios); fresh ones when omitted.
        recorder: Learning ledger to append one record per episode to.
            Training is bit-identical with or without one — the
            recorder only *reads* learner state (greedy snapshots,
            Q norms, TD statistics) after each episode.
        episode_offset: Added to the ledger's ``episode`` field so
            curriculum stages and resumed runs keep a global index
            (the returned history stays zero-based regardless).

    Returns:
        A :class:`TrainingResult` with the per-episode learning curve.
    """
    policies = policies or make_policies(chip, config)
    missing = set(chip.cluster_names) - set(policies)
    if missing:
        raise PolicyError(f"no policy for clusters: {sorted(missing)}")
    power_model = power_model or PowerModel()

    def run_episode(traces: list[Trace], online: bool) -> list[SimulationResult]:
        return [
            Simulator(chip, trace, policies, power_model=power_model,
                      interval_s=interval_s).run()
            for trace in traces
        ]

    job = RLTrainJob(chip, scenario, episodes, episode_duration_s, base_seed,
                     config, interval_s, power_model, recorder)
    [result] = train_lanes([job], [policies], run_episode,
                           episode_offset=episode_offset)
    return result


def train_lanes(
    jobs: Sequence[RLTrainJob],
    policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
    run_episode: RunEpisode,
    sessions: Sequence[ObsSession | None] | None = None,
    episode_offset: int = 0,
) -> list[TrainingResult]:
    """The episode loop every trainer shares: one lane on the serial
    engine (:func:`train_policy`), or lock-step lanes, one or many
    (:func:`repro.batch.rl.train_policy_batch`).

    Per episode it draws each lane's trace, has ``run_episode`` run them
    all, and keeps each lane's books: its history record and reward
    delta, its ``rl.*`` metrics and ``rl.episode`` instant (under its
    own session), and its ledger row with the greedy-action churn.  The
    greedy snapshots start before the first ``run_episode`` call, so a
    lane whose agents that call binds reports 0.0 churn after its first
    episode.

    Args:
        jobs: The lanes; all run ``jobs[0].episodes`` episodes.
        policies_by_lane: Per lane, the policies being trained.
        run_episode: Runs one online episode of every lane.
        sessions: Per lane, the observability session that receives its
            episode metrics (``None``: the active one).
        episode_offset: Added to the ledger's ``episode`` field.

    Raises:
        PolicyError: On fewer than one episode.
    """
    episodes = jobs[0].episodes
    if episodes < 1:
        raise PolicyError(f"need at least one episode: {episodes}")
    sessions = list(sessions or [None] * len(jobs))
    prev_greedy = [
        _greedy_snapshot(policies) if job.recorder is not None else None
        for job, policies in zip(jobs, policies_by_lane)
    ]
    reward_before = [
        sum(p.cumulative_reward for p in policies.values())
        for policies in policies_by_lane
    ]
    histories: list[list[EpisodeRecord]] = [[] for _ in jobs]
    for episode in range(episodes):
        traces = [
            job.scenario.trace(job.episode_duration_s,
                               seed=job.base_seed + episode)
            for job in jobs
        ]
        results = run_episode(traces, True)
        for k, (job, policies) in enumerate(zip(jobs, policies_by_lane)):
            record = _episode_record(episode, results[k], policies,
                                     reward_before[k])
            reward_before[k] += record.reward
            histories[k].append(record)
            with use(sessions[k]):
                _emit_episode_obs(record)
            before = prev_greedy[k]
            if job.recorder is not None and before is not None:
                greedy = _greedy_snapshot(policies)
                _record_episode(
                    job.recorder, record, policies, job.scenario.name,
                    churn=_policy_churn(before, greedy),
                    episode_offset=episode_offset,
                )
                prev_greedy[k] = greedy
    return [
        TrainingResult(policies=policies, history=history)
        for policies, history in zip(policies_by_lane, histories)
    ]


def _greedy_snapshot(
    policies: dict[str, RLPowerManagementPolicy],
) -> dict[str, np.ndarray]:
    """Greedy action per state for every bound policy's Q-table."""
    return {
        name: np.argmax(p.agent.table.values, axis=1)
        for name, p in policies.items()
        if p.agent is not None
    }


def _policy_churn(
    before: dict[str, np.ndarray], after: dict[str, np.ndarray]
) -> float:
    """Fraction of states whose greedy action changed between snapshots.

    Measured over the clusters present in both snapshots; a policy whose
    table only came into existence this episode contributes nothing (the
    first episode of a fresh run therefore reports 0.0 churn).
    """
    changed = 0
    total = 0
    for name, current in after.items():
        prev = before.get(name)
        if prev is None or prev.shape != current.shape:
            continue
        changed += int(np.count_nonzero(prev != current))
        total += int(current.size)
    return changed / total if total else 0.0


def _record_episode(
    recorder: LearnRecorder,
    record: EpisodeRecord,
    policies: dict[str, RLPowerManagementPolicy],
    scenario_name: str,
    churn: float,
    episode_offset: int,
) -> None:
    """Append one episode's learning record to the ledger."""
    sq = 0.0
    peak = 0.0
    merged = TDErrorStats()
    for p in policies.values():
        if p.agent is None:
            continue
        values = p.agent.table.values
        sq += float(np.sum(values * values))
        peak = max(peak, float(np.max(np.abs(values))))
        merged = merged.merge(p.agent.td_stats)
    recorder.log(learn_record(
        episode=episode_offset + record.episode,
        scenario=scenario_name,
        reward=record.reward,
        td_error_mean_abs=record.td_error_mean_abs,
        td_error_var=merged.variance,
        epsilon=record.epsilon,
        q_norm_l2=math.sqrt(sq),
        q_max_abs=peak,
        coverage=record.q_coverage,
        churn=churn,
        energy_per_qos_j=record.energy_per_qos_j,
        mean_qos=record.mean_qos,
        updates=merged.count,
    ))


def _episode_record(
    episode: int,
    result: SimulationResult,
    policies: dict[str, RLPowerManagementPolicy],
    reward_before: float,
) -> EpisodeRecord:
    """One episode's summary, with cross-cluster convergence aggregates."""
    snapshots = [p.convergence_snapshot() for p in policies.values()]
    updates = sum(s["updates"] for s in snapshots)
    td_mean = (
        sum(s["td_error_mean_abs"] * s["updates"] for s in snapshots) / updates
        if updates
        else 0.0
    )
    reward_now = sum(p.cumulative_reward for p in policies.values())
    return EpisodeRecord(
        episode=episode,
        total_energy_j=result.total_energy_j,
        mean_qos=result.qos.mean_qos,
        energy_per_qos_j=result.energy_per_qos_j,
        q_coverage=max(s["q_coverage"] for s in snapshots),
        td_error_mean_abs=td_mean,
        epsilon=max(s["epsilon"] for s in snapshots),
        reward=reward_now - reward_before,
    )


def _emit_episode_obs(record: EpisodeRecord) -> None:
    """Publish one episode's convergence metrics when observability is on."""
    if not OBS.enabled:
        return
    m = OBS.metrics
    m.counter("rl.episodes").inc()
    m.histogram("rl.td_error_mean_abs").observe(record.td_error_mean_abs)
    m.gauge("rl.epsilon").set(record.epsilon)
    m.gauge("rl.q_coverage").set(record.q_coverage)
    m.gauge("rl.last_episode_reward").set(record.reward)
    OBS.tracer.instant(
        "rl.episode",
        cat="rl",
        episode=record.episode,
        td_error_mean_abs=record.td_error_mean_abs,
        epsilon=record.epsilon,
        q_coverage=record.q_coverage,
        reward=record.reward,
        energy_per_qos_j=record.energy_per_qos_j,
        mean_qos=record.mean_qos,
    )


def train_curriculum(
    chip: Chip,
    scenarios: list[Scenario],
    episodes_per_scenario: int = 8,
    episode_duration_s: float = 20.0,
    base_seed: int = 0,
    config: PolicyConfig | None = None,
    interval_s: float = 0.01,
    power_model: PowerModel | None = None,
    recorder: LearnRecorder | None = None,
) -> TrainingResult:
    """Train one policy set across several scenarios in sequence.

    The same policies carry their Q-tables through the whole curriculum,
    producing a generalist (the paper's "regardless of the application
    scenario" deployment mode) rather than a per-scenario specialist.
    The returned history concatenates all scenarios' episodes; seeds are
    offset per scenario so no trace repeats.  When a ``recorder`` is
    given, ledger episodes carry the concatenated (global) index.

    Raises:
        PolicyError: On an empty curriculum.
    """
    if not scenarios:
        raise PolicyError("curriculum needs at least one scenario")
    policies = make_policies(chip, config)
    history: list[EpisodeRecord] = []
    for i, scenario in enumerate(scenarios):
        result = train_policy(
            chip,
            scenario,
            episodes=episodes_per_scenario,
            episode_duration_s=episode_duration_s,
            base_seed=base_seed + 10_000 * i,
            config=config,
            interval_s=interval_s,
            power_model=power_model,
            policies=policies,
            recorder=recorder,
            episode_offset=len(history),
        )
        offset = len(history)
        history.extend(
            replace(r, episode=offset + r.episode) for r in result.history
        )
    return TrainingResult(policies=policies, history=history)


def evaluate_policy(
    chip: Chip,
    policies: dict[str, RLPowerManagementPolicy],
    trace: Trace,
    interval_s: float = 0.01,
    power_model: PowerModel | None = None,
    record_samples: bool = False,
) -> SimulationResult:
    """Run trained policies greedily (no exploration, no updates).

    The online flags are restored afterwards, so training can continue.
    """
    with frozen_policies(policies):
        sim = Simulator(
            chip,
            trace,
            policies,
            power_model=power_model or PowerModel(),
            interval_s=interval_s,
            record_samples=record_samples,
        )
        return sim.run()


@contextmanager
def frozen_policies(
    policies: Mapping[str, RLPowerManagementPolicy],
) -> Iterator[None]:
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
