"""A1/A2/A3 — design-choice ablations: state features, reward weight,
and TD learner.  Each ``rl-policy`` variant is a job spec on the batch
backend; A3's SARSA and double-Q, which the lock-step runner refuses,
train on the serial engine."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.batch import run_batch
from repro.core.config import PolicyConfig
from repro.core.policy import (
    DoubleQPowerManagementPolicy,
    SarsaPowerManagementPolicy,
)
from repro.core.trainer import evaluate_policy, train_policy
from repro.fleet import RL_POLICY, JobSpec
from repro.governors.userspace import UserspaceGovernor
from repro.sim.engine import Simulator
from repro.sim.result import SimulationResult
from repro.soc.presets import exynos5422
from repro.workload.scenarios import get_scenario

DEFAULT_STATE_VARIANTS: dict[str, PolicyConfig] = {
    "full": PolicyConfig(),
    "no-trend": PolicyConfig(trend_bins=1),
    "no-slack": PolicyConfig(slack_bins=1),
    "no-opp": PolicyConfig(opp_bins=1),
    "util-only": PolicyConfig(trend_bins=1, slack_bins=1, opp_bins=1),
}
"""The A1 feature-knockout configurations."""


def _rl_runs(
    configs: list[PolicyConfig | None],
    scenario_name: str,
    train_episodes: int,
    episode_duration_s: float,
    eval_seed: int,
) -> list[SimulationResult]:
    """One greedy evaluation per config of a policy trained on
    ``scenario_name`` (episode ``k`` on trace seed ``k``), in order."""
    return run_batch([
        JobSpec(scenario_name, RL_POLICY, seed=eval_seed,
                duration_s=episode_duration_s, train_episodes=train_episodes,
                policy_config=config)
        for config in configs
    ])


@dataclass(frozen=True)
class A1Result:
    """A1: state-feature ablation runs keyed by variant name."""

    report: str
    results: dict[str, SimulationResult]


def a1_state_ablation(
    variants: dict[str, PolicyConfig] | None = None,
    scenario_name: str = "gaming",
    train_episodes: int = 14,
    episode_duration_s: float = 15.0,
    eval_seed: int = 100,
) -> A1Result:
    """Retrain with individual state features disabled."""
    variants = variants or DEFAULT_STATE_VARIANTS
    results = dict(zip(variants, _rl_runs(
        list(variants.values()), scenario_name, train_episodes,
        episode_duration_s, eval_seed,
    )))
    report = format_table(
        ["state variant", "energy [J]", "QoS", "E/QoS [mJ/unit]"],
        [
            (name, r.total_energy_j, r.qos.mean_qos, r.energy_per_qos_j * 1e3)
            for name, r in results.items()
        ],
        title=f"A1: state-feature ablation ({scenario_name})",
    )
    return A1Result(report=report, results=results)


@dataclass(frozen=True)
class A2Result:
    """A2: reward-weight sweep runs keyed by lambda."""

    report: str
    results: dict[float, SimulationResult]


def a2_reward_sweep(
    lambdas: list[float] | None = None,
    scenario_name: str = "gaming",
    train_episodes: int = 14,
    episode_duration_s: float = 15.0,
    eval_seed: int = 100,
) -> A2Result:
    """Sweep the QoS weight of the reward."""
    lambdas = lambdas if lambdas is not None else [0.0, 0.25, 1.0, 4.0, 16.0]
    results = dict(zip(lambdas, _rl_runs(
        [PolicyConfig(lambda_qos=lam) for lam in lambdas], scenario_name,
        train_episodes, episode_duration_s, eval_seed,
    )))
    report = format_table(
        ["lambda_qos", "energy [J]", "QoS", "miss [%]", "E/QoS [mJ/unit]"],
        [
            (lam, r.total_energy_j, r.qos.mean_qos,
             r.qos.deadline_miss_rate * 100, r.energy_per_qos_j * 1e3)
            for lam, r in results.items()
        ],
        title=f"A2: reward-weight sweep ({scenario_name})",
    )
    return A2Result(report=report, results=results)


@dataclass(frozen=True)
class A3Result:
    """A3: learner comparison plus the peeking static oracle."""

    report: str
    learners: dict[str, SimulationResult]
    oracle: SimulationResult


def static_oracle(trace, opp_stride: int = 2) -> SimulationResult:
    """Best fixed (per-cluster) userspace OPP setting found by exhaustive
    search **on the evaluation trace itself** — an unrealisable bound.

    Args:
        trace: The evaluation trace (the oracle gets to peek at it).
        opp_stride: Search every ``opp_stride``-th index to bound cost.
    """
    chip = exynos5422()
    ranges = [
        range(0, len(c.spec.opp_table), opp_stride) for c in chip.clusters
    ]
    best: SimulationResult | None = None
    for combo in itertools.product(*ranges):
        governors = {
            c.spec.name: UserspaceGovernor(idx)
            for c, idx in zip(chip.clusters, combo)
        }
        run = Simulator(chip, trace, governors).run()
        if best is None or run.energy_per_qos_j < best.energy_per_qos_j:
            best = run
    assert best is not None
    return best


def a3_learner_ablation(
    scenario_name: str = "gaming",
    train_episodes: int = 14,
    episode_duration_s: float = 15.0,
    eval_seed: int = 100,
) -> A3Result:
    """Q-learning vs SARSA vs double Q vs the static oracle."""
    scenario = get_scenario(scenario_name)
    trace = scenario.trace(episode_duration_s, seed=eval_seed)
    [q_run] = _rl_runs(
        [None], scenario_name, train_episodes, episode_duration_s, eval_seed
    )
    learners = {"Q-learning (paper)": q_run}
    chip = exynos5422()
    for label, cls in [
        ("SARSA", SarsaPowerManagementPolicy),
        ("double Q-learning", DoubleQPowerManagementPolicy),
    ]:
        training = train_policy(
            chip, scenario, episodes=train_episodes,
            episode_duration_s=episode_duration_s,
            policies={
                name: cls(PolicyConfig(seed=1000 * i))
                for i, name in enumerate(chip.cluster_names)
            },
        )
        learners[label] = evaluate_policy(chip, training.policies, trace)
    oracle = static_oracle(trace)

    rows = [
        (label, r.total_energy_j, r.qos.mean_qos, r.energy_per_qos_j * 1e3)
        for label, r in learners.items()
    ]
    rows.append(
        ("static oracle", oracle.total_energy_j, oracle.qos.mean_qos,
         oracle.energy_per_qos_j * 1e3)
    )
    report = format_table(
        ["learner", "energy [J]", "QoS", "E/QoS [mJ/unit]"],
        rows,
        title=f"A3: learner ablation ({scenario_name})",
    )
    return A3Result(report=report, learners=learners, oracle=oracle)
