"""X1/X2 — robustness extensions: full-system realism and seed stability."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

from repro.analysis.repeat import RepeatedMeasure
from repro.analysis.tables import format_table
from repro.core.checkpoint import save_policies
from repro.core.trainer import train_policy
from repro.fleet import CHECKPOINT_PREFIX, FleetSpec, JobSpec, run_fleet
from repro.soc.presets import exynos5422
from repro.workload.scenarios import get_scenario

X1_GOVERNORS = ["performance", "ondemand", "conservative", "interactive",
                "schedutil", "scenario-aware"]
X1_SCENARIOS = ["gaming", "web_browsing", "camera_preview"]


@dataclass(frozen=True)
class X1Result:
    """X1: the comparison rerun with all realism subsystems enabled.

    Attributes:
        report: The rendered table.
        cells_j: energy/QoS per (scenario, policy-name); the RL policy is
            keyed ``"rl-policy"``.
        rl_qos: RL mean QoS per scenario.
    """

    report: str
    cells_j: dict[tuple[str, str], float]
    rl_qos: dict[str, float]

    def mean_j(self, policy: str) -> float:
        """Mean energy/QoS of one policy across the swept scenarios."""
        values = [v for (s, g), v in self.cells_j.items() if g == policy]
        return sum(values) / len(values)


def x1_full_system(
    scenario_names: list[str] | None = None,
    governor_names: list[str] | None = None,
    duration_s: float = 20.0,
    eval_seed: int = 100,
    train_episodes: int = 16,
    train_episode_s: float = 15.0,
    jobs: int = 1,
) -> X1Result:
    """Rerun the governor comparison inside the full-system simulator;
    the RL policy trains inside it too, so it learns with C-states,
    transition costs and thermals present.

    Every (scenario, policy) cell is one ``full_system`` job of
    :mod:`repro.fleet`, run over ``jobs`` worker processes (``1`` =
    in-process, ``0`` = CPU count).  The substrate has no DRAM model:
    DRAM power is common-mode across policies and only dilutes
    relative gaps.
    """
    scenario_names = scenario_names or list(X1_SCENARIOS)
    governor_names = governor_names or list(X1_GOVERNORS)
    fleet = run_fleet(
        FleetSpec(
            scenarios=tuple(scenario_names),
            governors=tuple(governor_names),
            seeds=(eval_seed,),
            include_rl=True,
            duration_s=duration_s,
            train_episodes=train_episodes,
            train_episode_s=train_episode_s,
            full_system=True,
        ),
        jobs=jobs,
    )
    fleet.raise_on_failure()
    cells: dict[tuple[str, str], float] = {}
    rl_qos: dict[str, float] = {}
    for s in fleet.successes:
        cells[(s.spec.scenario, s.spec.governor)] = s.energy_per_qos_j
        if s.spec.governor == "rl-policy":
            rl_qos[s.spec.scenario] = s.mean_qos
    rows = [
        [name]
        + [cells[(name, g)] * 1e3 for g in governor_names]
        + [cells[(name, "rl-policy")] * 1e3, rl_qos[name]]
        for name in scenario_names
    ]
    report = format_table(
        ["scenario"] + governor_names + ["rl-policy", "rl QoS"],
        rows,
        title=(
            "X1: energy/QoS [mJ/unit] with C-states + DVFS transition costs "
            "+ thermals enabled"
        ),
    )
    return X1Result(report=report, cells_j=cells, rl_qos=rl_qos)


@dataclass(frozen=True)
class X2Result:
    """X2: seed stability of the headline gap on one scenario.

    Attributes:
        report: The rendered mean +- CI table.
        measures: Per-policy :class:`RepeatedMeasure` of energy/QoS.
    """

    report: str
    measures: dict[str, RepeatedMeasure]


def x2_seed_stability(
    scenario_name: str = "gaming",
    governor_names: list[str] | None = None,
    eval_seeds: list[int] | None = None,
    duration_s: float = 20.0,
    train_episodes: int = 16,
    jobs: int = 1,
) -> X2Result:
    """Repeat the RL-vs-governors comparison across evaluation seeds.

    The policy is trained once and checkpointed to a temporary
    directory; every (policy, seed) evaluation is then one job of a
    single :mod:`repro.fleet` run over ``jobs`` worker processes (``1``
    = in-process, ``0`` = CPU count), and each RL job reloads the
    checkpoint.  The Q-tables round-trip losslessly, so the measures
    match an in-memory evaluation.
    """
    governor_names = governor_names or ["ondemand", "conservative", "interactive"]
    eval_seeds = eval_seeds or [100, 200, 300, 400, 500]
    training = train_policy(
        exynos5422(), get_scenario(scenario_name),
        episodes=train_episodes, episode_duration_s=duration_s,
    )

    with tempfile.TemporaryDirectory(prefix="repro-x2-") as checkpoint_dir:
        save_policies(training.policies, checkpoint_dir)
        labels = {CHECKPOINT_PREFIX + checkpoint_dir: "rl-policy"}
        labels.update((name, name) for name in governor_names)
        fleet = run_fleet(
            [
                JobSpec(scenario=scenario_name, governor=governor,
                        duration_s=duration_s, seed=seed)
                for governor in labels
                for seed in eval_seeds
            ],
            jobs=jobs,
        )
    fleet.raise_on_failure()
    measures = {
        label: RepeatedMeasure(values=tuple(
            s.energy_per_qos_j for s in fleet.successes
            if s.spec.governor == governor
        ))
        for governor, label in labels.items()
    }

    report = format_table(
        ["policy", "mean E/QoS [mJ/unit]", "95% CI ±"],
        [
            (name, m.mean * 1e3, m.ci_halfwidth * 1e3)
            for name, m in measures.items()
        ],
        title=(
            f"X2: {scenario_name} energy/QoS over {len(eval_seeds)} "
            "evaluation seeds"
        ),
    )
    return X2Result(report=report, measures=measures)
