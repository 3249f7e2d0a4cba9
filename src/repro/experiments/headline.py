"""E1/E2/E3 — the headline comparison experiments.

All three experiments view one underlying computation — the
scenarios x governors sweep with the RL policy trained per scenario —
through different lenses: E1 averages energy/QoS per governor, E2 breaks
it down per scenario, E3 reports the QoS side.  ``run_headline_sweep``
produces the shared data; the three report builders are pure functions
over it, so callers (benches, notebooks) pay for the sweep once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import mean
from repro.analysis.sweep import SweepResult, sweep
from repro.analysis.tables import format_table
from repro.core.config import PolicyConfig
from repro.governors import BASELINE_SIX
from repro.qos.energy_per_qos import improvement_percent
from repro.soc.chip import Chip
from repro.soc.presets import exynos5422
from repro.workload.scenarios import EVALUATION_SET

PAPER_IMPROVEMENT_PERCENT = 31.66
"""The journal abstract's claimed mean energy/QoS reduction."""


def run_headline_sweep(
    chip: Chip | None = None,
    scenario_names: list[str] | None = None,
    governor_names: list[str] | None = None,
    duration_s: float = 20.0,
    eval_seed: int = 100,
    train_episodes: int = 20,
    policy_config: PolicyConfig | None = None,
    jobs: int = 1,
) -> SweepResult:
    """The E1/E2/E3 data: six baselines + the RL policy over the
    evaluation scenario set (see DESIGN.md E1-E3).

    The grid runs through :mod:`repro.fleet` over ``jobs`` worker
    processes (``1`` = in-process, ``0`` = CPU count); the rows do not
    depend on ``jobs``.
    """
    return sweep(
        chip or exynos5422(),
        scenario_names or list(EVALUATION_SET),
        governor_names or list(BASELINE_SIX),
        include_rl=True,
        duration_s=duration_s,
        eval_seed=eval_seed,
        train_episodes=train_episodes,
        policy_config=policy_config,
        jobs=jobs,
    )


@dataclass(frozen=True)
class E1Result:
    """E1: mean energy/QoS per governor and the headline improvement.

    Attributes:
        report: The rendered table + improvement lines.
        mean_of_six_j: Mean energy/QoS of the six baselines [J/unit].
        rl_j: The RL policy's mean energy/QoS [J/unit].
        improvement_percent: The headline number (paper: 31.66).
        per_governor_improvement: RL's improvement over each baseline.
    """

    report: str
    mean_of_six_j: float
    rl_j: float
    improvement_percent: float
    per_governor_improvement: dict[str, float]


def e1_energy_per_qos(result: SweepResult) -> E1Result:
    """Build the E1 headline comparison from a sweep."""
    rows = [
        (governor, result.mean_energy_per_qos(governor) * 1e3)
        for governor in result.governors()
    ]
    baselines = [g for g in result.governors() if g != "rl-policy"]
    mean_six = mean([result.mean_energy_per_qos(g) for g in baselines])
    rl = result.mean_energy_per_qos("rl-policy")
    gain = improvement_percent(mean_six, rl)
    per_gov = {g: result.improvement_over(g, "rl-policy") for g in baselines}
    lines = [
        format_table(
            ["governor", "mean E/QoS [mJ/unit]"],
            rows,
            title="E1: average energy per unit QoS (six-scenario evaluation set)",
        ),
        "",
        f"mean of the six previous governors: {mean_six * 1e3:.3f} mJ/unit",
        f"proposed RL policy:                 {rl * 1e3:.3f} mJ/unit",
        f"improvement vs mean-of-six:         {gain:.2f}%  "
        f"(paper: {PAPER_IMPROVEMENT_PERCENT}%)",
        "",
        "per-governor improvement of the RL policy:",
    ]
    for g, v in per_gov.items():
        lines.append(f"  vs {g:<13s} {v:7.2f}%")
    return E1Result(
        report="\n".join(lines),
        mean_of_six_j=mean_six,
        rl_j=rl,
        improvement_percent=gain,
        per_governor_improvement=per_gov,
    )


@dataclass(frozen=True)
class E2Result:
    """E2: the per-scenario breakdown.

    Attributes:
        report: The rendered scenario x governor table.
        cells_j: energy/QoS per (scenario, governor) [J/unit].
    """

    report: str
    cells_j: dict[tuple[str, str], float]

    def rl_within(self, scenario: str, factor: float) -> bool:
        """Whether RL is within ``factor`` of the best baseline there."""
        rl = self.cells_j[(scenario, "rl-policy")]
        best = min(
            v for (s, g), v in self.cells_j.items()
            if s == scenario and g != "rl-policy"
        )
        return rl <= best * factor


def e2_per_scenario(result: SweepResult) -> E2Result:
    """Build the E2 per-scenario breakdown from a sweep."""
    governors = result.governors()
    rows = []
    cells: dict[tuple[str, str], float] = {}
    for scenario in result.scenarios():
        row = [scenario]
        for g in governors:
            value = result.cell(scenario, g).energy_per_qos_j
            cells[(scenario, g)] = value
            row.append(value * 1e3)
        rows.append(row)
    report = format_table(
        ["scenario"] + governors,
        rows,
        title="E2: energy per unit QoS [mJ/unit] by scenario and governor",
    )
    return E2Result(report=report, cells_j=cells)


@dataclass(frozen=True)
class E3Result:
    """E3: QoS preservation.

    Attributes:
        report: The rendered table.
        mean_qos: Mean QoS per governor across scenarios.
        miss_rate: Mean deadline-miss rate per governor.
        mean_energy_j: Mean energy per governor.
    """

    report: str
    mean_qos: dict[str, float]
    miss_rate: dict[str, float]
    mean_energy_j: dict[str, float]


def e3_qos_preservation(result: SweepResult) -> E3Result:
    """Build the E3 QoS-preservation view from a sweep."""
    mean_qos: dict[str, float] = {}
    miss: dict[str, float] = {}
    energy: dict[str, float] = {}
    rows = []
    for governor in result.governors():
        cells = [r for r in result.rows if r.governor == governor]
        mean_qos[governor] = mean([c.mean_qos for c in cells])
        miss[governor] = mean([c.deadline_miss_rate for c in cells])
        energy[governor] = mean([c.energy_j for c in cells])
        rows.append(
            (governor, mean_qos[governor], miss[governor] * 100, energy[governor])
        )
    report = format_table(
        ["governor", "mean QoS", "miss rate [%]", "mean energy [J]"],
        rows,
        title="E3: QoS preservation across the evaluation set",
    )
    return E3Result(report=report, mean_qos=mean_qos, miss_rate=miss,
                    mean_energy_j=energy)
