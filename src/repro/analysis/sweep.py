"""Experiment sweeps: scenarios x governors, with RL training folded in.

This is the harness the E1/E2/E3 benches (and the examples) share: run
every baseline governor and the trained RL policy over every scenario,
on identical seeded traces, and collect the comparison rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import PolicyConfig
from repro.errors import ReproError
from repro.governors import create
from repro.power.model import PowerModel
from repro.qos.energy_per_qos import improvement_percent
from repro.sim.engine import Simulator
from repro.sim.result import SimulationResult
from repro.soc.chip import Chip
from repro.soc.presets import PRESETS
from repro.workload.scenarios import Scenario, get_scenario


@dataclass(frozen=True)
class SweepRow:
    """One (scenario, governor) cell of the comparison."""

    scenario: str
    governor: str
    energy_j: float
    mean_qos: float
    deadline_miss_rate: float
    energy_per_qos_j: float


@dataclass
class SweepResult:
    """All rows of a scenarios-x-governors sweep."""

    rows: list[SweepRow] = field(default_factory=list)

    def governors(self) -> list[str]:
        """Governor names present, in first-seen order."""
        seen: list[str] = []
        for row in self.rows:
            if row.governor not in seen:
                seen.append(row.governor)
        return seen

    def scenarios(self) -> list[str]:
        """Scenario names present, in first-seen order."""
        seen: list[str] = []
        for row in self.rows:
            if row.scenario not in seen:
                seen.append(row.scenario)
        return seen

    def cell(self, scenario: str, governor: str) -> SweepRow:
        """The row for one (scenario, governor) pair.

        Raises:
            ReproError: If the pair was not swept.
        """
        for row in self.rows:
            if row.scenario == scenario and row.governor == governor:
                return row
        raise ReproError(f"no sweep cell for ({scenario!r}, {governor!r})")

    def mean_energy_per_qos(self, governor: str) -> float:
        """Mean energy/QoS of one governor across all swept scenarios."""
        values = [r.energy_per_qos_j for r in self.rows if r.governor == governor]
        if not values:
            raise ReproError(f"governor {governor!r} not in sweep")
        return sum(values) / len(values)

    def improvement_over(self, baseline: str, proposed: str) -> float:
        """Percent reduction of mean energy/QoS, proposed vs. baseline."""
        return improvement_percent(
            self.mean_energy_per_qos(baseline), self.mean_energy_per_qos(proposed)
        )


def run_baseline(
    chip: Chip,
    scenario: Scenario,
    governor_name: str,
    duration_s: float = 30.0,
    seed: int = 100,
    interval_s: float = 0.01,
    power_model: PowerModel | None = None,
) -> SimulationResult:
    """Run one baseline governor on one scenario trace."""
    trace = scenario.trace(duration_s, seed=seed)
    sim = Simulator(
        chip,
        trace,
        lambda cluster: create(governor_name),
        power_model=power_model or PowerModel(),
        interval_s=interval_s,
    )
    return sim.run()


def sweep(
    chip: Chip,
    scenario_names: list[str],
    governor_names: list[str],
    include_rl: bool = True,
    duration_s: float = 30.0,
    eval_seed: int = 100,
    train_episodes: int = 12,
    policy_config: PolicyConfig | None = None,
    interval_s: float = 0.01,
    jobs: int = 1,
) -> SweepResult:
    """Run the full comparison grid through the fleet runner.

    For each scenario, every baseline governor runs on the *same* seeded
    evaluation trace; the RL policy is first trained on that scenario
    (seeds disjoint from the evaluation seed) and then evaluated greedily
    on the identical evaluation trace.  Every grid cell is one
    :mod:`repro.fleet` job, so the rows do not depend on ``jobs``.

    Args:
        chip: The MPSoC.  Each job rebuilds a preset chip from its name;
            a non-preset chip object is shipped to the jobs as is.
        scenario_names: Scenarios to sweep.
        governor_names: Baseline governors to sweep.
        include_rl: Whether to train and evaluate the proposed policy.
        duration_s: Evaluation trace length.
        eval_seed: Seed of the shared evaluation trace.
        train_episodes: RL training episodes per scenario.
        policy_config: RL policy configuration.
        interval_s: DVFS sampling interval.
        jobs: Worker processes; ``1`` runs in-process, ``0`` means the
            CPU count.

    Raises:
        ReproError: For an empty or unknown scenario, or if any grid
            cell fails.
    """
    # Deferred: repro.fleet.aggregate imports this module.
    from repro.fleet import FleetSpec, run_fleet

    if not scenario_names:
        raise ReproError("sweep needs at least one scenario")
    for name in scenario_names:
        get_scenario(name)  # fail fast, before any job runs
    job_specs = FleetSpec(
        scenarios=tuple(scenario_names),
        governors=tuple(governor_names),
        seeds=(eval_seed,),
        chips=(chip.name,),
        include_rl=include_rl,
        duration_s=duration_s,
        interval_s=interval_s,
        train_episodes=train_episodes,
    ).expand()
    chip_obj = None if chip.name in PRESETS else chip
    job_specs = [
        replace(j, chip_obj=chip_obj, policy_config=policy_config)
        for j in job_specs
    ]
    return run_fleet(job_specs, jobs=jobs).sweep_result()
