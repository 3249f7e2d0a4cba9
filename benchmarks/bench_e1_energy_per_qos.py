"""E1 — the headline table: average energy-per-QoS, RL vs six governors.

Paper claim: "The average energy per unit quality of service (QoS) of
the proposed policy is lower than that of the previous six dynamic
voltage/frequency scaling governors by 31.66%."

Shape target: RL wins against every governor; the mean-of-six
improvement lands in the paper's ~30% band (we require >= 20%).
Implementation: :func:`repro.experiments.e1_energy_per_qos`.
"""

from __future__ import annotations

from repro.experiments import e1_energy_per_qos
from repro.governors import BASELINE_SIX

from conftest import SWEEP_CONFIG, fleet_footer, write_result


def test_e1_energy_per_qos(benchmark, full_sweep, headline_fleet):
    result = benchmark.pedantic(
        e1_energy_per_qos, args=(full_sweep,), rounds=1, iterations=1
    )
    metrics = {
        "improvement_percent": result.improvement_percent,
        "mean_of_six_mj_per_unit": result.mean_of_six_j * 1e3,
        "rl_mj_per_unit": result.rl_j * 1e3,
        "fleet_wall_s": headline_fleet.wall_s,
        "fleet_serial_wall_estimate_s": headline_fleet.serial_wall_estimate_s,
        "fleet_speedup": headline_fleet.speedup,
    }
    for g in BASELINE_SIX:
        metrics[f"improvement_vs_{g}_percent"] = (
            result.per_governor_improvement[g]
        )
    write_result(
        "e1_energy_per_qos",
        result.report + "\n\n" + fleet_footer(headline_fleet),
        metrics=metrics,
        config=SWEEP_CONFIG,
    )
    for g in BASELINE_SIX:
        assert result.per_governor_improvement[g] > 0.0, g
    assert result.improvement_percent > 20.0
