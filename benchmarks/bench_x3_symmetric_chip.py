"""X3 — cross-chip generality: the symmetric-CPU system (extension).

The companion paper evaluates on both asymmetric (big.LITTLE) and
symmetric multicore CPUs; the policy must not depend on heterogeneity.
This bench reruns the comparison on the single-cluster
``symmetric_quad`` preset.  Shape target: the RL policy still beats the
reactive governors' mean on the symmetric chip.
"""

from __future__ import annotations

from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.experiments import run_headline_sweep
from repro.qos.energy_per_qos import improvement_percent
from repro.soc.presets import symmetric_quad

from conftest import write_result

GOVERNORS = ["performance", "powersave", "ondemand", "conservative", "interactive"]
SCENARIOS = ["web_browsing", "video_playback", "camera_preview"]


def _run():
    return run_headline_sweep(
        chip=symmetric_quad(),
        scenario_names=SCENARIOS,
        governor_names=GOVERNORS,
        duration_s=20.0,
        train_episodes=16,
    )


def _report(result) -> str:
    rows = []
    for scenario in result.scenarios():
        rows.append(
            [scenario]
            + [result.cell(scenario, g).energy_per_qos_j * 1e3
               for g in result.governors()]
        )
    table = format_table(
        ["scenario"] + result.governors(),
        rows,
        title="X3: energy/QoS [mJ/unit] on the symmetric quad-core chip",
    )
    baseline_mean = mean([result.mean_energy_per_qos(g) for g in GOVERNORS])
    rl = result.mean_energy_per_qos("rl-policy")
    gain = improvement_percent(baseline_mean, rl)
    return table + (
        f"\n\nimprovement vs the baselines' mean: {gain:.2f}% "
        "(companion paper reports symmetric-CPU savings too)"
    )


def test_x3_symmetric_chip(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    baseline_mean = mean([result.mean_energy_per_qos(g) for g in GOVERNORS])
    rl = result.mean_energy_per_qos("rl-policy")
    metrics = {
        f"{g}.mean_energy_per_qos_j": result.mean_energy_per_qos(g)
        for g in GOVERNORS + ["rl-policy"]
    }
    metrics["improvement_percent"] = improvement_percent(baseline_mean, rl)
    write_result("x3_symmetric_chip", _report(result), metrics=metrics,
                 config={})
    assert improvement_percent(baseline_mean, rl) > 10.0
    # QoS intact on every scenario.
    for scenario in result.scenarios():
        assert result.cell(scenario, "rl-policy").mean_qos > 0.93, scenario