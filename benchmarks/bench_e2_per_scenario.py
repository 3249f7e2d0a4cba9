"""E2 — per-scenario energy-per-QoS breakdown (the comparison figure).

Shape target: in every scenario the RL policy beats (or ties within 2%)
each canonical dynamic governor, and stays within 15% of the best
baseline overall — a per-scenario lucky *static* pick (userspace at just
the right OPP) may edge it out on an individual scenario, as long as RL
is never far behind.  Implementation:
:func:`repro.experiments.e2_per_scenario`.
"""

from __future__ import annotations

from repro.experiments import e2_per_scenario

from conftest import SWEEP_CONFIG, fleet_footer, write_result

DYNAMIC_GOVERNORS = ("performance", "powersave", "ondemand", "interactive")


def test_e2_per_scenario(benchmark, full_sweep, headline_fleet):
    result = benchmark.pedantic(
        e2_per_scenario, args=(full_sweep,), rounds=1, iterations=1
    )
    metrics = {
        f"{scenario}:{governor}:mj_per_unit": value * 1e3
        for (scenario, governor), value in result.cells_j.items()
    }
    metrics["fleet_speedup"] = headline_fleet.speedup
    write_result(
        "e2_per_scenario",
        result.report + "\n\n" + fleet_footer(headline_fleet),
        metrics=metrics,
        config=SWEEP_CONFIG,
    )
    for scenario in full_sweep.scenarios():
        rl = result.cells_j[(scenario, "rl-policy")]
        for g in DYNAMIC_GOVERNORS:
            assert rl <= result.cells_j[(scenario, g)] * 1.02, (scenario, g)
        assert result.rl_within(scenario, 1.15), scenario
