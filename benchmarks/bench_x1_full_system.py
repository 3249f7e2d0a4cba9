"""X1 — full-system realism check (extension).

Reruns the RL-vs-reactive comparison with cpuidle C-states, DVFS
transition costs, and thermals enabled (the RL policy trains inside the
full-system simulator too).  Shape target: the headline conclusion
survives the added realism.  Implementation:
:func:`repro.experiments.x1_full_system`.
"""

from __future__ import annotations

from repro.experiments import x1_full_system
from repro.qos.energy_per_qos import improvement_percent

from conftest import write_result


def test_x1_full_system(benchmark):
    result = benchmark.pedantic(x1_full_system, rounds=1, iterations=1)
    metrics = {
        f"{g}.mean_energy_per_qos_j": result.mean_j(g)
        for g in ("rl-policy", "performance", "ondemand", "interactive")
    }
    for scenario, qos in result.rl_qos.items():
        metrics[f"{scenario}.rl_qos"] = qos
    write_result("x1_full_system", result.report, metrics=metrics, config={})
    rl_mean = result.mean_j("rl-policy")
    for g in ("performance", "ondemand", "interactive"):
        gain = improvement_percent(result.mean_j(g), rl_mean)
        assert gain > 0.0, f"RL loses to {g} under full-system realism"
    for scenario, qos in result.rl_qos.items():
        assert qos > 0.93, f"QoS compromised on {scenario}"
