"""E3 — QoS preservation: savings "without compromising user satisfaction".

Shape target: the RL policy's QoS is at or above the level of the
practical reactive governors (ondemand/interactive class) at lower mean
energy, and far above powersave.  Implementation:
:func:`repro.experiments.e3_qos_preservation`.
"""

from __future__ import annotations

from repro.experiments import e3_qos_preservation

from conftest import SWEEP_CONFIG, write_result


def test_e3_qos_preservation(benchmark, full_sweep):
    result = benchmark.pedantic(
        e3_qos_preservation, args=(full_sweep,), rounds=1, iterations=1
    )
    metrics: dict[str, float] = {}
    for governor in result.mean_qos:
        metrics[f"{governor}:mean_qos"] = result.mean_qos[governor]
        metrics[f"{governor}:miss_rate"] = result.miss_rate[governor]
        metrics[f"{governor}:mean_energy_j"] = result.mean_energy_j[governor]
    write_result("e3_qos_preservation", result.report, metrics=metrics,
                 config=SWEEP_CONFIG)
    rl_qos = result.mean_qos["rl-policy"]
    assert rl_qos > 0.95, "RL policy compromises user satisfaction"
    assert rl_qos >= result.mean_qos["powersave"]
    assert rl_qos >= result.mean_qos["ondemand"] - 0.03
    assert rl_qos >= result.mean_qos["interactive"] - 0.03
    assert result.mean_energy_j["rl-policy"] < result.mean_energy_j["ondemand"]
    assert result.mean_energy_j["rl-policy"] < result.mean_energy_j["interactive"]
