"""A2 — reward-weight sweep: the energy vs QoS trade-off dial.

Shape target: QoS grows with lambda_qos and energy grows with it too —
the knob works and the default sits at a sensible knee.  Implementation:
:func:`repro.experiments.a2_reward_sweep`.
"""

from __future__ import annotations

from repro.experiments import a2_reward_sweep

from conftest import write_result


def test_a2_reward_sweep(benchmark):
    result = benchmark.pedantic(a2_reward_sweep, rounds=1, iterations=1)
    metrics: dict[str, float] = {}
    for lam, run in result.results.items():
        metrics[f"lambda_{lam:g}.mean_qos"] = run.qos.mean_qos
        metrics[f"lambda_{lam:g}.energy_j"] = run.total_energy_j
    write_result("a2_reward_sweep", result.report, metrics=metrics, config={})
    runs = result.results
    assert runs[0.0].qos.mean_qos < runs[16.0].qos.mean_qos
    assert runs[16.0].total_energy_j > runs[0.0].total_energy_j
    assert runs[1.0].qos.mean_qos > 0.95
