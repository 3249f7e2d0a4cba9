"""E7 — fixed-point hardware fidelity.

Transfers a trained software policy into the Q7.8 datapath and compares
greedy decision agreement and end-to-end energy/QoS.  Shape target:
near-total agreement and a negligible energy-per-QoS gap.
Implementation: :func:`repro.experiments.e7_hw_fidelity`.
"""

from __future__ import annotations

from repro.experiments import e7_hw_fidelity

from conftest import write_result


def test_e7_hw_fidelity(benchmark):
    result = benchmark.pedantic(e7_hw_fidelity, rounds=1, iterations=1)
    metrics = {
        "min_agreement": min(result.agreements.values()),
        "hardware_qos": result.hardware.qos.mean_qos,
        "software_qos": result.software.qos.mean_qos,
        "energy_per_qos_delta": result.energy_per_qos_delta,
    }
    write_result("e7_hw_fidelity", result.report, metrics=metrics, config={})
    assert all(a > 0.85 for a in result.agreements.values()), result.agreements
    assert abs(result.hardware.qos.mean_qos - result.software.qos.mean_qos) < 0.05
    assert result.energy_per_qos_delta < 0.15
