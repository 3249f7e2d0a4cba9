"""A4 — fixed-point word-length sweep.

Shape target: decision agreement and energy/QoS converge to the float
reference as bits grow; the reference 16-bit Q7.8 is already
indistinguishable.  Implementation:
:func:`repro.experiments.a4_wordlength`.
"""

from __future__ import annotations

from repro.experiments import a4_wordlength

from conftest import write_result


def test_a4_wordlength(benchmark):
    result = benchmark.pedantic(a4_wordlength, rounds=1, iterations=1)
    ref = result.row("Q7.8")
    metrics = {
        "q7_8.agreement": ref.agreement,
        "q7_8.energy_per_qos_j": ref.run.energy_per_qos_j,
        "software.energy_per_qos_j": result.software.energy_per_qos_j,
    }
    write_result("a4_wordlength", result.report, metrics=metrics, config={})
    assert result.row("Q11.12").agreement >= result.row("Q2.2").agreement
    ref = result.row("Q7.8")
    assert ref.agreement > 0.85
    sw_j = result.software.energy_per_qos_j
    assert abs(ref.run.energy_per_qos_j - sw_j) / sw_j < 0.15
