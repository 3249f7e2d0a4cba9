"""E4 — decision latency: hardware vs software policy implementation.

Paper claims: 3.92x faster decisions in hardware (journal, typical
case); "up to 40x" (DAC, best case).  Implementation:
:func:`repro.experiments.e4_decision_latency`; the software and hardware
paths are operation-count models (see DESIGN.md for the calibration
caveat).
"""

from __future__ import annotations

from repro.experiments import (
    PAPER_TYPICAL_SPEEDUP,
    e4_decision_latency,
)

from conftest import write_result


def test_e4_decision_latency(benchmark):
    result = benchmark(e4_decision_latency)
    metrics = {
        "typical_speedup": result.typical.speedup,
        "best_case_speedup": result.best_case.speedup,
        "typical_software_s": result.typical.software_s,
        "typical_hardware_s": result.typical.hardware_s,
    }
    write_result("e4_decision_latency", result.report, metrics=metrics,
                 config={})
    assert abs(result.typical.speedup - PAPER_TYPICAL_SPEEDUP) < 0.05 * PAPER_TYPICAL_SPEEDUP
    assert 25.0 < result.best_case.speedup < 60.0
    assert all(row.speedup > 1.0 for row in result.rows)
