"""E6 — online adaptation across scenario switches (figure).

"The policy can flexibly manage the system power regardless of the
application scenario": a gaming-trained policy keeps learning online as
the device switches to video playback and web browsing.  Shape target:
on each unseen scenario the adapting policy lands within a modest factor
of a specialist and beats ondemand, with QoS intact.  Implementation:
:func:`repro.experiments.e6_adaptation`.
"""

from __future__ import annotations

from repro.experiments import e6_adaptation

from conftest import write_result


def test_e6_adaptation(benchmark):
    result = benchmark.pedantic(e6_adaptation, rounds=1, iterations=1)
    metrics: dict[str, float] = {}
    for seg in result.segments:
        metrics[f"{seg.scenario}.adapting_qos"] = seg.adapting_qos
        metrics[f"{seg.scenario}.adapting_j"] = seg.adapting_j
        metrics[f"{seg.scenario}.ondemand_j"] = seg.ondemand_j
        metrics[f"{seg.scenario}.specialist_j"] = seg.specialist_j
    write_result("e6_adaptation", result.report, metrics=metrics, config={})
    for seg in result.segments:
        assert seg.adapting_qos > 0.9, f"{seg.scenario}: QoS collapsed while adapting"
        assert seg.adapting_j < seg.ondemand_j * 1.05, (
            f"{seg.scenario}: worse than ondemand"
        )
        assert seg.adapting_j < seg.specialist_j * 1.35, (
            f"{seg.scenario}: far from the specialist"
        )
