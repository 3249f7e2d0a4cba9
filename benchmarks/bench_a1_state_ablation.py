"""A1 — state-feature ablation.

Which parts of the policy's state earn their keep?  Retrain with one
feature disabled at a time (bin count 1 collapses a feature).  Shape
target: dropping the anticipatory QoS-slack signal collapses QoS;
utilisation alone is far worse; milder ablations stay within noise of
the full state.  Implementation:
:func:`repro.experiments.a1_state_ablation`.
"""

from __future__ import annotations

from repro.experiments import a1_state_ablation

from conftest import write_result


def test_a1_state_ablation(benchmark):
    result = benchmark.pedantic(a1_state_ablation, rounds=1, iterations=1)
    metrics = {
        f"{label}.energy_per_qos_j": run.energy_per_qos_j
        for label, run in result.results.items()
    }
    metrics.update(
        {
            f"{label}.mean_qos": run.qos.mean_qos
            for label, run in result.results.items()
        }
    )
    write_result("a1_state_ablation", result.report, metrics=metrics,
                 config={})
    runs = result.results
    full = runs["full"].energy_per_qos_j
    assert runs["no-slack"].energy_per_qos_j > full
    assert runs["no-slack"].qos.mean_qos < runs["full"].qos.mean_qos
    assert runs["util-only"].energy_per_qos_j > full
    best = min(r.energy_per_qos_j for r in runs.values())
    assert full <= best * 1.15
