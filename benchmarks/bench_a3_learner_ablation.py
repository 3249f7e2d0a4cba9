"""A3 — learner ablation: Q-learning vs SARSA vs double-Q vs static oracle.

Shape target: the TD learners land in one band (the choice of TD rule is
not load-bearing), and the learned policy stays close to the
*unrealisable* static oracle, which peeks at the evaluation trace.
Implementation: :func:`repro.experiments.a3_learner_ablation`.
"""

from __future__ import annotations

from repro.experiments import a3_learner_ablation

from conftest import write_result


def test_a3_learner_ablation(benchmark):
    result = benchmark.pedantic(a3_learner_ablation, rounds=1, iterations=1)
    metrics = {
        f"{label}.energy_per_qos_j": run.energy_per_qos_j
        for label, run in result.learners.items()
    }
    metrics["oracle.energy_per_qos_j"] = result.oracle.energy_per_qos_j
    write_result("a3_learner_ablation", result.report, metrics=metrics,
                 config={})
    q_run = result.learners["Q-learning (paper)"]
    for label, other in result.learners.items():
        ratio = other.energy_per_qos_j / q_run.energy_per_qos_j
        assert 0.7 < ratio < 1.4, label
    assert q_run.energy_per_qos_j < result.oracle.energy_per_qos_j * 1.25
    assert q_run.qos.mean_qos >= result.oracle.qos.mean_qos - 0.02
