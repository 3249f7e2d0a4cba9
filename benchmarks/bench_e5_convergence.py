"""E5 — learning convergence (figure).

After every training episode the policy is frozen and evaluated greedily
on one fixed held-out trace, isolating learning progress from workload
variance.  Shape target: the greedy curve descends from the untrained
policy and flattens at high QoS.  Implementation:
:func:`repro.experiments.e5_learning_curve`.

Convergence is judged by the shared detector primitives
(:mod:`repro.obs.learn`) under
:data:`repro.experiments.learning.E5_CONVERGENCE` — for a positive
series the plateau test is exactly the ``max/min < 1.25`` tail
heuristic this bench used before the detectors existed (pinned by
``tests/test_learn_obs.py``).
"""

from __future__ import annotations

from repro.experiments import e5_learning_curve
from repro.experiments.learning import E5_CONVERGENCE
from repro.obs import is_plateau

from conftest import write_result


def test_e5_convergence(benchmark):
    result = benchmark.pedantic(e5_learning_curve, rounds=1, iterations=1)
    converged_at = result.convergence_episode()
    metrics = {
        "start_energy_per_qos_j": result.start_j,
        "tail_energy_per_qos_j": result.tail_mean_j(),
        "tail_qos": result.tail_qos(),
        "episodes": float(len(result.curve)),
    }
    if converged_at is not None:
        metrics["converged_episode"] = float(converged_at)
    write_result("e5_convergence", result.report, metrics=metrics, config={})
    late = result.tail_mean_j()
    assert late < result.start_j, (
        f"no learning: start {result.start_j:.4g}, late {late:.4g}"
    )
    tail = [
        run.energy_per_qos_j
        for _, run in result.curve[-E5_CONVERGENCE.window:]
    ]
    assert is_plateau(tail, E5_CONVERGENCE.reward_plateau_tol), (
        f"greedy curve still moving over its last "
        f"{E5_CONVERGENCE.window} episodes: {tail}"
    )
    assert converged_at is not None, "curve never plateaued"
    assert result.tail_qos() > 0.95
