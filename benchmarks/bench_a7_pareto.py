"""A7 — the energy-QoS Pareto frontier (extension).

Energy-per-QoS is one projection; the frontier view asks whether any
baseline strictly beats the RL policy on *both* axes simultaneously.
Shape target: on the gaming evaluation trace, the RL policy is not
dominated by any realisable baseline (a small tolerance absorbs
measurement noise).
"""

from __future__ import annotations

from repro.analysis.pareto import FrontierPoint, frontier_table, pareto_frontier
from repro.batch import run_batch
from repro.fleet import RL_POLICY, JobSpec
from repro.governors.base import available

from conftest import write_result


def _run():
    # Every governor plus the RL policy (which trains 16 episodes of
    # 20 s) on the gaming evaluation trace, through the batch backend.
    specs = [
        JobSpec("gaming", name, seed=100, duration_s=20.0, train_episodes=16)
        for name in [*available(), RL_POLICY]
    ]
    return [
        FrontierPoint(spec.governor, run.total_energy_j, run.qos.mean_qos)
        for spec, run in zip(specs, run_batch(specs))
    ]


def test_a7_pareto(benchmark):
    points = benchmark.pedantic(_run, rounds=1, iterations=1)
    report = frontier_table(points)
    frontier = pareto_frontier(points)
    report += "\nfrontier: " + " -> ".join(p.label for p in frontier)
    metrics: dict[str, float] = {"frontier_size": float(len(frontier))}
    for p in points:
        metrics[f"{p.label}.energy_j"] = p.energy_j
        metrics[f"{p.label}.qos"] = p.qos
    write_result("a7_pareto", report, metrics=metrics, config={})

    rl = next(p for p in points if p.label == "rl-policy")
    # No baseline strictly beats the policy on both axes (1% energy / one
    # QoS point of tolerance for noise).
    for p in points:
        if p.label == "rl-policy":
            continue
        strictly_dominates = (
            p.energy_j < rl.energy_j * 0.99 and p.qos > rl.qos + 0.01
        )
        assert not strictly_dominates, f"{p.label} dominates the RL policy"
    # The frontier's high-QoS end includes a near-perfect-QoS point.
    assert max(p.qos for p in frontier) > 0.99
