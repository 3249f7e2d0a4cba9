"""X2 — seed stability of the headline gap (extension).

Repeats the RL-vs-governors comparison over several evaluation seeds on
the gaming scenario.  Shape target: the gap to the jumpy reactive
governors is significant (non-overlapping CIs); conservative's slow ramp
is well matched to gaming's long steady phases, so on this one scenario
RL only has to stay in its band (E1 shows it wins across the full set).
Implementation: :func:`repro.experiments.x2_seed_stability`.
"""

from __future__ import annotations

from repro.experiments import x2_seed_stability

from conftest import write_result


def test_x2_seed_stability(benchmark):
    result = benchmark.pedantic(x2_seed_stability, rounds=1, iterations=1)
    metrics = {
        f"{g}.mean_energy_per_qos_j": m.mean
        for g, m in result.measures.items()
    }
    write_result("x2_seed_stability", result.report, metrics=metrics,
                 config={})
    rl = result.measures["rl-policy"]
    ondemand = result.measures["ondemand"]
    interactive = result.measures["interactive"]
    conservative = result.measures["conservative"]
    assert rl.mean < ondemand.mean
    assert not rl.overlaps(ondemand)
    assert rl.mean < interactive.mean
    assert not rl.overlaps(interactive)
    assert rl.mean < conservative.mean * 1.15
