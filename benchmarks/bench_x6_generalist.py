"""X6 — one generalist policy for every scenario (extension).

The deployed form of the paper's claim: a *single* policy (one Q-table
per cluster), curriculum-trained across the evaluation set, manages all
six scenarios.  Shape target: the generalist stays close to the
per-scenario specialists (which the E1/E2 sweep trains) and beats
ondemand on average.
"""

from __future__ import annotations

from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.core.trainer import evaluate_policy, train_curriculum
from repro.soc.presets import exynos5422
from repro.workload.scenarios import EVALUATION_SET, get_scenario

from conftest import EVAL_DURATION_S, EVAL_SEED, SWEEP_CONFIG, write_result


def _run(full_sweep):
    chip = exynos5422()
    # Two interleaved passes: revisiting each scenario counters the
    # mild forgetting a single long pass leaves on early scenarios.
    curriculum = [get_scenario(name) for name in EVALUATION_SET] * 2
    training = train_curriculum(
        chip, curriculum, episodes_per_scenario=3,
        episode_duration_s=EVAL_DURATION_S,
    )
    rows = []
    for name in EVALUATION_SET:
        trace = get_scenario(name).trace(EVAL_DURATION_S, seed=EVAL_SEED)
        generalist = evaluate_policy(chip, training.policies, trace)
        specialist_j = full_sweep.cell(name, "rl-policy").energy_per_qos_j
        ondemand_j = full_sweep.cell(name, "ondemand").energy_per_qos_j
        rows.append(
            (name, generalist.energy_per_qos_j * 1e3, specialist_j * 1e3,
             ondemand_j * 1e3, generalist.qos.mean_qos)
        )
    return rows


def _report(rows) -> str:
    return format_table(
        ["scenario", "generalist [mJ]", "specialist [mJ]", "ondemand [mJ]",
         "generalist QoS"],
        rows,
        title="X6: one curriculum-trained policy across every scenario",
    )


def test_x6_generalist(benchmark, full_sweep):
    rows = benchmark.pedantic(_run, args=(full_sweep,), rounds=1, iterations=1)
    generalist_mean = mean([r[1] for r in rows])
    specialist_mean = mean([r[2] for r in rows])
    ondemand_mean = mean([r[3] for r in rows])
    metrics = {
        "generalist_mean_mj": generalist_mean,
        "specialist_mean_mj": specialist_mean,
        "ondemand_mean_mj": ondemand_mean,
        "min_generalist_qos": min(r[-1] for r in rows),
    }
    write_result("x6_generalist", _report(rows), metrics=metrics,
                 config=SWEEP_CONFIG)
    # The single policy is within 15% of six specialists on average...
    assert generalist_mean < specialist_mean * 1.15
    # ...and still clearly better than ondemand.
    assert generalist_mean < ondemand_mean
    for name, *_rest, qos in rows:
        assert qos > 0.9, name
