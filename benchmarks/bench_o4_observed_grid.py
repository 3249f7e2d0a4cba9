"""O4 — an observed grid runs the same program as a plain one.

``fleet --metrics`` gives every job ``collect_metrics``.  The batch plan
does not look at it: the fixed-OPP closed form, the reactive-governor
pass and the lock-step RL runner all run observed jobs too, and publish
the serial engine's ``sim.*`` counters plus the ``engine.phase.*_s``
counters that apply to them, once per run.  So a small E1-style grid
(six governors plus RL over the six-scenario set) must give equal rows
with and without metric collection, at nearly equal cost.  The plain and
observed rounds alternate (:func:`conftest.best_of_pair`), so host load
that drifts during the bench reaches both sides alike.
"""

from __future__ import annotations

import math

from repro.fleet import FleetSpec, merge_job_metrics, run_fleet
from repro.governors import BASELINE_SIX
from repro.workload.scenarios import EVALUATION_SET

from conftest import EVAL_SEED, best_of_pair, write_result

DURATION_S = 4.0
EPISODES = 4
REPEATS = 5


def _grid(collect_metrics: bool) -> FleetSpec:
    return FleetSpec(
        scenarios=tuple(EVALUATION_SET),
        governors=tuple(BASELINE_SIX),
        seeds=(EVAL_SEED,),
        include_rl=True,
        duration_s=DURATION_S,
        train_episodes=EPISODES,
        collect_metrics=collect_metrics,
    )


def _rows(result) -> list[tuple]:
    return [
        (s.job_id, s.energy_j, s.mean_qos, s.deadline_miss_rate,
         s.energy_per_qos_j)
        for s in result.successes
    ]


def test_o4_observed_grid():
    (plain_s, plain), (observed_s, observed) = best_of_pair(
        REPEATS,
        lambda: run_fleet(_grid(False), jobs=1),
        lambda: run_fleet(_grid(True), jobs=1),
    )

    assert not plain.failures and not observed.failures
    assert _rows(observed) == _rows(plain)
    assert all(s.metrics is not None for s in observed.successes)

    counters = merge_job_metrics(observed.successes)["counters"]
    ratio = observed_s / plain_s if plain_s > 0 else math.inf
    lines = [
        f"O4: observed grid ({len(plain.successes)} jobs, "
        f"{DURATION_S:.0f} s, {EPISODES} episodes, jobs=1, "
        f"best of {REPEATS})",
        f"  plain               : {plain_s * 1e3:8.1f} ms",
        f"  collect_metrics     : {observed_s * 1e3:8.1f} ms ({ratio:.2f}x)",
        f"  sim.runs            : {counters['sim.runs']:.0f}",
        f"  sim.intervals       : {counters['sim.intervals']:.0f}",
    ]
    write_result(
        "o4_observed_grid",
        "\n".join(lines),
        metrics={
            "plain_s": plain_s,
            "observed_s": observed_s,
            "observed_over_plain": ratio,
        },
        config={"duration_s": DURATION_S, "episodes": EPISODES,
                "seed": EVAL_SEED, "repeats": REPEATS},
    )
    # Counting is once per run; the simulation must dominate.
    assert ratio < 1.2
