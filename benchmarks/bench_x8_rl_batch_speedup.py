"""X8 — lock-step RL training: speedup with bit-identical learning.

:mod:`repro.batch.rl` trains groups of structurally-matching
``rl-policy`` jobs lock-step — every rollout advances through the same
interval together, with the featurise → TD-update → select hot loop
batched across rollouts — while promising results **bit-identical** to
the serial :func:`repro.core.trainer.train_policy` path.  This bench
runs a 32-rollout RL sweep (train + greedy evaluation) both ways and
pins the two halves of that promise:

* every rollout's evaluation result matches the serial trainer with
  ``==`` (no tolerance) — energy, QoS report, switch counts — and
* the lock-step path is at least 5x faster wall-clock, each side
  timed as the fastest of five runs, the two sides alternating
  (:func:`conftest.best_of_pair`).
"""

from __future__ import annotations

from repro.batch import run_batch
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec

from conftest import best_of_pair, write_result

N_ROLLOUTS = 32
TRAIN_EPISODES = 3
EPISODE_S = 4.0
EVAL_S = 4.0
MIN_SPEEDUP = 5.0
REPEATS = 5


def _specs() -> list[JobSpec]:
    return [
        JobSpec(
            scenario="web_browsing",
            governor="rl-policy",
            seed=100 + k,
            duration_s=EVAL_S,
            train_episodes=TRAIN_EPISODES,
            train_episode_s=EPISODE_S,
            train_base_seed=1000 * k,
        )
        for k in range(N_ROLLOUTS)
    ]


def test_x8_rl_batch_speedup(benchmark):
    specs = _specs()

    (serial_s, serial), (batch_s, batch) = benchmark.pedantic(
        best_of_pair,
        args=(REPEATS, lambda: [simulate_spec(spec) for spec in specs],
              lambda: run_batch(specs)),
        rounds=1, iterations=1)

    # Bit-identity first: a fast wrong answer is worthless.
    for spec, a, b in zip(specs, serial, batch):
        assert b.total_energy_j == a.total_energy_j, spec.job_id
        assert b.dynamic_energy_j == a.dynamic_energy_j, spec.job_id
        assert b.leakage_energy_j == a.leakage_energy_j, spec.job_id
        assert b.qos == a.qos, spec.job_id
        assert b.opp_switches == a.opp_switches, spec.job_id
        assert b.energy_per_qos_j == a.energy_per_qos_j, spec.job_id

    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    lines = [
        f"X8: lock-step RL training ({N_ROLLOUTS} rollouts, "
        f"{TRAIN_EPISODES} episodes x {EPISODE_S:.0f} s + "
        f"{EVAL_S:.0f} s greedy eval each; best of {REPEATS} per side)",
        f"  serial trainer : {serial_s:8.3f} s",
        f"  lock-step batch: {batch_s:8.3f} s  ({speedup:.2f}x)",
        "  training + evaluation bit-identical on every rollout",
    ]
    write_result(
        "x8_rl_batch_speedup",
        "\n".join(lines),
        metrics={
            "serial_s": serial_s,
            "batch_s": batch_s,
            "speedup": speedup,
        },
        config={"duration_s": EVAL_S, "episodes": TRAIN_EPISODES,
                "episode_s": EPISODE_S, "rollouts": N_ROLLOUTS,
                "repeats": REPEATS},
    )
    assert speedup >= MIN_SPEEDUP
