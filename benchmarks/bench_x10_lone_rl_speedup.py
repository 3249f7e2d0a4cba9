"""X10 — a lone RL job on the lock-step runner, against the serial engine.

:mod:`repro.batch.rl` trains and evaluates every ``rl-policy`` lane
list through one lock-step runner, a list of one included, so a lone
RL job no longer reaches the serial trainer.  This bench runs one
plain ``rl-policy`` spec through :func:`repro.batch.run_batch` and
through the serial reference :func:`repro.fleet.worker.simulate_spec`
and pins both halves of that choice:

* the two results are equal with ``==`` on every field, and
* the one-lane runner is not much slower than serial: speedup
  (serial_s / batch_s) of at least 0.8, each side timed as the fastest
  of seven runs, the two sides alternating
  (:func:`conftest.best_of_pair`).
"""

from __future__ import annotations

from dataclasses import fields

from repro.batch import run_batch
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec

from conftest import best_of_pair, write_result

TRAIN_EPISODES = 3
EPISODE_S = 4.0
EVAL_S = 4.0
MIN_SPEEDUP = 0.8
REPEATS = 7


def test_x10_lone_rl_speedup(benchmark):
    spec = JobSpec(
        scenario="web_browsing",
        governor="rl-policy",
        seed=100,
        duration_s=EVAL_S,
        train_episodes=TRAIN_EPISODES,
        train_episode_s=EPISODE_S,
    )

    (serial_s, serial), (batch_s, [batch]) = benchmark.pedantic(
        best_of_pair,
        args=(REPEATS, lambda: simulate_spec(spec),
              lambda: run_batch([spec])),
        rounds=1, iterations=1)

    # Bit-identity first: a fast wrong answer is worthless.
    for f in fields(serial):
        assert getattr(batch, f.name) == getattr(serial, f.name), f.name

    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    lines = [
        f"X10: a lone RL job ({TRAIN_EPISODES} episodes x "
        f"{EPISODE_S:.0f} s + {EVAL_S:.0f} s greedy eval; "
        f"best of {REPEATS} per side)",
        f"  serial engine    : {serial_s:8.3f} s",
        f"  one-lane runner  : {batch_s:8.3f} s  ({speedup:.2f}x)",
        "  every result field bit-identical",
    ]
    write_result(
        "x10_lone_rl_speedup",
        "\n".join(lines),
        metrics={
            "serial_s": serial_s,
            "batch_s": batch_s,
            "speedup": speedup,
        },
        config={"duration_s": EVAL_S, "episodes": TRAIN_EPISODES,
                "episode_s": EPISODE_S, "repeats": REPEATS},
    )
    assert speedup >= MIN_SPEEDUP
