"""X7 — batched rollout backend: speedup with bit-identical results.

:mod:`repro.batch` vectorises table-free-governor rollouts (fixed OPP
for the whole run, so the chip/power/QoS models collapse to array
arithmetic) while promising results **bit-identical** to the serial
engine.  This bench runs a 32-rollout table-free sweep both ways and
pins the two halves of that promise:

* every rollout's ``energy_per_qos_j`` matches the serial engine with
  ``==`` (no tolerance), and
* the batch backend is at least 5x faster wall-clock, each side timed
  as the fastest of :data:`REPEATS` runs over the same rollouts, the
  two sides alternating (:func:`conftest.best_of_pair`).
"""

from __future__ import annotations

import itertools

from repro.batch import run_batch
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec

from conftest import EVAL_DURATION_S, best_of_pair, write_result

SCENARIOS = ("gaming", "web_browsing", "video_playback", "idle")
GOVERNORS = ("performance", "powersave", "userspace")
SEEDS = (100, 200, 300)
N_ROLLOUTS = 32
REPEATS = 5
MIN_SPEEDUP = 5.0


def _specs() -> list[JobSpec]:
    grid = [
        JobSpec(scenario=scenario, governor=governor, seed=seed,
                duration_s=EVAL_DURATION_S)
        for scenario, governor, seed
        in itertools.product(SCENARIOS, GOVERNORS, SEEDS)
    ]
    # The grid is 36 rollouts; the bench contract is a 32-rollout sweep.
    return grid[:N_ROLLOUTS]


def test_x7_batch_speedup(benchmark):
    specs = _specs()
    assert len(specs) == N_ROLLOUTS

    (serial_s, serial), (batch_s, batch) = benchmark.pedantic(
        best_of_pair,
        args=(REPEATS, lambda: [simulate_spec(spec) for spec in specs],
              lambda: run_batch(specs)),
        rounds=1, iterations=1)

    # Bit-identity first: a fast wrong answer is worthless.
    for spec, a, b in zip(specs, serial, batch):
        assert b.energy_per_qos_j == a.energy_per_qos_j, spec.job_id
        assert b.total_energy_j == a.total_energy_j, spec.job_id
        assert b.qos == a.qos, spec.job_id

    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    lines = [
        f"X7: batched rollout backend ({N_ROLLOUTS} table-free rollouts, "
        f"{EVAL_DURATION_S:.0f} s each; best of {REPEATS} per side)",
        f"  serial engine : {serial_s:8.3f} s",
        f"  batch backend : {batch_s:8.3f} s  ({speedup:.2f}x)",
        "  energy_per_qos_j bit-identical on every rollout",
    ]
    write_result(
        "x7_batch_speedup",
        "\n".join(lines),
        metrics={
            "serial_s": serial_s,
            "batch_s": batch_s,
            "speedup": speedup,
        },
        config={"duration_s": EVAL_DURATION_S, "rollouts": N_ROLLOUTS,
                "repeats": REPEATS},
    )
    assert speedup >= MIN_SPEEDUP
