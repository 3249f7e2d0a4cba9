"""X9 — reactive governors in the batch backend: speedup with
bit-identical results.

:func:`repro.batch.run_governor_pass` runs one ``ondemand``,
``conservative`` or ``interactive`` rollout: each interval every
cluster calls its real governor's ``decide`` on a four-field
observation, and power is priced once after the loop instead of per
interval.  It promises results **bit-identical** to the serial
engine.  This bench runs a 32-rollout reactive-governor sweep both ways
and pins the two halves of that promise:

* every rollout's :class:`~repro.sim.result.SimulationResult` matches
  :func:`~repro.fleet.worker.simulate_spec` with ``==`` on every field
  (no tolerance), and
* the batch backend is at least 2x faster wall-clock, each side timed
  as the fastest of :data:`REPEATS` runs over the same rollouts, the
  two sides alternating (:func:`conftest.best_of_pair`).
"""

from __future__ import annotations

import itertools

from repro.batch import REACTIVE_GOVERNORS, run_batch
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec
from repro.workload.scenarios import EVALUATION_SET

from conftest import best_of_pair, write_result

SEEDS = (100, 200)
DURATION_S = 4.0
N_ROLLOUTS = 32
REPEATS = 5
MIN_SPEEDUP = 2.0


def _specs() -> list[JobSpec]:
    grid = [
        JobSpec(scenario=scenario, governor=governor, seed=seed,
                duration_s=DURATION_S)
        for scenario, governor, seed in itertools.product(
            EVALUATION_SET, sorted(REACTIVE_GOVERNORS), SEEDS)
    ]
    # The grid is 36 rollouts; the bench contract is a 32-rollout sweep.
    return grid[:N_ROLLOUTS]


def test_x9_governor_batch_speedup(benchmark):
    specs = _specs()
    assert len(specs) == N_ROLLOUTS

    (serial_s, serial), (batch_s, batch) = benchmark.pedantic(
        best_of_pair,
        args=(REPEATS, lambda: [simulate_spec(spec) for spec in specs],
              lambda: run_batch(specs)),
        rounds=1, iterations=1)

    # Bit-identity first: a fast wrong answer is worthless.
    for spec, a, b in zip(specs, serial, batch):
        assert b == a, spec.job_id

    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    lines = [
        f"X9: reactive governors ({N_ROLLOUTS} rollouts of "
        f"{', '.join(sorted(REACTIVE_GOVERNORS))}, {DURATION_S:.0f} s each; "
        f"best of {REPEATS} per side)",
        f"  serial engine : {serial_s:8.3f} s",
        f"  batch backend : {batch_s:8.3f} s  ({speedup:.2f}x)",
        "  every SimulationResult field bit-identical on every rollout",
    ]
    write_result(
        "x9_governor_batch_speedup",
        "\n".join(lines),
        metrics={
            "serial_s": serial_s,
            "batch_s": batch_s,
            "speedup": speedup,
        },
        config={"duration_s": DURATION_S, "rollouts": N_ROLLOUTS,
                "repeats": REPEATS},
    )
    assert speedup >= MIN_SPEEDUP
