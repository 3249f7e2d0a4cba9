"""O3 — learning-ledger overhead on the training loop.

PR 9's learning ledger appends one structured record per training
episode (reward, TD-error stats, epsilon, Q norms, coverage, greedy
churn).  The contract mirrors O1/O2's: with no recorder attached,
``train_policy`` must not pay a single extra branch per step; with a
recorder attached, the ledger is observation-only — every episode
record and every learned Q-value must be bit-identical to the
unledgered run, because the recorder only *reads* learner state after
each episode.  This bench pins both: bit-identical training results,
and a sane bound on the cost of snapshotting greedy policies and
appending JSONL.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.trainer import TrainingResult, train_policy
from repro.obs import LEARN_LOG, LearnRecorder
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario

from conftest import write_result

EPISODES = 6
EPISODE_S = 3.0
REPEATS = 3


def _train_round(recorder: LearnRecorder | None) -> tuple[TrainingResult, float]:
    """One training run; returns (result, wall seconds)."""
    start = time.perf_counter()
    result = train_policy(
        tiny_test_chip(), get_scenario("audio_playback"),
        episodes=EPISODES, episode_duration_s=EPISODE_S,
        recorder=recorder,
    )
    return result, time.perf_counter() - start


def _best_of(repeats: int, make_recorder) -> float:
    best = math.inf
    for _ in range(repeats):
        best = min(best, _train_round(make_recorder())[1])
    return best


def _fingerprint(result: TrainingResult) -> list[tuple[float, float, float]]:
    """The per-episode numbers that must not move under observation."""
    return [
        (r.reward, r.energy_per_qos_j, r.td_error_mean_abs)
        for r in result.history
    ]


def test_o3_learn_overhead(benchmark, tmp_path):
    baseline, _ = benchmark.pedantic(
        lambda: _train_round(None), rounds=1, iterations=1
    )

    plain_s = _best_of(REPEATS, lambda: None)
    ledgered, _ = _train_round(LearnRecorder(tmp_path / "bench-o3.jsonl"))
    ledger_dir = tmp_path / "rounds"
    counter = iter(range(REPEATS))
    ledgered_s = _best_of(
        REPEATS,
        lambda: LearnRecorder(ledger_dir / f"round-{next(counter)}.jsonl"),
    )

    # The ledger must not change a single episode or Q-value.
    assert _fingerprint(ledgered) == _fingerprint(baseline)
    for name, policy in baseline.policies.items():
        assert np.array_equal(
            ledgered.policies[name].agent.table.values,
            policy.agent.table.values,
        ), f"ledger perturbed the learned table for cluster {name!r}"

    records = LEARN_LOG.read(tmp_path / "bench-o3.jsonl")
    assert len(records) == EPISODES
    assert [r["episode"] for r in records] == list(range(EPISODES))
    assert all(r["scenario"] == "audio_playback" for r in records)

    ratio = ledgered_s / plain_s if plain_s > 0 else math.inf
    per_episode_us = (ledgered_s - plain_s) / EPISODES * 1e6
    lines = [
        "O3: learning-ledger overhead "
        f"({EPISODES} episodes x {EPISODE_S:.0f}s on tiny, "
        f"best of {REPEATS})",
        f"  no recorder : {plain_s * 1e3:8.2f} ms",
        f"  recorder    : {ledgered_s * 1e3:8.2f} ms "
        f"({ratio:.2f}x, {len(records)} ledger records)",
        f"  per episode : {per_episode_us:+.1f} us "
        "(greedy snapshot + TD-stat merge + one JSONL append)",
    ]
    write_result(
        "o3_learn_overhead",
        "\n".join(lines),
        metrics={
            "plain_s": plain_s,
            "ledgered_s": ledgered_s,
            "ledgered_over_plain": ratio,
        },
        config={"episodes": EPISODES, "episode_s": EPISODE_S,
                "repeats": REPEATS},
    )
    # Snapshotting argmax tables and appending one JSON line per
    # episode is allowed to cost, but not pathologically (loose: CI
    # machines are noisy and episodes here are tiny).
    assert ratio < 10.0
