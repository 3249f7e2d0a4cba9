"""The simulation workloads: ``batch-sweep`` and ``headline-grid``.

Both repeat one fixed, seed-generated sweep until the run's seconds are
spent, timing every repetition.  A repetition is the whole user call —
``run_batch`` over every rollout, or ``run_fleet`` over the grid with a
fresh run cache — so what is timed is what a user of ``repro batch`` or
``repro fleet`` waits for.

Work is counted in DVFS decision intervals: one per cluster per
simulated interval, over every training episode and every evaluation.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import struct
import time
from pathlib import Path
from typing import Callable

from repro.batch import BatchEngine, run_batch
from repro.cache import RunCache
from repro.fleet import FleetSpec, JobSpec, runner, worker
from repro.fleet.events import JobDone
from repro.governors import BASELINE_SIX
from repro.soc.presets import PRESETS

from perfbench import layers
from perfbench.harness import (
    Context,
    Outcome,
    calibrated,
    measure_setup,
    peak_rss_mb,
    quantile,
)

CHIP = "exynos5422"
DURATION_S = 2.5
TRAIN_EPISODES = 4
INTERVAL_S = 0.01

BATCH_SCENARIO = "web_browsing"
BATCH_GOVERNORS = ("rl-policy", "performance", "powersave", "userspace")
BATCH_SEEDS = 16

#: Three scenarios of the paper's E1 evaluation set whose traces carry
#: nearly the same work for every seed (periodic media pipelines), so
#: runs with different seeds do the same amount of work.  A 5 s
#: ``web_browsing`` trace's job count varies by about 55% between seeds,
#: and the grid evaluates one trace per scenario.
GRID_SCENARIOS = ("video_playback", "audio_playback", "camera_preview")


def _seed_pool(seed: int, n: int) -> list[int]:
    """``n`` distinct trace seeds, ten apart so training episodes
    (base seed + episode) never share a trace."""
    return [10 * s for s in random.Random(seed).sample(range(1, 100_000), n)]


def batch_specs(seed: int) -> list[JobSpec]:
    """Every rollout gets its own evaluation trace and every RL lane its
    own training traces: ``web_browsing`` traces vary widely in work, and
    averaging over 128 of them keeps runs of different seeds alike."""
    n = len(BATCH_GOVERNORS) * BATCH_SEEDS
    pool = _seed_pool(seed, 2 * n)
    return [
        JobSpec(
            scenario=BATCH_SCENARIO, governor=governor, seed=pool[i],
            chip=CHIP, duration_s=DURATION_S, interval_s=INTERVAL_S,
            train_episodes=TRAIN_EPISODES, train_base_seed=pool[n + i],
        )
        for i, governor in enumerate(
            g for g in BATCH_GOVERNORS for _ in range(BATCH_SEEDS)
        )
    ]


def grid_spec(seed: int) -> FleetSpec:
    eval_seed, train_seed = _seed_pool(seed, 2)
    return FleetSpec(
        scenarios=GRID_SCENARIOS,
        governors=tuple(BASELINE_SIX),
        include_rl=True,
        seeds=(eval_seed,),
        chips=(CHIP,),
        duration_s=DURATION_S,
        interval_s=INTERVAL_S,
        train_episodes=TRAIN_EPISODES,
        train_base_seed=train_seed,
        jobs=1,
    )


def build_state(workload: str, seed: int, workdir: Path) -> None:
    """The program state a run starts from (timed by ``setup_s``)."""
    if workload == "batch-sweep":
        BatchEngine(batch_specs(seed)).plan()
    else:
        grid_spec(seed).expand()
        RunCache(workdir / "setup-cache")


def decisions(specs: list[JobSpec]) -> int:
    """DVFS decision intervals the specs simulate, training included."""
    n_clusters = len(PRESETS[CHIP]().cluster_names)
    total = 0
    for s in specs:
        intervals = max(1, math.ceil(s.duration_s / s.interval_s))
        if s.is_rl:
            episode_s = s.train_episode_s or s.duration_s
            intervals += s.train_episodes * max(
                1, math.ceil(episode_s / s.interval_s)
            )
        total += intervals * n_clusters
    return total


def _digest(rows: list[tuple]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(struct.pack(f"<{len(row)}d", *row))
    return h.hexdigest()


def _result_row(r) -> tuple:
    """A batch result as (energy/QoS, QoS, then every other number)."""
    return (
        r.energy_per_qos_j, r.qos.mean_qos, r.total_energy_j,
        r.dynamic_energy_j, r.leakage_energy_j, r.uncore_energy_j,
        r.qos.deadline_miss_rate, float(r.intervals), float(r.opp_switches),
    )


class _Sweep:
    """One workload's repeated call, with what the repetitions returned.

    Times are host-speed corrected per repetition (:mod:`hostspeed`).
    """

    def __init__(self, once: Callable[[], tuple[list[float], list[tuple], int, int]]):
        self.once = once
        self.rep_s: list[float] = []
        self.factors: list[float] = []
        self.latencies_s: list[list[float]] = []
        self._since_start: list[list[float]] = []
        self.digests: set[str] = set()
        self.rows: list[tuple] = []
        self.attempted = 0
        self.failed = 0

    def _rep(self) -> None:
        start = time.perf_counter()
        done_at, rows, attempted, failed = self.once()
        self._since_start.append([t - start for t in done_at])
        self.digests.add(_digest(rows))
        self.rows = rows
        self.attempted += attempted
        self.failed += failed

    def measure(self, seconds: float) -> None:
        calls = calibrated(seconds, self._rep)
        for (took, host), since_start in zip(calls, self._since_start):
            self.rep_s.append(took / host)
            self.factors.append(host)
            self.latencies_s.append([t / host for t in since_start])

    def latency_p50_ms(self) -> float:
        """Median over repetitions of the p50 time from the call until
        each rollout's result is available."""
        return statistics.median(quantile(r, 0.5) for r in self.latencies_s) * 1e3


def _batch_once(specs: list[JobSpec]) -> Callable:
    def once():
        results = run_batch(specs)
        finished = time.perf_counter()
        rows = [_result_row(r) for r in results]
        # Lock-step lanes all finish when the call returns.
        return [finished] * len(results), rows, len(specs), 0
    return once


def _grid_once(spec: FleetSpec, workdir: Path) -> Callable:
    count = [0]

    def once():
        count[0] += 1
        done_at: list[float] = []

        def on_event(event) -> None:
            if isinstance(event, JobDone):
                done_at.append(time.perf_counter())

        # A fresh cache per repetition: every job misses, runs, stores.
        # The module attributes are read per call so the traced run's
        # wrappers are the ones used.
        result = runner.run_fleet(
            spec, jobs=1, cache=RunCache(workdir / f"cache-{count[0]}"),
            job_fn=worker.execute_job, on_event=on_event,
        )
        rows = [
            (o.energy_per_qos_j, o.mean_qos, o.energy_j,
             o.deadline_miss_rate, o.sim_duration_s)
            for o in result.successes
        ]
        return done_at, rows, result.n_jobs, len(result.failures)
    return once


def _oracle(specs: list[JobSpec], rows: list[tuple], seed: int, out: Outcome) -> None:
    """Batch lanes, one per governor, bit-for-bit against the serial path."""
    lane = random.Random(seed).randrange(BATCH_SEEDS)
    for g in range(len(BATCH_GOVERNORS)):
        i = g * BATCH_SEEDS + lane
        serial = _result_row(worker.simulate_spec(specs[i]))
        out.check(serial == rows[i],
                  f"batch lane {specs[i].job_id} differs from simulate_spec")


def _summary(rows: list[tuple]) -> tuple[float, float]:
    """Mean evaluation energy per QoS (mJ) and mean QoS of a sweep."""
    return (statistics.fmean(r[0] for r in rows) * 1e3,
            statistics.fmean(r[1] for r in rows))


def run(ctx: Context, workload: str) -> Outcome:
    out = Outcome()
    if workload == "batch-sweep":
        specs = batch_specs(ctx.seed)

        def make(_: str) -> Callable:
            return _batch_once(specs)
    else:
        spec = grid_spec(ctx.seed)
        specs = spec.expand()

        def make(name: str) -> Callable:
            return _grid_once(spec, ctx.workdir / name)
    work = decisions(specs)

    setup_s, cli_import_s = measure_setup(ctx, workload)

    timed = _Sweep(make("timed"))
    timed.measure(ctx.region_s)
    rss_mb = peak_rss_mb()
    out.attempted, out.failed = timed.attempted, timed.failed
    out.check(timed.failed == 0, f"{timed.failed} jobs failed")
    out.check(len(timed.digests) == 1,
              "repetitions of one sweep returned different results")
    if workload == "batch-sweep":
        _oracle(specs, timed.rows, ctx.seed, out)
    energy_per_qos_mj, mean_qos = _summary(timed.rows)
    throughput = work / statistics.median(timed.rep_s)
    out.report.append(
        f"{workload}: {len(timed.rep_s)} repetitions of {len(specs)} "
        f"rollouts, host factor {statistics.median(timed.factors):.3f}; "
        f"energy/QoS {energy_per_qos_mj!r} mJ, mean QoS {mean_qos!r}, "
        f"digest {sorted(timed.digests)[0][:16]}"
    )

    if not ctx.trace:
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": throughput,
            "latency_p50_ms": timed.latency_p50_ms(),
            "success_frac": (out.attempted - out.failed) / out.attempted,
            "peak_rss_mb": rss_mb,
        }
        return out

    with layers.traced() as clock:
        traced = _Sweep(make("traced"))
        traced.measure(ctx.region_s)
    out.check(traced.digests == timed.digests,
              "traced run returned different results from the timed run")
    out.check(traced.failed == 0, f"{traced.failed} traced jobs failed")
    out.attempted += traced.attempted
    out.failed += traced.failed
    out.report.extend(layers.describe(clock))
    traced_throughput = work / statistics.median(traced.rep_s)
    out.metrics = {
        **layers.layer_metrics(clock, statistics.median(traced.factors),
                               reps=len(traced.rep_s)),
        "serve.rejected": 0.0,
        "serve.decide_p90_us": 0.0,
        "serve.decide_p99_us": 0.0,
        "cli.import_ms": cli_import_s * 1e3,
        "gen.lag_p50_us": 0.0,
        "gen.lag_p99_us": 0.0,
        "result.energy_per_qos_mj": energy_per_qos_mj,
        "result.mean_qos": mean_qos,
        "trace.overhead_frac": throughput / traced_throughput - 1.0,
    }
    return out
