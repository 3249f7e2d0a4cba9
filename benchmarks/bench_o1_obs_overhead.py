"""O1 — observability overhead: disabled probes must be near-free.

The engine, governors, and RL learners carry permanent probe points
(see ``docs/observability.md``).  With the hub disabled — the default —
each probe costs one attribute check, so an uninstrumented run must be
bit-identical to, and indistinguishable in wall-clock from, the
pre-observability engine.  This bench pins both properties: result
equality between disabled and enabled runs, and a sane bound on the
cost of actually collecting spans.
"""

from __future__ import annotations

import math
import time

from repro import obs
from repro.governors import create
from repro.sim.engine import Simulator
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario

from conftest import write_result

DURATION_S = 10.0
REPEATS = 5


def _run_once():
    trace = get_scenario("audio_playback").trace(DURATION_S, seed=9)
    sim = Simulator(tiny_test_chip(), trace, lambda c: create("ondemand"))
    return sim.run()


def _best_of(repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run_once()
        best = min(best, time.perf_counter() - t0)
    return best


def test_o1_obs_overhead(benchmark):
    baseline = benchmark(_run_once)  # tracing disabled: the shipping path

    disabled_s = _best_of(REPEATS)
    with obs.capture() as session:
        enabled_result = _run_once()
        enabled_s = _best_of(REPEATS)

    # Disabled probes must not change a single bit of the simulation.
    assert enabled_result == baseline
    assert _run_once() == baseline

    n_intervals = sum(
        1 for s in session.tracer.spans if s.name == "engine.interval"
    )
    ratio = enabled_s / disabled_s if disabled_s > 0 else math.inf
    lines = [
        "O1: observability overhead "
        f"({DURATION_S:.0f} s audio_playback on tiny, best of {REPEATS})",
        f"  tracing disabled : {disabled_s * 1e3:8.2f} ms",
        f"  tracing enabled  : {enabled_s * 1e3:8.2f} ms "
        f"({ratio:.2f}x, {len(session.tracer.spans)} spans)",
        f"  per interval     : {len(session.tracer.spans) / n_intervals:.1f} "
        "spans, "
        f"{(enabled_s - disabled_s) / n_intervals * 1e6:+.1f} us",
    ]
    write_result(
        "o1_obs_overhead",
        "\n".join(lines),
        metrics={
            "disabled_s": disabled_s,
            "enabled_s": enabled_s,
            "enabled_over_disabled": ratio,
        },
        config={"duration_s": DURATION_S, "repeats": REPEATS},
    )
    # Collection is allowed to cost, but not pathologically (a loose
    # bound: CI machines are noisy).
    assert ratio < 10.0
