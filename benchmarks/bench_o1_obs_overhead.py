"""O1 — observability overhead: disabled probes must be near-free.

The engine, governors, and RL learners carry permanent probe points
(see ``docs/observability.md``).  With the hub disabled — the default —
each probe costs one attribute check, so an uninstrumented run must be
bit-identical to, and indistinguishable in wall-clock from, the
pre-observability engine.  This bench pins both properties: result
equality between disabled and enabled runs, and a bound on the cost of
a full capture (the ``engine.run`` span, five phase-time counters and
one ``governor.decide`` instant per decision).  The disabled and
enabled rounds alternate (:func:`conftest.best_of_pair`), so host load
that drifts during the bench reaches both sides alike.
"""

from __future__ import annotations

import math

from repro import obs
from repro.governors import create
from repro.sim.engine import Simulator
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario

from conftest import best_of_pair, write_result

DURATION_S = 10.0
REPEATS = 5

PHASES = ("governor", "schedule", "drain", "power_thermal", "observe")


def _run_once():
    trace = get_scenario("audio_playback").trace(DURATION_S, seed=9)
    sim = Simulator(tiny_test_chip(), trace, lambda c: create("ondemand"))
    return sim.run()


def _run_captured():
    with obs.capture() as session:
        return _run_once(), session


def test_o1_obs_overhead(benchmark):
    baseline = benchmark(_run_once)  # tracing disabled: the shipping path

    (disabled_s, disabled_result), (enabled_s, (enabled_result, session)) = (
        best_of_pair(REPEATS, _run_once, _run_captured)
    )

    # Disabled probes must not change a single bit of the simulation.
    assert enabled_result == baseline
    assert disabled_result == baseline
    assert _run_once() == baseline

    counters = session.metrics.snapshot()["counters"]
    n_intervals = int(counters["sim.intervals"])
    ratio = enabled_s / disabled_s if disabled_s > 0 else math.inf
    lines = [
        "O1: observability overhead "
        f"({DURATION_S:.0f} s audio_playback on tiny, best of {REPEATS})",
        f"  tracing disabled : {disabled_s * 1e3:8.2f} ms",
        f"  tracing enabled  : {enabled_s * 1e3:8.2f} ms "
        f"({ratio:.2f}x, {len(session.tracer.spans)} spans)",
        f"  per interval     : "
        f"{(enabled_s - disabled_s) / n_intervals * 1e6:+.1f} us "
        f"over {n_intervals} intervals",
        "  phase counters (last enabled run):",
    ]
    for phase in PHASES:
        seconds = counters[f"engine.phase.{phase}_s"]
        lines.append(
            f"    engine.phase.{phase + '_s':<16s} {seconds * 1e3:8.3f} ms"
        )
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
    # A full capture costs one run span, five counters and one decision
    # instant per governor call; the engine's own time must dominate.
    assert ratio < 2.0
