"""Observed runs take the fast paths and publish the serial engine's counters.

The batch plan is a pure function of the job specs, so a fleet run with
``collect_metrics`` runs the same fixed-OPP, governor-pass and lock-step
RL code as a plain one.  Every path publishes its counters through
:func:`repro.sim.engine.publish_run`; these tests hold the deterministic
ones to what :func:`~repro.fleet.worker.simulate_spec` publishes on the
serial engine, per job and after :func:`~repro.obs.merge_snapshots`.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchEngine, RLTrainJob, run_batch, train_policy_batch
from repro.errors import SimulationError
from repro.fleet import FleetSpec, merge_job_metrics, run_fleet
from repro.fleet.spec import JobSpec
from repro.fleet.worker import run_unit, simulate_spec
from repro.obs import capture, merge_snapshots
from repro.soc.presets import PRESETS
from repro.workload.scenarios import get_scenario

#: The counters that depend on the simulated run alone, not on timing.
DETERMINISTIC = (
    "sim.runs", "sim.intervals", "sim.opp_switches", "sim.jobs",
    "sim.simulated_s", "sim.energy_j",
)

FAST = dict(chips=("tiny",), duration_s=1.0, train_episodes=2)

#: One grid per fast path, and one that mixes all three.
GRIDS = {
    "fixed-opp": dict(governors=("performance", "powersave", "userspace")),
    "governor-pass": dict(governors=("ondemand", "conservative",
                                     "interactive")),
    "lock-step": dict(governors=(), include_rl=True),
    "mixed": dict(governors=("powersave", "ondemand"), include_rl=True),
}


def _serial_snapshot(spec: JobSpec) -> dict:
    with capture(trace=False) as session:
        simulate_spec(spec)
    return session.metrics.snapshot()


def _deterministic(snapshot: dict) -> dict[str, float]:
    return {name: snapshot["counters"][name] for name in DETERMINISTIC}


def _assert_fleet_matches_serial(specs: list[JobSpec]) -> None:
    assert all(BatchEngine(specs).plan()), "every job takes a fast path"
    result = run_fleet(specs, jobs=1)
    assert not result.failures
    serial = [_serial_snapshot(spec) for spec in specs]
    for success, reference in zip(result.successes, serial):
        assert success.metrics["meta"]["job_id"] == success.spec.job_id
        assert (_deterministic(success.metrics)
                == _deterministic(reference)), success.job_id
    assert (_deterministic(merge_job_metrics(result.successes))
            == _deterministic(merge_snapshots(serial)))


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_observed_fleet_publishes_serial_counters(grid):
    spec = FleetSpec(scenarios=("idle", "audio_playback"), seeds=(1, 2),
                     collect_metrics=True, **FAST, **GRIDS[grid])
    specs = spec.expand()
    if spec.include_rl:
        # The RL jobs share one lock-step chunk.
        assert any(len(unit) >= 2 for unit in BatchEngine(specs).units())
    _assert_fleet_matches_serial(specs)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    duration_s=st.floats(min_value=0.1, max_value=0.8),
    scenario=st.sampled_from(["idle", "audio_playback", "gaming"]),
    governor=st.sampled_from(["performance", "userspace", "ondemand",
                              "interactive"]),
    lanes=st.integers(min_value=2, max_value=3),
    episodes=st.integers(min_value=1, max_value=2),
)
def test_generated_observed_jobs_publish_serial_counters(
    seed, duration_s, scenario, governor, lanes, episodes
):
    base = JobSpec(scenario=scenario, governor=governor, seed=seed,
                   chip="tiny", duration_s=duration_s,
                   train_episodes=episodes, collect_metrics=True)
    rl = [replace(base, governor="rl-policy", seed=seed + k,
                  train_base_seed=seed + 100 * k) for k in range(lanes)]
    _assert_fleet_matches_serial([base, *rl])


def test_lone_rl_job_publishes_serial_counters():
    spec = JobSpec(scenario="audio_playback", governor="rl-policy", seed=4,
                   chip="tiny", duration_s=1.0, train_episodes=2,
                   collect_metrics=True)
    assert BatchEngine([spec]).plan() == [True]
    with capture(trace=False) as session:
        run_batch([spec])
    snapshot = session.metrics.snapshot()
    # Two training episodes and one evaluation.
    assert snapshot["counters"]["sim.runs"] == 3.0
    assert _deterministic(snapshot) == _deterministic(_serial_snapshot(spec))


def test_chunk_members_get_only_their_own_counters():
    specs = [
        JobSpec(scenario="idle", governor="rl-policy", seed=seed,
                chip="tiny", duration_s=0.5, train_episodes=episodes,
                collect_metrics=collect)
        for seed, episodes, collect in ((1, 2, True), (2, 2, False),
                                        (3, 2, True))
    ]
    outcomes = run_unit(list(enumerate(specs)))
    assert [o.metrics is not None for o in outcomes] == [True, False, True]
    for outcome in (outcomes[0], outcomes[2]):
        counters = outcome.metrics["counters"]
        # Two training episodes and one evaluation, of this lane only.
        assert counters["sim.runs"] == 3.0
        assert counters["rl.episodes"] == 2.0
        assert (_deterministic(outcome.metrics)
                == _deterministic(_serial_snapshot(outcome.spec)))


def test_chunk_phase_time_is_split_across_lanes():
    specs = [
        JobSpec(scenario="idle", governor="rl-policy", seed=seed,
                chip="tiny", duration_s=0.5, train_episodes=1,
                collect_metrics=True)
        for seed in (1, 2)
    ]
    first, second = (o.metrics["counters"]
                     for o in run_unit(list(enumerate(specs))))
    phases = [name for name in first if name.startswith("engine.phase.")]
    assert sorted(phases) == [
        "engine.phase.drain_s", "engine.phase.governor_s",
        "engine.phase.power_thermal_s", "engine.phase.schedule_s",
    ]
    for name in phases:
        assert first[name] == second[name] > 0.0


def test_sim_jobs_counts_every_trace_unit():
    spec = JobSpec(scenario="gaming", governor="performance", seed=3,
                   chip="tiny", duration_s=1.0)
    trace = get_scenario(spec.scenario).trace(spec.duration_s, seed=spec.seed)
    for run in (simulate_spec, lambda s: run_batch([s])[0]):
        with capture(trace=False) as session:
            result = run(spec)
        assert result.qos.n_units == len(trace)
        assert session.metrics.snapshot()["counters"]["sim.jobs"] == len(trace)


def test_one_session_per_lane_is_checked():
    specs = [JobSpec(scenario="idle", governor="rl-policy", seed=seed,
                     chip="tiny", duration_s=0.5, train_episodes=1)
             for seed in (1, 2)]
    with pytest.raises(SimulationError, match="1 observability sessions"):
        run_batch(specs, sessions=[None])
    jobs = [RLTrainJob(chip=PRESETS["tiny"](), scenario=get_scenario("idle"),
                       episodes=1, episode_duration_s=0.5) for _ in range(2)]
    with pytest.raises(SimulationError, match="3 observability sessions"):
        train_policy_batch(jobs, [None] * 3)
