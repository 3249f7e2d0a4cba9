"""The fleet subsystem: specs, runner, determinism, failure isolation."""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import SweepResult, SweepRow, sweep
from repro.batch import BatchEngine
from repro.cache import RunCache
from repro.core.config import PolicyConfig
from repro.core.trainer import evaluate_policy, make_policies, train_policy
from repro.errors import ReproError
from repro.experiments import x1_full_system, x2_seed_stability
from repro.fleet import (
    EventLog,
    FleetFinished,
    FleetProgress,
    FleetSpec,
    FleetStarted,
    JobCached,
    JobDone,
    JobFailed,
    JobFailure,
    JobMeasurement,
    JobQueued,
    JobRetried,
    JobSpec,
    JobSuccess,
    execute_job,
    failure_table,
    fleet_summary,
    format_event,
    format_progress_line,
    merge_job_metrics,
    result_table,
    resolve_workers,
    run_fleet,
    run_unit,
    split_by_seed,
    to_sweep_result,
)
from repro.fleet.worker import simulate_spec
from repro.governors import BASELINE_SIX, create
from repro.idle.governor import MenuIdleGovernor
from repro.power.model import PowerModel
from repro.sim.engine import Simulator
from repro.sim.result import SimulationResult
from repro.soc.chip import Chip
from repro.soc.presets import exynos5422, tiny_test_chip
from repro.soc.transition import DVFSTransitionModel
from repro.thermal.rc import default_thermal_model
from repro.thermal.throttle import ThermalThrottle
from repro.workload.scenarios import get_scenario

# Small, fast grid settings shared by the execution tests.
FAST = dict(duration_s=1.0, train_episodes=2)


def _measurement() -> JobMeasurement:
    return JobMeasurement(
        energy_j=1.0,
        mean_qos=0.9,
        deadline_miss_rate=0.1,
        energy_per_qos_j=1.0 / 0.9,
        sim_duration_s=1.0,
    )


# Module-level job functions: the pool pickles them by reference.
def _hang_forever(spec: JobSpec) -> JobMeasurement:
    time.sleep(60.0)
    return _measurement()


def _always_raise(spec: JobSpec) -> JobMeasurement:
    raise ValueError(f"boom in {spec.job_id}")


def _flaky_via_marker(spec: JobSpec) -> JobMeasurement:
    """Fails until a marker file exists; the governor field carries its
    path (``flaky:<path>``), so the state survives process boundaries."""
    marker = Path(spec.governor.removeprefix("flaky:"))
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("first attempt always fails")
    return _measurement()


def _quick(spec: JobSpec) -> JobMeasurement:
    return _measurement()


def _per_job(spec: JobSpec) -> JobMeasurement:
    """``execute_job`` under another name: a custom ``job_fn`` keeps the
    fleet on its one-job-per-call path, with no RL chunks."""
    return execute_job(spec)


def _flaky_with_metrics(spec: JobSpec) -> JobMeasurement:
    """Flaky-via-marker variant whose success carries a metric snapshot,
    so metric-merge double counting would be visible.  Jobs without the
    ``flaky:`` governor prefix succeed on the first attempt."""
    if spec.governor.startswith("flaky:"):
        marker = Path(spec.governor.removeprefix("flaky:"))
        if not marker.exists():
            marker.write_text("attempted")
            raise RuntimeError("first attempt always fails")
    m = _measurement()
    return JobMeasurement(
        energy_j=m.energy_j,
        mean_qos=m.mean_qos,
        deadline_miss_rate=m.deadline_miss_rate,
        energy_per_qos_j=m.energy_per_qos_j,
        sim_duration_s=m.sim_duration_s,
        metrics={"counters": {"sim.intervals": 100.0}},
    )


class TestJobSpec:
    def test_job_id(self):
        spec = JobSpec(scenario="gaming", governor="ondemand", seed=7,
                       chip="tiny")
        assert spec.job_id == "tiny/gaming/ondemand/s7"

    def test_flags(self):
        assert JobSpec(scenario="s", governor="rl-policy").is_rl
        assert JobSpec(scenario="s", governor="checkpoint:/x").is_checkpoint
        assert not JobSpec(scenario="s", governor="ondemand").is_rl

    def test_validation(self):
        with pytest.raises(ReproError):
            JobSpec(scenario="", governor="ondemand")
        with pytest.raises(ReproError):
            JobSpec(scenario="s", governor="ondemand", duration_s=0.0)
        with pytest.raises(ReproError):
            JobSpec(scenario="s", governor="ondemand", train_episodes=0)

    def test_mapping_round_trip(self):
        spec = JobSpec(scenario="gaming", governor="ondemand", seed=3,
                       duration_s=5.0)
        assert JobSpec.from_mapping(spec.to_mapping()) == spec

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="unknown job spec keys"):
            JobSpec.from_mapping({"scenario": "s", "governor": "g",
                                  "warp": 9})

    def test_chip_obj_not_serialisable(self):
        spec = JobSpec(scenario="s", governor="g", chip_obj=tiny_test_chip())
        with pytest.raises(ReproError, match="chip_obj"):
            spec.to_mapping()


class TestFleetSpec:
    def test_expand_order_and_count(self):
        spec = FleetSpec(
            scenarios=("a", "b"), governors=("g1", "g2"), seeds=(1, 2),
            chips=("tiny",),
        )
        jobs = spec.expand()
        assert len(jobs) == spec.n_jobs == 8
        # scenario-major, then governor, then seed.
        assert [(j.scenario, j.governor, j.seed) for j in jobs[:4]] == [
            ("a", "g1", 1), ("a", "g1", 2), ("a", "g2", 1), ("a", "g2", 2),
        ]

    def test_include_rl_appends_axis(self):
        spec = FleetSpec(scenarios=("a",), governors=("g",), include_rl=True)
        assert spec.governor_axis == ("g", "rl-policy")
        assert spec.expand()[-1].governor == "rl-policy"

    def test_lists_are_frozen_to_tuples(self):
        spec = FleetSpec(scenarios=["a"], governors=["g"], seeds=[1])
        assert spec.scenarios == ("a",)
        assert spec.seeds == (1,)

    def test_validation(self):
        with pytest.raises(ReproError):
            FleetSpec(scenarios=(), governors=("g",))
        with pytest.raises(ReproError):
            FleetSpec(scenarios=("a",), governors=())
        with pytest.raises(ReproError):
            FleetSpec(scenarios=("a",), governors=("g",), retries=-1)
        with pytest.raises(ReproError):
            FleetSpec(scenarios=("a",), governors=("g",), timeout_s=0.0)

    def test_mapping_round_trip(self):
        spec = FleetSpec(scenarios=("a",), governors=("g",), seeds=(1, 2),
                         timeout_s=5.0, retries=1)
        assert FleetSpec.from_mapping(spec.to_mapping()) == spec


class TestWorker:
    def test_execute_job_baseline(self):
        spec = JobSpec(scenario="audio_playback", governor="ondemand",
                       seed=1, chip="tiny", **FAST)
        m = execute_job(spec)
        assert m.energy_j > 0
        assert 0.0 <= m.mean_qos <= 1.0
        assert m.sim_duration_s == spec.duration_s

    def test_execute_job_unknown_chip(self):
        spec = JobSpec(scenario="idle", governor="ondemand",
                       chip="snapdragon", **FAST)
        with pytest.raises(ReproError, match="unknown chip preset"):
            execute_job(spec)

    def test_run_job_success_telemetry(self):
        [outcome] = run_unit([(3, JobSpec(scenario="s", governor="g"))],
                             job_fn=_quick)
        assert isinstance(outcome, JobSuccess)
        assert outcome.index == 3
        assert outcome.attempts == 1
        assert outcome.wall_s >= 0.0
        assert outcome.sim_throughput >= 0.0

    def test_run_job_converts_exceptions(self):
        [outcome] = run_unit([(1, JobSpec(scenario="s", governor="g"))],
                             job_fn=_always_raise)
        assert isinstance(outcome, JobFailure)
        assert outcome.error_type == "ValueError"
        assert "boom" in outcome.error
        assert "ValueError" in outcome.traceback_str
        assert not outcome.timed_out

    def test_run_job_timeout(self):
        start = time.perf_counter()
        [outcome] = run_unit([(0, JobSpec(scenario="s", governor="g"))],
                             timeout_s=0.2, job_fn=_hang_forever)
        assert time.perf_counter() - start < 10.0
        assert isinstance(outcome, JobFailure)
        assert outcome.timed_out
        assert outcome.error_type == "JobTimeout"


class TestRunner:
    def test_resolve_workers(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ReproError):
            resolve_workers(-2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ReproError, match="at least one job"):
            run_fleet([])

    def test_serial_matches_parallel(self):
        spec = FleetSpec(
            scenarios=("audio_playback", "idle"),
            governors=("ondemand", "performance"),
            seeds=(1, 2), chips=("tiny",), **FAST,
        )
        serial = run_fleet(spec, jobs=1)
        parallel = run_fleet(spec, jobs=4)
        assert serial.sweep_result().rows == parallel.sweep_result().rows
        assert [o.job_id for o in serial.outcomes] == [
            o.job_id for o in parallel.outcomes
        ]

    def test_failure_isolation(self):
        """One bad governor name yields failure rows, not a dead grid."""
        spec = FleetSpec(
            scenarios=("idle",),
            governors=("ondemand", "warpdrive", "performance"),
            seeds=(1,), chips=("tiny",), **FAST,
        )
        result = run_fleet(spec, jobs=2)
        assert len(result.successes) == 2
        assert len(result.failures) == 1
        assert result.failures[0].spec.governor == "warpdrive"
        assert result.failures[0].error_type == "GovernorError"
        # Strict aggregation refuses the holed grid...
        with pytest.raises(ReproError, match="1 of 3 fleet jobs failed"):
            result.sweep_result()
        # ...but the lenient path still yields the good rows.
        rows = result.sweep_result(strict=False).rows
        assert [r.governor for r in rows] == ["ondemand", "performance"]

    def test_timeout_and_retry_in_pool(self, tmp_path):
        hang = JobSpec(scenario="s", governor="hang")
        outcome = run_fleet([hang], jobs=2, timeout_s=0.2, retries=1,
                            job_fn=_hang_forever).outcomes[0]
        assert isinstance(outcome, JobFailure)
        assert outcome.timed_out
        assert outcome.attempts == 2

    def test_flaky_job_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "attempted"
        flaky = JobSpec(scenario="s", governor=f"flaky:{marker}")
        log = EventLog()
        result = run_fleet([flaky], jobs=2, retries=1, on_event=log,
                           job_fn=_flaky_via_marker)
        [outcome] = result.outcomes
        assert isinstance(outcome, JobSuccess)
        assert outcome.attempts == 2
        assert log.count(JobRetried) == 1
        assert log.count(JobFailed) == 1

    def test_flaky_retry_counts_exactly_once(self, tmp_path):
        """A job that fails attempt 1 and succeeds attempt 2 contributes
        exactly one outcome — no phantom rows in the sweep aggregation,
        no double-summed counters in the metric merge."""
        marker = tmp_path / "attempted"
        grid = [
            JobSpec(scenario="s", governor="steady-a"),
            JobSpec(scenario="s", governor=f"flaky:{marker}"),
            JobSpec(scenario="s", governor="steady-b"),
        ]
        for jobs in (1, 2):
            if marker.exists():
                marker.unlink()
            log = EventLog()
            result = run_fleet(grid, jobs=jobs, retries=1, on_event=log,
                               job_fn=_flaky_with_metrics)
            assert log.count(JobFailed) == 1
            assert log.count(JobRetried) == 1
            # One outcome per grid job, each index exactly once.
            assert len(result.outcomes) == 3
            assert [o.index for o in result.outcomes] == [0, 1, 2]
            assert all(isinstance(o, JobSuccess) for o in result.outcomes)
            assert [s.attempts for s in result.successes] == [1, 2, 1]
            # Aggregations see the job once, not per attempt.
            rows = to_sweep_result(result.successes).rows
            assert [r.governor for r in rows] == [s.governor for s in grid]
            merged = merge_job_metrics(result.successes)
            assert merged["counters"]["sim.intervals"] == 300.0

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("timeout_s", [-1.0, 0])
    def test_timeout_must_be_positive(self, jobs, timeout_s):
        job = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                      **FAST)
        log = EventLog()
        with pytest.raises(ReproError, match="timeout must be positive"):
            run_fleet([job], jobs=jobs, timeout_s=timeout_s, on_event=log)
        assert log.events == []

    def test_no_retry_by_default(self):
        result = run_fleet([JobSpec(scenario="s", governor="g")], jobs=1,
                           job_fn=_always_raise)
        assert result.failures[0].attempts == 1

    def test_event_stream(self):
        spec = FleetSpec(scenarios=("idle",), governors=("ondemand",),
                         seeds=(1, 2), chips=("tiny",), **FAST)
        log = EventLog()
        run_fleet(spec, jobs=2, on_event=log)
        assert log.count(FleetStarted) == 1
        assert log.count(JobQueued) == 2
        assert log.count(JobDone) == 2
        assert log.count(FleetProgress) == 2
        assert log.count(FleetFinished) == 1
        done = log.of_type(JobDone)[0]
        assert done.wall_s > 0.0
        assert done.sim_throughput > 0.0

    def test_speedup_accounting(self):
        spec = FleetSpec(scenarios=("idle",), governors=("ondemand",),
                         seeds=(1,), chips=("tiny",), **FAST)
        result = run_fleet(spec, jobs=1)
        assert result.wall_s > 0.0
        assert result.serial_wall_estimate_s == pytest.approx(
            sum(o.wall_s for o in result.outcomes)
        )
        assert result.speedup > 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_speedup_accounting_with_chunks(self, jobs):
        # Four ondemand singles and four RL jobs: one RL chunk of four
        # for one worker, two chunks of two for two workers.
        spec = FleetSpec(scenarios=("idle", "audio_playback"),
                         governors=("ondemand",), include_rl=True,
                         seeds=(1, 2), chips=("tiny",), **FAST)
        log = EventLog()
        result = run_fleet(spec, jobs=jobs, on_event=log)
        assert result.workers == jobs
        assert log.of_type(FleetStarted)[0].workers == jobs
        assert result.serial_wall_estimate_s == pytest.approx(
            sum(o.wall_s for o in result.outcomes)
        )
        walls = [o.wall_s for o in result.successes if o.spec.is_rl]
        size = 4 // jobs
        chunks = [walls[k:k + size] for k in range(0, 4, size)]
        assert all(len(set(chunk)) == 1 and chunk[0] > 0.0
                   for chunk in chunks)
        assert result.speedup > 0.0


def _sweep_row(scenario: str, governor: str, run: SimulationResult) -> SweepRow:
    return SweepRow(
        scenario=scenario,
        governor=governor,
        energy_j=run.total_energy_j,
        mean_qos=run.qos.mean_qos,
        deadline_miss_rate=run.qos.deadline_miss_rate,
        energy_per_qos_j=run.energy_per_qos_j,
    )


def reference_sweep(
    chip: Chip,
    scenario_names: list[str],
    governor_names: list[str],
    include_rl: bool,
    eval_seed: int,
    duration_s: float,
    train_episodes: int,
    policy_config: PolicyConfig | None = None,
) -> SweepResult:
    """The sweep grid as a plain nested loop — serial engine, serial
    trainer, one chip object throughout, no fleet and no batch backend —
    so the fleet-backed ``sweep`` has an independent reference."""
    rows = []
    power_model = PowerModel()
    for name in scenario_names:
        scenario = get_scenario(name)
        trace = scenario.trace(duration_s, seed=eval_seed)
        for governor in governor_names:
            run = Simulator(chip, trace, lambda c, g=governor: create(g),
                            power_model=power_model).run()
            rows.append(_sweep_row(name, governor, run))
        if include_rl:
            training = train_policy(
                chip, scenario, episodes=train_episodes,
                episode_duration_s=duration_s, base_seed=0,
                config=policy_config, power_model=power_model,
            )
            run = evaluate_policy(chip, training.policies, trace,
                                  power_model=power_model)
            rows.append(_sweep_row(name, "rl-policy", run))
    return SweepResult(rows=rows)


def _full_system(chip: Chip, trace, governors) -> Simulator:
    """The X1 substrate: thermals with throttling, cpuidle C-states and
    DVFS transition costs."""
    return Simulator(
        chip,
        trace,
        governors,
        thermal=default_thermal_model(chip.cluster_names),
        throttle=ThermalThrottle(trip_c=85.0),
        idle_governor=MenuIdleGovernor(),
        transition=DVFSTransitionModel(),
    )


class TestDeterminism:
    """Fleet-backed harness rows must be bit-identical to plain serial
    loops, whatever the worker count."""

    def test_fleet_grid_matches_serial_headline_sweep(self):
        """The acceptance grid, scaled down: 2 scenarios x 6 governors
        x 2 seeds (+ RL + one injected failure) through 4 workers equals
        the reference loop once per seed."""
        scenarios = ("audio_playback", "idle")
        governors = ("performance", "powersave", "userspace", "ondemand",
                     "conservative", "interactive")
        seeds = (1, 2)
        spec = FleetSpec(
            scenarios=scenarios,
            governors=governors + ("warpdrive",),  # the injected failure
            seeds=seeds, chips=("tiny",), include_rl=True, **FAST,
        )
        fleet = run_fleet(spec, jobs=4)
        assert len(fleet.outcomes) == 2 * 8 * 2
        assert len(fleet.failures) == len(scenarios) * len(seeds)
        by_seed = split_by_seed(fleet.successes)
        for seed in seeds:
            serial = reference_sweep(
                tiny_test_chip(), list(scenarios), list(governors),
                include_rl=True, eval_seed=seed, **FAST,
            )
            assert by_seed[seed].rows == serial.rows, seed

    def test_parallel_sweep_equals_serial_sweep(self):
        kwargs = dict(
            scenario_names=["audio_playback"],
            governor_names=["ondemand", "powersave"],
            include_rl=True, eval_seed=5, **FAST,
        )
        reference = reference_sweep(tiny_test_chip(), **kwargs)
        for jobs in (1, 2):
            assert sweep(tiny_test_chip(), jobs=jobs, **kwargs).rows \
                == reference.rows, jobs

    def test_sweep_policy_config_matches_reference(self):
        kwargs = dict(
            scenario_names=["audio_playback"],
            governor_names=["performance"],
            include_rl=True, eval_seed=5,
            policy_config=PolicyConfig(trend_bins=1, slack_bins=1), **FAST,
        )
        assert sweep(tiny_test_chip(), **kwargs).rows \
            == reference_sweep(tiny_test_chip(), **kwargs).rows

    def test_custom_chip_ships_to_workers(self, duo_chip):
        kwargs = dict(
            scenario_names=["idle"],
            governor_names=["ondemand"],
            include_rl=False,
            eval_seed=1,
            **FAST,
        )
        reference = reference_sweep(duo_chip, **kwargs).rows
        assert sweep(duo_chip, jobs=2, **kwargs).rows == reference
        assert sweep(duo_chip, jobs=1, **kwargs).rows == reference

    def test_x1_matches_full_system_loop(self):
        governors = ["performance", "ondemand"]
        result = x1_full_system(
            scenario_names=["audio_playback"], governor_names=governors,
            duration_s=1.0, train_episodes=2, train_episode_s=1.0,
        )
        chip = exynos5422()
        scenario = get_scenario("audio_playback")
        trace = scenario.trace(1.0, seed=100)
        for governor in governors:
            run = _full_system(chip, trace, lambda c: create(governor)).run()
            assert result.cells_j[("audio_playback", governor)] \
                == run.energy_per_qos_j, governor
        policies = make_policies(chip)
        for episode in range(2):
            _full_system(chip, scenario.trace(1.0, seed=episode),
                         policies).run()
        for p in policies.values():
            p.online = False
        rl = _full_system(chip, trace, policies).run()
        assert result.cells_j[("audio_playback", "rl-policy")] \
            == rl.energy_per_qos_j
        assert result.rl_qos["audio_playback"] == rl.qos.mean_qos

    def test_x2_checkpoint_jobs_match_in_memory_evaluation(self):
        seeds = [100, 200]
        chip = exynos5422()
        scenario = get_scenario("audio_playback")
        training = train_policy(chip, scenario, episodes=2,
                                episode_duration_s=1.0)
        traces = [scenario.trace(1.0, seed=seed) for seed in seeds]
        rl = tuple(
            evaluate_policy(chip, training.policies, t).energy_per_qos_j
            for t in traces
        )
        ondemand = tuple(
            Simulator(chip, t, lambda c: create("ondemand"))
            .run().energy_per_qos_j
            for t in traces
        )
        for jobs in (1, 2):
            result = x2_seed_stability(
                scenario_name="audio_playback", governor_names=["ondemand"],
                eval_seeds=seeds, duration_s=1.0, train_episodes=2,
                jobs=jobs,
            )
            assert list(result.measures) == ["rl-policy", "ondemand"]
            assert result.measures["rl-policy"].values == rl, jobs
            assert result.measures["ondemand"].values == ondemand, jobs

    def test_x2_runs_one_fleet(self, monkeypatch):
        # Every (policy, seed) job goes through one run_fleet call, so a
        # pool starts once rather than once per policy.
        import repro.fleet
        from repro.experiments import robustness

        calls = []

        def counting(specs, **kwargs):
            calls.append(len(specs))
            return run_fleet(specs, **kwargs)

        monkeypatch.setattr(robustness, "run_fleet", counting)
        monkeypatch.setattr(repro.fleet, "run_fleet", counting)
        x2_seed_stability(
            scenario_name="idle", governor_names=["ondemand", "powersave"],
            eval_seeds=[1, 2], duration_s=0.5, train_episodes=1, jobs=2,
        )
        assert calls == [6]


settings.register_profile(
    "fleet-chunks",
    derandomize=True,
    database=None,
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small fleet grids on the tiny chip; ``warm`` picks grid positions
# (modulo the grid size) to store in the run cache beforehand.
_GRIDS = st.fixed_dictionaries({
    "scenarios": st.lists(
        st.sampled_from(("idle", "audio_playback", "video_playback")),
        min_size=1, max_size=2, unique=True,
    ),
    "seeds": st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=2,
                      unique=True),
    "governors": st.lists(st.sampled_from(BASELINE_SIX), min_size=1,
                          max_size=6, unique=True),
    "include_rl": st.booleans(),
    "unknown": st.booleans(),
    "warm": st.lists(st.integers(0, 63), max_size=4),
})


def _outcome_row(o: JobSuccess | JobFailure) -> tuple:
    if isinstance(o, JobSuccess):
        return (o.index, o.job_id, o.energy_j, o.mean_qos,
                o.deadline_miss_rate, o.energy_per_qos_j, o.sim_duration_s,
                o.attempts, o.cached)
    return (o.index, o.job_id, o.error_type, o.attempts, o.timed_out)


def _fleet_rows(specs, jobs, cache_dir, job_fn) -> list[tuple]:
    """Outcome rows of one fleet run, after checking it reported every
    job exactly once (done, failed or cached)."""
    log = EventLog()
    result = run_fleet(
        specs, jobs=jobs, on_event=log, job_fn=job_fn,
        cache=RunCache(cache_dir) if cache_dir is not None else None,
    )
    terminal = Counter(
        e.index for e in log.events
        if isinstance(e, (JobDone, JobFailed, JobCached))
    )
    assert terminal == Counter(range(len(specs)))
    return [_outcome_row(o) for o in result.outcomes]


class TestUnits:
    """Default fleets run RL chunks lock-step; rows must not notice."""

    @settings(settings.get_profile("fleet-chunks"))
    @given(grid=_GRIDS)
    def test_chunked_fleet_equals_per_job_fleet(self, grid):
        governors = tuple(grid["governors"])
        if grid["unknown"]:
            governors += ("warpdrive",)
        specs = FleetSpec(
            scenarios=tuple(grid["scenarios"]), governors=governors,
            seeds=tuple(grid["seeds"]), chips=("tiny",),
            include_rl=grid["include_rl"], duration_s=0.5, train_episodes=2,
        ).expand()
        warm = [specs[i % len(specs)] for i in grid["warm"]]
        with tempfile.TemporaryDirectory() as tmp:
            for jobs in (1, 2):
                for cached in (False, True):
                    chunked_dir = per_job_dir = None
                    if cached:
                        chunked_dir = Path(tmp) / f"chunked-{jobs}"
                        per_job_dir = Path(tmp) / f"per-job-{jobs}"
                        chunked_dir.mkdir()
                        if warm:
                            run_fleet(warm, jobs=1, job_fn=_per_job,
                                      cache=RunCache(chunked_dir))
                        shutil.copytree(chunked_dir, per_job_dir)
                    chunked = _fleet_rows(specs, jobs, chunked_dir,
                                          execute_job)
                    per_job = _fleet_rows(specs, jobs, per_job_dir, _per_job)
                    assert chunked == per_job, (jobs, cached)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_member_fails_alone(self, jobs):
        specs = [
            JobSpec(scenario=scenario, governor="rl-policy", seed=1,
                    chip="tiny", **FAST)
            for scenario in ("idle", "nowhere", "audio_playback")
        ]
        result = run_fleet(specs, jobs=jobs)
        [failure] = result.failures
        assert failure.spec.scenario == "nowhere"
        assert failure.error_type == "WorkloadError"
        assert failure.attempts == 1 and not failure.timed_out
        for success in result.successes:
            run = simulate_spec(success.spec)
            assert (success.energy_j, success.mean_qos,
                    success.energy_per_qos_j) == (
                run.total_energy_j, run.qos.mean_qos, run.energy_per_qos_j)

    @staticmethod
    def _rl_grid() -> list[JobSpec]:
        return [
            JobSpec(scenario="audio_playback", governor="rl-policy",
                    seed=seed, chip="tiny", **FAST)
            for seed in (1, 2)
        ]

    def _assert_rerun_singly(self, result, log) -> None:
        assert log.count(JobDone) == 2 and log.count(JobFailed) == 0
        assert [s.attempts for s in result.successes] == [1, 1]
        assert _rows(result) == _rows(run_fleet(self._rl_grid(),
                                                 job_fn=_per_job))

    # A fault that breaks only multi-lane lock-step passes fails the
    # chunk; each member rerun singly runs a one-lane pass and succeeds.

    def test_raising_chunk_reruns_members_singly(self, monkeypatch):
        from repro.batch.rl import _LockstepRunner

        real = _LockstepRunner.run_episode

        def explode(runner, traces, online):
            if runner.n > 1:
                raise RuntimeError("lock-step runner broke")
            return real(runner, traces, online)

        monkeypatch.setattr(_LockstepRunner, "run_episode", explode)
        log = EventLog()
        result = run_fleet(self._rl_grid(), jobs=1, on_event=log)
        self._assert_rerun_singly(result, log)

    def test_overrunning_chunk_reruns_members_singly(self, monkeypatch):
        from repro.batch.rl import _LockstepRunner

        real = _LockstepRunner.run_episode

        def hang(runner, traces, online):
            if runner.n > 1:
                time.sleep(60.0)
            return real(runner, traces, online)

        monkeypatch.setattr(_LockstepRunner, "run_episode", hang)
        log = EventLog()
        start = time.perf_counter()
        # The chunk's budget is 2 x 0.3 s; each single rerun gets 0.3 s.
        result = run_fleet(self._rl_grid(), jobs=1, timeout_s=0.3,
                           on_event=log)
        assert time.perf_counter() - start < 10.0
        self._assert_rerun_singly(result, log)


    def test_every_job_gets_one_fleet_job_span(self):
        from repro.obs import capture
        from repro.obs.context import TraceContext

        grid = FleetSpec(
            scenarios=("idle", "audio_playback"), governors=("powersave",
                                                          "ondemand"),
            seeds=(1, 2), chips=("tiny",), include_rl=True,
            collect_metrics=True, **FAST,
        ).expand()
        specs = [
            replace(spec, trace_context=TraceContext(trace_id=f"{i:016x}"))
            for i, spec in enumerate(grid)
        ]
        assert any(len(unit) >= 2 for unit in BatchEngine(specs).units())
        with capture() as session:
            result = run_fleet(specs, jobs=1)
        assert not result.failures
        spans = [s for s in session.tracer.spans if s.name == "fleet.job"]
        assert sorted(
            (s.args["job_id"], s.args["trace_id"]) for s in spans
        ) == sorted(
            (spec.job_id, spec.trace_context.trace_id) for spec in specs
        )

    def test_unobserved_jobs_get_fleet_job_spans(self):
        # No job has a session of its own: the spans go to the active
        # tracer, as `repro fleet --trace --jobs 1` without --metrics.
        from repro.obs import capture

        specs = FleetSpec(
            scenarios=("idle",), governors=("powersave", "ondemand"),
            seeds=(1, 2), chips=("tiny",), include_rl=True, **FAST,
        ).expand()
        assert len(specs) == 6
        assert any(len(unit) >= 2 for unit in BatchEngine(specs).units())
        with capture() as session:
            result = run_fleet(specs, jobs=1)
        assert not result.failures
        spans = [s for s in session.tracer.spans if s.name == "fleet.job"]
        assert sorted(s.args["job_id"] for s in spans) == sorted(
            spec.job_id for spec in specs
        )

    def test_dead_chunk_worker_fails_its_members(self, monkeypatch):
        import os

        import repro.batch.engine

        def die(specs, sessions):
            os._exit(1)

        monkeypatch.setattr(repro.batch.engine, "_run_rl_group", die)
        specs = [
            JobSpec(scenario="audio_playback", governor="rl-policy",
                    seed=seed, chip="tiny", **FAST)
            for seed in (1, 2, 3, 4)
        ]
        log = EventLog()
        # Two workers: two chunks of two, each of which kills its worker.
        result = run_fleet(specs, jobs=2, retries=0, on_event=log)
        assert result.n_jobs == 4 and not result.successes
        for failure in result.failures:
            assert failure.error_type == "BrokenProcessPool"
            assert failure.attempts == 1
        failed = log.of_type(JobFailed)
        assert sorted(e.index for e in failed) == [0, 1, 2, 3]
        assert all(e.final for e in failed)
        assert log.count(JobRetried) == 0

    # The pinned jobs=1 event order: a flaky job retried once, a job
    # failing for good, and an RL chunk of four whose multi-lane
    # lock-step call raises, so its members rerun singly.
    EVENT_ORDER = [
        ("FleetStarted", None),
        ("JobQueued", 0), ("JobFailed", 0), ("JobRetried", 0),
        ("JobDone", 0), ("FleetProgress", None),
        ("JobQueued", 1), ("JobFailed", 1), ("JobRetried", 1),
        ("JobFailed", 1), ("FleetProgress", None),
        ("JobQueued", 2), ("JobQueued", 3), ("JobQueued", 4),
        ("JobQueued", 5),
        ("JobDone", 2), ("FleetProgress", None),
        ("JobDone", 3), ("FleetProgress", None),
        ("JobDone", 4), ("FleetProgress", None),
        ("JobDone", 5), ("FleetProgress", None),
        ("FleetFinished", None),
    ]

    def test_event_order(self, monkeypatch, tmp_path):
        import repro.batch.engine
        from repro.batch.rl import _LockstepRunner

        fixed_opp = repro.batch.engine.run_fixed_opp
        real = _LockstepRunner.run_episode
        chunk_ran = tmp_path / "chunk-ran"

        def explode(runner, traces, online):
            if runner.n > 1:
                chunk_ran.write_text("ran")
                raise RuntimeError("lock-step runner broke")
            return real(runner, traces, online)

        monkeypatch.setattr(_LockstepRunner, "run_episode", explode)
        specs = [
            JobSpec(scenario="idle", governor="powersave", seed=1,
                    chip="tiny", **FAST),
            JobSpec(scenario="idle", governor="warpdrive", seed=1,
                    chip="tiny", **FAST),
        ] + [
            JobSpec(scenario="audio_playback", governor="rl-policy",
                    seed=seed, chip="tiny", **FAST)
            for seed in (1, 2, 3, 4)
        ]
        per_job = {}
        for jobs in (1, 2):
            marker = tmp_path / f"attempted-{jobs}"

            def flaky(spec, *args, marker=marker):
                # The powersave job fails its first attempt only.
                if spec.governor == "powersave" and not marker.exists():
                    marker.write_text("attempted")
                    raise RuntimeError("first attempt always fails")
                return fixed_opp(spec, *args)

            monkeypatch.setattr(repro.batch.engine, "run_fixed_opp", flaky)
            chunk_ran.unlink(missing_ok=True)
            log = EventLog()
            result = run_fleet(specs, jobs=jobs, retries=1, on_event=log)
            assert chunk_ran.exists()
            assert [(type(o).__name__, o.attempts)
                    for o in result.outcomes] == [
                ("JobSuccess", 2), ("JobFailure", 2),
            ] + [("JobSuccess", 1)] * 4
            events = [(type(e).__name__, getattr(e, "index", None))
                      for e in log.events]
            if jobs == 1:
                assert events == self.EVENT_ORDER
            per_job[jobs] = {
                index: [kind for kind, i in events if i == index]
                for index in range(len(specs))
            }
        assert per_job[2] == per_job[1]


def _rows(result) -> list[tuple]:
    return [_outcome_row(o) for o in result.outcomes]


class TestAggregation:
    def _successes(self):
        spec = FleetSpec(scenarios=("idle",), governors=("ondemand",),
                         seeds=(1, 2), chips=("tiny",), **FAST)
        return run_fleet(spec, jobs=1).successes

    def test_order_independent(self):
        successes = self._successes()
        shuffled = list(reversed(successes))
        assert to_sweep_result(successes).rows == \
            to_sweep_result(shuffled).rows

    def test_seed_filter(self):
        successes = self._successes()
        only = to_sweep_result(successes, seed=2)
        assert len(only.rows) == 1
        by_seed = split_by_seed(successes)
        assert sorted(by_seed) == [1, 2]
        assert by_seed[2].rows == only.rows

    def test_tables_render(self):
        successes = self._successes()
        table = result_table(successes)
        assert "ondemand" in table and "wall [s]" in table
        assert failure_table([]) == ""
        failure = run_fleet([JobSpec(scenario="s", governor="g")], jobs=1,
                            job_fn=_always_raise).failures[0]
        assert "ValueError" in failure_table([failure])


class TestEvents:
    def test_format_event_lines(self):
        assert "2 jobs" in format_event(FleetStarted(n_jobs=2, workers=1))
        assert format_event(JobQueued(index=0, job_id="j")) is None
        line = format_event(JobDone(index=0, job_id="tiny/idle/ondemand/s1",
                                    wall_s=1.5, sim_throughput=12.0))
        assert "tiny/idle/ondemand/s1" in line
        failed = format_event(JobFailed(index=0, job_id="j", attempt=1,
                                        error="E: boom", timed_out=True,
                                        final=False))
        assert "timeout" in failed and "will retry" in failed
        assert "retry" in format_event(JobRetried(index=0, job_id="j",
                                                  attempt=2))
        assert "finished" in format_event(FleetFinished(done=1, failed=0,
                                                        wall_s=2.0))

    def test_summary_mentions_speedup(self):
        spec = FleetSpec(scenarios=("idle",), governors=("ondemand",),
                         seeds=(1,), chips=("tiny",), **FAST)
        summary = fleet_summary(run_fleet(spec, jobs=1))
        assert "speedup" in summary


class TestFleetCLI:
    def test_fleet_command_survives_bad_governor(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "fleet.json"
        code = main([
            "fleet", "--chip", "tiny",
            "--scenarios", "audio_playback,idle",
            "--governors", "ondemand,warpdrive",
            "--seeds", "1,2", "--duration", "1.0",
            "--jobs", "2", "--quiet", "--out", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet results" in out
        assert "failed jobs" in out
        assert "speedup" in out
        data = json.loads(out_file.read_text())
        assert len(data["rows"]) == 4
        assert len(data["failures"]) == 4
        assert data["failures"][0]["error_type"] == "GovernorError"

    def test_fleet_spec_file(self, capsys, tmp_path):
        from repro.cli import main

        spec = FleetSpec(scenarios=("idle",), governors=("ondemand",),
                         seeds=(1,), chips=("tiny",), **FAST)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_mapping()))
        assert main(["fleet", "--spec", str(spec_file), "--quiet"]) == 0
        assert "fleet results" in capsys.readouterr().out

    def test_fleet_all_failed_is_error(self, capsys):
        from repro.cli import main

        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "warpdrive", "--seeds", "1",
            "--duration", "1.0", "--jobs", "1", "--quiet",
        ])
        assert code == 1

    def test_list_shows_descriptions(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "menu / 60 fps gameplay / level loads" in out
        assert "background ticks and sync bursts" in out

    def test_compare_jobs_flag(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "--chip", "tiny", "--scenario", "audio_playback",
            "--governors", "performance,powersave",
            "--duration", "1.0", "--episodes", "2", "--jobs", "2",
        ])
        assert code == 0
        assert "rl-policy" in capsys.readouterr().out


class TestFleetMetrics:
    def test_collect_metrics_travels_on_job_done(self):
        spec = FleetSpec(scenarios=("idle",), governors=("ondemand",),
                         seeds=(1,), chips=("tiny",), collect_metrics=True,
                         **FAST)
        log = EventLog()
        result = run_fleet(spec, jobs=1, on_event=log)
        success = result.successes[0]
        assert success.metrics is not None
        assert success.metrics["counters"]["sim.runs"] == 1.0
        done = log.of_type(JobDone)[0]
        assert done.metrics == success.metrics

    def test_metrics_off_by_default(self):
        spec = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                       duration_s=1.0)
        assert execute_job(spec).metrics is None
        assert run_unit([(0, spec)])[0].metrics is None

    def test_obs_state_restored_after_job(self):
        from repro.obs import OBS

        spec = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                       duration_s=1.0, collect_metrics=True)
        measurement = execute_job(spec)
        assert not OBS.enabled
        assert measurement.metrics["counters"]["sim.intervals"] > 0

    def test_merge_job_metrics_sums_counters(self):
        spec = FleetSpec(scenarios=("idle",),
                         governors=("ondemand", "powersave"),
                         seeds=(1,), chips=("tiny",), collect_metrics=True,
                         **FAST)
        result = run_fleet(spec, jobs=1)
        merged = merge_job_metrics(result.successes)
        assert merged["counters"]["sim.runs"] == 2.0
        # Gauges average, and record the contributing-job count.
        assert merged["gauges"]["sim.last_mean_qos.jobs"] == 2.0

    def test_merge_skips_jobs_without_snapshots(self):
        spec = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                       duration_s=1.0)
        outcome = run_unit([(0, spec)])
        assert merge_job_metrics(outcome) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_collect_metrics_round_trips_spec_mapping(self):
        spec = FleetSpec(scenarios=("idle",), governors=("ondemand",),
                         seeds=(1,), chips=("tiny",), collect_metrics=True)
        again = FleetSpec.from_mapping(spec.to_mapping())
        assert again.collect_metrics
        assert all(j.collect_metrics for j in again.expand())

    def test_parallel_jobs_carry_metrics(self):
        spec = FleetSpec(scenarios=("idle",),
                         governors=("ondemand", "powersave"),
                         seeds=(1,), chips=("tiny",), collect_metrics=True,
                         **FAST)
        result = run_fleet(spec, jobs=2)
        assert all(s.metrics is not None for s in result.successes)
        merged = merge_job_metrics(result.successes)
        assert merged["counters"]["sim.runs"] == 2.0


class TestFleetTracing:
    def _traced_spec(self, tmp_path, scenarios=("idle", "audio_playback")):
        return FleetSpec(scenarios=scenarios,
                         governors=("ondemand", "powersave"),
                         seeds=(1,), chips=("tiny",),
                         trace_dir=str(tmp_path), **FAST)

    def test_four_job_fleet_merges_to_one_lane_per_worker(self, tmp_path):
        """The acceptance check: >= 4 traced jobs stitch into one valid
        Chrome trace with one lane per worker pid."""
        from repro.fleet import trace_paths
        from repro.obs import merge_trace_files, trace_lanes, validate_chrome_trace

        spec = self._traced_spec(tmp_path)
        result = run_fleet(spec, jobs=2)
        assert len(result.successes) == 4
        paths = trace_paths(result.successes)
        assert len(paths) == 4
        assert all(Path(p).is_file() for p in paths)
        worker_pids = {s.metrics["meta"]["pid"] for s in result.successes}
        merged = merge_trace_files(paths, out=tmp_path / "merged.json")
        validate_chrome_trace(merged)
        assert set(trace_lanes(merged)) == worker_pids
        # Every lane carries engine spans, not just metadata.
        span_pids = {e["pid"] for e in merged["traceEvents"]
                     if e.get("ph") == "X" and
                     e["name"].startswith("engine.")}
        assert span_pids == worker_pids

    def test_trace_dir_implies_metrics_with_meta(self, tmp_path):
        spec = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                       duration_s=1.0, trace_dir=str(tmp_path))
        measurement = execute_job(spec)
        assert measurement.trace_path is not None
        assert Path(measurement.trace_path).parent == tmp_path
        assert measurement.metrics["meta"]["job_id"] == spec.job_id
        assert measurement.metrics["meta"]["pid"] > 0

    def test_trace_path_travels_on_events(self, tmp_path):
        spec = self._traced_spec(tmp_path, scenarios=("idle",))
        log = EventLog()
        result = run_fleet(spec, jobs=1, on_event=log)
        done = log.of_type(JobDone)
        assert {d.trace_path for d in done} == \
            {s.trace_path for s in result.successes}

    def test_trace_dir_round_trips_spec_mapping(self, tmp_path):
        spec = self._traced_spec(tmp_path, scenarios=("idle",))
        again = FleetSpec.from_mapping(spec.to_mapping())
        assert again.trace_dir == str(tmp_path)
        assert all(j.trace_dir == str(tmp_path) for j in again.expand())

    def test_no_trace_dir_means_no_trace_path(self):
        spec = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                       duration_s=1.0, collect_metrics=True)
        assert execute_job(spec).trace_path is None

    def test_cli_trace_dir_then_merge(self, capsys, tmp_path):
        from repro.cli import main
        from repro.obs import load_chrome_trace

        trace_dir = tmp_path / "traces"
        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "ondemand,powersave", "--seeds", "1,2",
            "--duration", "1.0", "--jobs", "2", "--quiet",
            "--trace-dir", str(trace_dir),
        ])
        assert code == 0
        assert "4 per-job trace(s)" in capsys.readouterr().out
        traces = sorted(trace_dir.glob("*.json"))
        assert len(traces) == 4
        merged = tmp_path / "merged.json"
        code = main([
            "trace", "--merge", *map(str, traces), "--out", str(merged),
        ])
        assert code == 0
        assert "lane(s)" in capsys.readouterr().out
        load_chrome_trace(merged)  # validates


class TestProgressRendering:
    def test_format_event_prefixes_timestamp(self):
        line = format_event(FleetStarted(n_jobs=2, workers=1),
                            ts="2026-01-02T03:04:05")
        assert line == "2026-01-02T03:04:05 fleet: 2 jobs on 1 process"

    def test_format_event_default_timestamp_is_iso(self):
        import re

        line = format_event(FleetFinished(done=1, failed=0, wall_s=1.0))
        assert re.match(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2} ", line)

    def test_silent_events_stay_silent(self):
        assert format_event(JobQueued(index=0, job_id="j"),
                            ts="2026-01-01T00:00:00") is None

    def test_format_progress_line(self):
        line = format_progress_line(
            FleetProgress(done=1, failed=1, total=4, elapsed_s=2.5), width=8
        )
        assert line == "[####....] 2/4 (1 failed) 2.5 s"

    def test_progress_line_empty_grid_safe(self):
        line = format_progress_line(
            FleetProgress(done=0, failed=0, total=0, elapsed_s=0.0)
        )
        assert "0/0" in line
