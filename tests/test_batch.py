"""The batched rollout backend: vectorisation plans and bit-identity.

The contract under test is absolute: for every rollout the batch
backend claims it can vectorise, its result must equal the serial
:class:`repro.sim.engine.Simulator`'s **bit for bit** — ``==`` on every
float, never ``pytest.approx``.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    REACTIVE_GOVERNORS,
    TABLE_FREE_GOVERNORS,
    fixed_opp_index,
    is_reactive,
    is_vectorisable,
    run_batch,
    run_governor_pass,
)
from repro.core.config import PolicyConfig
from repro.errors import ConfigurationError, GovernorError, SimulationError
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec
from repro.governors.ondemand import OndemandGovernor
from repro.soc.presets import PRESETS
from repro.workload.scenarios import EVALUATION_SET, SCENARIOS, get_scenario


def _assert_bit_identical(serial, batch) -> None:
    assert batch.governor == serial.governor
    assert batch.trace_name == serial.trace_name
    assert batch.duration_s == serial.duration_s
    assert batch.intervals == serial.intervals
    assert batch.opp_switches == serial.opp_switches
    # Exact float equality, component by component — the whole point.
    assert batch.total_energy_j == serial.total_energy_j
    assert batch.dynamic_energy_j == serial.dynamic_energy_j
    assert batch.leakage_energy_j == serial.leakage_energy_j
    assert batch.uncore_energy_j == serial.uncore_energy_j
    assert batch.qos == serial.qos
    assert batch.energy_per_qos_j == serial.energy_per_qos_j


def _assert_equal_fields(serial, batch) -> None:
    """``==`` on every :class:`~repro.sim.result.SimulationResult` field."""
    for f in fields(serial):
        assert getattr(batch, f.name) == getattr(serial, f.name), f.name


class TestPlans:
    def test_table_free_set(self):
        assert TABLE_FREE_GOVERNORS == {"performance", "powersave", "userspace"}

    def test_fixed_opp_indices(self):
        chip = PRESETS["exynos5422"]()
        for cluster in chip.clusters:
            table = cluster.spec.opp_table
            assert fixed_opp_index("performance", table) == table.max_index
            assert fixed_opp_index("powersave", table) == 0
            assert fixed_opp_index("userspace", table) == table.max_index // 2
            assert fixed_opp_index("ondemand", table) is None

    def test_is_vectorisable(self):
        base = JobSpec(scenario="idle", governor="performance")
        assert is_vectorisable(base)
        from dataclasses import replace

        assert not is_vectorisable(replace(base, governor="ondemand"))
        assert not is_vectorisable(replace(base, governor="rl-policy"))
        assert not is_vectorisable(replace(base, full_system=True))
        assert is_vectorisable(replace(base, collect_metrics=True))
        assert not is_vectorisable(replace(base, trace_dir="/tmp/t"))

    def test_plan_mixed_governors(self):
        specs = [
            JobSpec(scenario="idle", governor="performance"),
            JobSpec(scenario="idle", governor="ondemand"),
            JobSpec(scenario="idle", governor="schedutil"),
        ]
        assert BatchEngine(specs).plan() == [True, True, False]

    def test_run_and_units_go_through_plan(self, monkeypatch):
        # Wrap ``plan`` on the class, as a profiler patching the planner
        # would: every run and every unit split must be counted.
        calls: list[list[bool]] = []
        original = BatchEngine.plan

        def counted(engine: BatchEngine) -> list[bool]:
            result = original(engine)
            calls.append(result)
            return result

        monkeypatch.setattr(BatchEngine, "plan", counted)
        specs = [
            JobSpec(scenario="idle", governor="performance", chip="tiny",
                    duration_s=1.0),
            JobSpec(scenario="idle", governor="schedutil", chip="tiny",
                    duration_s=1.0),
        ]
        run_batch(specs)
        assert calls == [[True, False]]
        BatchEngine(specs).units(workers=2)
        assert calls == [[True, False]] * 2


class TestBitIdentity:
    @pytest.mark.parametrize("governor", sorted(TABLE_FREE_GOVERNORS))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_serial_engine(self, scenario, governor):
        spec = JobSpec(scenario=scenario, governor=governor, seed=100,
                       duration_s=2.0)
        [batch] = run_batch([spec])
        _assert_bit_identical(simulate_spec(spec), batch)

    def test_across_seeds_and_chips(self):
        specs = [
            JobSpec(scenario="gaming", governor="powersave", seed=seed,
                    chip=chip, duration_s=2.0)
            for seed in (100, 271, 999)
            for chip in ("exynos5422", "tiny")
        ]
        for spec, batch in zip(specs, run_batch(specs)):
            _assert_bit_identical(simulate_spec(spec), batch)

    def test_run_batch_mixed_plan_falls_back(self):
        """Non-vectorisable rollouts silently take the serial engine and
        still match it exactly."""
        specs = [
            JobSpec(scenario="idle", governor="performance", duration_s=1.0),
            JobSpec(scenario="idle", governor="schedutil", duration_s=1.0),
        ]
        for spec, batch in zip(specs, run_batch(specs)):
            _assert_bit_identical(simulate_spec(spec), batch)

    def test_obs_session_keeps_the_plan(self):
        """The plan is a pure function of the specs: an observability
        session changes neither it nor the numbers."""
        from repro.obs import capture

        specs = [JobSpec(scenario="idle", governor="performance",
                         duration_s=1.0)]
        with capture(trace=False):
            assert BatchEngine(specs).plan() == [True]
            batch = run_batch(specs)
        _assert_bit_identical(simulate_spec(specs[0]), batch[0])


REACTIVE = sorted(REACTIVE_GOVERNORS)


def _governor_pass(spec: JobSpec):
    """``run_governor_pass`` on a fresh chip and the spec's own trace."""
    trace = get_scenario(spec.scenario).trace(spec.duration_s, seed=spec.seed)
    return run_governor_pass(spec, PRESETS[spec.chip](), trace)


class TestGovernorPass:
    """The pass for ``ondemand``/``conservative``/``interactive`` jobs."""

    def test_reactive_set_and_predicate(self):
        assert set(REACTIVE_GOVERNORS) == {
            "ondemand", "conservative", "interactive"}
        base = JobSpec(scenario="idle", governor="ondemand")
        for governor in REACTIVE:
            assert is_reactive(replace(base, governor=governor))
        for governor in ("schedutil", "performance", "rl-policy"):
            assert not is_reactive(replace(base, governor=governor))
        assert not is_reactive(replace(base, full_system=True))
        assert is_reactive(replace(base, collect_metrics=True))
        assert not is_reactive(replace(base, trace_dir="/tmp/t"))
        assert not is_reactive(replace(base, policy_config=PolicyConfig()))

    @pytest.mark.parametrize("seed", [100, 7])
    @pytest.mark.parametrize("governor", REACTIVE)
    @pytest.mark.parametrize("scenario", EVALUATION_SET)
    def test_one_lane_matches_serial_engine(self, scenario, governor, seed):
        spec = JobSpec(scenario=scenario, governor=governor, seed=seed,
                       duration_s=2.0)
        _assert_equal_fields(simulate_spec(spec), _governor_pass(spec))

    def test_mixed_chunk_matches_serial_engine(self):
        """36 reactive jobs are 36 single units, none chunked."""
        specs = [
            JobSpec(scenario=scenario, governor=governor, seed=seed,
                    duration_s=2.0)
            for scenario in EVALUATION_SET
            for governor in REACTIVE
            for seed in (100, 7)
        ]
        assert len(specs) == 36
        assert BatchEngine(specs).units() == [[i] for i in range(36)]
        for spec, batch in zip(specs, run_batch(specs)):
            _assert_equal_fields(simulate_spec(spec), batch)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        duration_s=st.floats(min_value=0.05, max_value=1.5),
        interval_s=st.floats(min_value=0.002, max_value=0.05),
        chip=st.sampled_from(["tiny", "exynos5422"]),
    )
    def test_generated_lanes_match_serial_engine(
        self, seed, duration_s, interval_s, chip
    ):
        spec = JobSpec(scenario=EVALUATION_SET[seed % len(EVALUATION_SET)],
                       governor=REACTIVE[seed % len(REACTIVE)], seed=seed,
                       chip=chip, duration_s=duration_s, interval_s=interval_s)
        _assert_equal_fields(simulate_spec(spec), _governor_pass(spec))

    def test_non_integer_decision_raises_like_serial(self, monkeypatch):
        monkeypatch.setattr(OndemandGovernor, "decide",
                            lambda self, obs: "fast")
        spec = JobSpec(scenario="gaming", governor="ondemand", chip="tiny",
                       duration_s=0.5)
        with pytest.raises(GovernorError) as serial:
            simulate_spec(spec)
        with pytest.raises(GovernorError) as batch:
            run_batch([spec])
        assert str(batch.value) == str(serial.value)

    @pytest.mark.parametrize("governor", ["ondemand", "performance"])
    def test_over_capacity_cursor_raises_like_serial(self, monkeypatch,
                                                     governor):
        """A drain that reports more time than the interval holds trips
        ``record_cores``'s guard on every path that prices power."""
        import repro.batch.engine as batch_engine
        import repro.sim.engine as sim_engine
        from repro.sim.interval import drain

        def planted(queue, n_cores, rate, t0, dt, cutoff, start=0.0):
            cursors, *rest = drain(queue, n_cores, rate, t0, dt, cutoff,
                                   start)
            cursors[0] = 2 * dt
            return (cursors, *rest)

        monkeypatch.setattr(batch_engine, "drain", planted)
        monkeypatch.setattr(sim_engine, "drain", planted)
        spec = JobSpec(scenario="gaming", governor=governor, chip="tiny",
                       duration_s=0.5)
        with pytest.raises(ConfigurationError) as serial:
            simulate_spec(spec)
        with pytest.raises(ConfigurationError) as batch:
            run_batch([spec])
        assert str(batch.value) == str(serial.value)

    def test_subclassed_governor_rejected(self, monkeypatch):
        import repro.batch.engine as batch_engine

        class Reader(OndemandGovernor):
            pass

        monkeypatch.setattr(batch_engine, "create", lambda name: Reader())
        spec = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                       duration_s=0.5)
        with pytest.raises(SimulationError, match="Reader"):
            _governor_pass(spec)

    def test_lanes_it_cannot_express_rejected(self):
        spec = JobSpec(scenario="idle", governor="ondemand", chip="tiny",
                       duration_s=0.5)
        for job in (replace(spec, governor="schedutil"),
                    replace(spec, full_system=True)):
            with pytest.raises(SimulationError, match="cannot run"):
                _governor_pass(job)

    def test_units_order_and_dealing(self):
        def job(governor, seed, **kw):
            return JobSpec(scenario="idle", governor=governor, seed=seed,
                           chip="tiny", duration_s=1.0, **kw)

        specs = [
            job("rl-policy", 1), job("ondemand", 1), job("performance", 1),
            job("interactive", 2), job("rl-policy", 2), job("schedutil", 1),
            job("conservative", 3), job("ondemand", 4, interval_s=0.02),
            job("ondemand", 5), job("rl-policy", 3), job("rl-policy", 4),
        ]
        singles = [[1], [2], [3], [5], [6], [7], [8]]
        # Singles (every governor job among them), then the RL chunk.
        assert BatchEngine(specs).units() == singles + [[0, 4, 9, 10]]
        # Two workers: the RL group is dealt into at most two slices.
        assert BatchEngine(specs).units(workers=2) == singles + [
            [0, 4], [9, 10]]
        assert BatchEngine(specs).units(workers=4) == [
            [i] for i in range(len(specs))]
        for workers in (1, 2, 4):
            for unit in BatchEngine(specs).units(workers=workers):
                if len(unit) > 1:
                    assert all(specs[i].is_rl for i in unit), unit

    def test_fleet_never_reaches_serial_engine(self, monkeypatch):
        from repro.fleet import FleetSpec, run_fleet
        from repro.sim.engine import Simulator

        def refuse(self):
            raise AssertionError("Simulator.run reached")

        monkeypatch.setattr(Simulator, "run", refuse)
        spec = FleetSpec(scenarios=("idle", "gaming"), governors=REACTIVE,
                         seeds=(1, 2), chips=("tiny",), duration_s=1.0)
        result = run_fleet(spec, jobs=1)
        assert not result.failures
        assert len(result.successes) == spec.n_jobs

    def test_obs_session_keeps_the_governor_pass(self):
        from repro.obs import capture

        specs = [JobSpec(scenario="idle", governor=governor, chip="tiny",
                         duration_s=0.5) for governor in REACTIVE]
        with capture(trace=False):
            assert BatchEngine(specs).plan() == [True] * len(specs)
            assert BatchEngine(specs).units() == [[0], [1], [2]]
