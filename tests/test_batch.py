"""The batched rollout backend: vectorisation plans and bit-identity.

The contract under test is absolute: for every rollout the batch
backend claims it can vectorise, its result must equal the serial
:class:`repro.sim.engine.Simulator`'s **bit for bit** — ``==`` on every
float, never ``pytest.approx``.
"""

from __future__ import annotations

import pytest

from repro.batch import (
    BatchEngine,
    TABLE_FREE_GOVERNORS,
    fixed_opp_index,
    is_vectorisable,
    run_batch,
)
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec
from repro.soc.presets import PRESETS
from repro.workload.scenarios import SCENARIOS


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
        assert not is_vectorisable(replace(base, collect_metrics=True))
        assert not is_vectorisable(replace(base, trace_dir="/tmp/t"))

    def test_plan_mixed_governors(self):
        specs = [
            JobSpec(scenario="idle", governor="performance"),
            JobSpec(scenario="idle", governor="ondemand"),
        ]
        assert BatchEngine(specs).plan() == [True, False]

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
            JobSpec(scenario="idle", governor="ondemand", chip="tiny",
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
            JobSpec(scenario="idle", governor="ondemand", duration_s=1.0),
        ]
        for spec, batch in zip(specs, run_batch(specs)):
            _assert_bit_identical(simulate_spec(spec), batch)

    def test_obs_session_disables_vectorisation(self):
        """With observability on, the serial engine must run (it owns
        the spans/counters); the plan degrades rather than dropping
        telemetry."""
        from repro.obs import capture

        specs = [JobSpec(scenario="idle", governor="performance",
                         duration_s=1.0)]
        with capture(trace=False):
            assert BatchEngine(specs).plan() == [False]
            batch = run_batch(specs)
        _assert_bit_identical(simulate_spec(specs[0]), batch[0])
