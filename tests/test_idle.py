"""cpuidle: C-state tables, menu governor, engine/power integration."""

import pytest

from repro.errors import ConfigurationError
from repro.governors.powersave import PowersaveGovernor
from repro.idle.cstates import CState, CStateTable, mobile_cstates
from repro.idle.governor import MenuIdleGovernor
from repro.power.model import PowerModel
from repro.sim.engine import Simulator
from repro.workload.trace import Trace

from conftest import unit


class TestCState:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CState("x", power_fraction=1.5, target_residency_s=0, exit_latency_s=0)
        with pytest.raises(ConfigurationError):
            CState("x", power_fraction=0.5, target_residency_s=-1, exit_latency_s=0)


class TestCStateTable:
    def test_mobile_table_structure(self):
        table = mobile_cstates()
        assert len(table) == 3
        assert table[0].name == "WFI"
        assert table[2].power_fraction < table[1].power_fraction < 1.0

    def test_shallowest_must_be_full_power(self):
        with pytest.raises(ConfigurationError, match="1.0"):
            CStateTable([CState("a", 0.5, 0.0, 0.0)])

    def test_deeper_must_save_more(self):
        with pytest.raises(ConfigurationError, match="save more"):
            CStateTable([
                CState("a", 1.0, 0.0, 0.0),
                CState("b", 1.0, 1e-3, 1e-4),
            ])

    def test_deeper_must_need_longer_residency(self):
        with pytest.raises(ConfigurationError, match="residency"):
            CStateTable([
                CState("a", 1.0, 1e-3, 0.0),
                CState("b", 0.5, 1e-3, 1e-4),
            ])

    def test_deepest_allowed_by_residency(self):
        table = mobile_cstates()
        assert table.deepest_allowed(10e-6) == 0   # too short for core-off
        assert table.deepest_allowed(500e-6) == 1  # core-off pays off
        assert table.deepest_allowed(50e-3) == 2   # cluster-off pays off

    def test_latency_limit_vetoes_deep_states(self):
        table = mobile_cstates()
        assert table.deepest_allowed(50e-3, latency_limit_s=100e-6) == 1
        assert table.deepest_allowed(50e-3, latency_limit_s=1e-6) == 0

    def test_negative_prediction_rejected(self):
        with pytest.raises(ConfigurationError):
            mobile_cstates().deepest_allowed(-1.0)


class TestMenuIdleGovernor:
    def test_long_idle_reaches_cluster_off(self):
        gov = MenuIdleGovernor()
        for _ in range(20):
            gov.observe("c0", idle_s=0.01, interval_s=0.01)
        assert gov.table[gov.selections["c0"]].name == "cluster-off"
        assert gov.power_fraction("c0") == pytest.approx(0.05)

    def test_busy_core_stays_shallow(self):
        gov = MenuIdleGovernor()
        for _ in range(20):
            gov.observe("c0", idle_s=0.00001, interval_s=0.01)
        assert gov.table[gov.selections["c0"]].name == "WFI"

    def test_activity_resets_idle_run(self):
        gov = MenuIdleGovernor()
        for _ in range(20):
            gov.observe("c0", idle_s=0.01, interval_s=0.01)
        gov.observe("c0", idle_s=0.0005, interval_s=0.01)
        # After a busy interval the contiguous run restarts; the EWMA
        # still remembers high idle, so the state may stay deep, but the
        # run tracker must have reset.
        assert gov._idle_run["c0"] == pytest.approx(0.0005)

    def test_unknown_core_defaults_shallow(self):
        gov = MenuIdleGovernor()
        assert gov.power_fraction("never-seen") == 1.0

    def test_idle_beyond_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            MenuIdleGovernor().observe("c0", idle_s=0.02, interval_s=0.01)

    def test_reset(self):
        gov = MenuIdleGovernor()
        gov.observe("c0", 0.01, 0.01)
        gov.reset()
        assert gov.power_fraction("c0") == 1.0

    def test_latency_limit_plumbs_through(self):
        gov = MenuIdleGovernor(latency_limit_s=100e-6)
        for _ in range(30):
            gov.observe("c0", 0.01, 0.01)
        assert gov.table[gov.selections["c0"]].name == "core-off"  # cluster-off vetoed


class TestPowerModelIdleScales:
    def test_idle_scale_reduces_power(self, tiny_chip):
        model = PowerModel(uncore_w=0.0)
        cluster = tiny_chip.cluster("cpu")
        shallow = model.cluster_power(cluster, idle_scales=[1.0])
        deep = model.cluster_power(cluster, idle_scales=[0.05])
        assert deep.total_w < shallow.total_w
        assert deep.leakage_w < shallow.leakage_w

    def test_scale_count_checked(self, tiny_chip):
        model = PowerModel()
        with pytest.raises(ConfigurationError):
            model.cluster_power(tiny_chip.cluster("cpu"), idle_scales=[1.0, 1.0])

    def test_busy_core_unaffected_by_scale(self, tiny_chip):
        model = PowerModel(uncore_w=0.0)
        cluster = tiny_chip.cluster("cpu")
        cluster.cores[0].record_interval(5e6, 5e8, 0.01)  # fully busy
        a = model.cluster_power(cluster, idle_scales=[1.0])
        b = model.cluster_power(cluster, idle_scales=[0.05])
        assert a.total_w == pytest.approx(b.total_w)


class TestEngineIntegration:
    def test_idle_governor_cuts_idle_energy(self, tiny_chip):
        # Mostly idle trace: C-states should cut total energy noticeably.
        trace = Trace(
            units=[unit(uid=i, release=i * 0.3, work=1e6, deadline=i * 0.3 + 0.2)
                   for i in range(4)],
            duration_s=1.5,
        )
        base = Simulator(tiny_chip, trace, lambda c: PowersaveGovernor()).run()
        tiny_chip.reset()
        with_idle = Simulator(
            tiny_chip, trace, lambda c: PowersaveGovernor(),
            idle_governor=MenuIdleGovernor(),
        ).run()
        assert with_idle.total_energy_j < base.total_energy_j
        # QoS unchanged: C-states only touch idle power.
        assert with_idle.qos == base.qos
