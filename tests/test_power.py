"""Power models: dynamic CV^2f, leakage, combination, energy metering."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.power.battery import Battery
from repro.power.dynamic import DynamicPowerModel
from repro.power.energy import EnergyMeter
from repro.power.leakage import LeakagePowerModel
from repro.power.model import PowerBreakdown, PowerModel
from repro.soc.cluster import Cluster, ClusterSpec
from repro.soc.core import CoreSpec
from repro.soc.opp import make_table


class TestDynamicPower:
    def test_full_load_is_cv2f(self):
        model = DynamicPowerModel(idle_activity=0.05)
        p = model.core_power_w(ceff_f=1e-9, voltage_v=1.0, freq_hz=1e9, utilization=1.0)
        assert p == pytest.approx(1e-9 * 1.0 * 1e9)

    def test_idle_floor(self):
        model = DynamicPowerModel(idle_activity=0.05)
        p = model.core_power_w(1e-9, 1.0, 1e9, utilization=0.0)
        assert p == pytest.approx(0.05 * 1.0)

    def test_power_quadratic_in_voltage(self):
        model = DynamicPowerModel()
        p1 = model.core_power_w(1e-9, 1.0, 1e9, 1.0)
        p2 = model.core_power_w(1e-9, 2.0, 1e9, 1.0)
        assert p2 / p1 == pytest.approx(4.0)

    def test_power_linear_in_frequency(self):
        model = DynamicPowerModel()
        p1 = model.core_power_w(1e-9, 1.0, 1e9, 1.0)
        p2 = model.core_power_w(1e-9, 1.0, 2e9, 1.0)
        assert p2 / p1 == pytest.approx(2.0)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ConfigurationError):
            DynamicPowerModel().core_power_w(1e-9, 1.0, 1e9, 1.5)

    def test_rejects_bad_idle_activity(self):
        with pytest.raises(ConfigurationError):
            DynamicPowerModel(idle_activity=1.5)

    @given(util=st.floats(min_value=0.0, max_value=1.0))
    def test_power_monotone_in_utilization(self, util):
        model = DynamicPowerModel(idle_activity=0.05)
        lo = model.core_power_w(1e-9, 1.0, 1e9, 0.0)
        p = model.core_power_w(1e-9, 1.0, 1e9, util)
        hi = model.core_power_w(1e-9, 1.0, 1e9, 1.0)
        assert lo <= p <= hi


class TestLeakagePower:
    def test_reference_temperature_baseline(self):
        model = LeakagePowerModel(t_ref_c=45.0, beta_per_c=0.028)
        p = model.core_power_w(leak_a_per_v=0.1, voltage_v=1.0, temp_c=45.0)
        assert p == pytest.approx(0.1)

    def test_none_temperature_means_reference(self):
        model = LeakagePowerModel()
        assert model.core_power_w(0.1, 1.0, None) == pytest.approx(
            model.core_power_w(0.1, 1.0, model.t_ref_c)
        )

    def test_doubles_every_25c(self):
        model = LeakagePowerModel(t_ref_c=45.0, beta_per_c=math.log(2) / 25.0)
        p45 = model.core_power_w(0.1, 1.0, 45.0)
        p70 = model.core_power_w(0.1, 1.0, 70.0)
        assert p70 / p45 == pytest.approx(2.0)

    def test_quadratic_in_voltage(self):
        model = LeakagePowerModel()
        assert model.core_power_w(0.1, 1.2) / model.core_power_w(0.1, 0.6) == pytest.approx(4.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ConfigurationError):
            LeakagePowerModel(beta_per_c=-0.1)


class TestPowerModel:
    def cluster(self) -> Cluster:
        core = CoreSpec("c", capacity=1.0, ceff_f=1e-9, leak_a_per_v=0.05)
        return Cluster(
            ClusterSpec("cpu", core, 2, make_table([1000], [1.0]))
        )

    def test_cluster_power_components(self):
        cluster = self.cluster()
        for c in cluster.cores:
            c.record_interval(1e7, 1e9, 0.01)  # full load
        model = PowerModel()
        p = model.cluster_power(cluster)
        assert p.dynamic_w == pytest.approx(2 * 1e-9 * 1.0 * 1e9)
        assert p.leakage_w == pytest.approx(2 * 0.05)

    def test_chip_power_adds_uncore(self, tiny_chip):
        model = PowerModel(uncore_w=0.5)
        p = model.chip_power(tiny_chip)
        assert p.uncore_w == pytest.approx(0.5)
        assert p.total_w >= 0.5

    def test_breakdown_addition(self):
        a = PowerBreakdown(1.0, 2.0, 0.5)
        b = PowerBreakdown(0.5, 0.5, 0.0)
        c = a + b
        assert c.total_w == pytest.approx(4.5)

    def test_hot_cluster_leaks_more(self):
        cluster = self.cluster()
        model = PowerModel()
        cold = model.cluster_power(cluster, temp_c=45.0)
        hot = model.cluster_power(cluster, temp_c=85.0)
        assert hot.leakage_w > cold.leakage_w
        assert hot.dynamic_w == pytest.approx(cold.dynamic_w)


class TestEnergyMeter:
    def test_accumulates(self):
        meter = EnergyMeter()
        meter.record(PowerBreakdown(1.0, 0.5, 0.25), 0.01)
        meter.record(PowerBreakdown(1.0, 0.5, 0.25), 0.01)
        assert meter.total_j == pytest.approx(2 * 1.75 * 0.01)
        assert meter.samples == 2
        assert meter.elapsed_s == pytest.approx(0.02)

    def test_average_power(self):
        meter = EnergyMeter()
        meter.record(PowerBreakdown(2.0, 0.0), 0.01)
        meter.record(PowerBreakdown(0.0, 0.0), 0.01)
        assert meter.average_power_w == pytest.approx(1.0)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            EnergyMeter().record(PowerBreakdown(1.0, 0.0), 0.0)

    def test_reset(self):
        meter = EnergyMeter()
        meter.record(PowerBreakdown(1.0, 1.0), 0.01)
        meter.reset()
        assert meter.total_j == 0.0
        assert meter.average_power_w == 0.0

    @given(
        powers=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
        )
    )
    def test_energy_equals_sum_of_interval_energies(self, powers):
        meter = EnergyMeter()
        for p in powers:
            meter.record(PowerBreakdown(p, 0.0), 0.01)
        assert meter.total_j == pytest.approx(sum(p * 0.01 for p in powers))


class TestBattery:
    def test_full_at_start(self):
        assert Battery().drained_j == 0.0

    def test_drain_reduces_charge(self):
        battery = Battery(capacity_j=100.0, efficiency=1.0)
        battery.drain(25.0)
        assert battery.drained_j == pytest.approx(25.0)

    def test_efficiency_inflates_drain(self):
        battery = Battery(capacity_j=100.0, efficiency=0.5)
        battery.drain(25.0)
        assert battery.drained_j == pytest.approx(50.0)

    def test_clamps_at_empty(self):
        battery = Battery(capacity_j=10.0, efficiency=1.0)
        battery.drain(100.0)
        assert battery.empty
        assert battery.drained_j == pytest.approx(10.0)

    def test_runtime_estimate(self):
        battery = Battery(capacity_j=100.0, efficiency=1.0)
        assert battery.runtime_estimate_s(2.0) == pytest.approx(50.0)

    def test_runtime_estimate_zero_power(self):
        assert Battery().runtime_estimate_s(0.0) == float("inf")

    def test_rejects_negative_drain(self):
        with pytest.raises(ConfigurationError):
            Battery().drain(-1.0)
