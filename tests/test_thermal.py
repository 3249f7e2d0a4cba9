"""Thermal RC network and throttling."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.cluster import Cluster, ClusterSpec
from repro.soc.core import CoreSpec
from repro.soc.opp import make_table
from repro.thermal.rc import ThermalModel, ThermalNodeSpec, default_thermal_model
from repro.thermal.throttle import ThermalThrottle


def one_node_model(r=10.0, c=0.5, ambient=25.0) -> ThermalModel:
    return ThermalModel([ThermalNodeSpec("cpu", r, c)], ambient_c=ambient,
                        coupling_r_c_per_w=None)


class TestThermalModel:
    def test_starts_at_ambient(self):
        model = one_node_model(ambient=25.0)
        assert model.temperature_c("cpu") == 25.0

    def test_heats_toward_steady_state(self):
        model = one_node_model(r=10.0, c=0.5)
        # Steady state for 2 W: ambient + P*R = 25 + 20 = 45 C.
        for _ in range(10000):
            model.step({"cpu": 2.0}, 0.01)
        assert model.temperature_c("cpu") == pytest.approx(45.0, abs=0.5)

    def test_cools_back_to_ambient(self):
        model = one_node_model()
        for _ in range(2000):
            model.step({"cpu": 2.0}, 0.01)
        for _ in range(20000):
            model.step({"cpu": 0.0}, 0.01)
        assert model.temperature_c("cpu") == pytest.approx(25.0, abs=0.5)

    def test_monotone_heating_step(self):
        model = one_node_model()
        t0 = model.temperature_c("cpu")
        model.step({"cpu": 5.0}, 0.01)
        assert model.temperature_c("cpu") > t0

    def test_unknown_node_power_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown nodes"):
            one_node_model().step({"gpu": 1.0}, 0.01)

    def test_unknown_node_query_rejected(self):
        with pytest.raises(ConfigurationError):
            one_node_model().temperature_c("gpu")

    def test_coupling_pulls_nodes_together(self):
        nodes = [ThermalNodeSpec("a", 10.0, 0.5), ThermalNodeSpec("b", 10.0, 0.5)]
        coupled = ThermalModel(nodes, coupling_r_c_per_w=2.0)
        isolated = ThermalModel(nodes, coupling_r_c_per_w=None)
        for _ in range(3000):
            coupled.step({"a": 2.0}, 0.01)
            isolated.step({"a": 2.0}, 0.01)
        # The unheated node warms only via coupling.
        assert coupled.temperature_c("b") > isolated.temperature_c("b")
        assert coupled.temperature_c("a") < isolated.temperature_c("a")

    def test_reset_returns_to_ambient(self):
        model = one_node_model()
        model.step({"cpu": 10.0}, 1.0)
        model.reset()
        assert model.temperature_c("cpu") == 25.0

    def test_max_temperature(self):
        nodes = [ThermalNodeSpec("a", 10.0, 0.5), ThermalNodeSpec("b", 10.0, 0.5)]
        model = ThermalModel(nodes, coupling_r_c_per_w=None)
        model.step({"a": 5.0}, 0.1)
        assert model.max_temperature_c == model.temperature_c("a")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ThermalModel([ThermalNodeSpec("a", 1, 1), ThermalNodeSpec("a", 1, 1)])

    def test_default_model_covers_clusters(self):
        model = default_thermal_model(["big", "little"])
        assert model.temperature_c("big") == 25.0
        assert model.temperature_c("little") == 25.0


class TestThrottle:
    def cluster(self) -> Cluster:
        core = CoreSpec("c", 1.0, 1e-10, 0.01)
        return Cluster(
            ClusterSpec("cpu", core, 1, make_table([500, 1000, 1500, 2000],
                                                   [0.9, 1.0, 1.1, 1.2])),
            initial_opp_index=3,
        )

    def hot_model(self, temp: float) -> ThermalModel:
        model = one_node_model()
        model._temps["cpu"] = temp
        return model

    def capped(self, throttle, cluster, temp):
        """The OPP the throttle leaves after a governor asks for the top."""
        cluster.set_opp_index(cluster.spec.opp_table.max_index)
        return throttle.apply(cluster, self.hot_model(temp))

    def test_no_throttle_below_trip(self):
        cluster = self.cluster()
        throttle = ThermalThrottle(trip_c=85.0)
        throttle.apply(cluster, self.hot_model(60.0))
        assert cluster.opp_index == 3

    def test_throttle_engages_above_trip(self):
        cluster = self.cluster()
        throttle = ThermalThrottle(trip_c=85.0)
        throttle.apply(cluster, self.hot_model(90.0))
        assert cluster.opp_index == 2

    def test_throttle_steps_accumulate(self):
        cluster = self.cluster()
        throttle = ThermalThrottle(trip_c=85.0)
        assert [self.capped(throttle, cluster, 95.0) for _ in range(3)] == [
            2, 1, 0]

    def test_throttle_releases_with_hysteresis(self):
        cluster = self.cluster()
        throttle = ThermalThrottle(trip_c=85.0, hysteresis_c=5.0)
        assert self.capped(throttle, cluster, 90.0) == 2
        # Inside the hysteresis band: the level holds.
        assert self.capped(throttle, cluster, 82.0) == 2
        # Below trip - hysteresis: one step released.
        assert self.capped(throttle, cluster, 75.0) == 3

    def test_level_never_exceeds_table(self):
        cluster = self.cluster()
        throttle = ThermalThrottle(trip_c=85.0)
        for _ in range(20):
            assert self.capped(throttle, cluster, 120.0) >= 0
        # Twenty steps deep, one cool interval releases a step at once.
        assert self.capped(throttle, cluster, 60.0) == 1

    def test_reset(self):
        cluster = self.cluster()
        throttle = ThermalThrottle()
        throttle.apply(cluster, self.hot_model(95.0))
        throttle.reset()
        assert self.capped(throttle, cluster, 60.0) == 3

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ThermalThrottle(hysteresis_c=-1.0)
        with pytest.raises(ConfigurationError):
            ThermalThrottle(step_opps=0)
