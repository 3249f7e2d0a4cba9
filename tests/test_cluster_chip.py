"""Clusters and chips: DVFS control, capacity, lookups."""

import pytest

from repro.batch import RLTrainJob, train_policy_batch
from repro.errors import ConfigurationError, OPPError
from repro.power.model import PowerModel
from repro.soc.chip import Chip
from repro.soc.cluster import Cluster, ClusterSpec
from repro.soc.core import CoreSpec
from repro.soc.opp import make_table
from repro.soc.presets import exynos5422
from repro.workload.scenarios import get_scenario


def spec(n_cores: int = 2) -> ClusterSpec:
    core = CoreSpec("c", capacity=1.0, ceff_f=1e-10, leak_a_per_v=0.01)
    return ClusterSpec(
        "cpu", core, n_cores=n_cores, opp_table=make_table([500, 1000, 1500], [0.9, 1.0, 1.1])
    )


class TestCluster:
    def test_starts_at_floor_opp(self):
        cluster = Cluster(spec())
        assert cluster.opp_index == 0
        assert cluster.freq_hz == 500e6

    def test_custom_initial_opp(self):
        cluster = Cluster(spec(), initial_opp_index=2)
        assert cluster.freq_hz == 1500e6

    def test_bad_initial_opp(self):
        with pytest.raises(OPPError):
            Cluster(spec(), initial_opp_index=3)

    def test_needs_at_least_one_core(self):
        with pytest.raises(ConfigurationError):
            spec(n_cores=0)

    def test_set_opp_index(self):
        cluster = Cluster(spec())
        cluster.set_opp_index(1)
        assert cluster.freq_hz == 1000e6
        assert cluster.voltage_v == 1.0

    def test_set_opp_out_of_range(self):
        cluster = Cluster(spec())
        with pytest.raises(OPPError):
            cluster.set_opp_index(5)

    def test_cycles_available_sums_cores(self):
        cluster = Cluster(spec(n_cores=2))
        assert cluster.cycles_available(0.01) == pytest.approx(2 * 500e6 * 0.01)

    def test_work_available_uses_capacity(self):
        core = CoreSpec("c", capacity=2.0, ceff_f=1e-10, leak_a_per_v=0.0)
        cspec = ClusterSpec("x", core, 2, make_table([1000], [1.0]))
        cluster = Cluster(cspec)
        assert cluster.work_available(0.01) == pytest.approx(2 * 2.0 * 1e9 * 0.01)

    def test_utilization_aggregates(self):
        cluster = Cluster(spec(n_cores=2))
        cluster.cores[0].record_interval(5e6 * 0.5, 500e6, 0.01)  # util 0.5
        cluster.cores[1].record_interval(0.0, 500e6, 0.01)
        assert cluster.utilization == pytest.approx(0.25)
        assert cluster.max_core_utilization == pytest.approx(0.5)

    def test_reset_returns_to_floor(self):
        cluster = Cluster(spec(), initial_opp_index=2)
        cluster.cores[0].record_interval(1e6, 1500e6, 0.01)
        cluster.reset()
        assert cluster.opp_index == 0
        assert cluster.cores[0].busy_cycles == 0.0


def assert_opp_consistent(cluster: Cluster) -> None:
    """The cluster's kept OPP is the table entry at its index."""
    opp = cluster.spec.opp_table[cluster.opp_index]
    assert cluster.current_opp == opp
    assert cluster.freq_hz == opp.freq_hz
    assert cluster.voltage_v == opp.voltage_v


class TestClusterOPPState:
    @pytest.mark.parametrize("initial", [None, 0, 1, 2])
    def test_after_construction(self, initial):
        assert_opp_consistent(Cluster(spec(), initial_opp_index=initial))

    def test_after_every_mutator(self):
        cluster = Cluster(spec())
        for index in (2, 0, 1):
            cluster.set_opp_index(index)
            assert_opp_consistent(cluster)
        cluster.reset()
        assert cluster.opp_index == 0
        assert_opp_consistent(cluster)

    def test_failed_set_keeps_the_opp(self):
        cluster = Cluster(spec(), initial_opp_index=1)
        with pytest.raises(OPPError):
            cluster.set_opp_index(7)
        assert cluster.opp_index == 1
        assert_opp_consistent(cluster)

    def test_after_lockstep_write_back(self):
        # The lock-step trainer writes each lane's final OPP back onto
        # the real clusters at the end of every episode.
        jobs = [
            RLTrainJob(
                chip=exynos5422(), scenario=get_scenario("web_browsing"),
                episodes=2, episode_duration_s=0.5, base_seed=100 * k,
            )
            for k in range(2)
        ]
        train_policy_batch(jobs)
        indices = [c.opp_index for job in jobs for c in job.chip]
        assert any(i != 0 for i in indices)
        for job in jobs:
            for cluster in job.chip:
                assert_opp_consistent(cluster)


class TestClusterAccounting:
    def test_records_every_core_at_the_current_opp(self):
        cluster = Cluster(spec(n_cores=2), initial_opp_index=1)
        cluster.record_interval([0.005, 0.0], 0.01)
        cores = cluster.cores
        assert cores[0].utilization == 0.005 * 1000e6 / (1000e6 * 0.01)
        assert cores[0].busy_cycles == 0.005 * 1000e6
        assert not cores[0].idle and cores[1].idle
        assert cores[1].utilization == 0.0

    def test_matches_per_core_accounting(self):
        a, b = Cluster(spec(n_cores=2)), Cluster(spec(n_cores=2))
        for index, cursors in ((2, [0.003, 0.01]), (0, [0.0, 0.004])):
            a.set_opp_index(index)
            b.set_opp_index(index)
            a.record_interval(cursors, 0.01)
            for core, cursor in zip(b.cores, cursors):
                core.record_interval(cursor * b.freq_hz, b.freq_hz, 0.01)
        assert a.cores == b.cores

    def test_negative_cycles_rejected(self):
        cluster = Cluster(spec(n_cores=2))
        with pytest.raises(ConfigurationError, match="non-negative"):
            cluster.record_interval([0.001, -1e-6], 0.01)

    def test_overshoot_beyond_tolerance_rejected(self):
        cluster = Cluster(spec(n_cores=2))
        with pytest.raises(ConfigurationError, match="were available"):
            cluster.record_interval([0.01 * (1 + 1e-6), 0.0], 0.01)

    def test_overshoot_within_tolerance_clamps(self):
        cluster = Cluster(spec(n_cores=1))
        cluster.record_interval([0.01 * (1 + 1e-12)], 0.01)
        assert cluster.cores[0].utilization == 1.0
        assert cluster.cores[0].busy_cycles == 500e6 * 0.01

    @pytest.mark.parametrize("util", [-0.1, 1.5])
    def test_power_rejects_utilisation_outside_unit_range(self, util):
        cluster = Cluster(spec(n_cores=2))
        cluster.cores[1].utilization = util
        with pytest.raises(ConfigurationError, match="utilization"):
            PowerModel().cluster_power(cluster)


class TestChip:
    def test_requires_clusters(self):
        with pytest.raises(ConfigurationError):
            Chip("empty", [])

    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Chip("dup", [spec(), spec()])

    def test_lookup_by_name(self):
        chip = Chip("one", [spec()])
        assert chip.cluster("cpu").spec.name == "cpu"

    def test_lookup_unknown_name(self):
        chip = Chip("one", [spec()])
        with pytest.raises(ConfigurationError, match="available"):
            chip.cluster("gpu")

    def test_n_cores_totals(self, duo_chip):
        assert duo_chip.n_cores == 4

    def test_cluster_names_order(self, duo_chip):
        assert duo_chip.cluster_names == ["big", "little"]

    def test_reset_resets_all_clusters(self, duo_chip):
        for cluster in duo_chip:
            cluster.set_opp_index(1)
        duo_chip.reset()
        assert all(c.opp_index == 0 for c in duo_chip)
