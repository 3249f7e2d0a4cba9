"""Analysis helpers: statistics, tables, and the sweep harness."""

import pytest

from repro.analysis.stats import geomean, mean, normalize_to, stdev
from repro.analysis.sweep import run_baseline, sweep
from repro.analysis.tables import format_table
from repro.errors import ReproError
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import SCENARIOS, Scenario
from repro.workload.phases import PhaseMachine, PhaseSpec


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty(self):
        with pytest.raises(ReproError):
            mean([])

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            geomean([1.0, 0.0])

    def test_stdev(self):
        assert stdev([1.0, 3.0]) == pytest.approx(2.0**0.5)

    def test_stdev_short(self):
        assert stdev([1.0]) == 0.0

    def test_normalize(self):
        assert normalize_to([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ReproError):
            normalize_to([1.0], 0.0)


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.5" in lines[2]
        assert "0.125" in lines[3]

    def test_title(self):
        out = format_table(["c"], [], title="hello")
        assert out.splitlines()[0] == "hello"

    def test_arity_checked(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [[1]])

    def test_no_columns_rejected(self):
        with pytest.raises(ReproError):
            format_table([], [])

    def test_float_formatting(self):
        out = format_table(["x"], [[float("inf")], [float("nan")], [1234.5678]])
        assert "inf" in out and "nan" in out and "1235" in out


def quick_scenario() -> Scenario:
    def machine() -> PhaseMachine:
        return PhaseMachine(
            [PhaseSpec("p", 0.05, 3e6, 0.2, 1.5, dwell_mean_s=5.0, dwell_min_s=2.0)],
            [[1.0]],
        )

    return Scenario("quick", "single steady phase", machine)


class TestSweep:
    def test_run_baseline(self):
        chip = tiny_test_chip()
        result = run_baseline(chip, quick_scenario(), "ondemand", duration_s=3.0)
        assert result.qos.n_units > 0

    def test_sweep_grid_complete(self, monkeypatch):
        chip = tiny_test_chip()
        monkeypatch.setitem(SCENARIOS, "quick", quick_scenario())
        result = sweep(
            chip, ["quick"], ["performance", "powersave"], include_rl=True,
            duration_s=3.0, train_episodes=2,
        )
        assert result.scenarios() == ["quick"]
        assert result.governors() == ["performance", "powersave", "rl-policy"]
        assert result.cell("quick", "performance").energy_j > 0

    def test_sweep_without_rl(self, monkeypatch):
        chip = tiny_test_chip()
        monkeypatch.setitem(SCENARIOS, "quick", quick_scenario())
        result = sweep(chip, ["quick"], ["performance"], include_rl=False,
                       duration_s=2.0)
        assert result.governors() == ["performance"]

    def test_missing_cell_raises(self):
        from repro.analysis.sweep import SweepResult

        with pytest.raises(ReproError):
            SweepResult().cell("a", "b")

    def test_mean_and_improvement(self, monkeypatch):
        chip = tiny_test_chip()
        monkeypatch.setitem(SCENARIOS, "quick", quick_scenario())
        result = sweep(chip, ["quick"], ["performance", "powersave"],
                       include_rl=False, duration_s=3.0)
        perf = result.mean_energy_per_qos("performance")
        save = result.mean_energy_per_qos("powersave")
        # On a trivially feasible workload, powersave is strictly cheaper
        # per delivered QoS than flat-out.
        assert save < perf
        assert result.improvement_over("performance", "powersave") > 0

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ReproError):
            sweep(tiny_test_chip(), [], ["performance"])
