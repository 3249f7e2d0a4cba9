"""The experiments package: each experiment runs end-to-end at miniature
scale and produces coherent, typed results."""

import pytest

from repro.core.config import PolicyConfig
from repro.core.trainer import evaluate_policy, train_policy
from repro.experiments import (
    a1_state_ablation,
    a2_reward_sweep,
    a4_wordlength,
    a6_fpga_resources,
    e1_energy_per_qos,
    e2_per_scenario,
    e3_qos_preservation,
    e4_decision_latency,
    e5_learning_curve,
    e7_hw_fidelity,
    run_headline_sweep,
    static_oracle,
    x2_seed_stability,
)
from repro.hw.fixed_point import QFormat
from repro.soc.presets import exynos5422
from repro.workload.scenarios import get_scenario

# One small sweep shared by the headline-view tests.
SMALL_KW = dict(duration_s=4.0, train_episodes=2)


@pytest.fixture(scope="module")
def small_sweep():
    return run_headline_sweep(
        scenario_names=["audio_playback", "video_playback"],
        governor_names=["performance", "powersave", "ondemand"],
        **SMALL_KW,
    )


class TestHeadlineViews:
    def test_e1(self, small_sweep):
        result = e1_energy_per_qos(small_sweep)
        assert "E1" in result.report
        assert result.rl_j > 0
        assert set(result.per_governor_improvement) == {
            "performance", "powersave", "ondemand",
        }
        # Internal consistency of the improvement computation.
        expected = 100 * (result.mean_of_six_j - result.rl_j) / result.mean_of_six_j
        assert result.improvement_percent == pytest.approx(expected)

    def test_e2(self, small_sweep):
        result = e2_per_scenario(small_sweep)
        assert ("audio_playback", "rl-policy") in result.cells_j
        assert len(result.cells_j) == 2 * 4
        # rl_within with a huge factor is trivially true.
        assert result.rl_within("audio_playback", 1e9)

    def test_e3(self, small_sweep):
        result = e3_qos_preservation(small_sweep)
        assert set(result.mean_qos) == {
            "performance", "powersave", "ondemand", "rl-policy",
        }
        assert all(0.0 <= q <= 1.0 for q in result.mean_qos.values())
        assert result.mean_energy_j["performance"] > 0


class TestLatencyExperiment:
    def test_e4_structure(self):
        result = e4_decision_latency()
        assert result.typical.speedup > 1.0
        assert result.best_case.speedup > result.typical.speedup
        assert len(result.rows) == 7  # little-cluster OPP count
        assert "E4" in result.report


class TestLearningExperiments:
    def test_e5_small(self):
        result = e5_learning_curve(
            scenario_name="audio_playback", episodes=2, episode_duration_s=3.0
        )
        assert len(result.curve) == 3  # untrained + 2 episodes
        assert result.curve[0][0] == 0
        assert result.start_j > 0
        assert result.tail_qos(n=2) <= 1.0
        assert "sparkline" not in result.report  # rendered, not the word
        assert "E5" in result.report


class TestHardwareExperiments:
    def test_e7_small(self):
        result = e7_hw_fidelity(
            scenario_name="audio_playback", train_episodes=2,
            episode_duration_s=3.0,
        )
        assert set(result.agreements) == {"big", "little"}
        assert result.mean_hw_latency_s < 1e-6
        assert result.energy_per_qos_delta >= 0.0

    def test_a4_small(self):
        result = a4_wordlength(
            formats=[QFormat(3, 4), QFormat(7, 8)],
            scenario_name="audio_playback",
            train_episodes=2,
            episode_duration_s=3.0,
        )
        assert len(result.rows) == 2
        assert result.row("Q7.8").qformat.width == 16
        with pytest.raises(KeyError):
            result.row("Q9.9")

    def test_a6(self):
        result = a6_fpga_resources()
        assert result.reference_fits()
        assert all(rtl == ana for _, rtl, ana in result.rtl_checks)


def _serial_rl(config: PolicyConfig):
    """The serial reference of one small A1/A2 variant: train on
    ``audio_playback`` for 2 x 3 s, then evaluate greedily on seed 100."""
    chip = exynos5422()
    scenario = get_scenario("audio_playback")
    training = train_policy(chip, scenario, episodes=2, episode_duration_s=3.0,
                            config=config)
    return evaluate_policy(chip, training.policies,
                           scenario.trace(3.0, seed=100))


class TestAblationExperiments:
    def test_a1_small(self):
        variants = {
            "full": PolicyConfig(),
            "util-only": PolicyConfig(trend_bins=1, slack_bins=1, opp_bins=1),
        }
        result = a1_state_ablation(
            variants=variants, scenario_name="audio_playback",
            train_episodes=2, episode_duration_s=3.0,
        )
        assert set(result.results) == {"full", "util-only"}
        assert result.results == {
            name: _serial_rl(config) for name, config in variants.items()
        }

    def test_a2_small(self):
        result = a2_reward_sweep(
            lambdas=[0.0, 1.0], scenario_name="audio_playback",
            train_episodes=2, episode_duration_s=3.0,
        )
        assert set(result.results) == {0.0, 1.0}
        assert result.results == {
            lam: _serial_rl(PolicyConfig(lambda_qos=lam)) for lam in (0.0, 1.0)
        }

    def test_static_oracle_beats_nothing_fancy(self):
        trace = get_scenario("audio_playback").trace(3.0, seed=5)
        oracle = static_oracle(trace, opp_stride=4)
        assert oracle.qos.n_units > 0
        assert oracle.total_energy_j > 0


class TestRobustnessExperiments:
    def test_x2_small(self):
        result = x2_seed_stability(
            scenario_name="audio_playback",
            governor_names=["ondemand"],
            eval_seeds=[100, 200],
            duration_s=3.0,
            train_episodes=2,
        )
        assert set(result.measures) == {"rl-policy", "ondemand"}
        assert result.measures["rl-policy"].n == 2
