"""Training and evaluation drivers."""

import pytest

from repro.core.config import PolicyConfig
from repro.core.trainer import (
    evaluate_policy,
    make_policies,
    train_curriculum,
    train_policy,
)
from repro.errors import PolicyError
from repro.soc.presets import tiny_test_chip
from repro.workload.phases import PhaseMachine, PhaseSpec
from repro.workload.scenarios import Scenario


def tiny_scenario() -> Scenario:
    """A light scenario sized for the tiny test chip (peak 1.5e9/s)."""

    def machine() -> PhaseMachine:
        phases = [
            PhaseSpec("lo", period_s=0.05, work_mean=2e6, work_cv=0.2,
                      deadline_factor=1.5, dwell_mean_s=1.0, dwell_min_s=0.4),
            PhaseSpec("hi", period_s=0.02, work_mean=8e6, work_cv=0.2,
                      deadline_factor=1.5, dwell_mean_s=1.0, dwell_min_s=0.4),
        ]
        return PhaseMachine(phases, [[0.3, 0.7], [0.7, 0.3]])

    return Scenario("tiny-mix", "test scenario", machine)


class TestMakePolicies:
    def test_one_policy_per_cluster(self, duo_chip):
        policies = make_policies(duo_chip)
        assert set(policies) == {"big", "little"}

    def test_cluster_seeds_are_decorrelated(self, duo_chip):
        policies = make_policies(duo_chip, PolicyConfig(seed=7))
        assert policies["big"].config.seed != policies["little"].config.seed


class TestTrainPolicy:
    def test_history_length_matches_episodes(self):
        chip = tiny_test_chip()
        result = train_policy(chip, tiny_scenario(), episodes=3,
                              episode_duration_s=3.0)
        assert len(result.history) == 3
        assert [h.episode for h in result.history] == [0, 1, 2]

    def test_episode_metrics_populated(self):
        chip = tiny_test_chip()
        result = train_policy(chip, tiny_scenario(), episodes=2,
                              episode_duration_s=3.0)
        for record in result.history:
            assert record.total_energy_j > 0
            assert 0.0 <= record.mean_qos <= 1.0
            assert record.energy_per_qos_j > 0
            assert record.q_coverage > 0

    def test_policies_stay_online_after_training(self):
        chip = tiny_test_chip()
        result = train_policy(chip, tiny_scenario(), episodes=2,
                              episode_duration_s=2.0)
        assert all(p.online for p in result.policies.values())

    def test_continue_training_existing_policies(self):
        chip = tiny_test_chip()
        first = train_policy(chip, tiny_scenario(), episodes=2, episode_duration_s=2.0)
        episodes_before = first.policies["cpu"].episodes
        second = train_policy(chip, tiny_scenario(), episodes=2,
                              episode_duration_s=2.0, policies=first.policies)
        assert second.policies["cpu"] is first.policies["cpu"]
        assert second.policies["cpu"].episodes > episodes_before

    def test_zero_episodes_rejected(self):
        with pytest.raises(PolicyError):
            train_policy(tiny_test_chip(), tiny_scenario(), episodes=0)


class TestTrainCurriculum:
    def scenarios(self):
        light = tiny_scenario()
        return [light, light]

    def test_history_concatenates(self):
        chip = tiny_test_chip()
        result = train_curriculum(
            chip, self.scenarios(), episodes_per_scenario=2,
            episode_duration_s=2.0,
        )
        assert len(result.history) == 4
        assert [h.episode for h in result.history] == [0, 1, 2, 3]

    def test_same_policies_throughout(self):
        chip = tiny_test_chip()
        result = train_curriculum(
            chip, self.scenarios(), episodes_per_scenario=2,
            episode_duration_s=2.0,
        )
        # Two scenarios x two episodes -> four binds of the same policy.
        assert result.policies["cpu"].episodes == 4

    def test_empty_curriculum_rejected(self):
        with pytest.raises(PolicyError):
            train_curriculum(tiny_test_chip(), [])

    def test_generalist_evaluates_on_both(self):
        chip = tiny_test_chip()
        result = train_curriculum(
            chip, self.scenarios(), episodes_per_scenario=3,
            episode_duration_s=3.0,
        )
        run = evaluate_policy(chip, result.policies,
                              tiny_scenario().trace(3.0, seed=77))
        assert run.qos.mean_qos > 0.8


class TestEvaluatePolicy:
    def test_restores_online_flags(self):
        chip = tiny_test_chip()
        training = train_policy(chip, tiny_scenario(), episodes=2,
                                episode_duration_s=2.0)
        trace = tiny_scenario().trace(3.0, seed=50)
        evaluate_policy(chip, training.policies, trace)
        assert all(p.online for p in training.policies.values())

    def test_no_learning_during_eval(self):
        chip = tiny_test_chip()
        training = train_policy(chip, tiny_scenario(), episodes=2,
                                episode_duration_s=2.0)
        updates = training.policies["cpu"].agent.updates
        evaluate_policy(chip, training.policies, tiny_scenario().trace(3.0, seed=50))
        assert training.policies["cpu"].agent.updates == updates

    def test_eval_is_repeatable(self):
        chip = tiny_test_chip()
        training = train_policy(chip, tiny_scenario(), episodes=3,
                                episode_duration_s=2.0)
        trace = tiny_scenario().trace(3.0, seed=50)
        a = evaluate_policy(chip, training.policies, trace)
        b = evaluate_policy(chip, training.policies, trace)
        assert a.total_energy_j == b.total_energy_j

    def test_learning_improves_over_episodes(self):
        """The mean energy/QoS of late training episodes should not be
        worse than the exploring early episodes (E5's qualitative shape)."""
        chip = tiny_test_chip()
        result = train_policy(chip, tiny_scenario(), episodes=10,
                              episode_duration_s=4.0)
        early = sum(h.energy_per_qos_j for h in result.history[:3]) / 3
        late = sum(h.energy_per_qos_j for h in result.history[-3:]) / 3
        assert late <= early * 1.1
