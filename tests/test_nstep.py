"""n-step Q-learning."""

import pytest

from repro.errors import PolicyError
from repro.rl.exploration import EpsilonSchedule
from repro.rl.nstep import NStepQAgent
from repro.rl.qlearning import QLearningAgent


class TestNStepMechanics:
    def test_window_fills_before_updating(self):
        agent = NStepQAgent(4, 2, n_steps=3)
        assert agent.update(0, 0, -1.0, 1) == 0.0
        assert agent.update(1, 0, -1.0, 2) == 0.0
        td = agent.update(2, 0, -1.0, 3)
        assert td != 0.0
        assert agent.updates == 1

    def test_one_step_reduces_to_q_learning(self):
        import numpy as np

        rng = np.random.default_rng(0)
        nstep = NStepQAgent(6, 3, alpha=0.3, gamma=0.8, n_steps=1)
        plain = QLearningAgent(6, 3, alpha=0.3, gamma=0.8)
        for _ in range(500):
            s = int(rng.integers(6))
            a = int(rng.integers(3))
            r = float(rng.uniform(-1, 0))
            s2 = int(rng.integers(6))
            nstep.update(s, a, r, s2)
            plain.update(s, a, r, s2)
        assert nstep.table.values == pytest.approx(plain.table.values)

    def test_nstep_return_value(self):
        # Deterministic: n=2, gamma=0.5, alpha=1, all Q start 0.
        agent = NStepQAgent(4, 1, alpha=1.0, gamma=0.5, n_steps=2)
        agent.update(0, 0, 1.0, 1)
        agent.update(1, 0, 2.0, 2)
        # G = 1 + 0.5*2 + 0.25*Q(2) = 2.0 applied to (0,0).
        assert agent.table.get(0, 0) == pytest.approx(2.0)

    def test_flush_drains_window(self):
        agent = NStepQAgent(4, 1, n_steps=4)
        agent.update(0, 0, -1.0, 1)
        agent.update(1, 0, -1.0, 2)
        applied = agent.flush(final_state=2)
        assert applied == 2
        assert agent.updates == 2

    def test_validation(self):
        with pytest.raises(PolicyError):
            NStepQAgent(2, 2, n_steps=0)
        with pytest.raises(PolicyError):
            NStepQAgent(2, 2, alpha=0.0)


class TestNStepLearning:
    def test_learns_the_chain(self):
        agent = NStepQAgent(
            2, 2, alpha=0.2, gamma=0.9, n_steps=3,
            epsilon=EpsilonSchedule(start=1.0, decay=1.0, floor=1.0), seed=0,
        )
        state = 0
        for _ in range(4000):
            action = agent.act(state)
            reward = 1.0 if action == 1 else 0.0
            next_state = 1 - state
            agent.update(state, action, reward, next_state)
            state = next_state
        assert agent.act_greedy(0) == 1
        assert agent.act_greedy(1) == 1

    def test_faster_credit_on_delayed_reward(self):
        """A 5-state corridor with reward only at the end: after one pass,
        n-step has propagated value to earlier states that 1-step has not
        touched yet."""
        def one_pass(agent):
            for s in range(5):
                r = 1.0 if s == 4 else 0.0
                agent.update(s, 0, r, min(s + 1, 4))
            if isinstance(agent, NStepQAgent):
                agent.flush(4)

        nstep = NStepQAgent(5, 1, alpha=0.5, gamma=0.9, n_steps=5)
        plain = QLearningAgent(5, 1, alpha=0.5, gamma=0.9)
        one_pass(nstep)
        one_pass(plain)
        assert nstep.table.get(0, 0) > plain.table.get(0, 0)
