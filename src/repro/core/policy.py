"""The proposed RL power-management policy.

One :class:`RLPowerManagementPolicy` instance controls one DVFS cluster.
Every sampling interval it:

1. featurises the observation into a state (utilisation level, predicted
   trend, OPP position, QoS slack),
2. applies the Q-learning update for the *previous* decision using the
   energy/QoS reward observed over the interval,
3. epsilon-greedily picks an OPP-index delta and returns the new index.

Learning is online, as in the paper: the Q-table persists across
simulator runs (episodes) unless :meth:`forget` is called, and an
``online`` flag switches between learn-while-running and frozen
(evaluation) behaviour.
"""

from __future__ import annotations

from repro.core.config import PolicyConfig
from repro.core.state import StateFeaturizer
from repro.errors import PolicyError
from repro.governors.base import Governor
from repro.rl.double_q import DoubleQAgent
from repro.rl.qlearning import QLearningAgent
from repro.rl.reward import RewardConfig, default_energy_scale
from repro.rl.sarsa import SarsaAgent
from repro.sim.telemetry import ClusterObservation
from repro.soc.cluster import Cluster


class RLPowerManagementPolicy(Governor):
    """Q-learning DVFS governor (the paper's proposed policy).

    Args:
        config: Policy tunables; defaults reproduce the paper setup.
        online: When True the policy keeps learning while it runs; when
            False it acts greedily from the current Q-table (evaluation
            mode).  Flip at runtime via the attribute.
    """

    name = "rl-policy"
    #: The learner :meth:`_make_agent` builds; subclasses swap the TD
    #: rule here.
    agent_type: type = QLearningAgent

    def __init__(self, config: PolicyConfig | None = None, online: bool = True):
        super().__init__()
        self.config = config or PolicyConfig()
        self.online = online
        self.featurizer: StateFeaturizer | None = None
        self.agent: QLearningAgent | None = None
        self.reward_config: RewardConfig | None = None
        self._prev_state: int | None = None
        self._prev_action: int | None = None
        self.episodes = 0
        self.cumulative_reward = 0.0

    # -- lifecycle ---------------------------------------------------------

    def reset(self, cluster: Cluster) -> None:
        """Bind to a cluster; Q-knowledge survives across runs.

        The first reset (or a reset after :meth:`forget`) builds the
        featurizer, agent, and reward normalisation from the cluster's
        OPP table.  Later resets only clear per-episode state, so the
        policy keeps what it has learned — that is the paper's online
        adaptation story.

        Raises:
            PolicyError: If re-bound to a cluster with a different OPP
                table size (the learned table would be meaningless).
        """
        super().reset(cluster)
        n_opps = len(cluster.spec.opp_table)
        if self.featurizer is not None and self.featurizer.n_opps != n_opps:
            raise PolicyError(
                f"policy learned on a {self.featurizer.n_opps}-OPP cluster; "
                f"cannot re-bind to a {n_opps}-OPP cluster (call forget() first)"
            )
        if self.featurizer is None:
            self.featurizer = StateFeaturizer(self.config, n_opps)
            self.agent = self._make_agent(self.featurizer.n_states)
        top = cluster.spec.opp_table[cluster.spec.opp_table.max_index]
        self.reward_config = RewardConfig(
            energy_scale_j=default_energy_scale(
                cluster.spec.core.ceff_f,
                top.voltage_v,
                top.freq_hz,
                cluster.n_cores,
                interval_s=0.01,
            ),
            lambda_qos=self.config.lambda_qos,
            slack_threshold=self.config.slack_threshold,
        )
        self.featurizer.reset()
        self._prev_state = None
        self._prev_action = None
        # Start a fresh TD-error window so convergence stats read out
        # per run/episode rather than over the policy's whole life.
        self.agent.td_stats.reset()
        self.episodes += 1

    def _make_agent(self, n_states: int) -> QLearningAgent:
        """Build the learner of :attr:`agent_type`."""
        return self.agent_type(
            n_states=n_states,
            n_actions=self.config.n_actions,
            alpha=self.config.alpha,
            gamma=self.config.gamma,
            epsilon=self.config.epsilon,
            seed=self.config.seed,
        )

    def forget(self) -> None:
        """Drop all learned knowledge (fresh Q-table on next reset)."""
        self.featurizer = None
        self.agent = None
        self._prev_state = None
        self._prev_action = None
        self.episodes = 0
        self.cumulative_reward = 0.0

    # -- decision ------------------------------------------------------------

    def decide(self, obs: ClusterObservation) -> int:
        if self.featurizer is None or self.agent is None or self.reward_config is None:
            raise PolicyError("policy.decide called before reset()")
        state = self.featurizer.encode(obs)

        if self.online and self._prev_state is not None and self._prev_action is not None:
            reward = self.reward_config.compute(obs)
            self.cumulative_reward += reward
            self.agent.update(self._prev_state, self._prev_action, reward, state)

        if self.online:
            action = self.agent.act(state)
        else:
            action = self.agent.act_greedy(state)
        self._prev_state = state
        self._prev_action = action

        delta = self.config.action_deltas[action]
        table = self.cluster.spec.opp_table
        return table.clamp_index(obs.opp_index + delta)

    # -- introspection ---------------------------------------------------------

    @property
    def q_coverage(self) -> float:
        """Fraction of Q entries touched by learning so far."""
        if self.agent is None:
            return 0.0
        return self.agent.table.visited_fraction()

    @property
    def epsilon(self) -> float:
        """Current exploration probability (0.0 before the first reset)."""
        if self.agent is None:
            return 0.0
        return self.agent.epsilon

    def convergence_snapshot(self) -> dict[str, float]:
        """Training-introspection numbers for the current episode window.

        Keys: ``td_error_mean_abs`` / ``td_error_last`` /
        ``td_error_max_abs`` / ``updates`` (this window), plus the
        lifetime ``epsilon``, ``q_coverage``, ``cumulative_reward``, and
        ``episodes``.  All zeros before the first reset.
        """
        stats = self.agent.td_stats if self.agent is not None else None
        return {
            "td_error_mean_abs": stats.mean_abs if stats else 0.0,
            "td_error_last": stats.last if stats else 0.0,
            "td_error_max_abs": stats.max_abs if stats else 0.0,
            "updates": float(stats.count) if stats else 0.0,
            "epsilon": self.epsilon,
            "q_coverage": self.q_coverage,
            "cumulative_reward": self.cumulative_reward,
            "episodes": float(self.episodes),
        }


class DoubleQPowerManagementPolicy(RLPowerManagementPolicy):
    """Double-Q-learning variant of the proposed policy — ablation A5.

    Same decision loop as the Q-learning policy; the learner keeps two
    decorrelated tables to counter max-operator overestimation under the
    noisy per-interval energy/miss rewards.
    """

    name = "rl-policy-doubleq"
    agent_type = DoubleQAgent


class SarsaPowerManagementPolicy(RLPowerManagementPolicy):
    """On-policy (SARSA) variant of the proposed policy — ablation A3.

    Identical state, actions, and reward; the TD target bootstraps from
    the action the behaviour policy actually takes next instead of the
    greedy one.
    """

    name = "rl-policy-sarsa"
    agent_type = SarsaAgent

    def decide(self, obs: ClusterObservation) -> int:
        if self.featurizer is None or self.agent is None or self.reward_config is None:
            raise PolicyError("policy.decide called before reset()")
        state = self.featurizer.encode(obs)

        if self.online:
            action = self.agent.act(state)
        else:
            action = self.agent.act_greedy(state)

        if self.online and self._prev_state is not None and self._prev_action is not None:
            reward = self.reward_config.compute(obs)
            self.cumulative_reward += reward
            self.agent.update(self._prev_state, self._prev_action, reward, state, action)

        self._prev_state = state
        self._prev_action = action
        delta = self.config.action_deltas[action]
        return self.cluster.spec.opp_table.clamp_index(obs.opp_index + delta)
