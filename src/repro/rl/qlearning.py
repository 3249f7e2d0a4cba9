"""Q-learning: the off-policy temporal-difference learner the paper uses."""

from __future__ import annotations

from repro.errors import PolicyError
from repro.rl.exploration import EpsilonGreedy, EpsilonSchedule
from repro.rl.qtable import QTable
from repro.rl.stats import TDErrorStats


class TabularAgent:
    """What every tabular learner shares: checked hyperparameters,
    one Q-table to act from, epsilon-greedy behaviour and TD-error
    statistics.

    Subclasses add the update rule (double-Q also its second table).

    Args:
        n_states: Flat state count.
        n_actions: Action count.
        alpha: Learning rate in (0, 1].
        gamma: Discount factor in [0, 1).
        epsilon: Exploration schedule (a default decaying schedule when
            omitted).
        seed: Exploration RNG seed.
        initial_q: Q-table fill value.
    """

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        alpha: float = 0.2,
        gamma: float = 0.9,
        epsilon: EpsilonSchedule | None = None,
        seed: int = 0,
        initial_q: float = 0.0,
    ):
        if not 0.0 < alpha <= 1.0:
            raise PolicyError(f"alpha must be in (0, 1]: {alpha}")
        if not 0.0 <= gamma < 1.0:
            raise PolicyError(f"gamma must be in [0, 1): {gamma}")
        self.alpha = alpha
        self.gamma = gamma
        self.table = QTable(n_states, n_actions, initial_value=initial_q)
        self.explorer = EpsilonGreedy(
            epsilon or EpsilonSchedule(), n_actions, seed=seed
        )
        self.updates = 0
        self.td_stats = TDErrorStats()

    @property
    def n_actions(self) -> int:
        return self.table.n_actions

    @property
    def n_states(self) -> int:
        return self.table.n_states

    @property
    def epsilon(self) -> float:
        """The behaviour policy's current exploration probability."""
        return self.explorer.epsilon

    def act(self, state: int) -> int:
        """Epsilon-greedy action for ``state``."""
        return self.explorer.select(self.table.row(state))

    def act_greedy(self, state: int) -> int:
        """Pure-exploitation action (used for evaluation runs)."""
        return self.table.argmax(state)


class QLearningAgent(TabularAgent):
    """Tabular Q-learning with epsilon-greedy behaviour.

    The update is the standard Watkins rule

        Q(s, a) += alpha * (r + gamma * max_a' Q(s', a') - Q(s, a))

    which is exactly what the hardware datapath in :mod:`repro.hw`
    implements in fixed point.  Args as for :class:`TabularAgent`.
    """

    def update(self, state: int, action: int, reward: float, next_state: int) -> float:
        """Apply one Q-learning update.

        Returns:
            The temporal-difference error before scaling by alpha.
        """
        q = self.table.get(state, action)
        target = reward + self.gamma * self.table.max(next_state)
        td_error = target - q
        self.table.set(state, action, q + self.alpha * td_error)
        self.updates += 1
        self.td_stats.push(td_error)
        return td_error
