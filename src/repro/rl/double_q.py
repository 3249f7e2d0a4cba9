"""Double Q-learning (van Hasselt, NeurIPS 2010).

Vanilla Q-learning's max operator overestimates action values under
noisy rewards — and DVFS rewards are noisy (per-interval energy and
miss counts fluctuate).  Double Q-learning keeps two tables and
decorrelates selection from evaluation:

    with p=0.5:  Q_a(s,u) += alpha * (r + gamma * Q_b(s', argmax Q_a(s')) - Q_a(s,u))
    else:        Q_b(s,u) += alpha * (r + gamma * Q_a(s', argmax Q_b(s')) - Q_b(s,u))

Action selection uses the sum of the two tables.  Included as an
extension/ablation beyond the paper's learner.
"""

from __future__ import annotations

import numpy as np

from repro.rl.exploration import EpsilonSchedule
from repro.rl.qlearning import TabularAgent
from repro.rl.qtable import QTable


class DoubleQAgent(TabularAgent):
    """Tabular double Q-learning with epsilon-greedy behaviour.

    Args as for :class:`~repro.rl.qlearning.TabularAgent`; the extra
    RNG (seeded from ``seed``) picks which table each update writes.
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
        self.table_a = QTable(n_states, n_actions, initial_value=initial_q)
        self.table_b = QTable(n_states, n_actions, initial_value=initial_q)
        # The base's table is the buffer the halves are summed into.
        super().__init__(n_states, n_actions, alpha, gamma, epsilon, seed,
                         initial_q=2.0 * initial_q)
        self._coin = np.random.default_rng(seed + 0x5EED)

    @property
    def table(self) -> QTable:
        """The combined (summed) table — what decisions are made from.

        Exposed under the same name as the single-table agents so the
        policy wrapper and coverage introspection work unchanged.  The
        combined table's ``initial_value`` is the *sum* of the halves'
        (a fresh optimistic-init agent therefore reports 0.0 coverage,
        not 1.0), and the backing buffer is cached — hot introspection
        loops refresh it in place instead of re-allocating.
        """
        np.add(self.table_a.values, self.table_b.values,
               out=self._combined.values)
        return self._combined

    @table.setter
    def table(self, table: QTable) -> None:
        self._combined = table

    def _combined_row(self, state: int) -> np.ndarray:
        return self.table_a.row(state) + self.table_b.row(state)

    def act(self, state: int) -> int:
        """Epsilon-greedy action from the summed tables."""
        return self.explorer.select(self._combined_row(state))

    def act_greedy(self, state: int) -> int:
        """Greedy action from the summed tables (lowest index on ties)."""
        return int(np.argmax(self._combined_row(state)))

    def update(self, state: int, action: int, reward: float, next_state: int) -> float:
        """One double-Q update; a fair coin picks the table to write.

        Returns:
            The temporal-difference error before scaling by alpha.
        """
        if self._coin.random() < 0.5:
            writer, evaluator = self.table_a, self.table_b
        else:
            writer, evaluator = self.table_b, self.table_a
        best_next = writer.argmax(next_state)
        target = reward + self.gamma * evaluator.get(next_state, best_next)
        q = writer.get(state, action)
        td_error = target - q
        writer.set(state, action, q + self.alpha * td_error)
        self.updates += 1
        self.td_stats.push(td_error)
        return td_error
