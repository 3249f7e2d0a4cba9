"""SARSA: the on-policy TD learner, kept as an ablation (A3).

SARSA bootstraps from the action the behaviour policy *actually* takes
instead of the greedy one; with the same exploration it is typically
slightly more conservative near QoS cliffs.
"""

from __future__ import annotations

from repro.rl.qlearning import TabularAgent


class SarsaAgent(TabularAgent):
    """Tabular SARSA with epsilon-greedy behaviour.

    Update rule: ``Q(s,a) += alpha * (r + gamma * Q(s', a') - Q(s,a))``
    where ``a'`` is the action the agent will take in ``s'``.

    Args as for :class:`repro.rl.qlearning.TabularAgent`.
    """

    def update(
        self, state: int, action: int, reward: float, next_state: int, next_action: int
    ) -> float:
        """Apply one SARSA update given the successor state *and action*.

        Returns:
            The temporal-difference error before scaling by alpha.
        """
        q = self.table.get(state, action)
        target = reward + self.gamma * self.table.get(next_state, next_action)
        td_error = target - q
        self.table.set(state, action, q + self.alpha * td_error)
        self.updates += 1
        self.td_stats.push(td_error)
        return td_error
