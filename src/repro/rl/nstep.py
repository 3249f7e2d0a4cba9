"""n-step Q-learning.

One-step TD propagates deadline-miss penalties backwards one interval
per update; with 10 ms intervals a miss caused by a decision 50 ms ago
takes five sweeps to reach it.  n-step returns propagate credit n
intervals at once:

    G = r_t + gamma*r_{t+1} + ... + gamma^{n-1}*r_{t+n-1}
        + gamma^n * max_a Q(s_{t+n}, a)

applied to (s_t, a_t) once the n-step window fills.  Kept as an
extension learner with the same ``act``/``update`` surface as the
one-step agents (the update consumes one transition and internally
manages the window).
"""

from __future__ import annotations

from collections import deque

from repro.errors import PolicyError
from repro.rl.exploration import EpsilonSchedule
from repro.rl.qlearning import TabularAgent


class NStepQAgent(TabularAgent):
    """Tabular n-step Q-learning with epsilon-greedy behaviour.

    Args:
        n_states / n_actions / alpha / gamma / epsilon / seed /
        initial_q: As for :class:`repro.rl.qlearning.TabularAgent`.
        n_steps: Window length (1 reduces exactly to one-step
            Q-learning).
    """

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        alpha: float = 0.2,
        gamma: float = 0.9,
        n_steps: int = 4,
        epsilon: EpsilonSchedule | None = None,
        seed: int = 0,
        initial_q: float = 0.0,
    ):
        super().__init__(n_states, n_actions, alpha, gamma, epsilon, seed,
                         initial_q)
        if n_steps < 1:
            raise PolicyError(f"n_steps must be >= 1: {n_steps}")
        self.n_steps = n_steps
        # Pending (state, action, reward) transitions awaiting their
        # n-step return.
        self._window: deque[tuple[int, int, float]] = deque()

    def update(self, state: int, action: int, reward: float, next_state: int) -> float:
        """Feed one transition; applies the n-step update for the oldest
        pending transition once the window is full.

        Returns:
            The TD error of the update applied this call (0.0 while the
            window is still filling).
        """
        self._window.append((state, action, reward))
        if len(self._window) < self.n_steps:
            return 0.0
        return self._apply(next_state)

    def _apply(self, bootstrap_state: int, terminal: bool = False) -> float:
        g = 0.0
        for k, (_, _, r) in enumerate(self._window):
            g += (self.gamma**k) * r
        # At a true episode end there is no future return to estimate:
        # the terminal state's value is 0 by definition, so the
        # bootstrap term is dropped rather than read from the table
        # (which would let optimistic initial values leak into every
        # end-of-trace update).
        if not terminal:
            g += (self.gamma ** len(self._window)) * self.table.max(
                bootstrap_state
            )
        s0, a0, _ = self._window.popleft()
        q = self.table.get(s0, a0)
        td_error = g - q
        self.table.set(s0, a0, q + self.alpha * td_error)
        self.updates += 1
        self.td_stats.push(td_error)
        return td_error

    def flush(self, final_state: int, terminal: bool = False) -> int:
        """Drain the window at episode end.  Returns the number of
        updates applied.

        Args:
            final_state: The state the episode ended in.
            terminal: ``True`` when the episode genuinely ended there
                (the remaining updates use pure truncated returns, no
                bootstrap); ``False`` (default) when the episode was
                merely cut off by the horizon and the value of
                ``final_state`` still estimates the continuation.
        """
        applied = 0
        while self._window:
            self._apply(final_state, terminal=terminal)
            applied += 1
        return applied
