"""RL edge cases: terminal n-step flushes, exploration reset semantics,
and property-style discretisation/Q-table round trips."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import PolicyError
from repro.rl.discretize import Binner, StateSpace
from repro.rl.exploration import EpsilonGreedy, EpsilonSchedule
from repro.rl.nstep import NStepQAgent
from repro.rl.qtable import QTable


class TestNStepTerminalFlush:
    """``flush(terminal=True)`` must apply pure truncated returns — no
    bootstrap from the (by definition zero-valued) terminal state."""

    def _agent(self) -> NStepQAgent:
        # alpha=1.0 makes each update write the return directly, so the
        # table exposes exactly what g was; the optimistic initial value
        # of 10 makes any bootstrap leak unmissable.
        return NStepQAgent(n_states=3, n_actions=1, alpha=1.0, gamma=0.5,
                           n_steps=3, initial_q=10.0)

    def test_terminal_flush_uses_truncated_returns(self):
        agent = self._agent()
        agent.update(0, 0, 1.0, 1)
        agent.update(1, 0, 2.0, 2)  # window still filling: no updates yet
        assert agent.updates == 0
        assert agent.flush(2, terminal=True) == 2
        # G(s0) = 1 + 0.5*2 = 2.0; G(s1) = 2.0 — and nothing else.
        assert agent.table.get(0, 0) == 2.0
        assert agent.table.get(1, 0) == 2.0

    def test_default_flush_still_bootstraps(self):
        agent = self._agent()
        agent.update(0, 0, 1.0, 1)
        agent.update(1, 0, 2.0, 2)
        assert agent.flush(2) == 2  # horizon cutoff: value continues
        # G(s0) = 1 + 0.5*2 + 0.25*max Q(2) = 2 + 0.25*10 = 4.5
        assert agent.table.get(0, 0) == 4.5
        # G(s1) = 2 + 0.5*max Q(2) = 7.0
        assert agent.table.get(1, 0) == 7.0

    def test_terminal_flush_on_full_window(self):
        agent = self._agent()
        agent.update(0, 0, 1.0, 1)
        agent.update(1, 0, 1.0, 2)
        td = agent.update(2, 0, 1.0, 0)  # window full: bootstrapped update
        assert td != 0.0
        assert agent.flush(0, terminal=True) == 2
        assert len(agent._window) == 0


class TestEpsilonGreedyReset:
    def _explorer(self) -> EpsilonGreedy:
        return EpsilonGreedy(
            EpsilonSchedule(start=0.5, decay=0.9, floor=0.01), n_actions=3
        )

    def test_bare_reset_restarts_the_schedule(self):
        explorer = self._explorer()
        row = np.zeros(3)
        for _ in range(5):
            explorer.select(row)
        assert explorer.step == 5
        assert explorer.epsilon == pytest.approx(0.5 * 0.9**5)
        explorer.reset()
        assert explorer.step == 0
        assert explorer.epsilon == 0.5

    def test_keep_schedule_preserves_the_counter(self):
        explorer = self._explorer()
        row = np.zeros(3)
        for _ in range(5):
            explorer.select(row)
        explorer.reset(keep_schedule=True)
        assert explorer.step == 5
        assert explorer.epsilon == pytest.approx(0.5 * 0.9**5)


class TestStateSpaceRoundTrip:
    SPACE = StateSpace([("util", 3), ("freq", 4), ("qos", 5)])

    def test_encode_decode_identity_over_full_range(self):
        for index in range(self.SPACE.n_states):
            assert self.SPACE.encode(self.SPACE.decode(index)) == index

    def test_decode_encode_identity_over_all_digit_vectors(self):
        seen = set()
        for digits in itertools.product(range(3), range(4), range(5)):
            index = self.SPACE.encode(digits)
            assert self.SPACE.decode(index) == digits
            seen.add(index)
        assert seen == set(range(self.SPACE.n_states))  # bijection


class TestBinnerClamping:
    BINNER = Binner.uniform(0.0, 1.0, 4)  # edges 0.25, 0.5, 0.75

    def test_clamps_at_and_below_lo(self):
        assert self.BINNER.bin(0.0) == 0
        assert self.BINNER.bin(-1e9) == 0

    def test_clamps_at_and_above_hi(self):
        assert self.BINNER.bin(1.0) == 3
        assert self.BINNER.bin(1e9) == 3

    def test_edge_exact_values_round_up(self):
        # bisect_right: a value sitting exactly on an interior edge
        # belongs to the bin above it (edges[i-1] <= v < edges[i]).
        assert self.BINNER.bin(0.25) == 1
        assert self.BINNER.bin(0.5) == 2
        assert self.BINNER.bin(0.75) == 3
        assert self.BINNER.bin(0.25 - 1e-12) == 0

    def test_nan_rejected(self):
        with pytest.raises(PolicyError, match="NaN"):
            self.BINNER.bin(float("nan"))


class TestQTableBatchReads:
    def _table(self) -> QTable:
        table = QTable(4, 3)
        table.values = np.arange(12, dtype=float).reshape(4, 3)
        table.values[2] = [5.0, 9.0, 9.0]  # tie: argmax must pick index 1
        return table

    def test_rows_matches_row(self):
        table = self._table()
        states = [3, 0, 2, 2]
        block = table.rows(states)
        assert block.shape == (4, 3)
        for got, state in zip(block, states):
            assert np.array_equal(got, table.row(state))

    def test_rows_returns_a_copy(self):
        table = self._table()
        block = table.rows([0, 1])
        block[:] = -1.0
        assert table.get(0, 0) == 0.0

    def test_bad_states_rejected(self):
        table = self._table()
        with pytest.raises(PolicyError, match="out of range"):
            table.rows([0, 4])
        with pytest.raises(PolicyError, match="out of range"):
            table.rows([-1])
        with pytest.raises(PolicyError, match="one-dimensional"):
            table.rows(np.zeros((2, 2), dtype=int))

    def test_empty_batch(self):
        table = self._table()
        assert table.rows([]).shape == (0, 3)
