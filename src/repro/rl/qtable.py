"""Dense tabular Q storage."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import PolicyError


def _per_update(value: "float | np.ndarray", n: int) -> np.ndarray:
    """``value`` as a length-``n`` float array (scalars broadcast)."""
    if isinstance(value, np.ndarray) and value.shape == (n,) and value.dtype == float:
        return value
    return np.broadcast_to(np.asarray(value, dtype=float), (n,))


class QTable:
    """A dense (n_states x n_actions) table of action values.

    Ties in :meth:`argmax` break toward the *lowest* action index, which
    keeps decisions deterministic and matches the hardware comparator
    tree's priority order, so software and hardware agree bit-for-bit on
    fresh (all-zero) rows.

    Args:
        n_states: Number of flat states.
        n_actions: Number of actions.
        initial_value: Fill value; optimistic initialisation (> 0 with
            negative rewards) encourages early exploration.
    """

    def __init__(self, n_states: int, n_actions: int, initial_value: float = 0.0):
        if n_states < 1 or n_actions < 1:
            raise PolicyError(
                f"Q-table needs positive dimensions: {n_states}x{n_actions}"
            )
        self.initial_value = float(initial_value)
        self.values = np.full((n_states, n_actions), self.initial_value)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_actions(self) -> int:
        return self.values.shape[1]

    def _check(self, state: int, action: int | None = None) -> None:
        if not 0 <= state < self.n_states:
            raise PolicyError(f"state {state} out of range [0, {self.n_states})")
        if action is not None and not 0 <= action < self.n_actions:
            raise PolicyError(f"action {action} out of range [0, {self.n_actions})")

    def get(self, state: int, action: int) -> float:
        """The Q-value of one (state, action) entry."""
        self._check(state, action)
        return float(self.values[state, action])

    def set(self, state: int, action: int, value: float) -> None:
        """Overwrite one (state, action) entry."""
        self._check(state, action)
        self.values[state, action] = value

    def row(self, state: int) -> np.ndarray:
        """A copy of the Q-row for ``state``."""
        self._check(state)
        return self.values[state].copy()

    def rows(self, states: "np.ndarray | list[int]") -> np.ndarray:
        """A copied ``(len(states), n_actions)`` block of Q-rows.

        The batched counterpart of :meth:`row` — one fancy-indexed read
        instead of a Python loop, for vectorised rollout evaluation and
        batch policy export.  States may repeat and appear in any order.

        Raises:
            PolicyError: If any state is out of range.
        """
        index = np.asarray(states, dtype=np.intp)
        if index.ndim != 1:
            raise PolicyError(f"states must be one-dimensional: {index.shape}")
        if index.size and (
            int(index.min()) < 0 or int(index.max()) >= self.n_states
        ):
            raise PolicyError(
                f"state out of range [0, {self.n_states}): "
                f"{index.min()}..{index.max()}"
            )
        return self.values[index].copy()

    def argmax(self, state: int) -> int:
        """Greedy action for ``state`` (lowest index wins ties)."""
        self._check(state)
        return int(self.values[state].argmax())

    def max(self, state: int) -> float:
        """The greedy action's value for ``state``."""
        self._check(state)
        return float(self.values[state].max())

    def td_update_many(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        alpha: "float | np.ndarray",
        gamma: "float | np.ndarray",
        assume_distinct: bool = False,
    ) -> np.ndarray:
        """Apply a batch of Q-learning updates in serial-equivalent order.

        Semantically identical to looping
        :meth:`repro.rl.qlearning.QLearningAgent.update` over the i-th
        ``(state, action, reward, next_state)`` tuples in order — every
        resulting table entry and every returned TD error is bit-equal
        to the serial loop's.  ``alpha``/``gamma`` may be scalars or
        per-update arrays (the lock-step trainer passes per-rollout
        hyperparameters).

        The batch is split greedily into *segments* of updates whose
        read rows (``next_states``) and written rows (``states``) do not
        collide with a row already written earlier in the same segment;
        within a segment all updates are independent, so one vectorised
        gather/scatter reproduces the serial order exactly.  Disjoint
        rows — e.g. N rollouts living in disjoint row blocks of one
        population table — collapse to a single segment.

        ``assume_distinct=True`` promises that property up front —
        written rows all distinct, and no update reading a row another
        update writes — and skips the per-call collision scan (which
        otherwise dominates small-batch hot loops).  The caller owns the
        promise; a violated one silently reorders updates.

        Returns:
            The per-update TD errors (before scaling by alpha).

        Raises:
            PolicyError: On shape mismatch or out-of-range indices.
        """
        s = np.asarray(states, dtype=np.intp)
        a = np.asarray(actions, dtype=np.intp)
        r = np.asarray(rewards, dtype=float)
        ns = np.asarray(next_states, dtype=np.intp)
        if not (s.shape == a.shape == r.shape == ns.shape) or s.ndim != 1:
            raise PolicyError(
                "td_update_many needs matching 1-D arrays: "
                f"{s.shape}/{a.shape}/{r.shape}/{ns.shape}"
            )
        n = s.size
        al = _per_update(alpha, n)
        ga = _per_update(gamma, n)
        if n == 0:
            return np.empty(0)
        # Read as unsigned, a negative index is larger than any valid
        # one, so one max per array checks both ends of the range.
        if (
            s.view(np.uintp).max() >= self.n_states
            or ns.view(np.uintp).max() >= self.n_states
        ):
            raise PolicyError(f"state out of range [0, {self.n_states})")
        if a.view(np.uintp).max() >= self.n_actions:
            raise PolicyError(f"action out of range [0, {self.n_actions})")

        # Fast path: every written row is distinct and no update reads a
        # row a *different* update writes — the whole batch is one
        # segment (the lock-step trainer's disjoint-row-block case).
        if assume_distinct or (
            np.unique(s).size == n
            and not np.any(np.isin(ns, s) & (ns != s))
        ):
            q = self.values[s, a]
            nmax = self.values[ns].max(axis=1)
            target = r + ga * nmax
            err = target - q
            self.values[s, a] = q + al * err
            return err

        td = np.empty(n)
        written: set[int] = set()
        start = 0
        for i in range(n + 1):
            boundary = i == n
            if not boundary:
                si, nsi = int(s[i]), int(ns[i])
                if si in written or nsi in written:
                    boundary = True
            if boundary:
                if i > start:
                    seg = slice(start, i)
                    q = self.values[s[seg], a[seg]]
                    nmax = self.values[ns[seg]].max(axis=1)
                    target = r[seg] + ga[seg] * nmax
                    err = target - q
                    self.values[s[seg], a[seg]] = q + al[seg] * err
                    td[seg] = err
                if i == n:
                    break
                written.clear()
                start = i
                si, nsi = int(s[i]), int(ns[i])
            written.add(si)
        return td

    def visited_fraction(self) -> float:
        """Fraction of entries that have moved off the construction-time
        initial value — a rough learning-coverage diagnostic."""
        return float(np.mean(self.values != self.initial_value))

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise to ``.npz`` (values plus ``initial_value``, so
        :meth:`visited_fraction` survives the round-trip)."""
        np.savez_compressed(
            Path(path),
            values=self.values,
            initial_value=np.float64(self.initial_value),
        )

    @classmethod
    def load(cls, path: str | Path) -> "QTable":
        """Load a table saved by :meth:`save`.

        Checkpoints written before ``initial_value`` was persisted lack
        the key; they load with the old implicit 0.0.

        Raises:
            PolicyError: If the file is missing the expected array.
        """
        with np.load(Path(path)) as data:
            if "values" not in data:
                raise PolicyError(f"{path} is not a saved Q-table")
            values = data["values"]
            initial = float(data["initial_value"]) if "initial_value" in data else 0.0
        if values.ndim != 2:
            raise PolicyError(f"saved Q-table has bad shape {values.shape}")
        table = cls(values.shape[0], values.shape[1], initial_value=initial)
        table.values = values.astype(float)
        return table
