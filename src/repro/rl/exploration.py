"""Exploration schedules and action selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PolicyError


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exponentially decaying epsilon with a floor.

    ``epsilon(t) = max(floor, start * decay**t)`` where ``t`` counts
    decisions.  ``decay=1.0`` gives a constant schedule.

    Attributes:
        start: Initial exploration probability in [0, 1].
        decay: Per-decision multiplicative decay in (0, 1].
        floor: Lower bound on epsilon (keeps the online policy adaptive
            forever, the paper's "adapt to the variations" requirement).
    """

    start: float = 0.5
    decay: float = 0.999
    floor: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= 1.0:
            raise PolicyError(f"epsilon start must be in [0, 1]: {self.start}")
        if not 0.0 < self.decay <= 1.0:
            raise PolicyError(f"epsilon decay must be in (0, 1]: {self.decay}")
        if not 0.0 <= self.floor <= self.start:
            raise PolicyError(
                f"epsilon floor must be in [0, start={self.start}]: {self.floor}"
            )

    def value(self, step: int) -> float:
        """Epsilon after ``step`` decisions."""
        if step < 0:
            raise PolicyError(f"step must be non-negative: {step}")
        return max(self.floor, self.start * self.decay**step)

    def values(self, steps: "np.ndarray | list[int]") -> np.ndarray:
        """Epsilon for a whole array of decision counters at once.

        Bit-equal to mapping :meth:`value` over ``steps`` element for
        element — deliberately computed with the scalar ``**`` per
        element, because :func:`numpy.power`'s vectorised pow rounds
        differently from the platform ``pow`` by an occasional ulp, and
        a one-ulp epsilon shift can flip an explore/exploit draw.  That
        exactness is what lets the lock-step trainer precompute a
        rollout's entire epsilon trajectory without perturbing its draw
        sequence.

        Raises:
            PolicyError: If any step is negative.
        """
        index = np.asarray(steps)
        if index.size and int(index.min()) < 0:
            raise PolicyError(f"steps must be non-negative: {index.min()}")
        floor, start, decay = self.floor, self.start, self.decay
        return np.array(
            [max(floor, start * decay ** int(s)) for s in index.ravel().tolist()]
        ).reshape(index.shape)


class EpsilonGreedy:
    """Stateful epsilon-greedy selector over a Q-table row.

    Args:
        schedule: The epsilon schedule.
        n_actions: Size of the action set.
        seed: RNG seed for reproducible exploration.
    """

    def __init__(self, schedule: EpsilonSchedule, n_actions: int, seed: int = 0):
        if n_actions < 1:
            raise PolicyError(f"need at least one action: {n_actions}")
        self.schedule = schedule
        self.n_actions = n_actions
        self._rng = np.random.default_rng(seed)
        self._step = 0

    @property
    def step(self) -> int:
        """Number of decisions taken so far."""
        return self._step

    @property
    def epsilon(self) -> float:
        """Current exploration probability."""
        return self.schedule.value(self._step)

    def select(self, q_row: np.ndarray) -> int:
        """Pick an action for the given Q-row and advance the schedule.

        Raises:
            PolicyError: If the row length does not match ``n_actions``.
        """
        if len(q_row) != self.n_actions:
            raise PolicyError(
                f"Q-row has {len(q_row)} entries, expected {self.n_actions}"
            )
        eps = self.epsilon
        self._step += 1
        if self._rng.random() < eps:
            return int(self._rng.integers(self.n_actions))
        return int(np.asarray(q_row).argmax())

    def plan_draws(
        self, n_steps: int
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Pre-consume the next ``n_steps`` decisions' random draws.

        Replays the exact draw sequence of ``n_steps`` successive
        :meth:`select` calls — a greedy step consumes one uniform draw,
        an explore step consumes that draw plus one ``integers`` draw —
        leaving the generator and the schedule counter in the precise
        state ``n_steps`` serial selections would have left them.  The
        caller (the lock-step batch trainer) then only needs the Q-row
        argmax for the steps where ``explore`` is False.

        Returns:
            ``(explore, random_actions, epsilons)`` — a boolean mask of
            explore steps, the pre-drawn random action per step (only
            meaningful where ``explore`` is True; 0 elsewhere), and the
            epsilon used at each step.

        Raises:
            PolicyError: If ``n_steps`` is negative.
        """
        if n_steps < 0:
            raise PolicyError(f"n_steps must be non-negative: {n_steps}")
        epsilons = self.schedule.values(
            np.arange(self._step, self._step + n_steps)
        )
        uniform = self._rng.random
        integers = self._rng.integers
        n_actions = self.n_actions
        steps: list[int] = []
        actions: list[int] = []
        for t, eps in enumerate(epsilons.tolist()):
            if uniform() < eps:
                steps.append(t)
                actions.append(integers(n_actions))
        explore = np.zeros(n_steps, dtype=bool)
        explore[steps] = True
        random_actions = np.zeros(n_steps, dtype=np.intp)
        random_actions[steps] = actions
        self._step += n_steps
        return explore, random_actions, epsilons

    def reset(self, *, keep_schedule: bool = False) -> None:
        """Reset the decision counter (and thus epsilon) back to the
        schedule start.

        Pass ``keep_schedule=True`` to preserve the schedule position
        across episodes (a no-op on the counter), which is how the
        online policies keep exploration decaying over a device's whole
        lifetime rather than restarting every trace — they simply never
        call ``reset``.  The former default silently kept the schedule,
        contradicting this docstring; a bare ``reset()`` now does what
        it says.
        """
        if not keep_schedule:
            self._step = 0
