"""Exploration schedules and action selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.errors import PolicyError

#: Most actions :class:`EpsilonGreedy` takes: up to ``2**32``,
#: ``Generator.integers(n)`` makes the 32-bit bounded draw that
#: :meth:`EpsilonGreedy.plan_draws` replays; above, a 64-bit one.
MAX_ACTIONS = 2**32
#: The low 32-bit half of a 64-bit word.
_LOW32 = 0xFFFFFFFF


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
        n_actions: Size of the action set, 1 to :data:`MAX_ACTIONS`.
        seed: RNG seed for reproducible exploration.

    Raises:
        PolicyError: If ``n_actions`` is out of that range.
    """

    def __init__(self, schedule: EpsilonSchedule, n_actions: int, seed: int = 0):
        if n_actions < 1:
            raise PolicyError(f"need at least one action: {n_actions}")
        if n_actions > MAX_ACTIONS:
            raise PolicyError(f"at most {MAX_ACTIONS} actions: {n_actions}")
        self.schedule = schedule
        self.n_actions = n_actions
        self._rng = np.random.default_rng(seed)
        self._step = 0
        # plan_draws reads ahead on this copy of _rng's bit generator.
        self._probe: np.random.PCG64 | None = None

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
        self,
        n_steps: int,
        trajectories: "dict[Hashable, tuple[np.ndarray, list[int]]] | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Pre-consume the next ``n_steps`` decisions' random draws.

        Replays the exact draw sequence of ``n_steps`` successive
        :meth:`select` calls — a greedy step consumes one uniform draw,
        an explore step consumes that draw plus one ``integers`` draw —
        leaving the generator and the schedule counter in the precise
        state ``n_steps`` serial selections would have left them.  The
        caller (the lock-step batch trainer) then only needs the Q-row
        argmax for the steps where ``explore`` is False.

        The draws are decoded from raw PCG64 words, read from a probe
        generator set to this one's state, as numpy makes them:

        * ``random()`` is a word's top 53 bits, ``(w >> 11) * 2**-53``.
          Both factors are exact, so ``random() < eps`` is compared as
          ``w < ceil(eps * 2**53) << 11`` on the integer word.
        * ``integers(n)`` is Lemire's bounded draw ``(x * n) >> 32`` on
          a 32-bit half-word ``x``, redrawn while ``(x * n) mod 2**32 <
          (2**32 - n) % n``.  Half-words come from a fresh word low half
          first; the high half waits in the state's ``has_uint32`` /
          ``uinteger`` buffer for the next ``integers`` call, which
          ``random()`` never reads.  ``integers(1)`` draws nothing.

        The generator is then advanced by the words used and its buffer
        written back.

        Args:
            n_steps: Decisions to plan.
            trajectories: Optional memo of epsilon trajectories keyed by
                ``(schedule, first step, n_steps)``, shared by explorers
                planned together (one lock-step episode) so that each
                distinct trajectory is computed once.  Its epsilon
                arrays are read-only.

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
        epsilons, limits = self._trajectory(n_steps, trajectories)
        bitgen = self._rng.bit_generator
        state = bitgen.state
        if self._probe is None:
            self._probe = np.random.PCG64(0)
        probe = self._probe
        probe.state = state
        # The most words n_steps decisions take with no draw rejected:
        # one per step, and one per two explore steps.  Each rejected
        # draw takes one half-word more, so it tops the list up by one.
        words = probe.random_raw(n_steps + (n_steps + 1) // 2).tolist()
        n = self.n_actions
        threshold = (MAX_ACTIONS - n) % n
        has, buf = state["has_uint32"], state["uinteger"]
        used = 0
        explore = bytearray(n_steps)
        actions = [0] * n_steps
        for t, limit in enumerate(limits):
            word = words[used]
            used += 1
            if word >= limit:
                continue
            explore[t] = 1
            if n == 1:
                continue
            while True:
                if has:
                    x, has = buf, 0
                else:
                    word = words[used]
                    used += 1
                    x, buf, has = word & _LOW32, word >> 32, 1
                m = x * n
                if m & _LOW32 >= threshold:
                    break
                words += probe.random_raw(1).tolist()
            actions[t] = m >> 32
        bitgen.random_raw(used, output=False)
        if (has, buf) != (state["has_uint32"], state["uinteger"]):
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = has, buf
            bitgen.state = state
        self._step += n_steps
        return (
            np.frombuffer(explore, dtype=bool),
            np.array(actions, dtype=np.intp),
            epsilons,
        )

    def _trajectory(
        self,
        n_steps: int,
        trajectories: "dict[Hashable, tuple[np.ndarray, list[int]]] | None",
    ) -> "tuple[np.ndarray, list[int]]":
        """The next ``n_steps`` epsilons and their word limits, from
        ``trajectories`` when it holds them."""
        key = (self.schedule, self._step, n_steps)
        if trajectories is not None and key in trajectories:
            return trajectories[key]
        epsilons = self.schedule.values(
            np.arange(self._step, self._step + n_steps)
        )
        limits = [
            math.ceil(e) << 11 for e in (epsilons * 2.0**53).tolist()
        ]
        if trajectories is not None:
            epsilons.flags.writeable = False
            trajectories[key] = (epsilons, limits)
        return epsilons, limits

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
