"""Lock-step multi-rollout RL training — the batch backend's RL fast path.

:func:`train_policy_batch` runs N independent Q-learning training jobs
*lock-step*: every job advances through the same interval together, and
everything per-interval that the serial
:func:`repro.core.trainer.train_policy` recomputes per rollout — state
featurisation, the TD update, epsilon-greedy selection, power and energy
integration — is evaluated once across all N lanes with NumPy.  Only the
genuinely sequential per-lane machinery (work arrival, scheduling, EDF
draining, abandonment) stays in Python, and it is the serial engine's
own code: the interval core of :mod:`repro.sim.interval`.

The contract is **bit identity** with the serial trainer (engine
contract :data:`repro.sim.engine.ENGINE_VERSION`): trained Q-tables,
epsilon trajectories, cumulative rewards, TD statistics, episode history
records, and evaluation results all compare equal with ``==`` on every
float.  Three mechanisms carry that guarantee:

* **Population Q-table.**  The per-lane Q-tables of every cluster in a
  group of same-shaped clusters become row blocks of one
  ``(clusters * N * n_states, n_actions)`` table; each agent keeps a
  NumPy *view* of its block, so checkpointing, coverage, and greedy
  snapshots read through unchanged.  Because blocks are disjoint,
  :meth:`repro.rl.qtable.QTable.td_update_many` always takes its
  single-segment fast path, and the batched update is the serial
  per-lane update order verbatim.

* **RNG-order contract.**  Each lane keeps its own exploration
  generator.  :meth:`repro.rl.exploration.EpsilonGreedy.plan_draws`
  plans one episode's draws by replaying the raw PCG64 words that
  :meth:`~repro.rl.exploration.EpsilonGreedy.select` would consume — a
  greedy step one word for ``random()``, an explore step that plus a
  32-bit half-word (or more, on rejection) for numpy's bounded
  ``integers`` draw — so the generator, its buffered half-word and the
  schedule counter end the episode in the precise state serial
  training leaves them.  The epsilon trajectory is computed once per
  episode and shared across rows.

* **Serial accumulation order.**  Everything an interval reads of a
  row's OPP — frequency, cycles available, voltage, the leakage
  model's ``a * v * v``, drain rate, load scale, flat-state base — is
  tabulated per OPP code once per runner, each entry the scalar
  expression the serial engine evaluates, and gathered by one ``take``
  per decision.  Core power is :func:`repro.sim.interval.core_power`
  along the row axis, and every sum is
  :func:`repro.sim.interval.sequential_sum`: ``np.add.accumulate``
  adds strictly in index order, where ``np.sum``/``np.add.reduce`` add
  pairwise and round differently.  Per step only the cluster powers
  the reward needs are summed (cores, in core order); each interval
  logs them, and at episode end the clusters add in chip order and the
  intervals integrate in time order — the float sequence of the serial
  meter's per-step adds, moved out of the loop.  So do OPP-switch
  counts, the over-capacity guard (:func:`repro.sim.interval.guard_cycles`
  over the logged cursors, raising the serial ``record_cores`` error),
  and the TD-error sums and maximum; the Welford moments stay per step.

Episode boundaries run the *real* per-lane ``chip.reset()`` and
``policy.reset(cluster)`` calls, so episode counters, TD-window resets,
and reward normalisation are materialised on the policy objects, and
training runs the serial trainer's own episode loop,
:func:`repro.core.trainer.train_lanes`, over
:meth:`_LockstepRunner.run_episode`.

Which jobs share a lock-step pass is decided once, by
:meth:`repro.batch.engine.BatchEngine.units`; the two entry points run
exactly the lanes they are given, one lane or many, through one
:class:`_LockstepRunner`.  A lane the lock step cannot
express — a subclassed policy or agent (SARSA acts before updating;
double-Q flips a coin per update), a non-default power model, a chip or
policy object shared with another lane, policies that do not match its
clusters — raises :class:`~repro.errors.SimulationError` naming it.
Observability plays no part in the routing.  Each observed lane
publishes, to its own session or else the active one, the ``sim.*``
counters, ``rl.*`` metrics and ``rl.episode`` instants of a serial run
plus an equal share of the pass's ``engine.phase.*_s`` time; but no
``engine.run`` span, ``governor.decide`` instants or decision-latency
samples.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Hashable, Sequence

import numpy as np

from repro.batch.engine import _result, _sessions
from repro.core.policy import RLPowerManagementPolicy
from repro.core.state import StateFeaturizer
# perfbench patches evaluate_policy and train_policy by name here.
from repro.core.trainer import (
    RLTrainJob,
    TrainingResult,
    evaluate_policy,  # noqa: F401
    frozen_policies,
    make_policies,
    train_lanes,
    train_policy,  # noqa: F401
)
from repro.errors import SimulationError
from repro.obs import OBS, ObsSession, use
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel
from repro.power.model import PowerModel
from repro.rl.qlearning import QLearningAgent
from repro.rl.qtable import QTable
from repro.sim.engine import PHASES, publish_run
from repro.sim.interval import (
    Lane,
    core_power,
    drain,
    guard_cycles,
    n_intervals,
    queue_slack,
    sequential_sum,
)
from repro.sim.result import SimulationResult
from repro.sim.scheduler import HMPScheduler
from repro.soc.chip import Chip
from repro.soc.cluster import Cluster
from repro.workload.trace import Trace

def _check_lanes(
    chips: Sequence[Chip],
    policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
    power_models: Sequence[PowerModel | None],
) -> None:
    """Reject the first lane the lock step cannot run.

    Exact-type checks are deliberate: subclasses override the decide
    order (SARSA acts before updating) or the TD rule (double-Q draws a
    coin per update), and a subclassed power model may price intervals
    differently.  Lanes must not share chip or policy objects (the lock
    step mutates each lane's independently), and all must have lane 0's
    :func:`_structure_key`.

    Raises:
        SimulationError: Naming the first offending lane.
    """
    seen: set[int] = set()
    structure: Hashable = None
    for k, (chip, policies, model) in enumerate(
        zip(chips, policies_by_lane, power_models)
    ):
        lane = f"lock-step lane {k}"
        model = model or PowerModel()
        if not (
            type(model) is PowerModel
            and type(model.dynamic) is DynamicPowerModel
            and type(model.leakage) is LeakagePowerModel
        ):
            raise SimulationError(f"{lane} has a non-default power model")
        if set(policies) != set(chip.cluster_names):
            raise SimulationError(
                f"{lane} has policies that do not match its clusters"
            )
        for cluster in chip:
            name = cluster.spec.name
            p = policies[name]
            if type(p) is not RLPowerManagementPolicy:
                raise SimulationError(
                    f"{lane} has a {type(p).__name__} on cluster {name!r}"
                )
            if p.agent is not None and type(p.agent) is not QLearningAgent:
                raise SimulationError(
                    f"{lane} has a {type(p.agent).__name__} on cluster "
                    f"{name!r}"
                )
            if p.featurizer is not None and (
                p.featurizer.n_opps != len(cluster.spec.opp_table)
            ):
                raise SimulationError(
                    f"{lane} has a policy bound to another OPP table on "
                    f"cluster {name!r}"
                )
        objects = (chip, *policies.values())
        if any(id(obj) in seen for obj in objects):
            raise SimulationError(
                f"{lane} shares a chip or policy object with an earlier lane"
            )
        seen.update(map(id, objects))
        key = _structure_key(chip, policies)
        if k == 0:
            structure = key
        elif key != structure:
            raise SimulationError(
                f"{lane} disagrees with lane 0 on cluster layout or state "
                "geometry"
            )


def _cluster_shape(
    cluster: Cluster, policy: RLPowerManagementPolicy
) -> Hashable:
    """The shape of one cluster's lock-step rows: core count, state
    geometry, and action count."""
    cfg = policy.config
    return (
        cluster.spec.n_cores,
        cfg.util_bins, cfg.trend_bins, cfg.opp_bins, cfg.slack_bins,
        cfg.n_actions,
    )


def _structure_key(
    chip: Chip, policies: dict[str, RLPowerManagementPolicy]
) -> Hashable:
    """What must match for lanes to share one lock-step runner.

    Per-lane *values* (seeds, learning rates, schedules, electrical
    parameters) may differ freely; the *shape* — cluster layout, OPP
    table sizes, state geometry, action count — must not, because lanes
    share binner edges, OPP codes, and population Q-tables.
    """
    return tuple(
        (cluster.spec.name, len(cluster.spec.opp_table),
         _cluster_shape(cluster, policies[cluster.spec.name]))
        for cluster in chip
    )


def _td_sums(td: np.ndarray) -> list[list[float]]:
    """Per row of a ``(steps, rows)`` TD-error log, the ``abs_sum``,
    ``total`` and ``max_abs`` that
    :meth:`repro.rl.stats.TDErrorStats.push` over its steps leaves.

    The sign test (not ``abs()``) keeps a -0.0 error's magnitude
    bit-identical.  The serial maximum starts from 0.0 and never takes a
    NaN, as ``fmax`` does; ``+ 0.0`` clears a -0.0 maximum.
    """
    mag = np.where(td >= 0.0, td, -td)
    return [
        sequential_sum(mag, axis=0).tolist(),
        sequential_sum(td, axis=0).tolist(),
        (np.fmax.reduce(mag, axis=0, initial=0.0) + 0.0).tolist(),
    ]


class _ClusterVec:
    """Vectorised state of same-shaped clusters across all N lanes.

    Row ``c * N + k`` holds cluster ``names[c]`` of lane ``k``.  Clusters
    share one vector when they agree on :func:`_cluster_shape`, so a
    chip of identically-shaped clusters advances all of them in one
    NumPy pass per step.  OPP tables may differ in size between
    clusters, so the current OPP is carried as a *code*
    ``row * width + index`` into flat tables whose rows are padded to
    the widest table.

    Everything an interval reads of the current OPP is tabulated per
    code once, at construction (:attr:`lut`), and one ``take`` per
    decision gathers it for every row.  Per-episode state is rebuilt by
    :meth:`begin_episode` from the freshly reset policy objects and
    written back by :meth:`end_episode`.
    """

    def __init__(
        self,
        names: Sequence[str],
        chips: Sequence[Chip],
        policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
        idle_activity: np.ndarray,
        dt: float,
    ) -> None:
        self.names = list(names)
        self.n_lanes = len(chips)
        self.clusters = [
            chip.cluster(name) for name in self.names for chip in chips
        ]
        self.policies = [
            lane[name] for name in self.names for lane in policies_by_lane
        ]
        n = len(self.clusters)
        specs = [c.spec for c in self.clusters]
        tables = [s.opp_table for s in specs]
        self.cores = [s.core for s in specs]
        self.n_cores = specs[0].n_cores
        width = max(len(table) for table in tables)
        self.row_base = np.arange(n, dtype=np.intp) * width
        cfg0 = self.policies[0].config
        feats = [p.featurizer for p in self.policies]

        def per_code(value, dtype: type = float) -> np.ndarray:
            """``value(row, opp_index)`` for every code; padding codes
            repeat their row's top OPP."""
            return np.array(
                [value(r, min(o, len(t) - 1))
                 for r, t in enumerate(tables) for o in range(width)],
                dtype=dtype,
            )

        # Per-row constants of core_power, as full (row, core) arrays:
        # a same-shape operand is cheaper than a (row, 1) broadcast.
        shape = (n, self.n_cores)
        self.ceff = np.broadcast_to(
            np.array([[s.core.ceff_f] for s in specs]), shape
        ).copy()
        self.idle_activity = np.broadcast_to(
            np.tile(idle_activity, len(self.names))[:, None], shape
        ).copy()

        # Interior bin edges are shared: equal bin counts over the fixed
        # feature ranges give identical uniform edges on every row, and
        # searchsorted(side="right") is bisect_right element for element.
        # A disabled feature (1 bin) has no binner: digit 0.
        self.util_edges, self.trend_edges, self.slack_edges = (
            None if b is None else np.array(b.edges)
            for b in (feats[0]._util_binner, feats[0]._trend_binner,
                      feats[0]._slack_binner)
        )
        self.pred_alpha = np.array(
            [p.config.predictor_alpha for p in self.policies]
        )
        self.phase_thr = np.array(
            [p.config.phase_change_threshold for p in self.policies]
        )
        # The flat state is a mixed-radix number of the four digits.
        self.trend_radix = cfg0.opp_bins * cfg0.slack_bins
        self.util_radix = cfg0.trend_bins * self.trend_radix
        self.n_actions = cfg0.n_actions
        # Every OPP move per (code, action), through the table's own clamp.
        self.next_code = np.array(
            [
                [width * r + tables[r].clamp_index(o + d)
                 for d in self.policies[r].config.action_deltas]
                for r in range(n) for o in range(width)
            ],
            dtype=np.intp,
        ).ravel()

        self.agents: list[QLearningAgent] = [p.agent for p in self.policies]
        self.explorers = [a.explorer for a in self.agents]
        # Equal state geometry (checked by _check_lanes) means equal
        # state counts.
        self.n_states = self.agents[0].n_states
        self.alpha = np.array([a.alpha for a in self.agents])
        self.gamma = np.array([a.gamma for a in self.agents])
        self.offsets = np.arange(n, dtype=np.intp) * self.n_states
        # Population table: row r owns Q rows [r*S, (r+1)*S); each agent
        # keeps a view of its block, so snapshots, checkpoints, and
        # coverage introspection read through while updates run batched.
        self.pop = QTable(n * self.n_states, self.n_actions)
        for r, agent in enumerate(self.agents):
            block = slice(r * self.n_states, (r + 1) * self.n_states)
            self.pop.values[block] = agent.table.values
            agent.table.values = self.pop.values[block]

        # The per-code table: each entry is the scalar expression the
        # serial engine evaluates at that OPP, so gathering it is exact.
        # Planes 0-3 are core_power's per-core operands (frequency, the
        # cycles available, voltage, the leakage model's ``a * v * v``);
        # 4 and 5 the drain rate and the predictor's load scale; 6 and 7
        # hold the int64 bits of the flat-state base (row offset plus
        # OPP digit term) and of ``code * n_actions``, the move table's
        # row.  Per-row planes repeat across the core axis.
        ints = np.array([
            per_code(lambda r, o: r * self.n_states
                     + feats[r].opp_digit(o) * cfg0.slack_bins, np.intp),
            np.arange(n * width, dtype=np.intp) * self.n_actions,
        ])
        self.lut = np.empty((8, n * width, self.n_cores))
        self.lut[:6] = np.array([
            per_code(lambda r, o: tables[r][o].freq_hz),
            per_code(lambda r, o: tables[r][o].freq_hz * dt),
            per_code(lambda r, o: tables[r][o].voltage_v),
            per_code(lambda r, o: specs[r].core.leak_a_per_v
                     * tables[r][o].voltage_v * tables[r][o].voltage_v),
            per_code(lambda r, o: specs[r].core.capacity
                     * tables[r][o].freq_hz),
            per_code(lambda r, o: tables[r][o].freq_hz
                     / tables[r].max_freq_hz),
        ])[:, :, None]
        self.lut[6:] = ints.view(np.float64)[:, :, None]

    def rows(self, name: str) -> slice:
        """The rows of cluster ``name``, one per lane in lane order."""
        c = self.names.index(name)
        return slice(c * self.n_lanes, (c + 1) * self.n_lanes)

    def detach(self) -> None:
        """Give every agent back a standalone values array."""
        for agent in self.agents:
            agent.table.values = agent.table.values.copy()

    def _gather(self, code: np.ndarray) -> None:
        """Move every row to OPP ``code`` and gather its table entries."""
        self.code = code
        entry = self.lut.take(code, axis=1)
        self.freq, self.available, self.volt, self.leak_base = entry[:4]
        self.rates = entry[4, :, 0].tolist()
        self.load_scale = entry[5, :, 0]
        self.flat_base, self.move_base = entry[6:, :, 0].view(np.intp)

    def begin_episode(
        self,
        lanes: Sequence[Lane],
        online: bool,
        n_steps: int,
        trajectories: dict,
    ) -> None:
        """Load per-episode vectors from the freshly reset policies.

        ``trajectories`` is the episode's epsilon memo, shared by every
        vector's explorers (see
        :meth:`~repro.rl.exploration.EpsilonGreedy.plan_draws`).
        """
        policies = self.policies
        n = len(policies)
        self.queues = [lane.queues[name] for name in self.names for lane in lanes]
        self.cutoffs = [lane.cutoff for _ in self.names for lane in lanes]
        # ``-(e / s)`` is ``e / -s`` exactly: the reward's energy term.
        self.neg_energy_scale = -np.array(
            [p.reward_config.energy_scale_j for p in policies]
        )
        self.lambda_qos = np.array(
            [p.reward_config.lambda_qos for p in policies]
        )
        # ``+ 0.0`` turns a -0.0 threshold into 0.0, so ``thr - slack``
        # at ``slack == thr`` is +0.0 and the urgency of a relaxed row is
        # +0.0, as serially.  Divisors of non-positive thresholds are 1.0:
        # those rows are never urgent (slack is never negative).
        self.slack_thr = np.array(
            [p.reward_config.slack_threshold for p in policies]
        ) + 0.0
        self.safe_thr = np.where(self.slack_thr > 0, self.slack_thr, 1.0)
        self.miss_penalty = np.array(
            [p.reward_config.miss_penalty for p in policies]
        )
        # Predictor state (featurizer.reset() just cleared the serial
        # one; ``level`` is only meaningful from step 0's observe on).
        self.level = np.zeros(n)
        self.prev_level = np.zeros(n)
        self.phase_changes = np.zeros(n, dtype=np.int64)
        # DVFS state: chip.reset() returned every cluster to OPP 0.
        self._gather(self.row_base)
        # Learning state.
        self.cum = np.array([p.cumulative_reward for p in policies])
        self.prev_flat = np.zeros(n, dtype=np.intp)
        self.prev_action = np.zeros(n, dtype=np.intp)
        self.wmean = np.zeros(n)
        self.m2 = np.zeros(n)
        # Previous-interval observation fields (the initial observation:
        # idle cores, relaxed queue, no energy, no misses).
        self.util_max = np.zeros(n)
        self.energy_prev = np.zeros(n)
        # (misses, slack) of an empty queue, per row.
        self.relaxed = np.array([[0.0] * n, [1.0] * n])
        self.misses_prev, self.slack_prev = self.relaxed
        # Core accounting for the episode-end write-back (power() sets
        # the last interval's ``used`` and ``util``).
        self.busy = np.zeros((n, self.n_cores))
        # Per-interval logs, read once at episode end: the OPP each row
        # ran at, its drain cursors (rows of empty queues stay zero) and
        # its (dynamic, leakage) cluster power.
        self.code_log = np.empty((n_steps, n), dtype=np.intp)
        self.cursor_log = np.zeros((n_steps, n, self.n_cores))
        self.power_log = np.empty((n_steps, 2, n))
        if online:
            # Pre-consume each row's episode of draws in select() order.
            explore = np.empty((n_steps, n), dtype=bool)
            rand = np.empty((n_steps, n), dtype=np.intp)
            for r, explorer in enumerate(self.explorers):
                explore[:, r], rand[:, r], _ = explorer.plan_draws(
                    n_steps, trajectories
                )
            self.explore = explore
            self.rand = rand
            self.td_log = np.empty((n_steps, n))

    # -- per-interval phases --------------------------------------------

    def decide(self, step: int, online: bool) -> None:
        """Featurise, update the previous decision, select an action.

        Reproduces :meth:`RLPowerManagementPolicy.decide` per row from
        the previous interval's observation fields: the TD update lands
        *before* the greedy argmax (an update to the very row being
        argmaxed is visible, exactly as serially), and exploration
        consumes the pre-planned draws.
        """
        # StateFeaturizer.digits: predictor.observe(absolute_load) first.
        load = self.util_max * self.load_scale
        if step == 0:
            self.level = load
        else:
            err = load - self.level
            snap = np.abs(err) > self.phase_thr
            self.prev_level = self.level
            self.phase_changes += snap
            self.level = np.where(
                snap, load, self.level + self.pred_alpha * err
            )
        # The digits, weighted by their radix.  ``searchsorted`` over the
        # ``bins - 1`` interior edges never exceeds ``bins - 1``, so the
        # serial ``min(..., bins - 1)`` clamp is already met.
        flat = self.flat_base
        if self.util_edges is not None:
            flat = flat + self.util_edges.searchsorted(
                self.level, side="right"
            ) * self.util_radix
        if self.trend_edges is not None:
            trend = (
                self.level - self.prev_level
                if step >= 1
                else np.zeros(load.shape)
            )
            flat = flat + self.trend_edges.searchsorted(
                trend, side="right"
            ) * self.trend_radix
        if self.slack_edges is not None:
            flat = flat + self.slack_edges.searchsorted(
                self.slack_prev, side="right"
            )

        if online and step > 0:
            # RewardConfig.compute: the urgency is (thr - slack) / thr
            # for urgent rows (slack < thr) and 0.0 for the others.
            urgency = (
                np.maximum(self.slack_thr - self.slack_prev, 0.0)
                / self.safe_thr
            )
            reward = self.energy_prev / self.neg_energy_scale - (
                self.lambda_qos
                * (self.miss_penalty * self.misses_prev + urgency)
            )
            self.cum = self.cum + reward
            # Row blocks are disjoint by construction (distinct offsets),
            # so the collision scan can be skipped outright.
            td = self.pop.td_update_many(
                self.prev_flat, self.prev_action, reward, flat,
                self.alpha, self.gamma, assume_distinct=True,
            )
            # TDErrorStats.push, vectorised: the Welford moments here
            # (the shared scalar count is exactly ``step`` on every row),
            # the sums and the maximum from the log at episode end.
            self.td_log[step] = td
            delta = td - self.wmean
            self.wmean = self.wmean + delta / step
            self.m2 = self.m2 + delta * (td - self.wmean)

        greedy = self.pop.values[flat].argmax(axis=1)
        if online:
            action = np.where(self.explore[step], self.rand[step], greedy)
        else:
            action = greedy
        self.prev_flat = flat
        self.prev_action = action

        code = self.next_code[self.move_base + action]
        self.code_log[step] = code
        self._gather(code)

    def drain(self, step: int, t0: float, dt: float) -> None:
        """EDF-drain every row's queue; keep the obs the policy reads.

        The policy consumes next interval each row's late completions
        plus abandoned jobs, and the post-abandon queue slack.  Only the
        rows with queued work are written: the cursor log starts zeroed,
        and an empty queue reports no misses and slack 1.0.
        """
        t1 = t0 + dt
        cursors = self.cursor_log[step]
        # Float miss counts: the reward multiplies them as floats anyway.
        obs = self.relaxed.copy()
        rates = self.rates
        cutoffs = self.cutoffs
        for r, queue in enumerate(self.queues):
            if queue:
                cursors[r], _, _, obs[0, r] = drain(
                    queue, self.n_cores, rates[r], t0, dt, cutoffs[r]
                )
                obs[1, r] = queue_slack(queue, t1)
        self.misses_prev, self.slack_prev = obs

    def power(self, step: int, dt: float) -> None:
        """One interval's per-row cluster power plus the obs it feeds.

        :func:`repro.sim.interval.core_power` along the row axis at the
        gathered OPP operands, summed across cores in the serial order
        into the power log.
        """
        used, util, power = core_power(
            self.cursor_log[step], self.freq, self.available, self.volt,
            self.leak_base, self.ceff, self.idle_activity,
        )
        dyn_leak = sequential_sum(power, out=self.power_log[step])
        self.busy += used
        self.used = used
        self.util = util
        self.util_max = util.max(axis=1)
        # Serially ``p.total_w * dt + 0.0`` with cluster uncore 0 — the
        # ``+ 0.0`` terms are exact no-ops on these non-negative floats.
        self.energy_prev = (dyn_leak[0] + dyn_leak[1]) * dt

    def end_episode(self, online: bool, n_steps: int, dt: float) -> np.ndarray:
        """Check the episode's cycles and materialise per-row
        end-of-episode state on the real objects.

        Returns:
            Per lane, the episode's OPP switches over this vector's
            clusters.

        Raises:
            ConfigurationError: If a core used negative cycles or more
                than its interval offered, as the serial engine's
                ``record_cores`` would have.
        """
        guard_cycles(self.cursor_log, self.lut[0, self.code_log, 0],
                     self.cores, dt)
        codes = self.code_log
        switched = (codes[0] != self.row_base) + (
            codes[1:] != codes[:-1]
        ).sum(axis=0)
        opp = (self.code - self.row_base).tolist()
        if online and n_steps > 1:
            abs_sum, total, max_abs = _td_sums(self.td_log[1:])
            last = self.td_log[-1].tolist()
        for r, p in enumerate(self.policies):
            p.cumulative_reward = float(self.cum[r])
            p._prev_state = int(self.prev_flat[r] - self.offsets[r])
            p._prev_action = int(self.prev_action[r])
            pred = p.featurizer.predictor
            pred._level = float(self.level[r])
            pred._prev_level = (
                float(self.prev_level[r]) if n_steps > 1 else None
            )
            pred.phase_changes = int(self.phase_changes[r])
            if online and n_steps > 1:
                agent = self.agents[r]
                stats = agent.td_stats
                stats.count = n_steps - 1
                stats.abs_sum = abs_sum[r]
                stats.total = total[r]
                stats.max_abs = max_abs[r]
                stats.last = last[r]
                stats.welford_mean = float(self.wmean[r])
                stats.m2 = float(self.m2[r])
                agent.updates += n_steps - 1
            cluster = self.clusters[r]
            cluster.set_opp_index(opp[r])
            for c, core in enumerate(cluster.cores):
                core.utilization = float(self.util[r, c])
                core.busy_cycles = float(self.busy[r, c])
                core.idle = bool(self.used[r, c] == 0)
        return switched.reshape(-1, self.n_lanes).sum(axis=0)


class _LockstepRunner:
    """Advances N (chip, policies) lanes through episodes together.

    The lanes are packed into vectors at the first episode, not before:
    that is when serial training first binds a fresh policy's agent, so
    a trainer's pre-training greedy snapshots see what serially they
    would.
    """

    def __init__(
        self,
        chips: Sequence[Chip],
        policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
        power_models: Sequence[PowerModel | None],
        interval_s: float,
        sessions: Sequence[ObsSession | None] | None,
    ) -> None:
        if interval_s <= 0:
            raise SimulationError(f"interval must be positive: {interval_s}")
        self.n = len(chips)
        self.sessions = _sessions(sessions, self.n)
        self.chips = list(chips)
        self.policies_by_lane = list(policies_by_lane)
        self.power_models = [pm or PowerModel() for pm in power_models]
        self.dt = interval_s
        # One scheduler per lane: each ranks its own chip once.
        self.schedulers = [HMPScheduler() for _ in chips]
        self.cluster_names = self.chips[0].cluster_names
        self.vecs: list[_ClusterVec] = []

    def _bind(self) -> None:
        """Bind every policy and pack the lanes into vectors."""
        # Pre-bind exactly what the first reset() would build, so the
        # population tables exist before the first episode.  The objects
        # are identical to reset()'s (construction consumes no RNG), and
        # reset() then sees a bound policy and skips its create branch.
        for chip, policies in zip(self.chips, self.policies_by_lane):
            for cluster in chip:
                p = policies[cluster.spec.name]
                if p.featurizer is None:
                    p.featurizer = StateFeaturizer(
                        p.config, len(cluster.spec.opp_table)
                    )
                    p.agent = p._make_agent(p.featurizer.n_states)
        models = self.power_models
        self.uncore_w = np.array([m.uncore_w for m in models])
        idle_activity = np.array([m.dynamic.idle_activity for m in models])
        # Same-shaped clusters share one vector (lanes all have lane 0's
        # structure, checked by _check_lanes).
        shapes: dict[Hashable, list[str]] = {}
        lane0 = self.policies_by_lane[0]
        for cluster in self.chips[0]:
            name = cluster.spec.name
            shapes.setdefault(
                _cluster_shape(cluster, lane0[name]), []
            ).append(name)
        self.vecs = [
            _ClusterVec(group, self.chips, self.policies_by_lane,
                        idle_activity, self.dt)
            for group in shapes.values()
        ]
        # (vector, rows) per cluster in chip order, for the chip sums.
        self.cluster_rows = [
            (v, vec.rows(name))
            for name in self.cluster_names
            for v, vec in enumerate(self.vecs)
            if name in vec.names
        ]

    def detach(self) -> None:
        for vec in self.vecs:
            vec.detach()

    def _energy(self, n_steps: int) -> np.ndarray:
        """Per lane, the episode's ``(dynamic, leakage, uncore)`` joules.

        The serial meter's order from the power logs: clusters add in
        chip order per interval, then interval energies add in time
        order.
        """
        dt = self.dt
        per_cluster = np.stack([
            self.vecs[v].power_log[:, :, rows]
            for v, rows in self.cluster_rows
        ])
        chip = sequential_sum(per_cluster, axis=0)
        uncore = np.broadcast_to(self.uncore_w * dt, (n_steps, 1, self.n))
        return sequential_sum(
            np.concatenate((chip * dt, uncore), axis=1), axis=0
        )

    def run_episode(
        self, traces: Sequence[Trace], online: bool
    ) -> list[SimulationResult]:
        """One lock-step episode across all lanes; one result per lane."""
        dt = self.dt
        steps = [n_intervals(tr.duration_s, dt) for tr in traces]
        n_steps = steps[0]
        if any(s != n_steps for s in steps):
            raise SimulationError(
                "lock-step lanes disagree on step count: "
                f"{sorted(set(steps))}"
            )

        if not self.vecs:
            self._bind()
        # Real per-lane resets — episode counters, TD windows, reward
        # normalisation, featurizer clears — the serial run()'s preamble.
        for chip, policies in zip(self.chips, self.policies_by_lane):
            chip.reset()
            for cluster in chip:
                policies[cluster.spec.name].reset(cluster)
        lanes = [
            Lane(tr, self.cluster_names, dt, n_steps) for tr in traces
        ]
        trajectories: dict = {}
        for vec in self.vecs:
            vec.begin_episode(lanes, online, n_steps, trajectories)
        # Per step, the lanes whose admit() releases work.
        admitting: list[list[int]] = [[] for _ in range(n_steps)]
        for k, lane in enumerate(lanes):
            for step in lane.release_steps():
                admitting[step].append(k)

        # Phase wall times, as in the serial engine; read only while a
        # lane is observed.
        clock = OBS.enabled or any(s is not None for s in self.sessions)
        governor_ns = schedule_ns = drain_ns = power_ns = 0
        if clock:
            ns = time.perf_counter_ns()

        for step in range(n_steps):
            t0 = step * dt
            # 1. Decisions for every cluster (decide + update).
            for vec in self.vecs:
                vec.decide(step, online)
            if clock:
                ns1 = time.perf_counter_ns()
                governor_ns += ns1 - ns
            # 3-5. Per lane: release arrivals and place them, then drain
            # and abandon per cluster.
            for k in admitting[step]:
                lanes[k].admit(step, t0, self.schedulers[k], self.chips[k])
            if clock:
                ns2 = time.perf_counter_ns()
                schedule_ns += ns2 - ns1
            for vec in self.vecs:
                vec.drain(step, t0, dt)
            if clock:
                ns3 = time.perf_counter_ns()
                drain_ns += ns3 - ns2
            # 6. Cluster power, all lanes at once; energy integrates from
            # the power logs after the loop.
            for vec in self.vecs:
                vec.power(step, dt)
            if clock:
                ns = time.perf_counter_ns()
                power_ns += ns - ns3
            # 7. The observation fields the next decide() consumes were
            # stored by drain() and power() above.

        switches = sum(
            vec.end_episode(online, n_steps, dt) for vec in self.vecs
        )
        if clock:
            ns = time.perf_counter_ns()
        energy = self._energy(n_steps).T.tolist()
        if clock:
            power_ns += time.perf_counter_ns() - ns

        results = [
            _result(
                "+".join(sorted({p.name for p in policies.values()})),
                trace, lane, n_steps, dt, tuple(energy[k]), int(switches[k]),
            )
            for k, (lane, policies, trace) in enumerate(
                zip(lanes, self.policies_by_lane, traces)
            )
        ]
        if clock:
            # The lanes share every phase, so each gets an equal share.
            share = {
                phase: total / self.n for phase, total in zip(
                    PHASES, (governor_ns, schedule_ns, drain_ns, power_ns)
                )
            }
            for session, result in zip(self.sessions, results):
                with use(session):
                    publish_run(result, share)
        return results


def train_policy_batch(
    jobs: Sequence[RLTrainJob],
    sessions: Sequence[ObsSession | None] | None = None,
) -> list[TrainingResult]:
    """Train the given RL jobs lock-step.

    The caller decides which jobs train together; this runs exactly the
    lanes it is given, one or many: the trainer's episode loop
    (:func:`repro.core.trainer.train_lanes`) over one lock-step pass,
    bit-identical to training each with
    :func:`repro.core.trainer.train_policy`.

    Args:
        jobs: The lanes to train.
        sessions: Per job, the observability session that receives its
            metrics and ``rl.episode`` instants (``None``: the active one).

    Returns:
        One :class:`TrainingResult` per job, in job order, holding the
        job's freshly made and trained policies (``[]`` for no jobs).

    Raises:
        SimulationError: If the jobs disagree on interval or episode
            plan, or a lane cannot run lock-step (:func:`_check_lanes`).
        PolicyError: On fewer than one episode.
    """
    if not jobs:
        return []
    first = jobs[0]
    plan = (first.interval_s, first.episodes, first.episode_duration_s)
    for k, job in enumerate(jobs):
        if (job.interval_s, job.episodes, job.episode_duration_s) != plan:
            raise SimulationError(
                f"lock-step lane {k} disagrees with lane 0 on interval or "
                "episode plan"
            )
    chips = [job.chip for job in jobs]
    policies_by_lane = [make_policies(job.chip, job.config) for job in jobs]
    models = [job.power_model for job in jobs]
    _check_lanes(chips, policies_by_lane, models)
    runner = _LockstepRunner(chips, policies_by_lane, models, first.interval_s,
                             sessions)
    try:
        return train_lanes(jobs, policies_by_lane, runner.run_episode,
                           runner.sessions)
    finally:
        runner.detach()


def evaluate_policies_batch(
    chips: Sequence[Chip],
    policies_by_lane: Sequence[dict[str, RLPowerManagementPolicy]],
    traces: Sequence[Trace],
    interval_s: float = 0.01,
    power_models: Sequence[PowerModel | None] | None = None,
    sessions: Sequence[ObsSession | None] | None = None,
) -> list[SimulationResult]:
    """Evaluate the given trained lanes greedily, lock-step.

    The batched counterpart of
    :func:`repro.core.trainer.evaluate_policy`: every lane's policies
    are frozen (online flags restored afterwards) and run greedily over
    its trace, all lanes (one or many) in one lock-step pass,
    bit-identically.  No lanes give ``[]``.  ``sessions`` routes each
    lane's metrics as in :func:`train_policy_batch`.

    Raises:
        SimulationError: On mismatched input lengths, or if a lane
            cannot run lock-step (:func:`_check_lanes`).
    """
    n = len(chips)
    models = (
        list(power_models) if power_models is not None else [None] * n
    )
    if not (len(policies_by_lane) == len(traces) == len(models) == n):
        raise SimulationError(
            "evaluate_policies_batch needs one policies dict, trace, and "
            f"power model per chip: {len(policies_by_lane)} policies/"
            f"{len(traces)} traces/{len(models)} models for {n} chips"
        )
    if not n:
        return []
    with ExitStack() as stack:
        for policies in policies_by_lane:
            stack.enter_context(frozen_policies(policies))
        _check_lanes(chips, policies_by_lane, models)
        runner = _LockstepRunner(chips, policies_by_lane, models, interval_s,
                                 sessions)
        try:
            return runner.run_episode(list(traces), online=False)
        finally:
            runner.detach()
