"""The lock-step RL training fast path: routing and bit-identity.

The contract under test is absolute: batched training must equal serial
:func:`repro.core.trainer.train_policy` **bit for bit** — Q-values,
epsilon trajectories, TD statistics, episode history — ``==`` on every
float, never ``pytest.approx``.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    RLTrainJob,
    evaluate_policies_batch,
    is_rl_vectorisable,
    is_vectorisable,
    rl_group_key,
    run_batch,
    train_policy_batch,
)
from repro.core.config import PolicyConfig
from repro.core.policy import SarsaPowerManagementPolicy
from repro.core.trainer import (
    evaluate_policy,
    frozen_policies,
    make_policies,
    train_policy,
)
from repro.errors import ConfigurationError, PolicyError, SimulationError
from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec
from repro.rl.exploration import EpsilonGreedy, EpsilonSchedule
from repro.rl.qtable import QTable
from repro.soc.chip import Chip
from repro.soc.cluster import ClusterSpec
from repro.soc.core import BIG_CORE, LITTLE_CORE
from repro.soc.presets import (
    big_opp_table,
    exynos5422,
    little_opp_table,
    tiny_test_chip,
)
from repro.workload.phases import PhaseMachine, PhaseSpec
from repro.workload.scenarios import Scenario


def tiny_scenario() -> Scenario:
    """A light scenario sized for the tiny test chip."""

    def machine() -> PhaseMachine:
        phases = [
            PhaseSpec("lo", period_s=0.05, work_mean=2e6, work_cv=0.2,
                      deadline_factor=1.5, dwell_mean_s=1.0, dwell_min_s=0.4),
            PhaseSpec("hi", period_s=0.02, work_mean=8e6, work_cv=0.2,
                      deadline_factor=1.5, dwell_mean_s=1.0, dwell_min_s=0.4),
        ]
        return PhaseMachine(phases, [[0.3, 0.7], [0.7, 0.3]])

    return Scenario("tiny-mix", "test scenario", machine)


def _jobs(seeds, chip_factory=tiny_test_chip, scenario=None, episodes=2,
          episode_duration_s=2.0, config=None):
    return [
        RLTrainJob(
            chip=chip_factory(),
            scenario=scenario or tiny_scenario(),
            episodes=episodes,
            episode_duration_s=episode_duration_s,
            base_seed=s,
            config=config or PolicyConfig(seed=s),
        )
        for s in seeds
    ]


def _train_serially(jobs):
    """The oracle: serial :func:`train_policy` per job."""
    return [
        train_policy(
            job.chip, job.scenario, episodes=job.episodes,
            episode_duration_s=job.episode_duration_s,
            base_seed=job.base_seed, config=job.config,
            interval_s=job.interval_s, power_model=job.power_model,
            recorder=job.recorder,
        )
        for job in jobs
    ]


def _assert_policies_identical(a, b):
    """Every learner-state float equal between two policy dicts."""
    assert set(a) == set(b)
    for name in a:
        pa, pb = a[name], b[name]
        assert np.array_equal(pa.agent.table.values, pb.agent.table.values)
        assert pa.agent.explorer.step == pb.agent.explorer.step
        assert pa.agent.epsilon == pb.agent.epsilon
        assert pa.agent.updates == pb.agent.updates
        assert pa.cumulative_reward == pb.cumulative_reward
        assert pa.episodes == pb.episodes
        assert pa._prev_state == pb._prev_state
        assert pa._prev_action == pb._prev_action
        sa, sb = pa.agent.td_stats, pb.agent.td_stats
        for f in ("count", "abs_sum", "total", "max_abs", "last",
                  "welford_mean", "m2"):
            assert getattr(sa, f) == getattr(sb, f), (name, f)
        pra, prb = pa.featurizer.predictor, pb.featurizer.predictor
        assert pra._level == prb._level
        assert pra._prev_level == prb._prev_level
        assert pra.phase_changes == prb.phase_changes


#: Specs across every routing input: governor, substrate, chip,
#: per-job config and episode plan.
_SPECS = st.builds(
    JobSpec,
    scenario=st.just("idle"),
    governor=st.sampled_from(("rl-policy", "performance", "ondemand",
                              "schedutil", "checkpoint:/nowhere")),
    chip=st.sampled_from(("tiny", "exynos5422")),
    seed=st.integers(0, 3),
    train_episodes=st.integers(1, 2),
    full_system=st.booleans(),
    trace_dir=st.sampled_from((None, "/nowhere")),
    policy_config=st.sampled_from((None, PolicyConfig(util_bins=3))),
)


class TestRoutingPredicates:
    def test_rl_spec_is_not_table_free(self):
        # The table-free predicate must keep rejecting RL jobs; they
        # have their own grouping predicate.
        spec = JobSpec(scenario="idle", governor="rl-policy")
        assert not is_vectorisable(spec)
        assert is_rl_vectorisable(spec)

    def test_rl_vectorisable_exclusions(self):
        base = JobSpec(scenario="idle", governor="rl-policy")
        assert not is_rl_vectorisable(replace(base, governor="ondemand"))
        assert not is_rl_vectorisable(replace(base, full_system=True))
        assert not is_rl_vectorisable(replace(base, trace_dir="/tmp/t"))
        assert not is_rl_vectorisable(
            replace(base, chip_obj=tiny_test_chip())
        )

    def test_rl_vectorisable_allows_config_and_ledger(self):
        base = JobSpec(scenario="idle", governor="rl-policy")
        assert is_rl_vectorisable(
            replace(base, policy_config=PolicyConfig(seed=3))
        )
        assert is_rl_vectorisable(replace(base, learn_log_dir="/tmp/l"))

    def test_rl_vectorisable_allows_metric_collection(self):
        base = JobSpec(scenario="idle", governor="rl-policy")
        assert is_rl_vectorisable(replace(base, collect_metrics=True))

    def test_group_key_ignores_seeds_but_not_geometry(self):
        a = JobSpec(scenario="idle", governor="rl-policy", seed=1,
                    train_base_seed=10)
        b = replace(a, seed=2, train_base_seed=20)
        assert rl_group_key(a) == rl_group_key(b)
        assert rl_group_key(a) != rl_group_key(replace(a, chip="tiny"))
        assert rl_group_key(a) != rl_group_key(
            replace(a, train_episodes=a.train_episodes + 1)
        )
        assert rl_group_key(a) != rl_group_key(
            replace(a, policy_config=PolicyConfig(util_bins=3))
        )

    def test_plan_groups_matching_rl_specs(self):
        rl = [JobSpec(scenario="idle", governor="rl-policy", seed=100 + i,
                      chip="tiny") for i in range(3)]
        lone = JobSpec(scenario="idle", governor="rl-policy", seed=9,
                       chip="tiny", train_episodes=99)
        serial = JobSpec(scenario="idle", governor="schedutil", chip="tiny")
        engine = BatchEngine([*rl, lone, serial])
        # Every plain RL job takes the RL path, the lone one too; only
        # the matching three share a lock-step chunk.
        assert engine.plan() == [True, True, True, True, False]
        assert engine.units() == [[3], [4], [0, 1, 2]]

    def test_plan_singleton_rl_takes_rl_path(self):
        spec = JobSpec(scenario="idle", governor="rl-policy", chip="tiny")
        assert BatchEngine([spec]).plan() == [True]
        assert BatchEngine([spec]).units() == [[0]]

    @given(specs=st.lists(_SPECS, max_size=6))
    def test_plan_is_per_spec(self, specs):
        alone = [fast for spec in specs for fast in BatchEngine([spec]).plan()]
        assert BatchEngine(specs).plan() == alone

    def test_units_singles_first_then_chunks(self):
        rl = [JobSpec(scenario="idle", governor="rl-policy", seed=100 + i,
                      chip="tiny") for i in range(3)]
        lone = JobSpec(scenario="idle", governor="rl-policy", seed=9,
                       chip="tiny", train_episodes=99)
        serial = JobSpec(scenario="idle", governor="schedutil", chip="tiny")
        specs = [rl[0], serial, rl[1], lone, rl[2]]
        assert BatchEngine(specs).units() == [[1], [3], [0, 2, 4]]
        # Two workers get at most two slices of the group; a slice of
        # one is a single job, and with a worker per RL job none chunks.
        assert BatchEngine(specs).units(workers=2) == [
            [0], [1], [3], [2, 4]]
        assert BatchEngine(specs).units(workers=3) == [[i] for i in range(5)]
        # An observability session changes no unit.
        from repro.obs import capture

        with capture():
            assert BatchEngine(specs).units() == [[1], [3], [0, 2, 4]]

    def test_units_deal_a_group_evenly(self):
        specs = [JobSpec(scenario="idle", governor="rl-policy", seed=i,
                         chip="tiny") for i in range(7)]
        assert BatchEngine(specs).units(workers=3) == [
            [0, 1], [2, 3], [4, 5, 6]]


class TestTrainBatchBitIdentity:
    def test_matches_serial_trainer(self):
        seeds = [0, 1, 2, 5]
        serial = _train_serially(_jobs(seeds))
        batched = train_policy_batch(_jobs(seeds))
        for a, b in zip(serial, batched):
            assert a.history == b.history
            _assert_policies_identical(a.policies, b.policies)

    def test_matches_on_big_little_chip(self):
        # Two clusters exercise the HMP scheduler and per-cluster
        # population tables.
        from repro.workload.scenarios import get_scenario

        kw = dict(chip_factory=exynos5422,
                  scenario=get_scenario("web_browsing"))
        serial = _train_serially(_jobs([0, 3], **kw))
        batched = train_policy_batch(_jobs([0, 3], **kw))
        for a, b in zip(serial, batched):
            assert a.history == b.history
            _assert_policies_identical(a.policies, b.policies)

    def test_heterogeneous_hyperparameters_vectorise(self):
        # Per-lane alpha/gamma/epsilon/bins-compatible configs group
        # fine; only the state geometry must match.
        configs = [
            PolicyConfig(seed=1, alpha=0.1, gamma=0.8),
            PolicyConfig(seed=2, alpha=0.5, gamma=0.95,
                         epsilon=EpsilonSchedule(start=0.9, decay=0.99)),
            # No queue is ever urgent: the urgency divisor is never 0.
            PolicyConfig(seed=3, slack_threshold=0.0, lambda_qos=2.0),
        ]
        jobs = lambda: [
            RLTrainJob(chip=tiny_test_chip(), scenario=tiny_scenario(),
                       episodes=2, episode_duration_s=2.0, base_seed=i,
                       config=cfg)
            for i, cfg in enumerate(configs)
        ]
        serial = _train_serially(jobs())
        batched = train_policy_batch(jobs())
        for a, b in zip(serial, batched):
            assert a.history == b.history
            _assert_policies_identical(a.policies, b.policies)

    def test_one_lane_equals_train_policy(self):
        [serial] = _train_serially(_jobs([4]))
        [batched] = train_policy_batch(_jobs([4]))
        assert serial.history == batched.history
        _assert_policies_identical(serial.policies, batched.policies)

    def test_mismatched_geometry_rejected(self):
        # Grouping is the caller's decision; lanes of another state
        # geometry are an error, not a silent serial fallback.
        jobs = _jobs([0]) + _jobs([1], config=PolicyConfig(util_bins=3))
        with pytest.raises(SimulationError, match="lane 1 disagrees"):
            train_policy_batch(jobs)

    def test_no_jobs_train_nothing(self):
        assert train_policy_batch([]) == []

    def test_zero_episodes_rejected_like_train_policy(self):
        for seeds in ([0], [0, 1]):
            with pytest.raises(PolicyError, match="at least one episode"):
                train_policy_batch(_jobs(seeds, episodes=0))

    def test_mismatched_episode_plan_rejected(self):
        jobs = _jobs([0]) + _jobs([1], episodes=3)
        with pytest.raises(SimulationError, match="lane 1 .* episode plan"):
            train_policy_batch(jobs)

    @settings(max_examples=8, deadline=None)
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=200),
                       min_size=1, max_size=4, unique=True),
        episodes=st.integers(min_value=1, max_value=3),
        alpha=st.sampled_from([0.1, 0.3, 0.7]),
        gamma=st.sampled_from([0.0, 0.5, 0.9]),
    )
    def test_property_bit_identity(self, seeds, episodes, alpha, gamma):
        def jobs():
            return [
                RLTrainJob(
                    chip=tiny_test_chip(), scenario=tiny_scenario(),
                    episodes=episodes, episode_duration_s=1.5, base_seed=s,
                    config=PolicyConfig(seed=s, alpha=alpha, gamma=gamma),
                )
                for s in seeds
            ]

        serial = _train_serially(jobs())
        batched = train_policy_batch(jobs())
        for a, b in zip(serial, batched):
            assert a.history == b.history
            _assert_policies_identical(a.policies, b.policies)


class TestEvaluateBatch:
    def test_matches_serial_evaluator_and_restores_flags(self):
        results = train_policy_batch(_jobs([0, 1, 2]))
        traces = [tiny_scenario().trace(2.0, seed=77) for _ in results]
        serial = [
            evaluate_policy(tiny_test_chip(), r.policies, t)
            for r, t in zip(results, traces)
        ]
        batched = evaluate_policies_batch(
            [tiny_test_chip() for _ in results],
            [r.policies for r in results],
            traces,
        )
        assert batched == serial
        for r in results:
            assert all(p.online for p in r.policies.values())

    def test_length_mismatch_raises(self):
        with pytest.raises(SimulationError):
            evaluate_policies_batch([tiny_test_chip()], [], [])

    def test_no_lanes_evaluate_nothing(self):
        assert evaluate_policies_batch([], [], []) == []

    def test_one_lane_equals_evaluate_policy(self):
        [trained] = train_policy_batch(_jobs([3]))
        trace = tiny_scenario().trace(2.0, seed=77)
        serial = evaluate_policy(tiny_test_chip(), trained.policies, trace)
        assert evaluate_policies_batch(
            [tiny_test_chip()], [trained.policies], [trace]
        ) == [serial]

    def test_shared_policy_objects_rejected(self):
        # Two lanes pointing at one policy dict cannot run lock-step
        # (the population table would alias); the flags still restore.
        shared = train_policy_batch(_jobs([0]))[0].policies
        trace = tiny_scenario().trace(1.0, seed=5)
        with pytest.raises(SimulationError, match="lane 1 shares"):
            evaluate_policies_batch(
                [tiny_test_chip(), tiny_test_chip()], [shared, shared],
                [trace, trace],
            )
        assert all(p.online for p in shared.values())

    def test_sarsa_lane_rejected(self):
        # SARSA acts before it updates: not the lock step's decide order.
        chip = tiny_test_chip()
        sarsa = {name: SarsaPowerManagementPolicy(PolicyConfig())
                 for name in chip.cluster_names}
        trace = tiny_scenario().trace(1.0, seed=5)
        # A lone lane runs lock-step too, so it is refused alike.
        with pytest.raises(SimulationError,
                           match="lane 0 has a SarsaPowerManagementPolicy"):
            evaluate_policies_batch([chip], [sarsa], [trace])
        with pytest.raises(SimulationError,
                           match="lane 1 has a SarsaPowerManagementPolicy"):
            evaluate_policies_batch(
                [tiny_test_chip(), chip],
                [make_policies(tiny_test_chip()), sarsa],
                [trace, trace],
            )


def _uneven_chip() -> Chip:
    """big.LITTLE with a 2-core big and a 4-core little cluster: the
    clusters differ in shape, so the lock step runs one vector each."""
    return Chip("uneven", [
        ClusterSpec("big", BIG_CORE, n_cores=2, opp_table=big_opp_table()),
        ClusterSpec("little", LITTLE_CORE, n_cores=4,
                    opp_table=little_opp_table()),
    ])


class TestMultiVector:
    def test_training_and_evaluation_match_serial(self):
        from repro.workload.scenarios import get_scenario

        kw = dict(chip_factory=_uneven_chip,
                  scenario=get_scenario("web_browsing"))
        seeds = [0, 3, 8]
        serial = _train_serially(_jobs(seeds, **kw))
        batched = train_policy_batch(_jobs(seeds, **kw))
        for a, b in zip(serial, batched):
            assert a.history == b.history
            _assert_policies_identical(a.policies, b.policies)

        traces = [get_scenario("web_browsing").trace(2.0, seed=60 + s)
                  for s in seeds]
        expected = [
            evaluate_policy(_uneven_chip(), r.policies, t)
            for r, t in zip(serial, traces)
        ]
        assert evaluate_policies_batch(
            [_uneven_chip() for _ in seeds],
            [r.policies for r in batched],
            traces,
        ) == expected


class TestCapacityGuard:
    """A drain that reports impossible cursors fails lock-step runs with
    the serial engine's error, not a silent clamp."""

    @pytest.mark.parametrize(
        "scale, message",
        [
            (1.5, r"core T used 7\.500e\+06 cycles but only 5\.000e\+06 "
                  r"were available"),
            (-0.5, r"used cycles must be non-negative: -2500000\.0"),
        ],
    )
    def test_lockstep_raises_the_serial_error(
        self, monkeypatch, scale, message
    ):
        from repro.batch import rl
        from repro.sim import engine

        real = rl.drain

        def faulty(queue, n_cores, rate, t0, dt, cutoff, start=0.0):
            busy = bool(queue)
            cursors, *rest = real(queue, n_cores, rate, t0, dt, cutoff, start)
            return ([scale * dt] * n_cores if busy else cursors), *rest

        monkeypatch.setattr(rl, "drain", faulty)
        monkeypatch.setattr(engine, "drain", faulty)
        with pytest.raises(ConfigurationError, match=message) as serial:
            _train_serially(_jobs([0]))
        # A lone lane fails as serially; twin lanes fail at the same
        # interval, and lane 0's row comes first.
        for seeds in ([0], [0, 0]):
            with pytest.raises(ConfigurationError) as batched:
                train_policy_batch(_jobs(seeds))
            assert str(batched.value) == str(serial.value), seeds

        trace = tiny_scenario().trace(1.0, seed=5)
        chip = tiny_test_chip()
        with pytest.raises(ConfigurationError, match=message) as serial:
            evaluate_policy(chip, make_policies(chip), trace)
        for n in (1, 2):
            chips = [tiny_test_chip() for _ in range(n)]
            with pytest.raises(ConfigurationError) as batched:
                evaluate_policies_batch(
                    chips, [make_policies(chip) for chip in chips],
                    [trace] * n,
                )
            assert str(batched.value) == str(serial.value), n


class TestRunBatchIntegration:
    def test_grouped_rl_specs_match_simulate_spec(self):
        specs = [
            JobSpec(scenario="web_browsing", governor="rl-policy",
                    seed=100 + i, chip="tiny", duration_s=2.0,
                    train_episodes=2, train_episode_s=2.0,
                    train_base_seed=7 * i)
            for i in range(3)
        ]
        specs.append(JobSpec(scenario="web_browsing", governor="performance",
                             chip="tiny", duration_s=2.0))
        engine = BatchEngine(specs)
        assert engine.plan() == [True, True, True, True]
        batched = engine.run()
        serial = [simulate_spec(s) for s in specs]
        assert batched == serial

    def test_learn_ledger_identical_across_paths(self, tmp_path):
        from repro.obs.learn import LEARN_LOG

        def spec(i, log_dir):
            return JobSpec(scenario="web_browsing", governor="rl-policy",
                           seed=100 + i, chip="tiny", duration_s=2.0,
                           train_episodes=2, train_episode_s=2.0,
                           learn_log_dir=str(log_dir))

        fast_dir = tmp_path / "fast"
        serial_dir = tmp_path / "serial"
        fast_dir.mkdir(), serial_dir.mkdir()
        fast_specs = [spec(i, fast_dir) for i in range(2)]
        BatchEngine(fast_specs).run()
        for i in range(2):
            simulate_spec(spec(i, serial_dir))
        def strip_ts(records):
            # The wall-clock stamp is the one legitimately path-varying
            # field; every learning metric must match exactly.
            return [{k: v for k, v in r.items() if k != "ts"}
                    for r in records]

        for fast_file, serial_file in zip(sorted(fast_dir.iterdir()),
                                          sorted(serial_dir.iterdir())):
            assert strip_ts(LEARN_LOG.read(fast_file)) == strip_ts(
                LEARN_LOG.read(serial_file)
            )


class TestLoneRLJob:
    """A lone RL job takes the RL path, where its one lane trains and
    evaluates lock-step: every result field and ledger row equals the
    serial reference."""

    @pytest.mark.parametrize("ledger", [False, True])
    def test_run_batch_equals_simulate_spec(self, ledger, tmp_path):
        from repro.obs.learn import LEARN_LOG

        spec = JobSpec(scenario="web_browsing", governor="rl-policy",
                       seed=5, chip="tiny", duration_s=2.0,
                       train_episodes=2, train_base_seed=3)
        fast_spec = serial_spec = spec
        if ledger:
            fast_spec = replace(spec, learn_log_dir=str(tmp_path / "fast"))
            serial_spec = replace(spec,
                                  learn_log_dir=str(tmp_path / "serial"))
        assert BatchEngine([fast_spec]).plan() == [True]
        [fast] = run_batch([fast_spec])
        serial = simulate_spec(serial_spec)
        for f in fields(serial):
            assert getattr(fast, f.name) == getattr(serial, f.name), f.name
        if ledger:
            [fast_file] = (tmp_path / "fast").iterdir()
            [serial_file] = (tmp_path / "serial").iterdir()
            fast_rows, serial_rows = (
                [{k: v for k, v in r.items() if k != "ts"}
                 for r in LEARN_LOG.read(path)]
                for path in (fast_file, serial_file)
            )
            assert len(fast_rows) == 2
            assert fast_rows == serial_rows

    def test_never_reaches_serial_engine(self, monkeypatch):
        from repro.fleet import run_fleet
        from repro.sim.engine import Simulator

        spec = JobSpec(scenario="audio_playback", governor="rl-policy",
                       seed=1, chip="tiny", duration_s=1.0,
                       train_episodes=2, train_episode_s=1.0)
        expected = simulate_spec(spec)

        def refuse(self):
            raise AssertionError("Simulator.run reached")

        monkeypatch.setattr(Simulator, "run", refuse)
        assert run_batch([spec]) == [expected]
        result = run_fleet([spec], jobs=1)
        assert not result.failures
        [success] = result.successes
        assert success.energy_j == expected.total_energy_j


class TestFrozenPolicies:
    def test_restores_flags_on_error(self):
        policies = make_policies(tiny_test_chip())
        policies[next(iter(policies))].online = False
        saved = {name: p.online for name, p in policies.items()}
        with pytest.raises(RuntimeError):
            with frozen_policies(policies):
                assert not any(p.online for p in policies.values())
                raise RuntimeError("boom")
        assert {name: p.online for name, p in policies.items()} == saved


class _WideRow:
    """A Q-row of ``n`` entries without their memory: ``select()`` reads
    only its length and, on a greedy step, its argmax (1)."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __array__(self, dtype=None, copy=None):
        return np.array([0.0, 1.0])


def _row(n_actions: int):
    return (np.arange(n_actions, dtype=float) if n_actions <= 16
            else _WideRow(n_actions))


#: Action counts the replay must decode as numpy does: integers(1) draws
#: nothing, 2**31 + 1 rejects about half its draws, 2**32 is the widest
#: 32-bit bounded draw.
ACTION_COUNTS = [1, 2, 5, 9, 2**31 + 1, 2**32]


def _assert_replays(schedule, n_actions, seed, pre, plans, post):
    """``pre`` select() calls, then back-to-back plans of ``plans``
    steps, then ``post`` select() calls, against select() throughout;
    the whole generator state (buffered half-word included) must agree
    after every plan."""
    reference = EpsilonGreedy(schedule, n_actions, seed=seed)
    planned = EpsilonGreedy(schedule, n_actions, seed=seed)
    row = _row(n_actions)
    for _ in range(pre):
        assert planned.select(row) == reference.select(row)
    for n_steps in plans:
        explore, random_actions, epsilons = planned.plan_draws(n_steps)
        assert len(explore) == len(random_actions) == len(epsilons) == n_steps
        greedy = int(np.asarray(row).argmax())
        for t in range(n_steps):
            assert epsilons[t] == reference.epsilon
            expected = int(random_actions[t]) if explore[t] else greedy
            assert reference.select(row) == expected
        assert planned.step == reference.step
        assert (planned._rng.bit_generator.state
                == reference._rng.bit_generator.state)
    for _ in range(post):
        assert planned.select(row) == reference.select(row)
    assert planned._rng.bit_generator.state == reference._rng.bit_generator.state


class TestPlanDraws:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        n_actions=st.sampled_from(ACTION_COUNTS),
        pre=st.integers(min_value=0, max_value=3),
        plans=st.lists(st.integers(min_value=0, max_value=64),
                       min_size=1, max_size=3),
        post=st.integers(min_value=0, max_value=5),
        start=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        decay=st.sampled_from([0.9, 0.999, 1.0]),
    )
    def test_replays_select_exactly(
        self, seed, n_actions, pre, plans, post, start, decay
    ):
        schedule = EpsilonSchedule(start=start, decay=decay, floor=0.0)
        _assert_replays(schedule, n_actions, seed, pre, plans, post)

    @pytest.mark.parametrize("n_actions", ACTION_COUNTS)
    @pytest.mark.parametrize("schedule", [
        EpsilonSchedule(start=0.6, decay=1.0, floor=0.0),
        EpsilonSchedule(start=0.5, decay=0.99, floor=0.0),
        EpsilonSchedule(),
    ], ids=["constant", "decaying", "default"])
    def test_replays_every_action_count(self, n_actions, schedule):
        _assert_replays(schedule, n_actions, seed=n_actions % 97, pre=1,
                        plans=[0, 1, 250, 250], post=5)

    def test_rejects_more_actions_than_a_32_bit_draw(self):
        EpsilonGreedy(EpsilonSchedule(), 2**32)
        with pytest.raises(PolicyError, match="at most"):
            EpsilonGreedy(EpsilonSchedule(), 2**32 + 1)

    def test_trajectory_memo_is_shared(self):
        schedule = EpsilonSchedule(start=0.7, decay=0.99, floor=0.05)
        memo: dict = {}
        lone = EpsilonGreedy(schedule, 5, seed=3)
        shared = [EpsilonGreedy(schedule, 5, seed=s) for s in (3, 4)]
        plans = [e.plan_draws(40, memo) for e in shared]
        assert len(memo) == 1
        assert plans[0][2] is plans[1][2]
        assert not plans[0][2].flags.writeable
        for got, want in zip(plans[0], lone.plan_draws(40)):
            assert got.tolist() == want.tolist()

    def test_values_matches_scalar_value(self):
        schedule = EpsilonSchedule(start=0.7, decay=0.995, floor=0.05)
        steps = np.arange(0, 2000, 7)
        batched = schedule.values(steps)
        assert batched.tolist() == [schedule.value(int(s)) for s in steps]


class TestTdSums:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.5, -1.5, float("nan"),
                                 float("inf"), -float("inf"), 1e16]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1, max_size=120,
        ),
        rows=st.integers(min_value=1, max_value=4),
    )
    def test_episode_end_sums_match_push(self, values, rows):
        import struct

        from repro.batch.rl import _td_sums
        from repro.rl.stats import TDErrorStats

        def bits(x):
            return struct.pack("<d", x)

        steps = max(1, len(values) // rows)
        log = np.resize(np.array(values), (steps, rows))
        abs_sum, total, max_abs = _td_sums(log)
        for r, column in enumerate(log.T.tolist()):
            stats = TDErrorStats()
            for td in column:
                stats.push(td)
            assert bits(abs_sum[r]) == bits(stats.abs_sum)
            assert bits(total[r]) == bits(stats.total)
            assert bits(max_abs[r]) == bits(stats.max_abs)


class TestTdUpdateMany:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=1, max_value=40),
    )
    def test_duplicate_rows_match_serial_loop(self, seed, n):
        # Colliding states force the segmentation path; the result must
        # still equal looping update() in order.
        from repro.rl.qlearning import QLearningAgent

        rng = np.random.default_rng(seed)
        states = rng.integers(0, 6, size=n)
        actions = rng.integers(0, 3, size=n)
        rewards = rng.normal(size=n)
        next_states = rng.integers(0, 6, size=n)
        a = QLearningAgent(6, 3, alpha=0.4, gamma=0.7)
        b = QLearningAgent(6, 3, alpha=0.4, gamma=0.7)
        td_serial = np.array([
            a.update(int(s), int(ac), float(r), int(ns))
            for s, ac, r, ns in zip(states, actions, rewards, next_states)
        ])
        td_batch = b.table.td_update_many(
            states, actions, rewards, next_states, b.alpha, b.gamma
        )
        assert np.array_equal(td_serial, td_batch)
        assert np.array_equal(a.table.values, b.table.values)

    @pytest.mark.parametrize("assume_distinct", [False, True])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("states", [0, 1, 2, 3], "matching 1-D arrays"),
            ("states", [0, -1, 2], r"state out of range \[0, 6\)"),
            ("states", [0, 6, 2], r"state out of range \[0, 6\)"),
            ("next_states", [-5, 1, 2], r"state out of range \[0, 6\)"),
            ("next_states", [0, 1, 9], r"state out of range \[0, 6\)"),
            ("actions", [0, -1, 2], r"action out of range \[0, 3\)"),
            ("actions", [3, 1, 2], r"action out of range \[0, 3\)"),
        ],
    )
    def test_bad_batches_rejected_untouched(
        self, field, value, message, assume_distinct
    ):
        table = QTable(6, 3)
        batch = dict(
            states=[0, 1, 2], actions=[0, 1, 2], rewards=[1.0, 1.0, 1.0],
            next_states=[3, 4, 5],
        )
        batch[field] = value
        with pytest.raises(PolicyError, match=message):
            table.td_update_many(**batch, alpha=0.5, gamma=0.9,
                                 assume_distinct=assume_distinct)
        assert not table.values.any()


class TestQTableRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(
        initial=st.sampled_from([0.0, -1.5, 2.0, 10.0]),
        seed=st.integers(min_value=0, max_value=200),
        writes=st.integers(min_value=0, max_value=20),
    )
    def test_save_load_preserves_initial_value(self, tmp_path_factory,
                                               initial, seed, writes):
        table = QTable(8, 3, initial_value=initial)
        rng = np.random.default_rng(seed)
        for _ in range(writes):
            table.set(int(rng.integers(8)), int(rng.integers(3)),
                      float(rng.normal()))
        path = tmp_path_factory.mktemp("qt") / "table.npz"
        table.save(path)
        loaded = QTable.load(path)
        assert loaded.initial_value == table.initial_value
        assert np.array_equal(loaded.values, table.values)
        assert loaded.visited_fraction() == table.visited_fraction()

    def test_legacy_checkpoint_defaults_to_zero(self, tmp_path):
        # Files written before initial_value was persisted.
        values = np.full((4, 2), 5.0)
        np.savez_compressed(tmp_path / "old.npz", values=values)
        loaded = QTable.load(tmp_path / "old.npz")
        assert loaded.initial_value == 0.0
        assert loaded.visited_fraction() == 1.0


class TestDoubleQCoverage:
    def test_fresh_optimistic_agent_reports_zero_coverage(self):
        from repro.rl.double_q import DoubleQAgent

        agent = DoubleQAgent(6, 3, initial_q=2.0)
        assert agent.table.initial_value == 4.0
        assert agent.table.visited_fraction() == 0.0
        agent.update(0, 1, -1.0, 2)
        assert agent.table.visited_fraction() > 0.0

    def test_table_property_reuses_buffer(self):
        from repro.rl.double_q import DoubleQAgent

        agent = DoubleQAgent(4, 2)
        first = agent.table.values
        agent.update(1, 0, -0.5, 3)
        second = agent.table.values
        assert second is first
        assert np.array_equal(
            second, agent.table_a.values + agent.table_b.values
        )


class TestMakePolicies:
    def test_replace_preserves_every_config_field(self):
        # Iterating fields() pins the contract: any future PolicyConfig
        # field must survive the per-cluster seed decorrelation.
        cfg = PolicyConfig(
            util_bins=4, trend_bins=2, opp_bins=3, slack_bins=2,
            action_deltas=(-1, 0, 1), alpha=0.11, gamma=0.77,
            epsilon=EpsilonSchedule(start=0.4, decay=0.99, floor=0.01),
            lambda_qos=2.5, slack_threshold=0.3, predictor_alpha=0.6,
            phase_change_threshold=0.5, seed=42,
        )
        policies = make_policies(exynos5422(), cfg)
        names = list(policies)
        assert policies[names[0]].config == cfg
        for i, name in enumerate(names[1:], start=1):
            derived = policies[name].config
            for f in fields(PolicyConfig):
                if f.name == "seed":
                    assert getattr(derived, f.name) == cfg.seed + 1000 * i
                else:
                    assert getattr(derived, f.name) == getattr(cfg, f.name)
