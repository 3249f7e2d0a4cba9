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
    train_policy_batch,
)
from repro.core.config import PolicyConfig
from repro.core.trainer import evaluate_policy, make_policies, train_policy
from repro.fleet.spec import JobSpec
from repro.fleet.worker import frozen_policies, simulate_spec
from repro.rl.exploration import EpsilonGreedy, EpsilonSchedule
from repro.rl.qtable import QTable
from repro.soc.presets import exynos5422, tiny_test_chip
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
        assert not is_rl_vectorisable(replace(base, collect_metrics=True))
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
        serial = JobSpec(scenario="idle", governor="ondemand", chip="tiny")
        plan = BatchEngine([*rl, lone, serial]).plan()
        assert plan == [True, True, True, False, False]

    def test_plan_singleton_rl_stays_serial(self):
        spec = JobSpec(scenario="idle", governor="rl-policy", chip="tiny")
        assert BatchEngine([spec]).plan() == [False]

    def test_plan_respects_force_serial(self):
        specs = [JobSpec(scenario="idle", governor="rl-policy",
                         seed=100 + i, chip="tiny") for i in range(2)]
        assert BatchEngine(specs, force_serial=True).plan() == [False, False]

    def test_units_singles_first_then_chunks(self):
        rl = [JobSpec(scenario="idle", governor="rl-policy", seed=100 + i,
                      chip="tiny") for i in range(3)]
        lone = JobSpec(scenario="idle", governor="rl-policy", seed=9,
                       chip="tiny", train_episodes=99)
        serial = JobSpec(scenario="idle", governor="ondemand", chip="tiny")
        specs = [rl[0], serial, rl[1], lone, rl[2]]
        assert BatchEngine(specs).units() == [[1], [3], [0, 2, 4]]
        # Two workers get at most two slices of the group; a slice of
        # one is a single job, and with a worker per RL job none chunks.
        assert BatchEngine(specs).units(workers=2) == [
            [0], [1], [3], [2, 4]]
        assert BatchEngine(specs).units(workers=3) == [[i] for i in range(5)]
        # A serial plan (forced, or under an observability session)
        # leaves every job a unit of one.
        assert BatchEngine(specs, force_serial=True).units() == [
            [i] for i in range(5)]

    def test_units_deal_a_group_evenly(self):
        specs = [JobSpec(scenario="idle", governor="rl-policy", seed=i,
                         chip="tiny") for i in range(7)]
        assert BatchEngine(specs).units(workers=3) == [
            [0, 1], [2, 3], [4, 5, 6]]


class TestTrainBatchBitIdentity:
    def test_matches_serial_trainer(self):
        seeds = [0, 1, 2, 5]
        serial = train_policy_batch(_jobs(seeds), force_serial=True)
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
        serial = train_policy_batch(_jobs([0, 3], **kw), force_serial=True)
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
        ]
        jobs = lambda: [
            RLTrainJob(chip=tiny_test_chip(), scenario=tiny_scenario(),
                       episodes=2, episode_duration_s=2.0, base_seed=i,
                       config=cfg)
            for i, cfg in enumerate(configs)
        ]
        serial = train_policy_batch(jobs(), force_serial=True)
        batched = train_policy_batch(jobs())
        for a, b in zip(serial, batched):
            assert a.history == b.history
            _assert_policies_identical(a.policies, b.policies)

    def test_mismatched_geometry_falls_back(self):
        jobs = _jobs([0]) + _jobs([1], config=PolicyConfig(util_bins=3))
        results = train_policy_batch(jobs)
        oracle = train_policy_batch(
            _jobs([0]) + _jobs([1], config=PolicyConfig(util_bins=3)),
            force_serial=True,
        )
        for a, b in zip(oracle, results):
            assert a.history == b.history
            _assert_policies_identical(a.policies, b.policies)

    def test_materialises_policies_in_place(self):
        jobs = _jobs([0, 1])
        assert all(job.policies is None for job in jobs)
        results = train_policy_batch(jobs)
        for job, result in zip(jobs, results):
            assert job.policies is result.policies

    def test_shared_policy_objects_fall_back_serial(self):
        # Two lanes pointing at one policy dict cannot train lock-step
        # (the population table would alias); the serial path handles it.
        shared = make_policies(tiny_test_chip(), PolicyConfig(seed=0))
        jobs = [
            RLTrainJob(chip=tiny_test_chip(), scenario=tiny_scenario(),
                       episodes=1, episode_duration_s=1.0, base_seed=i,
                       policies=shared)
            for i in range(2)
        ]
        results = train_policy_batch(jobs)
        assert all(r.policies is shared for r in results)

    @settings(max_examples=8, deadline=None)
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=200),
                       min_size=2, max_size=4, unique=True),
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

        serial = train_policy_batch(jobs(), force_serial=True)
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
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            evaluate_policies_batch([tiny_test_chip()], [], [])


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
        BatchEngine([spec(i, serial_dir) for i in range(2)],
                    force_serial=True).run()
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


class TestPlanDraws:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        n_steps=st.integers(min_value=0, max_value=64),
        start=st.sampled_from([0.0, 0.3, 0.9]),
        decay=st.sampled_from([0.9, 0.999, 1.0]),
    )
    def test_replays_select_exactly(self, seed, n_steps, start, decay):
        schedule = EpsilonSchedule(start=start, decay=decay, floor=0.0)
        reference = EpsilonGreedy(schedule, 5, seed=seed)
        planned = EpsilonGreedy(schedule, 5, seed=seed)
        explore, random_actions, epsilons = planned.plan_draws(n_steps)
        q_row = np.array([0.0, 3.0, 1.0, 3.0, -1.0])
        for t in range(n_steps):
            assert epsilons[t] == reference.epsilon
            chosen = reference.select(q_row)
            expected = (int(random_actions[t]) if explore[t]
                        else int(np.argmax(q_row)))
            assert chosen == expected
        assert planned.step == reference.step
        # The generators end in the same state: next draws agree.
        assert planned._rng.random() == reference._rng.random()

    def test_values_matches_scalar_value(self):
        schedule = EpsilonSchedule(start=0.7, decay=0.995, floor=0.05)
        steps = np.arange(0, 2000, 7)
        batched = schedule.values(steps)
        assert batched.tolist() == [schedule.value(int(s)) for s in steps]


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
        td_batch = b.update_many(states, actions, rewards, next_states)
        assert np.array_equal(td_serial, td_batch)
        assert np.array_equal(a.table.values, b.table.values)
        assert a.updates == b.updates


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
