"""Serve-side drift monitoring against a reference checkpoint.

The drift contract (PR 9): every decision is shadow-scored by a clone
of the reference policies; an up-to-date reference reports zero
disagreement, a stale one counts every divergent action; the counters
surface in stats replies, metrics, and ``kind="drift"`` ops records
that plug straight into the SLO gate — and shadow scoring never
changes the live decision stream.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.checkpoint import save_policies
from repro.core.trainer import train_policy
from repro.errors import ObsError, ServeError
from repro.obs import OPS_LOG, OpsLogger, capture
from repro.obs.runtime import SloSpec, evaluate_slos, slos_from_mapping
from repro.serve import (
    DecisionSession,
    DriftMonitor,
    PolicyServer,
    ServeConfig,
    StatsRequest,
)
from repro.serve.protocol import observation_from_mapping
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario

N_DECISIONS = 8


@pytest.fixture(scope="module")
def trained():
    chip = tiny_test_chip()
    policies = train_policy(
        chip, get_scenario("audio_playback"), episodes=3,
        episode_duration_s=3.0,
    ).policies
    return chip, policies


def _stale_reference(chip, live):
    """A reference checkpoint guaranteed to disagree with ``live``.

    For every encoded state the reference Q-row is rewritten one-hot on
    an action whose *clamped OPP* (from the chip's resting operating
    point, which seeds every test observation's ``opp_index`` default)
    differs from the live policy's greedy choice — so each shadow-scored
    decision must count as a disagreement.
    """
    reference = train_policy(
        chip, get_scenario("audio_playback"), episodes=1,
        episode_duration_s=2.0,
    ).policies
    for name, policy in reference.items():
        opp0 = chip.cluster(name).opp_index
        table = chip.cluster(name).spec.opp_table
        deltas = policy.config.action_deltas
        values = policy.agent.table.values
        live_values = live[name].agent.table.values
        values[:] = 0.0
        for state in range(values.shape[0]):
            live_action = int(np.argmax(live_values[state]))
            live_opp = table.clamp_index(opp0 + deltas[live_action])
            ref_action = next(
                a for a, d in enumerate(deltas)
                if table.clamp_index(opp0 + d) != live_opp
            )
            values[state, ref_action] = 1.0
    return reference


def _decide_n(session, chip, n=N_DECISIONS) -> list[int]:
    return [
        session.decide(observation_from_mapping(
            {"cluster": chip.cluster_names[0], "utilization": (i % 10) / 10},
            chip,
        ))
        for i in range(n)
    ]


class TestDriftMonitor:
    def test_empty_reference_rejected(self):
        with pytest.raises(ServeError, match="non-empty"):
            DriftMonitor({})

    def test_identical_reference_never_disagrees(self, trained):
        chip, policies = trained
        monitor = DriftMonitor(policies)
        session = DecisionSession(policies, chip, drift=monitor)
        _decide_n(session, chip)
        assert monitor.decisions == N_DECISIONS
        assert monitor.disagreements == 0
        assert monitor.disagreement_fraction == 0.0

    def test_stale_reference_counts_every_disagreement(self, trained):
        chip, policies = trained
        monitor = DriftMonitor(_stale_reference(chip, policies))
        session = DecisionSession(policies, chip, drift=monitor)
        _decide_n(session, chip)
        assert monitor.decisions == N_DECISIONS
        # The doctored reference disagrees with the live greedy OPP in
        # every state, so every decision must burn the counter.
        assert monitor.disagreements == N_DECISIONS
        assert monitor.disagreement_fraction == 1.0

    def test_shadow_scoring_never_changes_decisions(self, trained):
        chip, policies = trained
        plain = _decide_n(DecisionSession(policies, chip), chip)
        shadowed = _decide_n(
            DecisionSession(
                policies, chip,
                drift=DriftMonitor(_stale_reference(chip, policies)),
            ),
            chip,
        )
        assert shadowed == plain

    def test_ops_log_gets_drift_records(self, trained, tmp_path):
        chip, policies = trained
        ops_log = OpsLogger(tmp_path / "drift-ops.jsonl")
        monitor = DriftMonitor(_stale_reference(chip, policies),
                               ops_log=ops_log)
        session = DecisionSession(policies, chip, drift=monitor)
        _decide_n(session, chip)
        records = [r for r in OPS_LOG.read(ops_log.path)
                   if r["kind"] == "drift"]
        assert len(records) == N_DECISIONS
        failed = [r for r in records if r["outcome"] == "failed:drift"]
        assert len(failed) == monitor.disagreements
        assert all("q_delta" in r and r["q_delta"] >= 0.0 for r in records)
        assert all(r["action"] != r["reference_action"] for r in failed)

    def test_metrics_counters_increment(self, trained):
        chip, policies = trained
        monitor = DriftMonitor(_stale_reference(chip, policies))
        with capture(trace=False) as session_obs:
            session = DecisionSession(policies, chip, drift=monitor)
            _decide_n(session, chip)
        counters = session_obs.metrics.snapshot()["counters"]
        assert counters["serve.drift.decisions"] == N_DECISIONS
        assert counters["serve.drift.disagreements"] == monitor.disagreements
        histograms = session_obs.metrics.snapshot()["histograms"]
        assert histograms["serve.drift.q_delta"]["count"] == N_DECISIONS

    def test_from_checkpoint(self, trained, tmp_path):
        chip, policies = trained
        save_policies(policies, tmp_path / "ref")
        monitor = DriftMonitor.from_checkpoint(tmp_path / "ref")
        session = DecisionSession(policies, chip, drift=monitor)
        _decide_n(session, chip)
        assert monitor.disagreements == 0


class TestServerIntegration:
    def test_stats_reply_carries_drift_counters(self, trained):
        chip, policies = trained
        monitor = DriftMonitor(_stale_reference(chip, policies))
        server = PolicyServer(
            policies, chip, ServeConfig(workers=1), drift=monitor
        )

        async def run():
            await server.start()
            session = server.session()
            _decide_n(session, chip, n=3)
            reply = await server.request(StatsRequest())
            await server.shutdown()
            return reply

        reply = asyncio.run(run())
        assert reply.stats["drift_decisions"] == 3
        assert reply.stats["drift_disagreements"] == monitor.disagreements

    def test_from_checkpoint_with_reference(self, trained, tmp_path):
        chip, policies = trained
        save_policies(policies, tmp_path / "live")
        save_policies(policies, tmp_path / "ref")
        server = PolicyServer.from_checkpoint(
            tmp_path / "live", chip="tiny",
            drift_reference=tmp_path / "ref",
        )
        assert server.drift is not None
        session = server.session()
        _decide_n(session, chip, n=2)
        assert server.drift.decisions == 2
        assert server.drift.disagreements == 0

    def test_no_reference_means_no_monitor(self, trained):
        server = make_plain_server(trained)
        assert server.drift is None
        session = server.session()
        _decide_n(session, trained[0], n=2)


def make_plain_server(trained) -> PolicyServer:
    chip, policies = trained
    return PolicyServer(policies, chip, ServeConfig(workers=1))


class TestDriftSlos:
    def test_drift_is_a_first_class_slo_kind(self):
        spec = SloSpec(name="drift-budget", kind="drift", objective=0.9)
        assert spec.kind == "drift"

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ObsError, match="unknown kind"):
            SloSpec(name="x", kind="dance")

    def test_drift_slo_burns_budget_on_disagreement(self, trained, tmp_path):
        chip, policies = trained
        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        monitor = DriftMonitor(_stale_reference(chip, policies),
                               ops_log=ops_log)
        session = DecisionSession(policies, chip, drift=monitor)
        _decide_n(session, chip)
        assert monitor.disagreements > 0
        slos = slos_from_mapping({"slos": [
            {"name": "drift-budget", "kind": "drift", "objective": 0.999},
        ]})
        report = evaluate_slos(OPS_LOG.read(ops_log.path), slos)
        assert not report.ok
        assert report.failures[0].spec.name == "drift-budget"
