"""The learning ledger, convergence detectors, and their gates.

Covers the PR 9 learning-observability stack end to end: Welford
TD-error statistics against numpy ground truth, the ``LearnRecorder``
sole-writer contract, the declarative :class:`ConvergenceSpec`
detectors, the ``repro learn report|gate`` CLI, the bit-identity of
training with and without a recorder, and the parity between E5's
legacy tail heuristic and the shared plateau detector it was refactored
onto.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.trainer import train_curriculum, train_policy
from repro.errors import ObsError, PolicyError
from repro.experiments.learning import (
    E5_CONVERGENCE,
    E6Segment,
    e5_convergence_episode,
    e6_adaptation,
)
from repro.governors import create
from repro.obs import (
    DEFAULT_CONVERGENCE,
    FORMATS,
    LEARN_LOG,
    LEARN_RECORD_FIELDS,
    ConvergenceSpec,
    LearnRecorder,
    evaluate_learning,
    format_learn_summary,
    gate_learn_log,
    gate,
    is_plateau,
    learn_record,
    load_convergence_spec,
    plateau_episode,
    render,
    spec_from_mapping,
    summarize_learning,
)
from repro.rl.stats import TDErrorStats
from repro.sim.engine import Simulator
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario

DATA = Path(__file__).parent / "data"
HEALTHY_LEDGER = DATA / "learn-log-fixture.jsonl"
DIVERGENT_LEDGER = DATA / "learn-log-divergent.jsonl"
SPEC_FILE = DATA / "learn-spec.json"
E5_CURVE = DATA / "e5-curve-fixture.json"

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# TDErrorStats: Welford variance + parallel merge vs numpy
# ---------------------------------------------------------------------------


class TestTDErrorStats:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_variance_matches_numpy(self, values):
        stats = TDErrorStats()
        for v in values:
            stats.push(v)
        assert stats.variance == pytest.approx(
            float(np.var(values)), rel=1e-9, abs=1e-6
        )
        assert stats.mean_abs == pytest.approx(
            float(np.mean(np.abs(values))), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(finite_floats, min_size=0, max_size=100),
        st.lists(finite_floats, min_size=0, max_size=100),
    )
    def test_merge_matches_concatenation(self, a, b):
        sa, sb = TDErrorStats(), TDErrorStats()
        for v in a:
            sa.push(v)
        for v in b:
            sb.push(v)
        merged = sa.merge(sb)
        both = a + b
        assert merged.count == len(both)
        if both:
            assert merged.variance == pytest.approx(
                float(np.var(both)), rel=1e-9, abs=1e-6
            )
            assert merged.max_abs == pytest.approx(
                float(np.max(np.abs(both)))
            )
            assert merged.last == (b[-1] if b else a[-1])
        else:
            assert merged.variance == 0.0

    def test_merge_does_not_mutate_operands(self):
        sa, sb = TDErrorStats(), TDErrorStats()
        sa.push(1.0)
        sb.push(2.0)
        sa.merge(sb)
        assert sa.count == 1 and sb.count == 1

    def test_reset_clears_welford_state(self):
        stats = TDErrorStats()
        stats.push(3.0)
        stats.reset()
        assert stats.count == 0
        assert stats.variance == 0.0
        assert stats.snapshot()["variance"] == 0.0

    def test_snapshot_reports_variance(self):
        stats = TDErrorStats()
        for v in (1.0, 2.0, 3.0):
            stats.push(v)
        snap = stats.snapshot()
        assert snap["variance"] == pytest.approx(np.var([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# learn_record validation + LearnRecorder sole-writer contract
# ---------------------------------------------------------------------------


class TestLearnRecord:
    def test_record_has_every_schema_field(self):
        record = learn_record(episode=0, scenario="gaming", ts=1.0)
        assert set(LEARN_RECORD_FIELDS) <= set(record)

    def test_negative_episode_rejected(self):
        with pytest.raises(ObsError, match="episode"):
            learn_record(episode=-1, scenario="gaming")

    def test_empty_scenario_rejected(self):
        with pytest.raises(ObsError, match="scenario"):
            learn_record(episode=0, scenario="")

    def test_fraction_fields_bounded(self):
        for field in ("coverage", "churn", "epsilon"):
            with pytest.raises(ObsError, match=field):
                learn_record(episode=0, scenario="gaming", **{field: 1.5})

    def test_negative_norms_rejected(self):
        with pytest.raises(ObsError, match="q_norm_l2"):
            learn_record(episode=0, scenario="gaming", q_norm_l2=-1.0)

    def test_explicit_ts_and_extra_fields_pass_through(self):
        record = learn_record(
            episode=2, scenario="gaming", ts=123.0, run="r1"
        )
        assert record["ts"] == 123.0 and record["run"] == "r1"


class TestLearnRecorder:
    def test_roundtrip_and_written_counter(self, tmp_path):
        recorder = LearnRecorder(tmp_path / "deep" / "dir" / "train.jsonl")
        recorder.log(learn_record(episode=0, scenario="gaming", ts=1.0))
        recorder.log(learn_record(episode=1, scenario="gaming", ts=2.0))
        assert recorder.written == 2
        records = LEARN_LOG.read(recorder.path)
        assert [r["episode"] for r in records] == [0, 1]

    def test_lines_are_sorted_key_json(self, tmp_path):
        recorder = LearnRecorder(tmp_path / "train.jsonl")
        recorder.log(learn_record(episode=0, scenario="gaming", ts=1.0))
        line = recorder.path.read_text().splitlines()[0]
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError):
            LEARN_LOG.read(tmp_path / "absent.jsonl")

    def test_read_rejects_non_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObsError):
            LEARN_LOG.read(path)


# ---------------------------------------------------------------------------
# Plateau primitives + ConvergenceSpec
# ---------------------------------------------------------------------------


class TestPlateau:
    def test_flat_window_is_plateau(self):
        assert is_plateau([2.0, 2.0, 2.0], 0.0)

    def test_positive_series_matches_ratio_form(self):
        # For positive values: plateau <=> max/min < 1 + tol.
        values = [1.0, 1.2, 1.1]
        assert is_plateau(values, 0.25) == (max(values) / min(values) < 1.25)
        assert not is_plateau(values, 0.1)

    def test_empty_window_raises(self):
        with pytest.raises(ObsError):
            is_plateau([], 0.1)

    def test_negative_tolerance_raises(self):
        with pytest.raises(ObsError):
            is_plateau([1.0], -0.1)

    def test_plateau_episode_finds_first_window(self):
        values = [10.0, 5.0, 2.0, 2.01, 2.02, 2.0]
        assert plateau_episode(values, window=3, tol=0.10) == 4

    def test_plateau_episode_none_when_moving(self):
        assert plateau_episode([1.0, 2.0, 4.0, 8.0], 3, 0.1) is None

    def test_plateau_episode_short_series_is_none(self):
        assert plateau_episode([1.0], 4, 0.1) is None

    def test_plateau_window_below_two_raises(self):
        with pytest.raises(ObsError):
            plateau_episode([1.0, 1.0], 1, 0.1)


class TestConvergenceSpec:
    def test_defaults_are_valid(self):
        assert DEFAULT_CONVERGENCE.window == 4

    def test_invalid_window_rejected(self):
        with pytest.raises(ObsError):
            ConvergenceSpec(window=1)

    def test_unknown_mapping_keys_rejected(self):
        with pytest.raises(ObsError, match="unknown"):
            spec_from_mapping({"window": 4, "bogus": 1})

    def test_committed_spec_file_loads(self):
        spec = load_convergence_spec(SPEC_FILE)
        assert spec.window == 8
        assert spec.max_q_abs == 1000.0

    def test_non_json_spec_file_raises(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[]")
        with pytest.raises(ObsError):
            load_convergence_spec(path)


# ---------------------------------------------------------------------------
# evaluate_learning + gate over the committed fixtures
# ---------------------------------------------------------------------------


def _records(**series):
    """Synthesise schema-valid records from per-field value lists."""
    n = max(len(v) for v in series.values())
    out = []
    for i in range(n):
        fields = {k: v[i] for k, v in series.items()}
        out.append(learn_record(episode=i, scenario="gaming", ts=float(i),
                                **fields))
    return out


class TestEvaluateLearning:
    def test_short_ledger_is_no_data_and_passes(self):
        report = evaluate_learning(
            _records(reward=[1.0, 1.0]), DEFAULT_CONVERGENCE
        )
        windowed = [v for v in report.verdicts if v.name != "q-explosion"]
        assert all(v.status == "no-data" for v in windowed)
        assert report.ok and report.converged_episode is None

    def test_empty_ledger_passes(self):
        report = evaluate_learning([], DEFAULT_CONVERGENCE)
        assert report.ok
        assert all(v.status == "no-data" for v in report.verdicts)

    def test_q_explosion_detected_anywhere_in_ledger(self):
        records = _records(q_max_abs=[1.0, 5000.0, 1.0, 1.0, 1.0])
        report = evaluate_learning(records, DEFAULT_CONVERGENCE)
        verdict = {v.name: v for v in report.verdicts}["q-explosion"]
        assert verdict.status == "fail" and verdict.value == 5000.0

    def test_converged_episode_reads_episode_field(self):
        records = _records(reward=[-10.0, -5.0, -1.0, -1.0, -1.0, -1.0])
        report = evaluate_learning(records, DEFAULT_CONVERGENCE)
        assert report.converged_episode == 5

    def test_healthy_fixture_passes_both_specs(self):
        for spec in (DEFAULT_CONVERGENCE, load_convergence_spec(SPEC_FILE)):
            result = gate_learn_log(HEALTHY_LEDGER, spec)
            assert result.exit_code == 0, [
                (v.name, v.status) for v in result.report.failures
            ]

    def test_divergent_fixture_fails_every_detector(self):
        result = gate_learn_log(
            DIVERGENT_LEDGER, load_convergence_spec(SPEC_FILE)
        )
        assert result.exit_code == 1
        assert {v.name for v in result.report.failures} == {
            "td-slope", "churn", "reward-plateau", "churn-oscillation",
            "q-explosion",
        }

    def test_warn_only_forces_exit_zero(self):
        result = gate_learn_log(DIVERGENT_LEDGER, warn_only=True)
        assert result.exit_code == 0 and not result.report.ok

    def test_renderers_cover_all_formats(self):
        report = evaluate_learning(LEARN_LOG.read(DIVERGENT_LEDGER))
        assert set(FORMATS) == {"text", "json", "github"}
        text = render(report, "text")
        assert "FAIL" in text
        payload = json.loads(render(report, "json"))
        assert payload["ok"] is False
        github = render(report, "github")
        assert "::error" in github

    def test_summary_over_fixture(self):
        summary = summarize_learning(LEARN_LOG.read(HEALTHY_LEDGER))
        assert summary["episodes"] == 8
        assert summary["scenarios"] == ["audio_playback"]
        text = format_learn_summary(summary)
        assert "8 episode(s)" in text

    def test_learn_gate_result_carries_report(self):
        report = evaluate_learning(LEARN_LOG.read(HEALTHY_LEDGER))
        result = gate(report)
        assert result.report is report and result.exit_code == 0


# ---------------------------------------------------------------------------
# CLI: repro learn report | gate, repro train --learn-log
# ---------------------------------------------------------------------------


class TestLearnCli:
    def test_gate_divergent_fixture_exits_nonzero(self, capsys):
        code = main([
            "learn", "gate", "--learn-log", str(DIVERGENT_LEDGER),
            "--spec", str(SPEC_FILE),
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gate_healthy_fixture_passes(self, capsys):
        code = main(["learn", "gate", "--learn-log", str(HEALTHY_LEDGER)])
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_gate_warn_only_exits_zero(self, capsys):
        code = main([
            "learn", "gate", "--learn-log", str(DIVERGENT_LEDGER),
            "--warn-only",
        ])
        assert code == 0
        assert "warn-only" in capsys.readouterr().err

    def test_report_json_carries_summary_and_verdicts(self, capsys):
        code = main([
            "learn", "report", "--learn-log", str(HEALTHY_LEDGER),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["episodes"] == 8
        assert payload["report"]["ok"] is True

    def test_report_text_renders_summary(self, capsys):
        code = main(["learn", "report", "--learn-log", str(HEALTHY_LEDGER)])
        assert code == 0
        out = capsys.readouterr().out
        assert "episode(s)" in out and "detector(s)" in out

    def test_train_learn_log_writes_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "train.jsonl"
        code = main([
            "train", "--chip", "tiny", "--scenario", "audio_playback",
            "--episodes", "2", "--duration", "2",
            "--save", str(tmp_path / "ck"), "--learn-log", str(ledger),
        ])
        assert code == 0
        assert "learning ledger: 2 record(s)" in capsys.readouterr().out
        records = LEARN_LOG.read(ledger)
        assert [r["episode"] for r in records] == [0, 1]
        assert all(set(LEARN_RECORD_FIELDS) <= set(r) for r in records)


# ---------------------------------------------------------------------------
# Trainer integration: bit-identity, churn, curriculum indices
# ---------------------------------------------------------------------------


class TestTrainerLedger:
    def _train(self, recorder=None):
        return train_policy(
            tiny_test_chip(), get_scenario("audio_playback"),
            episodes=3, episode_duration_s=2.0, recorder=recorder,
        )

    def test_recorder_is_bit_identical(self, tmp_path):
        plain = self._train()
        ledgered = self._train(LearnRecorder(tmp_path / "t.jsonl"))
        assert [(r.reward, r.energy_per_qos_j, r.td_error_mean_abs)
                for r in plain.history] == [
            (r.reward, r.energy_per_qos_j, r.td_error_mean_abs)
            for r in ledgered.history
        ]
        for name, policy in plain.policies.items():
            assert np.array_equal(
                ledgered.policies[name].agent.table.values,
                policy.agent.table.values,
            )

    def test_first_episode_churn_is_zero(self, tmp_path):
        recorder = LearnRecorder(tmp_path / "t.jsonl")
        self._train(recorder)
        records = LEARN_LOG.read(recorder.path)
        assert records[0]["churn"] == 0.0
        assert all(0.0 <= r["churn"] <= 1.0 for r in records)

    def test_ledger_carries_learner_state(self, tmp_path):
        recorder = LearnRecorder(tmp_path / "t.jsonl")
        result = self._train(recorder)
        records = LEARN_LOG.read(recorder.path)
        assert len(records) == len(result.history)
        last = records[-1]
        assert last["q_norm_l2"] > 0.0
        assert last["updates"] > 0
        assert last["scenario"] == "audio_playback"

    def test_curriculum_episodes_are_global(self, tmp_path):
        recorder = LearnRecorder(tmp_path / "c.jsonl")
        train_curriculum(
            tiny_test_chip(),
            [get_scenario("audio_playback"), get_scenario("idle")],
            episodes_per_scenario=2, episode_duration_s=2.0,
            recorder=recorder,
        )
        records = LEARN_LOG.read(recorder.path)
        assert [r["episode"] for r in records] == [0, 1, 2, 3]
        assert [r["scenario"] for r in records] == [
            "audio_playback", "audio_playback", "idle", "idle",
        ]


class TestFleetLedger:
    def test_rl_job_writes_per_job_ledger(self, tmp_path):
        from repro.fleet import FleetSpec, run_fleet

        spec = FleetSpec(
            scenarios=("audio_playback",), governors=(),
            include_rl=True, seeds=(100,), chips=("tiny",),
            duration_s=2.0, train_episodes=2,
            learn_log_dir=str(tmp_path / "ledgers"),
        )
        result = run_fleet(spec, jobs=1)
        assert not result.failures
        ledgers = sorted((tmp_path / "ledgers").glob("*.jsonl"))
        assert len(ledgers) == 1
        assert "rl-policy" in ledgers[0].name
        records = LEARN_LOG.read(ledgers[0])
        assert [r["episode"] for r in records] == [0, 1]

    def test_learn_log_dir_is_cache_identity(self):
        from repro.fleet import JobSpec

        spec = JobSpec(scenario="idle", governor="rl-policy",
                       learn_log_dir="ledgers")
        assert spec.to_mapping()["learn_log_dir"] == "ledgers"


# ---------------------------------------------------------------------------
# E5 parity: legacy tail heuristic == shared plateau detector
# ---------------------------------------------------------------------------


class TestE5Parity:
    def _curve(self) -> list[float]:
        return json.loads(E5_CURVE.read_text())["energy_per_qos_j"]

    def test_legacy_ratio_equals_plateau_on_every_window(self):
        values = self._curve()
        w, tol = E5_CONVERGENCE.window, E5_CONVERGENCE.reward_plateau_tol
        assert tol == 0.25 and w == 4  # the legacy max/min < 1.25 over 4
        for i in range(w - 1, len(values)):
            tail = values[i - w + 1 : i + 1]
            legacy = max(tail) / min(tail) < 1.25
            assert is_plateau(tail, tol) == legacy, (i, tail)

    def test_convergence_episode_matches_legacy_scan(self):
        values = self._curve()
        w = E5_CONVERGENCE.window
        legacy = next(
            (
                i
                for i in range(w - 1, len(values))
                if max(values[i - w + 1 : i + 1])
                / min(values[i - w + 1 : i + 1])
                < 1.25
            ),
            None,
        )
        assert e5_convergence_episode(values) == legacy

    def test_monotone_descent_never_plateaus(self):
        values = [16.0, 8.0, 4.0, 2.0, 1.0]
        assert e5_convergence_episode(values) is None


# ---------------------------------------------------------------------------
# experiments/learning.py edge cases
# ---------------------------------------------------------------------------


class TestLearningEdgeCases:
    def test_zero_episode_training_rejected(self):
        with pytest.raises(PolicyError, match="episode"):
            train_policy(
                tiny_test_chip(), get_scenario("idle"), episodes=0,
                episode_duration_s=2.0,
            )

    def test_single_episode_e6_segment(self, tmp_path):
        recorder = LearnRecorder(tmp_path / "e6.jsonl")
        result = e6_adaptation(
            segments=["audio_playback"], segment_duration_s=2.0,
            train_episodes=1, train_episode_s=2.0,
            chip="tiny", recorder=recorder,
        )
        assert len(result.segments) == 1
        assert result.segments[0].scenario == "audio_playback"
        # The serial reference: train both policies on one chip, then
        # run the segment on the serial engine.
        chip = tiny_test_chip()
        scenario = get_scenario("audio_playback")
        trace = scenario.trace(2.0, seed=100)
        runs = []
        for _ in ("travelling", "specialist"):
            policies = train_policy(
                chip, scenario, episodes=1, episode_duration_s=2.0
            ).policies
            runs.append(Simulator(chip, trace, policies).run())
        adapted, specialist = runs
        ondemand = Simulator(chip, trace, lambda c: create("ondemand")).run()
        assert result.segments[0] == E6Segment(
            "audio_playback", adapted.energy_per_qos_j,
            specialist.energy_per_qos_j, ondemand.energy_per_qos_j,
            adapted.qos.mean_qos,
        )
        # Only the travelling policy ledgers; its one episode is there.
        records = LEARN_LOG.read(recorder.path)
        assert [r["episode"] for r in records] == [0]

    def test_evaluate_policy_on_untrained_policies(self):
        from repro.core.trainer import evaluate_policy, make_policies

        chip = tiny_test_chip()
        policies = make_policies(chip)
        trace = get_scenario("idle").trace(2.0, seed=7)
        result = evaluate_policy(chip, policies, trace)
        # An all-default Q-table must still produce a finite, sane run.
        assert result.total_energy_j > 0.0
        assert 0.0 <= result.qos.mean_qos <= 1.0
        for policy in policies.values():
            assert policy.online is False or policy.agent is not None
