"""The performance ledger: records, regression engine, gate, CLI."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import PerfError
from repro.obs import MetricsRegistry
from repro.perf import (
    PERF_LEDGER,
    GateResult,
    MetricVerdict,
    PerfComparison,
    RunRecord,
    compare_records,
    gate,
    group_samples,
    metric_polarity,
    metrics_from_snapshot,
    new_run_id,
    record_run,
    render,
    resolve_ledger_path,
    split_latest,
)
from repro.perf.ledger import LEDGER_ENV_VAR
from repro.perf.regress import newest_regime

BASELINE = Path(__file__).resolve().parent.parent / "perf-baseline.jsonl"


def _record(run_id="r1", name="idle", metrics=None, config=None, kind="run"):
    return RunRecord(
        run_id=run_id,
        kind=kind,
        name=name,
        config=config or {"governor": "ondemand"},
        metrics=metrics if metrics is not None else {"energy_j": 1.0},
    )


class TestRunRecord:
    def test_key_sorts_config(self):
        a = _record(config={"seed": 1, "governor": "rl"})
        b = _record(config={"governor": "rl", "seed": 1})
        assert a.key() == b.key() == "run:idle:governor=rl:seed=1"

    def test_mapping_round_trip(self):
        rec = _record(metrics={"energy_j": 2.5, "mean_qos": 0.99})
        again = RunRecord.from_mapping(rec.to_mapping())
        assert again == rec

    def test_from_mapping_missing_field_raises(self):
        with pytest.raises(PerfError, match="malformed"):
            RunRecord.from_mapping({"kind": "run", "name": "idle"})

    def test_from_mapping_bad_metric_raises(self):
        data = _record().to_mapping()
        data["metrics"] = {"energy_j": "not-a-number"}
        with pytest.raises(PerfError, match="malformed"):
            RunRecord.from_mapping(data)


class TestLedger:
    def test_record_run_appends_and_reads_back(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        rec = record_run("run", "idle", {"energy_j": 1.5},
                         {"governor": "ondemand"}, path=path)
        assert rec.run_id and rec.timestamp_s > 0
        records = PERF_LEDGER.read(path)
        assert len(records) == 1
        assert records[0].metrics == {"energy_j": 1.5}
        assert records[0].key() == "run:idle:governor=ondemand"

    def test_record_run_drops_non_finite(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        rec = record_run("run", "idle", {
            "ok": 1.0,
            "nan": float("nan"),
            "inf": float("inf"),
            "ninf": float("-inf"),
            "text": "nope",
        }, path=path)
        assert rec.metrics == {"ok": 1.0}
        assert PERF_LEDGER.read(path)[0].metrics == {"ok": 1.0}

    def test_record_run_requires_kind_and_name(self, tmp_path):
        with pytest.raises(PerfError, match="kind and a name"):
            record_run("", "idle", {}, path=tmp_path / "l.jsonl")

    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        target = tmp_path / "custom.jsonl"
        monkeypatch.setenv(LEDGER_ENV_VAR, str(target))
        assert resolve_ledger_path() == target
        record_run("bench", "b1", {"x": 1.0})
        assert target.is_file()
        # An explicit path still wins over the environment.
        assert resolve_ledger_path(tmp_path / "o.jsonl") == tmp_path / "o.jsonl"

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        record_run("run", "idle", {"a": 1.0}, path=path)
        with_blank = path.read_text() + "\n\n"
        path.write_text(with_blank)
        record_run("run", "idle", {"a": 2.0}, path=path)
        assert len(PERF_LEDGER.read(path)) == 2

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(PerfError, match="not JSON"):
            PERF_LEDGER.read(path)
        path.write_text("[1, 2]\n")
        with pytest.raises(PerfError, match="not a JSON object"):
            PERF_LEDGER.read(path)

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(PerfError, match="no ledger"):
            PERF_LEDGER.read(tmp_path / "absent.jsonl")

    def test_run_ids_are_fresh_and_short(self):
        assert new_run_id() != new_run_id()
        assert len(new_run_id()) == 12


class TestMetricsFromSnapshot:
    def test_flattens_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.counter("sim.runs").inc(3)
        reg.gauge("sim.last_mean_qos").set(0.98)
        h = reg.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 2.0, 2.0, 20.0):
            h.observe(v)
        out = metrics_from_snapshot(reg.snapshot())
        assert out["sim.runs"] == 3.0
        assert out["sim.last_mean_qos"] == 0.98
        assert out["lat.count"] == 4.0
        assert out["lat.mean"] == pytest.approx(24.5 / 4)
        assert out["lat.max"] == 20.0
        # Quantiles interpolate inside the right bucket.
        assert 1.0 <= out["lat.p50"] <= 10.0
        assert 10.0 <= out["lat.p95"] <= 100.0
        assert set(out) >= {"lat.p50", "lat.p95", "lat.p99"}

    def test_empty_histogram_reports_count_only(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0,))
        out = metrics_from_snapshot(reg.snapshot(), prefix="p.")
        assert out == {"p.lat.count": 0.0}


class TestGrouping:
    def test_group_samples_by_key_and_metric(self):
        records = [
            _record("r1", metrics={"energy_j": 1.0}),
            _record("r2", metrics={"energy_j": 1.1}),
            _record("r3", name="gaming", metrics={"energy_j": 9.0}),
        ]
        samples = group_samples(records)
        assert samples[("run:idle:governor=ondemand", "energy_j")] == [1.0, 1.1]
        assert samples[("run:gaming:governor=ondemand", "energy_j")] == [9.0]

    def test_split_latest_takes_newest_run(self):
        records = [
            _record("r1", metrics={"energy_j": 1.0}),
            _record("r2", metrics={"energy_j": 1.1}),
            _record("r3", metrics={"energy_j": 2.0}),
        ]
        baseline, current = split_latest(records)
        assert [r.run_id for r in baseline] == ["r1", "r2"]
        assert [r.run_id for r in current] == ["r3"]

    def test_split_latest_skips_single_run_keys(self):
        records = [_record("only", name="solo")]
        assert split_latest(records) == ([], [])


class TestPolarity:
    @pytest.mark.parametrize("name,expected", [
        ("energy_per_qos_j", "lower"),
        ("decision_latency_s.p95", "lower"),
        ("wall_s", "lower"),
        ("mean_qos", "higher"),
        ("speedup", "higher"),
        ("sim_throughput_per_s", "higher"),
        ("q_coverage", "higher"),
    ])
    def test_inferred_from_name(self, name, expected):
        assert metric_polarity(name) == expected

    def test_override_wins(self):
        assert metric_polarity("energy_j", {"energy_j": "higher"}) == "higher"

    def test_bad_override_raises(self):
        with pytest.raises(PerfError, match="'higher' or 'lower'"):
            metric_polarity("x", {"x": "sideways"})


def _sampled(run_prefix, values, metric="latency_s", name="e4"):
    """One record per value, all sharing a key."""
    return [
        _record(f"{run_prefix}{i}", name=name, kind="bench",
                config={"governor": "rl"}, metrics={metric: v})
        for i, v in enumerate(values)
    ]


class TestCompare:
    def test_threshold_rule_below_five_samples(self):
        baseline = _sampled("b", [1.0, 1.0, 1.0])
        worse = _sampled("c", [2.0, 2.0, 2.0])
        comparison = compare_records(baseline, worse)
        (v,) = comparison.verdicts
        assert v.status == "regressed"
        assert v.method == "threshold"
        assert v.shift == pytest.approx(1.0)
        assert v.ci_low is None and v.ci_high is None
        assert not comparison.ok

    def test_identical_records_are_unchanged(self):
        baseline = _sampled("b", [1.0, 1.0, 1.0])
        same = _sampled("c", [1.0, 1.0, 1.0])
        comparison = compare_records(baseline, same)
        (v,) = comparison.verdicts
        assert v.status == "unchanged"
        assert comparison.ok

    def test_bootstrap_rule_at_five_samples(self):
        baseline = _sampled("b", [1.00, 1.01, 0.99, 1.02, 0.98, 1.00])
        doubled = _sampled("c", [2.00, 2.02, 1.98, 2.04, 1.96, 2.00])
        comparison = compare_records(baseline, doubled)
        (v,) = comparison.verdicts
        assert v.method == "bootstrap"
        assert v.status == "regressed"
        assert v.ci_low is not None and v.ci_low > comparison.threshold

    def test_bootstrap_is_deterministic(self):
        baseline = _sampled("b", [1.0, 1.1, 0.9, 1.05, 0.95])
        current = _sampled("c", [1.2, 1.3, 1.1, 1.25, 1.15])
        a = compare_records(baseline, current)
        b = compare_records(baseline, current)
        assert a == b

    def test_higher_better_direction_flips(self):
        baseline = _sampled("b", [0.99, 0.99], metric="mean_qos")
        worse = _sampled("c", [0.50, 0.50], metric="mean_qos")
        comparison = compare_records(baseline, worse)
        (v,) = comparison.verdicts
        assert v.polarity == "higher"
        assert v.status == "regressed"
        improved = compare_records(_sampled("c", [0.5], metric="mean_qos"),
                                   _sampled("d", [0.99], metric="mean_qos"))
        assert improved.verdicts[0].status == "improved"

    def test_polarity_override_applies(self):
        baseline = _sampled("b", [1.0], metric="score")
        halved = _sampled("c", [0.5], metric="score")
        # Inferred lower-is-better: a drop is an improvement...
        assert compare_records(baseline, halved).verdicts[0].status == "improved"
        # ...but declared higher-is-better it regresses.
        flipped = compare_records(
            baseline, halved, polarity_overrides={"score": "higher"}
        )
        assert flipped.verdicts[0].status == "regressed"

    def test_one_sided_keys_are_added_or_removed(self):
        baseline = _sampled("b", [1.0], name="old")
        current = _sampled("c", [1.0], name="new")
        comparison = compare_records(baseline, current)
        statuses = {v.key: v.status for v in comparison.verdicts}
        assert statuses == {"bench:new:governor=rl": "added",
                            "bench:old:governor=rl": "removed"}
        assert comparison.ok  # neither blocks the gate

    def test_both_sides_empty_raises(self):
        with pytest.raises(PerfError, match="nothing to compare"):
            compare_records([], [])

    def test_bad_threshold_and_confidence_raise(self):
        baseline = _sampled("b", [1.0])
        with pytest.raises(PerfError, match="threshold"):
            compare_records(baseline, baseline, threshold=-0.1)
        with pytest.raises(PerfError, match="confidence"):
            compare_records(baseline, baseline, confidence=1.5)


def _at(sha, records):
    return [replace(r, git_sha=sha) for r in records]


class TestBaselineRegimes:
    """The baseline of a key is its newest commit with >= 5 rows."""

    def test_newest_commit_with_five_rows_wins(self):
        old = _at("old", _sampled("a", [2.0] * 5))
        new = _at("new", _sampled("b", [1.0] * 5))
        stray = _at("stray", _sampled("c", [9.0] * 2))
        assert newest_regime(old + new + stray) == new
        # The change undone now shows against the new regime.
        (v,) = compare_records(old + new + stray,
                               _sampled("d", [2.0] * 5)).verdicts
        assert v.status == "regressed"

    def test_too_few_rows_everywhere_pools_them_all(self):
        rows = _at("x", _sampled("a", [1.0] * 3)) + _at(
            "y", _sampled("b", [1.0] * 4))
        assert newest_regime(rows) == rows

    def _o1(self, sha):
        rows = [r for r in PERF_LEDGER.read(BASELINE)
                if r.name == "o1_obs_overhead" and r.git_sha == sha]
        assert len(rows) == 5
        return rows

    def _o1_status(self, sha):
        comparison = compare_records(PERF_LEDGER.read(BASELINE), self._o1(sha))
        return {v.metric: v.status for v in comparison.verdicts
                if "o1_obs_overhead" in v.key}["enabled_over_disabled"]

    def test_per_interval_span_regime_regresses(self):
        assert self._o1_status("72633d7") == "regressed"

    def test_phase_counter_regime_is_unchanged(self):
        assert self._o1_status("11f3a61") == "unchanged"


class TestRendering:
    def _comparison(self):
        return compare_records(_sampled("b", [1.0, 1.0, 1.0]),
                               _sampled("c", [2.0, 2.0, 2.0]))

    def test_text_names_the_metric(self):
        text = render(self._comparison(), "text")
        assert "REGRESSED" in text
        assert "bench:e4:governor=rl :: latency_s" in text
        assert "1 regressed, 0 improved" in text

    def test_text_hides_unchanged_unless_verbose(self):
        comparison = compare_records(_sampled("b", [1.0]), _sampled("c", [1.0]))
        assert "UNCHANGED" not in render(comparison, "text")
        assert "UNCHANGED" in render(comparison, "text", verbose=True)

    def test_json_is_machine_readable(self):
        payload = json.loads(render(self._comparison(), "json"))
        assert payload["ok"] is False
        assert payload["verdicts"][0]["status"] == "regressed"
        assert payload["verdicts"][0]["metric"] == "latency_s"

    def test_github_annotations(self):
        out = render(self._comparison(), "github")
        assert out.startswith("::error title=perf regression::")
        clean = compare_records(_sampled("b", [1.0]), _sampled("c", [1.0]))
        assert render(clean, "github").startswith("::notice")


class TestGate:
    def test_regression_exits_one(self):
        comparison = compare_records(_sampled("b", [1.0]), _sampled("c", [2.0]))
        result = gate(comparison)
        assert isinstance(result, GateResult)
        assert result.exit_code == 1

    def test_clean_comparison_passes(self):
        comparison = compare_records(_sampled("b", [1.0]), _sampled("c", [1.0]))
        assert gate(comparison).exit_code == 0

    def test_warn_only_forces_pass(self):
        comparison = compare_records(_sampled("b", [1.0]), _sampled("c", [2.0]))
        result = gate(comparison, warn_only=True)
        assert result.exit_code == 0 and result.warn_only

    def test_blocking_failures_fail_under_warn_only(self):
        comparison = compare_records(_sampled("b", [1.0]), _sampled("c", [2.0]))
        blocking = comparison.regressions_in(["latency_s"])
        assert blocking == comparison.failures
        assert gate(comparison, warn_only=True, blocking=blocking).exit_code == 1
        assert comparison.regressions_in(["other"]) == ()


class TestPerfCli:
    def _write_run(self, path, run_id, latency_s):
        record_run(
            "bench", "e4_decision_latency", {"decision_latency_s.p95": latency_s},
            {"governor": "rl"}, run_id=run_id, path=path,
        )

    def test_gate_catches_injected_slowdown(self, tmp_path, capsys):
        """The acceptance check: a 2x decision-latency slowdown in the
        newest run exits 1 and names the metric."""
        path = tmp_path / "ledger.jsonl"
        for i in range(5):
            self._write_run(path, f"base{i}", 1e-3)
        self._write_run(path, "slow", 2e-3)
        code = main(["perf", "gate", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out
        assert "decision_latency_s.p95" in out

    def test_gate_passes_identical_runs(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        for i in range(5):
            self._write_run(path, f"base{i}", 1e-3)
        self._write_run(path, "same", 1e-3)
        assert main(["perf", "gate", "--ledger", str(path)]) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_gate_single_run_is_vacuous_pass(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._write_run(path, "only", 1e-3)
        assert main(["perf", "gate", "--ledger", str(path)]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_gate_warn_only_reports_but_passes(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._write_run(path, "b0", 1e-3)
        self._write_run(path, "slow", 2e-3)
        code = main(["perf", "gate", "--warn-only", "--ledger", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "REGRESSED" in captured.out

    def test_gate_block_fails_on_named_metrics_only(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        for run_id, speedup, wall_s in (("b0", 5.0, 1.0), ("slow", 2.0, 2.0)):
            record_run(
                "bench", "x8_rl_batch_speedup",
                {"speedup": speedup, "batch_s": wall_s}, {},
                run_id=run_id, path=path,
            )
        args = ["perf", "gate", "--warn-only", "--ledger", str(path)]
        assert main(args + ["--block", "speedup"]) == 1
        err = capsys.readouterr().err
        assert "1 regression(s) (warn-only, not failing)" in err
        assert "1 blocking regression(s)" in err
        assert main(args + ["--block", "enabled_over_disabled,other"]) == 0
        assert main(args) == 0

    def test_gate_against_baseline_ledger(self, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        current = tmp_path / "current.jsonl"
        self._write_run(baseline, "b0", 1e-3)
        self._write_run(current, "c0", 2e-3)
        code = main([
            "perf", "gate", "--baseline", str(baseline),
            "--ledger", str(current),
        ])
        assert code == 1

    def test_compare_two_ledgers(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.jsonl"
        current = tmp_path / "current.jsonl"
        self._write_run(baseline, "b0", 1e-3)
        self._write_run(current, "c0", 1e-3)
        code = main([
            "perf", "compare", str(baseline), "--ledger", str(current),
        ])
        assert code == 0
        assert "1 metric(s)" in capsys.readouterr().out

    def test_compare_json_format(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.jsonl"
        current = tmp_path / "current.jsonl"
        self._write_run(baseline, "b0", 1e-3)
        self._write_run(current, "c0", 2e-3)
        code = main([
            "perf", "compare", str(baseline), "--ledger", str(current),
            "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False

    def test_list_shows_records(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._write_run(path, "r0", 1e-3)
        assert main(["perf", "list", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "e4_decision_latency" in out
        assert "bench" in out

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        code = main(["perf", "list", "--ledger", str(tmp_path / "no.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_run_ledger_flag_records(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV_VAR, str(path))
        code = main([
            "run", "--chip", "tiny", "--scenario", "audio_playback",
            "--governor", "ondemand", "--duration", "1.0", "--ledger",
        ])
        assert code == 0
        assert "ledger: recorded" in capsys.readouterr().out
        records = PERF_LEDGER.read(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.kind == "run"
        assert rec.config["governor"] == "ondemand"
        assert "energy_per_qos_j" in rec.metrics
        # --ledger forces metrics capture, so latency quantiles travel too.
        assert "sim.decision_latency_s.p95" in rec.metrics
