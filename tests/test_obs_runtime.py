"""Trace context, ops log, SLO runtime, and end-to-end correlation."""

from __future__ import annotations

import asyncio
import json
import os
import re
from dataclasses import replace
from pathlib import Path
from typing import Any

import pytest

from repro import obs
from repro.cli import main
from repro.core.trainer import train_policy
from repro.errors import ObsError
from repro.fleet.events import (
    JobCached,
    JobDone,
    JobFailed,
    JobQueued,
    JobRetried,
)
from repro.fleet.spec import JobSpec
from repro.obs import (
    DEFAULT_SLOS,
    FORMATS,
    OPS_LOG,
    OpsLogger,
    SlidingWindow,
    SloSpec,
    TraceContext,
    bind,
    current_context,
    evaluate_slos,
    format_ops_summary,
    gate,
    gate_ops_log,
    health_indicators,
    job_record_from_event,
    load_slo_config,
    new_trace_id,
    ops_record,
    render,
    slos_from_mapping,
    summarize_ops,
    tail_ops_log,
    trace_args,
)
from repro.obs.export import write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    REJECT_SHUTDOWN,
    DecisionRequest,
    HealthReply,
    HealthRequest,
    PolicyServer,
    Rejection,
    ServeConfig,
    SimulationRequest,
    StatsReply,
    StatsRequest,
    observation_from_mapping,
    serve_once,
)
from repro.soc.presets import tiny_test_chip
from test_trainer import tiny_scenario

DATA = Path(__file__).parent / "data"
OPS_FIXTURE = DATA / "ops-log-fixture.jsonl"
SLO_CONFIG = DATA / "slo-config.json"


@pytest.fixture(scope="module")
def trained():
    chip = tiny_test_chip()
    result = train_policy(
        chip, tiny_scenario(), episodes=3, episode_duration_s=3.0
    )
    return chip, result.policies


def make_server(trained, ops_log=None, **config: Any) -> PolicyServer:
    chip, policies = trained
    return PolicyServer(
        policies, tiny_test_chip(), ServeConfig(**config), ops_log=ops_log
    )


def obs_for(chip, **fields: Any):
    payload = {"cluster": chip.cluster_names[0], **fields}
    return observation_from_mapping(payload, chip)


# ---------------------------------------------------------------------------
# Trace context
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_requires_trace_id(self):
        with pytest.raises(ObsError, match="trace_id"):
            TraceContext(trace_id="")

    def test_mapping_round_trip(self):
        ctx = TraceContext(trace_id="abc123", request_id="r1")
        assert TraceContext.from_mapping(ctx.to_mapping()) == ctx

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ObsError, match="unknown"):
            TraceContext.from_mapping({"trace_id": "x", "color": "red"})

    def test_new_trace_id_is_16_hex_and_distinct(self):
        ids = {new_trace_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(re.fullmatch("[0-9a-f]{16}", i) for i in ids)

    def test_bind_scopes_the_current_context(self):
        assert current_context() is None
        ctx = TraceContext(trace_id="deadbeef")
        with bind(ctx):
            assert current_context() == ctx
            inner = TraceContext(trace_id="feedface", request_id="r")
            with bind(inner):
                assert current_context() == inner
            assert current_context() == ctx
        assert current_context() is None

    def test_bind_none_is_a_passthrough(self):
        ctx = TraceContext(trace_id="deadbeef")
        with bind(ctx):
            with bind(None):
                assert current_context() == ctx

    def test_trace_args_reflect_binding(self):
        assert trace_args() == {}
        with bind(TraceContext(trace_id="deadbeef")):
            assert trace_args() == {"trace_id": "deadbeef"}
        with bind(TraceContext(trace_id="deadbeef", request_id="r1")):
            assert trace_args() == {"trace_id": "deadbeef",
                                    "request_id": "r1"}


# ---------------------------------------------------------------------------
# Ops records and the logger
# ---------------------------------------------------------------------------


class TestOpsRecord:
    def test_complete_record_with_defaults(self):
        r = ops_record("decision", "ok", 0.001, ts=5.0)
        assert r["kind"] == "decision" and r["outcome"] == "ok"
        assert r["ts"] == 5.0 and r["queue_wait_s"] == 0.0
        assert r["trace_id"] == "" and r["request_id"] == ""

    def test_extra_fields_preserved(self):
        r = ops_record("job", "ok", 1.0, job_id="j1", ts=0.0)
        assert r["job_id"] == "j1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObsError, match="kind"):
            ops_record("dance", "ok", 0.0)

    def test_empty_outcome_rejected(self):
        with pytest.raises(ObsError, match="outcome"):
            ops_record("decision", "", 0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ObsError, match="negative"):
            ops_record("decision", "ok", -0.1)
        with pytest.raises(ObsError, match="negative"):
            ops_record("decision", "ok", 0.1, queue_wait_s=-1.0)


class TestOpsLogger:
    def test_appends_one_sorted_json_line_per_record(self, tmp_path):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        logger.log(ops_record("decision", "ok", 0.001, ts=1.0))
        logger.log(ops_record("health", "ok", 0.0, ts=2.0))
        assert logger.written == 2
        lines = (tmp_path / "ops.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(li)["kind"] for li in lines] == (
            ["decision", "health"]
        )

    def test_creates_parent_directories(self, tmp_path):
        logger = OpsLogger(tmp_path / "deep" / "nested" / "ops.jsonl")
        logger.log(ops_record("decision", "ok", 0.0, ts=0.0))
        assert logger.path.exists()

    def test_rejects_incomplete_records(self, tmp_path):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        with pytest.raises(ObsError, match="missing fields"):
            logger.log({"kind": "decision", "outcome": "ok"})
        assert logger.written == 0

    def test_rejects_unserialisable_records(self, tmp_path):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        record = ops_record("decision", "ok", 0.0, ts=0.0, chip=object())
        with pytest.raises(ObsError, match="serialisable"):
            logger.log(record)

    @pytest.mark.parametrize("args, match", [
        (("decision", "", 0.0, 0.0, "", "", ("s", "c")), "non-empty outcome"),
        (("decision", "ok", -1.0, 0.0, "", "", ("s", "c")), "negative"),
        (("nope", "ok", 0.0, 0.0, "", "", ()), "unknown ops record kind"),
        (("job", "ok", 0.0, 0.0, "", "", ()), "logs no 'job' records"),
        (("decision", "ok", 0.0, 0.0, "", "", ("s",)), "has 8 value"),
    ])
    def test_log_served_refuses_bad_records(self, tmp_path, args, match):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        with pytest.raises(ObsError, match=match):
            logger.log_served(*args)
        assert logger.written == 0
        assert not logger.path.exists()

    def test_off_loop_record_is_on_disk_when_log_returns(self, tmp_path):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        stored = logger.log(ops_record("job", "ok", 1.5, ts=3.0))
        [record] = OPS_LOG.read(logger.path)
        assert record == stored
        assert logger.written == 1

    def test_off_loop_write_failure_reaches_the_caller(self, tmp_path):
        logger = OpsLogger(tmp_path)  # a directory: every open fails
        with pytest.raises(IsADirectoryError):
            logger.log(ops_record("job", "ok", 0.0, ts=0.0))
        assert logger.written == 0

    def test_one_loop_turn_is_one_write_in_log_order(
        self, tmp_path, monkeypatch
    ):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        records = [
            ops_record("decision", "ok", 1e-5 * i, ts=float(i),
                       request_id=f"r{i}")
            for i in range(8)
        ]
        real_write = os.write
        writes: list[int] = []

        def counted_write(fd: int, data: bytes) -> int:
            writes.append(len(data))
            return real_write(fd, data)

        async def run() -> tuple[bool, int]:
            monkeypatch.setattr(os, "write", counted_write)
            for record in records:
                logger.log(record)
            queued = not logger.path.exists()
            await asyncio.sleep(0)
            monkeypatch.undo()
            return queued, logger.written

        queued, written = asyncio.run(run())
        assert queued
        assert written == 8 and len(writes) == 1
        assert list(OPS_LOG.read(logger.path)) == records

    def test_lines_of_a_stopped_loop_go_out_with_the_next_turn(
        self, tmp_path
    ):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        first = ops_record("decision", "ok", 0.0, ts=1.0, request_id="a")
        second = ops_record("decision", "ok", 0.0, ts=2.0, request_id="b")
        loop = asyncio.new_event_loop()
        try:
            # stop() ends the loop after this batch: the flush never runs.
            loop.call_soon(lambda: (logger.log(first), loop.stop()))
            loop.run_forever()
        finally:
            loop.close()
        assert not logger.path.exists()

        async def run() -> None:
            logger.log(second)
            await asyncio.sleep(0)

        asyncio.run(run())
        assert list(OPS_LOG.read(logger.path)) == [first, second]

    def test_executor_thread_record_is_written_directly(
        self, tmp_path, monkeypatch
    ):
        logger = OpsLogger(tmp_path / "ops.jsonl")
        flushes: list[None] = []
        monkeypatch.setattr(logger, "flush", lambda: flushes.append(None))
        record = ops_record("simulation", "ok", 0.2, ts=1.0)

        def in_thread() -> str:
            logger.log(record)
            return logger.path.read_text()

        async def run() -> str:
            text = await asyncio.get_running_loop().run_in_executor(
                None, in_thread
            )
            await asyncio.sleep(0)
            return text

        text = asyncio.run(run())
        assert [json.loads(text)] == [record]
        assert flushes == [] and logger.written == 1


class TestJobRecordFromEvent:
    def test_done_maps_to_ok_with_wall_time(self):
        r = job_record_from_event(
            JobDone(index=0, job_id="j1", wall_s=2.5, sim_throughput=4.0,
                    trace_id="abc")
        )
        assert r["kind"] == "job" and r["outcome"] == "ok"
        assert r["latency_s"] == 2.5 and r["trace_id"] == "abc"
        assert r["job_id"] == "j1"

    def test_cached_maps_to_cached(self):
        r = job_record_from_event(
            JobCached(index=0, job_id="j1", wall_s=0.001)
        )
        assert r["outcome"] == "cached"

    def test_final_failure_maps_to_failed_family(self):
        r = job_record_from_event(
            JobFailed(index=0, job_id="j1", attempt=3,
                      error="ReproError: unknown chip", timed_out=False,
                      final=True)
        )
        assert r["outcome"] == "failed:ReproError"
        assert r["detail"] == "ReproError: unknown chip"

    def test_non_terminal_events_produce_nothing(self):
        assert job_record_from_event(
            JobFailed(index=0, job_id="j", attempt=1, error="x",
                      timed_out=False, final=False)
        ) is None
        assert job_record_from_event(
            JobQueued(index=0, job_id="j")
        ) is None
        assert job_record_from_event(
            JobRetried(index=0, job_id="j", attempt=2)
        ) is None


class TestOpsReadSide:
    def test_fixture_round_trips(self):
        records = OPS_LOG.read(OPS_FIXTURE)
        assert len(records) == 15
        assert all(set(r) >= {"ts", "kind", "trace_id", "request_id",
                              "outcome", "latency_s", "queue_wait_s"}
                   for r in records)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read"):
            OPS_LOG.read(tmp_path / "absent.jsonl")

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        path.write_text('{"kind": "decision"}\nnot json\n')
        with pytest.raises(ObsError, match="missing fields"):
            OPS_LOG.read(path)
        path.write_text("not json\n")
        with pytest.raises(ObsError, match=":1 is not JSON"):
            OPS_LOG.read(path)

    def test_tail_returns_newest_records(self):
        tail = tail_ops_log(OPS_FIXTURE, n=2)
        assert [r["kind"] for r in tail] == ["health", "stats"]
        with pytest.raises(ObsError, match="positive"):
            tail_ops_log(OPS_FIXTURE, n=0)

    def test_summary_counts_and_rates(self):
        summary = summarize_ops(OPS_LOG.read(OPS_FIXTURE))
        assert summary["total"] == 15
        assert summary["by_kind"]["decision"] == 8
        assert summary["by_outcome"] == {"cached": 1, "ok": 13,
                                         "rejected": 1}
        assert summary["rejection_rate"] == pytest.approx(1 / 15)
        assert summary["distinct_trace_ids"] == 13
        assert summary["latency_s"]["max"] == pytest.approx(0.26)

    def test_summary_of_nothing_is_well_formed(self):
        summary = summarize_ops([])
        assert summary["total"] == 0
        assert summary["latency_s"] is None
        assert summary["rejection_rate"] == 0.0

    def test_format_summary_renders(self):
        text = format_ops_summary(summarize_ops(OPS_LOG.read(OPS_FIXTURE)))
        assert "15 record(s)" in text
        assert "decision=8" in text
        assert "rejection rate" in text


# ---------------------------------------------------------------------------
# Sliding window + health indicators
# ---------------------------------------------------------------------------


def _snapshot(requests: int, latencies: list[float]) -> dict[str, Any]:
    reg = MetricsRegistry()
    counter = reg.counter("serve.requests")
    for _ in range(requests):
        counter.inc()
    hist = reg.histogram("serve.decision_latency_s",
                         buckets=(0.001, 0.01, 0.1))
    for value in latencies:
        hist.observe(value)
    return reg.snapshot()


class TestSlidingWindow:
    def test_constructor_validates(self):
        with pytest.raises(ObsError, match="positive"):
            SlidingWindow(window_s=0.0)
        with pytest.raises(ObsError, match="2 samples"):
            SlidingWindow(max_samples=1)

    def test_time_must_not_go_backwards(self):
        window = SlidingWindow()
        window.observe(_snapshot(1, []), at_s=10.0)
        with pytest.raises(ObsError, match="backwards"):
            window.observe(_snapshot(2, []), at_s=9.0)

    def test_delta_differences_counters_and_buckets(self):
        window = SlidingWindow()
        window.observe(_snapshot(3, [0.005]), at_s=0.0)
        window.observe(_snapshot(10, [0.005, 0.05, 0.05]), at_s=5.0)
        delta = window.delta()
        assert delta["counters"]["serve.requests"] == 7
        hist = delta["histograms"]["serve.decision_latency_s"]
        assert hist["count"] == 2
        assert sum(hist["bucket_counts"]) == 2

    def test_single_sample_delta_is_the_snapshot(self):
        window = SlidingWindow()
        window.observe(_snapshot(4, []), at_s=0.0)
        assert window.delta()["counters"]["serve.requests"] == 4
        assert window.span_s() == 0.0

    def test_old_samples_evicted_by_window(self):
        window = SlidingWindow(window_s=10.0)
        for i in range(6):
            window.observe(_snapshot(i, []), at_s=i * 5.0)
        # Samples older than newest-10s are gone, but >= 2 always stay.
        assert len(window) == 3
        assert window.span_s() == pytest.approx(10.0)

    def test_changed_bucket_bounds_raise(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        first = reg.snapshot()
        other = MetricsRegistry()
        other.histogram("h", buckets=(2.0,)).observe(0.5)
        window = SlidingWindow()
        window.observe(first, at_s=0.0)
        window.observe(other.snapshot(), at_s=1.0)
        with pytest.raises(ObsError, match="bounds changed"):
            window.delta()

    def test_rate_sums_prefix_families(self):
        window = SlidingWindow()
        reg = MetricsRegistry()
        reg.counter("serve.rejected.overloaded").inc(2)
        reg.counter("serve.rejected.deadline").inc(1)
        reg.counter("serve.rejections_total").inc(50)  # not the prefix
        window.observe({"counters": {}, "gauges": {}, "histograms": {}},
                       at_s=0.0)
        window.observe(reg.snapshot(), at_s=3.0)
        assert window.rate("serve.rejected") == pytest.approx(1.0)

    def test_quantile_of_absent_histogram_is_none(self):
        window = SlidingWindow()
        window.observe(_snapshot(1, []), at_s=0.0)
        assert window.quantile("no.such.histogram", 0.5) is None

    def test_health_indicators_shape(self):
        window = SlidingWindow()
        window.observe(_snapshot(0, []), at_s=0.0)
        window.observe(_snapshot(8, [0.005] * 8), at_s=4.0)
        indicators = health_indicators(window)
        assert indicators["request_rate_per_s"] == pytest.approx(2.0)
        assert indicators["rejection_rate_per_s"] == 0.0
        assert 0.001 < indicators["decision_latency_p50_s"] <= 0.01
        assert indicators["window_s"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ObsError, match="name"):
            SloSpec(name="")
        with pytest.raises(ObsError, match="kind"):
            SloSpec(name="x", kind="dance")
        with pytest.raises(ObsError, match="objective"):
            SloSpec(name="x", objective=1.0)
        with pytest.raises(ObsError, match="max_latency_s"):
            SloSpec(name="x", max_latency_s=0.0)

    def test_goodness_and_scope(self):
        spec = SloSpec(name="lat", kind="decision", objective=0.9,
                       max_latency_s=0.01)
        good = {"kind": "decision", "outcome": "ok", "latency_s": 0.005}
        slow = {"kind": "decision", "outcome": "ok", "latency_s": 0.5}
        rejected = {"kind": "decision", "outcome": "rejected:overloaded",
                    "latency_s": 0.0}
        other = {"kind": "job", "outcome": "ok", "latency_s": 0.0}
        assert spec.is_good(good)
        assert not spec.is_good(slow)
        assert not spec.is_good(rejected)
        assert spec.applies_to(good) and not spec.applies_to(other)
        assert SloSpec(name="any", kind="any").applies_to(other)

    def test_cached_counts_as_good(self):
        spec = SloSpec(name="jobs", kind="job", objective=0.9)
        assert spec.is_good({"kind": "job", "outcome": "cached",
                             "latency_s": 0.0})


class TestSloConfig:
    def test_committed_config_loads(self):
        slos = load_slo_config(SLO_CONFIG)
        assert [s.name for s in slos] == [
            "decision-availability", "decision-latency",
            "simulation-availability",
        ]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ObsError, match="unknown"):
            slos_from_mapping({"slos": [{"name": "x", "burn": 2}]})
        with pytest.raises(ObsError, match="unknown SLO config keys"):
            slos_from_mapping({"slos": [], "extra": 1})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ObsError, match="duplicate"):
            slos_from_mapping({"slos": [{"name": "x"}, {"name": "x"}]})

    def test_empty_list_rejected(self):
        with pytest.raises(ObsError, match="non-empty"):
            slos_from_mapping({"slos": []})

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read"):
            load_slo_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ObsError, match="JSON object"):
            load_slo_config(bad)


class TestSloEvaluation:
    def _records(self, ok: int, bad: int, kind: str = "decision"):
        records = []
        for i in range(ok):
            records.append(ops_record(kind, "ok", 0.001, ts=float(i)))
        for i in range(bad):
            records.append(
                ops_record(kind, "rejected:overloaded", 0.0, ts=float(i))
            )
        return records

    def test_empty_slo_list_raises(self):
        with pytest.raises(ObsError, match="empty SLO list"):
            evaluate_slos([], slos=())

    def test_no_data_passes(self):
        report = evaluate_slos([], slos=DEFAULT_SLOS)
        assert report.ok
        assert all(v.status == "no-data" for v in report.verdicts)

    def test_burn_rate_arithmetic(self):
        # 1 bad of 20 with a 10% budget: burn = 0.05 / 0.1 = 0.5 -> ok.
        spec = SloSpec(name="x", objective=0.9)
        [verdict] = evaluate_slos(self._records(19, 1), slos=[spec]).verdicts
        assert verdict.burn_rate == pytest.approx(0.5)
        assert verdict.status == "ok"
        assert verdict.good_fraction == pytest.approx(0.95)

    def test_burn_above_one_fails(self):
        spec = SloSpec(name="x", objective=0.99)
        report = evaluate_slos(self._records(18, 2), slos=[spec])
        [verdict] = report.verdicts
        assert verdict.burn_rate == pytest.approx(10.0)
        assert verdict.status == "fail"
        assert not report.ok and report.failures == (verdict,)

    def test_fixture_verdicts_are_deterministic(self):
        records = OPS_LOG.read(OPS_FIXTURE)
        assert evaluate_slos(records, DEFAULT_SLOS).ok
        report = evaluate_slos(records, load_slo_config(SLO_CONFIG))
        assert [v.status for v in report.verdicts] == ["ok", "ok", "fail"]
        assert report.failures[0].burn_rate == pytest.approx(10 / 3)


class TestSloGate:
    def test_renderers_cover_the_cli_formats(self):
        assert set(FORMATS) == {"text", "json", "github"}

    def test_text_render(self):
        report = evaluate_slos(OPS_LOG.read(OPS_FIXTURE),
                               load_slo_config(SLO_CONFIG))
        text = render(report, "text")
        assert "FAIL" in text and "simulation-availability" in text
        assert "3 SLO(s): 1 failing, 2 passing" in text

    def test_json_render_parses(self):
        report = evaluate_slos(OPS_LOG.read(OPS_FIXTURE), DEFAULT_SLOS)
        payload = json.loads(render(report, "json"))
        assert payload["ok"] is True
        assert len(payload["verdicts"]) == 2

    def test_github_render_annotations(self):
        failing = evaluate_slos(OPS_LOG.read(OPS_FIXTURE),
                                load_slo_config(SLO_CONFIG))
        assert "::error title=SLO violation::" in render(failing, "github")
        passing = evaluate_slos(OPS_LOG.read(OPS_FIXTURE), DEFAULT_SLOS)
        assert "::notice" in render(passing, "github")
        nodata = evaluate_slos([], DEFAULT_SLOS)
        assert "::warning title=SLO no-data::" in render(nodata, "github")

    def test_gate_exit_codes(self):
        failing = evaluate_slos(OPS_LOG.read(OPS_FIXTURE),
                                load_slo_config(SLO_CONFIG))
        assert gate(failing).exit_code == 1
        assert gate(failing, warn_only=True).exit_code == 0
        passing = evaluate_slos(OPS_LOG.read(OPS_FIXTURE), DEFAULT_SLOS)
        assert gate(passing).exit_code == 0

    def test_gate_ops_log_one_call_form(self):
        assert gate_ops_log(OPS_FIXTURE).exit_code == 0
        result = gate_ops_log(OPS_FIXTURE, load_slo_config(SLO_CONFIG))
        assert result.exit_code == 1


# ---------------------------------------------------------------------------
# CLI: repro ops / repro slo gate / repro decide correlation
# ---------------------------------------------------------------------------


class TestOpsCli:
    def test_tail(self, capsys):
        rc = main(["ops", "tail", str(OPS_FIXTURE), "-n", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert json.loads(lines[-1])["kind"] == "stats"

    def test_summary_text_and_json(self, capsys):
        assert main(["ops", "summary", str(OPS_FIXTURE)]) == 0
        assert "15 record(s)" in capsys.readouterr().out
        assert main(
            ["ops", "summary", str(OPS_FIXTURE), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 15

    def test_missing_log_is_a_cli_error(self, tmp_path, capsys):
        rc = main(["ops", "summary", str(tmp_path / "absent.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSloCli:
    def test_default_slos_pass_on_fixture(self, capsys):
        rc = main(["slo", "gate", "--ops-log", str(OPS_FIXTURE)])
        assert rc == 0
        assert "2 SLO(s): 0 failing" in capsys.readouterr().out

    def test_config_violation_fails_deterministically(self, capsys):
        rc = main([
            "slo", "gate", "--ops-log", str(OPS_FIXTURE),
            "--config", str(SLO_CONFIG),
        ])
        assert rc == 1
        assert "simulation-availability" in capsys.readouterr().out

    def test_warn_only_reports_but_passes(self, capsys):
        rc = main([
            "slo", "gate", "--ops-log", str(OPS_FIXTURE),
            "--config", str(SLO_CONFIG), "--warn-only",
            "--format", "github",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "::error title=SLO violation::" in captured.out
        assert "warn-only" in captured.err


# ---------------------------------------------------------------------------
# The server under correlation: echo, OOB kinds, ops log
# ---------------------------------------------------------------------------


class TestServerCorrelation:
    def test_client_trace_id_echoed_verbatim(self, trained):
        server = make_server(trained, workers=1)
        request = DecisionRequest(
            observation=obs_for(server.chip), request_id="r1",
            trace_id="feedfacecafebeef",
        )
        [reply] = asyncio.run(serve_once(server, [request]))
        assert reply.trace_id == "feedfacecafebeef"

    def test_no_id_stamped_when_correlation_inactive(self, trained):
        # Disabled hub + no ops log: the shipping path must not invent
        # ids (zero-overhead contract).
        server = make_server(trained, workers=1)
        [reply] = asyncio.run(serve_once(
            server, [DecisionRequest(observation=obs_for(server.chip))]
        ))
        assert reply.trace_id == ""

    def test_ops_log_stamps_fresh_ids(self, trained, tmp_path):
        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        server = make_server(trained, workers=1, ops_log=ops_log)
        replies = asyncio.run(serve_once(server, [
            DecisionRequest(observation=obs_for(server.chip),
                            request_id=f"r{i}")
            for i in range(3)
        ]))
        ids = [r.trace_id for r in replies]
        assert all(len(i) == 16 for i in ids)
        assert len(set(ids)) == 3

    def test_ops_log_records_outcomes(self, trained, tmp_path):
        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        server = make_server(trained, workers=1, queue_size=1,
                             ops_log=ops_log)

        async def run():
            await server.start()
            futures = [
                server.submit(DecisionRequest(
                    observation=obs_for(server.chip), request_id=f"r{i}"
                ))
                for i in range(4)
            ]
            replies = [await f for f in futures]
            await server.shutdown()
            return replies

        asyncio.run(run())
        records = OPS_LOG.read(ops_log.path)
        outcomes = [r["outcome"] for r in records]
        assert outcomes.count("ok") == server.stats.served_decisions
        assert (
            outcomes.count("rejected:overloaded")
            == server.stats.rejected_overloaded
        )
        assert all(r["kind"] == "decision" for r in records)
        assert all(r["trace_id"] for r in records)

    def test_shutdown_rejects_pending_under_their_own_ids(
        self, trained, tmp_path
    ):
        # Left unanswered at shutdown: a simulation in flight on the
        # executor, queued decisions, and one the client cancelled.
        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        server = make_server(trained, workers=1, queue_size=16,
                             ops_log=ops_log)
        spec = JobSpec(scenario="gaming", governor="ondemand", chip="tiny",
                       duration_s=0.5, seed=7)

        async def run():
            await server.start()
            futures = [server.submit(
                SimulationRequest(spec=spec, request_id="sim")
            )]
            for _ in range(100):
                if server._queue.depth() == 0:
                    break
                await asyncio.sleep(0)
            assert server._queue.depth() == 0  # the worker holds the job
            futures += [
                server.submit(DecisionRequest(
                    observation=obs_for(server.chip), request_id=f"r{i}"
                ))
                for i in range(4)
            ]
            futures[-1].cancel()
            await server.shutdown(drain=False)
            return await asyncio.gather(*futures, return_exceptions=True)

        replies = asyncio.run(run())
        assert isinstance(replies[-1], asyncio.CancelledError)
        rejected = replies[:-1]
        assert all(isinstance(r, Rejection) for r in rejected)
        assert all(r.reason == REJECT_SHUTDOWN for r in rejected)
        assert [r.request_id for r in rejected] == ["sim", "r0", "r1", "r2"]
        assert all(len(r.trace_id) == 16 for r in rejected)
        assert server.stats.rejected_shutdown == 5
        assert server._pending == {}
        records = [r for r in OPS_LOG.read(ops_log.path)
                   if r["outcome"] == "rejected:shutdown"]
        assert sorted(r["request_id"] for r in records) == \
            ["r0", "r1", "r2", "r3", "sim"]
        assert {(r["request_id"], r["trace_id"]) for r in records} >= \
            {(r.request_id, r.trace_id) for r in rejected}
        assert len({r["trace_id"] for r in records}) == 5
        assert all(len(r["trace_id"]) == 16 for r in records)

    @pytest.mark.parametrize("unstamped", [
        DecisionRequest(
            observation=obs_for(tiny_test_chip()), session="s9",
            request_id="d", deadline_s=0.5,
        ),
        SimulationRequest(
            spec=JobSpec(scenario="idle", governor="performance",
                         chip="tiny", duration_s=1.0, seed=3),
            request_id="sim", deadline_s=2.0,
        ),
        HealthRequest(request_id="h"),
        StatsRequest(request_id="s"),
    ], ids=lambda r: type(r).__name__)
    def test_correlate_stamps_a_copy_equal_to_replace(
        self, trained, tmp_path, unstamped
    ):
        server = make_server(trained, workers=1,
                             ops_log=OpsLogger(tmp_path / "ops.jsonl"))
        stamped = server._correlate(unstamped)
        assert len(stamped.trace_id) == 16
        assert type(stamped) is type(unstamped)
        assert stamped == replace(unstamped, trace_id=stamped.trace_id)
        sent = replace(unstamped, trace_id="feedfacecafebeef")
        assert server._correlate(sent) is sent

    def test_health_and_stats_bypass_the_queue(self, trained):
        # queue_size=1 with a queue already full: health/stats answer
        # anyway because they never enter the queue.
        server = make_server(trained, workers=1, queue_size=1)

        async def run():
            await server.start()
            blocked = [
                server.submit(DecisionRequest(
                    observation=obs_for(server.chip), request_id=f"r{i}"
                ))
                for i in range(3)
            ]
            health = await server.submit(HealthRequest(request_id="h"))
            stats = await server.submit(StatsRequest(request_id="s"))
            for f in blocked:
                await f
            await server.shutdown()
            return health, stats

        health, stats = asyncio.run(run())
        assert isinstance(health, HealthReply)
        assert health.status == "ok" and health.workers == 1
        assert isinstance(stats, StatsReply)
        assert stats.stats["served_health"] == 1
        assert stats.stats["served_stats"] == 1
        assert server.stats.served_health == 1
        # OOB kinds never count as served queue traffic.
        assert server.stats.served == server.stats.served_decisions

    def test_health_answers_while_draining(self, trained):
        server = make_server(trained, workers=1)

        async def run():
            await server.start()
            await server.shutdown()
            return await server.submit(HealthRequest(request_id="h"))

        reply = asyncio.run(run())
        assert isinstance(reply, HealthReply)
        assert reply.status == "stopped"

    def test_health_indicators_appear_under_observability(self, trained):
        server = make_server(trained, workers=1)

        async def run():
            await server.start()
            await server.submit(HealthRequest())
            for i in range(4):
                await server.request(DecisionRequest(
                    observation=obs_for(server.chip, utilization=i / 4)
                ))
            reply = await server.submit(HealthRequest())
            await server.shutdown()
            return reply

        with obs.capture(trace=False):
            reply = asyncio.run(run())
        assert reply.indicators["decision_latency_p50_s"] is not None
        assert reply.indicators["request_rate_per_s"] > 0


# ---------------------------------------------------------------------------
# The acceptance criterion: one trace_id across the merged timeline
# ---------------------------------------------------------------------------


class TestEndToEndCorrelation:
    DECISION_ID = "feedfeedfeedfeed"
    SIM_ID = "cafecafecafecafe"

    def _events_with(self, merged: dict, trace_id: str) -> list[dict]:
        return [
            e for e in merged["traceEvents"]
            if e.get("args", {}).get("trace_id") == trace_id
        ]

    def test_one_trace_id_spans_client_to_reply(self, trained, tmp_path):
        from repro.fleet.spec import JobSpec

        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        server = make_server(trained, workers=1, ops_log=ops_log)
        spec = JobSpec(
            scenario="idle", governor="powersave", chip="tiny",
            duration_s=1.0, seed=5, trace_dir=str(tmp_path / "jobs"),
        )
        requests = [
            DecisionRequest(
                observation=obs_for(server.chip), request_id="d1",
                trace_id=self.DECISION_ID,
            ),
            SimulationRequest(
                spec=spec, request_id="s1", trace_id=self.SIM_ID
            ),
        ]
        with obs.capture() as session:
            replies = asyncio.run(serve_once(server, requests))

        assert replies[0].trace_id == self.DECISION_ID
        assert replies[1].trace_id == self.SIM_ID

        # Stitch the server-side trace and the fleet worker's
        # flight-recorder trace onto one clock.
        from repro.obs import merge_trace_files

        serve_trace = tmp_path / "serve.json"
        write_chrome_trace(
            serve_trace, session.tracer, session.metrics,
            process_name="serve", pid=1,
            epoch_us=session.tracer.epoch_s * 1e6,
        )
        job_traces = sorted((tmp_path / "jobs").glob("*.json"))
        assert len(job_traces) == 1
        merged = merge_trace_files([serve_trace, *job_traces])

        # The decision's id follows client -> queue -> session -> reply.
        decision_names = {
            e["name"] for e in self._events_with(merged, self.DECISION_ID)
        }
        assert {"serve.request.queued", "serve.session.decide",
                "serve.request.replied"} <= decision_names

        # The simulation's id additionally crosses into the fleet
        # worker and the engine: client -> queue -> worker -> engine ->
        # reply, one id across both trace files.
        sim_names = {
            e["name"] for e in self._events_with(merged, self.SIM_ID)
        }
        assert {"serve.request.queued", "serve.request.dequeued",
                "fleet.job", "engine.run",
                "serve.request.replied"} <= sim_names

        # And the same ids land in the ops log, one record per request.
        records = OPS_LOG.read(ops_log.path)
        by_id = {r["trace_id"]: r for r in records}
        assert by_id[self.DECISION_ID]["kind"] == "decision"
        assert by_id[self.DECISION_ID]["outcome"] == "ok"
        assert by_id[self.SIM_ID]["kind"] == "simulation"
        assert by_id[self.SIM_ID]["outcome"] == "ok"

    def test_fleet_jobs_inherit_spec_trace_context(self, tmp_path):
        # The explicit hand-off: a JobSpec carrying a trace_context
        # re-binds it inside execute_job even though contextvars never
        # cross the executor boundary.
        from repro.fleet.spec import JobSpec
        from repro.fleet.worker import execute_job

        spec = JobSpec(
            scenario="idle", governor="powersave", chip="tiny",
            duration_s=1.0, seed=5, trace_dir=str(tmp_path),
            trace_context=TraceContext(trace_id="beefbeefbeefbeef"),
        )
        measurement = execute_job(spec)
        trace = json.loads(Path(measurement.trace_path).read_text())
        tagged = [
            e for e in trace["traceEvents"]
            if e.get("args", {}).get("trace_id") == "beefbeefbeefbeef"
        ]
        assert {"fleet.job", "engine.run"} <= {e["name"] for e in tagged}

    def test_run_fleet_logs_one_record_per_job(self, tmp_path):
        from repro.fleet import FleetSpec, run_fleet

        ops_log = OpsLogger(tmp_path / "fleet-ops.jsonl")
        spec = FleetSpec(
            scenarios=("idle",), governors=("performance", "powersave"),
            seeds=(100,), chips=("tiny",), duration_s=1.0,
        )
        result = run_fleet(spec, jobs=1, ops_log=ops_log)
        assert len(result.successes) == 2
        records = OPS_LOG.read(ops_log.path)
        assert len(records) == 2
        assert all(r["kind"] == "job" and r["outcome"] == "ok"
                   for r in records)
        assert sorted(r["job_id"] for r in records) == sorted(
            s.job_id for s in result.successes
        )

    def test_trace_context_never_touches_cache_identity(self):
        from repro.fleet.spec import JobSpec

        plain = JobSpec(scenario="idle", governor="powersave", chip="tiny",
                        duration_s=1.0, seed=5)
        traced = JobSpec(scenario="idle", governor="powersave", chip="tiny",
                         duration_s=1.0, seed=5,
                         trace_context=TraceContext(trace_id="abcd"))
        assert plain.to_mapping() == traced.to_mapping()
        round_tripped = JobSpec.from_mapping({
            **traced.to_mapping(),
            "trace_context": {"trace_id": "abcd"},
        })
        assert round_tripped.trace_context == traced.trace_context
