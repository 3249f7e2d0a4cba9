"""Exporter round-trips: Chrome trace_event, JSONL, Prometheus text."""

from __future__ import annotations

import json

import pytest

from repro.core.trainer import train_policy
from repro.errors import ObsError
from repro.governors import create
from repro.obs import (
    EPOCH_METADATA_NAME,
    MetricsRegistry,
    Tracer,
    capture,
    chrome_trace,
    load_chrome_trace,
    load_snapshot,
    merge_trace_files,
    merge_traces,
    prometheus_text,
    read_jsonl,
    span_tree,
    trace_lanes,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.engine import Simulator
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario


def _traced_run(duration_s: float = 1.0):
    trace = get_scenario("audio_playback").trace(duration_s, seed=3)
    with capture() as session:
        Simulator(tiny_test_chip(), trace, lambda c: create("ondemand")).run()
    return session


def _sample_tracer_and_metrics():
    tracer = Tracer()
    with tracer.span("outer", cat="test", run=1):
        with tracer.span("inner"):
            tracer.instant("mark", cat="test", k=2)
        with tracer.span("inner"):
            pass
    metrics = MetricsRegistry()
    metrics.counter("jobs").inc(3)
    metrics.gauge("qos").set(0.9)
    metrics.histogram("err", buckets=(1.0, 10.0)).observe(0.5)
    return tracer, metrics


class TestChromeTrace:
    def test_engine_round_trip_has_phase_counters(self, tmp_path):
        """A written engine trace parses back into one run span and the
        five phase-time counters, whatever the run length."""
        session = _traced_run()
        path = write_chrome_trace(tmp_path / "t.json", session.tracer,
                                  session.metrics)
        data = load_chrome_trace(path)  # validates the schema
        events = data["traceEvents"]
        assert [e["name"] for e in events if e["ph"] == "X"] == ["engine.run"]
        phase_counters = {e["name"] for e in events
                          if e["ph"] == "C"
                          and e["name"].startswith("engine.phase.")}
        assert phase_counters == {
            f"engine.phase.{phase}_s" for phase in
            ("governor", "schedule", "drain", "power_thermal", "observe")
        }

    def test_rl_convergence_events_per_episode(self, tmp_path):
        episodes = 2
        with capture() as session:
            train_policy(
                tiny_test_chip(),
                get_scenario("audio_playback"),
                episodes=episodes,
                episode_duration_s=1.0,
            )
        path = write_chrome_trace(tmp_path / "rl.json", session.tracer,
                                  session.metrics)
        events = load_chrome_trace(path)["traceEvents"]
        rl = [e for e in events if e.get("name") == "rl.episode"]
        assert len(rl) == episodes
        for e in rl:
            assert e["ph"] == "i"
            assert {"td_error_mean_abs", "epsilon", "q_coverage"} <= set(e["args"])
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "rl.episodes" in counters

    def test_structure_and_metadata(self):
        tracer, metrics = _sample_tracer_and_metrics()
        data = chrome_trace(tracer, metrics, process_name="unit")
        validate_chrome_trace(data)
        events = data["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "unit"
        assert sum(1 for e in events if e["ph"] == "X") == 3
        assert sum(1 for e in events if e["ph"] == "i") == 1
        # Counters and gauges each become a counter-track event.
        assert sum(1 for e in events if e["ph"] == "C") == 2

    def test_validate_rejects_malformed(self, tmp_path):
        with pytest.raises(ObsError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ObsError, match="missing"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ObsError, match="finite"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "ts": float("nan"), "pid": 0,
                 "tid": 0, "dur": 1.0}
            ]})
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ObsError, match="not JSON"):
            load_chrome_trace(bad)


class TestJsonl:
    def test_round_trip_identical_span_tree(self, tmp_path):
        tracer, metrics = _sample_tracer_and_metrics()
        path = write_jsonl(tmp_path / "t.jsonl", tracer, metrics)
        spans, instants, snapshot = read_jsonl(path)
        assert spans == tracer.spans
        assert instants == tracer.instants
        assert snapshot == metrics.snapshot()
        assert span_tree(spans) == span_tree(tracer.spans)

    def test_engine_dump_reloads(self, tmp_path):
        session = _traced_run()
        path = write_jsonl(tmp_path / "e.jsonl", session.tracer,
                           session.metrics)
        spans, instants, snapshot = read_jsonl(path)
        assert spans == session.tracer.spans
        assert [i.name for i in instants] == \
            [i.name for i in session.tracer.instants]
        assert snapshot["counters"]["sim.runs"] == 1.0
        tree = span_tree(spans)
        assert [s.name for s in tree[None]] == ["engine.run"]
        assert set(tree) == {None}  # no per-interval children

    def test_malformed_lines_raise(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        with pytest.raises(ObsError, match="not JSON"):
            read_jsonl(bad)
        bad.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ObsError, match="unknown kind"):
            read_jsonl(bad)


class TestPrometheus:
    def test_exposition_format(self):
        _, metrics = _sample_tracer_and_metrics()
        text = prometheus_text(metrics)
        lines = text.splitlines()
        assert "# TYPE repro_jobs counter" in lines
        assert "repro_jobs 3" in lines
        assert "repro_qos 0.9" in lines
        assert "# TYPE repro_err histogram" in lines
        assert 'repro_err_bucket{le="1"} 1' in lines
        assert 'repro_err_bucket{le="+Inf"} 1' in lines
        assert "repro_err_count 1" in lines

    def test_accepts_plain_snapshot_and_sanitises_names(self):
        reg = MetricsRegistry()
        reg.counter("sim.opp-switches").inc()
        text = prometheus_text(reg.snapshot(), prefix="x")
        assert "x_sim_opp_switches 1" in text

    def test_overflow_observations_land_in_inf_bucket(self):
        """Observations above the top bound appear only in +Inf, and the
        cumulative counts still total the observation count."""
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 100.0, 200.0):
            h.observe(v)
        lines = prometheus_text(reg).splitlines()
        assert 'repro_lat_bucket{le="1"} 1' in lines
        assert 'repro_lat_bucket{le="10"} 2' in lines
        assert 'repro_lat_bucket{le="+Inf"} 4' in lines
        assert "repro_lat_count 4" in lines

    def test_hostile_metric_names_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter('evil"name{}\\').inc()
        reg.gauge("0starts.with-digit").set(1.0)
        text = prometheus_text(reg)
        for line in text.splitlines():
            name = line.split()[1] if line.startswith("#") else line.split()[0]
            name = name.split("{")[0]
            assert name[0].isalpha() or name[0] == "_"
            assert all(c.isalnum() or c == "_" for c in name)

    def test_constant_labels_attach_to_every_series(self):
        reg = MetricsRegistry()
        reg.counter("jobs").inc()
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = prometheus_text(reg, labels={"job": "serve", "host": "a"})
        # Sorted label keys, merged with `le` on buckets.
        assert 'repro_jobs{host="a",job="serve"} 1' in text
        assert 'repro_lat_bucket{host="a",job="serve",le="1"} 1' in text
        assert 'repro_lat_bucket{host="a",job="serve",le="+Inf"} 1' in text
        assert 'repro_lat_sum{host="a",job="serve"}' in text
        assert 'repro_lat_count{host="a",job="serve"} 1' in text

    def test_hostile_label_values_are_escaped(self):
        """Backslashes, quotes, and newlines in label values must escape
        per the exposition format: \\ -> \\\\, " -> \\", newline -> \\n.
        """
        reg = MetricsRegistry()
        reg.counter("jobs").inc()
        text = prometheus_text(
            reg,
            labels={"path": 'C:\\tmp\\"x"', "note": "line1\nline2"},
        )
        line = next(
            ln for ln in text.splitlines() if ln.startswith("repro_jobs{")
        )
        assert "\n" not in line  # a raw newline would split the series
        assert '\\n' in line
        assert 'path="C:\\\\tmp\\\\\\"x\\""' in line
        assert 'note="line1\\nline2"' in line

    def test_hostile_label_names_are_sanitised(self):
        reg = MetricsRegistry()
        reg.counter("jobs").inc()
        text = prometheus_text(reg, labels={'0bad"name': "v"})
        line = next(
            ln for ln in text.splitlines() if ln.startswith("repro_jobs{")
        )
        label_name = line.split("{")[1].split("=")[0]
        assert label_name[0].isalpha() or label_name[0] == "_"
        assert all(c.isalnum() or c == "_" for c in label_name)


def _trace_with_epoch(pid: int, epoch_us: float, name: str):
    tracer = Tracer()
    with tracer.span(f"{name}.work"):
        pass
    return chrome_trace(tracer, process_name=name, pid=pid, epoch_us=epoch_us)


class TestTraceMerge:
    def test_epoch_shift_aligns_lanes(self):
        """The later-starting trace's events shift right by the epoch
        difference; the earliest trace defines t=0."""
        early = _trace_with_epoch(100, 1_000_000.0, "job-a")
        late = _trace_with_epoch(200, 1_000_500.0, "job-b")
        original = {e["pid"]: e["ts"]
                    for t in (early, late)
                    for e in t["traceEvents"] if e["ph"] == "X"}
        merged = merge_traces([early, late])
        validate_chrome_trace(merged)
        spans = {e["pid"]: e for e in merged["traceEvents"]
                 if e["ph"] == "X"}
        assert spans[100]["ts"] == pytest.approx(original[100])
        assert spans[200]["ts"] == pytest.approx(original[200] + 500.0)
        assert trace_lanes(merged) == [100, 200]

    def test_lane_labels_collect_job_names(self):
        a = _trace_with_epoch(7, 0.0, "job-a")
        b = _trace_with_epoch(7, 0.0, "job-b")  # same pool worker
        merged = merge_traces([a, b])
        labels = [e["args"]["name"] for e in merged["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "process_name"]
        assert labels == ["job-a | job-b"]

    def test_unstamped_traces_keep_their_timestamps(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        plain = chrome_trace(tracer, pid=3)  # no epoch metadata
        merged = merge_traces([plain])
        (span,) = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        assert span["ts"] == pytest.approx(tracer.spans[0].start_us)

    def test_empty_input_raises(self):
        with pytest.raises(ObsError, match="at least one"):
            merge_traces([])
        with pytest.raises(ObsError, match="traceEvents"):
            merge_traces([{"not": "a trace"}])

    def test_merge_trace_files_round_trip(self, tmp_path):
        paths = []
        for k in range(2):
            data = _trace_with_epoch(k + 1, k * 100.0, f"job-{k}")
            p = tmp_path / f"t{k}.json"
            p.write_text(json.dumps(data))
            paths.append(p)
        out = tmp_path / "merged.json"
        merged = merge_trace_files(paths, out=out)
        assert trace_lanes(merged) == [1, 2]
        reloaded = load_chrome_trace(out)
        assert trace_lanes(reloaded) == [1, 2]


class TestLoadSnapshot:
    def test_sniffs_chrome_format(self, tmp_path):
        tracer, metrics = _sample_tracer_and_metrics()
        path = write_chrome_trace(tmp_path / "t.json", tracer, metrics)
        # Counters and gauges both travel as "C" events.
        assert load_snapshot(path) == {"counters": {"jobs": 3.0, "qos": 0.9}}

    def test_sniffs_jsonl_format(self, tmp_path):
        tracer, metrics = _sample_tracer_and_metrics()
        path = write_jsonl(tmp_path / "t.jsonl", tracer, metrics)
        assert load_snapshot(path) == metrics.snapshot()
        bare = write_jsonl(tmp_path / "bare.jsonl", tracer)
        assert load_snapshot(bare) == {}

    def test_chrome_counters_sum_across_pids(self, tmp_path):
        """A merged fleet trace profiles the whole grid: every "C" event
        of a name adds up, whatever its pid; spans and instants do not
        count."""
        tracer, metrics = _sample_tracer_and_metrics()
        merged = merge_traces([
            chrome_trace(tracer, metrics, pid=1),
            chrome_trace(tracer, metrics, pid=2),
            chrome_trace(tracer, metrics, pid=2),
        ])
        path = tmp_path / "merged.json"
        path.write_text(json.dumps(merged))
        assert load_snapshot(path) == {"counters": {"jobs": 9.0, "qos": 2.7}}

    def test_garbage_raises(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("neither format")
        with pytest.raises(ObsError):
            load_snapshot(bad)

    def test_epoch_metadata_name_is_stable(self):
        # Saved traces embed this name; renaming it orphans old files.
        assert EPOCH_METADATA_NAME == "trace_epoch_us"
