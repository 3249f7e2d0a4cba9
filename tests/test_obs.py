"""repro.obs core: tracer, metrics, the hub, and the zero-overhead guard."""

from __future__ import annotations

import pytest

from repro.core.trainer import train_policy
from repro.errors import ObsError
from repro.governors import create
from repro.obs import (
    NULL_TRACER,
    OBS,
    MetricsRegistry,
    Tracer,
    capture,
    disable,
    enable,
    format_breakdown,
    histogram_quantile,
    merge_snapshots,
    phase_breakdown,
)
from repro.sim.engine import Simulator
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario


class TestTracer:
    def test_nested_spans_record_tree(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b", cat="inner", k=1):
                pass
            with t.span("c"):
                pass
        # Spans land in completion order: children before their parent.
        assert [s.name for s in t.spans] == ["b", "c", "a"]
        b, c, a = t.spans
        assert a.parent_uid is None and a.depth == 0
        assert b.parent_uid == a.uid and b.depth == 1
        assert c.parent_uid == a.uid
        assert b.cat == "inner" and b.args == {"k": 1}
        # Balanced: once a fresh span closes, no span is open.
        handle = t.begin("d")
        t.end(handle)
        with pytest.raises(ObsError, match="no span is open"):
            t.end(handle)

    def test_timestamps_are_relative_microseconds(self):
        t = Tracer()
        handle = t.begin("x")
        t.end(handle)
        span = t.spans[0]
        assert span.start_us >= 0.0
        assert span.dur_us >= 0.0

    def test_out_of_order_close_raises(self):
        t = Tracer()
        outer = t.begin("outer")
        inner = t.begin("inner")
        with pytest.raises(ObsError, match="out of order"):
            t.end(outer)
        t.end(inner)
        t.end(outer)
        with pytest.raises(ObsError, match="no span is open"):
            t.end(outer)

    def test_instants_and_names(self):
        t = Tracer()
        t.instant("tick", cat="test", n=1)
        with t.span("s"):
            pass
        with t.span("s"):
            pass
        assert [i.name for i in t.instants] == ["tick"]
        assert t.instants[0].args == {"n": 1}
        assert t.span_names() == ["s"]
        t.clear()
        assert not t.spans and not t.instants

    def test_null_tracer_is_inert(self):
        n = NULL_TRACER
        assert not n.enabled
        assert not n  # probes guard with one truthiness check
        assert n.begin("x") is None
        n.end(None)
        with n.span("x"):
            n.instant("y")
        assert n.span_names() == []
        assert n.spans == () and n.instants == ()


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("sim.runs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ObsError, match="cannot decrease"):
            c.inc(-1.0)

    def test_gauge_last_value(self):
        g = MetricsRegistry().gauge("rl.epsilon")
        g.set(0.4)
        g.add(0.1)
        assert g.value == pytest.approx(0.5)

    def test_histogram_buckets(self):
        h = MetricsRegistry().histogram("x", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3 and h.mean == pytest.approx(55.5 / 3)
        assert h.min == 0.5 and h.max == 50.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ObsError, match="strictly increasing"):
            MetricsRegistry().histogram("x", buckets=(10.0, 1.0))

    def test_registry_get_or_create_and_type_conflict(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(ObsError, match="already registered"):
            reg.gauge("a")
        assert reg.names() == ["a"] and len(reg) == 1

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2.0}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_snapshots(self):
        def snap(c, g, values):
            reg = MetricsRegistry()
            reg.counter("jobs").inc(c)
            reg.gauge("qos").set(g)
            h = reg.histogram("err", buckets=(1.0, 10.0))
            for v in values:
                h.observe(v)
            return reg.snapshot()

        merged = merge_snapshots([snap(1, 0.8, [0.5]), snap(2, 0.6, [5.0])])
        assert merged["counters"]["jobs"] == 3.0
        assert merged["gauges"]["qos"] == pytest.approx(0.7)
        assert merged["gauges"]["qos.jobs"] == 2.0
        assert merged["histograms"]["err"]["count"] == 2
        assert merged["histograms"]["err"]["bucket_counts"] == [1, 1, 0]

    def test_merge_rejects_incompatible_bounds(self):
        a = {"histograms": {"h": {"bounds": [1.0], "bucket_counts": [0, 0],
                                  "count": 0, "sum": 0.0, "min": None,
                                  "max": None}}}
        b = {"histograms": {"h": {"bounds": [2.0], "bucket_counts": [0, 0],
                                  "count": 0, "sum": 0.0, "min": None,
                                  "max": None}}}
        with pytest.raises(ObsError, match="bounds differ"):
            merge_snapshots([a, b])

    def test_merge_empty_input_is_empty_snapshot(self):
        assert merge_snapshots([]) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_merge_disjoint_metric_sets_union(self):
        a = {"counters": {"jobs": 1.0}, "gauges": {"qos": 0.8}}
        b = {"counters": {"retries": 2.0}, "gauges": {"temp": 40.0}}
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"jobs": 1.0, "retries": 2.0}
        # Each gauge saw exactly one job, so averages are identities.
        assert merged["gauges"]["qos"] == 0.8
        assert merged["gauges"]["temp"] == 40.0
        assert merged["gauges"]["qos.jobs"] == 1.0
        assert merged["gauges"]["temp.jobs"] == 1.0

    def test_merge_histogram_min_max_ignore_empty_jobs(self):
        def snap(values):
            reg = MetricsRegistry()
            h = reg.histogram("h", buckets=(1.0, 10.0))
            for v in values:
                h.observe(v)
            return reg.snapshot()

        merged = merge_snapshots([snap([]), snap([0.5, 5.0]), snap([])])
        h = merged["histograms"]["h"]
        assert h["count"] == 2
        assert h["min"] == 0.5 and h["max"] == 5.0
        empty = merge_snapshots([snap([]), snap([])])["histograms"]["h"]
        assert empty["min"] is None and empty["max"] is None


class TestHistogramQuantile:
    def _snapshot(self, values, buckets=(1.0, 10.0, 100.0)):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=buckets)
        for v in values:
            h.observe(v)
        return reg.snapshot()["histograms"]["h"]

    def test_interpolates_inside_bucket(self):
        # 10 observations spread over (1, 10]: the median interpolates
        # halfway into that bucket.
        h = self._snapshot([2.0] * 10)
        assert 1.0 < histogram_quantile(h, 0.5) <= 10.0

    def test_extremes_use_recorded_min_max(self):
        h = self._snapshot([0.2, 0.4, 500.0])
        # The overflow (+Inf) bucket resolves to the recorded max...
        assert histogram_quantile(h, 1.0) == 500.0
        # ...and the first bucket's lower edge is the recorded min.
        assert histogram_quantile(h, 0.0) >= 0.0

    def test_empty_histogram_is_none(self):
        assert histogram_quantile(self._snapshot([]), 0.5) is None

    def test_out_of_range_q_raises(self):
        h = self._snapshot([1.0])
        with pytest.raises(ObsError, match="quantile"):
            histogram_quantile(h, 1.5)
        with pytest.raises(ObsError, match="quantile"):
            histogram_quantile(h, -0.1)

    def test_monotone_in_q(self):
        h = self._snapshot([0.5, 2.0, 3.0, 20.0, 150.0])
        qs = [histogram_quantile(h, q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_single_observation_every_q_is_that_value(self):
        # One sample: min == max == the sample, and every quantile must
        # collapse onto it (no interpolation artefacts off a lone point).
        h = self._snapshot([5.0])
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram_quantile(h, q) == pytest.approx(5.0)

    def test_q_zero_and_one_bracket_the_data(self):
        values = [0.3, 2.0, 7.5, 42.0]
        h = self._snapshot(values)
        lo = histogram_quantile(h, 0.0)
        hi = histogram_quantile(h, 1.0)
        assert lo <= min(values)
        assert hi == max(values)
        for q in (0.1, 0.5, 0.9):
            assert lo <= histogram_quantile(h, q) <= hi

    def test_quantiles_over_merged_snapshots(self):
        # Quantiles must be computable off a merged snapshot exactly as
        # off a single registry that saw the union of observations.
        def snap(values):
            reg = MetricsRegistry()
            h = reg.histogram("h", buckets=(1.0, 10.0, 100.0))
            for v in values:
                h.observe(v)
            return reg.snapshot()

        a, b = [0.5, 2.0, 3.0], [20.0, 150.0]
        merged = merge_snapshots([snap(a), snap(b)])["histograms"]["h"]
        union = self._snapshot(a + b)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert histogram_quantile(merged, q) == pytest.approx(
                histogram_quantile(union, q)
            )
        # Merging an empty snapshot in changes nothing.
        padded = merge_snapshots(
            [snap(a), snap([]), snap(b)]
        )["histograms"]["h"]
        assert histogram_quantile(padded, 0.5) == pytest.approx(
            histogram_quantile(union, 0.5)
        )


class TestHub:
    def test_disabled_by_default(self):
        assert not OBS.enabled
        assert OBS.tracer is NULL_TRACER

    def test_capture_installs_and_restores(self):
        with capture() as session:
            assert OBS.enabled
            assert OBS.tracer is session.tracer
            assert OBS.metrics is session.metrics
            with capture(trace=False) as inner:
                assert OBS.tracer is NULL_TRACER
                assert OBS.metrics is inner.metrics
            assert OBS.tracer is session.tracer
        assert not OBS.enabled and OBS.tracer is NULL_TRACER

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert not OBS.enabled

    def test_enable_disable(self):
        session = enable()
        try:
            assert OBS.enabled and OBS.tracer is session.tracer
        finally:
            disable()
        assert not OBS.enabled
        # Session data stays reachable after disable.
        assert session.tracer.spans == []


PHASE_COUNTERS = tuple(
    f"engine.phase.{phase}_s"
    for phase in ("governor", "schedule", "drain", "power_thermal", "observe")
)


def _run_once(seed: int = 7, duration_s: float = 2.0):
    trace = get_scenario("audio_playback").trace(duration_s, seed=seed)
    sim = Simulator(tiny_test_chip(), trace, lambda c: create("ondemand"))
    return sim.run()


class TestZeroOverheadGuard:
    def test_tracing_off_is_bit_identical(self):
        """The instrumented engine with observability off must produce
        exactly the result an enabled run produces — same floats, same
        QoS rows — and a fresh disabled run afterwards must still match."""
        baseline = _run_once()
        with capture() as session:
            instrumented = _run_once()
        assert instrumented == baseline
        assert session.tracer.spans  # the enabled run did record
        assert _run_once() == baseline

    def test_engine_records_phases_and_decisions(self):
        with capture() as session:
            _run_once()
        assert session.tracer.span_names() == ["engine.run"]
        decisions = [i for i in session.tracer.instants
                     if i.name == "governor.decide"]
        assert decisions
        assert {"governor", "cluster", "opp_before", "opp_chosen",
                "utilization"} <= set(decisions[0].args)
        snap = session.metrics.snapshot()
        assert snap["counters"]["sim.runs"] == 1.0
        assert snap["counters"]["sim.intervals"] > 0
        assert set(PHASE_COUNTERS) <= set(snap["counters"])

    def test_traced_run_records_constant_spans(self):
        """Span count does not grow with run length: the phases are
        counters, not per-interval spans."""
        counts = []
        for duration_s in (0.5, 4.0):
            with capture() as session:
                _run_once(duration_s=duration_s)
            counts.append(len(session.tracer.spans))
        assert counts == [1, 1]

    def test_phase_counters_fit_inside_the_run_span(self):
        with capture() as session:
            _run_once()
        counters = session.metrics.snapshot()["counters"]
        phases = [counters[name] for name in PHASE_COUNTERS]
        assert all(seconds >= 0.0 for seconds in phases)
        (run_span,) = session.tracer.spans
        assert 0.0 < sum(phases) * 1e6 <= run_span.dur_us

    def test_metrics_only_run_passes_a_falsy_tracer(self, monkeypatch):
        """A metrics-only session records no decision instants, so the
        engine must hand governors a falsy tracer."""
        from repro.governors.base import Governor

        seen = []
        original = Governor.decide_traced

        def spy(self, obs, tracer=None):
            seen.append(bool(tracer))
            return original(self, obs, tracer)

        monkeypatch.setattr(Governor, "decide_traced", spy)
        with capture(trace=False) as session:
            _run_once()
        assert seen and not any(seen)
        counters = session.metrics.snapshot()["counters"]
        assert set(PHASE_COUNTERS) <= set(counters)

    def test_trainer_emits_convergence_metrics(self):
        with capture() as session:
            train_policy(
                tiny_test_chip(),
                get_scenario("audio_playback"),
                episodes=2,
                episode_duration_s=1.0,
            )
        snap = session.metrics.snapshot()
        assert snap["counters"]["rl.episodes"] == 2.0
        assert "rl.epsilon" in snap["gauges"]
        assert "rl.q_coverage" in snap["gauges"]
        assert snap["histograms"]["rl.td_error_mean_abs"]["count"] == 2
        episodes = [i for i in session.tracer.instants
                    if i.name == "rl.episode"]
        assert len(episodes) == 2
        assert {"episode", "td_error_mean_abs", "epsilon", "q_coverage",
                "reward"} <= set(episodes[0].args)

    def test_disabled_trainer_history_still_carries_convergence(self):
        result = train_policy(
            tiny_test_chip(),
            get_scenario("audio_playback"),
            episodes=2,
            episode_duration_s=1.0,
        )
        record = result.history[-1]
        assert record.td_error_mean_abs >= 0.0
        assert 0.0 <= record.epsilon <= 1.0


class TestPhaseBreakdown:
    def test_breakdown_from_engine_counters(self):
        with capture() as session:
            _run_once()
        snap = session.metrics.snapshot()
        stats = phase_breakdown(snap)
        assert [p.name + "_s" for p in stats] == sorted(
            PHASE_COUNTERS, key=lambda name: -snap["counters"][name]
        )
        intervals = int(snap["counters"]["sim.intervals"])
        for p in stats:
            assert p.count == intervals
            assert p.total_us == snap["counters"][p.name + "_s"] * 1e6
            assert p.mean_us == pytest.approx(p.total_us / intervals)
        text = format_breakdown(stats)
        assert "engine.phase.governor" in text and "share" in text

    def test_breakdown_empty(self):
        assert phase_breakdown({}) == []
        assert "no engine phase counters" in format_breakdown([])
