"""The content-addressed run cache and its fleet integration."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    RunCache,
    cache_key,
    cacheable,
    resolve_cache_dir,
)
from repro.errors import CacheError
from repro.fleet import (
    EventLog,
    JobCached,
    JobDone,
    JobMeasurement,
    JobQueued,
    JobSpec,
    run_fleet,
)
from repro.soc.presets import tiny_test_chip

from conftest import damaged


def _spec(**kw) -> JobSpec:
    base = dict(scenario="idle", governor="performance", seed=100,
                duration_s=1.0)
    base.update(kw)
    return JobSpec(**base)


def _measurement() -> JobMeasurement:
    return JobMeasurement(
        energy_j=1.25,
        mean_qos=0.875,
        deadline_miss_rate=0.0625,
        energy_per_qos_j=1.25 / 0.875,
        sim_duration_s=1.0,
    )


class TestKeying:
    def test_key_is_stable(self):
        assert cache_key(_spec()) == cache_key(_spec())

    def test_key_covers_every_spec_field(self):
        base = _spec()
        for changed in (
            _spec(seed=200),
            _spec(governor="powersave"),
            _spec(scenario="gaming"),
            _spec(duration_s=2.0),
            _spec(interval_s=0.02),
            _spec(train_episodes=3),
        ):
            assert cache_key(changed) != cache_key(base)

    def test_uncacheable_specs(self):
        assert cacheable(_spec())
        assert not cacheable(_spec(collect_metrics=True))
        assert not cacheable(_spec(trace_dir="/tmp/t"))
        assert not cacheable(_spec(chip_obj=tiny_test_chip()))
        with pytest.raises(CacheError, match="not cacheable"):
            cache_key(_spec(collect_metrics=True))

    def test_resolve_dir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert str(resolve_cache_dir(None)) == DEFAULT_CACHE_DIR
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"
        # An explicit path always beats the environment.
        assert resolve_cache_dir(tmp_path / "x") == tmp_path / "x"


class TestStore:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        cache = RunCache(tmp_path)
        spec, m = _spec(), _measurement()
        assert cache.probe(spec) is None
        assert cache.store(spec, m)
        got = cache.probe(spec)
        assert got == m  # frozen dataclass equality: exact floats

    def test_store_skips_uncacheable(self, tmp_path):
        cache = RunCache(tmp_path)
        assert not cache.store(_spec(collect_metrics=True), _measurement())
        assert cache.stats().entries == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        cache.store(spec, _measurement())
        cache.path_for(cache_key(spec)).write_text("{not json")
        assert cache.probe(spec) is None

    def test_edited_measurement_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        cache.store(spec, _measurement())
        path = cache.path_for(cache_key(spec))
        text = path.read_text()
        assert '"energy_j": 1.25' in text
        path.write_text(text.replace('"energy_j": 1.25', '"energy_j": 1.95'))
        assert cache.probe(spec) is None

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_or_flipped_entry_never_reads_wrong(
        self, tmp_path, data
    ):
        cache = RunCache(tmp_path)
        spec, m = _spec(), _measurement()
        assert cache.store(spec, m)
        path = cache.path_for(cache_key(spec))
        path.write_bytes(damaged(data, path.read_bytes()))
        got = cache.probe(spec)
        assert got is None or got == m

    def test_stale_engine_version_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = _spec()
        cache.store(spec, _measurement())
        path = cache.path_for(cache_key(spec))
        entry = json.loads(path.read_text())
        entry["engine_version"] = "0.0"
        path.write_text(json.dumps(entry))
        assert cache.probe(spec) is None

    def test_list_stats_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        specs = [_spec(seed=s) for s in (1, 2, 3)]
        for spec in specs:
            cache.store(spec, _measurement())
        entries = cache.list_entries()
        assert len(entries) == 3
        assert {e.job_id for e in entries} == {s.job_id for s in specs}
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats().entries == 0
        assert cache.probe(specs[0]) is None

    def test_interleaved_stores_of_one_spec(self, tmp_path, monkeypatch):
        # Two writers of one spec, the second storing between the first's
        # write and its rename: each fills a temp file of its own, both
        # renames succeed and the last one wins.
        cache = RunCache(tmp_path)
        spec = _spec()
        first = _measurement()
        second = replace(first, energy_j=2.5)
        real_replace = os.replace

        def rival_stores_first(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            assert cache.store(spec, second)
            assert cache.probe(spec) == second
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", rival_stores_first)
        assert cache.store(spec, first)
        assert cache.probe(spec) == first
        assert cache.stats().entries == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)
        spec = _spec()

        def refuse(src, dst):
            raise PermissionError(13, "refused", str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(CacheError, match="cannot write cache entry"):
            cache.store(spec, _measurement())
        assert list(tmp_path.iterdir()) == []

    def test_clear_removes_a_stray_temp_file(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.store(_spec(), _measurement())
        stray = tmp_path / f"{cache_key(_spec())}.0123456789abcdef.tmp"
        stray.write_text("{")
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_obs_counters(self, tmp_path):
        from repro.obs import capture

        cache = RunCache(tmp_path)
        spec = _spec()
        with capture(trace=False) as session:
            assert cache.probe(spec) is None
            cache.store(spec, _measurement())
            assert cache.probe(spec) is not None
            snap = session.metrics.snapshot()
        counters = snap["counters"]
        assert counters["cache.probes"] == 2
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.stores"] == 1


def test_job_cached_event_formats():
    from repro.fleet import format_event

    line = format_event(
        JobCached(index=0, job_id="chip/s/g/s100", wall_s=0.0005),
        ts="2026-01-01T00:00:00",
    )
    assert line == "2026-01-01T00:00:00 cache chip/s/g/s100  hit (0.50 ms)"


class TestFleetIntegration:
    GRID = [
        _spec(governor="performance"),
        _spec(governor="powersave"),
    ]

    def test_second_run_is_all_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        cold = run_fleet(self.GRID, jobs=1, cache=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)

        log = EventLog()
        warm = run_fleet(self.GRID, jobs=1, cache=cache, on_event=log)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        # No job was queued, let alone simulated.
        assert log.count(JobQueued) == 0
        assert log.count(JobDone) == 0
        assert log.count(JobCached) == 2
        # Rows are bit-identical to the cold run, in grid order.
        assert warm.sweep_result().rows == cold.sweep_result().rows
        assert [s.cached for s in warm.successes] == [True, True]
        assert [s.attempts for s in warm.successes] == [0, 0]

    def test_partial_hits_interleave_in_grid_order(self, tmp_path):
        cache = RunCache(tmp_path)
        run_fleet(self.GRID[:1], jobs=1, cache=cache)
        grid = self.GRID + [_spec(governor="userspace")]
        result = run_fleet(grid, jobs=1, cache=cache)
        assert (result.cache_hits, result.cache_misses) == (1, 2)
        assert [s.cached for s in result.successes] == [True, False, False]
        assert [s.index for s in result.successes] == [0, 1, 2]

    def test_uncacheable_jobs_always_execute(self, tmp_path):
        cache = RunCache(tmp_path)
        grid = [replace(self.GRID[0], collect_metrics=True)]
        for _ in range(2):
            result = run_fleet(grid, jobs=1, cache=cache)
            assert (result.cache_hits, result.cache_misses) == (0, 1)
        assert cache.stats().entries == 0

    def test_cache_true_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "via-env"))
        run_fleet(self.GRID[:1], jobs=1, cache=True)
        warm = run_fleet(self.GRID[:1], jobs=1, cache=True)
        assert warm.cache_hits == 1
        assert (tmp_path / "via-env").is_dir()

    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "untouched"))
        run_fleet(self.GRID[:1], jobs=1)
        assert not (tmp_path / "untouched").exists()

    def test_pool_run_stores_and_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        grid = [_spec(governor=g, seed=s)
                for g in ("performance", "powersave")
                for s in (100, 200)]
        cold = run_fleet(grid, jobs=2, cache=cache)
        assert cold.cache_misses == 4
        warm = run_fleet(grid, jobs=2, cache=cache)
        assert warm.cache_hits == 4
        assert warm.sweep_result().rows == cold.sweep_result().rows
