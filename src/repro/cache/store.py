"""The content-addressed run cache.

A fleet grid re-runs the same (spec, code) pairs constantly — repeated
``repro fleet`` invocations, overlapping sweeps, CI re-runs — and every
one of those jobs is deterministic in its spec alone (see
:mod:`repro.fleet.worker`).  The cache exploits that determinism: a
completed job's measurement is stored under a key derived *only* from
content —

    sha256(canonical JSON of {schema, engine_version, spec.to_mapping()})

— so equal specs collide on purpose and anything that could change the
numbers (the spec itself, the engine's simulated-numbers version
:data:`repro.sim.engine.ENGINE_VERSION`, the cache schema) changes the
key and silently invalidates old entries.  No timestamps, hostnames or
git SHAs participate: a hit is exactly "this code would recompute this
spec to these numbers".

Entries are one JSON file per key under the cache root
(``.repro/cache`` by default, overridden by the ``REPRO_CACHE_DIR``
environment variable or an explicit path).  Writes are atomic
(temp-file + rename) and **must** go through :meth:`RunCache.store` —
lint rule RPL601 flags ad-hoc writes under a cache directory, mirroring
the perf ledger's RPL501 discipline.  Each entry carries a sha256 of
its canonical ``measurement`` block, so an edited, truncated or
byte-flipped entry reads as a miss, never as different numbers.

Jobs whose results depend on more than the serialisable spec — a
``chip_obj`` escape hatch, a ``policy_config`` override, metric
snapshots or trace files that capture *this* execution — are not
cacheable and bypass the cache entirely (:func:`cacheable`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CacheError
from repro.fleet.spec import JobSpec
from repro.fleet.worker import JobMeasurement
from repro.obs import OBS
from repro.sim.engine import ENGINE_VERSION

DEFAULT_CACHE_DIR = ".repro/cache"
"""Default cache root, relative to the working directory."""

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
"""Environment variable overriding the default cache root."""

CACHE_SCHEMA_VERSION = 2
"""Bumped when the entry file shape changes incompatibly."""

#: The measurement fields persisted per entry (all floats).
_MEASUREMENT_FIELDS = (
    "energy_j",
    "mean_qos",
    "deadline_miss_rate",
    "energy_per_qos_j",
    "sim_duration_s",
)


def resolve_cache_dir(path: str | Path | None = None) -> Path:
    """The cache root to use: explicit path, env override, or default."""
    if path is not None:
        return Path(path)
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def _sha256_json(value: object) -> str:
    """The sha256 hex digest of a value's canonical JSON."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cacheable(spec: JobSpec) -> bool:
    """Whether a job's result is reusable across runs.

    A spec qualifies when it is fully serialisable (no ``chip_obj`` /
    ``policy_config``) and its measurement carries no per-execution
    artefacts (no metric snapshot, no trace file) — i.e. when two runs
    of the spec are interchangeable down to the last bit.
    """
    return (
        spec.chip_obj is None
        and spec.policy_config is None
        and not spec.collect_metrics
        and spec.trace_dir is None
    )


def cache_key(spec: JobSpec) -> str:
    """The spec's content hash (sha256 hex digest).

    The digest covers the canonical (sorted-keys, no-whitespace) JSON of
    the cache schema version, the engine version, and the spec mapping,
    so a bump to either version constant re-keys the whole cache.

    Raises:
        CacheError: For a non-cacheable spec.
    """
    if not cacheable(spec):
        raise CacheError(
            f"job {spec.job_id} is not cacheable (chip_obj/policy_config/"
            "collect_metrics/trace_dir make its result run-specific)"
        )
    return _sha256_json({
        "schema": CACHE_SCHEMA_VERSION,
        "engine_version": ENGINE_VERSION,
        "spec": spec.to_mapping(),
    })


@dataclass(frozen=True)
class CacheEntry:
    """One stored result, as listed by :meth:`RunCache.list_entries`."""

    key: str
    job_id: str
    engine_version: str
    created_s: float
    size_bytes: int
    path: str


@dataclass(frozen=True)
class CacheStats:
    """Aggregate cache occupancy, as printed by ``repro cache stats``."""

    root: str
    entries: int
    total_bytes: int


class RunCache:
    """Probe/store access to one cache directory.

    Args:
        root: Cache directory (default: ``REPRO_CACHE_DIR`` env or
            ``.repro/cache``).  Created lazily on the first store.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = resolve_cache_dir(root)

    def path_for(self, key: str) -> Path:
        """The entry file a key maps to."""
        return self.root / f"{key}.json"

    # -- probe / store ---------------------------------------------------

    def probe(self, spec: JobSpec) -> JobMeasurement | None:
        """The cached measurement for ``spec``, or ``None`` on a miss.

        Non-cacheable specs, absent entries, and corrupt/stale entry
        files all count as misses — a probe never raises on cache
        content, so a damaged cache degrades to recomputation rather
        than failure.  Every probe increments the ``cache.probes`` and
        ``cache.hits``/``cache.misses`` counters and emits a
        ``cache.probe`` trace instant when observability is on.
        """
        measurement: JobMeasurement | None = None
        if cacheable(spec):
            measurement = self._read_entry(self.path_for(cache_key(spec)))
        if OBS.enabled:
            m = OBS.metrics
            m.counter("cache.probes").inc()
            m.counter("cache.hits" if measurement else "cache.misses").inc()
            if OBS.tracer.enabled:
                OBS.tracer.instant(
                    "cache.probe",
                    cat="cache",
                    job_id=spec.job_id,
                    hit=measurement is not None,
                )
        return measurement

    def store(self, spec: JobSpec, measurement: JobMeasurement) -> bool:
        """Persist one completed measurement; returns whether it was stored.

        Non-cacheable specs are skipped (``False``).  The write is
        atomic — the entry appears fully formed or not at all — so
        concurrent fleets racing on the same spec simply overwrite each
        other with identical content.

        Raises:
            CacheError: If the cache directory cannot be created or
                written.
        """
        if not cacheable(spec):
            return False
        fields = {
            name: getattr(measurement, name) for name in _MEASUREMENT_FIELDS
        }
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": cache_key(spec),
            "engine_version": ENGINE_VERSION,
            "job_id": spec.job_id,
            "created_s": time.time(),
            "spec": spec.to_mapping(),
            "measurement": fields,
            "digest": _sha256_json(fields),
        }
        path = self.path_for(entry["key"])
        tmp = path.with_suffix(".tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        except OSError as exc:
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc
        if OBS.enabled:
            OBS.metrics.counter("cache.stores").inc()
        return True

    def _read_entry(self, path: Path) -> JobMeasurement | None:
        """Parse one entry file; any defect is a miss, never an error."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if data.get("engine_version") != ENGINE_VERSION:
            return None
        fields = data.get("measurement")
        if not isinstance(fields, dict):
            return None
        if data.get("digest") != _sha256_json(fields):
            return None
        try:
            return JobMeasurement(
                **{name: float(fields[name]) for name in _MEASUREMENT_FIELDS}
            )
        except (KeyError, TypeError, ValueError):
            return None

    # -- maintenance -----------------------------------------------------

    def list_entries(self) -> list[CacheEntry]:
        """All parseable entries, oldest first (unreadable files skipped)."""
        entries: list[CacheEntry] = []
        for path in sorted(self.root.glob("*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                size = path.stat().st_size
            except (OSError, ValueError):
                continue
            if not isinstance(data, dict):
                continue
            entries.append(
                CacheEntry(
                    key=str(data.get("key", path.stem)),
                    job_id=str(data.get("job_id", "?")),
                    engine_version=str(data.get("engine_version", "?")),
                    created_s=float(data.get("created_s", 0.0) or 0.0),
                    size_bytes=size,
                    path=str(path),
                )
            )
        entries.sort(key=lambda e: (e.created_s, e.key))
        return entries

    def stats(self) -> CacheStats:
        """Entry count and total size (zero for an absent root)."""
        entries = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return CacheStats(
            root=str(self.root), entries=entries, total_bytes=total
        )

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in list(self.root.glob("*.json")) + list(
            self.root.glob("*.tmp")
        ):
            try:
                path.unlink()
            except OSError:
                continue
            removed += path.suffix == ".json"
        return removed
