"""The append-only performance ledger: one JSONL line per run record.

A :class:`RunRecord` is the durable trace of one measured execution —
``repro run`` / ``compare`` / ``fleet`` invocations and every benchmark
append one (or one per grid row) through :func:`record_run`, the single
blessed writer (lint rule RPL501 flags ad-hoc ledger writes).  Records
carry the run id, git SHA, wall-clock timestamp, the identity config
(scenario/governor/seed/chip/...), and a flat metric dict, so the
regression engine in :mod:`repro.perf.regress` can reduce repeated
samples per ``(config key, metric)`` and test the trajectory across
commits.  Cache-aware fleets (``repro fleet --cache``) fold run-cache
effectiveness into the same stream: the grid summary record carries
``cache_hits``/``cache_misses``, and per-job ``cache.*`` counters from
the observability registry flow through
:func:`metrics_from_snapshot` like any other counter.

The ledger lives at ``.repro/perf-ledger.jsonl`` by default; override
with the ``REPRO_PERF_LEDGER`` environment variable or an explicit
path.  Appends and reads go through :data:`PERF_LEDGER`, the ledger's
:class:`~repro.obs.ledger.LedgerKind`: appends are line-atomic (one
``write`` per record), and readers skip blank lines and a torn final
line, so concurrent benches interleave safely.
"""

from __future__ import annotations

import os
import subprocess
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import PerfError
from repro.obs.ledger import LedgerKind
from repro.obs.metrics import histogram_quantile

DEFAULT_LEDGER_PATH = ".repro/perf-ledger.jsonl"
"""Default ledger location, relative to the working directory."""

LEDGER_ENV_VAR = "REPRO_PERF_LEDGER"
"""Environment variable overriding the default ledger path."""

LEDGER_SCHEMA_VERSION = 1
"""Bumped when the record shape changes incompatibly."""

#: Histogram quantiles flattened into ledger metrics.
SNAPSHOT_QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True)
class RunRecord:
    """One measured execution in the ledger.

    Attributes:
        run_id: Identifier shared by all records of one invocation
            (e.g. every governor row of one ``repro compare``).
        kind: Producer family — ``"run"``, ``"compare"``, ``"fleet"``,
            or ``"bench"``.
        name: What was measured (scenario or bench id).
        config: Identity of the measurement — scenario, governor, seed,
            chip, durations.  Two records with equal :meth:`key` are
            repeated samples of the same quantity.
        metrics: Flat metric-name → value mapping.
        git_sha: Abbreviated commit of the working tree ("unknown"
            outside a git checkout).
        timestamp_s: Unix wall-clock seconds at record time.
        schema: Ledger schema version.
    """

    run_id: str
    kind: str
    name: str
    config: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    git_sha: str = "unknown"
    timestamp_s: float = 0.0
    schema: int = LEDGER_SCHEMA_VERSION

    def key(self) -> str:
        """The sample-grouping identity: kind, name, and sorted config.

        Records sharing a key are repeated measurements of the same
        configuration; the regression engine compares per key.
        """
        parts = [self.kind, self.name]
        parts += [f"{k}={self.config[k]}" for k in sorted(self.config)]
        return ":".join(parts)

    def to_mapping(self) -> dict[str, Any]:
        """The JSON line payload."""
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "git_sha": self.git_sha,
            "timestamp_s": self.timestamp_s,
            "config": dict(self.config),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from a parsed ledger line.

        Raises:
            PerfError: On a missing required field.
        """
        try:
            return cls(
                run_id=str(data["run_id"]),
                kind=str(data["kind"]),
                name=str(data["name"]),
                config=dict(data.get("config", {})),
                metrics={
                    str(k): float(v)
                    for k, v in data.get("metrics", {}).items()
                },
                git_sha=str(data.get("git_sha", "unknown")),
                timestamp_s=float(data.get("timestamp_s", 0.0)),
                schema=int(data.get("schema", LEDGER_SCHEMA_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PerfError(f"malformed ledger record: {exc}") from exc


def resolve_ledger_path(path: str | Path | None = None) -> Path:
    """The ledger file to use: explicit path, env override, or default."""
    if path is not None:
        return Path(path)
    return Path(os.environ.get(LEDGER_ENV_VAR, DEFAULT_LEDGER_PATH))


#: How the performance ledger is appended and read; the required
#: fields are checked by :meth:`RunRecord.from_mapping`.
PERF_LEDGER = LedgerKind(
    noun="ledger record",
    unreadable="no ledger at",
    error=PerfError,
    encode=RunRecord.to_mapping,
    decode=RunRecord.from_mapping,
)


_GIT_SHA_CACHE: dict[str, str] = {}


def git_sha(cwd: str | Path | None = None) -> str:
    """The abbreviated HEAD commit, or ``"unknown"`` (cached per cwd)."""
    key = str(cwd or ".")
    cached = _GIT_SHA_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
        sha = out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    _GIT_SHA_CACHE[key] = sha or "unknown"
    return _GIT_SHA_CACHE[key]


def new_run_id() -> str:
    """A fresh run identifier (short, log-greppable)."""
    return uuid.uuid4().hex[:12]


def record_run(
    kind: str,
    name: str,
    metrics: Mapping[str, float],
    config: Mapping[str, Any] | None = None,
    *,
    run_id: str | None = None,
    path: str | Path | None = None,
) -> RunRecord:
    """Append one run record — the only sanctioned ledger writer.

    Every producer (CLI commands, the bench ``write_result`` hook) goes
    through here so the schema stays uniform; lint rule RPL501 flags
    ad-hoc ledger writes.

    Args:
        kind: Producer family (``"run"`` / ``"compare"`` / ``"fleet"`` /
            ``"bench"``).
        name: Scenario or bench id.
        metrics: Flat metric mapping; non-finite values are dropped.
        config: Identity config for sample grouping.
        run_id: Share one id across the records of one invocation
            (fresh when omitted).
        path: Ledger file (default: ``REPRO_PERF_LEDGER`` env or
            ``.repro/perf-ledger.jsonl``).

    Raises:
        PerfError: On an empty kind/name.
    """
    if not kind or not name:
        raise PerfError("run records need a kind and a name")
    clean: dict[str, float] = {}
    for metric_name, value in metrics.items():
        try:
            number = float(value)
        except (TypeError, ValueError):
            continue
        if number == number and abs(number) != float("inf"):  # finite
            clean[str(metric_name)] = number
    record = RunRecord(
        run_id=run_id or new_run_id(),
        kind=kind,
        name=name,
        config=dict(config or {}),
        metrics=clean,
        git_sha=git_sha(),
        timestamp_s=time.time(),
    )
    target = resolve_ledger_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    PERF_LEDGER.append(target, record)
    return record


def metrics_from_snapshot(
    snapshot: Mapping[str, Any], prefix: str = ""
) -> dict[str, float]:
    """Flatten an obs-registry snapshot into ledger metrics.

    Counters and gauges pass through by name; each histogram expands to
    ``<name>.mean`` / ``.p50`` / ``.p95`` / ``.p99`` / ``.max`` /
    ``.count`` (quantiles interpolated from the bucket counts via
    :func:`repro.obs.metrics.histogram_quantile`), which is how
    decision-latency percentiles travel into the ledger.
    """
    out: dict[str, float] = {}
    for section in ("counters", "gauges"):
        for name, value in snapshot.get(section, {}).items():
            out[f"{prefix}{name}"] = float(value)
    for name, h in snapshot.get("histograms", {}).items():
        count = int(h.get("count", 0))
        out[f"{prefix}{name}.count"] = float(count)
        if not count:
            continue
        out[f"{prefix}{name}.mean"] = float(h["sum"]) / count
        if h.get("max") is not None:
            out[f"{prefix}{name}.max"] = float(h["max"])
        for q in SNAPSHOT_QUANTILES:
            estimate = histogram_quantile(h, q)
            if estimate is not None:
                out[f"{prefix}{name}.p{int(q * 100)}"] = estimate
    return out


def group_samples(
    records: Iterable[RunRecord],
) -> dict[tuple[str, str], list[float]]:
    """Samples per ``(record key, metric name)``, in record order."""
    samples: dict[tuple[str, str], list[float]] = {}
    for record in records:
        key = record.key()
        for metric, value in record.metrics.items():
            samples.setdefault((key, metric), []).append(value)
    return samples


def split_latest(
    records: list[RunRecord],
) -> tuple[list[RunRecord], list[RunRecord]]:
    """Split one ledger into (baseline, current) for self-gating.

    Per record key, the samples of the *newest* run id (last appended)
    are "current" and every earlier record is "baseline" — so a ledger
    that accumulated N runs gates its latest run against the history.
    Keys with records from a single run id only are left out of both
    sides (nothing to compare).
    """
    by_key: dict[str, list[RunRecord]] = {}
    for record in records:
        by_key.setdefault(record.key(), []).append(record)
    baseline: list[RunRecord] = []
    current: list[RunRecord] = []
    for key_records in by_key.values():
        run_ids = [r.run_id for r in key_records]
        if len(set(run_ids)) < 2:
            continue
        latest = run_ids[-1]
        for r in key_records:
            (current if r.run_id == latest else baseline).append(r)
    return baseline, current
