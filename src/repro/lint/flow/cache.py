"""The content-addressed lint summary cache.

``repro check`` re-analyses a whole tree on every run, but a
file's per-file findings *and* its :class:`ModuleSummary` are pure
functions of (source text, analysis semantics, the register map RPL203
cross-checks).  The cache exploits that exactly the way the run cache
(:mod:`repro.cache.store`) does for simulations: a completed analysis
is stored under a key derived only from content —

    sha256(canonical JSON of {schema, lint_version, path, source_sha,
                              extra_inputs})

— so an unchanged file hits, an edited file re-keys itself, and a bump
to :data:`repro.lint.engine.LINT_ENGINE_VERSION` or
:data:`repro.lint.flow.summary.SUMMARY_SCHEMA` silently invalidates
every entry at once.  ``extra_inputs`` digests the one cross-file rule
input (``hw/registers.py``, read by RPL203), so editing the register
map re-analyses the ``hw/`` tree even though those sources are
byte-identical.

Entries are one JSON file per key under ``.repro/lintcache`` (the
``REPRO_LINTCACHE_DIR`` environment variable or an explicit path
override).  Writes are atomic (temp-file + rename) and best-effort: a
read-only filesystem degrades to cold analysis, never to failure, and
corrupt or stale entries count as misses.

Cached entries hold the findings of **all** rules (post-``noqa``); the
driver filters by the run's ``--select``/``--ignore`` afterwards, which
keeps entries valid across differently-selected runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.lint.engine import LINT_ENGINE_VERSION
from repro.lint.findings import Finding
from repro.lint.flow.summary import SUMMARY_SCHEMA, ModuleSummary

DEFAULT_LINTCACHE_DIR = ".repro/lintcache"
"""Default cache root, relative to the working directory."""

LINTCACHE_ENV_VAR = "REPRO_LINTCACHE_DIR"
"""Environment variable overriding the default cache root."""


def resolve_lintcache_dir(path: str | Path | None = None) -> Path:
    """The cache root to use: explicit path, env override, or default."""
    if path is not None:
        return Path(path)
    return Path(os.environ.get(LINTCACHE_ENV_VAR, DEFAULT_LINTCACHE_DIR))


def extra_inputs_digest(project_root: str | Path | None) -> str:
    """Digest of the cross-file inputs that can change findings.

    Today that is exactly the register map ``hw/registers.py`` (RPL203
    parses ``OBS1_REWARD_BITS`` out of it at lint time); the candidate
    locations mirror :func:`repro.lint.rules.fixedpoint._reward_field_bits`.
    Absent file → the constant ``"none"``, matching the rule's fallback.
    """
    if project_root is None:
        return "none"
    root = Path(project_root)
    for candidate in (
        root / "src" / "repro" / "hw" / "registers.py",
        root / "repro" / "hw" / "registers.py",
        root / "hw" / "registers.py",
    ):
        if candidate.is_file():
            try:
                content = candidate.read_bytes()
            except OSError:
                return "none"
            return hashlib.sha256(content).hexdigest()
    return "none"


@dataclass(frozen=True)
class CachedAnalysis:
    """One file's complete analysis: findings (all rules) + summary."""

    findings: tuple[Finding, ...]
    suppressed: tuple[Finding, ...]
    summary: ModuleSummary

    def to_mapping(self) -> dict[str, Any]:
        """The JSON-serialisable form stored in a cache entry."""
        return {
            "findings": [f.to_cache_mapping() for f in self.findings],
            "suppressed": [f.to_cache_mapping() for f in self.suppressed],
            "summary": self.summary.to_mapping(),
        }

    @classmethod
    def from_mapping(cls, data: dict[str, Any]) -> "CachedAnalysis":
        return cls(
            findings=tuple(
                Finding.from_mapping(f) for f in data["findings"]
            ),
            suppressed=tuple(
                Finding.from_mapping(f) for f in data["suppressed"]
            ),
            summary=ModuleSummary.from_mapping(data["summary"]),
        )


class SummaryCache:
    """Probe/store access to one lint-cache directory.

    Args:
        root: Cache directory (default: ``REPRO_LINTCACHE_DIR`` env or
            ``.repro/lintcache``).  Created lazily on the first store.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = resolve_lintcache_dir(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(path: str, source: str, extra_inputs: str = "none") -> str:
        """The analysis content hash (sha256 hex digest).

        Covers the canonical JSON of the summary schema, the lint engine
        version, the (as-given) file path, the source digest, and the
        cross-file input digest — bump any of them and the key moves.
        """
        payload = {
            "schema": SUMMARY_SCHEMA,
            "lint_version": LINT_ENGINE_VERSION,
            "path": Path(path).as_posix(),
            "source_sha": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "extra_inputs": extra_inputs,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        """The entry file a key maps to."""
        return self.root / f"{key}.json"

    def probe(self, key: str) -> CachedAnalysis | None:
        """The cached analysis under ``key``, or ``None`` on a miss.

        Absent, corrupt, and stale (schema/version mismatch) entries all
        count as misses — a damaged cache degrades to recomputation.
        """
        entry = self._read_entry(self.path_for(key))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def store(self, key: str, analysis: CachedAnalysis) -> bool:
        """Persist one analysis atomically; best-effort.

        Returns whether the entry was written — an unwritable cache
        directory yields ``False`` rather than an error, because lint
        results must not depend on cache health.
        """
        entry = {
            "schema": SUMMARY_SCHEMA,
            "lint_version": LINT_ENGINE_VERSION,
            "key": key,
            "analysis": analysis.to_mapping(),
        }
        path = self.path_for(key)
        tmp = path.with_suffix(".tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            return False
        return True

    def _read_entry(self, path: Path) -> CachedAnalysis | None:
        """Parse one entry file; any defect is a miss, never an error."""
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("schema") != SUMMARY_SCHEMA:
            return None
        if data.get("lint_version") != LINT_ENGINE_VERSION:
            return None
        payload = data.get("analysis")
        if not isinstance(payload, dict):
            return None
        try:
            return CachedAnalysis.from_mapping(payload)
        except (KeyError, TypeError, ValueError):
            return None
