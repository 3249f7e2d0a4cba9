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

Entries are one file per key under ``.repro/lintcache`` (the
``REPRO_LINTCACHE_DIR`` environment variable or an explicit path
override): a JSON header line (schema, lint version, key and the
sha256 of the payload) and then the canonical JSON of the analysis,
written by the one codec (:func:`encode`/:func:`decode`, driven by the
dataclass fields).  The payload holds the raw findings of **all**
rules, before ``# noqa``; the driver applies the suppressions and the
run's ``--select``/``--ignore`` afterwards, which keeps entries valid
across differently-selected runs.  Writes are atomic (temp-file +
rename) and best-effort: a read-only filesystem degrades to cold
analysis, never to failure.  A stale, truncated or corrupt entry (a
digest mismatch, or a value of the wrong type) counts as a miss, never
as a different analysis.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.lint.engine import LINT_ENGINE_VERSION, register_map_path
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

    Today that is exactly the register map that
    :func:`~repro.lint.engine.register_map_path` finds (RPL203 parses
    ``OBS1_REWARD_BITS`` out of it at lint time).  No readable file →
    the constant ``"none"``, matching the rule's fallback.
    """
    path = register_map_path(project_root)
    if path is None:
        return "none"
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "none"


@dataclass(frozen=True)
class CachedAnalysis:
    """One file's complete analysis: raw findings (all rules) + summary."""

    findings: tuple[Finding, ...]
    summary: ModuleSummary


def encode(value: Any) -> Any:
    """The JSON form of a cached value: dataclasses become objects keyed
    by field name, tuples and lists arrays, dict keys strings."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    return value


def decode(tp: Any, data: Any) -> Any:
    """Rebuild a ``tp`` from :func:`encode`'s output, checking every value
    against its declared type.

    Raises:
        TypeError, ValueError: On a missing or extra key or a wrong type.
    """
    return _decoder(tp)(data)


def _expect(kind: type, data: Any) -> Any:
    if type(data) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(data).__name__}")
    return data


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The checking decoder of one type hint, built once per hint."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _record_decoder(tp)
    if origin is tuple or origin is list:
        item = _decoder(args[0])
        build: Callable[[list[Any]], Any] = tuple if origin is tuple else list
        return lambda data: build([item(x) for x in _expect(list, data)])
    if origin is dict:
        key: Callable[[Any], Any] = int if args[0] is int else _decoder(args[0])
        value = _decoder(args[1])
        return lambda data: {
            key(k): value(v) for k, v in _expect(dict, data).items()
        }
    if origin is typing.Union or origin is types.UnionType:
        (inner,) = (_decoder(a) for a in args if a is not type(None))
        return lambda data: None if data is None else inner(data)
    return functools.partial(_expect, tp)


def _record_decoder(cls: Any) -> Callable[[Any], Any]:
    """A dataclass from an object holding exactly its fields."""
    hints = typing.get_type_hints(cls)
    parts = {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(cls)}

    def record(data: Any) -> Any:
        if _expect(dict, data).keys() != parts.keys():
            raise TypeError(f"{cls.__name__} keys {sorted(data)}")
        return cls(**{name: part(data[name]) for name, part in parts.items()})

    return record


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


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
        return _sha256(_canonical({
            "schema": SUMMARY_SCHEMA,
            "lint_version": LINT_ENGINE_VERSION,
            "path": Path(path).as_posix(),
            "source_sha": _sha256(source),
            "extra_inputs": extra_inputs,
        }))

    def path_for(self, key: str) -> Path:
        """The entry file a key maps to."""
        return self.root / f"{key}.json"

    def probe(self, key: str) -> CachedAnalysis | None:
        """The cached analysis under ``key``, or ``None`` on a miss.

        Absent, corrupt (payload digest or type mismatch) and stale
        (schema/version mismatch) entries all count as misses — a
        damaged cache degrades to recomputation.
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
        payload = _canonical(encode(analysis))
        header = {
            "schema": SUMMARY_SCHEMA,
            "lint_version": LINT_ENGINE_VERSION,
            "key": key,
            "digest": _sha256(payload),
        }
        path = self.path_for(key)
        tmp = path.with_suffix(".tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(header, sort_keys=True) + "\n" + payload,
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError:
            return False
        return True

    def _read_entry(self, path: Path) -> CachedAnalysis | None:
        """Parse one entry file; any defect is a miss, never an error."""
        try:
            text = path.read_text(encoding="utf-8")
            header_text, _, payload = text.partition("\n")
            header = json.loads(header_text)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(header, dict)
            or header.get("schema") != SUMMARY_SCHEMA
            or header.get("lint_version") != LINT_ENGINE_VERSION
            or header.get("digest") != _sha256(payload)
        ):
            return None
        try:
            return decode(CachedAnalysis, json.loads(payload))
        except (TypeError, ValueError):
            return None
