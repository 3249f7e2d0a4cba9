"""One JSONL ledger primitive, one gate and one renderer set.

The performance ledger (:mod:`repro.perf.ledger`), the ops log
(:mod:`repro.obs.opslog`) and the learning ledger
(:mod:`repro.obs.learn`) each declare one :class:`LedgerKind`, and every
append and read goes through it.  Their reports —
:class:`repro.perf.PerfComparison`, :class:`repro.obs.runtime.SloReport`
and :class:`repro.obs.learn.LearnReport` — subclass :class:`GateReport`,
are judged by one :func:`gate` and printed by one :func:`render`.

This module replaces ``perf.ledger.Ledger``, the three per-ledger read
loops and writer bodies, the three ``GateResult``/gate pairs, the three
text/json/github renderer tables, and the SLO and convergence-spec
config loaders (:func:`read_json_object`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Sequence

from repro.errors import ObsError, ReproError

#: The ``--format`` values :func:`render` understands.
FORMATS = ("text", "json", "github")

#: Encodes every record the flat layout cannot; the bytes equal
#: ``json.dumps(mapping, sort_keys=True)``, which would build a fresh
#: encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True)

#: A kind caches at most this many key layouts, so a writer with
#: ever-new key sets cannot grow the cache without bound.
_MAX_LAYOUTS = 256

#: Append-only, created on first use; no handle outlives one write.
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT


def _as_is(mapping: dict[str, Any]) -> Any:
    """Records that are plain mappings decode to themselves."""
    return mapping


class LedgerRead(list[Any]):
    """The records of one read, in append order.

    A plain list of records, plus :attr:`torn`: how many torn final
    lines the read skipped (0 or 1).
    """

    def __init__(self, records: Iterable[Any] = (), torn: int = 0) -> None:
        super().__init__(records)
        self.torn = torn


@dataclass(frozen=True)
class LedgerKind:
    """How one ledger validates, encodes and decodes its records.

    Attributes:
        noun: What one record is called in writer errors
            (``"ops record"``).
        unreadable: Error prefix for a missing or unreadable file.
        error: The exception class every failure raises.
        fields: Keys every record must carry.
        encode: Record → JSON mapping, on append.
        decode: Parsed mapping → record, on read; raises ``error`` on a
            malformed record.
    """

    noun: str
    unreadable: str
    error: type[ReproError]
    fields: tuple[str, ...] = ()
    encode: Callable[[Any], dict[str, Any]] = dict
    decode: Callable[[dict[str, Any]], Any] = _as_is
    #: Key tuple (in insertion order) -> the keys sorted, each with its
    #: encoded ``"key": `` prefix.  One writer's records share a few key
    #: tuples, so the cache stays small.
    _layouts: dict[tuple[str, ...], tuple[tuple[str, str], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def sorted_json(self, mapping: dict[Any, Any]) -> str:
        """``json.dumps(mapping, sort_keys=True)``, faster for flat records.

        A flat record has only ``str`` keys and values of exact type
        ``str``, ``int`` or finite ``float``.  It is encoded through a
        sorted key layout cached per key tuple: strings through
        ``encode_basestring_ascii``, ints through ``int.__repr__`` and
        floats through ``float.__repr__``, as the C encoder does.
        Anything else (bools, ``None``, NaN and infinities, subclasses,
        nested values, non-``str`` keys) goes through the shared
        encoder, which also raises what ``json.dumps`` would.
        """
        keys = tuple(mapping)
        layout = self._layouts.get(keys)
        if layout is None:
            if not all(type(key) is str for key in keys):
                return _ENCODER.encode(mapping)
            layout = tuple(
                (key, f"{encode_basestring_ascii(key)}: ")
                for key in sorted(keys)
            )
            if len(self._layouts) < _MAX_LAYOUTS:
                self._layouts[keys] = layout
        parts: list[str] = []
        for key, prefix in layout:
            value = mapping[key]
            kind = type(value)
            if kind is str:
                parts.append(prefix + encode_basestring_ascii(value))
            elif kind is int:
                parts.append(prefix + int.__repr__(value))
            elif kind is float and isfinite(value):
                parts.append(prefix + float.__repr__(value))
            else:
                return _ENCODER.encode(mapping)
        return "{" + ", ".join(parts) + "}"

    def line(self, record: Any) -> tuple[dict[str, Any], str]:
        """Validate and encode one record without writing it.

        Returns the stored mapping and its line: sorted-key JSON, equal
        to ``json.dumps(mapping, sort_keys=True)``, plus a newline.

        Raises:
            ReproError: ``self.error`` when required fields are missing
                or the record is not JSON-serialisable.
        """
        mapping = self.encode(record)
        missing = [f for f in self.fields if f not in mapping]
        if missing:
            raise self.error(f"{self.noun} missing fields {missing}")
        try:
            text = self.sorted_json(mapping)
        except (TypeError, ValueError) as exc:
            raise self.error(
                f"{self.noun} is not JSON-serialisable: {exc}"
            ) from exc
        return mapping, f"{text}\n"

    @staticmethod
    def write(path: Path, text: str) -> None:
        """Append encoded lines with one open, one write and one close.

        The file is opened with ``O_APPEND``, the bytes are written
        (looping on a short write) and it is closed again, so no handle
        is held between writes and a rotated file is picked up by the
        next one.  The parent directory must exist.

        Raises:
            OSError: When the file cannot be opened or written.
        """
        data = memoryview(text.encode())
        fd = os.open(path, _APPEND_FLAGS, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)

    def append(self, path: Path, record: Any) -> dict[str, Any]:
        """Validate one record and append it as one sorted-key JSON line.

        :meth:`line` then :meth:`write`: a crash can lose at most the
        line being written.  Returns the stored mapping.

        Raises:
            ReproError: ``self.error`` when required fields are missing
                or the record is not JSON-serialisable.
            OSError: When the file cannot be opened or written.
        """
        mapping, text = self.line(record)
        self.write(path, text)
        return mapping

    def read(self, path: str | Path) -> LedgerRead:
        """All records of one file, in append order.

        Blank lines are skipped, and so is a final line that has no
        trailing newline and does not parse: the torn tail of an append
        a crash cut short, counted in :attr:`LedgerRead.torn`.  A
        garbled line anywhere else still raises.

        Raises:
            ReproError: ``self.error`` on a missing or unreadable file,
                a non-JSON or non-object line elsewhere, or a record
                missing required fields.
        """
        source = Path(path)
        try:
            text = source.read_text()
        except OSError as exc:
            raise self.error(f"{self.unreadable} {source}: {exc}") from exc
        lines = text.splitlines()
        records = LedgerRead()
        for n, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                if n == len(lines) and not text.endswith("\n"):
                    records.torn = 1
                    break
                raise self.error(f"{source}:{n} is not JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise self.error(f"{source}:{n} is not a JSON object")
            missing = [f for f in self.fields if f not in data]
            if missing:
                raise self.error(f"{source}:{n} missing fields {missing}")
            records.append(self.decode(data))
        return records


class GateReport:
    """Base for the reports a gate judges: a ``verdicts`` tuple whose
    ``status`` marks the failing ones.

    Subclasses set :attr:`failing` (the failing status) and
    :attr:`notice` (the GitHub annotation printed when
    :meth:`annotations` is empty), and provide the three renderings.
    """

    verdicts: tuple[Any, ...]
    failing: ClassVar[str] = "fail"
    notice: ClassVar[str]

    @property
    def failures(self) -> tuple[Any, ...]:
        """The verdicts that fail a gate."""
        return tuple(v for v in self.verdicts if v.status == self.failing)

    @property
    def ok(self) -> bool:
        """Whether nothing failed."""
        return not self.failures

    def text_lines(self, verbose: bool = False) -> list[str]:
        """Human-readable lines; ``verbose`` also lists quiet verdicts."""
        raise NotImplementedError

    def to_mapping(self) -> dict[str, Any]:
        """The JSON payload, including ``ok``."""
        raise NotImplementedError

    def annotations(self) -> list[str]:
        """GitHub Actions ``::error``/``::warning`` lines."""
        raise NotImplementedError


def read_json_object(path: str | Path, what: str) -> dict[str, Any]:
    """A JSON file holding one object, such as a gate's config.

    Raises:
        ObsError: On an unreadable file, invalid JSON, or a non-object.
    """
    source = Path(path)
    try:
        data = json.loads(source.read_text())
    except OSError as exc:
        raise ObsError(f"cannot read {what} {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObsError(f"{source} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ObsError(f"{source} must hold a JSON object")
    return data


@dataclass(frozen=True)
class GateResult:
    """What a gate decided: exit 0 passes, 1 fails."""

    report: GateReport
    exit_code: int
    warn_only: bool = False


def gate(
    report: GateReport,
    warn_only: bool = False,
    blocking: Sequence[Any] = (),
) -> GateResult:
    """Turn a report into an exit code (0 pass, 1 when anything failed).

    ``warn_only`` reports failures but forces exit 0 — the CI bring-up
    mode while a baseline accumulates samples.  ``blocking`` failures
    fail the gate even so: the ones a caller will not let pass, such as
    machine-independent ratios while wall times stay advisory.
    """
    failed = bool(blocking) or (bool(report.failures) and not warn_only)
    return GateResult(
        report=report, exit_code=1 if failed else 0, warn_only=warn_only
    )


def render(report: GateReport, fmt: str, verbose: bool = False) -> str:
    """A report in one of :data:`FORMATS`.

    ``json`` is indented with sorted keys; ``github`` is one annotation
    per line.  ``verbose`` only affects ``text``.

    Raises:
        ObsError: On an unknown format.
    """
    if fmt == "text":
        return "\n".join(report.text_lines(verbose))
    if fmt == "json":
        return json.dumps(report.to_mapping(), indent=2, sort_keys=True)
    if fmt == "github":
        return "\n".join(report.annotations() or [report.notice])
    raise ObsError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
