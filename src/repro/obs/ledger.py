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


class KeyLayout:
    """One record shape, compiled once: its keys and how to encode them.

    Built by :meth:`LedgerKind.layout`, which caches one per key tuple.

    Attributes:
        keys: The keys, in the order :meth:`encode` takes values.
        missing: The kind's required fields absent from ``keys``.
        template: When every key is a ``str``, a ``%``-template of the
            keys in sorted order, each key already JSON-encoded (a ``%``
            in a key doubled); otherwise ``None``.
    """

    __slots__ = ("keys", "missing", "template", "_order")

    def __init__(self, keys: tuple[Any, ...], fields: tuple[str, ...]) -> None:
        present = set(keys)
        if len(present) != len(keys):
            raise ValueError(f"a key layout repeats a key: {keys!r}")
        self.keys = keys
        self.missing = tuple(f for f in fields if f not in present)
        self.template: str | None = None
        # Takes values from key order to sorted order.
        self._order: tuple[int, ...] = ()
        if all(type(key) is str for key in keys):
            self._order = tuple(sorted(range(len(keys)), key=keys.__getitem__))
            self.template = "{" + ", ".join(
                encode_basestring_ascii(keys[i]).replace("%", "%%") + ": %s"
                for i in self._order
            ) + "}"

    def encode(self, values: Sequence[Any]) -> str:
        """``json.dumps(dict(zip(keys, values)), sort_keys=True)``, faster
        for flat records.

        A flat record has only ``str`` keys and values of exact type
        ``str``, ``int`` or finite ``float``.  Its values fill the
        template: strings through ``encode_basestring_ascii``, ints
        through ``int.__repr__`` and floats through ``float.__repr__``,
        as the C encoder does.  Anything else (bools, ``None``, NaN and
        infinities, subclasses, nested values, non-``str`` keys) goes
        through the shared encoder, which also raises what
        ``json.dumps`` would.
        """
        template = self.template
        if template is not None:
            parts: list[str] = []
            for i in self._order:
                value = values[i]
                kind = type(value)
                if kind is str:
                    parts.append(encode_basestring_ascii(value))
                elif kind is int:
                    parts.append(int.__repr__(value))
                elif kind is float and isfinite(value):
                    parts.append(float.__repr__(value))
                else:
                    break
            else:
                return template % tuple(parts)
        return _ENCODER.encode(dict(zip(self.keys, values)))


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
    #: Key tuple (in insertion order) -> its compiled :class:`KeyLayout`.
    #: One writer's records share a few key tuples, so the cache stays
    #: small.
    _layouts: dict[tuple[Any, ...], KeyLayout] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def layout(self, keys: tuple[Any, ...]) -> KeyLayout:
        """The compiled layout of one key tuple, cached on the kind.

        Writers with a fixed record shape compile theirs once, at
        import, and pass values by position to :meth:`values_line`.

        Raises:
            ValueError: When ``keys`` repeats a key.
        """
        layout = self._layouts.get(keys)
        if layout is None:
            layout = KeyLayout(keys, self.fields)
            # Only str-keyed layouts are cached: equal keys of other
            # types (0, 0.0 and False) would share one layout but not
            # one encoding.
            if layout.template is not None and len(self._layouts) < _MAX_LAYOUTS:
                self._layouts[keys] = layout
        return layout

    def sorted_json(self, mapping: dict[Any, Any]) -> str:
        """``json.dumps(mapping, sort_keys=True)``, through the mapping's
        key layout (see :meth:`KeyLayout.encode`)."""
        return self.layout(tuple(mapping)).encode(tuple(mapping.values()))

    def values_line(self, layout: KeyLayout, values: Sequence[Any]) -> str:
        """Validate and encode one record given by position.

        ``values`` are in ``layout.keys`` order, and ``layout`` comes
        from :meth:`layout`, which checked its keys against
        :attr:`fields` once.  Returns the line: sorted-key JSON, equal
        to ``json.dumps(dict(zip(layout.keys, values)), sort_keys=True)``,
        plus a newline.

        Raises:
            ReproError: ``self.error`` when required fields are missing,
                the value count differs from the key count, or a value
                is not JSON-serialisable.
        """
        if layout.missing:
            raise self.error(f"{self.noun} missing fields {list(layout.missing)}")
        if len(values) != len(layout.keys):
            raise self.error(
                f"{self.noun} has {len(values)} value(s) for "
                f"{len(layout.keys)} key(s)"
            )
        try:
            return f"{layout.encode(values)}\n"
        except (TypeError, ValueError) as exc:
            raise self.error(
                f"{self.noun} is not JSON-serialisable: {exc}"
            ) from exc

    def line(self, record: Any) -> tuple[dict[str, Any], str]:
        """Validate and encode one record without writing it.

        Returns the stored mapping and its line, from :meth:`values_line`
        over the mapping's key layout.

        Raises:
            ReproError: ``self.error`` when required fields are missing
                or the record is not JSON-serialisable.
        """
        mapping = self.encode(record)
        layout = self.layout(tuple(mapping))
        return mapping, self.values_line(layout, tuple(mapping.values()))

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
