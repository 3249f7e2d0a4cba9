"""Span tracing: nested wall-clock spans and instant events.

A :class:`Tracer` records *spans* (named durations, arbitrarily nested)
and *instants* (zero-duration point events such as per-decision
records).  Probe sites in the simulator and trainer are written against
the narrow begin/end/instant surface so the module-level
:class:`NullTracer` can stand in when observability is off — an
uninstrumented run pays only a truthiness check per probe.

Timestamps are microseconds relative to the tracer's construction
(``time.perf_counter`` based), which is exactly what the Chrome
``trace_event`` exporter wants.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ObsError


@dataclass
class SpanRecord:
    """One completed span.

    Attributes:
        uid: Tracer-unique span id (creation order).
        parent_uid: Enclosing span's uid, or ``None`` at the top level.
        name: Span name, dot-separated (``"engine.phase.drain"``).
        cat: Coarse category for trace viewers (``"engine"``, ``"rl"``).
        start_us / dur_us: Microseconds relative to the tracer epoch.
        depth: Nesting depth at creation (0 = top level).
        args: Optional JSON-serialisable attributes.
    """

    uid: int
    parent_uid: int | None
    name: str
    cat: str
    start_us: float
    dur_us: float
    depth: int
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class InstantRecord:
    """One point event (e.g. a governor decision record)."""

    uid: int
    name: str
    cat: str
    ts_us: float
    args: dict[str, Any] = field(default_factory=dict)


class _OpenSpan:
    """A begin()-ed span waiting for its end()."""

    __slots__ = ("uid", "parent_uid", "name", "cat", "start_us", "depth", "args")

    def __init__(self, uid: int, parent_uid: int | None, name: str,
                 cat: str, start_us: float, depth: int,
                 args: dict[str, object] | None) -> None:
        self.uid = uid
        self.parent_uid = parent_uid
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.depth = depth
        self.args = args


class Tracer:
    """Collects nested spans and instant events in memory.

    Spans must close in LIFO order (well-nested); :meth:`end` raises
    :class:`~repro.errors.ObsError` on a mismatched handle so probe bugs
    surface immediately instead of silently corrupting the tree.
    """

    enabled = True

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._stack: list[_OpenSpan] = []
        self._next_uid = 0
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []

    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, cat: str = "default", **args: Any) -> _OpenSpan:
        """Open a span; pass the returned handle to :meth:`end`."""
        parent = self._stack[-1].uid if self._stack else None
        span = _OpenSpan(
            self._next_uid, parent, name, cat, self._now_us(),
            len(self._stack), args,
        )
        self._next_uid += 1
        self._stack.append(span)
        return span

    def end(self, handle: _OpenSpan) -> None:
        """Close the innermost open span; it must be ``handle``.

        Raises:
            ObsError: If ``handle`` is not the innermost open span.
        """
        if not self._stack or self._stack[-1] is not handle:
            raise ObsError(
                f"span {handle.name!r} closed out of order "
                f"(innermost is {self._stack[-1].name!r})"
                if self._stack
                else f"span {handle.name!r} closed but no span is open"
            )
        self._stack.pop()
        self.spans.append(
            SpanRecord(
                uid=handle.uid,
                parent_uid=handle.parent_uid,
                name=handle.name,
                cat=handle.cat,
                start_us=handle.start_us,
                dur_us=self._now_us() - handle.start_us,
                depth=handle.depth,
                args=handle.args,
            )
        )

    @contextmanager
    def span(self, name: str, cat: str = "default", **args: Any) -> Iterator[None]:
        """``with tracer.span("engine.run"): ...`` convenience wrapper."""
        handle = self.begin(name, cat, **args)
        try:
            yield
        finally:
            self.end(handle)

    # -- instants --------------------------------------------------------

    def instant(self, name: str, cat: str = "default", **args: Any) -> None:
        """Record a zero-duration point event."""
        self.instants.append(
            InstantRecord(self._next_uid, name, cat, self._now_us(), args)
        )
        self._next_uid += 1

    # -- introspection ---------------------------------------------------

    @property
    def epoch_s(self) -> float:
        """The tracer's t=0 in the ``time.perf_counter`` domain.

        ``perf_counter`` shares one monotonic origin across all processes
        of a machine (Linux: ``CLOCK_MONOTONIC``), so per-worker traces
        stamped with their epoch can be shifted onto one common timeline
        by :func:`repro.obs.export.merge_traces`.
        """
        return self._t0

    def span_names(self) -> list[str]:
        """Distinct completed-span names, first-seen order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.name)
        return list(seen)

    def clear(self) -> None:
        """Drop all recorded spans and instants (open spans survive)."""
        self.spans.clear()
        self.instants.clear()


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The do-nothing tracer installed while observability is off, and
    by metrics-only sessions.

    Every method is a no-op, ``enabled`` is ``False`` and the tracer
    itself is falsy, so hot-path probes can guard with a single
    truthiness/attribute check and library code can call the tracer
    unconditionally without branching.
    """

    enabled = False
    spans: tuple[SpanRecord, ...] = ()
    instants: tuple[InstantRecord, ...] = ()

    def __bool__(self) -> bool:
        return False

    def begin(self, name: str, cat: str = "default", **args: Any) -> None:
        """No-op; returns ``None`` (which is falsy, like the tracer)."""
        return None

    def end(self, handle: object) -> None:
        """No-op; accepts whatever :meth:`begin` returned."""
        return None

    def span(self, name: str, cat: str = "default", **args: Any) -> _NullContext:
        """A shared do-nothing context manager."""
        return _NULL_CONTEXT

    def instant(self, name: str, cat: str = "default", **args: Any) -> None:
        """No-op."""
        return None

    @property
    def epoch_s(self) -> float:
        """Always 0.0 — the null tracer has no timeline."""
        return 0.0

    def span_names(self) -> list[str]:
        """Always empty."""
        return []

    def clear(self) -> None:
        """No-op."""
        return None


NULL_TRACER = NullTracer()
"""The shared null tracer; identity-comparable (``tracer is NULL_TRACER``)."""
