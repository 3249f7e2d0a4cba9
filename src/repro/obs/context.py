"""Request correlation: :class:`TraceContext` and its propagation.

A served decision crosses several hands before a reply comes back —
protocol envelope, bounded queue, worker task, decision session (or an
executor thread running a whole simulation job), engine — and the fleet
adds process boundaries on top.  :class:`TraceContext` is the one piece
of identity that survives the whole path: a ``trace_id`` naming the
request's journey plus the client's ``request_id``.

Propagation has exactly two mechanisms, and the rules are strict:

* **Implicit, within a thread of control** — a :mod:`contextvars`
  variable.  :func:`bind` installs a context for a scope; probe sites
  downstream call :func:`current_context` / :func:`trace_args` to tag
  their spans and instants without any parameter threading.  Being a
  contextvar, the binding follows asyncio tasks automatically.
* **Explicit, across every serialization boundary** — contextvars do
  not cross JSON envelopes, executor threads, or process pools, so the
  serve protocol carries ``trace_id`` fields, and
  :class:`~repro.fleet.spec.JobSpec` carries a ``trace_context``
  attribute (re-bound by the worker via
  :meth:`TraceContext.to_mapping` / :meth:`TraceContext.from_mapping`).

The zero-overhead contract holds: nothing here runs unless a caller
binds a context, and every probe that *reads* the context sits behind
the usual ``OBS.enabled`` / ``if tracer`` guards.
"""

from __future__ import annotations

import os
from contextvars import ContextVar, Token
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ObsError


@dataclass(frozen=True)
class TraceContext:
    """The correlation identity of one request (or delegated job).

    Attributes:
        trace_id: Names the end-to-end journey; generated once (by the
            first hop that cares) and copied verbatim ever after.
        request_id: The client's own correlation id, carried alongside
            so server-side records can be joined back to client logs.
    """

    trace_id: str
    request_id: str = ""

    def __post_init__(self) -> None:
        if not self.trace_id:
            raise ObsError("a trace context needs a non-empty trace_id")

    def to_mapping(self) -> dict[str, str]:
        """The explicit-serialization form (a plain JSON-able dict)."""
        return {"trace_id": self.trace_id, "request_id": self.request_id}

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "TraceContext":
        """Rebuild a context shipped through :meth:`to_mapping`.

        Raises:
            ObsError: On unknown keys or a missing/empty ``trace_id``.
        """
        unknown = set(data) - {"trace_id", "request_id"}
        if unknown:
            raise ObsError(
                f"unknown trace context keys {sorted(unknown)}; "
                "known: ['request_id', 'trace_id']"
            )
        return cls(
            trace_id=str(data.get("trace_id", "")),
            request_id=str(data.get("request_id", "")),
        )


_CURRENT: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def new_trace_id() -> str:
    """A fresh trace id: 16 random lowercase hex characters (64 bits
    from the OS entropy source, not derived from time)."""
    return os.urandom(8).hex()


def current_context() -> TraceContext | None:
    """The context bound in this thread of control, if any."""
    return _CURRENT.get()


class bind:
    """Install ``ctx`` for the scope of the ``with`` block.

    ``bind(None)`` is a no-op passthrough, so call sites can bind
    unconditionally without paying for a contextvar set/reset on the
    uncorrelated path.  A small class rather than a generator-based
    context manager: the served decision path binds once per request.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None) -> None:
        self._ctx = ctx
        self._token: Token[TraceContext | None] | None = None

    def __enter__(self) -> TraceContext | None:
        if self._ctx is not None:
            self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


def trace_args(ctx: TraceContext | None = None) -> dict[str, str]:
    """Span/instant ``args`` tagging the given (or current) context.

    Returns an empty dict when no context is bound, so probe sites can
    splat it unconditionally::

        tracer.begin("engine.run", cat="engine", **trace_args())

    Callers must still sit behind an ``if tracer:`` guard — the lookup
    is cheap, but the disabled path pays nothing at all.
    """
    if ctx is None:
        ctx = _CURRENT.get()
    if ctx is None:
        return {}
    args = {"trace_id": ctx.trace_id}
    if ctx.request_id:
        args["request_id"] = ctx.request_id
    return args
