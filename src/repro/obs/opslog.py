"""The structured operational log: one JSONL record per request/job.

Traces answer "where did the time in *this* request go"; the ops log
answers "what has the service been doing" — one self-describing JSON
object per served (or rejected) request and per fleet job, carrying the
correlation ids, the outcome, and the two latencies that matter for the
SLOs (service latency and queue wait).

:class:`OpsLogger` is the **only** code allowed to append to an ops
log; lint rule RPL801 enforces that, exactly as RPL501/RPL601 do for
the perf ledger and the run cache.  Appends and reads go through
:data:`OPS_LOG`, this log's :class:`~repro.obs.ledger.LedgerKind`.
Everything else in this module is read-side: ``OPS_LOG.read``,
:func:`tail_ops_log`, and :func:`summarize_ops` back ``repro ops
tail|summary``, and the SLO runtime (:mod:`repro.obs.runtime`)
evaluates the same records.

Record schema (see ``docs/observability.md``):

======================  ====================================================
field                   meaning
======================  ====================================================
``ts``                  Wall-clock unix seconds when the record was logged.
``kind``                ``decision`` / ``simulation`` / ``health`` /
                        ``stats`` / ``job`` / ``drift``.
``trace_id``            End-to-end correlation id (may be ``""`` when
                        correlation was inactive).
``request_id``          Client correlation id (``""`` for fleet jobs).
``outcome``             ``ok``, ``cached``, ``rejected:<reason>``, or
                        ``failed:<error-type>``.
``latency_s``           Submit-to-reply service latency (job wall time for
                        fleet jobs).
``queue_wait_s``        Seconds spent in the bounded queue before a worker
                        picked the request up.
======================  ====================================================

Extra keys (``session``, ``cluster``, ``job_id``, ``detail``, ...) are
allowed and preserved; the required seven always exist.
"""

from __future__ import annotations

import logging
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ObsError
from repro.obs.ledger import KeyLayout, LedgerKind, LedgerRead

if TYPE_CHECKING:
    import asyncio

    from repro.fleet.events import FleetEvent

log = logging.getLogger("repro.obs")

#: Every ops record carries at least these keys.
OPS_RECORD_FIELDS = (
    "ts", "kind", "trace_id", "request_id", "outcome",
    "latency_s", "queue_wait_s",
)

#: The record kinds the readers/SLO runtime understand.  ``drift``
#: records come from the serve-side policy drift monitor
#: (:mod:`repro.serve.drift`): one per shadow-scored decision, with
#: ``outcome`` ``"ok"`` (agreement) or ``"failed:drift"`` — so a drift
#: SLO is just an availability SLO with ``kind="drift"``.
OPS_KINDS = ("decision", "simulation", "health", "stats", "job", "drift")

#: How the ops log is validated, appended and read.
OPS_LOG = LedgerKind(
    noun="ops record",
    unreadable="cannot read ops log",
    error=ObsError,
    fields=OPS_RECORD_FIELDS,
)


#: The keys each kind of :class:`repro.serve.PolicyServer` record adds
#: after the required seven.
SERVED_KEYS: dict[str, tuple[str, ...]] = {
    "decision": ("session", "cluster"),
    "simulation": ("job_id",),
    "health": (),
    "stats": (),
}

#: The compiled key layout of every record the policy server logs
#: through :meth:`OpsLogger.log_served`, by kind and by whether it
#: carries a ``detail`` (a rejection's): the seven required fields in
#: :func:`ops_record`'s order, the kind's :data:`SERVED_KEYS`, then
#: ``detail``.
_SERVED_LAYOUTS: dict[tuple[str, bool], KeyLayout] = {
    (kind, detailed): OPS_LOG.layout(
        OPS_RECORD_FIELDS + keys + (("detail",) if detailed else ())
    )
    for kind, keys in SERVED_KEYS.items()
    for detailed in (False, True)
}


def _check_record(
    kind: str, outcome: str, latency_s: float, queue_wait_s: float
) -> None:
    """The checks every ops record passes, however it is built.

    Raises:
        ObsError: On an unknown ``kind``, an empty ``outcome``, or a
            negative latency/queue wait.
    """
    if kind not in OPS_KINDS:
        raise ObsError(
            f"unknown ops record kind {kind!r}; expected one of {OPS_KINDS}"
        )
    if not outcome:
        raise ObsError("an ops record needs a non-empty outcome")
    if latency_s < 0 or queue_wait_s < 0:
        raise ObsError(
            f"ops record latencies cannot be negative: "
            f"latency_s={latency_s}, queue_wait_s={queue_wait_s}"
        )


def ops_record(
    kind: str,
    outcome: str,
    latency_s: float,
    queue_wait_s: float = 0.0,
    trace_id: str = "",
    request_id: str = "",
    ts: float | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """A schema-complete ops record (not yet written anywhere).

    Raises:
        ObsError: On an unknown ``kind``, an empty ``outcome``, or a
            negative latency/queue wait.
    """
    _check_record(kind, outcome, latency_s, queue_wait_s)
    record: dict[str, Any] = {
        "ts": time.time() if ts is None else float(ts),
        "kind": kind,
        "trace_id": trace_id,
        "request_id": request_id,
        "outcome": outcome,
        "latency_s": float(latency_s),
        "queue_wait_s": float(queue_wait_s),
    }
    record.update(extra)
    return record


def _running_loop() -> "asyncio.AbstractEventLoop | None":
    """The event loop running in this thread, if any.

    Without :mod:`asyncio` imported no loop can be running; importing it
    here would add tens of milliseconds to every CLI start-up.
    """
    aio = sys.modules.get("asyncio")
    if aio is None:
        return None
    loop: "asyncio.AbstractEventLoop | None" = aio._get_running_loop()
    return loop


class OpsLogger:
    """Append-only JSONL writer — the sole blessed ops-log producer.

    One logger owns one file.  Every :meth:`log` (a mapping) and
    :meth:`log_served` (a policy-server record, by position) call
    validates and encodes the record at once, so a bad record raises at
    the call.  Where it is written depends on the thread:

    * Off an event loop (the fleet, the CLI, executor threads) the line
      is appended before the call returns, and an ``OSError`` from
      the write reaches the caller.
    * On a running event loop the line joins the current loop turn's
      lines; the turn's first line schedules one :meth:`flush` with
      ``loop.call_soon``, which appends them all with one
      ``open``/``write``/``close``.  A reply resolved after its record
      was logged runs its callbacks after that flush, so a crash can
      lose at most the current turn's lines, and none of their replies
      has been delivered.  A flush that cannot write drops its lines,
      counts them in :attr:`lost` and logs a warning, so a broken log
      never stops the service.

    No handle is held between writes, so a rotated file is picked up by
    the next one.  :attr:`written` counts the lines that reached the
    file.  One logger serves one event loop at a time.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.written = 0
        self.lost = 0
        self._lines: list[str] = []
        # The loop whose turn scheduled the pending flush, or None.
        self._loop: asyncio.AbstractEventLoop | None = None

    def log(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and append one record; returns the stored form.

        Raises:
            ObsError: When required fields are missing or the record is
                not JSON-serialisable.
            OSError: Off an event loop, when the file cannot be written.
        """
        stored, line = OPS_LOG.line(record)
        self._emit(line)
        return stored

    def log_served(
        self,
        kind: str,
        outcome: str,
        latency_s: float,
        queue_wait_s: float,
        trace_id: str,
        request_id: str,
        extra: tuple[str, ...] = (),
        detail: str = "",
    ) -> None:
        """Append one policy-server record, given by position.

        The record is ``ops_record(kind, outcome, latency_s,
        queue_wait_s, trace_id, request_id, **keys)``, where ``keys``
        pairs the kind's :data:`SERVED_KEYS` with ``extra`` and adds
        ``detail`` when it is not empty; its line is the same, byte for
        byte.  No mapping is built: the values go straight into the
        kind's compiled layout.

        Raises:
            ObsError: On what :func:`ops_record` refuses, a kind with no
                served layout (``job``, ``drift``), or an ``extra`` that
                does not match the kind's keys.
            OSError: Off an event loop, when the file cannot be written.
        """
        _check_record(kind, outcome, latency_s, queue_wait_s)
        layout = _SERVED_LAYOUTS.get((kind, bool(detail)))
        if layout is None:
            raise ObsError(f"the policy server logs no {kind!r} records")
        values = (
            time.time(), kind, trace_id, request_id, outcome,
            float(latency_s), float(queue_wait_s), *extra,
        )
        if detail:
            values += (detail,)
        self._emit(OPS_LOG.values_line(layout, values))

    def _emit(self, line: str) -> None:
        """Write one encoded line now, or queue it for the loop turn's
        flush."""
        loop = _running_loop()
        if loop is None:
            OPS_LOG.write(self.path, line)
            self.written += 1
            return
        if self._loop is not loop:
            # The turn's first line.  Lines a stopped loop never flushed
            # are still queued, ahead of this one, and go out with it.
            self._loop = loop
            loop.call_soon(self.flush)
        self._lines.append(line)

    def flush(self) -> None:
        """Write the pending lines with one append.

        Scheduled by the first line of a loop turn; also called by
        :meth:`repro.serve.PolicyServer.shutdown`.  A failed write drops
        the lines into :attr:`lost` and logs a warning instead of
        raising.
        """
        lines, self._lines = self._lines, []
        self._loop = None
        if not lines:
            return
        try:
            OPS_LOG.write(self.path, "".join(lines))
        except OSError as exc:
            self.lost += len(lines)
            log.warning(
                "ops log: dropped %d record(s), cannot write %s: %s",
                len(lines), self.path, exc,
            )
            return
        self.written += len(lines)


def job_record_from_event(event: "FleetEvent") -> dict[str, Any] | None:
    """The ops record for one fleet completion event, or ``None``.

    Only terminal job transitions produce records — ``JobDone``,
    ``JobCached``, and *final* ``JobFailed`` — so a retried job logs
    once, with its last outcome.
    """
    # Deliberate upward reach: this adapter exists precisely to translate
    # fleet events into ops records, and the deferred import keeps obs
    # importable (and zero-cost) without the fleet machinery loaded.
    from repro.fleet.events import JobCached, JobDone, JobFailed  # noqa: RPL901

    if isinstance(event, JobDone):
        return ops_record(
            kind="job", outcome="ok", latency_s=event.wall_s,
            trace_id=event.trace_id, job_id=event.job_id,
        )
    if isinstance(event, JobCached):
        return ops_record(
            kind="job", outcome="cached", latency_s=event.wall_s,
            trace_id=event.trace_id, job_id=event.job_id,
        )
    if isinstance(event, JobFailed) and event.final:
        return ops_record(
            kind="job", outcome=f"failed:{event.error.split(':', 1)[0]}",
            latency_s=0.0, trace_id=event.trace_id, job_id=event.job_id,
            detail=event.error,
        )
    return None


# -- read side -------------------------------------------------------------


def tail_ops_log(path: str | Path, n: int = 10) -> LedgerRead:
    """The last ``n`` records of an ops log (fewer when the log is short),
    with the read's torn-line count."""
    if n < 1:
        raise ObsError(f"tail needs a positive count: {n}")
    records = OPS_LOG.read(path)
    return LedgerRead(records[-n:], torn=records.torn)


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    if not 0.0 <= q <= 1.0:
        raise ObsError(f"quantile must be in [0, 1]: {q}")
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def _latency_stats(values: list[float]) -> dict[str, float] | None:
    if not values:
        return None
    ordered = sorted(values)
    return {
        "p50": _quantile(ordered, 0.50),
        "p99": _quantile(ordered, 0.99),
        "max": ordered[-1],
    }


def summarize_ops(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Roll a record list up into the ``repro ops summary`` payload.

    Pure and deterministic in the records: counts per kind and outcome
    family, latency/queue-wait quantiles over the served requests, the
    rejection rate, and the distinct trace-id count.
    """
    by_kind: dict[str, int] = {}
    by_outcome: dict[str, int] = {}
    latencies: list[float] = []
    waits: list[float] = []
    trace_ids: set[str] = set()
    rejected = 0
    for record in records:
        kind = str(record.get("kind", ""))
        outcome = str(record.get("outcome", ""))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        family = outcome.split(":", 1)[0]
        by_outcome[family] = by_outcome.get(family, 0) + 1
        if family == "rejected":
            rejected += 1
        if outcome == "ok" and kind in ("decision", "simulation", "job"):
            latencies.append(float(record.get("latency_s", 0.0)))
            waits.append(float(record.get("queue_wait_s", 0.0)))
        if record.get("trace_id"):
            trace_ids.add(str(record["trace_id"]))
    timestamps = [float(r.get("ts", 0.0)) for r in records]
    return {
        "total": len(records),
        "by_kind": dict(sorted(by_kind.items())),
        "by_outcome": dict(sorted(by_outcome.items())),
        "rejection_rate": rejected / len(records) if records else 0.0,
        "latency_s": _latency_stats(latencies),
        "queue_wait_s": _latency_stats(waits),
        "distinct_trace_ids": len(trace_ids),
        "span_s": (max(timestamps) - min(timestamps)) if timestamps else 0.0,
    }


def format_ops_summary(summary: Mapping[str, Any]) -> str:
    """The human-readable rendering of :func:`summarize_ops`."""
    lines = [f"{summary['total']} record(s) over {summary['span_s']:.1f} s"]
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in summary["by_kind"].items()
    )
    outcomes = ", ".join(
        f"{outcome}={count}" for outcome, count in summary["by_outcome"].items()
    )
    lines.append(f"kinds:    {kinds or '-'}")
    lines.append(f"outcomes: {outcomes or '-'}")
    lines.append(f"rejection rate: {summary['rejection_rate']:.2%}")
    for label, key in (("latency", "latency_s"), ("queue wait", "queue_wait_s")):
        stats = summary.get(key)
        if stats:
            lines.append(
                f"{label}: p50 {stats['p50'] * 1e3:.3f} ms, "
                f"p99 {stats['p99'] * 1e3:.3f} ms, "
                f"max {stats['max'] * 1e3:.3f} ms"
            )
    lines.append(f"distinct trace ids: {summary['distinct_trace_ids']}")
    return "\n".join(lines)
