"""repro.obs — zero-overhead-when-disabled observability.

One module-level hub (:data:`OBS`) owns the active
:class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`.  Probe points across the
simulator, governors, RL learners, trainer, and fleet all guard on
``OBS.enabled`` — a single attribute check — so uninstrumented runs are
bit-identical to, and indistinguishable in cost from, the
pre-observability engine.

Typical use::

    from repro import obs

    with obs.capture() as session:
        Simulator(chip, trace, governors).run()
    obs.write_chrome_trace("trace.json", session.tracer, session.metrics)
    print(obs.format_breakdown(obs.phase_breakdown(session.metrics.snapshot())))

Module map:

* :mod:`repro.obs.trace`   — spans, instants, ``Tracer`` / ``NullTracer``
* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  behind a ``MetricsRegistry``; ``merge_snapshots`` for fleet grids
* :mod:`repro.obs.export`  — Chrome ``trace_event`` JSON, JSONL,
  Prometheus text
* :mod:`repro.obs.profile` — ``engine.phase.*`` counter time breakdowns
* :mod:`repro.obs.context` — ``TraceContext`` request correlation
* :mod:`repro.obs.ledger`  — the shared JSONL ledger primitive
  (``LedgerKind``), ``gate`` and ``render`` for every ledger report
* :mod:`repro.obs.opslog`  — structured JSONL ops log (``OpsLogger``)
* :mod:`repro.obs.learn`   — JSONL learning ledger (``LearnRecorder``),
  convergence/divergence detectors, ``repro learn`` gate
* :mod:`repro.obs.runtime` — sliding windows, health indicators, SLOs

Span/metric naming conventions live in ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.context import (
    TraceContext,
    bind,
    current_context,
    new_trace_id,
    trace_args,
)
from repro.obs.export import (
    EPOCH_METADATA_NAME,
    chrome_trace,
    load_chrome_trace,
    load_snapshot,
    merge_trace_files,
    merge_traces,
    prometheus_text,
    read_jsonl,
    span_tree,
    trace_lanes,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.learn import (
    DEFAULT_CONVERGENCE,
    LEARN_LOG,
    LEARN_RECORD_FIELDS,
    ConvergenceSpec,
    LearnRecorder,
    LearnReport,
    LearnVerdict,
    evaluate_learning,
    format_learn_summary,
    gate_learn_log,
    is_plateau,
    learn_record,
    load_convergence_spec,
    plateau_episode,
    spec_from_mapping,
    summarize_learning,
)
from repro.obs.ledger import (
    FORMATS,
    GateReport,
    GateResult,
    LedgerKind,
    LedgerRead,
    gate,
    render,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
)
from repro.obs.opslog import (
    OPS_LOG,
    OPS_RECORD_FIELDS,
    OpsLogger,
    format_ops_summary,
    job_record_from_event,
    ops_record,
    summarize_ops,
    tail_ops_log,
)
from repro.obs.profile import PhaseStat, format_breakdown, phase_breakdown
from repro.obs.runtime import (
    DEFAULT_SLOS,
    SlidingWindow,
    SloReport,
    SloSpec,
    SloVerdict,
    evaluate_slos,
    gate_ops_log,
    health_indicators,
    load_slo_config,
    slos_from_mapping,
)
from repro.obs.trace import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)


class ObsHub:
    """The process-wide observability switchboard.

    Attributes:
        enabled: The one flag every probe checks.
        tracer: The active tracer (:data:`~repro.obs.trace.NULL_TRACER`
            while disabled).
        metrics: The active registry (a throwaway one while disabled).
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Tracer | NullTracer = NULL_TRACER
        self.metrics = MetricsRegistry()


OBS = ObsHub()
"""The singleton hub; import this name, never rebind it."""


@dataclass(frozen=True)
class ObsSession:
    """The tracer/registry pair one :func:`enable` or :func:`capture`
    installed; keeps the data reachable after :func:`disable`."""

    tracer: Tracer | NullTracer
    metrics: MetricsRegistry


def enable(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    trace: bool = True,
) -> ObsSession:
    """Switch observability on, installing fresh collectors.

    Args:
        tracer: Tracer to install; a new one when omitted.
        metrics: Registry to install; a new one when omitted.
        trace: When False, install the null tracer (metrics-only
            sessions — what fleet workers use, since shipping a million
            spans over a process boundary helps no one).
    """
    OBS.tracer = tracer if tracer is not None else (
        Tracer() if trace else NULL_TRACER
    )
    OBS.metrics = metrics if metrics is not None else MetricsRegistry()
    OBS.enabled = True
    return ObsSession(tracer=OBS.tracer, metrics=OBS.metrics)


def disable() -> None:
    """Switch observability off (probes go back to the attribute check)."""
    OBS.enabled = False
    OBS.tracer = NULL_TRACER
    OBS.metrics = MetricsRegistry()


@contextmanager
def capture(trace: bool = True) -> Iterator[ObsSession]:
    """Scoped observability: enable on entry, restore on exit.

    Nests correctly — the previous tracer/registry (and enabled state)
    come back when the block exits, so a library caller cannot clobber
    an outer capture.
    """
    session = ObsSession(
        tracer=Tracer() if trace else NULL_TRACER, metrics=MetricsRegistry()
    )
    with use(session):
        yield session


@contextmanager
def use(session: ObsSession | None) -> Iterator[None]:
    """Route every probe to ``session``'s collectors for the block, then
    restore the previous state, as :func:`capture` does; ``None`` leaves
    the hub as it is.  Lock-step lanes use it to keep their own counters.
    """
    if session is None:
        yield
        return
    saved = (OBS.enabled, OBS.tracer, OBS.metrics)
    OBS.enabled, OBS.tracer, OBS.metrics = True, session.tracer, session.metrics
    try:
        yield
    finally:
        OBS.enabled, OBS.tracer, OBS.metrics = saved


__all__ = [
    "ConvergenceSpec",
    "Counter",
    "DEFAULT_CONVERGENCE",
    "DEFAULT_SLOS",
    "EPOCH_METADATA_NAME",
    "FORMATS",
    "GateReport",
    "GateResult",
    "Gauge",
    "Histogram",
    "InstantRecord",
    "LEARN_LOG",
    "LEARN_RECORD_FIELDS",
    "LearnRecorder",
    "LearnReport",
    "LearnVerdict",
    "LedgerKind",
    "LedgerRead",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OBS",
    "OPS_LOG",
    "OPS_RECORD_FIELDS",
    "ObsHub",
    "ObsSession",
    "OpsLogger",
    "PhaseStat",
    "SlidingWindow",
    "SloReport",
    "SloSpec",
    "SloVerdict",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "bind",
    "capture",
    "chrome_trace",
    "current_context",
    "disable",
    "enable",
    "evaluate_learning",
    "evaluate_slos",
    "format_breakdown",
    "format_learn_summary",
    "format_ops_summary",
    "gate",
    "gate_learn_log",
    "gate_ops_log",
    "health_indicators",
    "histogram_quantile",
    "is_plateau",
    "job_record_from_event",
    "learn_record",
    "load_chrome_trace",
    "load_convergence_spec",
    "load_slo_config",
    "load_snapshot",
    "merge_snapshots",
    "merge_trace_files",
    "merge_traces",
    "new_trace_id",
    "ops_record",
    "phase_breakdown",
    "plateau_episode",
    "prometheus_text",
    "read_jsonl",
    "render",
    "slos_from_mapping",
    "span_tree",
    "spec_from_mapping",
    "summarize_learning",
    "summarize_ops",
    "tail_ops_log",
    "trace_args",
    "trace_lanes",
    "use",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
