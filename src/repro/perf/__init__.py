"""repro.perf — the performance ledger and regression gate.

Every measured execution (``repro run`` / ``compare`` / ``fleet``
invocations, each benchmark) appends a :class:`RunRecord` through
:func:`record_run` to an append-only JSONL ledger
(``.repro/perf-ledger.jsonl`` by default, ``REPRO_PERF_LEDGER`` to
override).  :func:`compare_records` then tests the latest samples
against history — bootstrap median-shift CIs when there are enough
samples, a plain threshold rule when there are not — and ``repro perf
gate`` turns the verdicts into an exit code for CI.

Module map:

* :mod:`repro.perf.ledger`  — ``RunRecord`` / ``PERF_LEDGER`` /
  ``record_run`` / snapshot flattening
* :mod:`repro.perf.regress` — ``compare_records`` / ``PerfComparison``

``gate``, ``GateResult`` and ``render`` are the shared ones from
:mod:`repro.obs.ledger`, re-exported here.

Schema and gate semantics live in ``docs/observability.md``.
"""

from __future__ import annotations

from repro.perf.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_ENV_VAR,
    LEDGER_SCHEMA_VERSION,
    PERF_LEDGER,
    RunRecord,
    git_sha,
    group_samples,
    metrics_from_snapshot,
    new_run_id,
    record_run,
    resolve_ledger_path,
    split_latest,
)
from repro.obs.ledger import GateResult, gate, render
from repro.perf.regress import (
    DEFAULT_BOOTSTRAP_ITERS,
    DEFAULT_CONFIDENCE,
    DEFAULT_THRESHOLD,
    MIN_BOOTSTRAP_SAMPLES,
    MetricVerdict,
    PerfComparison,
    compare_records,
    metric_polarity,
)

__all__ = [
    "DEFAULT_BOOTSTRAP_ITERS",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_LEDGER_PATH",
    "DEFAULT_THRESHOLD",
    "GateResult",
    "LEDGER_ENV_VAR",
    "LEDGER_SCHEMA_VERSION",
    "MIN_BOOTSTRAP_SAMPLES",
    "MetricVerdict",
    "PERF_LEDGER",
    "PerfComparison",
    "RunRecord",
    "compare_records",
    "gate",
    "git_sha",
    "group_samples",
    "metric_polarity",
    "metrics_from_snapshot",
    "new_run_id",
    "record_run",
    "render",
    "resolve_ledger_path",
    "split_latest",
]
