"""Performance-ledger discipline (RPL501): one row of the sole-writer rule.

The ledger's value is that every record has the same shape — run id,
git SHA, timestamp, config, flat metrics — which only holds while
:func:`repro.perf.record_run` is the sole writer.  A write that
mentions a ledger anywhere outside :mod:`repro.perf.ledger` is flagged.
"""

from __future__ import annotations

from repro.lint.rules.solewriter import SoleWriter, register_row

ROW = SoleWriter(
    code="RPL501",
    name="perf.ledger-discipline",
    blessed="perf/ledger.py",
    names="ledger",
    summary=(
        "ad-hoc write to a perf ledger; all records must go through "
        "repro.perf.record_run() so the schema stays uniform"
    ),
    hint=(
        "ad-hoc ledger write; append run records through "
        "repro.perf.record_run() instead of dumping JSON "
        "directly, so every record carries the shared schema"
    ),
)

register_row(ROW)
