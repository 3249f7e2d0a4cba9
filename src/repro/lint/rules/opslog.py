"""Ops-log discipline (RPL801): one row of the sole-writer rule.

``repro slo gate`` and ``repro ops summary`` only work while every
ops-log line carries the shared record schema, which holds while
:meth:`repro.obs.OpsLogger.log` is the sole writer.  A write that
mentions an ops log anywhere outside :mod:`repro.obs.opslog` is
flagged.
"""

from __future__ import annotations

from repro.lint.rules.solewriter import SoleWriter, register_row

ROW = SoleWriter(
    code="RPL801",
    name="obs.opslog-discipline",
    blessed="obs/opslog.py",
    names="ops_log|ops-log|opslog",
    summary=(
        "ad-hoc write to an ops log; all records must go through "
        "repro.obs.OpsLogger.log() so every line carries the shared "
        "record schema"
    ),
    hint=(
        "ad-hoc ops-log write; append records through "
        "repro.obs.OpsLogger.log() instead of dumping JSON "
        "directly, so every record carries the shared schema"
    ),
)

register_row(ROW)
