"""Learning-ledger discipline (RPL802): one row of the sole-writer rule.

``repro learn report`` and ``repro learn gate`` only work while every
learning-ledger line carries the shared per-episode schema, which
holds while :meth:`repro.obs.LearnRecorder.log` is the sole writer.  A
write that mentions a learning log anywhere outside
:mod:`repro.obs.learn` is flagged.
"""

from __future__ import annotations

from repro.lint.rules.solewriter import SoleWriter, register_row

ROW = SoleWriter(
    code="RPL802",
    name="obs.learnlog-discipline",
    blessed="obs/learn.py",
    names="learn_log|learn-log|learnlog",
    summary=(
        "ad-hoc write to a learning ledger; all records must go through "
        "repro.obs.LearnRecorder.log() so every line carries the shared "
        "per-episode schema"
    ),
    hint=(
        "ad-hoc learning-ledger write; append records through "
        "repro.obs.LearnRecorder.log() instead of dumping JSON "
        "directly, so every record carries the shared schema"
    ),
)

register_row(ROW)
