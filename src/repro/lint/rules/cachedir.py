"""Run-cache discipline (RPL601): one row of the sole-writer rule.

The run cache (:mod:`repro.cache`) is content-addressed: every entry
file is named by the sha256 of its job spec and engine version, written
atomically, and validated on read.  A write that names the cache
directory anywhere outside :mod:`repro.cache.store` is flagged.
"""

from __future__ import annotations

from repro.lint.rules.solewriter import SoleWriter, register_row

ROW = SoleWriter(
    code="RPL601",
    name="cache.store-discipline",
    blessed="cache/store.py",
    # Only the run-cache directory, not any cache: functools memos
    # and CPU caches stay out of scope.
    names="cache_dir|cache_path|cache_root|^cache_env_var$",
    strings=r"\.repro/cache|repro_cache_dir",
    summary=(
        "ad-hoc write into the run-cache directory; entries must go "
        "through repro.cache.RunCache so keys stay content-addressed "
        "and writes atomic"
    ),
    hint=(
        "ad-hoc run-cache write; store results through "
        "repro.cache.RunCache.store() so entry names stay "
        "content hashes and writes stay atomic"
    ),
)

register_row(ROW)
