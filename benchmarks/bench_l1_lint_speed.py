"""L1 — lint driver speed: the summary cache must pay for itself.

Every ``repro check`` run re-parses and re-summarises every file it
touches for its whole-program rules, so the driver keeps a
content-addressed summary cache (``.repro/lintcache``) and a ``--jobs``
fan-out.  This
bench pins the economics: a warm cache run over ``src/`` must be
strictly faster than the cold run that populated it, and the parallel
uncached path must agree with the serial one finding-for-finding.
Timings land in the perf ledger so ``repro perf gate`` tracks the
trajectory.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.lint import analyze_paths

from conftest import write_result

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src"


def _timed(**kwargs):
    t0 = time.perf_counter()
    result = analyze_paths([SRC], **kwargs)
    return time.perf_counter() - t0, result


def test_l1_lint_speed(tmp_path):
    cache_dir = tmp_path / "lintcache"

    cold_s, cold = _timed(cache_dir=cache_dir)
    warm_s, warm = _timed(cache_dir=cache_dir)
    jobs = max(2, (os.cpu_count() or 2) // 2)
    parallel_s, parallel = _timed(cache=False, jobs=jobs)

    # The shipping tree is clean, cold or warm, serial or parallel.
    assert cold.findings == []
    assert warm.findings == cold.findings
    assert parallel.findings == cold.findings
    assert parallel.suppressed == cold.suppressed

    # Cache accounting: everything misses cold, everything hits warm.
    assert cold.cache_hits == 0
    assert cold.cache_misses == cold.files_checked
    assert warm.cache_hits == warm.files_checked
    assert warm.cache_misses == 0

    # The acceptance bar: warm must beat cold outright.
    assert warm_s < cold_s

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    lines = [
        f"L1: lint driver speed over src/ ({cold.files_checked} files, "
        "whole-program rules included)",
        f"  cold (empty cache)   : {cold_s * 1e3:8.1f} ms",
        f"  warm (all hits)      : {warm_s * 1e3:8.1f} ms "
        f"({speedup:.1f}x)",
        f"  uncached, --jobs {jobs}  : {parallel_s * 1e3:8.1f} ms",
    ]
    write_result(
        "l1_lint_speed",
        "\n".join(lines),
        metrics={
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_speedup": speedup,
            "parallel_uncached_s": parallel_s,
        },
        config={"corpus": "src", "jobs": jobs},
    )
