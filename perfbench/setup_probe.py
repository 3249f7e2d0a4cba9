"""One fresh interpreter's set-up for a workload, timed by the parent.

Usage (from the repository root, with it on ``PYTHONPATH``)::

    python3 -m perfbench.setup_probe WORKLOAD SEED WORKDIR

Imports the user path's entry modules (``repro.cli`` plus the
workload's package) and builds the program state the workload starts
from, then prints one JSON line with the time ``import repro.cli``
took.  The parent times the whole process as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    cli_import_s = time.perf_counter() - start
    if workload in ("batch-sweep", "headline-grid"):
        from perfbench import sims

        sims.build_state(workload, seed, workdir)
    else:
        from perfbench import serving

        serving.build_state(workload, workdir)
    print(json.dumps({"cli_import_s": cli_import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
