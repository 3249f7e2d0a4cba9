#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, against this checkout.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12
    python3 perfbench/run.py --write-manifest

One workload prints a human-readable report on stderr and, as the last
line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in its own interpreter and prints every end-to-end metric by
name and unit.  ``--write-manifest`` regenerates ``BENCHMARK.json``
from :mod:`perfbench.spec`.

The program is imported from ``src/`` of the checkout this file sits
in; without it the command fails before measuring anything.  Scratch
files live under ``.bench_build/perfbench`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package, not this file's directory, is what gets imported.
sys.path[0] = str(ROOT)

from perfbench import spec  # noqa: E402

RUN_TIMEOUT_S = 170.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*spec.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run a workload in this process; returns the result object."""
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import hostspeed
    from perfbench.harness import Context

    hostspeed.pin_to_one_cpu()

    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=ROOT, workdir=workdir, seed=seed, seconds=seconds,
                  trace=trace)
    try:
        if workload in ("batch-sweep", "headline-grid"):
            from perfbench import sims

            outcome = sims.run(ctx, workload)
        else:
            from perfbench import serving

            outcome = serving.run(ctx, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = {m.name for m in (spec.PER_LAYER if trace else spec.END_TO_END)}
    if set(outcome.metrics) != expected:
        raise RuntimeError(
            f"{workload} emitted {sorted(set(outcome.metrics) ^ expected)} "
            "against the declared metrics"
        )
    for line in outcome.report + outcome.problems:
        print(line, file=sys.stderr)
    return outcome.as_result()


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh interpreter; prints a metric table."""
    ok = True
    for workload in spec.WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            check=False,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: failed (exit {done.returncode})")
            ok = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<18} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.write_manifest:
        print(spec.write_manifest(ROOT))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
