#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics hold steady.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --sets 2 --seed 500
    python3 perfbench/steady.py --workloads serve-logged --runs 5 --sets 1

Runs every chosen workload ``--runs`` times per set, interleaving the
sets and alternating the workload order from one round to the next, so
slow drifts of the host hit every set alike.  Every run gets its own
seed.  For every metric it prints each set's median and quartiles, the
spread (interquartile range over median), and whether the spread is
below a third of the metric's bound and the sets' medians agree within
the bound, the two tests a change's runs are judged by.  ``setup_s`` is
exempt from the spread test (its bound only limits the median shift).
Exits 1 when a run fails or is incorrect, or a test fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import spec  # noqa: E402

RUN_TIMEOUT_S = 400.0


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and IQR as a share of median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def judge(sets: list[list[float]], metric: spec.Metric) -> tuple[list[str], bool]:
    """Report lines for one metric, and whether it passes."""
    lines = []
    ok = True
    medians = []
    for k, values in enumerate(sets):
        median, q1, q3, share = spread(values)
        medians.append(median)
        steady = metric.name == "setup_s" or share < metric.bound / 3
        ok = ok and steady
        lines.append(
            f"    set {k}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {share:.3f} {'ok' if steady else 'TOO WIDE'}"
        )
    for k in range(1, len(medians)):
        worse = (medians[k] - medians[0]) / medians[0]
        if metric.better == "higher":
            worse = -worse
        agree = worse <= metric.bound
        ok = ok and agree
        lines.append(f"    set {k} vs set 0: {worse:+.3f} worse "
                     f"(bound {metric.bound}) {'ok' if agree else 'DISAGREE'}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; every run gets its own")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(spec.WORKLOAD_NAMES)
    if unknown or args.runs < 2:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown
                     else "--runs must be at least 2")

    results: dict[str, list[list[dict]]] = {
        w: [[] for _ in range(args.sets)] for w in workloads
    }
    seed = args.seed
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            set_order = range(args.sets) if r % 2 == 0 else range(args.sets)[::-1]
            for k in set_order:
                result = run_once(w, seed, args.seconds)
                seed += 1
                results[w][k].append(result)
                print(f"run {r} {w} set {k}: correct={result['correct']} "
                      + " ".join(f"{n}={m['value']:.6g}"
                                 for n, m in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    ok = True
    for w in workloads:
        correct = all(r["correct"] for runs in results[w] for r in runs)
        ok = ok and correct
        print(f"{w}: {args.sets} set(s) of {args.runs} runs, "
              f"all correct: {correct}")
        for metric in spec.END_TO_END:
            sets = [[r["metrics"][metric.name]["value"] for r in runs]
                    for runs in results[w]]
            lines, passed = judge(sets, metric)
            ok = ok and passed
            print(f"  {metric.name} ({metric.unit}, bound {metric.bound})")
            print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
