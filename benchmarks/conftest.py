"""Shared machinery for the experiment benches.

Every bench regenerates one table or figure of the paper (see
DESIGN.md's experiment index).  Heavy shared computations (the full
scenarios x governors sweep) are session-cached so E1/E2/E3 pay for one
sweep — and that sweep fans out across all CPU cores through
``repro.fleet``, whose rows are bit-identical to a serial run.  Each
bench writes its rendered table into ``benchmarks/results/<bench>.txt``
so EXPERIMENTS.md numbers can be traced to a file; benches that pass a
``metrics`` mapping additionally get a machine-readable
``benchmarks/results/<bench>.json`` so the perf trajectory can be
tracked across PRs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

import pytest

from repro.analysis.sweep import SweepResult
from repro.fleet import FleetResult, FleetSpec, fleet_summary, run_fleet
from repro.governors import BASELINE_SIX
from repro.perf import LEDGER_ENV_VAR, new_run_id, record_run
from repro.workload.scenarios import EVALUATION_SET

RESULTS_DIR = Path(__file__).parent / "results"

# One knob for total bench runtime: evaluation trace length and RL
# training budget used by the sweep-based benches.
EVAL_DURATION_S = 20.0
TRAIN_EPISODES = 20
EVAL_SEED = 100

#: The ledger config of a bench that runs the shared sweep's settings.
SWEEP_CONFIG = {"duration_s": EVAL_DURATION_S, "episodes": TRAIN_EPISODES,
                "seed": EVAL_SEED}

T = TypeVar("T")
U = TypeVar("U")

# All benches of one pytest invocation share a ledger run id, so
# ``repro perf gate`` sees them as one "current" run.  The ledger is
# anchored at the repo root (not the cwd) unless REPRO_PERF_LEDGER says
# otherwise.
_BENCH_RUN_ID = new_run_id()
_LEDGER_PATH = os.environ.get(LEDGER_ENV_VAR) or str(
    Path(__file__).parent.parent / ".repro" / "perf-ledger.jsonl"
)


def write_result(
    name: str,
    text: str,
    metrics: dict[str, float] | None,
    config: Mapping[str, Any],
) -> None:
    """Persist a bench's rendered table under benchmarks/results/.

    Args:
        name: Bench id (the file stem).
        text: The rendered table, written to ``<name>.txt``.
        metrics: Optional metric-name -> value mapping, written to
            ``<name>.json`` for machine-readable tracking across PRs
            and appended to the performance ledger (``repro.perf``) so
            ``repro perf gate`` can test the trajectory.
        config: The settings the bench ran, stamped on the ledger
            record; ``repro perf gate`` compares samples of equal
            config only.  :data:`SWEEP_CONFIG` for a bench over the
            shared sweep; ``{}`` for one that runs an experiment at its
            built-in settings.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if metrics is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        )
        record_run(
            "bench", name, metrics, config,
            run_id=_BENCH_RUN_ID, path=_LEDGER_PATH,
        )
    print()
    print(text)


def best_of_pair(
    repeats: int, first: Callable[[], T], second: Callable[[], U]
) -> tuple[tuple[float, T], tuple[float, U]]:
    """Wall seconds of the fastest of ``repeats`` calls of each of two
    functions, each with its last call's result.

    One timing of a sub-second run is mostly host noise; the fastest of
    several is the run's cost with the least noise in it.  The two sides
    alternate, and the order flips every round, so host load that
    drifts during the bench reaches both sides alike instead of skewing
    their ratio.
    """
    fns: tuple[Callable[[], Any], Callable[[], Any]] = (first, second)
    best = [float("inf"), float("inf")]
    results: list[Any] = [None, None]
    for round_ in range(repeats):
        for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            results[side] = fns[side]()
            best[side] = min(best[side], time.perf_counter() - t0)
    return (best[0], results[0]), (best[1], results[1])


@pytest.fixture(scope="session")
def headline_fleet() -> FleetResult:
    """The E1/E2/E3 grid executed through the fleet runner on all cores.

    Six governors + RL over the six-scenario set; rows are bit-identical
    to the serial :func:`repro.experiments.run_headline_sweep` (pinned by
    ``tests/test_fleet.py``), and the per-job wall clocks let benches
    report the serial-vs-parallel wall-clock ratio.
    """
    spec = FleetSpec(
        scenarios=tuple(EVALUATION_SET),
        governors=tuple(BASELINE_SIX),
        seeds=(EVAL_SEED,),
        include_rl=True,
        duration_s=EVAL_DURATION_S,
        train_episodes=TRAIN_EPISODES,
    )
    return run_fleet(spec, jobs=os.cpu_count())


@pytest.fixture(scope="session")
def full_sweep(headline_fleet: FleetResult) -> SweepResult:
    """The E1/E2/E3 data: six governors + RL over the six-scenario set."""
    return headline_fleet.sweep_result()


def fleet_footer(fleet: FleetResult) -> str:
    """The execution-summary lines benches append to their tables."""
    return "fleet execution (shared E1/E2/E3 sweep):\n" + fleet_summary(fleet)
