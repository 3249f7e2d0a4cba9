"""The benchmark's own tests: declarations, tiny runs, tracing hygiene.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import run_batch

from perfbench import harness, layers, serving, sims, spec
from perfbench.harness import Context

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    """Shrink every workload so a run takes about a second."""
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(sims, "DURATION_S", 1.0)
    monkeypatch.setattr(sims, "TRAIN_EPISODES", 1)
    monkeypatch.setattr(sims, "BATCH_SEEDS", 2)
    monkeypatch.setattr(serving, "CHECKPOINT_EPISODES", 1)
    monkeypatch.setattr(serving, "CHECKPOINT_EPISODE_S", 1.0)
    monkeypatch.setattr(serving, "POOL_SIZE", 64)


def _run(workload: str, tmp_path: Path, trace: bool) -> harness.Outcome:
    ctx = Context(root=ROOT, workdir=tmp_path, seed=3, seconds=0.4,
                  trace=trace)
    module = sims if workload in ("batch-sweep", "headline-grid") else serving
    return module.run(ctx, workload)


def test_manifest_is_generated_from_spec() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.manifest()


def test_declarations_are_well_formed() -> None:
    metrics = spec.END_TO_END + spec.PER_LAYER
    names = [m.name for m in metrics] + list(spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and spec.NAME_RE.fullmatch(name), name
    for metric in metrics:
        assert spec.UNIT_RE.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    bounds = [m.bound for m in spec.END_TO_END]
    assert all(0 < b <= 0.25 for b in bounds)
    assert spec.BOUNDS["setup_s"] == max(bounds)


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_tiny_run_emits_exactly_the_declared_metrics(
    tiny: None, tmp_path: Path, workload: str, trace: bool
) -> None:
    before = layers.originals()
    outcome = _run(workload, tmp_path, trace)
    after = layers.originals()

    assert outcome.correct, outcome.problems
    assert outcome.attempted >= 1 and outcome.failed == 0
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(outcome.metrics) == {m.name for m in declared}
    result = json.loads(json.dumps(outcome.as_result()))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == spec.UNITS[name]
        assert math.isfinite(metric["value"]), name
    # Every wrapper is gone: the patched names hold the originals again.
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_patch_target_exists() -> None:
    with layers.traced() as clock:
        assert clock.missing == []


def test_tracing_leaves_results_unchanged(tiny: None) -> None:
    specs = sims.batch_specs(5)
    plain = [sims._result_row(r) for r in run_batch(specs)]
    with layers.traced() as clock:
        traced = [sims._result_row(r) for r in run_batch(specs)]
    assert traced == plain
    assert clock.calls["batch.rl_train"] == 1


def test_self_time_excludes_wrapped_children() -> None:
    clock = layers.LayerClock()
    inner = clock.wrap("inner", lambda: time.sleep(0.005))
    outer = clock.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert dict(clock.calls) == {"outer": 1, "inner": 2}
    assert clock.self_ns["inner"] == clock.total_ns["inner"] >= 10_000_000
    assert (clock.self_ns["outer"]
            == clock.total_ns["outer"] - clock.total_ns["inner"])


def test_command_prints_one_json_result_last() -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-open",
         "--seed", "4", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}


def test_command_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
