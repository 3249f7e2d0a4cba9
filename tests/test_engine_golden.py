"""Golden fingerprints of the simulated numbers.

Every (scenario, governor, chip preset) job of the E1 grid — the six
baseline governors plus ``rl-policy`` — runs through
:func:`repro.fleet.worker.simulate_spec` at a short duration, and a
sha256 over every float and count of its result is compared with the
committed fingerprint in ``tests/data/engine-golden.json``.
``full_system=True`` jobs on ``exynos5422`` cover the transition-stall
cursor offset, the throttle and the idle model.  A second family hashes
the serial engine's per-interval observation log and sample series,
which carry the counters a :class:`~repro.sim.result.SimulationResult`
does not (arrived and completed work, completions, misses, queue slack).

The data file records :data:`repro.sim.engine.ENGINE_VERSION`.  A change
that is meant to alter the numbers bumps that version and regenerates
the file::

    PYTHONPATH=src python tests/test_engine_golden.py --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.fleet.spec import JobSpec
from repro.fleet.worker import simulate_spec
from repro.governors import BASELINE_SIX, create
from repro.idle.governor import MenuIdleGovernor
from repro.mem.dram import DRAMModel
from repro.sim.engine import ENGINE_VERSION, Simulator
from repro.soc.presets import PRESETS, exynos5422
from repro.soc.transition import DVFSTransitionModel
from repro.thermal.rc import default_thermal_model
from repro.thermal.throttle import ThermalThrottle
from repro.workload.scenarios import SCENARIOS, get_scenario

DATA = Path(__file__).parent / "data" / "engine-golden.json"
DURATION_S = 0.5
TRAIN_EPISODES = 2
SEED = 100
GOVERNORS = (*BASELINE_SIX, "rl-policy")
FULL_SYSTEM_CHIP = "exynos5422"


def _digest(value: object) -> str:
    """sha256 of a JSON rendering whose floats are spelled exactly."""

    def exact(v: object) -> object:
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, dict):
            return {str(k): exact(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [exact(x) for x in v]
        return v

    blob = json.dumps(exact(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _specs() -> list[JobSpec]:
    specs = [
        JobSpec(
            scenario=scenario, governor=governor, seed=SEED, chip=chip,
            duration_s=DURATION_S, train_episodes=TRAIN_EPISODES,
        )
        for chip in sorted(PRESETS)
        for scenario in sorted(SCENARIOS)
        for governor in GOVERNORS
    ]
    specs += [
        JobSpec(
            scenario=scenario, governor=governor, seed=SEED,
            chip=FULL_SYSTEM_CHIP, duration_s=DURATION_S,
            train_episodes=TRAIN_EPISODES, full_system=True,
        )
        for scenario in sorted(SCENARIOS)
        for governor in GOVERNORS
    ]
    return specs


def _spec_key(spec: JobSpec) -> str:
    return spec.job_id + ("/full" if spec.full_system else "")


def _result_fingerprint(spec: JobSpec) -> str:
    r = simulate_spec(spec)
    return _digest({
        "governor": r.governor,
        "trace_name": r.trace_name,
        "duration_s": r.duration_s,
        "total_energy_j": r.total_energy_j,
        "dynamic_energy_j": r.dynamic_energy_j,
        "leakage_energy_j": r.leakage_energy_j,
        "uncore_energy_j": r.uncore_energy_j,
        "qos": asdict(r.qos),
        "intervals": r.intervals,
        "opp_switches": r.opp_switches,
    })


def _observation_fingerprint(scenario: str, full_system: bool) -> str:
    """The ondemand governor under the serial engine, every counter kept."""
    chip = exynos5422()
    extras = {}
    if full_system:
        extras = dict(
            thermal=default_thermal_model(chip.cluster_names),
            throttle=ThermalThrottle(trip_c=85.0),
            idle_governor=MenuIdleGovernor(),
            transition=DVFSTransitionModel(),
        )
    r = Simulator(
        chip,
        get_scenario(scenario).trace(DURATION_S, seed=SEED),
        lambda cluster: create("ondemand"),
        record_samples=True,
        record_observations=True,
        memory=DRAMModel(),
        **extras,
    ).run()
    return _digest({
        "total_energy_j": r.total_energy_j,
        "uncore_energy_j": r.uncore_energy_j,
        "qos": asdict(r.qos),
        "samples": [asdict(s) for s in r.samples],
        "observations": {
            name: [asdict(o) for o in log]
            for name, log in r.observations.items()
        },
    })


def _observation_keys() -> list[tuple[str, bool]]:
    return [(s, full) for s in sorted(SCENARIOS) for full in (False, True)]


def _observation_key(scenario: str, full_system: bool) -> str:
    return f"observations/{scenario}" + ("/full" if full_system else "")


def generate() -> dict[str, object]:
    """Every fingerprint, computed by the current code."""
    fingerprints = {_spec_key(s): _result_fingerprint(s) for s in _specs()}
    for scenario, full in _observation_keys():
        fingerprints[_observation_key(scenario, full)] = (
            _observation_fingerprint(scenario, full)
        )
    return {
        "engine_version": ENGINE_VERSION,
        "duration_s": DURATION_S,
        "train_episodes": TRAIN_EPISODES,
        "seed": SEED,
        "fingerprints": fingerprints,
    }


REGENERATE_HINT = (
    "if the change is meant to alter simulated numbers, bump ENGINE_VERSION "
    "and regenerate with: PYTHONPATH=src python tests/test_engine_golden.py "
    "--regenerate"
)


@pytest.fixture(scope="module")
def golden() -> dict[str, object]:
    return json.loads(DATA.read_text())


def test_engine_version_matches(golden):
    assert golden["engine_version"] == ENGINE_VERSION, (
        f"golden fingerprints were generated for ENGINE_VERSION "
        f"{golden['engine_version']!r}, the engine is {ENGINE_VERSION!r}; "
        + REGENERATE_HINT
    )


def test_golden_covers_the_grid(golden):
    expected = {_spec_key(s) for s in _specs()} | {
        _observation_key(s, full) for s, full in _observation_keys()
    }
    assert set(golden["fingerprints"]) == expected


def test_result_fingerprints(golden):
    stored = golden["fingerprints"]
    changed = [
        key for key, spec in ((_spec_key(s), s) for s in _specs())
        if _result_fingerprint(spec) != stored[key]
    ]
    assert not changed, (
        f"{len(changed)} job results changed, e.g. {changed[:5]}; "
        + REGENERATE_HINT
    )


def test_observation_fingerprints(golden):
    stored = golden["fingerprints"]
    changed = [
        _observation_key(s, full) for s, full in _observation_keys()
        if _observation_fingerprint(s, full) != stored[_observation_key(s, full)]
    ]
    assert not changed, (
        f"{len(changed)} observation logs changed, e.g. {changed[:5]}; "
        + REGENERATE_HINT
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--regenerate", action="store_true",
        help=f"rewrite {DATA.name} from the current code",
    )
    args = parser.parse_args(argv)
    if not args.regenerate:
        parser.print_help()
        return 2
    DATA.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
