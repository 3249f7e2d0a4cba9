"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.soc.chip import Chip
from repro.soc.cluster import ClusterSpec
from repro.soc.core import CoreSpec
from repro.soc.opp import make_table
from repro.soc.presets import exynos5422, tiny_test_chip
from repro.workload.task import WorkUnit
from repro.workload.trace import Trace

# Tier-1 examples are derived from each test, not drawn at random, and
# no example database carries state between runs: a failure reproduces
# on rerun.  Per-test ``@settings(max_examples=...)`` keep their budgets
# and inherit the rest of this profile.
settings.register_profile("tier-1", derandomize=True, database=None)
settings.load_profile("tier-1")


@pytest.fixture
def tiny_chip() -> Chip:
    """1 cluster, 1 core, 3 OPPs — the fastest thing that simulates."""
    return tiny_test_chip()


@pytest.fixture
def duo_chip() -> Chip:
    """A small 2-cluster big.LITTLE-style chip for scheduler tests."""
    big = CoreSpec(name="B", capacity=2.0, ceff_f=4e-10, leak_a_per_v=0.08, is_big=True)
    little = CoreSpec(name="L", capacity=1.0, ceff_f=1e-10, leak_a_per_v=0.02)
    return Chip(
        "duo",
        [
            ClusterSpec("big", big, n_cores=2,
                        opp_table=make_table([500, 1000, 2000], [0.9, 1.0, 1.2])),
            ClusterSpec("little", little, n_cores=2,
                        opp_table=make_table([300, 600, 1200], [0.9, 0.95, 1.1])),
        ],
    )


@pytest.fixture
def big_little_chip() -> Chip:
    """The full Exynos-5422-class preset."""
    return exynos5422()


def unit(
    uid: int = 0,
    release: float = 0.0,
    work: float = 1e6,
    deadline: float | None = None,
    kind: str = "work",
    parallelism: int = 1,
) -> WorkUnit:
    """Terse work-unit builder for tests."""
    return WorkUnit(
        uid=uid,
        release_s=release,
        work=work,
        deadline_s=deadline if deadline is not None else release + 0.1,
        kind=kind,
        min_parallelism=parallelism,
    )


@pytest.fixture
def single_unit_trace() -> Trace:
    """One 1e6-cycle unit released at t=0, due at t=0.1."""
    return Trace(units=[unit()], name="single", duration_s=0.2)


@pytest.fixture
def steady_trace() -> Trace:
    """Periodic 30 Hz units, comfortably feasible on the tiny chip."""
    units = [
        unit(uid=i, release=i / 30.0, work=5e6, deadline=i / 30.0 + 1 / 30.0)
        for i in range(30)
    ]
    return Trace(units=units, name="steady", duration_s=1.1)


def damaged(data: st.DataObject, raw: bytes) -> bytes:
    """A cache entry's bytes truncated, with one byte flipped, or with one
    digit turned into another digit (which still parses: only a digest
    tells the edit apart).

    Positions are drawn in a fixed range and reduced modulo the length,
    so generation does not depend on the entry's length (run-cache
    entries carry a wall-clock stamp).
    """
    at = data.draw(st.integers(0, 1 << 16), label="at")
    how = data.draw(st.sampled_from(["truncate", "flip", "digit"]), label="how")
    if how == "truncate":
        return raw[: at % len(raw)]
    if how == "digit":
        digits = [i for i, byte in enumerate(raw) if chr(byte).isdigit()]
        i = digits[at % len(digits)]
        step = data.draw(st.integers(1, 9), label="step")
        new = ord("0") + (raw[i] - ord("0") + step) % 10
    else:
        i = at % len(raw)
        new = raw[i] ^ data.draw(st.integers(1, 255), label="mask")
    return raw[:i] + bytes([new]) + raw[i + 1:]
