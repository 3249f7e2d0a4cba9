"""The shared interval core: arrival, EDF drain, abandon, queue slack.

Every engine calls :mod:`repro.sim.interval`, so its invariants are
checked here on generated queues rather than through one engine.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.interval import (
    GRACE_FACTOR,
    Lane,
    drain,
    edf_key,
    n_intervals,
    queue_slack,
    sequential_sum,
)
from repro.sim.scheduler import HMPScheduler, PinnedScheduler, Scheduler
from repro.soc.chip import Chip
from repro.soc.cluster import ClusterSpec
from repro.soc.core import CoreSpec
from repro.soc.opp import make_table
from repro.soc.presets import tiny_test_chip
from repro.workload.task import Job, WorkUnit
from repro.workload.trace import Trace

# The serial engine's per-core accounting tolerates this relative
# overshoot of the interval (``CoreState.record_interval``).
TOLERANCE = 1e-9


@st.composite
def drain_cases(draw):
    n_cores = draw(st.integers(1, 4))
    dt = draw(st.floats(1e-3, 0.1))
    step = draw(st.integers(0, 1000))
    t0 = step * dt
    rate = draw(st.floats(1e3, 1e9))
    start = min(draw(st.floats(0.0, 2 * dt)), dt)
    jobs = []
    for uid in range(draw(st.integers(0, 12))):
        release = t0 - draw(st.floats(0.0, 5 * dt))
        release = max(release, 0.0)
        deadline = release + draw(st.floats(1e-4, 5 * dt))
        work = draw(st.floats(1.0, 3 * rate * dt))
        unit = WorkUnit(
            uid=uid, release_s=release, work=work, deadline_s=deadline,
            min_parallelism=draw(st.integers(1, n_cores + 1)),
        )
        remaining = work * draw(st.floats(0.01, 1.0))
        jobs.append(Job(unit, remaining=remaining))
    return n_cores, dt, t0, rate, start, jobs


def _cutoff(jobs):
    return {
        j.unit.uid: j.unit.deadline_s + GRACE_FACTOR * j.unit.slack_s
        for j in jobs
    }


class TestDrainInvariants:
    @settings(max_examples=200, deadline=None)
    @given(drain_cases())
    def test_invariants(self, case):
        n_cores, dt, t0, rate, start, jobs = case
        before = {id(j): j.remaining for j in jobs}
        cutoff = _cutoff(jobs)
        queue = list(jobs)
        cursors, completed_work, completions, misses = drain(
            queue, n_cores, rate, t0, dt, cutoff, start=start
        )
        t1 = t0 + dt

        # Consumed work is the drop in remaining work.
        dropped = sum(before[id(j)] - j.remaining for j in jobs)
        assert math.isclose(
            completed_work, dropped,
            rel_tol=1e-9, abs_tol=1e-12 * sum(before.values()),
        )
        assert all(j.remaining <= before[id(j)] for j in jobs)

        # No core loses time it never had or runs past the interval.
        assert len(cursors) == n_cores
        for c in cursors:
            assert start <= c <= dt * (1 + TOLERANCE)

        # Completions land inside the interval; the counts match them.
        finished = [j for j in jobs if j.remaining <= 0]
        for j in finished:
            assert t0 <= j.completed_at_s <= t0 + dt * (1 + TOLERANCE)
        for j in jobs:
            if j.remaining > 0:
                assert j.completed_at_s is None
        assert completions == len(finished)
        late = sum(1 for j in finished if j.completed_at_s > j.unit.deadline_s)
        pending = [j for j in jobs if j.remaining > 0]
        abandoned = [j for j in pending if t1 > cutoff[j.unit.uid]]
        assert misses == late + len(abandoned)

        # The queue keeps exactly the live jobs, in EDF order.
        assert queue == sorted(
            (j for j in pending if t1 <= cutoff[j.unit.uid]), key=edf_key
        )

    @settings(max_examples=100, deadline=None)
    @given(drain_cases())
    def test_full_stall_serves_nothing(self, case):
        n_cores, dt, t0, rate, _, jobs = case
        queue = list(jobs)
        before = [j.remaining for j in jobs]
        cursors, completed_work, completions, _ = drain(
            queue, n_cores, rate, t0, dt, _cutoff(jobs), start=dt
        )
        assert cursors == [dt] * n_cores
        assert completed_work == 0.0 and completions == 0
        assert [j.remaining for j in jobs] == before

    def test_single_core_share_is_exact(self):
        # One job on one core: the split ``w * (a / a)`` is exactly w.
        unit = WorkUnit(uid=0, release_s=0.0, work=3.0, deadline_s=1.0)
        job = Job(unit)
        queue = [job]
        cursors, done, completions, misses = drain(
            queue, 1, 100.0, 0.0, 0.1, {0: 3.0}
        )
        assert done == 3.0 and completions == 1 and misses == 0
        assert cursors == [3.0 / 100.0]
        assert job.completed_at_s == 0.0 + 3.0 / 100.0
        assert queue == []

    def test_zero_rate_only_abandons(self):
        unit = WorkUnit(uid=0, release_s=0.0, work=3.0, deadline_s=0.01)
        queue = [Job(unit)]
        cursors, done, completions, misses = drain(
            queue, 2, 0.0, 0.0, 0.1, {0: 0.03}
        )
        assert cursors == [0.0, 0.0]
        assert (done, completions, misses) == (0.0, 0, 1)
        assert queue == []


class TestLane:
    @settings(max_examples=50, deadline=None)
    @given(
        releases=st.lists(st.floats(0.0, 1.0), max_size=30),
        dt=st.floats(1e-3, 0.2),
    )
    def test_arrivals_match_the_strict_scan(self, releases, dt):
        units = [
            WorkUnit(uid=i, release_s=r, work=1.0, deadline_s=r + 0.5)
            for i, r in enumerate(releases)
        ]
        trace = Trace(units, duration_s=1.0)
        n_steps = n_intervals(trace.duration_s, dt)
        lane = Lane(trace, ["cpu"], dt, n_steps)
        chip = tiny_test_chip()
        scheduler = PinnedScheduler("cpu")
        admitted = 0
        for step in range(n_steps):
            t0 = step * dt
            lane.admit(step, t0, scheduler, chip)
            expected = sum(1 for u in trace.units if u.release_s < t0 + dt)
            assert lane.unit_idx == expected
            assert len(lane.jobs) == expected
            admitted = expected
        all_jobs = lane.all_jobs()
        assert len(all_jobs) == len(units)
        assert all(j.completed_at_s is None for j in all_jobs[admitted:])

    def test_unknown_cluster_is_an_error(self):
        class Stray(Scheduler):
            def assign(self, unit, chip, backlog_work, now_s):
                return "gpu"

        unit = WorkUnit(uid=0, release_s=0.0, work=1.0, deadline_s=0.5)
        lane = Lane(Trace([unit]), ["cpu"], 0.01, 50)
        with pytest.raises(SimulationError, match="unknown cluster"):
            lane.admit(0, 0.0, Stray(), tiny_test_chip())


@st.composite
def admission_cases(draw):
    """A heterogeneous chip, pre-filled run queues, and a trace whose
    arrivals bunch into few intervals, so several units are placed
    against the same backlog."""
    specs = []
    for c in range(draw(st.integers(1, 3))):
        core = CoreSpec(
            f"core{c}", capacity=draw(st.floats(0.5, 3.0)),
            ceff_f=1e-10, leak_a_per_v=0.01,
        )
        specs.append(ClusterSpec(
            f"c{c}", core, n_cores=draw(st.integers(1, 4)),
            opp_table=make_table([200.0, draw(st.floats(300.0, 2500.0))],
                                 [0.8, 1.1]),
        ))
    chip = Chip("fuzz", specs)
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    n_steps = draw(st.integers(1, 6))
    queued = {}
    uid = 0
    for spec in specs:
        jobs = []
        for _ in range(draw(st.integers(0, 5))):
            work = draw(st.floats(1e3, 5e7))
            unit = WorkUnit(uid=uid, release_s=0.0, work=work,
                            deadline_s=draw(st.floats(1e-3, 0.2)))
            uid += 1
            # Partly drained work with awkward low bits, so the running
            # backlog and a fresh re-sum are easy to tell apart.
            jobs.append(Job(unit, remaining=work * draw(st.floats(1e-3, 1.0))))
        queued[spec.name] = jobs
    units = []
    for _ in range(draw(st.integers(1, 25))):
        release = draw(st.integers(0, n_steps - 1)) * dt + draw(
            st.sampled_from([0.0, dt / 3, dt / 2])
        )
        units.append(WorkUnit(
            uid=uid, release_s=release, work=draw(st.floats(1e4, 3e7)),
            deadline_s=release + draw(st.floats(1e-3, 0.1)),
            min_parallelism=draw(st.integers(1, 4)),
        ))
        uid += 1
    return chip, dt, n_steps, queued, Trace(units, duration_s=n_steps * dt)


def _lane(chip, dt, n_steps, queued, trace):
    lane = Lane(trace, chip.cluster_names, dt, n_steps)
    for name, jobs in queued.items():
        lane.queues[name].extend(
            Job(j.unit, remaining=j.remaining) for j in jobs
        )
    return lane


def _admit_resumming(lane, step, t0, scheduler, chip):
    """Admission that re-sums every queue for every unit and makes the
    scheduler rank the chip afresh each time."""
    arrived = {}
    while lane.unit_idx < lane.arrive_until[step]:
        unit = lane.units[lane.unit_idx]
        backlog = {
            name: sum(j.remaining for j in q) for name, q in lane.queues.items()
        }
        scheduler._chip = None
        target = scheduler.assign(unit, chip, backlog, t0)
        job = Job(unit)
        lane.queues[target].append(job)
        lane.jobs.append(job)
        arrived[target] = arrived.get(target, 0.0) + unit.work
        lane.unit_idx += 1
    return arrived


class TestAdmission:
    @settings(max_examples=150, deadline=None)
    @given(admission_cases())
    def test_running_backlog_places_like_a_full_resum(self, case):
        chip, dt, n_steps, queued, trace = case
        lane = _lane(chip, dt, n_steps, queued, trace)
        reference = _lane(chip, dt, n_steps, queued, trace)
        scheduler, fresh = HMPScheduler(), HMPScheduler()
        for step in range(n_steps):
            t0 = step * dt
            arrived = lane.admit(step, t0, scheduler, chip)
            expected = _admit_resumming(reference, step, t0, fresh, chip)
            assert arrived == expected
            for name in chip.cluster_names:
                assert [j.unit.uid for j in lane.queues[name]] == [
                    j.unit.uid for j in reference.queues[name]
                ]
        assert lane.unit_idx == reference.unit_idx == len(trace.units)

    def test_release_steps_are_the_admitting_steps(self):
        units = [
            WorkUnit(uid=i, release_s=r, work=1.0, deadline_s=r + 0.5)
            for i, r in enumerate([0.0, 0.001, 0.025, 0.025, 0.07])
        ]
        lane = Lane(Trace(units, duration_s=0.1), ["cpu"], 0.01, 10)
        assert lane.release_steps() == [0, 2, 7]
        chip, scheduler = tiny_test_chip(), PinnedScheduler("cpu")
        for step in range(10):
            arrived = lane.admit(step, step * 0.01, scheduler, chip)
            assert bool(arrived) == (step in lane.release_steps())


def _two_cluster_chip(small_capacity: float) -> Chip:
    """Cluster ``a`` ranks below ``b`` unless its capacity is raised."""
    def cluster(name, capacity):
        core = CoreSpec(name, capacity=capacity, ceff_f=1e-10,
                        leak_a_per_v=0.01)
        return ClusterSpec(name, core, 1, make_table([1000.0], [1.0]))

    return Chip("pair", [cluster("a", small_capacity), cluster("b", 2.0)])


class TestSchedulerRanking:
    # A unit only the highest-capacity cluster can take in time is placed
    # on the last-ranked cluster, which tells the ranking apart.
    UNIT = WorkUnit(uid=0, release_s=0.0, work=1e9, deadline_s=1e-3)

    def test_reranks_for_a_different_chip(self):
        scheduler = HMPScheduler()
        assert scheduler.assign(self.UNIT, _two_cluster_chip(1.0), {}, 0.0) == "b"
        assert scheduler.assign(self.UNIT, _two_cluster_chip(4.0), {}, 0.0) == "a"
        assert scheduler.assign(self.UNIT, _two_cluster_chip(1.0), {}, 0.0) == "b"

    def test_holds_at_most_one_chip(self):
        scheduler = HMPScheduler()
        first = _two_cluster_chip(1.0)
        scheduler.assign(self.UNIT, first, {}, 0.0)
        gone = weakref.ref(first)
        second = _two_cluster_chip(4.0)
        scheduler.assign(self.UNIT, second, {}, 0.0)
        del first
        gc.collect()
        assert gone() is None
        assert scheduler._chip is second

    def test_cache_is_invisible_to_equality(self):
        scheduler = HMPScheduler()
        scheduler.assign(self.UNIT, _two_cluster_chip(1.0), {}, 0.0)
        assert scheduler == HMPScheduler()
        assert repr(scheduler) == "HMPScheduler(margin=0.8)"


class TestHelpers:
    def test_queue_slack(self):
        unit = WorkUnit(uid=0, release_s=0.0, work=1.0, deadline_s=1.0)
        assert queue_slack([], 0.5) == 1.0
        assert queue_slack([Job(unit)], 0.5) == 0.5
        assert queue_slack([Job(unit)], 2.0) == 0.0

    def test_n_intervals(self):
        assert n_intervals(0.0, 0.01) == 1
        assert n_intervals(1.0, 0.3) == 4

    def test_sequential_sum_is_sequential(self):
        terms = np.array([[1e16, 1.0, -1e16, 1.0]])
        # ((1e16 + 1) - 1e16) + 1 == 1.0 in sequential order.
        assert sequential_sum(terms).tolist() == [((1e16 + 1.0) - 1e16) + 1.0]

    @pytest.mark.parametrize("axis", [0, -1])
    def test_sequential_sum_is_the_serial_fold(self, axis):
        # 64 terms per sum over twelve decades: the pairwise order of
        # np.sum rounds differently on these, the serial += loop not.
        rng = np.random.default_rng(3)
        terms = rng.standard_normal((64, 2, 3)) * 10.0 ** rng.integers(
            -6, 6, (64, 2, 3)
        )
        runs = [terms[:, i, j] for i in range(2) for j in range(3)]
        if axis == -1:
            terms = np.ascontiguousarray(np.moveaxis(terms, 0, -1))

        def fold(xs):
            total = 0.0
            for x in xs.tolist():
                total += x
            return total

        expected = [fold(run) for run in runs]
        assert sequential_sum(terms, axis=axis).ravel().tolist() == expected
        assert [
            float(np.sum(np.ascontiguousarray(run))) for run in runs
        ] != expected
        out = np.empty((2, 3))
        assert sequential_sum(terms, axis=axis, out=out) is out
        assert out.ravel().tolist() == expected

    def test_sequential_sum_starts_from_zero(self):
        # 0.0 + (-0.0) is +0.0: the serial loops start from 0.0.
        [total] = sequential_sum(np.array([[-0.0, -0.0]])).tolist()
        assert math.copysign(1.0, total) == 1.0
