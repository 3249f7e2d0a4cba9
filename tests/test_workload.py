"""Work units, jobs, phases, generation, and trace I/O."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.generator import TraceGenerator
from repro.workload.phases import PhaseMachine, PhaseSpec
from repro.workload.scenarios import SCENARIOS
from repro.workload.task import Job, WorkUnit
from repro.workload.trace import Trace, concat

from conftest import unit


class TestWorkUnit:
    def test_valid_unit(self):
        u = unit(work=1e6)
        assert u.slack_s == pytest.approx(0.1)

    def test_rejects_nonpositive_work(self):
        with pytest.raises(WorkloadError):
            unit(work=0.0)

    def test_rejects_deadline_before_release(self):
        with pytest.raises(WorkloadError):
            WorkUnit(uid=0, release_s=1.0, work=1e6, deadline_s=0.5)

    def test_rejects_negative_release(self):
        with pytest.raises(WorkloadError):
            WorkUnit(uid=0, release_s=-1.0, work=1e6, deadline_s=0.5)

    def test_rejects_zero_parallelism(self):
        with pytest.raises(WorkloadError):
            unit(parallelism=0)

    def test_batch_equals_constructed_units(self):
        releases = [0.0, 0.02, 0.04]
        works = [1e6, 2.5e6, float("nan")]
        deadlines = [0.03, 0.05, 0.07]
        batch = WorkUnit.batch(7, releases, works, deadlines, "frame", 2)
        built = [
            WorkUnit(7 + i, r, w, d, "frame", 2)
            for i, (r, w, d) in enumerate(zip(releases, works, deadlines))
        ]
        # NaN work passes the serial check, so compare it apart.
        assert batch[:2] == built[:2]
        assert [repr(u) for u in batch] == [repr(u) for u in built]
        assert [hash(u) for u in batch[:2]] == [hash(u) for u in built[:2]]
        assert pickle.dumps(batch) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(batch))[:2] == built[:2]
        with pytest.raises(AttributeError):
            batch[0].work = 1.0
        assert WorkUnit.batch(0, [], [], []) == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("works", [1e6, 0.0, -1.0], "work unit 4: work must be positive"),
            ("releases", [0.0, -0.5, 0.02],
             "work unit 4: negative release time"),
            ("deadlines", [0.03, 0.01, 0.0],
             "work unit 4: deadline 0.01 not after release 0.01"),
            ("min_parallelism", 0,
             "work unit 3: min_parallelism must be >= 1"),
        ],
    )
    def test_batch_raises_for_the_first_bad_unit(self, field, value, message):
        kw = dict(releases=[0.0, 0.01, 0.02], works=[1e6, 1e6, 1e6],
                  deadlines=[0.03, 0.04, 0.05], min_parallelism=1)
        kw[field] = value
        with pytest.raises(WorkloadError, match=f"^{message}"):
            WorkUnit.batch(3, **kw)


class TestJob:
    def test_fresh_job_has_full_work(self):
        job = Job(unit(work=1e6))
        assert job.remaining == 1e6
        assert not job.done

    def test_execute_partial(self):
        job = Job(unit(work=1e6))
        consumed = job.execute(4e5, now_s=0.01)
        assert consumed == 4e5
        assert job.remaining == pytest.approx(6e5)
        assert not job.done

    def test_execute_completes_and_timestamps(self):
        job = Job(unit(work=1e6))
        job.execute(2e6, now_s=0.05)
        assert job.done
        assert job.completed_at_s == 0.05

    def test_execute_never_consumes_more_than_remaining(self):
        job = Job(unit(work=1e6))
        assert job.execute(9e9, now_s=0.01) == 1e6

    def test_execute_on_done_job_raises(self):
        job = Job(unit(work=1e6))
        job.execute(1e6, 0.01)
        with pytest.raises(WorkloadError):
            job.execute(1.0, 0.02)

    def test_lateness(self):
        job = Job(unit(work=1e6, deadline=0.1))
        job.execute(1e6, now_s=0.15)
        assert job.lateness_s() == pytest.approx(0.05)

    def test_early_completion_negative_lateness(self):
        job = Job(unit(work=1e6, deadline=0.1))
        job.execute(1e6, now_s=0.02)
        assert job.lateness_s() == pytest.approx(-0.08)

    def test_lateness_before_completion_raises(self):
        with pytest.raises(WorkloadError):
            Job(unit()).lateness_s()


class TestPhaseSpec:
    def test_emitting_phase(self):
        p = PhaseSpec("go", period_s=0.02, work_mean=1e6, work_cv=0.2,
                      deadline_factor=1.0, dwell_mean_s=1.0)
        assert p.emits

    def test_idle_phase(self):
        p = PhaseSpec("idle", period_s=0.0, work_mean=0.0, work_cv=0.0,
                      deadline_factor=1.0, dwell_mean_s=1.0)
        assert not p.emits

    def test_emitting_phase_needs_positive_work(self):
        with pytest.raises(WorkloadError):
            PhaseSpec("bad", period_s=0.02, work_mean=0.0, work_cv=0.0,
                      deadline_factor=1.0, dwell_mean_s=1.0)

    def test_sample_work_zero_cv_is_deterministic(self):
        p = PhaseSpec("p", 0.02, 1e6, 0.0, 1.0, 1.0)
        rng = np.random.default_rng(0)
        assert p.sample_works(rng, 3).tolist() == [1e6] * 3
        assert rng.random() == np.random.default_rng(0).random()

    def test_sample_work_mean_matches(self):
        p = PhaseSpec("p", 0.02, 1e6, 0.3, 1.0, 1.0)
        rng = np.random.default_rng(0)
        samples = p.sample_works(rng, 20000)
        assert np.mean(samples) == pytest.approx(1e6, rel=0.02)

    def test_sample_works_equals_single_draws(self):
        p = PhaseSpec("p", 0.02, 1e6, 0.3, 1.0, 1.0)
        bulk, single = np.random.default_rng(5), np.random.default_rng(5)
        singles = [p.sample_works(single, 1)[0] for _ in range(50)]
        assert p.sample_works(bulk, 50).tolist() == singles
        assert bulk.random() == single.random()

    def test_sample_dwell_respects_floor(self):
        p = PhaseSpec("p", 0.02, 1e6, 0.0, 1.0, dwell_mean_s=0.5, dwell_min_s=0.3)
        rng = np.random.default_rng(0)
        assert all(p.sample_dwell(rng) >= 0.3 for _ in range(200))


class TestPhaseMachine:
    def two_phase(self) -> PhaseMachine:
        phases = [
            PhaseSpec("a", 0.02, 1e6, 0.0, 1.0, dwell_mean_s=0.5),
            PhaseSpec("b", 0.05, 2e6, 0.0, 1.0, dwell_mean_s=0.5),
        ]
        return PhaseMachine(phases, [[0.0, 1.0], [1.0, 0.0]])

    def test_walk_covers_duration(self):
        machine = self.two_phase()
        rng = np.random.default_rng(1)
        segments = list(machine.walk(rng, 10.0))
        assert segments[0][1] == 0.0
        assert segments[-1][2] == pytest.approx(10.0)
        for (_, s0, e0), (_, s1, _) in zip(segments, segments[1:]):
            assert e0 == pytest.approx(s1)

    def test_walk_alternates_deterministic_chain(self):
        machine = self.two_phase()
        rng = np.random.default_rng(1)
        names = [p.name for p, _, _ in machine.walk(rng, 5.0)]
        assert all(a != b for a, b in zip(names, names[1:]))

    def test_rejects_non_stochastic_rows(self):
        phases = [PhaseSpec("a", 0.02, 1e6, 0.0, 1.0, 1.0)]
        for row in ([0.5], [float("nan")], [float("inf")], [1.0 + 2e-5]):
            with pytest.raises(WorkloadError, match="sum to 1"):
                PhaseMachine(phases, [row])
        # The tolerance is np.allclose's: 1e-9 absolute plus 1e-5 relative.
        PhaseMachine(phases, [[1.0 + 1e-5]])

    def test_rejects_shape_mismatch(self):
        phases = [PhaseSpec("a", 0.02, 1e6, 0.0, 1.0, 1.0)]
        with pytest.raises(WorkloadError, match="shape"):
            PhaseMachine(phases, [[0.5, 0.5]])

    def test_rejects_duplicate_phase_names(self):
        p = PhaseSpec("a", 0.02, 1e6, 0.0, 1.0, 1.0)
        with pytest.raises(WorkloadError, match="duplicate"):
            PhaseMachine([p, p], [[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_negative_probability(self):
        phases = [
            PhaseSpec("a", 0.02, 1e6, 0.0, 1.0, 1.0),
            PhaseSpec("b", 0.02, 1e6, 0.0, 1.0, 1.0),
        ]
        with pytest.raises(WorkloadError):
            PhaseMachine(phases, [[1.5, -0.5], [0.5, 0.5]])


class TestTraceGenerator:
    def machine(self) -> PhaseMachine:
        return PhaseMachine(
            [PhaseSpec("p", 0.01, 1e6, 0.2, 2.0, dwell_mean_s=10.0, dwell_min_s=5.0)],
            [[1.0]],
        )

    def test_deterministic_for_seed(self):
        gen_a = TraceGenerator(self.machine(), seed=7)
        gen_b = TraceGenerator(self.machine(), seed=7)
        ta, tb = gen_a.generate(2.0), gen_b.generate(2.0)
        assert len(ta) == len(tb)
        assert all(a.work == b.work and a.release_s == b.release_s
                   for a, b in zip(ta, tb))

    def test_different_seeds_differ(self):
        ta = TraceGenerator(self.machine(), seed=1).generate(2.0)
        tb = TraceGenerator(self.machine(), seed=2).generate(2.0)
        assert [u.work for u in ta] != [u.work for u in tb]

    def test_emission_rate_matches_period(self):
        trace = TraceGenerator(self.machine(), seed=0).generate(2.0)
        assert len(trace) == pytest.approx(200, abs=2)

    def test_all_releases_inside_duration(self):
        trace = TraceGenerator(self.machine(), seed=0).generate(2.0)
        assert all(u.release_s < 2.0 for u in trace)

    def test_deadlines_follow_factor(self):
        trace = TraceGenerator(self.machine(), seed=0).generate(1.0)
        for u in trace:
            assert u.deadline_s == pytest.approx(u.release_s + 2.0 * 0.01)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(WorkloadError):
            TraceGenerator(self.machine()).generate(0.0)


#: SHA-256 over every unit of each scenario's traces at TRACE_SEEDS x
#: TRACE_DURATIONS, recorded when each unit drew its own work: drawing a
#: segment's works at once must leave every trace bit-identical.
TRACE_SEEDS = (0, 7, 31337)
TRACE_DURATIONS = (2.5, 20.0)
TRACE_DIGESTS = {
    "web_browsing": "2cd646e3b6bd5cae8dc1e4c7dd80c2e61b733ef4dfeff63ca0611dd8e5669c67",
    "video_playback": "78b5a121b65db2d1b92271f1d1aa4b986b32d6b1094ca438883b933c07bd42ef",
    "gaming": "7c0d5e895f690b1855e18e23d6b9b0055733dc996657ada227b0e4e7e881ea70",
    "app_launch": "dd08ef0ef5b8a910cc4a63e48bee24c6934f1a3e93c622692eb8932b68121df0",
    "audio_playback": "39657c1ab72e2b59f96625a122c331fea856aa55673443947ccec64b6f4e291f",
    "camera_preview": "9e4ad7f044cbc1a5945359cd08128881991c6bff29d24984c2ac0baf734ecbd6",
    "idle": "b9b40b13c37179d9107577cc8f078dc7ba8d986cacc03bdfc2b976709c187af0",
    "social_media": "861d4c2e54f2a97f6c4539509cca30a2cb4212f131bb98c17011208072a77049",
    "video_call": "5ac70ce991a68bafca87d604be580605a31ec665892fc92694298eff4c9969ff",
    "mixed_daily": "34ba6fa3d76d816ea75b762b5bef4f631512e0de803dd5fbb6e6901573286254",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_scenario_traces_are_pinned(name):
    digest = hashlib.sha256()
    for seed in TRACE_SEEDS:
        for duration in TRACE_DURATIONS:
            for u in SCENARIOS[name].trace(duration, seed=seed).units:
                digest.update(
                    f"{u.uid} {u.release_s.hex()} {u.work.hex()} "
                    f"{u.deadline_s.hex()} {u.kind} {u.min_parallelism}\n"
                    .encode()
                )
    assert digest.hexdigest() == TRACE_DIGESTS[name]


def test_every_scenario_is_pinned():
    assert sorted(TRACE_DIGESTS) == sorted(SCENARIOS)


class TestTrace:
    def test_sorted_by_release(self):
        units = [unit(uid=1, release=0.5), unit(uid=0, release=0.1)]
        trace = Trace(units=units, duration_s=1.0)
        assert [u.uid for u in trace] == [0, 1]

    def test_duplicate_uids_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            Trace(units=[unit(uid=0), unit(uid=0, release=0.2)])

    def test_default_duration_is_last_deadline(self):
        trace = Trace(units=[unit(release=0.0, deadline=0.7)])
        assert trace.duration_s == pytest.approx(0.7)

    def test_duration_before_last_release_rejected(self):
        with pytest.raises(WorkloadError):
            Trace(units=[unit(release=5.0, deadline=5.1)], duration_s=1.0)

    def test_total_work_and_rate(self):
        trace = Trace(
            units=[unit(uid=0, work=1e6), unit(uid=1, release=0.5, work=3e6, deadline=0.6)],
            duration_s=2.0,
        )
        assert trace.total_work == pytest.approx(4e6)
        assert trace.mean_demand_rate == pytest.approx(2e6)

    def test_kinds(self):
        trace = Trace(units=[unit(uid=0, kind="a"), unit(uid=1, release=0.1, kind="b")])
        assert trace.kinds() == {"a", "b"}

    def test_csv_roundtrip(self, tmp_path):
        trace = Trace(
            units=[unit(uid=i, release=0.123456789 * i, work=1e6 + i,
                        deadline=0.123456789 * i + 0.517, kind=f"k{i}") for i in range(4)],
            name="rt",
            duration_s=3.0,
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = Trace.from_csv(path, name="rt")
        assert len(back) == len(trace)
        for a, b in zip(trace, back):
            assert a == b

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("uid,release_s\n0,0.0\n")
        with pytest.raises(WorkloadError, match="missing columns"):
            Trace.from_csv(path)

    def test_csv_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "uid,release_s,work,deadline_s,kind,min_parallelism\n"
            "x,0.0,1e6,0.1,k,1\n"
        )
        with pytest.raises(WorkloadError, match="bad trace row"):
            Trace.from_csv(path)

    def test_concat_offsets_times_and_renumbers(self):
        t1 = Trace(units=[unit(uid=0)], duration_s=1.0)
        t2 = Trace(units=[unit(uid=0, release=0.0, deadline=0.1)], duration_s=1.0)
        joined = concat([t1, t2], name="both")
        assert len(joined) == 2
        assert joined[1].release_s == pytest.approx(1.0)
        assert joined[1].uid == 1
        assert joined.duration_s == pytest.approx(2.0)


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_traces_are_valid(seed):
    """Any seed yields a structurally valid trace: releases ordered and
    inside the horizon, deadlines after releases, positive work."""
    machine = PhaseMachine(
        [
            PhaseSpec("a", 0.02, 1e6, 0.5, 1.5, dwell_mean_s=0.3, dwell_min_s=0.1),
            PhaseSpec("b", 0.0, 0.0, 0.0, 1.0, dwell_mean_s=0.3, dwell_min_s=0.1),
        ],
        [[0.5, 0.5], [1.0, 0.0]],
    )
    trace = TraceGenerator(machine, seed=seed).generate(3.0)
    last = 0.0
    for u in trace:
        assert 0.0 <= u.release_s < 3.0
        assert u.release_s >= last
        assert u.deadline_s > u.release_s
        assert u.work > 0
        last = u.release_s
