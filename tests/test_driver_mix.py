"""The accelerator driver model and scenario mixing."""

import pytest

from repro.errors import HardwareModelError, WorkloadError
from repro.hw.driver import AcceleratorDriver, DriverSpec
from repro.hw.fixed_point import DEFAULT_QFORMAT
from repro.hw.registers import RegisterFile
from repro.workload.generator import TraceGenerator
from repro.workload.mix import mix_scenarios


def serving(action: int = 2):
    """A service that consumes the observation and answers ``action``."""

    def service(rf: RegisterFile) -> None:
        rf.consume_observation()
        rf.publish_decision(action)

    return service


def dead_service(rf: RegisterFile) -> None:
    """An accelerator that never answers."""
    rf.consume_observation()


class TestDriverPolling:
    def make(self, **kwargs) -> AcceleratorDriver:
        rf = RegisterFile(qformat=DEFAULT_QFORMAT)
        return AcceleratorDriver(rf, **kwargs)

    def test_successful_request(self):
        driver = self.make()
        txn = driver.request((1, 2, 3, 0), reward=-0.5, service=serving(3))
        assert txn.action == 3
        assert txn.seq == 1
        assert txn.polls == 1
        assert txn.latency_s > 0

    def test_sequence_tracks_across_requests(self):
        driver = self.make()
        for expected_seq in (1, 2, 3):
            txn = driver.request((0, 0, 0, 0), 0.0, serving())
            assert txn.seq == expected_seq

    def test_timeout_when_accelerator_dead(self):
        driver = self.make(spec=DriverSpec(timeout_s=1e-6))
        with pytest.raises(HardwareModelError, match="did not complete"):
            driver.request((0, 0, 0, 0), 0.0, dead_service)
        assert driver.timeouts == 1

    def test_mean_latency(self):
        driver = self.make()
        driver.request((0, 0, 0, 0), 0.0, serving())
        driver.request((0, 0, 0, 0), 0.0, serving())
        assert driver.mean_latency_s == pytest.approx(
            sum(t.latency_s for t in driver.transactions) / 2
        )

    def test_validation(self):
        with pytest.raises(HardwareModelError):
            DriverSpec(mode="telepathy")
        with pytest.raises(HardwareModelError):
            DriverSpec(poll_interval_s=0.0)
        with pytest.raises(HardwareModelError):
            AcceleratorDriver(RegisterFile(qformat=DEFAULT_QFORMAT),
                              compute_latency_s=-1.0)


class TestDriverInterrupt:
    def test_irq_mode_single_read(self):
        rf = RegisterFile(qformat=DEFAULT_QFORMAT)
        driver = AcceleratorDriver(rf, spec=DriverSpec(mode="interrupt"))
        txn = driver.request((0, 0, 0, 0), 0.0, serving(1))
        assert txn.polls == 1
        assert txn.action == 1

    def test_irq_latency_included(self):
        rf = RegisterFile(qformat=DEFAULT_QFORMAT)
        fast = AcceleratorDriver(
            rf, spec=DriverSpec(mode="interrupt", irq_latency_s=1e-6)
        )
        t_fast = fast.request((0, 0, 0, 0), 0.0, serving()).latency_s
        rf2 = RegisterFile(qformat=DEFAULT_QFORMAT)
        slow = AcceleratorDriver(
            rf2, spec=DriverSpec(mode="interrupt", irq_latency_s=50e-6)
        )
        t_slow = slow.request((0, 0, 0, 0), 0.0, serving()).latency_s
        assert t_slow > t_fast

    def test_irq_without_decision_raises(self):
        rf = RegisterFile(qformat=DEFAULT_QFORMAT)
        driver = AcceleratorDriver(rf, spec=DriverSpec(mode="interrupt"))
        with pytest.raises(HardwareModelError, match="mailbox empty"):
            driver.request((0, 0, 0, 0), 0.0, dead_service)


class TestMixScenarios:
    def test_builds_valid_machine(self):
        mix = mix_scenarios({"gaming": 1.0, "audio_playback": 1.0})
        machine = mix.machine()
        # Phases from both components, namespaced.
        names = [p.name for p in machine.phases]
        assert any(n.startswith("gaming/") for n in names)
        assert any(n.startswith("audio_playback/") for n in names)

    def test_generates_traces_with_both_components(self):
        mix = mix_scenarios({"gaming": 1.0, "audio_playback": 1.0},
                            switch_stickiness=0.3)
        trace = TraceGenerator(mix.machine(), seed=0).generate(60.0)
        kinds = trace.kinds()
        assert any(k.startswith("gaming/") for k in kinds)
        assert any(k.startswith("audio_playback/") for k in kinds)

    def test_weights_shift_the_mix(self):
        # Escape mass is distributed to *other* components by weight, so
        # weights need >= 3 components to matter: compare a mix whose
        # escapes favour gaming against one favouring audio.
        heavy_gaming = mix_scenarios(
            {"idle": 1.0, "gaming": 20.0, "audio_playback": 1.0},
            switch_stickiness=0.0,
        )
        heavy_audio = mix_scenarios(
            {"idle": 1.0, "gaming": 1.0, "audio_playback": 20.0},
            switch_stickiness=0.0,
        )
        t_gaming = TraceGenerator(heavy_gaming.machine(), seed=1).generate(120.0)
        t_audio = TraceGenerator(heavy_audio.machine(), seed=1).generate(120.0)
        assert t_gaming.mean_demand_rate > t_audio.mean_demand_rate

    def test_validation(self):
        with pytest.raises(WorkloadError, match="at least two"):
            mix_scenarios({"gaming": 1.0})
        with pytest.raises(WorkloadError, match="positive"):
            mix_scenarios({"gaming": 1.0, "idle": 0.0})
        with pytest.raises(WorkloadError):
            mix_scenarios({"gaming": 1.0, "unknown-thing": 1.0})
        with pytest.raises(WorkloadError, match="stickiness"):
            mix_scenarios({"gaming": 1.0, "idle": 1.0}, switch_stickiness=1.0)

    def test_simulable(self, big_little_chip):
        from repro.governors.ondemand import OndemandGovernor
        from repro.sim.engine import Simulator

        mix = mix_scenarios({"web_browsing": 2.0, "video_playback": 1.0})
        trace = mix.trace(5.0, seed=0)
        result = Simulator(big_little_chip, trace,
                           lambda c: OndemandGovernor()).run()
        assert result.qos.n_units > 0
