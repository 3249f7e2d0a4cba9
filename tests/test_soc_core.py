"""Core specs and runtime core state."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.core import BIG_CORE, LITTLE_CORE, CoreSpec, CoreState


class TestCoreSpec:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            CoreSpec("x", capacity=0.0, ceff_f=1e-10, leak_a_per_v=0.01)

    def test_rejects_nonpositive_ceff(self):
        with pytest.raises(ConfigurationError):
            CoreSpec("x", capacity=1.0, ceff_f=0.0, leak_a_per_v=0.01)

    def test_rejects_negative_leakage(self):
        with pytest.raises(ConfigurationError):
            CoreSpec("x", capacity=1.0, ceff_f=1e-10, leak_a_per_v=-0.1)

    def test_cycles_available(self):
        spec = CoreSpec("x", capacity=1.0, ceff_f=1e-10, leak_a_per_v=0.0)
        assert spec.cycles_available(1e9, 0.01) == pytest.approx(1e7)

    def test_work_available_scales_with_capacity(self):
        spec = CoreSpec("x", capacity=2.0, ceff_f=1e-10, leak_a_per_v=0.0)
        assert spec.work_available(1e9, 0.01) == pytest.approx(2e7)

    def test_big_core_has_more_capacity_than_little(self):
        assert BIG_CORE.capacity > LITTLE_CORE.capacity
        assert BIG_CORE.ceff_f > LITTLE_CORE.ceff_f

    def test_negative_frequency_rejected(self):
        spec = CoreSpec("x", capacity=1.0, ceff_f=1e-10, leak_a_per_v=0.0)
        with pytest.raises(ConfigurationError):
            spec.cycles_available(-1.0, 0.01)


class TestCoreState:
    def make(self) -> CoreState:
        return CoreState(CoreSpec("x", capacity=1.0, ceff_f=1e-10, leak_a_per_v=0.0))

    def test_initially_idle(self):
        state = self.make()
        assert state.idle
        assert state.utilization == 0.0

    def test_record_full_interval(self):
        state = self.make()
        state.record_interval(used_cycles=1e7, freq_hz=1e9, interval_s=0.01)
        assert state.utilization == pytest.approx(1.0)
        assert not state.idle
        assert state.busy_cycles == pytest.approx(1e7)

    def test_record_half_interval(self):
        state = self.make()
        state.record_interval(used_cycles=5e6, freq_hz=1e9, interval_s=0.01)
        assert state.utilization == pytest.approx(0.5)

    def test_record_zero_is_idle(self):
        state = self.make()
        state.record_interval(0.0, 1e9, 0.01)
        assert state.idle
        assert state.utilization == 0.0

    def test_overuse_raises(self):
        state = self.make()
        with pytest.raises(ConfigurationError, match="available"):
            state.record_interval(2e7, 1e9, 0.01)

    def test_tiny_float_overshoot_is_tolerated(self):
        state = self.make()
        state.record_interval(1e7 * (1 + 1e-12), 1e9, 0.01)
        assert state.utilization == pytest.approx(1.0)
        assert state.utilization <= 1.0

    def test_negative_cycles_raise(self):
        with pytest.raises(ConfigurationError):
            self.make().record_interval(-1.0, 1e9, 0.01)

    def test_reset_clears_everything(self):
        state = self.make()
        state.record_interval(5e6, 1e9, 0.01)
        state.reset()
        assert state.idle
        assert state.busy_cycles == 0.0
        assert state.utilization == 0.0

    def test_zero_frequency_gives_zero_utilization(self):
        state = self.make()
        state.record_interval(0.0, 0.0, 0.01)
        assert state.utilization == 0.0
