"""OPP tables: validation, ordering, and lookup semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OPPError
from repro.soc.opp import OperatingPoint, OPPTable, make_table


class TestOperatingPoint:
    def test_basic_fields(self):
        opp = OperatingPoint(freq_hz=1e9, voltage_v=1.0)
        assert opp.freq_hz == 1e9
        assert opp.freq_mhz == 1000.0

    @pytest.mark.parametrize("freq", [0.0, -1.0])
    def test_rejects_nonpositive_frequency(self, freq):
        with pytest.raises(OPPError):
            OperatingPoint(freq_hz=freq, voltage_v=1.0)

    @pytest.mark.parametrize("volt", [0.0, -0.5])
    def test_rejects_nonpositive_voltage(self, volt):
        with pytest.raises(OPPError):
            OperatingPoint(freq_hz=1e9, voltage_v=volt)

    def test_ordering_is_by_frequency(self):
        slow = OperatingPoint(1e8, 0.9)
        fast = OperatingPoint(2e9, 1.2)
        assert slow < fast


class TestOPPTable:
    def table(self):
        return make_table([200, 600, 1000, 1400], [0.9, 0.95, 1.0, 1.1])

    def test_sorted_ascending(self):
        table = OPPTable(
            [OperatingPoint(1e9, 1.0), OperatingPoint(2e8, 0.9)]
        )
        assert [p.freq_hz for p in table] == [2e8, 1e9]

    def test_rejects_empty(self):
        with pytest.raises(OPPError):
            OPPTable([])

    def test_rejects_duplicate_frequency(self):
        with pytest.raises(OPPError, match="duplicate"):
            OPPTable([OperatingPoint(1e9, 1.0), OperatingPoint(1e9, 1.1)])

    def test_rejects_voltage_decreasing_with_frequency(self):
        with pytest.raises(OPPError, match="non-decreasing"):
            OPPTable([OperatingPoint(1e8, 1.1), OperatingPoint(1e9, 0.9)])

    def test_allows_equal_voltage_steps(self):
        table = OPPTable([OperatingPoint(1e8, 1.0), OperatingPoint(1e9, 1.0)])
        assert len(table) == 2

    def test_len_iter_getitem(self):
        table = self.table()
        assert len(table) == 4
        assert [p.freq_mhz for p in table] == [200, 600, 1000, 1400]
        assert table[0].freq_mhz == 200
        assert table[-1].freq_mhz == 1400

    def test_getitem_out_of_range(self):
        with pytest.raises(OPPError, match="out of range"):
            self.table()[4]

    def test_min_max_and_max_index(self):
        table = self.table()
        assert table.min_freq_hz == 200e6
        assert table.max_freq_hz == 1400e6
        assert table.max_index == 3

    @pytest.mark.parametrize(
        "freq_mhz,expected",
        [(100, 0), (200, 0), (201, 1), (600, 1), (1000, 2), (1399, 3), (1400, 3), (9999, 3)],
    )
    def test_ceil_index(self, freq_mhz, expected):
        assert self.table().ceil_index(freq_mhz * 1e6) == expected

    @pytest.mark.parametrize(
        "freq_mhz,expected",
        [(100, 0), (200, 0), (599, 0), (600, 1), (1001, 2), (1400, 3), (9999, 3)],
    )
    def test_floor_index(self, freq_mhz, expected):
        assert self.table().floor_index(freq_mhz * 1e6) == expected

    @pytest.mark.parametrize("raw,clamped", [(-5, 0), (0, 0), (2, 2), (3, 3), (99, 3)])
    def test_clamp_index(self, raw, clamped):
        assert self.table().clamp_index(raw) == clamped

    def test_equality(self):
        assert self.table() == self.table()
        assert self.table() != make_table([200], [0.9])

    def test_make_table_length_mismatch(self):
        with pytest.raises(OPPError, match="equal length"):
            make_table([100, 200], [0.9])


@given(
    freqs=st.lists(
        st.integers(min_value=1, max_value=4000), min_size=1, max_size=12, unique=True
    )
)
def test_ceil_floor_consistency(freqs):
    """For any table, ceil(f) picks a frequency >= f (clamped at top) and
    floor(f) picks a frequency <= f (clamped at bottom)."""
    freqs = sorted(freqs)
    volts = [0.8 + 0.001 * i for i in range(len(freqs))]
    table = make_table(freqs, volts)
    for probe_mhz in [0.5, freqs[0], freqs[-1], freqs[-1] + 100, sum(freqs) / len(freqs)]:
        probe = probe_mhz * 1e6
        ci, fi = table.ceil_index(probe), table.floor_index(probe)
        if probe <= table.max_freq_hz:
            assert table[ci].freq_hz >= probe
        else:
            assert ci == table.max_index
        if probe >= table.min_freq_hz:
            assert table[fi].freq_hz <= probe
        else:
            assert fi == 0
        assert fi <= ci or probe < table.min_freq_hz
