"""ASCII plotting and multi-seed repetition helpers."""

import pytest

from repro.analysis.plot import histogram, line_chart, sparkline
from repro.analysis.repeat import RepeatedMeasure
from repro.errors import ReproError


class TestSparkline:
    def test_length_matches(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert line == " ▁▂▃▄▅▆▇█"

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            sparkline([])


class TestLineChart:
    def test_shape(self):
        chart = line_chart([1, 2, 3, 4], height=5, title="t")
        lines = chart.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + 5 + 1  # title + rows + axis

    def test_extremes_labelled(self):
        chart = line_chart([10.0, 20.0], height=4)
        assert "20" in chart.splitlines()[0]
        assert "10" in chart.splitlines()[3]

    def test_resampling(self):
        chart = line_chart(list(range(100)), height=4, width=20)
        # All rows have the same plotted width.
        rows = [line for line in chart.splitlines() if "┤" in line]
        assert all(len(r.split("┤")[1]) == 20 for r in rows)

    def test_validation(self):
        with pytest.raises(ReproError):
            line_chart([])
        with pytest.raises(ReproError):
            line_chart([1.0], height=1)
        with pytest.raises(ReproError):
            line_chart([1.0], width=0)


class TestHistogram:
    def test_counts_sum(self):
        out = histogram([1, 1, 2, 3, 3, 3], bins=3)
        counts = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines()]
        assert sum(counts) == 6

    def test_peak_bin_widest(self):
        out = histogram([1, 3, 3, 3], bins=3, width=10)
        lines = out.splitlines()
        bars = [line.count("█") for line in lines]
        assert max(bars) == 10

    def test_validation(self):
        with pytest.raises(ReproError):
            histogram([])
        with pytest.raises(ReproError):
            histogram([1.0], bins=0)


class TestRepeatedMeasure:
    def test_mean_and_ci(self):
        m = RepeatedMeasure(values=(10.0, 12.0, 11.0, 13.0))
        assert m.mean == pytest.approx(11.5)
        assert m.ci_halfwidth > 0

    def test_single_sample_zero_ci(self):
        assert RepeatedMeasure(values=(5.0,)).ci_halfwidth == 0.0

    def test_higher_confidence_wider_interval(self):
        values = (1.0, 2.0, 3.0, 4.0)
        narrow = RepeatedMeasure(values=values, confidence=0.90)
        wide = RepeatedMeasure(values=values, confidence=0.99)
        assert wide.ci_halfwidth > narrow.ci_halfwidth

    def test_overlap_detection(self):
        a = RepeatedMeasure(values=(10.0, 10.5, 10.2, 10.3))
        b = RepeatedMeasure(values=(10.4, 10.6, 10.2, 10.5))
        c = RepeatedMeasure(values=(20.0, 20.5, 20.2, 20.3))
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_validation(self):
        with pytest.raises(ReproError):
            RepeatedMeasure(values=())
        with pytest.raises(ReproError):
            RepeatedMeasure(values=(1.0,), confidence=0.5)

    def test_str(self):
        s = str(RepeatedMeasure(values=(1.0, 2.0)))
        assert "n=2" in s
