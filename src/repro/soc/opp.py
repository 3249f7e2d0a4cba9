"""Operating performance points (OPPs) and OPP tables.

An OPP is a (frequency, voltage) pair at which a DVFS domain may run.
Real mobile SoCs publish a discrete OPP table per cluster; governors and
the RL policy select an *index* into that table rather than an arbitrary
frequency, exactly as the Linux cpufreq core does.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import OPPError


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """A single DVFS operating point.

    Attributes:
        freq_hz: Clock frequency in hertz.  Must be positive.
        voltage_v: Supply voltage in volts.  Must be positive.
    """

    freq_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise OPPError(f"OPP frequency must be positive, got {self.freq_hz}")
        if self.voltage_v <= 0:
            raise OPPError(f"OPP voltage must be positive, got {self.voltage_v}")

    @property
    def freq_mhz(self) -> float:
        """Frequency in megahertz, for human-readable reporting."""
        return self.freq_hz / 1e6


class OPPTable:
    """An ordered, validated table of operating points for one DVFS domain.

    The table is sorted by ascending frequency and requires voltage to be
    non-decreasing with frequency (higher clocks never need *less*
    voltage), which is how vendor OPP tables are specified.

    Args:
        points: Operating points in any order; duplicates (by frequency)
            are rejected.

    Raises:
        OPPError: If the table is empty, contains duplicate frequencies,
            or voltage decreases with frequency.
    """

    def __init__(self, points: Iterable[OperatingPoint]):
        pts = sorted(points, key=lambda p: p.freq_hz)
        if not pts:
            raise OPPError("OPP table must contain at least one point")
        for prev, cur in zip(pts, pts[1:]):
            if cur.freq_hz == prev.freq_hz:
                raise OPPError(f"duplicate OPP frequency {cur.freq_hz} Hz")
            if cur.voltage_v < prev.voltage_v:
                raise OPPError(
                    "OPP voltage must be non-decreasing with frequency: "
                    f"{cur.freq_mhz:.0f} MHz @ {cur.voltage_v} V follows "
                    f"{prev.freq_mhz:.0f} MHz @ {prev.voltage_v} V"
                )
        self._points: tuple[OperatingPoint, ...] = tuple(pts)
        self._freqs: tuple[float, ...] = tuple(p.freq_hz for p in pts)
        self._max_index = len(pts) - 1

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> OperatingPoint:
        if not -len(self._points) <= index < len(self._points):
            raise OPPError(
                f"OPP index {index} out of range for table of {len(self)} points"
            )
        return self._points[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OPPTable):
            return NotImplemented
        return self._points == other._points

    def __repr__(self) -> str:
        lo, hi = self.min_freq_hz / 1e6, self.max_freq_hz / 1e6
        return f"OPPTable({len(self)} points, {lo:.0f}-{hi:.0f} MHz)"

    # -- lookups -------------------------------------------------------------

    @property
    def points(self) -> tuple[OperatingPoint, ...]:
        """All operating points, ascending by frequency."""
        return self._points

    @property
    def min_freq_hz(self) -> float:
        return self._freqs[0]

    @property
    def max_freq_hz(self) -> float:
        return self._freqs[-1]

    @property
    def max_index(self) -> int:
        return self._max_index

    def clamp_index(self, index: int) -> int:
        """Clamp an arbitrary integer to a valid OPP index."""
        return max(0, min(index, self._max_index))

    def ceil_index(self, freq_hz: float) -> int:
        """Index of the lowest OPP with frequency >= ``freq_hz``.

        Frequencies above the table maximum clamp to the top OPP.  This is
        the lookup governors use to satisfy a computed frequency target
        ("give me at least this much").
        """
        i = bisect_left(self._freqs, freq_hz)
        return min(i, self.max_index)

    def floor_index(self, freq_hz: float) -> int:
        """Index of the highest OPP with frequency <= ``freq_hz``.

        Frequencies below the table minimum clamp to the bottom OPP.
        """
        i = bisect_left(self._freqs, freq_hz)
        if i < len(self._freqs) and self._freqs[i] == freq_hz:
            return i
        return max(i - 1, 0)


def make_table(freq_mhz: Sequence[float], voltage_v: Sequence[float]) -> OPPTable:
    """Build an :class:`OPPTable` from parallel MHz / volt sequences.

    Args:
        freq_mhz: Frequencies in megahertz.
        voltage_v: Matching supply voltages in volts.

    Raises:
        OPPError: If the sequences differ in length or violate table rules.
    """
    if len(freq_mhz) != len(voltage_v):
        raise OPPError(
            f"frequency list ({len(freq_mhz)}) and voltage list "
            f"({len(voltage_v)}) must have equal length"
        )
    return OPPTable(
        OperatingPoint(freq_hz=f * 1e6, voltage_v=v)
        for f, v in zip(freq_mhz, voltage_v)
    )
