"""Per-phase wall-clock breakdown of engine runs.

Reads the engine's ``engine.phase.*_s`` counters (and ``sim.intervals``)
out of a metrics snapshot — the "where does simulation time go" table
behind ``repro profile`` and the CI timing baseline.  The counters are
per-run accumulators, so a snapshot merged across fleet jobs
(:func:`repro.obs.metrics.merge_snapshots`) profiles the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping


@dataclass(frozen=True)
class PhaseStat:
    """Accumulated timing of one engine phase.

    Attributes:
        name: Phase name (``"engine.phase.drain"``).
        count: Engine intervals the phase ran in.
        total_us / mean_us: Total time, and its mean per interval.
    """

    name: str
    count: int
    total_us: float
    mean_us: float


def phase_breakdown(snapshot: Mapping[str, Any]) -> list[PhaseStat]:
    """Per-phase timing from a metrics snapshot's engine counters.

    Results are sorted by total time, descending, so the hottest phase
    leads; a snapshot without phase counters gives an empty list.
    """
    counters = snapshot.get("counters", {})
    intervals = int(counters.get("sim.intervals", 0))
    stats = [
        PhaseStat(
            name=name[: -len("_s")],
            count=intervals,
            total_us=seconds * 1e6,
            mean_us=seconds * 1e6 / intervals if intervals else 0.0,
        )
        for name, seconds in counters.items()
        if name.startswith("engine.phase.")
    ]
    stats.sort(key=lambda p: -p.total_us)
    return stats


def format_breakdown(
    stats: Iterable[PhaseStat], title: str = "per-phase time breakdown"
) -> str:
    """Render phase statistics as an aligned text table."""
    stats = list(stats)
    if not stats:
        return f"{title}\n  (no engine phase counters recorded)"
    grand = sum(p.total_us for p in stats) or math.inf
    header = (
        f"{'phase':<28s} {'count':>7s} {'total [ms]':>11s} "
        f"{'mean [us]':>10s} {'share':>7s}"
    )
    lines = [title, header, "-" * len(header)]
    for p in stats:
        lines.append(
            f"{p.name:<28s} {p.count:>7d} {p.total_us / 1e3:>11.3f} "
            f"{p.mean_us:>10.2f} {p.total_us / grand:>6.1%}"
        )
    return "\n".join(lines)
