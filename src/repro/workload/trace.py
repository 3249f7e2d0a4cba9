"""Workload traces: an ordered collection of work units with I/O.

Traces are the interchange format between scenario generators, the
simulator, and saved experiment inputs.  CSV round-tripping lets users
bring their own device traces (the substitution for the authors'
on-device recordings).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import WorkloadError
from repro.workload.task import WorkUnit

_CSV_FIELDS = ["uid", "release_s", "work", "deadline_s", "kind", "min_parallelism"]


@dataclass
class Trace:
    """An immutable-by-convention, time-ordered sequence of work units.

    Attributes:
        units: Work units sorted by release time.
        name: Trace label used in reports.
        duration_s: Nominal trace duration; defaults to the last deadline.
    """

    units: list[WorkUnit]
    name: str = "trace"
    duration_s: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.units = sorted(self.units, key=lambda u: (u.release_s, u.uid))
        uids = [u.uid for u in self.units]
        if len(set(uids)) != len(uids):
            raise WorkloadError(f"trace {self.name!r} contains duplicate unit ids")
        if self.duration_s <= 0:
            self.duration_s = max((u.deadline_s for u in self.units), default=0.0)
        elif self.units and self.duration_s < self.units[-1].release_s:
            raise WorkloadError(
                f"trace {self.name!r}: duration {self.duration_s} s precedes the "
                f"last release at {self.units[-1].release_s} s"
            )

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[WorkUnit]:
        return iter(self.units)

    def __getitem__(self, i: int) -> WorkUnit:
        return self.units[i]

    @property
    def total_work(self) -> float:
        """Total demand over the trace, in reference-core cycles."""
        return sum(u.work for u in self.units)

    @property
    def mean_demand_rate(self) -> float:
        """Average demand rate in reference-cycles per second."""
        return self.total_work / self.duration_s if self.duration_s > 0 else 0.0

    def kinds(self) -> set[str]:
        """The set of unit kinds present in the trace."""
        return {u.kind for u in self.units}

    # -- I/O -------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the trace as CSV with a header row."""
        path = Path(path)
        with path.open("w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=_CSV_FIELDS)
            writer.writeheader()
            for u in self.units:
                writer.writerow(
                    {
                        "uid": u.uid,
                        "release_s": repr(u.release_s),
                        "work": repr(u.work),
                        "deadline_s": repr(u.deadline_s),
                        "kind": u.kind,
                        "min_parallelism": u.min_parallelism,
                    }
                )

    @classmethod
    def from_csv(cls, path: str | Path, name: str | None = None) -> "Trace":
        """Load a trace written by :meth:`to_csv`.

        Raises:
            WorkloadError: On missing columns or unparseable rows.
        """
        path = Path(path)
        units: list[WorkUnit] = []
        with path.open(newline="") as f:
            reader = csv.DictReader(f)
            missing = set(_CSV_FIELDS) - set(reader.fieldnames or [])
            if missing:
                raise WorkloadError(f"trace CSV {path} missing columns: {sorted(missing)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    units.append(
                        WorkUnit(
                            uid=int(row["uid"]),
                            release_s=float(row["release_s"]),
                            work=float(row["work"]),
                            deadline_s=float(row["deadline_s"]),
                            kind=row["kind"],
                            min_parallelism=int(row["min_parallelism"]),
                        )
                    )
                except (ValueError, KeyError) as exc:
                    raise WorkloadError(f"{path}:{lineno}: bad trace row: {exc}") from exc
        return cls(units=units, name=name or path.stem)



def concat(traces: Iterable[Trace], name: str = "concat") -> Trace:
    """Concatenate traces back-to-back in time, renumbering unit ids."""
    units: list[WorkUnit] = []
    offset = 0.0
    uid = 0
    for tr in traces:
        for u in tr:
            units.append(
                WorkUnit(
                    uid=uid,
                    release_s=u.release_s + offset,
                    work=u.work,
                    deadline_s=u.deadline_s + offset,
                    kind=u.kind,
                    min_parallelism=u.min_parallelism,
                )
            )
            uid += 1
        offset += tr.duration_s
    return Trace(units=units, name=name, duration_s=offset)
