"""Work units: the atoms of mobile workload.

A :class:`WorkUnit` is one user-visible chunk of computation — a frame
to render, a page-scroll response, a decode step — with a release time,
a demand in *reference-core cycles* (capacity-weighted, so a big core
drains it ``capacity`` times faster per clock), and a soft deadline that
defines its QoS contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from itertools import count
from operator import gt
from typing import Sequence

from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkUnit:
    """One deadline-bearing unit of work.

    Attributes:
        uid: Unique id within a trace (monotonically increasing).
        release_s: Time the unit becomes runnable, seconds from trace start.
        work: Demand in reference-core cycles.
        deadline_s: Absolute soft deadline in seconds; must be after release.
        kind: Free-form label for the emitting phase (e.g. ``"frame"``),
            used in reports.
        min_parallelism: Number of cores the unit can spread across
            (mobile frames are mostly single-threaded; decode may use 2).
    """

    uid: int
    release_s: float
    work: float
    deadline_s: float
    kind: str = "work"
    min_parallelism: int = 1

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise WorkloadError(f"work unit {self.uid}: work must be positive ({self.work})")
        if self.release_s < 0:
            raise WorkloadError(f"work unit {self.uid}: negative release time")
        if self.deadline_s <= self.release_s:
            raise WorkloadError(
                f"work unit {self.uid}: deadline {self.deadline_s} not after "
                f"release {self.release_s}"
            )
        if self.min_parallelism < 1:
            raise WorkloadError(f"work unit {self.uid}: min_parallelism must be >= 1")

    @classmethod
    def batch(
        cls,
        first_uid: int,
        releases: Sequence[float],
        works: Sequence[float],
        deadlines: Sequence[float],
        kind: str = "work",
        min_parallelism: int = 1,
    ) -> list["WorkUnit"]:
        """Units ``first_uid, first_uid + 1, ...`` sharing a kind and
        parallelism, equal to constructing each in turn.

        :meth:`__post_init__`'s checks run once over the whole run, and
        the units are then built without rerunning them.  If the bulk
        check fails, every unit is constructed normally instead, so the
        first bad one raises its own :class:`WorkloadError`.  The bulk
        check fails whenever some unit would (a NaN can stop ``min``
        being a bound only by making it return NaN, which fails too), so
        it can only send a good run the slow way.
        """
        checked = (
            min_parallelism >= 1
            and min(works, default=1.0) > 0
            and min(releases, default=0.0) >= 0
            and all(map(gt, deadlines, releases))
        )
        new = object.__new__
        units = []
        for uid, release, work, deadline in zip(
            count(first_uid), releases, works, deadlines
        ):
            if checked:
                unit = new(cls)
                _assign_fields(unit, uid, release, work, deadline, kind,
                               min_parallelism)
            else:
                unit = cls(uid, release, work, deadline, kind,
                           min_parallelism)
            units.append(unit)
        return units

    @property
    def slack_s(self) -> float:
        """Nominal deadline slack (deadline minus release)."""
        return self.deadline_s - self.release_s


# WorkUnit's generated __init__ minus its __post_init__ call: that of a
# frozen twin with the same fields.  It stores the fields exactly as
# WorkUnit.__init__ does, so the units keep CPython's compact attribute
# storage (an instance ``__dict__`` filled directly costs 200 more bytes
# a unit) and pickle to the same bytes.
_assign_fields = make_dataclass(
    "_WorkUnitFields", [(f.name, f.type) for f in fields(WorkUnit)],
    frozen=True,
).__init__


@dataclass
class Job:
    """Runtime execution state of one :class:`WorkUnit`.

    The simulator creates a job when the unit is released and drains its
    remaining work each interval; when the work reaches zero the job is
    complete and its lateness determines QoS.
    """

    unit: WorkUnit
    remaining: float = field(default=-1.0)
    completed_at_s: float | None = None

    def __post_init__(self) -> None:
        if self.remaining < 0:
            self.remaining = self.unit.work

    @property
    def done(self) -> bool:
        return self.remaining <= 0

    def execute(self, work_done: float, now_s: float) -> float:
        """Consume up to ``work_done`` reference-cycles from the job.

        Args:
            work_done: Capacity-weighted cycles offered to this job.
            now_s: Simulation time at the *end* of the executing interval,
                recorded as the completion time if the job finishes.

        Returns:
            The work actually consumed (never more than remaining).

        Raises:
            WorkloadError: If called on a finished job or with negative work.
        """
        if self.done:
            raise WorkloadError(f"job {self.unit.uid} is already complete")
        if work_done < 0:
            raise WorkloadError(f"work done must be non-negative: {work_done}")
        consumed = min(work_done, self.remaining)
        self.remaining -= consumed
        if self.done:
            self.completed_at_s = now_s
        return consumed

    def lateness_s(self) -> float:
        """Completion time minus deadline; negative when the job was early.

        Raises:
            WorkloadError: If the job has not completed.
        """
        if self.completed_at_s is None:
            raise WorkloadError(f"job {self.unit.uid} has not completed")
        return self.completed_at_s - self.unit.deadline_s
