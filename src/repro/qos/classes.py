"""QoS classes: not all work units matter equally.

Mobile frameworks distinguish user-visible (interactive) work from
best-effort and background work; a dropped animation frame is jank, a
late sync retry is invisible.  A :class:`QoSClassMap` assigns a weight
per unit *kind*, and :func:`evaluate_jobs_weighted` aggregates QoS with
those weights, so policies are judged primarily on what the user sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.qos.metrics import QoSReport, evaluate_jobs
from repro.workload.task import Job


@dataclass(frozen=True)
class QoSClass:
    """One service class.

    Attributes:
        name: Class label.
        weight: Relative importance of this class's units in aggregate
            QoS (> 0).
    """

    name: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(
                f"QoS class {self.name!r} needs a positive weight: {self.weight}"
            )


INTERACTIVE = QoSClass("interactive", weight=4.0)
BEST_EFFORT = QoSClass("best-effort", weight=1.0)
BACKGROUND = QoSClass("background", weight=0.25)


@dataclass
class QoSClassMap:
    """Maps work-unit kinds to service classes.

    Attributes:
        kind_to_class: Explicit kind assignments.
        default: Class for unlisted kinds.
    """

    kind_to_class: dict[str, QoSClass] = field(default_factory=dict)
    default: QoSClass = BEST_EFFORT

    def class_of(self, kind: str) -> QoSClass:
        """The service class of a unit kind."""
        return self.kind_to_class.get(kind, self.default)

    def weight_of(self, kind: str) -> float:
        """The aggregate-QoS weight of a unit kind."""
        return self.class_of(kind).weight


def default_mobile_classes() -> QoSClassMap:
    """A sensible classification of the built-in scenarios' kinds:
    frame-producing phases are interactive, loads are best-effort,
    background ticks are background."""
    interactive_kinds = [
        "scroll", "gameplay", "decode", "preview", "app_settle", "menu",
        "audio_decode", "map_render",
    ]
    background_kinds = ["background", "sync_burst", "read", "home_idle", "gps_fix"]
    mapping: dict[str, QoSClass] = {}
    for kind in interactive_kinds:
        mapping[kind] = INTERACTIVE
    for kind in background_kinds:
        mapping[kind] = BACKGROUND
    return QoSClassMap(kind_to_class=mapping, default=BEST_EFFORT)


def evaluate_jobs_weighted(
    jobs: list[Job],
    classes: QoSClassMap,
    grace_factor: float = 2.0,
) -> QoSReport:
    """Class-weighted QoS aggregation.

    Identical per-unit scoring to :func:`repro.qos.metrics.evaluate_jobs`
    but the mean is weighted by each unit's class weight, so interactive
    jank dominates the score.

    Returns:
        A :class:`~repro.qos.metrics.QoSReport` whose ``mean_qos`` is the
        weighted mean; the count fields remain unweighted.
    """
    return evaluate_jobs(jobs, grace_factor, weight_of=classes.weight_of)
