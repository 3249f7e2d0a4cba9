"""Runtime health: sliding windows, indicators, and SLO gating.

Three layers, each consuming the one below:

* :class:`SlidingWindow` rolls :meth:`MetricsRegistry.snapshot
  <repro.obs.metrics.MetricsRegistry.snapshot>` dicts into a bounded
  time window and differences the monotonic parts (counters, histogram
  buckets), so a long-running server can answer "what happened in the
  last 60 seconds" without ever resetting its metrics.
* :func:`health_indicators` reduces a window to the numbers an
  out-of-band ``health`` request reports: p50/p99 decision latency,
  request and rejection rates, and the window span actually covered.
* The SLO machinery — :class:`SloSpec` definitions and
  :func:`evaluate_slos` over ops-log records (:mod:`repro.obs.opslog`),
  gated and rendered by the shared :func:`repro.obs.ledger.gate` and
  :func:`repro.obs.ledger.render` — turns "is the service healthy" into
  a deterministic exit code for CI.

Evaluation is error-budget based: an objective of ``0.999`` leaves a
``0.001`` budget of bad requests, and the *burn rate* is the fraction
of bad requests divided by that budget.  A burn rate above 1.0 means
the window, extrapolated, exhausts the budget — that SLO fails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Sequence

from repro.errors import ObsError
from repro.obs.ledger import GateReport, GateResult, gate, read_json_object
from repro.obs.metrics import histogram_quantile
from repro.obs.opslog import OPS_KINDS, OPS_LOG

# -- sliding window over metric snapshots ---------------------------------


class SlidingWindow:
    """A bounded deque of ``(at_s, snapshot)`` pairs with delta views.

    Counters and histogram buckets are monotonic, so the difference
    between the newest and oldest snapshot in the window *is* the
    activity inside the window; gauges keep last-value semantics.

    Args:
        window_s: Maximum age (relative to the newest observation) a
            snapshot may reach before being evicted.
        max_samples: Hard cap on retained snapshots, so a hot polling
            loop cannot grow memory without bound.
    """

    def __init__(self, window_s: float = 60.0, max_samples: int = 256) -> None:
        if window_s <= 0:
            raise ObsError(f"window_s must be positive: {window_s}")
        if max_samples < 2:
            raise ObsError(f"a window needs at least 2 samples: {max_samples}")
        self.window_s = window_s
        self._samples: deque[tuple[float, dict[str, Any]]] = deque(
            maxlen=max_samples
        )

    def __len__(self) -> int:
        return len(self._samples)

    def observe(self, snapshot: Mapping[str, Any], at_s: float) -> None:
        """Add one snapshot taken at monotonic time ``at_s``."""
        if self._samples and at_s < self._samples[-1][0]:
            raise ObsError(
                f"window observations must not go backwards: "
                f"{at_s} < {self._samples[-1][0]}"
            )
        self._samples.append((float(at_s), dict(snapshot)))
        horizon = at_s - self.window_s
        while len(self._samples) > 2 and self._samples[0][0] < horizon:
            self._samples.popleft()

    def span_s(self) -> float:
        """Seconds between the oldest and newest retained snapshot."""
        if len(self._samples) < 2:
            return 0.0
        return self._samples[-1][0] - self._samples[0][0]

    def delta(self) -> dict[str, Any]:
        """A snapshot-shaped dict of in-window activity.

        Counters and histogram ``bucket_counts``/``count``/``sum`` are
        newest-minus-oldest (a metric absent from the oldest snapshot
        counts from zero); gauges pass through from the newest.  The
        per-window histogram ``min``/``max`` are approximated by the
        newest snapshot's lifetime extremes — bucket differencing cannot
        recover exact in-window extremes, and the quantile estimates the
        health layer needs only use them to clamp interpolation.
        """
        if not self._samples:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        newest = self._samples[-1][1]
        if len(self._samples) == 1:
            return {
                "counters": dict(newest.get("counters", {})),
                "gauges": dict(newest.get("gauges", {})),
                "histograms": {
                    name: dict(h)
                    for name, h in newest.get("histograms", {}).items()
                },
            }
        oldest = self._samples[0][1]
        counters = {
            name: value - oldest.get("counters", {}).get(name, 0.0)
            for name, value in newest.get("counters", {}).items()
        }
        histograms: dict[str, dict[str, Any]] = {}
        old_hists = oldest.get("histograms", {})
        for name, h in newest.get("histograms", {}).items():
            old = old_hists.get(name)
            if old is not None and list(old["bounds"]) != list(h["bounds"]):
                raise ObsError(
                    f"histogram {name!r} bucket bounds changed inside "
                    "the window"
                )
            old_counts = (
                old["bucket_counts"] if old else [0] * len(h["bucket_counts"])
            )
            histograms[name] = {
                "bounds": list(h["bounds"]),
                "bucket_counts": [
                    n - o for n, o in zip(h["bucket_counts"], old_counts)
                ],
                "count": h["count"] - (old["count"] if old else 0),
                "sum": h["sum"] - (old["sum"] if old else 0.0),
                "min": h["min"],
                "max": h["max"],
            }
        return {
            "counters": counters,
            "gauges": dict(newest.get("gauges", {})),
            "histograms": histograms,
        }

    def quantile(self, name: str, q: float) -> float | None:
        """In-window ``q``-quantile of histogram ``name`` (or ``None``)."""
        histogram = self.delta()["histograms"].get(name)
        if histogram is None or histogram["count"] <= 0:
            return None
        return histogram_quantile(histogram, q)

    def rate(self, prefix: str) -> float:
        """In-window per-second rate summed over counters named
        ``prefix`` or ``prefix.*``."""
        span = self.span_s()
        if span <= 0:
            return 0.0
        dotted = prefix + "."
        total = sum(
            value
            for name, value in self.delta()["counters"].items()
            if name == prefix or name.startswith(dotted)
        )
        return total / span


def health_indicators(window: SlidingWindow) -> dict[str, float | None]:
    """The indicator block of a ``health`` reply, from one window."""
    return {
        "decision_latency_p50_s": window.quantile("serve.decision_latency_s", 0.50),
        "decision_latency_p99_s": window.quantile("serve.decision_latency_s", 0.99),
        "request_rate_per_s": window.rate("serve.requests"),
        "rejection_rate_per_s": window.rate("serve.rejected"),
        "window_s": window.span_s(),
    }


# -- declarative SLOs over ops-log records --------------------------------


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over ops-log records.

    Attributes:
        name: Human-facing label (unique within a config).
        kind: Which record kind the SLO scopes to (``decision``,
            ``simulation``, ``job``, ...), or ``"any"``.
        objective: Target good-request fraction in ``(0, 1)``; the
            error budget is ``1 - objective``.
        max_latency_s: When set, a record is only *good* if its
            ``latency_s`` stays at or under this bound (a latency SLO
            on top of the availability one).
    """

    name: str
    kind: str = "decision"
    objective: float = 0.999
    max_latency_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ObsError("an SLO needs a non-empty name")
        if self.kind != "any" and self.kind not in OPS_KINDS:
            raise ObsError(
                f"SLO {self.name!r}: unknown kind {self.kind!r}; "
                f"expected 'any' or one of {OPS_KINDS}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ObsError(
                f"SLO {self.name!r}: objective must be in (0, 1): "
                f"{self.objective}"
            )
        if self.max_latency_s is not None and self.max_latency_s <= 0:
            raise ObsError(
                f"SLO {self.name!r}: max_latency_s must be positive: "
                f"{self.max_latency_s}"
            )

    def is_good(self, record: Mapping[str, Any]) -> bool:
        """Whether one (in-scope) record counts against the budget."""
        outcome = str(record.get("outcome", ""))
        if outcome not in ("ok", "cached"):
            return False
        if self.max_latency_s is not None:
            return float(record.get("latency_s", 0.0)) <= self.max_latency_s
        return True

    def applies_to(self, record: Mapping[str, Any]) -> bool:
        """Whether a record is in this SLO's scope at all."""
        return self.kind == "any" or record.get("kind") == self.kind


#: What ``repro slo gate`` checks when no config file is given: served
#: decisions nearly always succeed, and when they do they stay under the
#: paper-scale latency bound bench_s1 enforces on p99.
DEFAULT_SLOS = (
    SloSpec(name="decision-availability", kind="decision", objective=0.99),
    SloSpec(
        name="decision-latency",
        kind="decision",
        objective=0.95,
        max_latency_s=0.05,
    ),
)


def slos_from_mapping(data: Mapping[str, Any]) -> tuple[SloSpec, ...]:
    """Parse the ``{"slos": [...]}`` config mapping.

    Raises:
        ObsError: On a malformed shape, unknown keys, duplicate names,
            or an invalid spec.
    """
    known = {"name", "kind", "objective", "max_latency_s"}
    unknown_top = set(data) - {"slos"}
    if unknown_top:
        raise ObsError(
            f"unknown SLO config keys {sorted(unknown_top)}; expected 'slos'"
        )
    entries = data.get("slos")
    if not isinstance(entries, list) or not entries:
        raise ObsError("SLO config needs a non-empty 'slos' list")
    specs: list[SloSpec] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ObsError(f"slos[{i}] is not a JSON object")
        unknown = set(entry) - known
        if unknown:
            raise ObsError(
                f"slos[{i}]: unknown keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        if "name" not in entry:
            raise ObsError(f"slos[{i}] is missing 'name'")
        specs.append(SloSpec(**entry))
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ObsError(f"duplicate SLO names: {dupes}")
    return tuple(specs)


def load_slo_config(path: str | Path) -> tuple[SloSpec, ...]:
    """Load and validate a JSON SLO config file."""
    return slos_from_mapping(read_json_object(path, "SLO config"))


@dataclass(frozen=True)
class SloVerdict:
    """How one SLO fared over one record set.

    Attributes:
        spec: The objective evaluated.
        total: In-scope record count.
        bad: Records that missed (wrong outcome or over the latency
            bound).
        burn_rate: ``bad_fraction / error_budget``; 1.0 means the
            budget is being consumed exactly as fast as it accrues.
        status: ``"ok"`` / ``"fail"`` / ``"no-data"``.
    """

    spec: SloSpec
    total: int
    bad: int
    burn_rate: float
    status: str

    @property
    def good_fraction(self) -> float:
        return 1.0 - (self.bad / self.total) if self.total else 1.0


@dataclass(frozen=True)
class SloReport(GateReport):
    """All verdicts of one evaluation pass."""

    verdicts: tuple[SloVerdict, ...]

    notice: ClassVar[str] = "::notice title=slo gate::all SLOs within budget"

    def text_lines(self, verbose: bool = False) -> list[str]:
        """One line per objective, then the pass/fail count."""
        lines: list[str] = []
        for v in self.verdicts:
            bound = (
                f", <={v.spec.max_latency_s:g}s"
                if v.spec.max_latency_s is not None
                else ""
            )
            lines.append(
                f"{v.status.upper():>7}  {v.spec.name} "
                f"({v.spec.kind}, obj {v.spec.objective:g}{bound}): "
                f"{v.total - v.bad}/{v.total} good, "
                f"burn rate {v.burn_rate:.2f}"
            )
        failed = len(self.failures)
        lines.append("")
        lines.append(
            f"{len(self.verdicts)} SLO(s): {failed} failing, "
            f"{len(self.verdicts) - failed} passing"
        )
        return lines

    def to_mapping(self) -> dict[str, Any]:
        """The JSON payload of ``repro slo gate``."""
        return {
            "ok": self.ok,
            "verdicts": [
                {
                    "name": v.spec.name,
                    "kind": v.spec.kind,
                    "objective": v.spec.objective,
                    "max_latency_s": v.spec.max_latency_s,
                    "total": v.total,
                    "bad": v.bad,
                    "good_fraction": v.good_fraction,
                    "burn_rate": v.burn_rate,
                    "status": v.status,
                }
                for v in self.verdicts
            ],
        }

    def annotations(self) -> list[str]:
        """One ``::error`` per failing SLO, one ``::warning`` per SLO
        that matched no records."""
        lines = [
            f"::error title=SLO violation::{v.spec.name} burn rate "
            f"{v.burn_rate:.2f} ({v.bad}/{v.total} bad, "
            f"objective {v.spec.objective:g})"
            for v in self.failures
        ]
        lines += [
            f"::warning title=SLO no-data::{v.spec.name} matched no records"
            for v in self.verdicts
            if v.status == "no-data"
        ]
        return lines


def evaluate_slos(
    records: Sequence[Mapping[str, Any]],
    slos: Sequence[SloSpec] = DEFAULT_SLOS,
) -> SloReport:
    """Evaluate every SLO over an ops-record list (deterministic).

    An SLO with no in-scope records reports ``"no-data"`` and passes —
    an idle service has burned no budget, and CI fixtures stay
    insensitive to which kinds they happen to include.
    """
    if not slos:
        raise ObsError("nothing to evaluate: empty SLO list")
    verdicts: list[SloVerdict] = []
    for spec in slos:
        scoped = [r for r in records if spec.applies_to(r)]
        bad = sum(1 for r in scoped if not spec.is_good(r))
        if not scoped:
            verdicts.append(
                SloVerdict(spec=spec, total=0, bad=0, burn_rate=0.0,
                           status="no-data")
            )
            continue
        budget = 1.0 - spec.objective
        burn_rate = (bad / len(scoped)) / budget
        verdicts.append(
            SloVerdict(
                spec=spec,
                total=len(scoped),
                bad=bad,
                burn_rate=burn_rate,
                status="fail" if burn_rate > 1.0 else "ok",
            )
        )
    return SloReport(verdicts=tuple(verdicts))


def gate_ops_log(
    path: str | Path,
    slos: Sequence[SloSpec] = DEFAULT_SLOS,
    warn_only: bool = False,
) -> GateResult:
    """One-call form: read an ops log, evaluate, gate."""
    return gate(evaluate_slos(OPS_LOG.read(path), slos), warn_only)
