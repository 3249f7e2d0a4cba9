"""Statistical regression gating over ledger records.

:func:`compare_records` reduces the repeated samples of each
``(record key, metric)`` pair on the baseline and current side, then
classifies the shift:

* **n ≥ 5 on both sides** — bootstrap confidence interval on the
  relative median shift (seeded resampling, so two invocations over the
  same ledger agree bit-for-bit).  A shift whose CI clears the noise
  threshold in the bad direction is ``regressed``; clearing it in the
  good direction is ``improved``; anything else is ``unchanged``.
* **n < 5** — plain threshold rule on the median shift.  CI machinery
  on three samples is theatre; a straight relative comparison against
  the threshold is honest about what little the data supports.

A key's baseline is its newest regime (:func:`newest_regime`): the rows
of the last commit that recorded at least five, so rows from before a
speed change do not dilute it.

Metric *polarity* (whether bigger is better) is inferred from the name —
``qos`` / ``speedup`` / throughput-ish metrics count up, everything else
(energy, latency, failures) counts down — and can be overridden per
metric.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PerfError
from repro.obs.ledger import GateReport
from repro.perf.ledger import RunRecord, group_samples

MIN_BOOTSTRAP_SAMPLES = 5
"""Below this many samples per side, the threshold rule applies."""

DEFAULT_THRESHOLD = 0.10
"""Relative shift treated as measurement noise (10%)."""

DEFAULT_BOOTSTRAP_ITERS = 2000
DEFAULT_CONFIDENCE = 0.95
DEFAULT_BOOTSTRAP_SEED = 20200720  # DAC 2020 vintage

#: Name fragments marking a metric as higher-is-better.
_HIGHER_BETTER_MARKERS = (
    "qos",
    "improvement",
    "speedup",
    "throughput",
    "agreement",
    "coverage",
    "_per_s",
    "steps_per_s",
)

#: Fragments that pin lower-is-better even when a higher marker also
#: matches — ``energy_per_qos_j`` contains "qos" but counts *down*.
_LOWER_BETTER_MARKERS = (
    "energy",
    "latency",
    "miss",
)


def metric_polarity(
    name: str, overrides: Mapping[str, str] | None = None
) -> str:
    """``"higher"`` or ``"lower"`` — which direction is better.

    Args:
        name: Metric name (``"energy_per_qos_j"``, ``"mean_qos"``, ...).
        overrides: Per-metric overrides, value ``"higher"``/``"lower"``.

    Raises:
        PerfError: On an override value that is neither direction.
    """
    if overrides and name in overrides:
        direction = overrides[name]
        if direction not in ("higher", "lower"):
            raise PerfError(
                f"polarity override for {name!r} must be "
                f"'higher' or 'lower', not {direction!r}"
            )
        return direction
    lowered = name.lower()
    if any(marker in lowered for marker in _LOWER_BETTER_MARKERS):
        return "lower"
    if any(marker in lowered for marker in _HIGHER_BETTER_MARKERS):
        return "higher"
    return "lower"


@dataclass(frozen=True)
class MetricVerdict:
    """The comparison outcome for one ``(record key, metric)`` pair.

    Attributes:
        key: Sample-grouping key (:meth:`RunRecord.key`).
        metric: Metric name.
        status: ``"improved"`` / ``"unchanged"`` / ``"regressed"`` /
            ``"added"`` / ``"removed"``.
        baseline_median / current_median: Per-side medians (``None``
            when that side has no samples).
        shift: Relative median shift ``(current - baseline) /
            |baseline|`` (``None`` when undefined).
        ci_low / ci_high: Bootstrap CI on the shift (``None`` under the
            threshold rule).
        n_baseline / n_current: Sample counts.
        method: ``"bootstrap"`` or ``"threshold"``.
        polarity: Which direction is better for this metric.
    """

    key: str
    metric: str
    status: str
    baseline_median: float | None
    current_median: float | None
    shift: float | None
    ci_low: float | None
    ci_high: float | None
    n_baseline: int
    n_current: int
    method: str
    polarity: str


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3e}"
    return f"{value:.6g}"


@dataclass(frozen=True)
class PerfComparison(GateReport):
    """All verdicts of one baseline/current comparison; its
    :attr:`failures` are the regressions."""

    verdicts: tuple[MetricVerdict, ...]
    threshold: float
    confidence: float

    failing: ClassVar[str] = "regressed"
    notice: ClassVar[str] = "::notice title=perf gate::no significant shifts"

    @property
    def improvements(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if v.status == "improved")

    def regressions_in(self, metrics: Collection[str]) -> tuple[MetricVerdict, ...]:
        """The regressions of the named metrics (under any key)."""
        return tuple(v for v in self.failures if v.metric in metrics)

    def text_lines(self, verbose: bool = False) -> list[str]:
        """Regressions and improvements, then the per-status counts.

        Unchanged/added/removed verdicts only print under ``verbose``.
        """
        lines: list[str] = []
        for v in self.verdicts:
            if v.status in ("unchanged", "added", "removed") and not verbose:
                continue
            shift = f"{v.shift:+.1%}" if v.shift is not None else "-"
            ci = (
                f" CI[{v.ci_low:+.1%}, {v.ci_high:+.1%}]"
                if v.ci_low is not None and v.ci_high is not None
                else ""
            )
            lines.append(
                f"{v.status.upper():>9}  {v.key} :: {v.metric}  "
                f"{_fmt(v.baseline_median)} -> {_fmt(v.current_median)} "
                f"({shift}{ci}, n={v.n_baseline}/{v.n_current}, "
                f"{v.method}, {v.polarity}-is-better)"
            )
        counts = {"improved": 0, "unchanged": 0, "regressed": 0, "added": 0, "removed": 0}
        for v in self.verdicts:
            counts[v.status] += 1
        if lines:
            lines.append("")
        lines.append(
            f"{len(self.verdicts)} metric(s): "
            f"{counts['regressed']} regressed, {counts['improved']} improved, "
            f"{counts['unchanged']} unchanged"
            + (
                f", {counts['added']} added, {counts['removed']} removed"
                if counts["added"] or counts["removed"]
                else ""
            )
        )
        return lines

    def to_mapping(self) -> dict[str, Any]:
        """The JSON payload of ``repro perf compare|gate``."""
        return {
            "threshold": self.threshold,
            "confidence": self.confidence,
            "ok": self.ok,
            "verdicts": [asdict(v) for v in self.verdicts],
        }

    def annotations(self) -> list[str]:
        """One ``::error`` per regression and one ``::warning`` per
        improvement (worth a look: did the benchmark get easier, or the
        code faster?)."""
        lines: list[str] = []
        for v in self.failures:
            shift = f"{v.shift:+.1%}" if v.shift is not None else "?"
            lines.append(
                f"::error title=perf regression::{v.key} :: {v.metric} "
                f"shifted {shift} ({_fmt(v.baseline_median)} -> "
                f"{_fmt(v.current_median)}, {v.method})"
            )
        for v in self.improvements:
            shift = f"{v.shift:+.1%}" if v.shift is not None else "?"
            lines.append(
                f"::warning title=perf improvement::{v.key} :: {v.metric} "
                f"shifted {shift}"
            )
        return lines


def _bootstrap_shift_ci(
    baseline: Sequence[float],
    current: Sequence[float],
    iters: int,
    confidence: float,
    seed: int,
) -> tuple[float, float]:
    """Percentile-bootstrap CI on the relative median shift."""
    rng = np.random.default_rng(seed)
    base = np.asarray(baseline, dtype=float)
    cur = np.asarray(current, dtype=float)
    base_idx = rng.integers(0, len(base), size=(iters, len(base)))
    cur_idx = rng.integers(0, len(cur), size=(iters, len(cur)))
    base_medians = np.median(base[base_idx], axis=1)
    cur_medians = np.median(cur[cur_idx], axis=1)
    denom = np.abs(base_medians)
    denom[denom == 0.0] = 1.0
    shifts = (cur_medians - base_medians) / denom
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(shifts, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _relative_shift(baseline_median: float, current_median: float) -> float:
    denom = abs(baseline_median)
    if denom == 0.0:
        denom = 1.0
    return (current_median - baseline_median) / denom


def newest_regime(
    records: Iterable[RunRecord], min_rows: int = MIN_BOOTSTRAP_SAMPLES
) -> list[RunRecord]:
    """Per record key, the rows of the newest commit with enough of them.

    A baseline ledger gains rows after every speed change, so pooling
    all rows of a key mixes regimes and hides a change undone.  Per key
    this keeps the rows of the last-appended ``git_sha`` that has at
    least ``min_rows`` of them, or every row of the key if no commit
    has that many.
    """
    by_key: dict[str, list[RunRecord]] = {}
    for record in records:
        by_key.setdefault(record.key(), []).append(record)
    kept: list[RunRecord] = []
    for rows in by_key.values():
        counts = Counter(r.git_sha for r in rows)
        newest_first = dict.fromkeys(r.git_sha for r in reversed(rows))
        sha = next((s for s in newest_first if counts[s] >= min_rows), None)
        kept.extend(rows if sha is None else [r for r in rows if r.git_sha == sha])
    return kept


def compare_records(
    baseline: Iterable[RunRecord],
    current: Iterable[RunRecord],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    confidence: float = DEFAULT_CONFIDENCE,
    bootstrap_iters: int = DEFAULT_BOOTSTRAP_ITERS,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
    polarity_overrides: Mapping[str, str] | None = None,
) -> PerfComparison:
    """Classify every metric's shift between two record sets.

    Args:
        baseline: Reference records (the history or another ledger);
            each key keeps only its :func:`newest_regime` rows.
        current: Records under test.
        threshold: Relative shift below which a change is noise.
        confidence: Bootstrap CI level (n ≥ 5 per side only).
        bootstrap_iters: Resampling iterations.
        seed: Bootstrap RNG seed — fixed so gating is reproducible.
        polarity_overrides: Per-metric ``"higher"``/``"lower"``.

    Raises:
        PerfError: If both sides are empty, or on a bad threshold /
            confidence / override.
    """
    if not 0.0 < confidence < 1.0:
        raise PerfError(f"confidence must be in (0, 1): {confidence}")
    if threshold < 0.0:
        raise PerfError(f"threshold cannot be negative: {threshold}")
    base_samples = group_samples(newest_regime(baseline))
    cur_samples = group_samples(current)
    if not base_samples and not cur_samples:
        raise PerfError("nothing to compare: both record sets are empty")

    verdicts: list[MetricVerdict] = []
    for pair in sorted(set(base_samples) | set(cur_samples)):
        key, metric = pair
        base = base_samples.get(pair, [])
        cur = cur_samples.get(pair, [])
        polarity = metric_polarity(metric, polarity_overrides)
        if not base or not cur:
            verdicts.append(
                MetricVerdict(
                    key=key,
                    metric=metric,
                    status="added" if not base else "removed",
                    baseline_median=(
                        float(np.median(base)) if base else None
                    ),
                    current_median=float(np.median(cur)) if cur else None,
                    shift=None,
                    ci_low=None,
                    ci_high=None,
                    n_baseline=len(base),
                    n_current=len(cur),
                    method="none",
                    polarity=polarity,
                )
            )
            continue
        base_median = float(np.median(base))
        cur_median = float(np.median(cur))
        shift = _relative_shift(base_median, cur_median)
        use_bootstrap = (
            len(base) >= MIN_BOOTSTRAP_SAMPLES
            and len(cur) >= MIN_BOOTSTRAP_SAMPLES
        )
        ci_low: float | None = None
        ci_high: float | None = None
        if use_bootstrap:
            ci_low, ci_high = _bootstrap_shift_ci(
                base, cur, bootstrap_iters, confidence, seed
            )
            # Worse means the CI lies entirely past the threshold in
            # the bad direction; better, entirely past it in the good.
            if polarity == "lower":
                worse = ci_low > threshold
                better = ci_high < -threshold
            else:
                worse = ci_high < -threshold
                better = ci_low > threshold
        else:
            if polarity == "lower":
                worse = shift > threshold
                better = shift < -threshold
            else:
                worse = shift < -threshold
                better = shift > threshold
        status = "regressed" if worse else ("improved" if better else "unchanged")
        verdicts.append(
            MetricVerdict(
                key=key,
                metric=metric,
                status=status,
                baseline_median=base_median,
                current_median=cur_median,
                shift=shift,
                ci_low=ci_low,
                ci_high=ci_high,
                n_baseline=len(base),
                n_current=len(cur),
                method="bootstrap" if use_bootstrap else "threshold",
                polarity=polarity,
            )
        )
    return PerfComparison(
        verdicts=tuple(verdicts), threshold=threshold, confidence=confidence
    )
