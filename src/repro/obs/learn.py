"""The learning ledger: one JSONL record per training episode.

The ops log (:mod:`repro.obs.opslog`) answers "what has the *service*
been doing"; the learning ledger answers "what has the *learner* been
doing" — one self-describing JSON object per training episode, carrying
the reward, TD-error statistics, exploration rate, Q-table norms,
state-visitation coverage, and greedy-policy churn that convergence
arguments are made of.

:class:`LearnRecorder` is the **only** code allowed to append to a
learning ledger; lint rule RPL802 enforces that, exactly as
RPL501/RPL601/RPL801 do for the perf ledger, the run cache, and the ops
log.  Appends and reads go through :data:`LEARN_LOG`, this ledger's
:class:`~repro.obs.ledger.LedgerKind`.  Everything else here is
read-side: ``LEARN_LOG.read`` backs
``repro learn report|gate``, and the :class:`ConvergenceSpec` detectors
turn a ledger into a deterministic exit code for CI.

Record schema (see ``docs/observability.md``):

=====================  =====================================================
field                  meaning
=====================  =====================================================
``ts``                 Wall-clock unix seconds when the record was logged.
``episode``            Global episode index (offset across curriculum
                       stages so no index repeats).
``scenario``           Workload scenario the episode trained on.
``reward``             Summed reward across clusters for this episode.
``td_error_mean_abs``  Mean |TD error| over the episode's updates.
``td_error_var``       Population variance of the signed TD errors
                       (cross-cluster Welford merge).
``epsilon``            Exploration rate at episode end (max over clusters).
``q_norm_l2``          L2 norm over all clusters' Q-tables.
``q_max_abs``          Largest |Q| entry — the divergence alarm's input.
``coverage``           Fraction of Q-rows visited (max over clusters).
``churn``              Fraction of states whose greedy action changed vs
                       the previous episode (0.0 when no prior table).
``energy_per_qos_j``   The episode's energy-per-QoS (the paper's metric).
``mean_qos``           The episode's mean QoS.
``updates``            Q-update count across clusters this episode.
=====================  =====================================================

Extra keys (``job_id``, ``stage``, ...) are allowed and preserved; the
required fourteen always exist.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Sequence

from repro.errors import ObsError
from repro.obs.ledger import (
    GateReport,
    GateResult,
    LedgerKind,
    gate,
    read_json_object,
)

#: Every learning record carries at least these keys.
LEARN_RECORD_FIELDS = (
    "ts", "episode", "scenario", "reward", "td_error_mean_abs",
    "td_error_var", "epsilon", "q_norm_l2", "q_max_abs", "coverage",
    "churn", "energy_per_qos_j", "mean_qos", "updates",
)

#: How the learning ledger is validated, appended and read.
LEARN_LOG = LedgerKind(
    noun="learning record",
    unreadable="cannot read learning ledger",
    error=ObsError,
    fields=LEARN_RECORD_FIELDS,
)


def learn_record(
    episode: int,
    scenario: str,
    reward: float = 0.0,
    td_error_mean_abs: float = 0.0,
    td_error_var: float = 0.0,
    epsilon: float = 0.0,
    q_norm_l2: float = 0.0,
    q_max_abs: float = 0.0,
    coverage: float = 0.0,
    churn: float = 0.0,
    energy_per_qos_j: float = 0.0,
    mean_qos: float = 0.0,
    updates: int = 0,
    ts: float | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """A schema-complete learning record (not yet written anywhere).

    Raises:
        ObsError: On a negative episode/update count, an empty scenario,
            a coverage/churn/epsilon outside ``[0, 1]``, or a negative
            TD statistic or Q norm.
    """
    if episode < 0:
        raise ObsError(f"episode index cannot be negative: {episode}")
    if not scenario:
        raise ObsError("a learning record needs a non-empty scenario")
    for name, value in (
        ("coverage", coverage), ("churn", churn), ("epsilon", epsilon),
    ):
        if not 0.0 <= value <= 1.0:
            raise ObsError(
                f"learning record {name} must be in [0, 1]: {value}"
            )
    for name, value in (
        ("td_error_mean_abs", td_error_mean_abs),
        ("td_error_var", td_error_var),
        ("q_norm_l2", q_norm_l2),
        ("q_max_abs", q_max_abs),
    ):
        if value < 0:
            raise ObsError(
                f"learning record {name} cannot be negative: {value}"
            )
    if updates < 0:
        raise ObsError(f"update count cannot be negative: {updates}")
    record: dict[str, Any] = {
        # The wall-clock stamp is ledger metadata, never simulation
        # state: training results are bit-identical with or without it.
        "ts": time.time() if ts is None else float(ts),  # noqa: RPL001
        "episode": int(episode),
        "scenario": scenario,
        "reward": float(reward),
        "td_error_mean_abs": float(td_error_mean_abs),
        "td_error_var": float(td_error_var),
        "epsilon": float(epsilon),
        "q_norm_l2": float(q_norm_l2),
        "q_max_abs": float(q_max_abs),
        "coverage": float(coverage),
        "churn": float(churn),
        "energy_per_qos_j": float(energy_per_qos_j),
        "mean_qos": float(mean_qos),
        "updates": int(updates),
    }
    record.update(extra)
    return record


class LearnRecorder:
    """Append-only JSONL writer — the sole blessed ledger producer.

    One recorder owns one file; every :meth:`log` call validates the
    record against the schema and appends one line, so a crashed
    training run keeps every completed episode and the ledger stays
    greppable while training runs.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.written = 0

    def log(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and append one record; returns the stored form.

        Raises:
            ObsError: When required fields are missing or the record is
                not JSON-serialisable.
        """
        stored = LEARN_LOG.append(self.path, record)
        self.written += 1
        return stored


def summarize_learning(records: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Roll a record list up into the ``repro learn report`` payload.

    Pure and deterministic in the records: episode count, scenarios in
    training order, total reward, final coverage/epsilon/TD error, and
    the largest Q magnitude the run ever reached.
    """
    scenarios: list[str] = []
    for record in records:
        name = str(record.get("scenario", ""))
        if not scenarios or scenarios[-1] != name:
            scenarios.append(name)
    last = records[-1] if records else {}
    return {
        "episodes": len(records),
        "scenarios": scenarios,
        "total_reward": sum(float(r.get("reward", 0.0)) for r in records),
        "final_td_error_mean_abs": float(last.get("td_error_mean_abs", 0.0)),
        "final_epsilon": float(last.get("epsilon", 0.0)),
        "final_coverage": float(last.get("coverage", 0.0)),
        "final_energy_per_qos_j": float(last.get("energy_per_qos_j", 0.0)),
        "max_q_abs": max(
            (float(r.get("q_max_abs", 0.0)) for r in records), default=0.0
        ),
        "mean_churn": (
            sum(float(r.get("churn", 0.0)) for r in records) / len(records)
            if records
            else 0.0
        ),
    }


def format_learn_summary(summary: Mapping[str, Any]) -> str:
    """The human-readable rendering of :func:`summarize_learning`."""
    lines = [
        f"{summary['episodes']} episode(s) over "
        f"{' -> '.join(summary['scenarios']) or '-'}"
    ]
    lines.append(f"total reward: {summary['total_reward']:.3f}")
    lines.append(
        f"final: td_error_mean_abs {summary['final_td_error_mean_abs']:.4f}, "
        f"epsilon {summary['final_epsilon']:.3f}, "
        f"coverage {summary['final_coverage']:.1%}"
    )
    lines.append(
        f"final energy/QoS: {summary['final_energy_per_qos_j'] * 1e3:.3f} mJ"
    )
    lines.append(
        f"mean churn: {summary['mean_churn']:.1%}, "
        f"max |Q|: {summary['max_q_abs']:.3f}"
    )
    return "\n".join(lines)


# -- convergence / divergence detection ------------------------------------


def is_plateau(values: Sequence[float], tol: float) -> bool:
    """Whether a window of values has stopped moving.

    A window is a plateau when its spread (max minus min) stays under
    ``tol`` times its smallest magnitude — for a positive series this is
    exactly ``max/min < 1 + tol``, the form E5's legacy tail heuristic
    used.  An all-equal window is always a plateau.

    Raises:
        ObsError: On an empty window or a negative tolerance.
    """
    if not values:
        raise ObsError("plateau test needs at least one value")
    if tol < 0:
        raise ObsError(f"plateau tolerance cannot be negative: {tol}")
    spread = max(values) - min(values)
    if spread == 0.0:
        return True
    scale = min(abs(v) for v in values)
    return spread < tol * scale


def plateau_episode(
    values: Sequence[float], window: int, tol: float
) -> int | None:
    """The first index whose trailing ``window`` values form a plateau.

    Returns ``None`` when no window plateaus (including when the series
    is shorter than the window).

    Raises:
        ObsError: On a window below 2 or a negative tolerance.
    """
    if window < 2:
        raise ObsError(f"plateau window must be at least 2: {window}")
    for i in range(window - 1, len(values)):
        if is_plateau(values[i - window + 1 : i + 1], tol):
            return i
    return None


def _slope(values: Sequence[float]) -> float:
    """Least-squares slope of a series against its index."""
    n = len(values)
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    num = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den if den else 0.0


def _upward_crossings(values: Sequence[float], threshold: float) -> int:
    """How often the series rises from at-or-under to over ``threshold``."""
    return sum(
        1
        for prev, cur in zip(values, values[1:])
        if prev <= threshold < cur
    )


@dataclass(frozen=True)
class ConvergenceSpec:
    """Declarative convergence/divergence criteria over a ledger.

    Three convergence detectors look at the trailing ``window`` episodes
    (TD-error slope, mean churn, reward plateau) and two divergence
    alarms catch runs that are actively going wrong (Q-value explosion
    anywhere in the ledger, oscillating churn inside the window).

    Attributes:
        window: Trailing episode count the windowed detectors read.
        max_td_slope: Largest acceptable least-squares slope of
            ``td_error_mean_abs`` over the window (0.0 = non-increasing).
        max_churn: Largest acceptable mean greedy-policy churn over the
            window, in ``[0, 1]``.
        reward_plateau_tol: Relative spread under which the window's
            reward counts as plateaued (see :func:`is_plateau`).
        max_q_abs: Q-magnitude above which the run is declared
            divergent.
        max_churn_flips: Largest acceptable count of upward churn
            crossings of ``max_churn`` inside the window (more means
            the greedy policy is oscillating, not settling).
    """

    window: int = 4
    max_td_slope: float = 0.0
    max_churn: float = 0.05
    reward_plateau_tol: float = 0.10
    max_q_abs: float = 1000.0
    max_churn_flips: int = 2

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ObsError(
                f"convergence window must be at least 2: {self.window}"
            )
        if not 0.0 <= self.max_churn <= 1.0:
            raise ObsError(
                f"max_churn must be in [0, 1]: {self.max_churn}"
            )
        if self.reward_plateau_tol < 0:
            raise ObsError(
                "reward_plateau_tol cannot be negative: "
                f"{self.reward_plateau_tol}"
            )
        if self.max_q_abs <= 0:
            raise ObsError(f"max_q_abs must be positive: {self.max_q_abs}")
        if self.max_churn_flips < 0:
            raise ObsError(
                f"max_churn_flips cannot be negative: {self.max_churn_flips}"
            )


#: What ``repro learn gate`` checks when no spec file is given.
DEFAULT_CONVERGENCE = ConvergenceSpec()

_SPEC_FIELDS = (
    "window", "max_td_slope", "max_churn", "reward_plateau_tol",
    "max_q_abs", "max_churn_flips",
)


def spec_from_mapping(data: Mapping[str, Any]) -> ConvergenceSpec:
    """Parse a flat convergence-spec mapping.

    Raises:
        ObsError: On unknown keys or invalid field values.
    """
    unknown = set(data) - set(_SPEC_FIELDS)
    if unknown:
        raise ObsError(
            f"unknown convergence-spec keys {sorted(unknown)}; "
            f"known: {sorted(_SPEC_FIELDS)}"
        )
    return ConvergenceSpec(**data)


def load_convergence_spec(path: str | Path) -> ConvergenceSpec:
    """Load and validate a JSON convergence-spec file."""
    return spec_from_mapping(read_json_object(path, "convergence spec"))


@dataclass(frozen=True)
class LearnVerdict:
    """How one detector fared over one ledger.

    Attributes:
        name: Detector label (``td-slope``, ``churn``,
            ``reward-plateau``, ``q-explosion``, ``churn-oscillation``).
        status: ``"ok"`` / ``"fail"`` / ``"no-data"``.
        value: The measured quantity the detector compared.
        bound: The spec bound it was compared against.
        detail: Human-facing description of what was measured.
    """

    name: str
    status: str
    value: float
    bound: float
    detail: str = ""


@dataclass(frozen=True)
class LearnReport(GateReport):
    """All verdicts of one evaluation pass over a ledger.

    Attributes:
        verdicts: One per detector, in a stable order.
        episodes: How many ledger records were evaluated.
        converged_episode: Ledger ``episode`` of the first record whose
            trailing window satisfies *all* convergence detectors, or
            ``None`` when training never settled.
    """

    verdicts: tuple[LearnVerdict, ...]
    episodes: int
    converged_episode: int | None = None

    notice: ClassVar[str] = (
        "::notice title=learn gate::all convergence detectors within bounds"
    )

    def text_lines(self, verbose: bool = False) -> list[str]:
        """One line per detector, then the convergence summary."""
        lines = [
            f"{v.status.upper():>7}  {v.name}: "
            f"{v.value:g} (bound {v.bound:g}) — {v.detail}"
            for v in self.verdicts
        ]
        converged = (
            f"converged at episode {self.converged_episode}"
            if self.converged_episode is not None
            else "not converged"
        )
        lines.append("")
        lines.append(
            f"{len(self.verdicts)} detector(s) over {self.episodes} "
            f"episode(s): {len(self.failures)} failing; {converged}"
        )
        return lines

    def to_mapping(self) -> dict[str, Any]:
        """The JSON payload of ``repro learn report|gate``."""
        return {
            "ok": self.ok,
            "episodes": self.episodes,
            "converged_episode": self.converged_episode,
            "verdicts": [asdict(v) for v in self.verdicts],
        }

    def annotations(self) -> list[str]:
        """One ``::error`` per failing detector, one ``::warning`` per
        detector without data."""
        lines = [
            f"::error title=learning gate::{v.name} at {v.value:g} "
            f"(bound {v.bound:g}) — {v.detail}"
            for v in self.failures
        ]
        lines += [
            f"::warning title=learning no-data::{v.name}: {v.detail}"
            for v in self.verdicts
            if v.status == "no-data"
        ]
        return lines


def _window_converged(
    td: Sequence[float],
    churn: Sequence[float],
    reward: Sequence[float],
    spec: ConvergenceSpec,
) -> bool:
    """Whether one trailing window satisfies all convergence detectors."""
    if _slope(td) > spec.max_td_slope:
        return False
    if sum(churn) / len(churn) > spec.max_churn:
        return False
    return is_plateau(reward, spec.reward_plateau_tol)


def evaluate_learning(
    records: Sequence[Mapping[str, Any]],
    spec: ConvergenceSpec = DEFAULT_CONVERGENCE,
) -> LearnReport:
    """Evaluate every detector over a ledger (deterministic).

    Windowed detectors with fewer records than the spec's window report
    ``"no-data"`` and pass — a two-episode smoke run has not diverged,
    it just has not said anything yet (mirroring the SLO runtime's
    no-data semantics).
    """
    td = [float(r.get("td_error_mean_abs", 0.0)) for r in records]
    churn = [float(r.get("churn", 0.0)) for r in records]
    reward = [float(r.get("reward", 0.0)) for r in records]
    q_abs = [float(r.get("q_max_abs", 0.0)) for r in records]
    w = spec.window
    verdicts: list[LearnVerdict] = []

    if len(records) >= w:
        slope = _slope(td[-w:])
        verdicts.append(LearnVerdict(
            name="td-slope",
            status="fail" if slope > spec.max_td_slope else "ok",
            value=slope,
            bound=spec.max_td_slope,
            detail=f"TD-error slope over last {w} episode(s)",
        ))
        mean_churn = sum(churn[-w:]) / w
        verdicts.append(LearnVerdict(
            name="churn",
            status="fail" if mean_churn > spec.max_churn else "ok",
            value=mean_churn,
            bound=spec.max_churn,
            detail=f"mean greedy-policy churn over last {w} episode(s)",
        ))
        tail = reward[-w:]
        spread = max(tail) - min(tail)
        scale = min(abs(v) for v in tail)
        verdicts.append(LearnVerdict(
            name="reward-plateau",
            status="ok" if is_plateau(tail, spec.reward_plateau_tol) else "fail",
            value=spread / scale if scale > 0 else spread,
            bound=spec.reward_plateau_tol,
            detail=f"relative reward spread over last {w} episode(s)",
        ))
        flips = _upward_crossings(churn[-w:], spec.max_churn)
        verdicts.append(LearnVerdict(
            name="churn-oscillation",
            status="fail" if flips > spec.max_churn_flips else "ok",
            value=float(flips),
            bound=float(spec.max_churn_flips),
            detail=(
                f"upward churn crossings of {spec.max_churn:g} in last "
                f"{w} episode(s)"
            ),
        ))
    else:
        for name in ("td-slope", "churn", "reward-plateau",
                     "churn-oscillation"):
            verdicts.append(LearnVerdict(
                name=name, status="no-data", value=0.0, bound=0.0,
                detail=f"needs {w} episode(s), ledger has {len(records)}",
            ))

    if records:
        worst = max(q_abs)
        verdicts.append(LearnVerdict(
            name="q-explosion",
            status="fail" if worst > spec.max_q_abs else "ok",
            value=worst,
            bound=spec.max_q_abs,
            detail="largest |Q| entry anywhere in the ledger",
        ))
    else:
        verdicts.append(LearnVerdict(
            name="q-explosion", status="no-data", value=0.0, bound=0.0,
            detail="empty ledger",
        ))

    converged: int | None = None
    for i in range(w - 1, len(records)):
        lo = i - w + 1
        if _window_converged(
            td[lo : i + 1], churn[lo : i + 1], reward[lo : i + 1], spec
        ):
            converged = int(records[i].get("episode", i))
            break
    return LearnReport(
        verdicts=tuple(verdicts),
        episodes=len(records),
        converged_episode=converged,
    )


def gate_learn_log(
    path: str | Path,
    spec: ConvergenceSpec = DEFAULT_CONVERGENCE,
    warn_only: bool = False,
) -> GateResult:
    """One-call form: read a ledger, evaluate, gate."""
    return gate(evaluate_learning(LEARN_LOG.read(path), spec), warn_only)
