"""Request/response types of the policy-decision service.

Four request kinds exist; two travel through the queue:

* :class:`DecisionRequest` — one observation → one OPP decision, the
  online analogue of a single governor step.
* :class:`SimulationRequest` — a whole simulation job, delegated to the
  fleet measurement core (:func:`repro.fleet.worker.execute_job`).

and two are answered out-of-band, *bypassing* the bounded worker queue
(an overloaded service must still be able to say how overloaded it is):

* :class:`HealthRequest` — liveness plus sliding-window indicators.
* :class:`StatsRequest` — the raw lifetime counters.

Every request is answered with exactly one reply: a
:class:`DecisionReply`, a :class:`SimulationReply`, a
:class:`HealthReply`, a :class:`StatsReply`, or a :class:`Rejection`
(backpressure, deadline, shutdown, or a handler error).  Rejections are
*responses*, not exceptions — a loaded service saying "no" is a normal
outcome the client must handle.

Correlation: every request and reply carries a ``trace_id`` alongside
the client's ``request_id``.  A client may supply its own trace id (it
is echoed verbatim); when correlation is active server-side and the
field is empty, the server stamps a fresh one at submission, so the
reply, the ops-log record, and every span/instant the request touched
share one id.

All types round-trip through plain JSON-serialisable mappings
(:func:`request_from_mapping` / :func:`reply_to_mapping`) so a future
remote queue backend can ship them without new serialisation code.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any, Union

from repro.errors import ServeError
from repro.fleet.spec import JobSpec
from repro.sim.telemetry import ClusterObservation, initial_fields
from repro.soc.chip import Chip

#: Reasons a request can be rejected instead of answered.
REJECT_OVERLOADED = "overloaded"
REJECT_DEADLINE = "deadline"
REJECT_SHUTDOWN = "shutdown"
REJECT_ERROR = "error"

_INT_OBS_FIELDS = {
    "opp_index", "n_opps", "queue_jobs", "deadline_misses", "completions"
}
#: Every :class:`ClusterObservation` field; a client may send no other.
_OBS_FIELDS = frozenset(f.name for f in fields(ClusterObservation))


@dataclass(frozen=True)
class DecisionRequest:
    """One observation → action decision.

    Attributes:
        observation: The cluster observation to decide on; its
            ``cluster`` field routes it to the right per-cluster policy.
        session: Decision-session id.  Each session owns its own
            featurizer/predictor state, so interleaved clients do not
            perturb each other's state encoding; requests of one session
            must arrive in time order for bit-identity with the offline
            governor.
        request_id: Client-chosen correlation id, echoed on the reply.
        deadline_s: Seconds (from submission) after which the request
            should be rejected rather than served late; ``None`` falls
            back to the server's default.
        trace_id: End-to-end correlation id; empty means "let the
            server stamp one" (when correlation is active).
    """

    observation: ClusterObservation
    session: str = "default"
    request_id: str = ""
    deadline_s: float | None = None
    trace_id: str = ""


@dataclass(frozen=True)
class SimulationRequest:
    """A whole simulation job (the batch workload, served online).

    Attributes:
        spec: The fleet job spec to execute; results are bit-identical
            to ``repro fleet`` running the same spec.
        request_id: Client-chosen correlation id, echoed on the reply.
        deadline_s: Same semantics as on :class:`DecisionRequest`.
        trace_id: Same semantics as on :class:`DecisionRequest`; the
            server forwards it into ``spec.trace_context`` so the
            executor-side flight recorder tags its spans with it.
    """

    spec: JobSpec
    request_id: str = ""
    deadline_s: float | None = None
    trace_id: str = ""


@dataclass(frozen=True)
class HealthRequest:
    """Out-of-band health probe (never enters the worker queue)."""

    request_id: str = ""
    trace_id: str = ""


@dataclass(frozen=True)
class StatsRequest:
    """Out-of-band stats dump (never enters the worker queue)."""

    request_id: str = ""
    trace_id: str = ""


Request = Union[DecisionRequest, SimulationRequest, HealthRequest, StatsRequest]

#: Request kinds answered at submission, bypassing the bounded queue.
OOB_KINDS = (HealthRequest, StatsRequest)


@dataclass(frozen=True)
class DecisionReply:
    """A served decision.

    Attributes:
        request_id: Echo of the request's correlation id.
        cluster: The cluster decided for.
        opp_index: The chosen OPP index (the governor's output).
        latency_s: Submit-to-reply service latency in seconds.
        trace_id: The end-to-end correlation id of this request's path.
    """

    request_id: str
    cluster: str
    opp_index: int
    latency_s: float
    trace_id: str = ""


@dataclass(frozen=True)
class SimulationReply:
    """A served simulation job (one sweep-row worth of metrics)."""

    request_id: str
    job_id: str
    energy_j: float
    mean_qos: float
    deadline_miss_rate: float
    energy_per_qos_j: float
    latency_s: float
    trace_id: str = ""


@dataclass(frozen=True)
class HealthReply:
    """The out-of-band health answer.

    Attributes:
        request_id / trace_id: Correlation echoes.
        status: ``"ok"`` while accepting, ``"stopped"`` once draining.
        queue_depth: Requests currently queued.
        workers: Worker-task count.
        served / rejected: Lifetime totals.
        indicators: Sliding-window numbers from
            :func:`repro.obs.runtime.health_indicators` (empty when the
            server has no metrics window to draw on).
    """

    request_id: str
    status: str
    queue_depth: int
    workers: int
    served: int
    rejected: int
    indicators: dict[str, float | None]
    trace_id: str = ""


@dataclass(frozen=True)
class StatsReply:
    """The out-of-band stats answer (raw lifetime counters)."""

    request_id: str
    stats: dict[str, int]
    trace_id: str = ""


@dataclass(frozen=True)
class Rejection:
    """A request the service explicitly declined to serve.

    Attributes:
        request_id: Echo of the request's correlation id.
        reason: One of ``overloaded`` (queue bound hit), ``deadline``
            (expired while queued), ``shutdown`` (submitted after drain
            began), or ``error`` (the handler raised).
        detail: Human-readable explanation.
        trace_id: The end-to-end correlation id, when one was stamped
            before the rejection.
    """

    request_id: str
    reason: str
    detail: str = ""
    trace_id: str = ""


Reply = Union[DecisionReply, SimulationReply, HealthReply, StatsReply, Rejection]


def observation_from_mapping(
    data: Mapping[str, Any], chip: Chip | None = None
) -> ClusterObservation:
    """Build an observation from a (possibly partial) mapping.

    A ``cluster`` name is always required.  When ``chip`` is given, the
    OPP-table geometry and current operating point seed the defaults, so
    a client may send only the signal fields it cares about
    (``utilization``, ``qos_slack``, ...); without a chip every field
    must be present.

    Raises:
        ServeError: On unknown keys, a missing cluster, or missing
            fields when no chip provides defaults.
    """
    if not _OBS_FIELDS.issuperset(data):
        raise ServeError(
            f"unknown observation fields {sorted(set(data) - _OBS_FIELDS)}; "
            f"known: {sorted(_OBS_FIELDS)}"
        )
    if "cluster" not in data:
        raise ServeError("an observation needs a 'cluster' name")
    name = str(data["cluster"])
    base: dict[str, Any]
    if chip is not None:
        if name not in chip.cluster_names:
            raise ServeError(
                f"unknown cluster {name!r}; chip has {list(chip.cluster_names)}"
            )
        cluster = chip.cluster(name)
        table = cluster.spec.opp_table
        base = initial_fields(
            name, cluster.opp_index, len(table), cluster.freq_hz,
            table.max_freq_hz, 0.01,
        )
    else:
        missing = _OBS_FIELDS - set(data) - {"temp_c"}
        if missing:
            raise ServeError(
                f"observation missing fields {sorted(missing)} "
                "(pass a chip for defaults, or send them all)"
            )
        base = {"temp_c": None}
    merged = {**base, **data}
    for key, value in merged.items():
        if key == "cluster" or value is None:
            continue
        merged[key] = int(value) if key in _INT_OBS_FIELDS else float(value)
    merged["cluster"] = name
    return ClusterObservation(**merged)


def request_from_mapping(
    data: Mapping[str, Any], chip: Chip | None = None
) -> Request:
    """Parse one request mapping (e.g. a JSONL line).

    The ``kind`` key picks the request type: ``"decision"`` (default),
    ``"simulate"``, ``"health"``, or ``"stats"``.

    Raises:
        ServeError: On an unknown kind or a malformed payload.
    """
    kind = str(data.get("kind", "decision"))
    request_id = str(data.get("request_id", ""))
    trace_id = str(data.get("trace_id", ""))
    deadline = data.get("deadline_s")
    deadline_s = float(deadline) if deadline is not None else None
    if deadline_s is not None and deadline_s <= 0:
        raise ServeError(f"deadline must be positive: {deadline_s}")
    if kind == "decision":
        payload = data.get("observation")
        if not isinstance(payload, Mapping):
            raise ServeError("a decision request needs an 'observation' mapping")
        return DecisionRequest(
            observation=observation_from_mapping(payload, chip),
            session=str(data.get("session", "default")),
            request_id=request_id,
            deadline_s=deadline_s,
            trace_id=trace_id,
        )
    if kind == "simulate":
        payload = data.get("spec")
        if not isinstance(payload, Mapping):
            raise ServeError("a simulate request needs a 'spec' mapping")
        return SimulationRequest(
            spec=JobSpec.from_mapping(payload),
            request_id=request_id,
            deadline_s=deadline_s,
            trace_id=trace_id,
        )
    if kind == "health":
        return HealthRequest(request_id=request_id, trace_id=trace_id)
    if kind == "stats":
        return StatsRequest(request_id=request_id, trace_id=trace_id)
    raise ServeError(
        f"unknown request kind {kind!r}; expected 'decision', 'simulate', "
        "'health', or 'stats'"
    )


def reply_to_mapping(reply: Reply) -> dict[str, Any]:
    """The JSON-serialisable form of a reply, tagged with its kind.

    A reply is a flat frozen dataclass, so ``vars`` lists its fields in
    declaration order, as ``asdict`` would, without the deep copy; the
    two dict-valued fields are copied so the mapping shares nothing
    with the reply.
    """
    if isinstance(reply, DecisionReply):
        return {"kind": "decision", **vars(reply)}
    if isinstance(reply, SimulationReply):
        return {"kind": "simulation", **vars(reply)}
    if isinstance(reply, HealthReply):
        return {"kind": "health", **vars(reply),
                "indicators": dict(reply.indicators)}
    if isinstance(reply, StatsReply):
        return {"kind": "stats", **vars(reply), "stats": dict(reply.stats)}
    return {"kind": "rejection", **vars(reply)}
