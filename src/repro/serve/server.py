"""The asyncio policy server: worker pool, backpressure, deadlines, drain.

:class:`PolicyServer` boots from a trained policy snapshot
(:mod:`repro.core.checkpoint`) and serves the queued request kinds of
:mod:`repro.serve.protocol` from a bounded queue:

* decision requests are answered on the event loop itself — one greedy
  table lookup is microseconds of pure CPU, and keeping it inline is
  what makes the service latency comparable to the paper's
  software-policy decision path;
* simulation requests are shipped to an executor thread around
  :func:`repro.fleet.worker.execute_job`, the same measurement core
  the fleet uses, so a served job is bit-identical to a batch row —
  and, because the job spec carries the request's
  :class:`~repro.obs.context.TraceContext`, the executor-side flight
  recorder tags the whole simulation with the originating trace_id.

``health`` and ``stats`` requests are answered *out-of-band* at
submission, bypassing the bounded queue entirely — an overloaded (or
draining) service must still be able to report how overloaded it is.

Correlation and ops logging: when an observability session is active or
an :class:`~repro.obs.opslog.OpsLogger` is attached, every submitted
request without a client-supplied ``trace_id`` gets one stamped here,
the id is echoed on the reply, every span/instant on the request's
path carries it, and one structured ops record (outcome, latency,
queue wait) is appended per request.  With neither active, the
correlation fields are pure string copies — the zero-overhead contract
holds.

Lifecycle (the cog-style setup → serve → drain → shutdown):

    server = PolicyServer.from_checkpoint("ckpt", chip="exynos5422")
    await server.start()
    reply = await server.request(DecisionRequest(observation=obs))
    await server.shutdown()            # drains queued work first

Backpressure is explicit: a full queue answers ``overloaded``
immediately instead of buffering, an expired deadline answers
``deadline`` instead of serving late, and submissions after shutdown
answer ``shutdown``.  Per-request latency lands in the
``serve.decision_latency_s`` / ``serve.simulation_latency_s``
histograms and the queue depth in the ``serve.queue_depth`` gauge when
an observability session is active (see ``docs/serving.md``).
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.policy import RLPowerManagementPolicy
from repro.errors import ReproError, ServeError, ServeOverloaded
from repro.obs import OBS
from repro.obs.context import TraceContext, bind, new_trace_id
from repro.obs.opslog import OpsLogger
from repro.obs.runtime import SlidingWindow, health_indicators
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    REJECT_DEADLINE,
    REJECT_ERROR,
    REJECT_OVERLOADED,
    REJECT_SHUTDOWN,
    DecisionReply,
    DecisionRequest,
    HealthReply,
    HealthRequest,
    Rejection,
    Reply,
    Request,
    SimulationReply,
    SimulationRequest,
    StatsReply,
    StatsRequest,
)
from repro.serve.drift import DriftMonitor
from repro.serve.queue import InProcessQueue, QueueBackend
from repro.serve.session import DecisionSession
from repro.soc.chip import Chip
from repro.soc.presets import PRESETS

log = logging.getLogger("repro.serve")

#: Buckets matched to decision latencies (sub-µs .. ms) — finer than the
#: default decades so p50/p99 read out meaningfully.
DECISION_LATENCY_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 1e-1, 1.0,
)


@dataclass
class ServerStats:
    """Lifetime request accounting of one server."""

    served_decisions: int = 0
    served_simulations: int = 0
    served_health: int = 0
    served_stats: int = 0
    rejected_overloaded: int = 0
    rejected_deadline: int = 0
    rejected_shutdown: int = 0
    rejected_error: int = 0

    @property
    def served(self) -> int:
        """Queued requests served (out-of-band probes not included)."""
        return self.served_decisions + self.served_simulations

    def as_mapping(self) -> dict[str, int]:
        """The raw counters, for a :class:`~repro.serve.protocol.StatsReply`."""
        return {
            "served_decisions": self.served_decisions,
            "served_simulations": self.served_simulations,
            "served_health": self.served_health,
            "served_stats": self.served_stats,
            "rejected_overloaded": self.rejected_overloaded,
            "rejected_deadline": self.rejected_deadline,
            "rejected_shutdown": self.rejected_shutdown,
            "rejected_error": self.rejected_error,
        }

    @property
    def rejected(self) -> int:
        return (
            self.rejected_overloaded
            + self.rejected_deadline
            + self.rejected_shutdown
            + self.rejected_error
        )


@dataclass
class _Pending:
    """One queued request with its reply future and timing."""

    request: Request
    future: "asyncio.Future[Reply]"
    submitted_at: float
    deadline_at: float | None


class PolicyServer:
    """A long-running policy-decision service over a pluggable queue.

    Args:
        policies: Trained per-cluster policies (the snapshot to serve).
        chip: The chip the policies control; cluster names must match.
        config: Worker/queue/deadline tunables.
        queue: Queue backend; a fresh bounded
            :class:`~repro.serve.queue.InProcessQueue` when omitted.
        ops_log: Structured ops logger; one record per request outcome
            when attached (also activates trace-id stamping).
        drift: Optional :class:`~repro.serve.drift.DriftMonitor`; every
            decision session shadow-scores its decisions against the
            monitor's reference checkpoint.

    Raises:
        ServeError: When the snapshot lacks a policy for one of the
            chip's clusters.
    """

    def __init__(
        self,
        policies: dict[str, RLPowerManagementPolicy],
        chip: Chip,
        config: ServeConfig | None = None,
        queue: QueueBackend | None = None,
        ops_log: OpsLogger | None = None,
        drift: DriftMonitor | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        missing = set(chip.cluster_names) - set(policies)
        if missing:
            raise ServeError(f"snapshot lacks policies for {sorted(missing)}")
        self.chip = chip
        self.policies = policies
        self.stats = ServerStats()
        self._queue: QueueBackend = queue if queue is not None else (
            InProcessQueue(self.config.queue_size)
        )
        self._sessions: dict[str, DecisionSession] = {}
        self._workers: list["asyncio.Task[None]"] = []
        # Unanswered queued requests, so shutdown can reject each one
        # under its own ids.  What answers a request removes it: the
        # worker that served it, or _reject.  A request whose worker was
        # cancelled, or whose client cancelled its future, stays here.
        self._pending: dict["asyncio.Future[Reply]", Request] = {}
        self._accepting = False
        self._ops = ops_log
        self.drift = drift
        # Health-indicator window over the live metrics registry; only
        # fed (lazily) while an observability session is active.
        self._window = SlidingWindow()

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls,
        directory: str | Path,
        chip: Chip | str = "exynos5422",
        config: ServeConfig | None = None,
        queue: QueueBackend | None = None,
        ops_log: OpsLogger | None = None,
        drift_reference: str | Path | None = None,
    ) -> "PolicyServer":
        """Boot a server from a saved checkpoint directory.

        The checkpoint's engine-version stamp is validated by
        :func:`repro.core.checkpoint.load_policies` — a snapshot trained
        under a different engine contract refuses to serve rather than
        silently answering from a stale policy.

        Args:
            directory: The checkpoint to serve.
            chip: Chip (or preset name) the checkpoint controls.
            config: Worker/queue/deadline tunables.
            queue: Queue backend override.
            ops_log: Structured ops logger to attach.
            drift_reference: Optional second checkpoint directory to
                shadow-score every decision against (see
                :mod:`repro.serve.drift`); drift ops records go to the
                same ``ops_log``.

        Raises:
            ServeError: For an unknown chip preset.
            PolicyError: For a missing/corrupt/stale checkpoint.
        """
        from repro.core.checkpoint import load_policies

        if isinstance(chip, str):
            try:
                chip = PRESETS[chip]()
            except KeyError:
                raise ServeError(
                    f"unknown chip preset {chip!r}; available: "
                    f"{sorted(PRESETS)}"
                ) from None
        policies = load_policies(directory, chip=chip)
        drift = (
            DriftMonitor.from_checkpoint(drift_reference, ops_log=ops_log)
            if drift_reference is not None
            else None
        )
        return cls(policies, chip, config=config, queue=queue,
                   ops_log=ops_log, drift=drift)

    async def start(self) -> None:
        """Spawn the worker pool and begin accepting submissions."""
        if self._workers:
            raise ServeError("server already started")
        self._accepting = True
        self._workers = [
            asyncio.create_task(self._worker_loop(i), name=f"serve-worker-{i}")
            for i in range(self.config.workers)
        ]
        log.info(
            "serve: %d worker(s), queue bound %d, %d cluster(s)",
            self.config.workers, self.config.queue_size,
            len(self.chip.cluster_names),
        )

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the server, by default finishing all queued work first.

        New submissions are rejected with ``shutdown`` from the moment
        this is called.  With ``drain`` the queue is given
        ``config.drain_timeout_s`` to empty; anything still unanswered
        afterwards (or immediately, without ``drain``) is resolved with
        a ``shutdown`` rejection so no client is left hanging.
        """
        self._accepting = False
        if drain and self._workers:
            try:
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                log.warning(
                    "serve: drain timed out after %.1f s with %d queued",
                    self.config.drain_timeout_s, self._queue.depth(),
                )
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        # Benign await-spanning write: shutdown() runs once, on the owner
        # task, after every worker has been cancelled and awaited — no
        # concurrent mutator of _workers can exist at this point.
        self._workers = []  # noqa: RPL903
        for future, request in list(self._pending.items()):
            self._reject(
                future, request, REJECT_SHUTDOWN,
                "server shut down before the request was served",
            )
        if self._ops is not None:
            # The shutdown rejections' records are on disk on return.
            self._ops.flush()
        log.info(
            "serve: shutdown complete (%d served, %d rejected)",
            self.stats.served, self.stats.rejected,
        )

    # -- submission ----------------------------------------------------

    def session(self, session_id: str = "default") -> DecisionSession:
        """The named decision session, created on first use."""
        session = self._sessions.get(session_id)
        if session is None:
            session = DecisionSession(
                self.policies, self.chip, drift=self.drift
            )
            self._sessions[session_id] = session
        return session

    def _correlate(self, request: Request) -> Request:
        """Stamp a fresh trace_id when correlation is active.

        A client-supplied trace_id is always kept verbatim; with neither
        an observability session nor an ops logger attached, the request
        passes through untouched (zero overhead beyond two checks).  The
        stamped copy comes from the type's own constructor, which equals
        ``dataclasses.replace`` at half its cost.
        """
        if request.trace_id or not (OBS.enabled or self._ops is not None):
            return request
        trace_id = new_trace_id()
        cls = type(request)
        if isinstance(request, DecisionRequest):
            return cls(
                observation=request.observation, session=request.session,
                request_id=request.request_id, deadline_s=request.deadline_s,
                trace_id=trace_id,
            )
        if isinstance(request, SimulationRequest):
            return cls(
                spec=request.spec, request_id=request.request_id,
                deadline_s=request.deadline_s, trace_id=trace_id,
            )
        return cls(request_id=request.request_id, trace_id=trace_id)

    def submit(self, request: Request) -> "asyncio.Future[Reply]":
        """Enqueue a request; the returned future resolves to its reply.

        Never raises for service-level conditions: overload, shutdown,
        and deadline outcomes arrive as :class:`Rejection` replies.
        ``health``/``stats`` requests resolve immediately — they never
        touch the bounded queue, so they still answer under overload
        and while draining.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Reply]" = loop.create_future()
        request = self._correlate(request)
        if isinstance(request, HealthRequest):
            future.set_result(self._serve_health(request, loop))
            return future
        if isinstance(request, StatsRequest):
            future.set_result(self._serve_stats(request))
            return future
        if not self._accepting:
            self._reject(future, request, REJECT_SHUTDOWN,
                         "server is not accepting requests")
            return future
        if (
            isinstance(request, SimulationRequest)
            and request.trace_id
            and request.spec.trace_context is None
        ):
            # Forward the correlation identity into the job spec so the
            # executor thread (where contextvars do not follow) re-binds
            # it; deliberately absent from the spec's cache identity.
            request = replace(
                request,
                spec=replace(
                    request.spec,
                    trace_context=TraceContext(
                        trace_id=request.trace_id,
                        request_id=request.request_id,
                    ),
                ),
            )
        deadline_s = request.deadline_s
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        item = _Pending(
            request=request,
            future=future,
            submitted_at=loop.time(),
            deadline_at=(
                loop.time() + deadline_s if deadline_s is not None else None
            ),
        )
        try:
            self._queue.put_nowait(item)
        except ServeOverloaded as exc:
            self._reject(future, request, REJECT_OVERLOADED, str(exc))
            return future
        self._pending[future] = request
        if OBS.enabled:
            OBS.metrics.counter("serve.requests").inc()
            OBS.metrics.gauge("serve.queue_depth").set(self._queue.depth())
            if OBS.tracer.enabled:
                OBS.tracer.instant(
                    "serve.request.queued", cat="serve",
                    kind=type(request).__name__,
                    trace_id=request.trace_id,
                    request_id=request.request_id,
                    depth=self._queue.depth(),
                )
        return future

    async def request(self, request: Request) -> Reply:
        """Submit and wait for the reply (the one-call client path)."""
        return await self.submit(request)

    # -- out-of-band (queue-bypassing) handlers ------------------------

    def _serve_health(
        self, request: HealthRequest, loop: asyncio.AbstractEventLoop
    ) -> HealthReply:
        """Answer a health probe from live state + the metrics window."""
        indicators: dict[str, float | None] = {}
        if OBS.enabled:
            # Each probe feeds the window, so poll cadence sets the
            # indicator resolution; the window bounds memory either way.
            self._window.observe(OBS.metrics.snapshot(), at_s=loop.time())
            if len(self._window) >= 2:
                indicators = health_indicators(self._window)
        self.stats.served_health += 1
        self._log_ops(request, "ok", 0.0, 0.0)
        return HealthReply(
            request_id=request.request_id,
            status="ok" if self._accepting else "stopped",
            queue_depth=self._queue.depth(),
            workers=len(self._workers),
            served=self.stats.served,
            rejected=self.stats.rejected,
            indicators=indicators,
            trace_id=request.trace_id,
        )

    def _serve_stats(self, request: StatsRequest) -> StatsReply:
        """Answer a stats dump from the lifetime counters."""
        self.stats.served_stats += 1
        self._log_ops(request, "ok", 0.0, 0.0)
        stats = self.stats.as_mapping()
        if self.drift is not None:
            stats.update(self.drift.as_mapping())
        return StatsReply(
            request_id=request.request_id,
            stats=stats,
            trace_id=request.trace_id,
        )

    # -- workers -------------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        while True:
            item = await self._queue.get()
            try:
                await self._handle(item)
            finally:
                self._queue.task_done()
                if OBS.enabled:
                    OBS.metrics.gauge("serve.queue_depth").set(
                        self._queue.depth()
                    )

    async def _handle(self, item: _Pending) -> None:
        loop = asyncio.get_running_loop()
        request = item.request
        queue_wait_s = loop.time() - item.submitted_at
        if OBS.enabled and OBS.tracer.enabled:
            OBS.tracer.instant(
                "serve.request.dequeued", cat="serve",
                kind=type(request).__name__,
                trace_id=request.trace_id,
                request_id=request.request_id,
                queue_wait_s=queue_wait_s,
            )
        if item.deadline_at is not None and loop.time() > item.deadline_at:
            self._reject(
                item.future, request, REJECT_DEADLINE,
                f"deadline of {request.deadline_s or self.config.default_deadline_s} s "
                "expired while queued",
                queue_wait_s=queue_wait_s,
            )
            return
        # Only tracer probes and the drift monitor read the bound
        # context, so it is built only when one of them can run.
        ctx = (
            TraceContext(
                trace_id=request.trace_id, request_id=request.request_id
            )
            if request.trace_id and (OBS.enabled or self.drift is not None)
            else None
        )
        try:
            # The contextvar binding follows this task through the
            # decision path; the executor path re-binds explicitly from
            # the spec's trace_context inside the worker.
            with bind(ctx):
                if isinstance(request, DecisionRequest):
                    reply = self._serve_decision(request, item, loop)
                elif isinstance(request, SimulationRequest):
                    reply = await self._serve_simulation(request, item, loop)
                else:  # pragma: no cover - OOB kinds never enqueue
                    raise ServeError(
                        f"unroutable queued request {type(request).__name__}"
                    )
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            self._reject(item.future, request, REJECT_ERROR, str(exc),
                         queue_wait_s=queue_wait_s)
            return
        self._log_ops(request, "ok", reply.latency_s, queue_wait_s)
        if OBS.enabled and OBS.tracer.enabled:
            OBS.tracer.instant(
                "serve.request.replied", cat="serve",
                kind=type(request).__name__,
                trace_id=request.trace_id,
                request_id=request.request_id,
                latency_s=reply.latency_s,
            )
        self._pending.pop(item.future, None)
        if not item.future.done():
            item.future.set_result(reply)

    def _serve_decision(
        self, request: DecisionRequest, item: _Pending,
        loop: asyncio.AbstractEventLoop,
    ) -> DecisionReply:
        opp_index = self.session(request.session).decide(request.observation)
        latency_s = loop.time() - item.submitted_at
        self.stats.served_decisions += 1
        if OBS.enabled:
            OBS.metrics.histogram(
                "serve.decision_latency_s", DECISION_LATENCY_BUCKETS
            ).observe(latency_s)
            OBS.metrics.counter("serve.decisions").inc()
        return DecisionReply(
            request_id=request.request_id,
            cluster=request.observation.cluster,
            opp_index=opp_index,
            latency_s=latency_s,
            trace_id=request.trace_id,
        )

    async def _serve_simulation(
        self, request: SimulationRequest, item: _Pending,
        loop: asyncio.AbstractEventLoop,
    ) -> SimulationReply:
        # execute_job, not simulate_spec: the full fleet entry re-binds
        # the spec's trace_context in the executor thread and honours
        # collect_metrics/trace_dir, while producing numbers that are
        # bit-identical to a batch fleet row (it wraps the same core).
        from repro.fleet.worker import execute_job

        measurement = await loop.run_in_executor(
            None, execute_job, request.spec
        )
        latency_s = loop.time() - item.submitted_at
        self.stats.served_simulations += 1
        if OBS.enabled:
            OBS.metrics.histogram("serve.simulation_latency_s").observe(
                latency_s
            )
            OBS.metrics.counter("serve.simulations").inc()
        return SimulationReply(
            request_id=request.request_id,
            job_id=request.spec.job_id,
            energy_j=measurement.energy_j,
            mean_qos=measurement.mean_qos,
            deadline_miss_rate=measurement.deadline_miss_rate,
            energy_per_qos_j=measurement.energy_per_qos_j,
            latency_s=latency_s,
            trace_id=request.trace_id,
        )

    def _reject(
        self, future: "asyncio.Future[Reply]", request: Request,
        reason: str, detail: str, queue_wait_s: float = 0.0,
    ) -> None:
        counter = {
            REJECT_OVERLOADED: "rejected_overloaded",
            REJECT_DEADLINE: "rejected_deadline",
            REJECT_SHUTDOWN: "rejected_shutdown",
            REJECT_ERROR: "rejected_error",
        }[reason]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if OBS.enabled:
            OBS.metrics.counter(f"serve.{counter}").inc()
        self._log_ops(
            request, f"rejected:{reason}", 0.0, queue_wait_s, detail=detail
        )
        self._pending.pop(future, None)
        if not future.done():
            future.set_result(
                Rejection(
                    request_id=request.request_id,
                    reason=reason,
                    detail=detail,
                    trace_id=request.trace_id,
                )
            )

    def _log_ops(
        self,
        request: Request,
        outcome: str,
        latency_s: float,
        queue_wait_s: float,
        detail: str = "",
    ) -> None:
        """Append one structured ops record, when a logger is attached.

        A no-op without one, so the unlogged path pays a single
        attribute check.  The record's kind follows the request's type,
        and its values go by position into the kind's key layout
        (:meth:`OpsLogger.log_served
        <repro.obs.opslog.OpsLogger.log_served>`), which encodes the
        line and, on the event loop, queues it; the loop turn's lines
        are written by one flush scheduled ahead of the reply's
        callbacks, because every call here comes before the
        ``set_result`` it records.  A future that ``submit`` resolves at
        once (health, stats, overload and shutdown rejections) can be
        read by an ``await`` before that flush runs.  A flush that
        cannot write counts the lines in :attr:`OpsLogger.lost
        <repro.obs.opslog.OpsLogger.lost>` instead of failing the
        request.
        """
        ops = self._ops
        if ops is None:
            return
        extra: tuple[str, ...] = ()
        if isinstance(request, DecisionRequest):
            kind = "decision"
            extra = (request.session, request.observation.cluster)
        elif isinstance(request, SimulationRequest):
            kind = "simulation"
            extra = (request.spec.job_id,)
        elif isinstance(request, HealthRequest):
            kind = "health"
        else:
            kind = "stats"
        ops.log_served(
            kind, outcome, latency_s, queue_wait_s,
            request.trace_id, request.request_id, extra, detail,
        )
