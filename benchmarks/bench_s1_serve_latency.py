"""S1 — served decision latency.

The serving claim behind the subsystem: a policy served from a bounded
asyncio queue answers decision requests at sub-millisecond latency, so
putting a service boundary in front of the Q-table does not erase the
paper's software-vs-hardware latency argument (E4's 3.92x/40x; compare
programmatically via ``repro latency --format json``).  The bench boots
a :class:`repro.serve.PolicyServer` from a freshly trained snapshot,
streams decision requests through it under a metrics capture, and reads
the p50/p99 off the ``serve.decision_latency_s`` histogram — the same
numbers ``repro serve --ledger`` records in production.
"""

from __future__ import annotations

import asyncio
import time

from repro import obs
from repro.core.trainer import train_policy
from repro.obs.metrics import histogram_quantile
from repro.serve import DecisionRequest, PolicyServer, ServeConfig
from repro.serve.protocol import observation_from_mapping
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario

from conftest import write_result

N_REQUESTS = 2000


def _serve_round() -> tuple[dict, object]:
    chip = tiny_test_chip()
    policies = train_policy(
        chip, get_scenario("audio_playback"), episodes=3,
        episode_duration_s=3.0,
    ).policies
    server = PolicyServer(
        policies, tiny_test_chip(), ServeConfig(workers=2)
    )
    cluster = server.chip.cluster_names[0]
    requests = [
        DecisionRequest(
            observation=observation_from_mapping(
                {"cluster": cluster, "utilization": (i % 10) / 10},
                server.chip,
            ),
            request_id=f"r{i}",
        )
        for i in range(N_REQUESTS)
    ]

    # Closed loop: await each reply before submitting the next, so the
    # histogram reads pure service latency, not self-inflicted queue
    # wait from batch submission.
    async def run() -> None:
        await server.start()
        for request in requests:
            await server.request(request)
        await server.shutdown()

    with obs.capture(trace=False) as session:
        start = time.perf_counter()
        asyncio.run(run())
        elapsed = time.perf_counter() - start
    return session.metrics.snapshot(), (server, elapsed)


def test_s1_serve_latency(benchmark):
    snapshot, (server, elapsed) = benchmark.pedantic(
        _serve_round, rounds=1, iterations=1
    )
    hist = snapshot["histograms"]["serve.decision_latency_s"]
    p50 = histogram_quantile(hist, 0.50)
    p99 = histogram_quantile(hist, 0.99)
    mean = hist["sum"] / hist["count"]
    throughput = N_REQUESTS / elapsed
    metrics = {
        "decision_latency_p50_s": p50,
        "decision_latency_p99_s": p99,
        "decision_latency_mean_s": mean,
        "throughput_rps": throughput,
        "decisions": float(server.stats.served_decisions),
        "rejected": float(server.stats.rejected),
    }
    report = "\n".join(
        [
            f"S1: served decision latency ({N_REQUESTS} closed-loop "
            f"requests, {server.config.workers} workers)",
            f"  p50:        {p50 * 1e6:8.1f} us",
            f"  p99:        {p99 * 1e6:8.1f} us",
            f"  mean:       {mean * 1e6:8.1f} us",
            f"  throughput: {throughput:8.0f} decisions/s",
            f"  served: {server.stats.served_decisions}, "
            f"rejected: {server.stats.rejected}",
        ]
    )
    write_result("s1_serve_latency", report, metrics=metrics,
                 config={"requests": N_REQUESTS})
    assert server.stats.served_decisions == N_REQUESTS
    assert server.stats.rejected == 0
    assert hist["count"] == N_REQUESTS
    # Generous sanity band: a served decision must stay sub-10ms even on
    # a loaded CI box; locally it sits in the tens-of-microseconds.
    assert p50 < 0.01
    assert p99 < 0.05
