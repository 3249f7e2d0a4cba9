"""O2 — correlation + ops-logging overhead on the serve closed loop.

PR 7's correlation layer threads a ``trace_id`` through every request
and optionally appends one structured ops-log record per outcome.  The
contract mirrors O1's: with no ops log attached and no trace ids on the
wire, ``PolicyServer._correlate`` must short-circuit to a single
attribute check and the serve path must match the pre-correlation
numbers; with correlation active, ids must never change a decision —
who asked is not allowed to affect what is computed.  This bench pins
both: bit-identical decisions between the plain and correlated loops,
and a sane bound on the cost of stamping ids and writing records.  The
plain and correlated rounds alternate (:func:`conftest.best_of_pair`),
so host load that drifts during the bench reaches both sides alike.
"""

from __future__ import annotations

import asyncio
import math

from repro.core.trainer import train_policy
from repro.obs import OPS_LOG, OpsLogger
from repro.serve import DecisionRequest, PolicyServer, ServeConfig
from repro.serve.protocol import observation_from_mapping
from repro.soc.presets import tiny_test_chip
from repro.workload.scenarios import get_scenario

from conftest import best_of_pair, write_result

N_REQUESTS = 500
REPEATS = 3

_POLICIES = train_policy(
    tiny_test_chip(), get_scenario("audio_playback"), episodes=3,
    episode_duration_s=3.0,
).policies


def _requests() -> list[DecisionRequest]:
    """The closed loop's requests, parsed once outside the timed rounds."""
    chip = tiny_test_chip()
    cluster = chip.cluster_names[0]
    return [
        DecisionRequest(
            observation=observation_from_mapping(
                {"cluster": cluster, "utilization": (i % 10) / 10}, chip,
            ),
            request_id=f"r{i}",
        )
        for i in range(N_REQUESTS)
    ]


def _serve_round(
    ops_log: OpsLogger | None, requests: list[DecisionRequest]
) -> list[int]:
    """One closed serve loop on a fresh server; returns the decisions."""
    server = PolicyServer(
        _POLICIES, tiny_test_chip(), ServeConfig(workers=2),
        ops_log=ops_log,
    )
    decisions: list[int] = []

    async def run() -> None:
        await server.start()
        for request in requests:
            reply = await server.request(request)
            decisions.append(reply.opp_index)
        await server.shutdown()

    asyncio.run(run())
    return decisions


def test_o2_context_overhead(benchmark, tmp_path):
    requests = _requests()
    baseline = benchmark.pedantic(
        _serve_round, args=(None, requests), rounds=1, iterations=1
    )

    ops_log = OpsLogger(tmp_path / "bench-o2-ops.jsonl")
    (plain_s, plain), (correlated_s, correlated) = best_of_pair(
        REPEATS,
        lambda: _serve_round(None, requests),
        lambda: _serve_round(ops_log, requests),
    )

    # Correlation must not change a single decision.
    assert correlated == baseline
    assert plain == baseline

    records = OPS_LOG.read(ops_log.path)
    decision_records = [r for r in records if r["kind"] == "decision"]
    assert len(decision_records) >= N_REQUESTS
    assert all(r["trace_id"] for r in decision_records)

    ratio = correlated_s / plain_s if plain_s > 0 else math.inf
    per_request_us = (correlated_s - plain_s) / N_REQUESTS * 1e6
    lines = [
        "O2: correlation + ops-log overhead "
        f"({N_REQUESTS} closed-loop decisions on tiny, best of {REPEATS})",
        f"  plain       : {plain_s * 1e3:8.2f} ms",
        f"  correlated  : {correlated_s * 1e3:8.2f} ms "
        f"({ratio:.2f}x, {ops_log.written} ops records)",
        f"  per request : {per_request_us:+.1f} us "
        "(trace-id stamp + one JSONL append)",
    ]
    write_result(
        "o2_context_overhead",
        "\n".join(lines),
        metrics={
            "plain_s": plain_s,
            "correlated_s": correlated_s,
            "correlated_over_plain": ratio,
        },
        config={"requests": N_REQUESTS, "repeats": REPEATS},
    )
    # Stamping ids and appending one JSON line per request is allowed
    # to cost, but not pathologically (loose: CI machines are noisy; a
    # 2-core host reads about 2x).
    assert ratio < 5.0
