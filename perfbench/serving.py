"""The serving workloads: ``serve-open`` and ``serve-logged``.

Before ``setup_s`` starts, the run trains a policy on a seeded trace and
saves it as a checkpoint; the server under test boots from that
checkpoint with ``PolicyServer.from_checkpoint``, exactly as
``repro serve`` does.  Every request takes the ``repro serve`` path: a
JSONL-shaped mapping goes through ``request_from_mapping`` and
``submit``, and every reply through ``reply_to_mapping`` and
``json.dumps``.

The timed region has two halves, each run in 0.5 s slices with the
server idle in between while the host-speed factor is measured
(:mod:`perfbench.hostspeed`):

* an open loop at a fixed rate (:data:`OPEN_RATE_PER_S`, about 30% of
  the plain server's capacity on a 2-core host).  Latency is measured
  from each request's *due* time to its encoded reply, so a stall also
  charges the requests queued behind it.  The sender yields with
  ``asyncio.sleep(0)`` and sends every request already due: a timer
  sleep would be rounded to the event loop's millisecond resolution and
  the generator would measure its own timer;
* a closed loop of :data:`CLOSED_CLIENTS` clients, each sending its next
  request when the previous reply arrives.  Completions per second is
  the capacity: the rate above which an open-loop backlog grows.

``serve-logged`` is the same traffic from the same seed with an
``OpsLogger`` attached, which also turns on trace-id stamping.

Every served decision is replayed afterwards through a fresh offline
``DecisionSession`` per client session; a decision that differs, like a
refused request, counts as failed.  A refused request is not replayed:
the server never advanced that session's featurizer for it.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import random
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.checkpoint import load_policies, save_policies
from repro.core.trainer import train_policy
from repro.obs.opslog import OpsLogger
from repro.serve import DecisionReply, PolicyServer, ServeConfig, protocol
from repro.serve.session import DecisionSession
from repro.soc.presets import PRESETS
from repro.workload.scenarios import get_scenario

from perfbench import hostspeed, layers
from perfbench.harness import Context, Outcome, measure_setup, peak_rss_mb, quantile

CHIP = "exynos5422"
CHECKPOINT_SCENARIO = "web_browsing"
CHECKPOINT_EPISODES = 4
CHECKPOINT_EPISODE_S = 5.0

OPEN_RATE_PER_S = 2000.0
OPEN_SESSIONS = 8
CLOSED_CLIENTS = 16
#: Far above the open loop's normal depth, so a host stall of a few
#: tens of milliseconds queues requests instead of refusing them; the
#: closed loop never holds more than CLOSED_CLIENTS.
QUEUE_SIZE = 1024
WORKERS = 2
POOL_SIZE = 4096
#: Both phases run in slices of this length, with the server idle in
#: between while the host-speed factor is measured (see hostspeed.py).
SLICE_S = 0.5


def checkpoint_dir(workdir: Path) -> Path:
    return workdir / "checkpoint"


def train_checkpoint(seed: int, workdir: Path) -> Path:
    """Train and save the policy the server will serve."""
    result = train_policy(
        PRESETS[CHIP](), get_scenario(CHECKPOINT_SCENARIO),
        episodes=CHECKPOINT_EPISODES,
        episode_duration_s=CHECKPOINT_EPISODE_S, base_seed=seed,
    )
    return save_policies(result.policies, checkpoint_dir(workdir))


def build_server(workload: str, workdir: Path, ops_name: str = "ops.jsonl"
                 ) -> PolicyServer:
    ops = OpsLogger(workdir / ops_name) if workload == "serve-logged" else None
    return PolicyServer.from_checkpoint(
        checkpoint_dir(workdir), chip=CHIP,
        config=ServeConfig(workers=WORKERS, queue_size=QUEUE_SIZE),
        ops_log=ops,
    )


def build_state(workload: str, workdir: Path) -> None:
    """The program state a run starts from (timed by ``setup_s``)."""
    server = build_server(workload, workdir, ops_name="setup-ops.jsonl")

    async def start_stop() -> None:
        await server.start()
        await server.shutdown()

    asyncio.run(start_stop())


def observation_pool(seed: int) -> list[dict]:
    """Device observations as a client would send them, one per entry."""
    rng = np.random.default_rng(seed)
    chip = PRESETS[CHIP]()
    pool = []
    for i in range(POOL_SIZE):
        cluster = chip.cluster(chip.cluster_names[i % len(chip.cluster_names)])
        table = cluster.spec.opp_table
        opp = int(rng.integers(len(table)))
        util = float(rng.random())
        pool.append({
            "cluster": cluster.spec.name,
            "time_s": round(0.01 * (i + 1), 2),
            "interval_s": 0.01,
            "opp_index": opp,
            "n_opps": len(table),
            "freq_hz": table[opp].freq_hz,
            "max_freq_hz": table.max_freq_hz,
            "utilization": util,
            "max_core_utilization": min(1.0, util + 0.3 * float(rng.random())),
            "queue_work": float(rng.exponential(2e6)),
            "queue_jobs": int(rng.integers(0, 8)),
            "arrived_work": float(rng.exponential(2e6)),
            "completed_work": float(rng.exponential(2e6)),
            "deadline_misses": int(rng.integers(0, 2)),
            "completions": int(rng.integers(0, 6)),
            "qos_slack": float(rng.random()),
            "energy_j": float(rng.exponential(1e-3)),
        })
    return pool


class Traffic:
    """The seeded request streams of one run.

    Request mappings are built when sent, not held: a large heap of
    benchmark objects would lengthen the program's garbage collections.
    """

    def __init__(self, seed: int, open_s: float) -> None:
        self.pool = observation_pool(seed)
        rng = random.Random(seed)
        self.open_picks = [
            rng.randrange(POOL_SIZE)
            for _ in range(max(1, int(OPEN_RATE_PER_S * open_s)))
        ]
        self.offsets = [rng.randrange(POOL_SIZE) for _ in range(CLOSED_CLIENTS)]

    @property
    def n_open(self) -> int:
        return len(self.open_picks)

    def open_key(self, i: int) -> tuple[str, int]:
        """Session and pool entry of open-loop request ``i``."""
        return f"o{i % OPEN_SESSIONS}", self.open_picks[i]

    def closed_key(self, client: int, j: int) -> tuple[str, int]:
        """Session and pool entry of closed-loop client's ``j``-th request."""
        return f"c{client}", (self.offsets[client] + j) % POOL_SIZE

    def _request(self, key: tuple[str, int], request_id: str) -> dict:
        session, pick = key
        return {"kind": "decision", "session": session,
                "request_id": request_id, "observation": self.pool[pick]}

    def open(self, i: int) -> dict:
        return self._request(self.open_key(i), f"o{i}")

    def closed(self, client: int, j: int) -> dict:
        return self._request(self.closed_key(client, j), f"c{client}-{j}")


class Served:
    """What one server run answered, and how fast.

    Latencies and capacities are host-speed corrected per slice; the
    sender's lag is kept as measured.
    """

    def __init__(self, n_open: int) -> None:
        self.latency_s = [0.0] * n_open
        self.lag_s = [0.0] * n_open
        self.open_opp: list[int | None] = [None] * n_open
        self.closed_opp: list[list[int | None]] = [[] for _ in range(CLOSED_CLIENTS)]
        self.slice_p50_s: list[float] = []
        self.slice_p90_s: list[float] = []
        self.capacities: list[float] = []
        self.factors: list[float] = []
        self.rejected = 0

    @property
    def closed_done(self) -> int:
        return sum(len(c) for c in self.closed_opp)

    @property
    def attempted(self) -> int:
        return len(self.open_opp) + self.closed_done

    @property
    def capacity_per_s(self) -> float:
        return statistics.median(self.capacities)


def _opp(reply: protocol.Reply) -> int | None:
    return reply.opp_index if isinstance(reply, DecisionReply) else None


async def _open_slice(server: PolicyServer, traffic: Traffic, first: int,
                      last: int, out: Served) -> None:
    """Send requests ``first..last-1`` on schedule; wait for every reply."""
    chip = server.chip
    clock = time.perf_counter
    remaining = [last - first]
    all_done = asyncio.Event()

    def finish(i: int, due: float, future: asyncio.Future) -> None:
        reply = future.result()
        json.dumps(protocol.reply_to_mapping(reply))
        out.latency_s[i] = clock() - due
        out.open_opp[i] = _opp(reply)
        remaining[0] -= 1
        if remaining[0] == 0:
            all_done.set()

    period = 1.0 / OPEN_RATE_PER_S
    start = clock()
    i = first
    while i < last:
        now = clock()
        while i < last and start + (i - first) * period <= now:
            due = start + (i - first) * period
            out.lag_s[i] = clock() - due
            future = server.submit(protocol.request_from_mapping(traffic.open(i), chip))
            future.add_done_callback(functools.partial(finish, i, due))
            i += 1
        await asyncio.sleep(0)
    await all_done.wait()


async def _open_loop(server: PolicyServer, traffic: Traffic, out: Served) -> None:
    per_slice = max(1, int(OPEN_RATE_PER_S * SLICE_S))
    host = hostspeed.Tracker()
    for first in range(0, traffic.n_open, per_slice):
        last = min(traffic.n_open, first + per_slice)
        await _open_slice(server, traffic, first, last, out)
        factor = host.next()
        out.factors.append(factor)
        for i in range(first, last):
            out.latency_s[i] /= factor
        out.slice_p50_s.append(quantile(out.latency_s[first:last], 0.5))
        out.slice_p90_s.append(quantile(out.latency_s[first:last], 0.9))


async def _closed_loop(server: PolicyServer, traffic: Traffic, seconds: float,
                       out: Served) -> None:
    chip = server.chip
    clock = time.perf_counter

    async def client(k: int, stop: float) -> None:
        served = out.closed_opp[k]
        while clock() < stop:
            mapping = traffic.closed(k, len(served))
            request = protocol.request_from_mapping(mapping, chip)
            reply = await server.submit(request)
            json.dumps(protocol.reply_to_mapping(reply))
            served.append(_opp(reply))

    host = hostspeed.Tracker()
    for _ in range(max(1, round(seconds / SLICE_S))):
        done = out.closed_done
        start = clock()
        await asyncio.gather(*(client(k, start + SLICE_S)
                               for k in range(CLOSED_CLIENTS)))
        rate = (out.closed_done - done) / (clock() - start)
        factor = host.next()
        out.factors.append(factor)
        out.capacities.append(rate * factor)


def serve(server: PolicyServer, traffic: Traffic, closed_s: float) -> Served:
    """One server's open-loop then closed-loop phase."""
    out = Served(traffic.n_open)

    async def phases() -> None:
        await server.start()
        try:
            await _open_loop(server, traffic, out)
            await _closed_loop(server, traffic, closed_s, out)
        finally:
            await server.shutdown()

    asyncio.run(phases())
    out.rejected = server.stats.rejected
    return out


def mismatches(workdir: Path, traffic: Traffic, served: Served) -> int:
    """Served decisions (or refusals) that differ from offline replay."""
    chip = PRESETS[CHIP]()
    policies = load_policies(checkpoint_dir(workdir), chip=chip)
    # Observations are immutable; parse each pool entry once.
    parsed = [protocol.observation_from_mapping(m, chip) for m in traffic.pool]
    streams = itertools.chain(
        ((*traffic.open_key(i), opp) for i, opp in enumerate(served.open_opp)),
        ((*traffic.closed_key(k, j), opp)
         for k, opps in enumerate(served.closed_opp)
         for j, opp in enumerate(opps)),
    )
    sessions: dict[str, DecisionSession] = {}
    wrong = 0
    for session, pick, opp in streams:
        if opp is None:
            wrong += 1
            continue
        if session not in sessions:
            sessions[session] = DecisionSession(policies, chip)
        wrong += sessions[session].decide(parsed[pick]) != opp
    return wrong


def run(ctx: Context, workload: str) -> Outcome:
    out = Outcome()
    train_checkpoint(ctx.seed, ctx.workdir)
    open_s = closed_s = ctx.region_s / 2
    traffic = Traffic(ctx.seed, open_s)

    setup_s, cli_import_s = measure_setup(ctx, workload)

    timed = serve(build_server(workload, ctx.workdir), traffic, closed_s)
    # Read before the offline replay, whose sessions are not the server's.
    rss_mb = peak_rss_mb()
    wrong = mismatches(ctx.workdir, traffic, timed)
    out.attempted = timed.attempted
    out.failed = wrong
    out.check(wrong == 0, f"{wrong} served decisions differ from offline "
                          "replay or were refused")
    out.report.append(
        f"{workload}: {traffic.n_open} open-loop requests at "
        f"{OPEN_RATE_PER_S:.0f}/s, then {CLOSED_CLIENTS} closed-loop clients "
        f"for {closed_s:.1f} s: {timed.capacity_per_s:.0f}/s; "
        f"{timed.rejected} refused, {wrong} failed; host factor "
        f"{statistics.median(timed.factors):.3f}"
    )

    if not ctx.trace:
        out.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": timed.capacity_per_s,
            "latency_p50_ms": statistics.median(timed.slice_p50_s) * 1e3,
            "success_frac": (out.attempted - out.failed) / out.attempted,
            "peak_rss_mb": rss_mb,
        }
        return out

    with layers.traced() as clock:
        traced = serve(build_server(workload, ctx.workdir, "traced-ops.jsonl"),
                       traffic, closed_s)
    traced_wrong = mismatches(ctx.workdir, traffic, traced)
    out.attempted += traced.attempted
    out.failed += traced_wrong
    out.check(traced_wrong == 0,
              f"{traced_wrong} traced decisions differ from offline replay")
    out.report.extend(layers.describe(clock))
    out.metrics = {
        **layers.layer_metrics(clock, statistics.median(traced.factors)),
        "serve.rejected": float(timed.rejected + traced.rejected),
        "serve.decide_p90_us": statistics.median(timed.slice_p90_s) * 1e6,
        "serve.decide_p99_us": quantile(timed.latency_s, 0.99) * 1e6,
        "cli.import_ms": cli_import_s * 1e3,
        "gen.lag_p50_us": quantile(timed.lag_s, 0.5) * 1e6,
        "gen.lag_p99_us": quantile(timed.lag_s, 0.99) * 1e6,
        "result.energy_per_qos_mj": 0.0,
        "result.mean_qos": 0.0,
        "trace.overhead_frac": timed.capacity_per_s / traced.capacity_per_s - 1.0,
    }
    return out
