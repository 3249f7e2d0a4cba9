"""The policy-decision service: protocol, sessions, server, CLI."""

from __future__ import annotations

import asyncio
import functools
import json
from dataclasses import asdict, fields
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.checkpoint import load_policies, save_policies
from repro.core.trainer import train_policy
from repro.errors import PolicyError, ServeError, ServeOverloaded
from repro.fleet.spec import JobSpec
from repro.obs import OPS_LOG, OpsLogger, ops_record
from repro.obs.opslog import OPS_RECORD_FIELDS
from repro.serve import (
    REJECT_DEADLINE,
    REJECT_ERROR,
    REJECT_OVERLOADED,
    REJECT_SHUTDOWN,
    DecisionReply,
    DecisionRequest,
    HealthReply,
    HealthRequest,
    InProcessQueue,
    PolicyServer,
    QueueBackend,
    Rejection,
    ServeConfig,
    SimulationReply,
    SimulationRequest,
    StatsReply,
    StatsRequest,
    observation_from_mapping,
    reply_to_mapping,
    request_from_mapping,
    serve_once,
)
from repro.serve.session import DecisionSession
from repro.sim.telemetry import ClusterObservation, initial_observation
from repro.soc.chip import Chip
from repro.soc.presets import exynos5422, tiny_test_chip
from test_trainer import tiny_scenario


@pytest.fixture(scope="module")
def trained():
    chip = tiny_test_chip()
    result = train_policy(
        chip, tiny_scenario(), episodes=3, episode_duration_s=3.0
    )
    return chip, result.policies


@pytest.fixture(scope="module")
def checkpoint(trained, tmp_path_factory):
    _, policies = trained
    directory = tmp_path_factory.mktemp("serve-ckpt")
    save_policies(policies, directory)
    return directory


def make_server(trained, **config: Any) -> PolicyServer:
    chip, policies = trained
    return PolicyServer(policies, tiny_test_chip(), ServeConfig(**config))


def obs_for(chip, **fields: Any):
    payload = {"cluster": chip.cluster_names[0], **fields}
    return observation_from_mapping(payload, chip)


def sim_spec(**overrides: Any) -> JobSpec:
    base: dict[str, Any] = {
        "scenario": "gaming",
        "governor": "ondemand",
        "chip": "tiny",
        "duration_s": 2.0,
        "seed": 7,
    }
    base.update(overrides)
    return JobSpec(**base)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_observation_defaults_from_chip(self):
        chip = tiny_test_chip()
        obs = observation_from_mapping(
            {"cluster": chip.cluster_names[0], "utilization": 0.5}, chip
        )
        assert obs.utilization == 0.5
        assert obs.n_opps == len(chip.cluster(obs.cluster).spec.opp_table)

    def test_observation_unknown_field_rejected(self):
        chip = tiny_test_chip()
        with pytest.raises(ServeError, match="unknown observation fields"):
            observation_from_mapping(
                {"cluster": chip.cluster_names[0], "bogus": 1}, chip
            )

    def test_observation_unknown_cluster_rejected(self):
        with pytest.raises(ServeError, match="unknown cluster"):
            observation_from_mapping({"cluster": "nope"}, tiny_test_chip())

    def test_observation_without_chip_requires_all_fields(self):
        with pytest.raises(ServeError, match="missing fields"):
            observation_from_mapping({"cluster": "cpu", "utilization": 0.5})

    def test_request_kind_routing(self):
        chip = tiny_test_chip()
        decision = request_from_mapping(
            {"observation": {"cluster": chip.cluster_names[0]}}, chip
        )
        assert isinstance(decision, DecisionRequest)
        simulate = request_from_mapping(
            {"kind": "simulate",
             "spec": {"scenario": "gaming", "governor": "ondemand"}},
        )
        assert isinstance(simulate, SimulationRequest)

    def test_request_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown request kind"):
            request_from_mapping({"kind": "dance"})

    def test_request_bad_deadline_rejected(self):
        chip = tiny_test_chip()
        with pytest.raises(ServeError, match="deadline"):
            request_from_mapping(
                {"observation": {"cluster": chip.cluster_names[0]},
                 "deadline_s": -1},
                chip,
            )

    def test_reply_mappings_are_json_round_trippable(self):
        replies = [
            DecisionReply("r1", "cpu", 2, 1e-4),
            Rejection("r2", REJECT_OVERLOADED, "full"),
        ]
        for reply in replies:
            data = json.loads(json.dumps(reply_to_mapping(reply)))
            assert data["request_id"] == reply.request_id
            assert data["kind"] in ("decision", "simulation", "rejection")


# The parse and encode paths are hand-tuned; these properties pin them to
# the plain dataclass-based definitions they replace.

_INT_FIELDS = {
    "opp_index", "n_opps", "queue_jobs", "deadline_misses", "completions"
}
_FIELD_NAMES = [f.name for f in fields(ClusterObservation)]
_CHIPS = {"none": None, "tiny": tiny_test_chip(), "exynos": exynos5422()}


def _reference_observation(
    data: Mapping[str, Any], chip: Chip | None = None
) -> ClusterObservation:
    """The parse as first written, on ``fields`` and ``asdict``."""
    known = {f.name for f in fields(ClusterObservation)}
    unknown = set(data) - known
    if unknown:
        raise ServeError(
            f"unknown observation fields {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    if "cluster" not in data:
        raise ServeError("an observation needs a 'cluster' name")
    name = str(data["cluster"])
    if chip is not None:
        if name not in chip.cluster_names:
            raise ServeError(
                f"unknown cluster {name!r}; chip has {list(chip.cluster_names)}"
            )
        cluster = chip.cluster(name)
        base = asdict(
            initial_observation(
                name,
                cluster.opp_index,
                len(cluster.spec.opp_table),
                cluster.freq_hz,
                cluster.spec.opp_table.max_freq_hz,
                0.01,
            )
        )
    else:
        missing = known - set(data) - {"temp_c"}
        if missing:
            raise ServeError(
                f"observation missing fields {sorted(missing)} "
                "(pass a chip for defaults, or send them all)"
            )
        base = {"temp_c": None}
    merged: dict[str, Any] = {**base, **dict(data)}
    for key, value in merged.items():
        if key == "cluster" or value is None:
            continue
        merged[key] = int(value) if key in _INT_FIELDS else float(value)
    merged["cluster"] = name
    return ClusterObservation(**merged)


def _outcome(fn: Any, *args: Any) -> tuple[str, Any]:
    """What a call returned, field by field with types, or what it raised."""
    try:
        obs = fn(*args)
    except Exception as exc:  # the error itself is what gets compared
        return "raised", (type(exc), str(exc))
    return "returned", [(k, type(v), v) for k, v in vars(obs).items()]


_numbers = st.one_of(
    st.integers(-5, 10**6),
    st.floats(allow_nan=False, width=32),
    st.sampled_from(["3", "0.25", "1e3", "bad", ""]),
)


@st.composite
def _observation_cases(draw: Any) -> tuple[str, dict[str, Any], int]:
    chip = draw(st.sampled_from(sorted(_CHIPS)))
    names = ["cpu", "big", "LITTLE", "nope"]
    if _CHIPS[chip] is not None:
        names = list(_CHIPS[chip].cluster_names) + ["nope"]
    data: dict[str, Any] = {}
    if draw(st.booleans()) or draw(st.booleans()):
        data["cluster"] = draw(st.sampled_from(names))
    full = draw(st.booleans())
    for name in _FIELD_NAMES[1:]:
        if full or draw(st.booleans()):
            data[name] = (
                draw(st.one_of(st.none(), _numbers))
                if name == "temp_c"
                else draw(_numbers)
            )
    if draw(st.integers(0, 9)) == 0:
        data["bogus"] = 1
    return chip, draw(st.permutations(list(data.items()))), draw(
        st.integers(0, 20)
    )


_replies = st.one_of(
    st.builds(DecisionReply, st.text(), st.text(), st.integers(),
              st.floats(), st.text()),
    st.builds(SimulationReply, st.text(), st.text(), st.floats(),
              st.floats(), st.floats(), st.floats(), st.floats(), st.text()),
    st.builds(HealthReply, st.text(), st.sampled_from(["ok", "stopped"]),
              st.integers(0), st.integers(0), st.integers(0), st.integers(0),
              st.dictionaries(st.text(), st.one_of(st.none(), st.floats())),
              st.text()),
    st.builds(StatsReply, st.text(),
              st.dictionaries(st.text(), st.integers()), st.text()),
    st.builds(Rejection, st.text(), st.text(), st.text(), st.text()),
)
_REPLY_KINDS = {
    DecisionReply: "decision",
    SimulationReply: "simulation",
    HealthReply: "health",
    StatsReply: "stats",
    Rejection: "rejection",
}


class TestProtocolProperties:
    @settings(max_examples=300)
    @given(_observation_cases())
    def test_observation_matches_the_asdict_reference(self, case):
        chip_name, items, opp = case
        chip = _CHIPS[chip_name]
        data = dict(items)
        if chip is not None:
            # Defaults come from each cluster's current operating point.
            for cluster in chip:
                cluster.set_opp_index(opp % len(cluster.spec.opp_table))
        assert _outcome(observation_from_mapping, data, chip) == _outcome(
            _reference_observation, data, chip
        )

    @given(_replies)
    def test_reply_mapping_matches_asdict(self, reply):
        mapping = reply_to_mapping(reply)
        expected = {"kind": _REPLY_KINDS[type(reply)], **asdict(reply)}
        assert list(mapping) == list(expected)
        assert json.dumps(mapping) == json.dumps(expected)
        # Nested dicts are copies: editing the mapping leaves the reply be.
        for key in ("indicators", "stats"):
            if key in mapping:
                assert mapping[key] is not getattr(reply, key)


# ---------------------------------------------------------------------------
# Queue backend
# ---------------------------------------------------------------------------


class RecordingQueue:
    """A delegating backend proving the server sticks to the protocol."""

    def __init__(self, maxsize: int) -> None:
        self.inner = InProcessQueue(maxsize)
        self.puts = 0
        self.gets = 0

    def put_nowait(self, item: Any) -> None:
        self.inner.put_nowait(item)
        self.puts += 1

    async def get(self) -> Any:
        item = await self.inner.get()
        self.gets += 1
        return item

    def task_done(self) -> None:
        self.inner.task_done()

    async def join(self) -> None:
        await self.inner.join()

    def depth(self) -> int:
        return self.inner.depth()


class TestQueueBackend:
    def test_in_process_queue_satisfies_protocol(self):
        assert isinstance(InProcessQueue(4), QueueBackend)

    def test_full_queue_raises_overloaded(self):
        q = InProcessQueue(1)
        q.put_nowait("a")
        with pytest.raises(ServeOverloaded, match="queue full"):
            q.put_nowait("b")

    def test_non_positive_bound_rejected(self):
        with pytest.raises(ServeError):
            InProcessQueue(0)

    def test_custom_backend_slots_in(self, trained):
        chip, policies = trained
        queue = RecordingQueue(8)
        server = PolicyServer(
            policies, tiny_test_chip(), ServeConfig(workers=1), queue=queue
        )
        request = DecisionRequest(observation=obs_for(server.chip))
        replies = asyncio.run(serve_once(server, [request]))
        assert isinstance(replies[0], DecisionReply)
        assert queue.puts == 1 and queue.gets == 1


# ---------------------------------------------------------------------------
# Server integration
# ---------------------------------------------------------------------------


class TestServer:
    def test_serves_decision_requests(self, trained):
        server = make_server(trained, workers=2)
        requests = [
            DecisionRequest(observation=obs_for(server.chip), request_id=f"r{i}")
            for i in range(6)
        ]
        replies = asyncio.run(serve_once(server, requests))
        assert [r.request_id for r in replies] == [f"r{i}" for i in range(6)]
        assert all(isinstance(r, DecisionReply) for r in replies)
        assert all(r.latency_s >= 0 for r in replies)
        assert server.stats.served_decisions == 6

    def test_concurrent_decisions_and_simulations(self, trained):
        server = make_server(trained, workers=2, queue_size=32)
        requests: list[Any] = [
            SimulationRequest(spec=sim_spec(), request_id="sim"),
        ]
        requests += [
            DecisionRequest(
                observation=obs_for(server.chip, utilization=i / 10),
                request_id=f"d{i}",
            )
            for i in range(8)
        ]
        replies = asyncio.run(serve_once(server, requests))
        sim_reply = replies[0]
        assert isinstance(sim_reply, SimulationReply)
        assert sim_reply.energy_j > 0
        assert sim_reply.job_id == sim_spec().job_id
        assert all(isinstance(r, DecisionReply) for r in replies[1:])
        assert server.stats.served == 9

    def test_simulation_matches_fleet_worker(self, trained):
        from repro.fleet.worker import simulate_spec

        server = make_server(trained, workers=1)
        spec = sim_spec()
        [reply] = asyncio.run(
            serve_once(server, [SimulationRequest(spec=spec)])
        )
        offline = simulate_spec(spec)
        assert reply.energy_j == offline.total_energy_j
        assert reply.mean_qos == offline.qos.mean_qos

    def test_backpressure_rejects_when_queue_full(self, trained):
        server = make_server(trained, workers=1, queue_size=2)

        async def run():
            await server.start()
            # Submit without yielding: the workers have not run yet, so
            # the queue fills deterministically and the overflow rejects.
            futures = [
                server.submit(
                    DecisionRequest(
                        observation=obs_for(server.chip), request_id=f"r{i}"
                    )
                )
                for i in range(5)
            ]
            replies = [await f for f in futures]
            await server.shutdown()
            return replies

        replies = asyncio.run(run())
        served = [r for r in replies if isinstance(r, DecisionReply)]
        rejected = [r for r in replies if isinstance(r, Rejection)]
        assert len(served) == 2 and len(rejected) == 3
        assert all(r.reason == REJECT_OVERLOADED for r in rejected)
        assert all("queue full" in r.detail for r in rejected)
        assert server.stats.rejected_overloaded == 3

    def test_deadline_expired_while_queued_rejected(self, trained):
        server = make_server(trained, workers=1)

        async def run():
            await server.start()
            future = server.submit(
                DecisionRequest(
                    observation=obs_for(server.chip), deadline_s=1e-9
                )
            )
            reply = await future
            await server.shutdown()
            return reply

        reply = asyncio.run(run())
        assert isinstance(reply, Rejection)
        assert reply.reason == REJECT_DEADLINE
        assert server.stats.rejected_deadline == 1

    def test_default_deadline_from_config(self, trained):
        server = make_server(trained, workers=1, default_deadline_s=1e-9)
        [reply] = asyncio.run(
            serve_once(
                server, [DecisionRequest(observation=obs_for(server.chip))]
            )
        )
        assert isinstance(reply, Rejection)
        assert reply.reason == REJECT_DEADLINE

    def test_graceful_shutdown_drains_queued_work(self, trained):
        server = make_server(trained, workers=1, queue_size=16)

        async def run():
            await server.start()
            futures = [
                server.submit(
                    DecisionRequest(
                        observation=obs_for(server.chip), request_id=f"r{i}"
                    )
                )
                for i in range(8)
            ]
            # Shut down immediately: drain must finish the queued work.
            await server.shutdown(drain=True)
            return [await f for f in futures]

        replies = asyncio.run(run())
        assert all(isinstance(r, DecisionReply) for r in replies)
        assert server.stats.served_decisions == 8

    def test_shutdown_without_drain_rejects_queued_work(self, trained):
        server = make_server(trained, workers=1, queue_size=16)

        async def run():
            await server.start()
            futures = [
                server.submit(
                    DecisionRequest(observation=obs_for(server.chip))
                )
                for i in range(4)
            ]
            await server.shutdown(drain=False)
            return [await f for f in futures]

        replies = asyncio.run(run())
        assert all(isinstance(r, Rejection) for r in replies)
        assert all(r.reason == REJECT_SHUTDOWN for r in replies)

    def test_reply_callbacks_find_their_ops_record_on_disk(
        self, trained, tmp_path
    ):
        chip, policies = trained
        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        server = PolicyServer(policies, tiny_test_chip(),
                              ServeConfig(workers=2), ops_log=ops_log)
        seen: dict[str, bool] = {}

        def check(request_id: str, future: Any) -> None:
            on_disk = {r["request_id"] for r in OPS_LOG.read(ops_log.path)}
            seen[request_id] = request_id in on_disk

        async def run() -> None:
            await server.start()
            futures = []
            for i in range(12):
                future = server.submit(DecisionRequest(
                    observation=obs_for(server.chip, utilization=i / 12),
                    request_id=f"r{i}",
                ))
                future.add_done_callback(functools.partial(check, f"r{i}"))
                futures.append(future)
            await asyncio.gather(*futures)
            await server.shutdown()

        asyncio.run(run())
        assert seen == {f"r{i}": True for i in range(12)}

    def test_shutdown_without_drain_flushes_rejection_records(
        self, trained, tmp_path
    ):
        chip, policies = trained
        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        server = PolicyServer(policies, tiny_test_chip(),
                              ServeConfig(workers=1, queue_size=16),
                              ops_log=ops_log)

        async def run() -> list[str]:
            await server.start()
            futures = [
                server.submit(DecisionRequest(
                    observation=obs_for(server.chip), request_id=f"r{i}"
                ))
                for i in range(6)
            ]
            await server.shutdown(drain=False)
            # Read before anything else can run on the loop.
            on_disk = [r["request_id"] for r in OPS_LOG.read(ops_log.path)
                       if r["outcome"] == f"rejected:{REJECT_SHUTDOWN}"]
            replies = [await f for f in futures]
            assert all(isinstance(r, Rejection) for r in replies)
            return on_disk

        assert sorted(asyncio.run(run())) == [f"r{i}" for i in range(6)]
        assert server.stats.rejected_shutdown == 6

    def test_unwritable_ops_log_loses_records_not_replies(
        self, trained, tmp_path
    ):
        chip, policies = trained
        ops_log = OpsLogger(tmp_path)  # a directory: every flush fails
        server = PolicyServer(policies, tiny_test_chip(),
                              ServeConfig(workers=2), ops_log=ops_log)
        observations = [
            obs_for(server.chip, utilization=(i % 7) / 7) for i in range(20)
        ]

        async def run() -> tuple[list[Any], bool]:
            await server.start()
            futures = [
                server.submit(DecisionRequest(observation=o,
                                              request_id=f"r{i}"))
                for i, o in enumerate(observations)
            ]
            replies = await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            alive = not any(w.done() for w in server._workers)
            await server.shutdown()
            return replies, alive

        replies, alive = asyncio.run(run())
        offline = DecisionSession(policies, tiny_test_chip())
        assert [r.opp_index for r in replies] == [
            offline.decide(o) for o in observations
        ]
        assert alive
        assert ops_log.lost == 20 and ops_log.written == 0

    def test_submit_after_shutdown_rejected(self, trained):
        server = make_server(trained, workers=1)

        async def run():
            await server.start()
            await server.shutdown()
            return await server.submit(
                DecisionRequest(observation=obs_for(server.chip))
            )

        reply = asyncio.run(run())
        assert isinstance(reply, Rejection)
        assert reply.reason == REJECT_SHUTDOWN

    def test_handler_error_becomes_error_rejection(self, trained):
        from repro.sim.telemetry import initial_observation

        server = make_server(trained, workers=1)
        rogue = initial_observation("nope", 0, 4, 1e8, 1e9, 0.01)
        [reply] = asyncio.run(
            serve_once(server, [DecisionRequest(observation=rogue)])
        )
        assert isinstance(reply, Rejection)
        assert reply.reason == REJECT_ERROR
        assert "no policy for cluster" in reply.detail

    def test_answered_requests_leave_pending(self, trained):
        server = make_server(trained, workers=1)
        rogue = initial_observation("nope", 0, 4, 1e8, 1e9, 0.01)
        requests = [
            DecisionRequest(observation=obs_for(server.chip)),
            DecisionRequest(observation=obs_for(server.chip), deadline_s=1e-9),
            DecisionRequest(observation=rogue),
        ]

        async def run():
            await server.start()
            replies = [await server.submit(r) for r in requests]
            pending = dict(server._pending)
            await server.shutdown()
            return replies, pending

        replies, pending = asyncio.run(run())
        assert isinstance(replies[0], DecisionReply)
        assert [r.reason for r in replies[1:]] == [REJECT_DEADLINE, REJECT_ERROR]
        assert pending == {}

    def test_every_record_kind_is_the_mapping_line(self, trained, tmp_path):
        # Each line the server logs by position equals the line of
        # ops_record(...) over the same values, and carries its kind's keys.
        chip, policies = trained
        ops_log = OpsLogger(tmp_path / "ops.jsonl")
        server = PolicyServer(policies, tiny_test_chip(),
                              ServeConfig(workers=1, queue_size=1),
                              ops_log=ops_log)
        cluster = server.chip.cluster_names[0]
        rogue = initial_observation("nope", 0, 4, 1e8, 1e9, 0.01)
        spec = sim_spec(duration_s=0.5)

        def decision(request_id: str, **kw: Any) -> DecisionRequest:
            return DecisionRequest(observation=kw.pop("observation", obs_for(
                server.chip)), request_id=request_id, **kw)

        async def run() -> None:
            await server.start()
            await server.submit(decision("ok", session="s1"))
            await server.submit(decision("late", deadline_s=1e-9))
            await server.submit(decision("bad", observation=rogue))
            await server.submit(SimulationRequest(spec=spec, request_id="sim"))
            queued = server.submit(decision("queued"))
            await server.submit(decision("over"))
            await queued
            await server.submit(HealthRequest(request_id="h"))
            await server.submit(StatsRequest(request_id="s"))
            await server.shutdown()
            await server.submit(decision("after"))
            await server.submit(SimulationRequest(spec=spec,
                                                  request_id="sim-after"))

        asyncio.run(run())
        served = {"session": "default", "cluster": cluster}
        expected = {
            "ok": ("decision", "ok", {"session": "s1", "cluster": cluster}),
            "late": ("decision", "rejected:deadline", served),
            "bad": ("decision", "rejected:error",
                    {"session": "default", "cluster": "nope"}),
            "sim": ("simulation", "ok", {"job_id": spec.job_id}),
            "queued": ("decision", "ok", served),
            "over": ("decision", "rejected:overloaded", served),
            "h": ("health", "ok", {}),
            "s": ("stats", "ok", {}),
            "after": ("decision", "rejected:shutdown", served),
            "sim-after": ("simulation", "rejected:shutdown",
                          {"job_id": spec.job_id}),
        }
        lines = ops_log.path.read_text().splitlines(keepends=True)
        seen = {}
        for line in lines:
            record = json.loads(line)
            assert OPS_LOG.line(ops_record(**record))[1] == line
            kind, outcome, keys = expected[record["request_id"]]
            assert (record["kind"], record["outcome"]) == (kind, outcome)
            extra = {k: v for k, v in record.items()
                     if k not in OPS_RECORD_FIELDS}
            if outcome.startswith("rejected:"):
                assert extra.pop("detail")
            assert extra == keys
            seen[record["request_id"]] = record
        assert sorted(seen) == sorted(expected)
        assert len(lines) == len(expected)

    def test_missing_cluster_policy_rejected_at_boot(self, trained):
        _, policies = trained
        with pytest.raises(ServeError, match="lacks policies"):
            PolicyServer({}, tiny_test_chip())

    def test_decision_metrics_recorded(self, trained):
        from repro import obs

        server = make_server(trained, workers=1)
        requests = [
            DecisionRequest(observation=obs_for(server.chip))
            for _ in range(4)
        ]
        with obs.capture(trace=False) as session:
            asyncio.run(serve_once(server, requests))
        snap = session.metrics.snapshot()
        hist = snap["histograms"]["serve.decision_latency_s"]
        assert hist["count"] == 4
        assert snap["counters"]["serve.requests"] == 4


# ---------------------------------------------------------------------------
# Bit-identity with the offline policy
# ---------------------------------------------------------------------------


class TestOfflineEquivalence:
    def observations(self, chip):
        utils = [0.1, 0.9, 0.4, 0.7, 0.2, 1.0, 0.6, 0.3, 0.8, 0.5]
        return [
            obs_for(chip, utilization=u, max_core_utilization=u,
                    qos_slack=0.5 - u / 2)
            for u in utils
        ]

    def test_served_decisions_match_offline_policy(self, checkpoint, trained):
        chip = tiny_test_chip()
        name = chip.cluster_names[0]

        offline = load_policies(checkpoint, chip=chip)[name]
        offline.reset(chip.cluster(name))
        expected = [offline.decide(o) for o in self.observations(chip)]

        server = PolicyServer.from_checkpoint(
            checkpoint, chip=tiny_test_chip(), config=ServeConfig(workers=1)
        )
        requests = [
            DecisionRequest(observation=o)
            for o in self.observations(tiny_test_chip())
        ]
        replies = asyncio.run(serve_once(server, requests))
        assert [r.opp_index for r in replies] == expected

    def test_sessions_are_isolated(self, trained):
        server = make_server(trained, workers=1)
        chip = server.chip
        seq = self.observations(chip)
        # Interleave two sessions fed the same sequence: isolation means
        # both decide exactly as a lone session would.
        requests = []
        for o in seq:
            requests.append(DecisionRequest(observation=o, session="a"))
            requests.append(DecisionRequest(observation=o, session="b"))
        replies = asyncio.run(serve_once(server, requests))
        a = [r.opp_index for r in replies[0::2]]
        b = [r.opp_index for r in replies[1::2]]

        lone = make_server(trained, workers=1)
        lone_replies = asyncio.run(
            serve_once(lone, [DecisionRequest(observation=o) for o in seq])
        )
        expected = [r.opp_index for r in lone_replies]
        assert a == expected and b == expected

    def test_serving_does_not_mutate_the_snapshot(self, trained):
        chip, policies = trained
        name = tiny_test_chip().cluster_names[0]
        before = policies[name].agent.table.values.copy()
        server = make_server(trained, workers=1)
        asyncio.run(
            serve_once(
                server,
                [DecisionRequest(observation=o)
                 for o in self.observations(server.chip)],
            )
        )
        assert (policies[name].agent.table.values == before).all()


# ---------------------------------------------------------------------------
# Checkpoint engine-version gate
# ---------------------------------------------------------------------------


class TestEngineVersionGate:
    def test_manifest_stamps_engine_version(self, checkpoint):
        from repro.sim.engine import ENGINE_VERSION

        manifest = json.loads((checkpoint / "policy.json").read_text())
        assert manifest["version"] == 2
        assert manifest["engine_version"] == ENGINE_VERSION

    def test_stale_engine_version_refused(self, trained, tmp_path):
        _, policies = trained
        save_policies(policies, tmp_path)
        manifest = json.loads((tmp_path / "policy.json").read_text())
        manifest["engine_version"] = "0.1"
        (tmp_path / "policy.json").write_text(json.dumps(manifest))
        with pytest.raises(PolicyError, match="engine version '0.1'"):
            load_policies(tmp_path)
        with pytest.raises(PolicyError, match="retrain"):
            PolicyServer.from_checkpoint(tmp_path, chip=tiny_test_chip())

    def test_format_1_checkpoints_still_load(self, trained, tmp_path):
        _, policies = trained
        save_policies(policies, tmp_path)
        manifest = json.loads((tmp_path / "policy.json").read_text())
        manifest["version"] = 1
        del manifest["engine_version"]
        (tmp_path / "policy.json").write_text(json.dumps(manifest))
        loaded = load_policies(tmp_path, chip=tiny_test_chip())
        assert set(loaded) == set(policies)

    def test_unknown_chip_preset_rejected(self, checkpoint):
        with pytest.raises(ServeError, match="unknown chip preset"):
            PolicyServer.from_checkpoint(checkpoint, chip="snapdragon")


# ---------------------------------------------------------------------------
# CLI: repro serve / repro decide
# ---------------------------------------------------------------------------


class TestServeCli:
    def write_requests(self, path, chip):
        lines = [
            {"kind": "decision", "request_id": f"d{i}",
             "observation": {"cluster": chip.cluster_names[0],
                             "utilization": i / 4}}
            for i in range(4)
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return path

    def test_serve_answers_jsonl_requests(self, checkpoint, tmp_path, capsys):
        requests = self.write_requests(
            tmp_path / "requests.jsonl", tiny_test_chip()
        )
        rc = main([
            "serve", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--requests", str(requests),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        replies = [json.loads(line) for line in out.splitlines() if line]
        assert len(replies) == 4
        assert {r["kind"] for r in replies} == {"decision"}
        assert sorted(r["request_id"] for r in replies) == (
            ["d0", "d1", "d2", "d3"]
        )

    def test_serve_malformed_line_answered_with_rejection(
        self, checkpoint, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"kind": "dance", "request_id": "x"}\nnot json\n')
        rc = main([
            "serve", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--requests", str(requests),
        ])
        assert rc == 0
        replies = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        assert len(replies) == 2
        assert all(r["kind"] == "rejection" for r in replies)
        assert replies[0]["request_id"] == "x"

    def test_serve_survives_bad_simulate_spec(
        self, checkpoint, tmp_path, capsys
    ):
        # A bad JobSpec raises ReproError (not ServeError) during
        # parsing; it must answer as a rejection, not kill the daemon.
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({
                "kind": "simulate", "request_id": "s-bad",
                "spec": {"job_id": "nope", "scenario": "idle",
                         "governor": "ondemand"},
            }) + "\n"
            + json.dumps({
                "kind": "decision", "request_id": "d-after",
                "observation": {"cluster": tiny_test_chip().cluster_names[0],
                                "utilization": 0.5},
            }) + "\n"
        )
        rc = main([
            "serve", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--requests", str(requests),
        ])
        assert rc == 0
        replies = {
            r["request_id"]: r
            for r in (json.loads(line)
                      for line in capsys.readouterr().out.splitlines() if line)
        }
        assert replies["s-bad"]["kind"] == "rejection"
        assert "unknown job spec keys" in replies["s-bad"]["detail"]
        assert replies["d-after"]["kind"] == "decision"

    def test_serve_writes_metrics_and_ledger(
        self, checkpoint, tmp_path, capsys
    ):
        requests = self.write_requests(
            tmp_path / "requests.jsonl", tiny_test_chip()
        )
        metrics = tmp_path / "metrics.prom"
        ledger = tmp_path / "ledger.jsonl"
        rc = main([
            "serve", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--requests", str(requests),
            "--metrics", str(metrics), "--ledger", str(ledger),
        ])
        assert rc == 0
        assert "repro_serve_decision_latency_s" in metrics.read_text()
        record = json.loads(ledger.read_text().splitlines()[0])
        assert record["kind"] == "serve"
        assert "serve.decision_latency_s.p99" in record["metrics"]

    def test_decide_one_shot(self, checkpoint, capsys):
        chip = tiny_test_chip()
        rc = main([
            "decide", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--observation",
            json.dumps({"cluster": chip.cluster_names[0],
                        "utilization": 0.8}),
        ])
        assert rc == 0
        reply = json.loads(capsys.readouterr().out.splitlines()[0])
        assert reply["kind"] == "decision"
        assert isinstance(reply["opp_index"], int)

    def test_decide_prints_correlation_ids(self, checkpoint, capsys):
        chip = tiny_test_chip()
        rc = main([
            "decide", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--observation",
            json.dumps({"cluster": chip.cluster_names[0],
                        "utilization": 0.4}),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        reply = json.loads(captured.out.splitlines()[0])
        # The reply always carries a client-stamped trace id...
        assert len(reply["trace_id"]) == 16
        # ...and stderr names it so the run joins against server logs.
        assert f"trace_id={reply['trace_id']}" in captured.err

    def test_decide_echoes_supplied_trace_id(
        self, checkpoint, tmp_path, capsys
    ):
        chip = tiny_test_chip()
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({
            "kind": "decision", "request_id": "r1",
            "trace_id": "feedfacecafebeef",
            "observation": {"cluster": chip.cluster_names[0],
                            "utilization": 0.5},
        }) + "\n")
        rc = main([
            "decide", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--requests", str(requests),
        ])
        assert rc == 0
        reply = json.loads(capsys.readouterr().out.splitlines()[0])
        assert reply["trace_id"] == "feedfacecafebeef"

    def test_serve_writes_ops_log(self, checkpoint, tmp_path, capsys):
        requests = self.write_requests(
            tmp_path / "requests.jsonl", tiny_test_chip()
        )
        ops_log = tmp_path / "ops.jsonl"
        rc = main([
            "serve", "--checkpoint", str(checkpoint), "--chip", "tiny",
            "--requests", str(requests), "--ops-log", str(ops_log),
        ])
        assert rc == 0
        assert "ops log: 4 record(s)" in capsys.readouterr().err
        records = [
            json.loads(line) for line in ops_log.read_text().splitlines()
        ]
        assert len(records) == 4
        assert all(r["outcome"] == "ok" for r in records)
        assert all(r["trace_id"] for r in records)

    def test_decide_requires_input(self, checkpoint, capsys):
        rc = main([
            "decide", "--checkpoint", str(checkpoint), "--chip", "tiny",
        ])
        assert rc == 1
        assert "nothing to decide" in capsys.readouterr().err

    def test_serve_stale_checkpoint_fails_clearly(
        self, trained, tmp_path, capsys
    ):
        _, policies = trained
        save_policies(policies, tmp_path)
        manifest = json.loads((tmp_path / "policy.json").read_text())
        manifest["engine_version"] = "0.1"
        (tmp_path / "policy.json").write_text(json.dumps(manifest))
        rc = main([
            "serve", "--checkpoint", str(tmp_path), "--chip", "tiny",
            "--requests", "/dev/null",
        ])
        assert rc == 1
        assert "engine version" in capsys.readouterr().err
