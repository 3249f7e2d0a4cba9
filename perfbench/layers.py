"""Per-layer timing for the traced run.

:func:`traced` replaces the program's public callables listed in
:data:`PATCHES` with wrappers that add ``perf_counter_ns`` deltas and
call counts to a :class:`LayerClock`, and puts every original back on
exit.  Each name is patched where its caller looks it up: a module
attribute read at call time, or a method on its class.  Nothing under
``src/`` is edited and no span objects are kept: one accumulator per
layer, so the traced run's memory does not grow with its length.

Self time is a wrapper's time minus the time of wrapped calls nested
inside it, so a layer is not charged for the layers it calls.  Time a
wrapped call spends in unwrapped code is charged to the nearest wrapped
caller.

A target that no longer exists (a later refactor moved or removed it)
is skipped and named in :attr:`LayerClock.missing`; its layer then
reads zero instead of the traced run failing.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

OnResult = Callable[["LayerClock", tuple, Any], None]


class LayerClock:
    """Accumulated total time, self time and calls per layer."""

    def __init__(self) -> None:
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        # Child time of each open wrapped call; the bottom frame
        # collects time of wrapped calls made from untraced code.
        self._stack = [0]
        self._enqueued: dict[int, int] = {}

    def wrap(self, layer: str, fn: Callable, on_result: OnResult | None = None
             ) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        total, own, calls = self.total_ns, self.self_ns, self.calls

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                total[layer] += elapsed
                own[layer] += elapsed - children
                calls[layer] += 1
            if on_result is not None:
                on_result(self, args, result)
            return result

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    # The queue hooks record timestamps only; they stay out of the
    # self-time stack so ``serve.submit`` keeps the enqueue cost.

    def wrap_put(self, fn: Callable) -> Callable:
        enqueued, counts = self._enqueued, self.counts

        def put_nowait(queue: Any, item: Any) -> None:
            fn(queue, item)
            enqueued[id(item)] = time.perf_counter_ns()
            depth = queue.depth()
            if depth > counts["serve.queue_depth_max"]:
                counts["serve.queue_depth_max"] = depth

        put_nowait.__wrapped__ = fn  # type: ignore[attr-defined]
        return put_nowait

    def wrap_get(self, fn: Callable) -> Callable:
        enqueued, counts = self._enqueued, self.counts

        async def get(queue: Any) -> Any:
            item = await fn(queue)
            put_ns = enqueued.pop(id(item), None)
            if put_ns is not None:
                counts["serve.queue_wait_ns"] += time.perf_counter_ns() - put_ns
                counts["serve.queue_waits"] += 1
            return item

        get.__wrapped__ = fn  # type: ignore[attr-defined]
        return get


def _count_intervals(clock: LayerClock, args: tuple, result: Any) -> None:
    clock.counts["sim.intervals"] += result.intervals


def _count_rows(clock: LayerClock, args: tuple, result: Any) -> None:
    clock.counts["rl.td_updates"] += len(args[1])


def _count_update(clock: LayerClock, args: tuple, result: Any) -> None:
    clock.counts["rl.td_updates"] += 1


def _count_plan(clock: LayerClock, args: tuple, result: Any) -> None:
    clock.counts["batch.specs"] += len(result)
    clock.counts["batch.vectorised"] += sum(result)


def _count_fleet(clock: LayerClock, args: tuple, result: Any) -> None:
    clock.counts["fleet.failures"] += len(result.failures)


def _count_probe(clock: LayerClock, args: tuple, result: Any) -> None:
    clock.counts["cache.misses"] += result is None


#: (owner, attribute, layer, result hook).  The owner is a module or
#: ``module:Class``; ``None`` as layer marks the queue timestamp hooks.
PATCHES: tuple[tuple[str, str, str | None, OnResult | None], ...] = (
    ("repro.workload.scenarios:Scenario", "trace", "workload.trace", None),
    ("repro.sim.engine:Simulator", "run", "sim.run", _count_intervals),
    ("repro.governors.base:Governor", "decide_traced", "governors.decide",
     None),
    ("repro.core.trainer", "train_policy", "core.train", None),
    ("repro.core.trainer", "evaluate_policy", "core.eval", None),
    # batch.rl binds both trainer entry points at import time.
    ("repro.batch.rl", "train_policy", "core.train", None),
    ("repro.batch.rl", "evaluate_policy", "core.eval", None),
    ("repro.rl.qlearning:QLearningAgent", "update", "rl.td_update",
     _count_update),
    ("repro.rl.qtable:QTable", "td_update_many", "rl.td_update", _count_rows),
    ("repro.batch.rl", "train_policy_batch", "batch.rl_train", None),
    ("repro.batch.rl", "evaluate_policies_batch", "batch.rl_eval", None),
    ("repro.batch.engine", "run_fixed_opp", "batch.fixed_opp", None),
    ("repro.batch.engine:BatchEngine", "plan", "batch.plan", _count_plan),
    ("repro.fleet.runner", "run_fleet", "fleet.run", _count_fleet),
    ("repro.fleet.worker", "execute_job", "fleet.execute_job", None),
    ("repro.cache.store:RunCache", "probe", "cache.probe", _count_probe),
    ("repro.cache.store:RunCache", "store", "cache.store", None),
    ("repro.serve.protocol", "request_from_mapping", "serve.parse", None),
    ("repro.serve.server:PolicyServer", "submit", "serve.submit", None),
    ("repro.serve.session:DecisionSession", "decide", "serve.decide", None),
    ("repro.serve.protocol", "reply_to_mapping", "serve.encode", None),
    ("repro.obs.opslog:OpsLogger", "log", "obs.opslog", None),
    ("repro.serve.server", "new_trace_id", "obs.trace_id", None),
    ("repro.serve.queue:InProcessQueue", "put_nowait", None, None),
    ("repro.serve.queue:InProcessQueue", "get", None, None),
)


def resolve(owner: str) -> Any:
    """The module or class an owner string names, or ``None``."""
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


def originals() -> dict[tuple[str, str], Any]:
    """The current object behind every patch target that exists."""
    found = {}
    for owner, attr, _, _ in PATCHES:
        target = resolve(owner)
        namespace = vars(target) if target is not None else {}
        if attr in namespace:
            found[(owner, attr)] = namespace[attr]
    return found


@contextmanager
def traced() -> Iterator[LayerClock]:
    """Patch every target for the duration of the block."""
    clock = LayerClock()
    saved = originals()
    try:
        for owner, attr, layer, hook in PATCHES:
            original = saved.get((owner, attr))
            if original is None:
                clock.missing.append(f"{owner}.{attr}")
                continue
            if layer is not None:
                wrapper = clock.wrap(layer, original, hook)
            elif attr == "get":
                wrapper = clock.wrap_get(original)
            else:
                wrapper = clock.wrap_put(original)
            setattr(resolve(owner), attr, wrapper)
        yield clock
    finally:
        for (owner, attr), original in saved.items():
            setattr(resolve(owner), attr, original)


def layer_metrics(clock: LayerClock, host: float, reps: int = 1
                  ) -> dict[str, float]:
    """The per-layer metrics a traced run always reports.

    Totals (``*_ms`` and counts) are per repetition of the traced region,
    so a faster program doing more repetitions does not read as more
    work.  Times are divided by ``host``, the region's host-speed factor
    (see :mod:`perfbench.hostspeed`), which is reported too.
    """
    counts = clock.counts
    intervals = counts["sim.intervals"]
    specs = counts["batch.specs"]
    waits = counts["serve.queue_waits"]

    def ms(layer: str) -> float:
        return clock.self_ns[layer] / 1e6 / host / reps

    def per_rep(layer: str) -> float:
        return clock.calls[layer] / reps

    def mean_us(layer: str) -> float:
        calls = clock.calls[layer]
        return clock.self_ns[layer] / calls / 1e3 / host if calls else 0.0

    return {
        "workload.trace_ms": ms("workload.trace"),
        "workload.traces": per_rep("workload.trace"),
        "sim.run_ms": ms("sim.run"),
        "sim.runs": per_rep("sim.run"),
        "sim.us_per_interval": (
            ms("sim.run") * 1e3 * reps / intervals if intervals else 0.0
        ),
        "governors.decide_ms": ms("governors.decide"),
        "governors.decide_calls": per_rep("governors.decide"),
        "core.train_ms": ms("core.train"),
        "core.eval_ms": ms("core.eval"),
        "rl.td_update_ms": ms("rl.td_update"),
        "rl.td_updates": counts["rl.td_updates"] / reps,
        "batch.rl_train_ms": ms("batch.rl_train"),
        "batch.rl_eval_ms": ms("batch.rl_eval"),
        "batch.fixed_opp_ms": ms("batch.fixed_opp"),
        "batch.vector_frac": counts["batch.vectorised"] / specs if specs else 0.0,
        "batch.serial_fallbacks": (specs - counts["batch.vectorised"]) / reps,
        "fleet.execute_job_ms": ms("fleet.execute_job"),
        "fleet.overhead_ms": ms("fleet.run"),
        "fleet.jobs": per_rep("fleet.execute_job"),
        "fleet.failures": counts["fleet.failures"] / reps,
        "cache.store_us": mean_us("cache.store"),
        "cache.probe_us": mean_us("cache.probe"),
        "cache.stores": per_rep("cache.store"),
        "cache.misses": counts["cache.misses"] / reps,
        "serve.parse_us": mean_us("serve.parse"),
        "serve.submit_us": mean_us("serve.submit"),
        "serve.queue_wait_us": (
            counts["serve.queue_wait_ns"] / waits / 1e3 / host if waits else 0.0
        ),
        "serve.decide_us": mean_us("serve.decide"),
        "serve.encode_us": mean_us("serve.encode"),
        "serve.queue_depth_max": counts["serve.queue_depth_max"],
        "obs.opslog_us": mean_us("obs.opslog"),
        "obs.opslog_records": per_rep("obs.opslog"),
        "obs.trace_id_us": mean_us("obs.trace_id"),
        "host.speed_factor": host,
    }


def describe(clock: LayerClock) -> list[str]:
    """A human-readable table of every layer the run touched."""
    lines = [f"{'layer':<22}{'calls':>10}{'total ms':>12}{'self ms':>12}"]
    for layer in sorted(clock.calls):
        lines.append(
            f"{layer:<22}{clock.calls[layer]:>10}"
            f"{clock.total_ns[layer] / 1e6:>12.1f}"
            f"{clock.self_ns[layer] / 1e6:>12.1f}"
        )
    for name in clock.missing:
        lines.append(f"(not patched, target missing: {name})")
    return lines
