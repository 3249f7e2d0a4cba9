"""Whole-program analysis: summaries, graphs, flow rules, cache, CLI."""

from __future__ import annotations

import hashlib
import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.lint import analyze_paths, check_source
from repro.lint.baseline import Baseline, filter_findings
from repro.lint.driver import _analyze_source
from repro.lint.engine import LINT_ENGINE_VERSION, ImportMap, register_map_path
from repro.lint.flow import (
    CallGraph,
    ImportGraph,
    Project,
    SummaryCache,
    CachedAnalysis,
    SUMMARY_SCHEMA,
    extra_inputs_digest,
    layer_of,
    module_name,
    summarize_source,
)
from repro.lint.flow.cache import decode, encode

from conftest import damaged

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise package-relative sources under a ``src`` anchor."""
    root = tmp_path / "src"
    for rel, content in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(content))
    return root


def flow_codes(result) -> list[str]:
    return [f.code for f in result.findings]


@pytest.fixture(autouse=True)
def _isolated_lintcache(tmp_path, monkeypatch):
    """Keep every test's default cache away from the repo checkout."""
    monkeypatch.setenv("REPRO_LINTCACHE_DIR", str(tmp_path / "_lintcache"))


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


class TestModuleSummary:
    def test_module_name_variants(self):
        assert module_name("src/repro/sim/engine.py") == "sim.engine"
        assert module_name("sim/__init__.py") == "sim"
        assert module_name("src/repro/__init__.py") == "repro"

    def test_imports_module_level_vs_deferred(self):
        s = summarize_source(
            textwrap.dedent(
                """
                import time
                from a.b import c

                def f():
                    from x.y import z
                    return z
                """
            ),
            "sim/x.py",
        )
        by_target = {r.target: r.deferred for r in s.imports}
        assert by_target == {"time": False, "a.b.c": False, "x.y.z": True}

    def test_type_checking_imports_excluded(self):
        s = summarize_source(
            textwrap.dedent(
                """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.fleet.events import FleetEvent
                """
            ),
            "obs/x.py",
        )
        targets = {r.target for r in s.imports}
        assert "repro.fleet.events.FleetEvent" not in targets

    def test_function_calls_and_nondet(self):
        s = summarize_source(
            textwrap.dedent(
                """
                import time
                from util.clock import now

                def helper():
                    return 1

                def f():
                    helper()
                    now()
                    return time.time()
                """
            ),
            "util/x.py",
        )
        f = next(fn for fn in s.functions if fn.qualname == "f")
        kinds = {(c.target, c.kind) for c in f.calls}
        assert ("helper", "local") in kinds
        assert ("util.clock.now", "resolved") in kinds
        assert [h.code for h in f.nondet] == ["RPL001"]

    def test_async_await_hazard_extracted(self):
        s = summarize_source(
            textwrap.dedent(
                """
                class H:
                    async def handle(self):
                        n = self.count
                        await self.refresh()
                        self.count = n + 1
                """
            ),
            "serve/x.py",
        )
        fn = s.functions[0]
        assert fn.is_async
        assert [h.attr for h in fn.await_hazards] == ["count"]

    def test_import_time_and_lambda_hazards_carried(self):
        s = summarize_source(
            textwrap.dedent(
                """
                import random
                import time

                START = time.time()

                class Clock:
                    EPOCH = time.time()

                    def jitter(self, xs):
                        return sorted(xs, key=lambda x: random.random())

                KEY = lambda: random.random()
                """
            ),
            "sim/x.py",
        )
        assert [(h.line, h.code) for h in sorted(s.nondet, key=lambda h: h.line)] == [
            (5, "RPL001"), (8, "RPL001"), (13, "RPL002"),
        ]
        jitter = next(fn for fn in s.functions if fn.qualname == "Clock.jitter")
        assert [(h.line, h.code) for h in jitter.nondet] == [(11, "RPL002")]
        assert jitter.calls == tuple(
            c for c in jitter.calls if c.target != "random.random"
        )

    def test_defs_inside_blocks_summarised(self):
        s = summarize_source(
            textwrap.dedent(
                """
                try:
                    import fast
                except ImportError:
                    def f():
                        return 1

                if True:
                    class C:
                        def g(self):
                            def h():
                                return 2
                            return h
                """
            ),
            "sim/x.py",
        )
        assert [fn.qualname for fn in s.functions] == ["f", "C.g", "C.g.h"]

    def test_round_trip_mapping(self):
        # Every file of the lint package, plus one with a per-file finding
        # (RPL003), whose rule and line_text Finding equality skips.
        cases = [
            (path.read_text(encoding="utf-8"), str(path), str(REPO_ROOT))
            for path in sorted((SRC / "repro" / "lint").rglob("*.py"))
        ]
        cases.append(("for x in {1, 2}:\n    pass  # noqa\n", "sim/x.py", None))
        for source, path, root in cases:
            analysis = _analyze_source(source, path, root)
            payload = json.loads(json.dumps(encode(analysis)))
            again = decode(CachedAnalysis, payload)
            assert again == analysis, path
            assert [(f.rule, f.line_text) for f in again.findings] == [
                (f.rule, f.line_text) for f in analysis.findings
            ]
        assert [f.code for f in analysis.findings] == ["RPL003"]

    def test_decode_checks_every_value(self):
        summary = summarize_source("import time\n", "sim/x.py")
        good = encode(summary)
        assert decode(type(summary), good) == summary
        wrong_type = {**good, "imports": [{**good["imports"][0], "line": "1"}]}
        bool_for_int = {**good, "imports": [{**good["imports"][0], "line": True}]}
        missing = {k: v for k, v in good.items() if k != "nondet"}
        extra = {**good, "schema": 3}
        bad_key = {**good, "line_texts": {"one": "import time"}}
        for data in (wrong_type, bool_for_int, missing, extra, bad_key):
            with pytest.raises((TypeError, ValueError)):
                decode(type(summary), data)


# ---------------------------------------------------------------------------
# Layers and graphs
# ---------------------------------------------------------------------------


class TestLayers:
    def test_known_and_unknown_packages(self):
        assert layer_of("sim.engine") == ("model", 2)
        assert layer_of("serve.server") == ("scale-out", 5)
        assert layer_of("errors") == ("foundation", 0)
        assert layer_of("some_fixture.mod") is None


class TestGraphs:
    def tree(self, tmp_path):
        return write_tree(
            tmp_path,
            {
                "util/clock.py": "def now():\n    return 0\n",
                "util/mid.py": (
                    "from util.clock import now\n\n"
                    "def step():\n    return now()\n"
                ),
                "sim/engine.py": (
                    "from util.mid import step\n\n"
                    "def run():\n    return step()\n"
                ),
            },
        )

    def project(self, tmp_path) -> Project:
        root = self.tree(tmp_path)
        return analyze_paths([root], cache=False).project

    def test_import_edges(self, tmp_path):
        g = ImportGraph(self.project(tmp_path))
        pairs = {(e.src, e.dst) for e in g.edges}
        assert ("sim.engine", "util.mid") in pairs
        assert ("util.mid", "util.clock") in pairs

    def test_call_reachability_and_chain(self, tmp_path):
        g = CallGraph(self.project(tmp_path))
        parents = g.reachable(["sim.engine.run"])
        assert "util.clock.now" in parents
        chain = CallGraph.chain(parents, "util.clock.now")
        assert chain == ["sim.engine.run", "util.mid.step", "util.clock.now"]

    def test_cycle_detection(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "alpha/x.py": "from beta.y import g\n\ndef f():\n    return g\n",
                "beta/y.py": "from alpha.x import f\n\ndef g():\n    return f\n",
            },
        )
        project = analyze_paths([root], cache=False).project
        cycles = ImportGraph(project).cycles()
        assert cycles == [["alpha.x", "beta.y"]]

    def test_deferred_imports_do_not_cycle(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "alpha/x.py": (
                    "def f():\n    from beta.y import g\n    return g\n"
                ),
                "beta/y.py": "from alpha.x import f\n\ndef g():\n    return f\n",
            },
        )
        project = analyze_paths([root], cache=False).project
        assert ImportGraph(project).cycles() == []

    def test_renderers(self, tmp_path):
        project = self.project(tmp_path)
        imports = ImportGraph(project)
        assert "digraph imports" in imports.to_dot()
        payload = json.loads(imports.to_json())
        assert "sim.engine" in payload["modules"]
        calls = CallGraph(project)
        assert "digraph calls" in calls.to_dot()
        assert "sim.engine.run" in json.loads(calls.to_json())["functions"]


# ---------------------------------------------------------------------------
# RPL901 — layering
# ---------------------------------------------------------------------------


class TestLayering:
    def test_upward_import_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/server.py": "def launch():\n    return 1\n",
                "sim/policy.py": (
                    "from serve.server import launch\n\n"
                    "def go():\n    return launch()\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL901"]
        f = r.findings[0]
        assert f.path.endswith("sim/policy.py")
        assert f.line == 1
        assert "serve" in f.message and "model" in f.message

    def test_downward_import_clean(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "sim/engine.py": "def run():\n    return 1\n",
                "serve/server.py": (
                    "from sim.engine import run\n\n"
                    "def launch():\n    return run()\n"
                ),
            },
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_module_cycle_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "alpha/x.py": "from beta.y import g\n\ndef f():\n    return g\n",
                "beta/y.py": "from alpha.x import f\n\ndef g():\n    return f\n",
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL901"]
        assert "import cycle" in r.findings[0].message

    def test_noqa_suppresses_flow_finding(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/server.py": "def launch():\n    return 1\n",
                "sim/policy.py": (
                    "from serve.server import launch  # noqa: RPL901\n\n"
                    "def go():\n    return launch()\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == []
        assert [f.code for f in r.suppressed] == ["RPL901"]


# ---------------------------------------------------------------------------
# RPL001/RPL002 — determinism at every call depth (the acceptance fixture)
# ---------------------------------------------------------------------------


class TestDeterminismTaint:
    def taint_tree(self, tmp_path):
        """A wall-clock call three modules away from sim.engine.run."""
        return write_tree(
            tmp_path,
            {
                "util/clock.py": (
                    "import time\n\n"
                    "def now():\n"
                    "    return time.time()\n"
                ),
                "util/mid.py": (
                    "from util.clock import now\n\n"
                    "def step():\n"
                    "    return now()\n"
                ),
                "sim/engine.py": (
                    "from util.mid import step\n\n"
                    "def run():\n"
                    "    return step()\n"
                ),
            },
        )

    def test_transitive_hazard_reported_with_chain(self, tmp_path):
        r = analyze_paths([self.taint_tree(tmp_path)], cache=False)
        taint = [f for f in r.findings if f.code == "RPL001"]
        assert len(taint) == 1
        f = taint[0]
        assert f.path.endswith("util/clock.py")
        assert f.line == 4  # the time.time() call itself
        assert (
            "sim.engine.run -> util.mid.step -> util.clock.now" in f.message
        )
        assert "time.time" in f.message

    def test_in_scope_hazard_left_to_rpl001(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "sim/helpers.py": (
                    "import time\n\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
                "sim/engine.py": (
                    "from sim.helpers import stamp\n\n"
                    "def run():\n"
                    "    return stamp()\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL001"]
        f = r.findings[0]
        assert (f.path.endswith("sim/helpers.py"), f.line) == (True, 4)
        assert "sim.engine.run -> sim.helpers.stamp" not in f.message

    def test_rng_hazard_reached_from_batch_reported(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "util/noise.py": (
                    "import random\n\n"
                    "def jitter():\n"
                    "    return random.random()\n"
                ),
                "batch/engine.py": (
                    "from util.noise import jitter\n\n"
                    "def run_fixed_opp():\n"
                    "    return jitter()\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL002"]
        f = r.findings[0]
        assert f.path.endswith("util/noise.py") and f.line == 4
        assert "batch.engine.run_fixed_opp -> util.noise.jitter" in f.message

    def test_import_time_hazard_in_scope_only(self, tmp_path):
        body = "import time\n\nclass Clock:\n    EPOCH = time.time()\n"
        root = write_tree(
            tmp_path, {"batch/clock.py": body, "util/clock.py": body}
        )
        r = analyze_paths([root], cache=False)
        assert [(f.code, f.path.endswith("batch/clock.py"), f.line)
                for f in r.findings] == [("RPL001", True, 4)]

    def test_unreachable_hazard_not_reported(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "util/clock.py": (
                    "import time\n\ndef now():\n    return time.time()\n"
                ),
                "sim/engine.py": "def run():\n    return 1\n",
            },
        )
        r = analyze_paths([root], cache=False)
        assert "RPL001" not in flow_codes(r)


# ---------------------------------------------------------------------------
# RPL903 — await-spanning shared state
# ---------------------------------------------------------------------------


class TestAwaitSharedState:
    def test_unguarded_span_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/state.py": (
                    "class Handler:\n"
                    "    async def handle(self):\n"
                    "        n = self.count\n"
                    "        await self.refresh()\n"
                    "        self.count = n + 1\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL903"]
        f = r.findings[0]
        assert f.line == 5
        assert "self.count" in f.message and "await" in f.message

    def test_lock_guarded_write_clean(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/state.py": (
                    "class Handler:\n"
                    "    async def handle(self):\n"
                    "        n = self.count\n"
                    "        await self.refresh()\n"
                    "        async with self._lock:\n"
                    "            self.count = n + 1\n"
                ),
            },
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_write_before_await_clean(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/state.py": (
                    "class Handler:\n"
                    "    async def handle(self):\n"
                    "        self.count += 1\n"
                    "        await self.refresh()\n"
                ),
            },
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_outside_serve_not_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "batch/state.py": (
                    "class Handler:\n"
                    "    async def handle(self):\n"
                    "        n = self.count\n"
                    "        await self.refresh()\n"
                    "        self.count = n + 1\n"
                ),
            },
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []


# ---------------------------------------------------------------------------
# RPL701 — blocking calls on the serve loop, through sync helpers
# ---------------------------------------------------------------------------


class TestTransitiveBlocking:
    def test_cross_module_chain_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "util/io.py": (
                    "import time\n\n"
                    "def pause():\n"
                    "    time.sleep(1)\n\n"
                    "def load():\n"
                    "    return pause()\n"
                ),
                "serve/app.py": (
                    "from util.io import load\n\n"
                    "class Server:\n"
                    "    async def handle(self):\n"
                    "        return load()\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL701"]
        f = r.findings[0]
        assert f.path.endswith("serve/app.py")
        assert f.line == 5  # the load() call site, not the sleep
        assert "util.io.load -> util.io.pause" in f.message
        assert "time.sleep" in f.message

    def test_async_callee_not_followed(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/app.py": (
                    "import asyncio\n\n"
                    "class Server:\n"
                    "    async def nap(self):\n"
                    "        await asyncio.sleep(0)\n\n"
                    "    async def handle(self):\n"
                    "        return await self.nap()\n"
                ),
            },
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_lambda_handed_to_executor_not_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/app.py": (
                    "import asyncio\n\n"
                    "def load(path):\n"
                    "    return path.read_text()\n\n"
                    "async def handle(path):\n"
                    "    loop = asyncio.get_running_loop()\n"
                    "    return await loop.run_in_executor(\n"
                    "        None, lambda: load(path) + path.read_text()\n"
                    "    )\n"
                ),
            },
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_direct_and_transitive_both_reported(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/app.py": (
                    "import time\n\n"
                    "def pause():\n"
                    "    time.sleep(1)\n\n"
                    "async def handle():\n"
                    "    time.sleep(1)\n"
                    "    pause()\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert [(f.code, f.line) for f in r.findings] == [
            ("RPL701", 7), ("RPL701", 8),
        ]
        assert "time.sleep parks the serve event loop" in r.findings[0].message
        assert "serve.app.handle -> serve.app.pause" in r.findings[1].message

    def test_sync_caller_not_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "serve/app.py": (
                    "import time\n\n"
                    "def pause():\n"
                    "    time.sleep(1)\n\n"
                    "def sync_entry():\n"
                    "    return pause()\n"
                ),
            },
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []


# ---------------------------------------------------------------------------
# RPL910 — unused suppressions
# ---------------------------------------------------------------------------


class TestUnusedNoqa:
    def one_file(self, tmp_path, line: str) -> Path:
        return write_tree(tmp_path, {"sim/x.py": f"import time\n{line}\n"})

    def test_unused_rpl_noqa_flagged(self, tmp_path):
        root = self.one_file(
            tmp_path, "x = time.perf_counter()  # noqa: RPL001"
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL910"]
        assert "RPL001" in r.findings[0].message

    def test_used_noqa_not_flagged(self, tmp_path):
        root = self.one_file(tmp_path, "x = time.time()  # noqa: RPL001")
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == []
        assert [f.code for f in r.suppressed] == ["RPL001"]

    def test_foreign_code_ignored(self, tmp_path):
        root = self.one_file(tmp_path, "x = 1  # noqa: F401")
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_unknown_rpl_code_flagged(self, tmp_path):
        root = self.one_file(tmp_path, "x = 1  # noqa: RPL999")
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL910"]
        assert "not a registered rule" in r.findings[0].message

    def test_bare_noqa_ignored(self, tmp_path):
        root = self.one_file(tmp_path, "x = 1  # noqa")
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_rpl910_suppresses_itself(self, tmp_path):
        root = self.one_file(tmp_path, "x = 1  # noqa: RPL001, RPL910")
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == []
        assert [f.code for f in r.suppressed] == ["RPL910"]

    def test_docstring_noqa_not_a_suppression(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"sim/x.py": '"""Use ``# noqa: RPL001`` to suppress."""\n'},
        )
        assert flow_codes(analyze_paths([root], cache=False)) == []

    def test_unused_flow_code_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"serve/x.py": "x = 1  # noqa: RPL903\n"},
        )
        assert flow_codes(analyze_paths([root], cache=False)) == ["RPL910"]

    @pytest.mark.parametrize("retired", ["RPL902", "RPL904"])
    def test_retired_flow_code_flagged(self, tmp_path, retired):
        root = self.one_file(tmp_path, f"x = time.time()  # noqa: {retired}")
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL910", "RPL001"]
        assert f"{retired} is not a registered rule" in r.findings[0].message

    def test_unselected_code_exempt(self, tmp_path):
        root = self.one_file(
            tmp_path, "x = time.perf_counter()  # noqa: RPL001"
        )
        r = analyze_paths([root], cache=False, select=["RPL910"])
        assert flow_codes(r) == []


# ---------------------------------------------------------------------------
# The summary cache
# ---------------------------------------------------------------------------


class TestSummaryCache:
    def taint_tree(self, tmp_path):
        return TestDeterminismTaint().taint_tree(tmp_path)

    def test_warm_run_hits_with_identical_findings(self, tmp_path):
        root = self.taint_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([root], cache_dir=cache_dir)
        warm = analyze_paths([root], cache_dir=cache_dir)
        assert cold.cache_hits == 0 and cold.cache_misses == 3
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed

    def test_source_edit_invalidates_one_file(self, tmp_path):
        root = self.taint_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        analyze_paths([root], cache_dir=cache_dir)
        clock = root / "util" / "clock.py"
        clock.write_text("def now():\n    return 0\n")
        again = analyze_paths([root], cache_dir=cache_dir)
        assert again.cache_hits == 2 and again.cache_misses == 1
        assert "RPL001" not in flow_codes(again)

    def test_engine_version_bump_invalidates_all(self, tmp_path, monkeypatch):
        root = self.taint_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        analyze_paths([root], cache_dir=cache_dir)
        monkeypatch.setattr(
            "repro.lint.flow.cache.LINT_ENGINE_VERSION", "999-test"
        )
        again = analyze_paths([root], cache_dir=cache_dir, jobs=1)
        assert again.cache_hits == 0 and again.cache_misses == 3

    def test_entry_from_before_the_schema_bump_not_reused(
        self, tmp_path, monkeypatch
    ):
        # What the cache held before RPL001 moved to the whole-program
        # pass: the per-file RPL001 finding, keyed and tagged with the
        # old summary schema (1) and lint engine version ("2").
        root = write_tree(
            tmp_path, {"sim/x.py": "import time\nSTART = time.time()\n"}
        )
        path = root / "sim" / "x.py"
        source = path.read_text()
        cache_dir = tmp_path / "cache"
        per_file = check_source(source, str(path)).findings
        assert [f.code for f in per_file] == ["RPL001"]
        monkeypatch.setattr("repro.lint.flow.cache.SUMMARY_SCHEMA", 1)
        monkeypatch.setattr("repro.lint.flow.cache.LINT_ENGINE_VERSION", "2")
        old = SummaryCache(cache_dir)
        assert old.store(
            SummaryCache.key(str(path), source, extra_inputs_digest(None)),
            CachedAnalysis(
                findings=tuple(per_file),
                summary=summarize_source(source, str(path)),
            ),
        )
        monkeypatch.undo()
        assert (SUMMARY_SCHEMA, LINT_ENGINE_VERSION) != (1, "2")
        r = analyze_paths([root], cache_dir=cache_dir, project_root=tmp_path)
        assert r.cache_hits == 0 and r.cache_misses == 1
        assert flow_codes(r) == ["RPL001"]  # reported once, not twice

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        source = "def f():\n    return 1\n"
        key = SummaryCache.key("sim/x.py", source)
        analysis = CachedAnalysis(
            findings=(),
            summary=summarize_source(source, "sim/x.py"),
        )
        assert cache.store(key, analysis)
        assert cache.probe(key) == analysis
        cache.path_for(key).write_text("{not json")
        assert cache.probe(key) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_edited_value_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        key = SummaryCache.key("sim/x.py", source)
        assert cache.store(key, _analyze_source(source, "sim/x.py", None))
        path = cache.path_for(key)
        text = path.read_text()
        assert '"line":4' in text
        path.write_text(text.replace('"line":4', '"line":3', 1))
        assert cache.probe(key) is None

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_or_flipped_entry_never_decodes_wrong(
        self, tmp_path, data
    ):
        cache = SummaryCache(tmp_path / "cache")
        source = (
            "import time\n\n\nasync def handle(self):  # noqa: RPL001\n"
            "    x = self.n\n    await self.wait()\n    self.n = x + 1\n"
            "    return time.time()\n"
        )
        key = SummaryCache.key("serve/x.py", source)
        analysis = _analyze_source(source, "serve/x.py", None)
        assert cache.store(key, analysis)
        path = cache.path_for(key)
        path.write_bytes(damaged(data, path.read_bytes()))
        got = cache.probe(key)
        assert got is None or got == analysis

    def test_key_depends_on_extra_inputs(self):
        a = SummaryCache.key("hw/x.py", "x = 1\n", "digest-a")
        b = SummaryCache.key("hw/x.py", "x = 1\n", "digest-b")
        assert a != b

    def test_extra_inputs_digest_tracks_register_map(self, tmp_path):
        assert extra_inputs_digest(None) == "none"
        assert extra_inputs_digest(tmp_path) == "none"
        reg = tmp_path / "src" / "repro" / "hw" / "registers.py"
        reg.parent.mkdir(parents=True)
        reg.write_text("OBS1_REWARD_BITS = 16\n")
        first = extra_inputs_digest(tmp_path)
        assert first != "none"
        reg.write_text("OBS1_REWARD_BITS = 12\n")
        assert extra_inputs_digest(tmp_path) != first

    @pytest.mark.parametrize(
        "layout", ["src/repro/hw", "repro/hw", "hw"]
    )
    def test_rule_and_digest_read_the_same_register_map(
        self, tmp_path, layout
    ):
        from repro.lint.rules.fixedpoint import _reward_field_bits

        # Every layout deeper in the search order holds a decoy, so a
        # locator that skipped this layout would read 20 bits.
        order = ["src/repro/hw", "repro/hw", "hw"]
        for rel in order[order.index(layout):]:
            reg = tmp_path / rel / "registers.py"
            reg.parent.mkdir(parents=True)
            bits = 9 if rel == layout else 20
            reg.write_text(f"OBS1_REWARD_BITS = {bits}\n")
        chosen = tmp_path / layout / "registers.py"
        assert register_map_path(tmp_path) == chosen

        class Ctx:
            project_root = tmp_path

        assert _reward_field_bits(Ctx) == 9
        assert extra_inputs_digest(tmp_path) == hashlib.sha256(
            chosen.read_bytes()
        ).hexdigest()

    def test_cold_file_tokenised_and_import_mapped_once(
        self, tmp_path, monkeypatch
    ):
        import repro.lint.engine as engine
        import repro.lint.flow.summary as summary

        counts = {"noqa_map": 0, "ImportMap": 0}
        real_noqa_map = engine.noqa_map
        real_init = ImportMap.__init__

        def counting_noqa_map(source):
            counts["noqa_map"] += 1
            return real_noqa_map(source)

        def counting_init(self, tree):
            counts["ImportMap"] += 1
            real_init(self, tree)

        monkeypatch.setattr(engine, "noqa_map", counting_noqa_map)
        # Also bind the name in the summary module, so a tokenise pass of
        # its own there would still be counted.
        monkeypatch.setattr(summary, "noqa_map", counting_noqa_map, raising=False)
        monkeypatch.setattr(ImportMap, "__init__", counting_init)
        root = self.taint_tree(tmp_path)
        r = analyze_paths([root], cache_dir=tmp_path / "cache")
        assert r.cache_misses == r.files_checked == 3
        assert counts == {"noqa_map": 3, "ImportMap": 3}


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------


class TestParallelJobs:
    def test_jobs_parity(self, tmp_path):
        root = TestDeterminismTaint().taint_tree(tmp_path)
        serial = analyze_paths([root], cache=False, jobs=1)
        parallel = analyze_paths([root], cache=False, jobs=2)
        assert parallel.findings == serial.findings
        assert parallel.suppressed == serial.suppressed
        assert parallel.files_checked == serial.files_checked


# ---------------------------------------------------------------------------
# Statistics output
# ---------------------------------------------------------------------------


class TestStatistics:
    @pytest.fixture()
    def tree(self, tmp_path):
        return write_tree(
            tmp_path,
            {"sim/x.py": "import time\nSTART = time.time()\n"},
        )

    def test_text_statistics(self, tree, capsys):
        main(["check", str(tree), "--no-baseline", "--statistics"])
        out = capsys.readouterr().out
        assert "statistics:" in out
        assert "files checked: 1" in out
        assert "RPL001: 1" in out
        assert "sim/x.py: 1" in out

    def test_json_statistics(self, tree, capsys):
        main(["check", str(tree), "--no-baseline", "--statistics",
              "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        stats = data["statistics"]
        assert stats["files_checked"] == 1
        assert stats["by_code"] == {"RPL001": 1}
        assert len(stats["by_path"]) == 1

    def test_github_statistics(self, tree, capsys):
        main(["check", str(tree), "--no-baseline", "--statistics",
              "--format", "github"])
        out = capsys.readouterr().out
        assert "::notice title=repro check statistics::" in out
        assert "RPL001=1" in out


# ---------------------------------------------------------------------------
# Graph CLI
# ---------------------------------------------------------------------------


class TestGraphCli:
    @pytest.fixture()
    def tree(self, tmp_path):
        return TestGraphs().tree(tmp_path)

    def test_imports_json(self, tree, capsys):
        assert main(["graph", "imports", str(tree), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        edges = {(e["from"], e["to"]) for e in payload["edges"]}
        assert ("sim.engine", "util.mid") in edges

    def test_imports_dot(self, tree, capsys):
        assert main(["graph", "imports", str(tree)]) == 0
        assert "digraph imports" in capsys.readouterr().out

    def test_calls_json(self, tree, capsys):
        assert main(["graph", "calls", str(tree), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        edges = {(e["from"], e["to"]) for e in payload["edges"]}
        assert ("sim.engine.run", "util.mid.step") in edges


# ---------------------------------------------------------------------------
# Baseline interplay (flow findings + fingerprint edge cases)
# ---------------------------------------------------------------------------


class TestBaselineWithFlow:
    def violating_tree(self, tmp_path):
        return write_tree(
            tmp_path,
            {
                "serve/server.py": "def launch():\n    return 1\n",
                "sim/policy.py": (
                    "from serve.server import launch\n\n"
                    "def go():\n    return launch()\n"
                ),
            },
        )

    def test_write_baseline_round_trip(self, tmp_path, capsys):
        root = self.violating_tree(tmp_path)
        baseline = tmp_path / "lint-baseline.json"
        assert main(["check", str(root), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main(["check", str(root), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 accepted by baseline" in out

    def test_fixed_violation_goes_stale(self, tmp_path, capsys):
        root = self.violating_tree(tmp_path)
        baseline = tmp_path / "lint-baseline.json"
        main(["check", str(root), "--baseline", str(baseline),
              "--write-baseline"])
        (root / "sim" / "policy.py").write_text("def go():\n    return 1\n")
        capsys.readouterr()
        assert main(["check", str(root), "--baseline", str(baseline)]) == 0
        assert "stale" in capsys.readouterr().err

    def test_duplicate_lines_counted_by_occurrence(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "sim/x.py": (
                    "import time\n"
                    "x = time.time()\n"
                    "x = time.time()\n"
                ),
            },
        )
        r = analyze_paths([root], cache=False)
        assert flow_codes(r) == ["RPL001", "RPL001"]
        baseline = Baseline.from_findings(r.findings)
        assert len(baseline) == 2  # occurrence suffix disambiguates
        split = filter_findings(r.findings, baseline)
        assert len(split.accepted) == 2 and not split.new and not split.stale
        # Fixing one occurrence: the other stays accepted, one goes stale.
        split = filter_findings(r.findings[:1], baseline)
        assert len(split.accepted) == 1
        assert len(split.stale) == 1
        assert not split.new


# ---------------------------------------------------------------------------
# Repo gate
# ---------------------------------------------------------------------------


class TestRepoGateFlow:
    def test_src_tree_flow_clean(self):
        r = analyze_paths([SRC], cache=False)
        assert r.findings == []

    def test_repo_import_graph_is_layerable(self):
        r = analyze_paths([SRC], cache=False)
        assert ImportGraph(r.project).cycles() == []
