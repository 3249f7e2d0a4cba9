"""The static-analysis engine: rules, suppression, baseline, CLI gate."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import LintError
from repro.lint import (
    Baseline,
    Finding,
    ImportMap,
    all_rules,
    analyze_paths,
    check_source,
    filter_findings,
    iter_python_files,
    module_relpath,
    noqa_map,
    render,
    render_github,
    render_json,
    render_text,
    rule_catalogue,
    select_rules,
)
from repro.lint.rules import SOLE_WRITERS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint(source: str, path: str, **kwargs):
    """Lint dedented source as if it lived at a package-relative path."""
    return check_source(textwrap.dedent(source), path, **kwargs)


def codes(result) -> list[str]:
    return [f.code for f in result.findings]


# ---------------------------------------------------------------------------
# Engine plumbing
# ---------------------------------------------------------------------------


class TestModuleRelpath:
    def test_src_layout(self):
        assert module_relpath("src/repro/sim/engine.py") == "sim/engine.py"

    def test_absolute_path(self):
        assert (
            module_relpath("/root/repo/src/repro/qos/metrics.py")
            == "qos/metrics.py"
        )

    def test_virtual_fixture_path(self):
        assert module_relpath("sim/x.py") == "sim/x.py"

    def test_src_anchor_without_repro(self):
        assert module_relpath("/tmp/t/src/sim/x.py") == "sim/x.py"


class TestImportMap:
    def map_for(self, source: str) -> ImportMap:
        import ast

        return ImportMap(ast.parse(textwrap.dedent(source)))

    def test_plain_and_aliased_imports(self):
        import ast

        m = self.map_for("import numpy as np\nimport time\n")
        np_call = ast.parse("np.random.rand()").body[0].value
        assert m.resolve(np_call.func) == "numpy.random.rand"
        t_call = ast.parse("time.time()").body[0].value
        assert m.resolve(t_call.func) == "time.time"

    def test_from_import(self):
        import ast

        m = self.map_for("from time import time\n")
        call = ast.parse("time()").body[0].value
        assert m.resolve(call.func) == "time.time"


class TestSelection:
    def test_all_codes_registered(self):
        expected = {
            "RPL001", "RPL002", "RPL003", "RPL101", "RPL102",
            "RPL201", "RPL202", "RPL203", "RPL301", "RPL401", "RPL402",
            "RPL501", "RPL601", "RPL701", "RPL801", "RPL802",
            "RPL901", "RPL903", "RPL910",
        }
        assert set(all_rules()) == expected

    def test_prefix_select_expands_family(self):
        chosen = {r.code for r in select_rules(select=["RPL0"])}
        assert chosen == {"RPL001", "RPL002", "RPL003"}

    def test_ignore_removes_codes(self):
        chosen = {r.code for r in select_rules(ignore=["RPL1", "RPL2"])}
        assert "RPL101" not in chosen and "RPL201" not in chosen
        assert "RPL001" in chosen

    def test_unknown_selector_raises(self):
        with pytest.raises(LintError):
            select_rules(select=["RPL999"])

    def test_syntax_error_raises(self):
        with pytest.raises(LintError):
            check_source("def broken(:\n", "sim/x.py")

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            list(iter_python_files(["/nonexistent/nowhere.py"]))


# ---------------------------------------------------------------------------
# Determinism rules (RPL001-003)
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_time_time_flagged(self):
        r = lint("import time\nx = time.time()\n", "sim/x.py")
        assert codes(r) == ["RPL001"]

    def test_datetime_now_flagged(self):
        r = lint(
            "import datetime\nts = datetime.datetime.now()\n",
            "fleet/worker.py",
        )
        assert codes(r) == ["RPL001"]

    def test_perf_counter_allowed(self):
        r = lint("import time\nx = time.perf_counter()\n", "sim/x.py")
        assert codes(r) == []

    def test_out_of_scope_path_unflagged(self):
        r = lint("import time\nx = time.time()\n", "fleet/events.py")
        assert codes(r) == []


class TestGlobalRng:
    def test_stdlib_random_flagged(self):
        r = lint("import random\nx = random.random()\n", "rl/x.py")
        assert codes(r) == ["RPL002"]

    def test_numpy_global_state_flagged(self):
        r = lint("import numpy as np\nx = np.random.rand(3)\n", "sim/x.py")
        assert codes(r) == ["RPL002"]

    def test_unseeded_default_rng_flagged(self):
        r = lint(
            "import numpy as np\nrng = np.random.default_rng()\n", "rl/x.py"
        )
        assert codes(r) == ["RPL002"]

    def test_seeded_default_rng_allowed(self):
        r = lint(
            "import numpy as np\nrng = np.random.default_rng(42)\n", "rl/x.py"
        )
        assert codes(r) == []

    def test_seed_none_still_flagged(self):
        r = lint(
            "import numpy as np\nrng = np.random.default_rng(seed=None)\n",
            "rl/x.py",
        )
        assert codes(r) == ["RPL002"]


class TestSetIteration:
    def test_for_over_set_call_flagged(self):
        r = lint("for c in set(items):\n    use(c)\n", "sim/x.py")
        assert codes(r) == ["RPL003"]

    def test_comprehension_over_set_literal_flagged(self):
        r = lint("out = [f(x) for x in {1, 2, 3}]\n", "sim/x.py")
        assert codes(r) == ["RPL003"]

    def test_set_algebra_flagged(self):
        r = lint("for k in set(a) - set(b):\n    use(k)\n", "sim/x.py")
        assert codes(r) == ["RPL003"]

    def test_sorted_set_allowed(self):
        r = lint("for c in sorted(set(items)):\n    use(c)\n", "sim/x.py")
        assert codes(r) == []


# ---------------------------------------------------------------------------
# Unit rules (RPL101-102)
# ---------------------------------------------------------------------------


class TestMixedUnits:
    def test_scale_mismatch_add_flagged(self):
        r = lint("total = freq_mhz + freq_hz\n", "soc/x.py")
        assert codes(r) == ["RPL101"]
        assert "scales" in r.findings[0].message

    def test_dimension_mismatch_compare_flagged(self):
        r = lint("if power_w > energy_j:\n    pass\n", "power/x.py")
        assert codes(r) == ["RPL101"]
        assert "dimensions" in r.findings[0].message

    def test_augmented_accumulation_flagged(self):
        r = lint("total_j += extra_mj\n", "power/x.py")
        assert codes(r) == ["RPL101"]

    def test_attribute_and_call_operands(self):
        r = lint("d = cur.freq_mhz - prev.freq_hz\n", "soc/x.py")
        assert codes(r) == ["RPL101"]

    def test_same_unit_allowed(self):
        r = lint("total_j = idle_j + busy_j\n", "power/x.py")
        assert codes(r) == []

    def test_multiplication_exempt(self):
        r = lint("e_j = power_w * dt_s\n", "power/x.py")
        assert codes(r) == []


class TestSuffixlessQuantity:
    def test_suffixless_power_function_flagged(self):
        r = lint(
            "def leakage_power(temp_c: float) -> float:\n    return temp_c\n",
            "power/x.py",
        )
        assert codes(r) == ["RPL102"]

    def test_unit_suffix_allowed(self):
        r = lint(
            "def leakage_power_w(temp_c: float) -> float:\n    return temp_c\n",
            "power/x.py",
        )
        assert codes(r) == []

    def test_dimensionless_suffix_allowed(self):
        r = lint(
            "def energy_ratio(a_j: float, b_j: float) -> float:\n"
            "    return a_j\n",
            "qos/x.py",
        )
        assert codes(r) == []

    def test_private_and_out_of_scope_unflagged(self):
        private = lint(
            "def _power(t: float) -> float:\n    return t\n", "power/x.py"
        )
        elsewhere = lint(
            "def leakage_power(t: float) -> float:\n    return t\n", "cli.py"
        )
        assert codes(private) == [] and codes(elsewhere) == []


# ---------------------------------------------------------------------------
# Fixed-point rules (RPL201-203)
# ---------------------------------------------------------------------------


class TestFixedPoint:
    def test_float_literal_in_update_flagged(self):
        r = lint(
            "def update(td: int) -> int:\n    return td * 0.25\n",
            "hw/datapath.py",
        )
        assert codes(r) == ["RPL201"]

    def test_float_in_conversion_helper_allowed(self):
        r = lint(
            "def quantize(v: float) -> int:\n    return int(v * 256.0)\n",
            "hw/fixed_point.py",
        )
        assert codes(r) == []

    def test_float_default_and_class_field_allowed(self):
        r = lint(
            """\
            class Config:
                gamma: float = 0.85

            def step(x: int, alpha_f: float = 0.5) -> int:
                return x
            """,
            "hw/datapath.py",
        )
        assert codes(r) == []

    def test_true_division_flagged_shift_not(self):
        flagged = lint(
            "def update(a: int, b: int) -> int:\n    return a / b\n",
            "hw/datapath.py",
        )
        shifted = lint(
            "def update(a: int) -> int:\n    return a >> 4\n",
            "hw/datapath.py",
        )
        assert codes(flagged) == ["RPL202"] and codes(shifted) == []

    def test_wide_qformat_flagged_against_fallback(self):
        r = lint(
            "fmt = QFormat(int_bits=15, frac_bits=16)\n", "hw/datapath.py"
        )
        assert "RPL203" in codes(r)

    def test_q7_8_fits(self):
        r = lint("fmt = QFormat(int_bits=7, frac_bits=8)\n", "hw/policy.py")
        assert codes(r) == []

    def test_width_read_from_register_map(self, tmp_path):
        registers = tmp_path / "src" / "repro" / "hw" / "registers.py"
        registers.parent.mkdir(parents=True)
        registers.write_text('"""Map."""\nOBS1_REWARD_BITS = 8\n')
        r = lint(
            "fmt = QFormat(int_bits=3, frac_bits=8)\n",
            "hw/datapath.py",
            project_root=tmp_path,
        )
        assert "RPL203" in codes(r)
        assert "8" in r.findings[-1].message

    def test_repo_register_constant_drives_the_rule(self):
        from repro.hw.registers import OBS1_REWARD_BITS
        from repro.lint.rules.fixedpoint import _reward_field_bits

        class Ctx:
            project_root = REPO_ROOT

        assert _reward_field_bits(Ctx) == OBS1_REWARD_BITS


# ---------------------------------------------------------------------------
# Observability guard rule (RPL301)
# ---------------------------------------------------------------------------


class TestObsGuard:
    def test_unguarded_probe_flagged(self):
        r = lint(
            "def step(tracer):\n    tracer.instant('tick', {})\n",
            "sim/x.py",
        )
        assert codes(r) == ["RPL301"]

    def test_if_guard_allowed(self):
        r = lint(
            """\
            def step(tracer):
                if tracer:
                    tracer.instant('tick', {})
            """,
            "sim/x.py",
        )
        assert codes(r) == []

    def test_else_branch_of_guard_still_flagged(self):
        r = lint(
            """\
            def step(tracer):
                if tracer:
                    pass
                else:
                    tracer.instant('tick', {})
            """,
            "sim/x.py",
        )
        assert codes(r) == ["RPL301"]

    def test_conditional_expression_allowed(self):
        r = lint(
            "def step(tracer):\n"
            "    t = tracer.begin('phase') if tracer else None\n",
            "sim/x.py",
        )
        assert codes(r) == []

    def test_early_return_guard_allowed(self):
        r = lint(
            """\
            from repro.obs import OBS

            def emit():
                if not OBS.enabled:
                    return
                OBS.metrics.counter('runs', 1)
            """,
            "rl/x.py",
        )
        assert codes(r) == []

    def test_obs_alias_tracked(self):
        r = lint(
            """\
            from repro.obs import OBS

            def emit():
                m = OBS.metrics
                m.counter('runs', 1)
            """,
            "rl/x.py",
        )
        assert codes(r) == ["RPL301"]

    def test_exporters_out_of_scope(self):
        r = lint(
            "def export(tracer):\n    tracer.instant('tick', {})\n",
            "obs/export.py",
        )
        assert codes(r) == []


# ---------------------------------------------------------------------------
# Exception-policy rules (RPL401-402)
# ---------------------------------------------------------------------------


class TestExceptionPolicy:
    def test_bare_except_flagged(self):
        r = lint(
            "try:\n    run()\nexcept:\n    pass\n", "fleet/runner.py"
        )
        assert "RPL401" in codes(r)

    def test_swallowed_broad_except_flagged(self):
        r = lint(
            "try:\n    run()\nexcept Exception:\n    pass\n",
            "fleet/runner.py",
        )
        assert codes(r) == ["RPL402"]

    def test_recording_handler_allowed(self):
        r = lint(
            """\
            try:
                run()
            except Exception as exc:
                failures.append(JobFailure(error=repr(exc)))
            """,
            "fleet/worker.py",
        )
        assert codes(r) == []

    def test_logging_handler_allowed(self):
        r = lint(
            "try:\n    run()\nexcept Exception:\n    log.warning('boom')\n",
            "fleet/runner.py",
        )
        assert codes(r) == []

    def test_reraising_handler_allowed(self):
        r = lint(
            "try:\n    run()\nexcept Exception:\n    raise\n",
            "fleet/runner.py",
        )
        assert codes(r) == []

    def test_outside_fleet_unflagged(self):
        r = lint("try:\n    run()\nexcept:\n    pass\n", "analysis/x.py")
        assert codes(r) == []


# ---------------------------------------------------------------------------
# RPL5xx: performance-ledger discipline
# ---------------------------------------------------------------------------


class TestLedgerDiscipline:
    def test_ad_hoc_open_append_flagged(self):
        r = lint(
            """\
            import json

            def save(payload):
                with open(".repro/perf-ledger.jsonl", "a") as fh:
                    json.dump(payload, fh)
            """,
            "analysis/report.py",
        )
        assert "RPL501" in codes(r)

    def test_json_dump_to_ledger_variable_flagged(self):
        r = lint(
            """\
            import json

            def save(ledger_file, payload):
                json.dump(payload, ledger_file)
            """,
            "cli.py",
        )
        assert codes(r) == ["RPL501"]

    def test_write_text_on_ledger_path_flagged(self):
        r = lint(
            "def f(ledger_path, line):\n"
            "    ledger_path.write_text(line)\n",
            "experiments/e1.py",
        )
        assert codes(r) == ["RPL501"]

    def test_blessed_writer_module_exempt(self):
        r = lint(
            """\
            import json

            def append(self, record):
                with self.path.open("a") as fh:
                    fh.write(json.dumps(record) + "\\n")
            """,
            "perf/ledger.py",
        )
        assert codes(r) == []

    def test_non_ledger_writes_unflagged(self):
        r = lint(
            """\
            import json

            def save(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
            """,
            "analysis/export.py",
        )
        assert codes(r) == []

    def test_record_run_call_is_the_sanctioned_path(self):
        r = lint(
            "from repro.perf import record_run\n"
            "record_run('bench', 'e4', {'x': 1.0})\n",
            "benchmarks_helper.py",
        )
        assert codes(r) == []

    def test_catalogue_lists_rpl501(self):
        assert "RPL501" in all_rules()
        assert any(line.startswith("RPL501") for line in
                   rule_catalogue().splitlines())


# ---------------------------------------------------------------------------
# RPL6xx: run-cache discipline
# ---------------------------------------------------------------------------


class TestCacheDiscipline:
    def test_open_under_default_cache_dir_flagged(self):
        r = lint(
            """\
            import json

            def sneak(key, payload):
                with open(f".repro/cache/{key}.json", "w") as fh:
                    json.dump(payload, fh)
            """,
            "analysis/export.py",
        )
        assert "RPL601" in codes(r)

    def test_write_text_on_cache_dir_variable_flagged(self):
        r = lint(
            "def f(cache_dir, key, body):\n"
            "    (cache_dir / key).write_text(body)\n",
            "fleet/runner.py",
        )
        assert codes(r) == ["RPL601"]

    def test_json_dump_to_cache_path_flagged(self):
        r = lint(
            """\
            import json

            def save(cache_path, payload):
                json.dump(payload, cache_path)
            """,
            "cli.py",
        )
        assert codes(r) == ["RPL601"]

    def test_blessed_store_module_exempt(self):
        r = lint(
            """\
            import json

            def store(self, entry):
                tmp = self.cache_dir / "x.tmp"
                tmp.write_text(json.dumps(entry))
            """,
            "cache/store.py",
        )
        assert codes(r) == []

    def test_unrelated_caches_unflagged(self):
        # functools-style memo caches and generic writes stay in scope
        # of nothing: only the run-cache directory names trigger.
        r = lint(
            """\
            import json

            def save(path, cache):
                with open(path, "w") as fh:
                    json.dump(cache, fh)
            """,
            "analysis/export.py",
        )
        assert codes(r) == []

    def test_runcache_store_is_the_sanctioned_path(self):
        r = lint(
            "from repro.cache import RunCache\n"
            "RunCache().store(spec, measurement)\n",
            "fleet/runner.py",
        )
        assert codes(r) == []

    def test_catalogue_lists_rpl601(self):
        assert "RPL601" in all_rules()
        assert any(line.startswith("RPL601") for line in
                   rule_catalogue().splitlines())


# ---------------------------------------------------------------------------
# Serve-loop discipline (RPL701)
# ---------------------------------------------------------------------------


class TestServeDiscipline:
    def test_time_sleep_in_async_handler_flagged(self):
        r = lint(
            """\
            import time

            async def handle(request):
                time.sleep(0.1)
            """,
            "serve/server.py",
        )
        assert codes(r) == ["RPL701"]

    def test_from_import_sleep_flagged(self):
        r = lint(
            "from time import sleep\n"
            "async def handle(request):\n"
            "    sleep(1)\n",
            "serve/client.py",
        )
        assert codes(r) == ["RPL701"]

    def test_sync_open_in_async_handler_flagged(self):
        r = lint(
            "async def handle(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n",
            "serve/server.py",
        )
        assert codes(r) == ["RPL701"]

    def test_path_write_text_flagged(self):
        r = lint(
            "async def dump(path, body):\n"
            "    path.write_text(body)\n",
            "serve/server.py",
        )
        assert codes(r) == ["RPL701"]

    def test_asyncio_sleep_unflagged(self):
        r = lint(
            "import asyncio\n"
            "async def handle(request):\n"
            "    await asyncio.sleep(0.1)\n",
            "serve/server.py",
        )
        assert codes(r) == []

    def test_executor_offload_is_the_sanctioned_path(self):
        r = lint(
            """\
            import asyncio

            async def handle(spec):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, simulate, spec)
            """,
            "serve/server.py",
        )
        assert codes(r) == []

    def test_sync_function_bodies_unflagged(self):
        r = lint(
            "import time\n"
            "def warmup():\n"
            "    time.sleep(0.1)\n",
            "serve/server.py",
        )
        assert codes(r) == []

    def test_nested_sync_helper_unflagged(self):
        r = lint(
            """\
            async def handle(path):
                def emit(line):
                    open(path, "a").write(line)
                return emit
            """,
            "serve/client.py",
        )
        assert codes(r) == []

    def test_outside_serve_scope_unflagged(self):
        r = lint(
            "import time\n"
            "async def handle(request):\n"
            "    time.sleep(0.1)\n",
            "fleet/runner.py",
        )
        assert codes(r) == []

    def test_serve_package_is_clean(self):
        result = analyze_paths(
            [SRC / "repro" / "serve"], select=["RPL701"], cache=False
        )
        assert result.findings == []

    def test_catalogue_lists_rpl701(self):
        assert "RPL701" in all_rules()
        assert any(line.startswith("RPL701") for line in
                   rule_catalogue().splitlines())


# ---------------------------------------------------------------------------
# Ops-log discipline (RPL801)
# ---------------------------------------------------------------------------


class TestOpsLogDiscipline:
    def test_open_append_to_ops_log_path_flagged(self):
        r = lint(
            """\
            import json

            def save(payload):
                with open("serve-ops-log.jsonl", "a") as fh:
                    json.dump(payload, fh)
            """,
            "serve/server.py",
        )
        assert "RPL801" in codes(r)

    def test_json_dump_to_ops_log_variable_flagged(self):
        r = lint(
            """\
            import json

            def save(ops_log_file, payload):
                json.dump(payload, ops_log_file)
            """,
            "cli.py",
        )
        assert codes(r) == ["RPL801"]

    def test_write_text_on_opslog_path_flagged(self):
        r = lint(
            "def f(opslog_path, line):\n"
            "    opslog_path.write_text(line)\n",
            "fleet/runner.py",
        )
        assert codes(r) == ["RPL801"]

    def test_blessed_writer_module_exempt(self):
        r = lint(
            """\
            import json

            def log(self, record):
                with self.path.open("a") as fh:
                    fh.write(json.dumps(record) + "\\n")
            """,
            "obs/opslog.py",
        )
        assert codes(r) == []

    def test_non_ops_writes_unflagged(self):
        r = lint(
            """\
            import json

            def save(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
            """,
            "analysis/export.py",
        )
        assert codes(r) == []

    def test_logger_call_is_the_sanctioned_path(self):
        r = lint(
            "from repro.obs import OpsLogger\n"
            "OpsLogger('ops.jsonl').log({'kind': 'decision'})\n",
            "serve/server.py",
        )
        assert codes(r) == []

    def test_catalogue_lists_rpl801(self):
        assert "RPL801" in all_rules()
        assert any(line.startswith("RPL801") for line in
                   rule_catalogue().splitlines())


# ---------------------------------------------------------------------------
# Learning-ledger discipline (RPL802)
# ---------------------------------------------------------------------------


class TestLearnLogDiscipline:
    def test_open_append_to_learn_log_path_flagged(self):
        r = lint(
            """\
            import json

            def save(payload):
                with open("train-learn-log.jsonl", "a") as fh:
                    json.dump(payload, fh)
            """,
            "core/trainer.py",
        )
        assert "RPL802" in codes(r)

    def test_json_dump_to_learn_log_variable_flagged(self):
        r = lint(
            """\
            import json

            def save(learn_log_file, payload):
                json.dump(payload, learn_log_file)
            """,
            "cli.py",
        )
        assert codes(r) == ["RPL802"]

    def test_write_text_on_learnlog_path_flagged(self):
        r = lint(
            "def f(learnlog_path, line):\n"
            "    learnlog_path.write_text(line)\n",
            "fleet/worker.py",
        )
        assert codes(r) == ["RPL802"]

    def test_blessed_writer_module_exempt(self):
        r = lint(
            """\
            import json

            def log(self, record):
                with self.path.open("a") as fh:
                    fh.write(json.dumps(record) + "\\n")
            """,
            "obs/learn.py",
        )
        assert codes(r) == []

    def test_non_learn_writes_unflagged(self):
        r = lint(
            """\
            import json

            def save(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
            """,
            "analysis/export.py",
        )
        assert codes(r) == []

    def test_recorder_call_is_the_sanctioned_path(self):
        r = lint(
            "from repro.obs import LearnRecorder\n"
            "LearnRecorder('learn.jsonl').log({'episode': 0})\n",
            "core/trainer.py",
        )
        assert codes(r) == []

    def test_catalogue_lists_rpl802(self):
        assert "RPL802" in all_rules()
        assert any(line.startswith("RPL802") for line in
                   rule_catalogue().splitlines())


# ---------------------------------------------------------------------------
# Sole-writer table: every case against every row (RPL501/601/801/802)
# ---------------------------------------------------------------------------

#: code -> (an identifier naming the store, a string constant naming it)
STORE_NAMES = {
    "RPL501": ("ledger_file", ".repro/perf-ledger.jsonl"),
    "RPL601": ("cache_dir", ".repro/cache/entry.json"),
    "RPL801": ("ops_log_file", "serve-ops-log.jsonl"),
    "RPL802": ("learn_log_file", "train-learn-log.jsonl"),
}

sole_writer_rows = pytest.mark.parametrize(
    "row", SOLE_WRITERS, ids=lambda row: row.code
)


@sole_writer_rows
class TestSoleWriterTable:
    def test_table_covers_every_code(self, row):
        assert row.code in STORE_NAMES
        assert all_rules()[row.code].name == row.name

    def test_open_append_to_named_path_flagged(self, row):
        _, constant = STORE_NAMES[row.code]
        r = lint(
            f"""\
            import json

            def save(payload):
                with open("{constant}", "a") as fh:
                    json.dump(payload, fh)
            """,
            "analysis/report.py",
        )
        assert row.code in codes(r)
        assert row.hint in [f.message for f in r.findings]

    def test_json_dump_to_named_variable_flagged(self, row):
        name, _ = STORE_NAMES[row.code]
        r = lint(
            f"import json\ndef save({name}, payload):\n"
            f"    json.dump(payload, {name})\n",
            "cli.py",
        )
        assert codes(r) == [row.code]

    def test_write_text_on_named_path_flagged(self, row):
        name, _ = STORE_NAMES[row.code]
        r = lint(
            f"def f({name}, line):\n    {name}.write_text(line)\n",
            "experiments/e1.py",
        )
        assert codes(r) == [row.code]

    def test_blessed_writer_module_exempt(self, row):
        name, constant = STORE_NAMES[row.code]
        r = lint(
            f"""\
            import json

            def append(self, {name}, record):
                with self.path.open("a") as fh:
                    fh.write(json.dumps(record) + "\\n")
                with open("{constant}", "a") as fh:
                    fh.write("")
                {name}.write_text("")
            """,
            row.blessed,
            select=[row.code],
        )
        assert codes(r) == []

    def test_unrelated_writes_unflagged(self, row):
        r = lint(
            """\
            import json

            def save(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
            """,
            "analysis/export.py",
        )
        assert codes(r) == []

    def test_noqa_silences_the_finding(self, row):
        name, _ = STORE_NAMES[row.code]
        r = lint(
            f"def f({name}, line):\n"
            f"    {name}.write_text(line)  # noqa: {row.code}\n",
            "experiments/e1.py",
        )
        assert codes(r) == []
        assert [f.code for f in r.suppressed] == [row.code]

    def test_catalogue_lists_the_code(self, row):
        assert row.code in all_rules()
        assert any(line.startswith(row.code) for line in
                   rule_catalogue().splitlines())


# ---------------------------------------------------------------------------
# Suppression
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_bare_noqa_silences_line(self):
        r = lint("import time\nx = time.time()  # noqa\n", "sim/x.py")
        assert codes(r) == []
        assert [f.code for f in r.suppressed] == ["RPL001"]

    def test_coded_noqa_matching(self):
        r = lint("import time\nx = time.time()  # noqa: RPL001\n", "sim/x.py")
        assert codes(r) == [] and len(r.suppressed) == 1

    def test_coded_noqa_other_code_keeps_finding(self):
        r = lint("import time\nx = time.time()  # noqa: RPL003\n", "sim/x.py")
        assert codes(r) == ["RPL001"] and r.suppressed == []

    def test_noqa_map_parses_code_lists(self):
        m = noqa_map("a  # noqa: RPL001, rpl002\nb  # noqa\n")
        assert m == {1: {"RPL001", "RPL002"}, 2: None}


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def _finding(line_text: str, code: str = "RPL001", line: int = 2) -> Finding:
    return Finding(
        path="sim/x.py", line=line, col=0, code=code,
        message="m", rule="r", line_text=line_text,
    )


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([_finding("x = time.time()")]).save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 1

    def test_filter_partitions_new_accepted_stale(self, tmp_path):
        old = _finding("x = time.time()")
        gone = _finding("y = time.time()", line=9)
        baseline = Baseline.from_findings([old, gone])
        fresh = _finding("z = random.random()", code="RPL002", line=5)
        split = filter_findings([old, fresh], baseline)
        assert split.accepted == [old]
        assert split.new == [fresh]
        assert split.stale == [gone.fingerprint(0)]

    def test_fingerprint_survives_line_drift(self):
        before = _finding("x = time.time()", line=2)
        after = _finding("x = time.time()", line=40)
        assert before.fingerprint(0) == after.fingerprint(0)

    def test_duplicate_lines_numbered_by_occurrence(self):
        a = _finding("x = time.time()", line=2)
        b = _finding("x = time.time()", line=7)
        baseline = Baseline.from_findings([a, b])
        assert len(baseline) == 2
        split = filter_findings([a, b], baseline)
        assert split.new == [] and split.stale == []

    def test_missing_and_malformed_raise(self, tmp_path):
        with pytest.raises(LintError):
            Baseline.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LintError):
            Baseline.load(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"version": 99, "findings": {}}')
        with pytest.raises(LintError):
            Baseline.load(wrong)


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


class TestOutput:
    FINDINGS = [_finding("x = time.time()")]

    def test_text_has_location_and_summary(self):
        out = render_text(self.FINDINGS, files_checked=3)
        assert "sim/x.py:2:0: RPL001" in out
        assert "1 finding, 3 files checked" in out

    def test_json_schema(self):
        data = json.loads(
            render_json(self.FINDINGS, files_checked=3, suppressed=1)
        )
        assert data["version"] == 1
        assert data["summary"]["by_code"] == {"RPL001": 1}
        assert data["findings"][0]["path"] == "sim/x.py"

    def test_github_annotations_escape_newlines(self):
        f = Finding(
            path="sim/x.py", line=2, col=0, code="RPL001",
            message="bad%\nworse", rule="r",
        )
        out = render_github([f])
        assert out.startswith("::error file=sim/x.py,line=2,col=1,")
        assert "%25" in out and "%0A" in out and "\n" not in out

    def test_render_dispatch(self):
        assert render("text", []) == render_text([])

    def test_catalogue_lists_every_code(self):
        table = rule_catalogue()
        for code in all_rules():
            assert code in table


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def violating_tree(tmp_path):
    """A tiny src tree with one RPL001 violation."""
    pkg = tmp_path / "src" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "engine.py").write_text(
        '"""Engine."""\nimport time\n\nSTART = time.time()\n'
    )
    return tmp_path / "src"


class TestCheckCli:
    @pytest.fixture(autouse=True)
    def _isolated_lintcache(self, tmp_path, monkeypatch):
        """Keep ``repro check``'s default cache away from the checkout."""
        monkeypatch.setenv("REPRO_LINTCACHE_DIR", str(tmp_path / "_lintcache"))

    def test_finding_exits_1(self, violating_tree, capsys):
        code = main(["check", str(violating_tree), "--no-baseline"])
        assert code == 1
        assert "RPL001" in capsys.readouterr().out

    def test_ignore_family_exits_0(self, violating_tree):
        code = main(
            ["check", str(violating_tree), "--no-baseline", "--ignore", "RPL0"]
        )
        assert code == 0

    def test_json_format_parses(self, violating_tree, capsys):
        main(["check", str(violating_tree), "--no-baseline", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["count"] == 1

    def test_baseline_write_then_gate(self, violating_tree, tmp_path, capsys):
        baseline = tmp_path / "lint-baseline.json"
        assert main(
            ["check", str(violating_tree),
             "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        assert baseline.is_file()
        capsys.readouterr()
        assert main(
            ["check", str(violating_tree), "--baseline", str(baseline)]
        ) == 0
        assert "accepted by baseline" in capsys.readouterr().out

    def test_default_baseline_discovered_in_cwd(
        self, violating_tree, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["check", str(violating_tree), "--write-baseline"]) == 0
        assert (tmp_path / "lint-baseline.json").is_file()
        assert main(["check", str(violating_tree)]) == 0

    def test_stale_entries_reported(self, violating_tree, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        main(["check", str(violating_tree),
              "--baseline", str(baseline), "--write-baseline"])
        engine = violating_tree / "sim" / "engine.py"
        engine.write_text('"""Engine."""\nSTART = 0.0\n')
        capsys.readouterr()
        assert main(
            ["check", str(violating_tree), "--baseline", str(baseline)]
        ) == 0
        assert "stale" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        assert "RPL301" in capsys.readouterr().out

    def test_bad_selector_is_cli_error(self, violating_tree, capsys):
        code = main(["check", str(violating_tree), "--select", "RPL999"])
        assert code == 1
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The repo gate and regression sentinels
# ---------------------------------------------------------------------------


class TestRepoGate:
    def test_src_tree_clean_against_committed_baseline(self):
        result = analyze_paths([SRC], project_root=REPO_ROOT, cache=False)
        baseline_path = REPO_ROOT / "lint-baseline.json"
        findings = result.findings
        if baseline_path.is_file():
            findings = filter_findings(
                findings, Baseline.load(baseline_path)
            ).new
        assert findings == [], [f.location() for f in findings]

    def _mutated(self, relpath: str, old: str, new: str):
        source = (SRC / "repro" / relpath).read_text(encoding="utf-8")
        assert old in source, f"sentinel {old!r} missing from {relpath}"
        return check_source(
            source.replace(old, new),
            f"src/repro/{relpath}",
            project_root=REPO_ROOT,
        )

    def test_removing_engine_obs_guard_is_caught(self):
        r = self._mutated("sim/engine.py", "if OBS.enabled:", "if True:")
        assert "RPL301" in codes(r)

    def test_unseeding_the_agent_rng_is_caught(self):
        r = self._mutated(
            "rl/double_q.py", "default_rng(", "default_rng() or ("
        )
        assert "RPL002" in codes(r)

    def test_float_leak_into_datapath_is_caught(self):
        r = self._mutated("hw/datapath.py", "return td", "return td * 0.25")
        assert "RPL201" in codes(r)

    def test_wall_clock_in_worker_is_caught(self):
        r = self._mutated(
            "fleet/worker.py", "time.perf_counter()", "time.time()"
        )
        assert "RPL001" in codes(r)

    def test_wall_clock_in_batch_backend_is_caught(self):
        r = self._mutated(
            "batch/engine.py",
            "    scheduler = HMPScheduler()\n\n    opps",
            "    scheduler = HMPScheduler()\n    started = time.time()\n\n    opps",
        )
        assert [(f.code, f.line_text.strip()) for f in r.findings] == [
            ("RPL001", "started = time.time()")
        ]

    def test_global_rng_in_batch_trainer_is_caught(self):
        r = self._mutated(
            "batch/rl.py",
            "    first = jobs[0]\n",
            "    noise = np.random.rand()\n    first = jobs[0]\n",
        )
        assert [(f.code, f.line_text.strip()) for f in r.findings] == [
            ("RPL002", "noise = np.random.rand()")
        ]

    def test_renaming_metric_back_is_caught(self):
        r = self._mutated(
            "qos/energy_per_qos.py",
            "def energy_per_qos_j(",
            "def energy_per_qos(",
        )
        assert "RPL102" in codes(r)
