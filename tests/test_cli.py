"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.chip == "exynos5422"
        assert args.governor == "ondemand"

    def test_unknown_chip_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--chip", "snapdragon"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "exynos5422" in out
        assert "ondemand" in out
        assert "rl-policy" in out

    def test_run_tiny(self, capsys):
        code = main([
            "run", "--chip", "tiny", "--scenario", "audio_playback",
            "--governor", "ondemand", "--duration", "2.0",
        ])
        assert code == 0
        assert "E/QoS" in capsys.readouterr().out

    def test_run_unknown_governor_is_error(self, capsys):
        code = main([
            "run", "--chip", "tiny", "--scenario", "idle",
            "--governor", "warp", "--duration", "1.0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_latency_table(self, capsys):
        assert main(["latency", "--chip", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_latency_json(self, capsys):
        assert main(["latency", "--chip", "tiny", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chip"] == "tiny"
        assert payload["rows"] and {"label", "software_s", "hardware_s",
                                    "speedup"} <= set(payload["rows"][0])
        assert payload["typical_speedup"] > 1.0
        assert payload["best_case_speedup"] > payload["typical_speedup"]
        assert payload["paper"] == {
            "typical_speedup": 3.92, "best_case_speedup": 40.0,
        }

    def test_compare_quick(self, capsys):
        code = main([
            "compare", "--chip", "tiny", "--scenario", "audio_playback",
            "--governors", "performance,powersave",
            "--duration", "2.0", "--episodes", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rl-policy" in out
        assert "performance" in out

    def test_fleet_rows_match_the_serial_reference(self, capsys, tmp_path):
        from dataclasses import fields

        from repro.fleet import JobSpec
        from repro.fleet.worker import simulate_spec

        out = tmp_path / "fleet.json"
        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "performance", "--include-rl", "--seeds", "1,2",
            "--episodes", "2", "--duration", "1", "--jobs", "1", "--quiet",
            "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["governor"] for row in rows] == [
            "performance", "performance", "rl-policy", "rl-policy"]
        # The two RL jobs ran as one lock-step chunk: equal wall shares.
        assert rows[2]["wall_s"] == rows[3]["wall_s"]
        names = {f.name for f in fields(JobSpec)}
        for row in rows:
            run = simulate_spec(JobSpec.from_mapping(
                {k: v for k, v in row.items() if k in names}))
            assert (row["energy_j"], row["mean_qos"],
                    row["deadline_miss_rate"], row["energy_per_qos_j"]) == (
                run.total_energy_j, run.qos.mean_qos,
                run.qos.deadline_miss_rate, run.energy_per_qos_j)

    def test_train_and_run_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "ck"
        code = main([
            "train", "--chip", "tiny", "--scenario", "audio_playback",
            "--episodes", "2", "--duration", "2.0", "--out", str(ckpt),
        ])
        assert code == 0
        assert "checkpoint saved" in capsys.readouterr().out
        code = main([
            "run", "--chip", "tiny", "--scenario", "audio_playback",
            "--governor", f"checkpoint:{ckpt}", "--duration", "2.0",
        ])
        assert code == 0
        assert "rl-policy" in capsys.readouterr().out

    def test_train_save_flag_overrides_out(self, capsys, tmp_path):
        ckpt = tmp_path / "saved"
        code = main([
            "train", "--chip", "tiny", "--scenario", "audio_playback",
            "--episodes", "2", "--duration", "2.0", "--save", str(ckpt),
        ])
        assert code == 0
        assert str(ckpt) in capsys.readouterr().out
        manifest = json.loads((ckpt / "policy.json").read_text())
        assert manifest["engine_version"]

    def test_profile_scenario(self, capsys):
        code = main(["profile", "--scenario", "audio_playback", "--duration", "5.0"])
        assert code == 0
        assert "demand" in capsys.readouterr().out

    def test_profile_trace_csv(self, capsys, tmp_path):
        from repro.workload.scenarios import get_scenario

        path = tmp_path / "t.csv"
        get_scenario("audio_playback").trace(3.0, seed=0).to_csv(path)
        code = main(["profile", "--trace", str(path)])
        assert code == 0
        assert "demand" in capsys.readouterr().out

    def test_report(self, capsys, tmp_path):
        out = tmp_path / "REPORT.md"
        code = main(["report", "--experiments", "e4,a6", "--out", str(out)])
        assert code == 0
        assert out.is_file()
        assert "## E4" in out.read_text()

    def test_run_with_chip_file(self, capsys, tmp_path):
        import json

        from repro.soc.devicetree import chip_to_dict
        from repro.soc.presets import tiny_test_chip

        path = tmp_path / "soc.json"
        path.write_text(json.dumps(chip_to_dict(tiny_test_chip())))
        code = main([
            "run", "--chip-file", str(path), "--scenario", "audio_playback",
            "--governor", "ondemand", "--duration", "2.0",
        ])
        assert code == 0
        assert "ondemand" in capsys.readouterr().out

    def test_run_with_bad_chip_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code = main([
            "run", "--chip-file", str(path), "--scenario", "idle",
            "--duration", "1.0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_report_unknown_id(self, capsys, tmp_path):
        code = main([
            "report", "--experiments", "e99", "--out", str(tmp_path / "r.md"),
        ])
        assert code == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestObservabilityCLI:
    def test_trace_command_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out = tmp_path / "t.json"
        code = main([
            "trace", "idle", "--chip", "tiny", "--governor", "ondemand",
            "--duration", "1.0", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "spans" in stdout and str(out) in stdout
        events = json.loads(out.read_text())["traceEvents"]
        assert any(e.get("name", "").startswith("engine.phase.")
                   for e in events)

    def test_trace_command_rl_policy_jsonl(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        out = tmp_path / "t.jsonl"
        prom = tmp_path / "t.prom"
        code = main([
            "trace", "audio_playback", "--chip", "tiny",
            "--duration", "1.0", "--episodes", "2",
            "--format", "jsonl", "--out", str(out), "--metrics", str(prom),
        ])
        assert code == 0
        spans, instants, snapshot = read_jsonl(out)
        assert spans
        assert sum(1 for i in instants if i.name == "rl.episode") == 2
        assert snapshot["counters"]["rl.episodes"] == 2.0
        assert "repro_rl_episodes 2" in prom.read_text()

    def test_run_trace_and_metrics_flags(self, capsys, tmp_path):
        import json

        trace_file = tmp_path / "run.json"
        prom = tmp_path / "run.prom"
        code = main([
            "run", "--chip", "tiny", "--scenario", "idle",
            "--duration", "1.0", "--trace", str(trace_file),
            "--metrics", str(prom),
        ])
        assert code == 0
        assert json.loads(trace_file.read_text())["traceEvents"]
        assert "repro_sim_runs 1" in prom.read_text()

    def test_run_without_flags_leaves_obs_disabled(self, capsys):
        from repro.obs import OBS

        code = main([
            "run", "--chip", "tiny", "--scenario", "idle",
            "--duration", "1.0",
        ])
        assert code == 0
        assert not OBS.enabled

    def test_profile_prints_phase_breakdown(self, capsys, tmp_path):
        out = tmp_path / "prof.json"
        code = main([
            "profile", "--chip", "tiny", "--scenario", "idle",
            "--duration", "2.0", "--trace-out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "engine phase breakdown" in stdout
        assert "engine.phase.governor" in stdout
        assert out.is_file()

    @staticmethod
    def _phase_rows(stdout: str) -> list[str]:
        """The breakdown table's rows, without the run-specific title."""
        lines = stdout.splitlines()
        start = next(
            k for k, line in enumerate(lines)
            if line.startswith("engine phase breakdown")
        )
        rows = [line for line in lines[start + 1:]
                if line.startswith(("phase ", "---", "engine.phase."))]
        assert sum(r.startswith("engine.phase.") for r in rows) == 5
        return rows

    def test_profile_from_saved_trace(self, capsys, tmp_path):
        """Offline re-profiling: no simulation, just the saved counters,
        printing the live run's rows."""
        out = tmp_path / "prof.json"
        assert main([
            "profile", "--chip", "tiny", "--scenario", "idle",
            "--duration", "2.0", "--trace-out", str(out),
        ]) == 0
        live = self._phase_rows(capsys.readouterr().out)
        code = main(["profile", "--from-trace", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "engine phase breakdown" in stdout
        assert self._phase_rows(stdout) == live

    def test_profile_from_jsonl_trace(self, capsys, tmp_path):
        from repro import obs
        from repro.governors import create
        from repro.sim.engine import Simulator
        from repro.soc.presets import tiny_test_chip
        from repro.workload.scenarios import get_scenario

        trace = get_scenario("idle").trace(2.0, seed=0)
        with obs.capture() as session:
            Simulator(tiny_test_chip(), trace,
                      lambda cluster: create("ondemand")).run()
        live = obs.format_breakdown(
            obs.phase_breakdown(session.metrics.snapshot()),
            title="engine phase breakdown",
        )
        path = obs.write_jsonl(tmp_path / "t.jsonl", session.tracer,
                               session.metrics)
        assert main(["profile", "--from-trace", str(path)]) == 0
        assert self._phase_rows(capsys.readouterr().out) == \
            self._phase_rows(live)

    def test_profile_from_merged_fleet_trace(self, capsys, tmp_path):
        """A two-job merged fleet trace profiles the whole grid: the
        rows equal the breakdown of the jobs' merged metric snapshots."""
        from repro import obs
        from repro.fleet import (
            FleetSpec,
            merge_job_metrics,
            run_fleet,
            trace_paths,
        )

        spec = FleetSpec(scenarios=("idle",),
                         governors=("ondemand", "powersave"), seeds=(1,),
                         chips=("tiny",), duration_s=1.0,
                         trace_dir=str(tmp_path / "traces"))
        result = run_fleet(spec, jobs=2)
        assert len(result.successes) == 2
        merged = tmp_path / "merged.json"
        obs.merge_trace_files(trace_paths(result.successes), out=merged)
        live = obs.format_breakdown(
            obs.phase_breakdown(merge_job_metrics(result.successes)),
            title="engine phase breakdown",
        )
        assert main(["profile", "--from-trace", str(merged)]) == 0
        rows = self._phase_rows(capsys.readouterr().out)
        assert rows == self._phase_rows(live)
        intervals = 2 * 100  # two 1 s jobs at the 10 ms interval
        assert all(f" {intervals} " in r for r in rows
                   if r.startswith("engine.phase."))

    def test_trace_without_scenario_or_merge_is_error(self, capsys):
        code = main(["trace"])
        assert code == 1
        assert "scenario" in capsys.readouterr().err

    def test_log_level_flag_emits_diagnostics(self, capsys):
        code = main([
            "run", "--chip", "tiny", "--scenario", "idle",
            "--duration", "1.0", "--log-level", "info",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "INFO repro.cli" in err and "scenario=idle" in err

    def test_log_level_defaults_to_quiet(self, capsys):
        code = main([
            "run", "--chip", "tiny", "--scenario", "idle",
            "--duration", "1.0",
        ])
        assert code == 0
        assert "INFO" not in capsys.readouterr().err

    def test_fleet_cache_round_trip_and_cache_commands(self, capsys,
                                                       tmp_path):
        import json

        flags = [
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "performance,powersave", "--seeds", "1",
            "--duration", "1.0", "--jobs", "1", "--quiet",
            "--cache", "--cache-dir", str(tmp_path / "cache"),
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(flags + ["--out", str(out_a)]) == 0
        capsys.readouterr()
        assert main(flags + ["--out", str(out_b)]) == 0
        stdout = capsys.readouterr().out
        assert "2 of 2 jobs served from the run cache" in stdout

        cold = json.loads(out_a.read_text())
        warm = json.loads(out_b.read_text())
        assert cold["cache_hits"] == 0 and warm["cache_hits"] == 2
        assert all(row["cached"] for row in warm["rows"])
        for a, b in zip(cold["rows"], warm["rows"]):
            assert b["energy_per_qos_j"] == a["energy_per_qos_j"]

        dir_flag = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["cache", "list"] + dir_flag) == 0
        assert "tiny/idle/performance/s1" in capsys.readouterr().out
        assert main(["cache", "stats"] + dir_flag) == 0
        assert "entries:        2" in capsys.readouterr().out
        assert main(["cache", "clear"] + dir_flag) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_fleet_no_cache_is_the_default(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.cache import CACHE_ENV_VAR

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "untouched"))
        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "performance", "--seeds", "1",
            "--duration", "1.0", "--jobs", "1", "--quiet",
        ])
        assert code == 0
        assert not (tmp_path / "untouched").exists()

    def test_fleet_progress_none_is_silent(self, capsys, tmp_path):
        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "ondemand", "--seeds", "1",
            "--duration", "1.0", "--jobs", "1", "--progress", "none",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_fleet_progress_live_renders_bar(self, capsys):
        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "ondemand", "--seeds", "1",
            "--duration", "1.0", "--jobs", "1", "--progress", "live",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[#" in err and "1/1" in err

    def test_fleet_plain_progress_is_timestamped(self, capsys):
        import re

        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "ondemand", "--seeds", "1",
            "--duration", "1.0", "--jobs", "1",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert re.search(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2} fleet:",
                         err, re.M)

    def test_fleet_metrics_flag_writes_merged_snapshot(self, capsys, tmp_path):
        prom = tmp_path / "fleet.prom"
        code = main([
            "fleet", "--chip", "tiny", "--scenarios", "idle",
            "--governors", "ondemand,powersave", "--seeds", "1",
            "--duration", "1.0", "--jobs", "1", "--quiet",
            "--metrics", str(prom),
        ])
        assert code == 0
        text = prom.read_text()
        assert "repro_sim_runs 2" in text
