"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands:

* ``list`` — show available chips, scenarios, and governors.
* ``run`` — simulate one governor on one scenario and print the summary.
* ``train`` — train the RL policy on a scenario and save a checkpoint.
* ``compare`` — the headline comparison (RL vs. baselines) on one scenario.
* ``fleet`` — run a scenarios x governors x seeds grid across worker
  processes, through the vectorised batch backend; ``rl-policy`` jobs
  sharing a configuration train lock-step (see ``docs/fleet.md``).
* ``latency`` — the software-vs-hardware decision-latency table
  (``--format json`` adds the typical/best-case speedups plus the
  paper's claims for programmatic comparison).
* ``serve`` — the long-running policy-decision service: boot a trained
  checkpoint and answer JSONL decision/simulation requests with
  backpressure and graceful drain (see ``docs/serving.md``).
* ``decide`` — one-shot serve client: observations in, decisions out.
* ``trace`` — run instrumented and write a Chrome ``trace_event`` file
  (plus RL convergence instants) loadable in Perfetto.
* ``profile`` — characterise a scenario or a trace CSV, and print the
  per-phase engine time breakdown.
* ``report`` — run selected experiments and write a markdown report.
* ``check`` — run the repo's invariant-aware static analysis
  (``repro.lint``) over source paths; the CI lint gate
  (see ``docs/static-analysis.md``).
* ``perf`` — the performance ledger: ``perf list`` shows recorded runs,
  ``perf compare <baseline-ledger>`` classifies metric shifts against a
  reference ledger, and ``perf gate`` is the CI regression gate
  (see the "Performance ledger" section of ``docs/observability.md``).

``run --governor checkpoint:<dir>`` evaluates a saved policy checkpoint
instead of a named governor; the same spelling works in ``fleet
--governors``.  ``compare``/``report``/``fleet`` accept ``--jobs N``
(0 = CPU count) to fan simulation jobs out over worker processes.

Every subcommand takes ``--log-level debug|info|warning|error``
(stderr diagnostics through the ``repro`` logger hierarchy), and
``run``/``compare``/``fleet`` take ``--trace FILE`` / ``--metrics FILE``
to capture observability output (see ``docs/observability.md``).
``run``/``compare``/``fleet`` also take ``--ledger [FILE]`` to append
the run's metrics to the performance ledger (bare ``--ledger`` uses
``$REPRO_PERF_LEDGER`` or ``.repro/perf-ledger.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from contextlib import contextmanager

from repro.analysis.sweep import run_baseline, sweep
from repro.analysis.tables import format_table
from repro.core.checkpoint import load_policies, save_policies
from repro.core.trainer import train_policy
from repro.errors import ReproError
from repro.governors import available, create
from repro.hw.latency import compare_latency
from repro.sim.engine import Simulator
from repro.soc.presets import PRESETS
from repro.workload.scenarios import SCENARIOS, get_scenario

log = logging.getLogger("repro.cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


class _StderrHandler(logging.Handler):
    """Resolves ``sys.stderr`` at emit time, so output redirection
    (tests, shells) after configuration still works."""

    def emit(self, record: logging.LogRecord) -> None:
        print(self.format(record), file=sys.stderr)


def _configure_logging(level_name: str) -> None:
    """Point the ``repro`` logger hierarchy at stderr at the chosen level.

    Idempotent: repeated ``main()`` calls (tests) re-use the handler and
    only adjust the level.
    """
    root = logging.getLogger("repro")
    root.setLevel(getattr(logging, level_name.upper()))
    if not root.handlers:
        handler = _StderrHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)
    root.propagate = False


@contextmanager
def _obs_session(trace_path: str | None, metrics_path: str | None,
                 trace: bool = True, force: bool = False):
    """An observability capture when any output path asks for one.

    Yields ``None`` (and stays zero-overhead) when neither ``--trace``
    nor ``--metrics`` was given and ``force`` is off (``--ledger`` runs
    force a metrics capture so decision-latency percentiles land in the
    ledger).
    """
    if not (trace_path or metrics_path or force):
        yield None
        return
    from repro import obs

    with obs.capture(trace=trace) as session:
        yield session


def _ledger_path(args: argparse.Namespace) -> str | None:
    """The ``--ledger`` value, with bare ``--ledger`` (empty string)
    mapped to ``None`` so :func:`repro.perf.resolve_ledger_path` applies
    the env-var/default resolution."""
    return getattr(args, "ledger", None) or None


def _ledger_requested(args: argparse.Namespace) -> bool:
    """Whether ``--ledger`` was given at all (bare or with a path)."""
    return getattr(args, "ledger", None) is not None


def _record_result(
    kind: str,
    name: str,
    result,
    config: dict,
    args: argparse.Namespace,
    session=None,
    run_id: str | None = None,
) -> None:
    """Append one simulation result to the performance ledger."""
    from repro import perf

    metrics = {
        "energy_j": result.total_energy_j,
        "mean_qos": result.qos.mean_qos,
        "deadline_miss_rate": result.qos.deadline_miss_rate,
        "energy_per_qos_j": result.energy_per_qos_j,
    }
    if session is not None:
        metrics.update(perf.metrics_from_snapshot(session.metrics.snapshot()))
    record = perf.record_run(
        kind, name, metrics, config,
        run_id=run_id, path=_ledger_path(args),
    )
    print(
        f"ledger: recorded {record.kind}:{record.name} "
        f"({len(record.metrics)} metrics, run {record.run_id}) "
        f"to {perf.resolve_ledger_path(_ledger_path(args))}"
    )


def _write_obs(session, trace_path: str | None,
               metrics_path: str | None) -> None:
    """Write the session's Chrome trace / Prometheus text outputs."""
    if session is None:
        return
    from repro import obs

    if trace_path:
        obs.write_chrome_trace(trace_path, session.tracer, session.metrics)
        print(
            f"chrome trace written to {trace_path} "
            f"({len(session.tracer.spans)} spans, "
            f"{len(session.tracer.instants)} instants)"
        )
    if metrics_path:
        with open(metrics_path, "w") as fh:
            fh.write(obs.prometheus_text(session.metrics))
        print(f"metrics written to {metrics_path}")


def _cmd_list(args: argparse.Namespace) -> int:
    print("chips:     ", ", ".join(sorted(PRESETS)))
    print("scenarios:")
    for name in sorted(SCENARIOS):
        print(f"  {name:<16s} {SCENARIOS[name].description}")
    print("governors: ", ", ".join(available() + ["rl-policy"]))
    return 0


def _resolve_chip(args: argparse.Namespace):
    """Build the chip from --chip-file when given, else the preset."""
    if getattr(args, "chip_file", None):
        from repro.soc.devicetree import chip_from_json

        return chip_from_json(args.chip_file)
    return PRESETS[args.chip]()


def _cmd_run(args: argparse.Namespace) -> int:
    chip = _resolve_chip(args)
    scenario = get_scenario(args.scenario)
    log.info(
        "run: chip=%s scenario=%s governor=%s duration=%.1fs seed=%d",
        args.chip_file or args.chip, args.scenario, args.governor,
        args.duration, args.seed,
    )
    with _obs_session(
        args.trace, args.metrics, force=_ledger_requested(args)
    ) as session:
        if args.governor.startswith("checkpoint:"):
            policies = load_policies(
                args.governor.removeprefix("checkpoint:"), chip=chip
            )
            trace = scenario.trace(args.duration, seed=args.seed)
            result = Simulator(chip, trace, policies).run()
        else:
            result = run_baseline(
                chip, scenario, args.governor,
                duration_s=args.duration, seed=args.seed,
            )
    log.info("run finished: energy=%.3f J mean_qos=%.3f",
             result.total_energy_j, result.qos.mean_qos)
    print(result.summary())
    _write_obs(session, args.trace, args.metrics)
    if _ledger_requested(args):
        _record_result(
            "run", args.scenario, result,
            {
                "chip": args.chip_file or args.chip,
                "governor": args.governor,
                "seed": args.seed,
                "duration_s": args.duration,
            },
            args, session=session,
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    chip = _resolve_chip(args)
    scenario = get_scenario(args.scenario)
    recorder = None
    if args.learn_log:
        from repro.obs import LearnRecorder

        recorder = LearnRecorder(args.learn_log)
    training = train_policy(
        chip,
        scenario,
        episodes=args.episodes,
        episode_duration_s=args.duration,
        recorder=recorder,
    )
    for record in training.history:
        print(
            f"episode {record.episode:3d}: "
            f"E/QoS = {record.energy_per_qos_j * 1e3:8.3f} mJ/unit  "
            f"QoS = {record.mean_qos:.3f}"
        )
    path = save_policies(training.policies, args.save or args.out)
    print(f"checkpoint saved to {path}")
    if recorder is not None:
        print(
            f"learning ledger: {recorder.written} record(s) appended to "
            f"{recorder.path}"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    chip = _resolve_chip(args)
    log.info(
        "compare: chip=%s scenario=%s governors=%s episodes=%d jobs=%d",
        args.chip, args.scenario, args.governors, args.episodes, args.jobs,
    )
    with _obs_session(args.trace, args.metrics) as session:
        result = sweep(
            chip,
            [args.scenario],
            args.governors.split(","),
            include_rl=True,
            duration_s=args.duration,
            train_episodes=args.episodes,
            jobs=args.jobs,
        )
    rows = [
        (r.governor, r.energy_j, r.mean_qos, r.energy_per_qos_j * 1e3)
        for r in result.rows
    ]
    print(
        format_table(
            ["governor", "energy [J]", "QoS", "E/QoS [mJ/unit]"],
            rows,
            title=f"scenario: {args.scenario}",
        )
    )
    _write_obs(session, args.trace, args.metrics)
    if _ledger_requested(args):
        from repro import perf

        run_id = perf.new_run_id()
        for r in result.rows:
            perf.record_run(
                "compare", r.scenario,
                {
                    "energy_j": r.energy_j,
                    "mean_qos": r.mean_qos,
                    "deadline_miss_rate": r.deadline_miss_rate,
                    "energy_per_qos_j": r.energy_per_qos_j,
                },
                {
                    "chip": args.chip,
                    "governor": r.governor,
                    "duration_s": args.duration,
                },
                run_id=run_id, path=_ledger_path(args),
            )
        print(
            f"ledger: recorded {len(result.rows)} compare rows "
            f"(run {run_id}) to "
            f"{perf.resolve_ledger_path(_ledger_path(args))}"
        )
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    chip = PRESETS[args.chip]()
    rows = []
    for cluster in chip:
        for opp in cluster.spec.opp_table:
            cmp = compare_latency(opp.freq_hz, label=f"{cluster.spec.name}@{opp.freq_mhz:.0f}MHz")
            rows.append(cmp)
    if args.format == "json":
        from repro.experiments.latency import (
            PAPER_BEST_CASE_SPEEDUP,
            PAPER_TYPICAL_SPEEDUP,
            e4_decision_latency,
        )

        e4 = e4_decision_latency(chip=chip)
        payload = {
            "chip": args.chip,
            "rows": [
                {
                    "label": r.label,
                    "software_s": r.software_s,
                    "hardware_s": r.hardware_s,
                    "speedup": r.speedup,
                }
                for r in rows
            ],
            "typical_speedup": e4.typical.speedup,
            "best_case_speedup": e4.best_case.speedup,
            "paper": {
                "typical_speedup": PAPER_TYPICAL_SPEEDUP,
                "best_case_speedup": PAPER_BEST_CASE_SPEEDUP,
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        format_table(
            ["CPU operating point", "SW [us]", "HW [us]", "speedup"],
            [
                (r.label, r.software_s * 1e6, r.hardware_s * 1e6, r.speedup)
                for r in rows
            ],
            title="decision latency, software vs hardware policy",
        )
    )
    return 0


def _serve_config(args: argparse.Namespace):
    from repro.serve import ServeConfig

    return ServeConfig(
        workers=args.workers,
        queue_size=args.queue_size,
        default_deadline_s=args.deadline,
        drain_timeout_s=args.drain_timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """The policy-decision daemon: JSONL requests in, JSONL replies out.

    Replies and only replies go to stdout (completion order, correlated
    by ``request_id``); status and stats go to stderr so the reply
    stream stays machine-parseable.
    """
    import asyncio

    from repro.serve import PolicyServer, serve_jsonl

    ops_log = None
    if args.ops_log:
        from repro.obs import OpsLogger

        ops_log = OpsLogger(args.ops_log)
    server = PolicyServer.from_checkpoint(
        args.checkpoint, chip=args.chip, config=_serve_config(args),
        ops_log=ops_log, drift_reference=args.drift_reference,
    )
    stream = open(args.requests) if args.requests else sys.stdin

    def write_reply(mapping: dict) -> None:
        print(json.dumps(mapping), flush=True)

    try:
        with _obs_session(None, args.metrics, trace=False,
                          force=_ledger_requested(args)) as session:
            async def _run() -> int:
                await server.start()
                return await serve_jsonl(server, stream.readline, write_reply)

            submitted = asyncio.run(_run())
    finally:
        if args.requests:
            stream.close()
    stats = server.stats
    print(
        f"serve: {submitted} submitted, {stats.served} served "
        f"({stats.served_decisions} decisions, "
        f"{stats.served_simulations} simulations), "
        f"{stats.rejected} rejected",
        file=sys.stderr,
    )
    if server.drift is not None:
        drift = server.drift
        print(
            f"drift: {drift.disagreements}/{drift.decisions} decision(s) "
            f"disagreed with the reference checkpoint",
            file=sys.stderr,
        )
    if ops_log is not None:
        print(
            f"ops log: {ops_log.written} record(s) appended to "
            f"{ops_log.path}",
            file=sys.stderr,
        )
    if session is not None and args.metrics:
        from repro import obs

        with open(args.metrics, "w") as fh:
            fh.write(obs.prometheus_text(session.metrics))
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    if _ledger_requested(args) and session is not None:
        from repro import perf

        record = perf.record_run(
            "serve", "jsonl",
            perf.metrics_from_snapshot(session.metrics.snapshot()),
            {
                "chip": args.chip,
                "workers": args.workers,
                "queue_size": args.queue_size,
            },
            path=_ledger_path(args),
        )
        print(
            f"ledger: recorded serve:jsonl ({len(record.metrics)} metrics, "
            f"run {record.run_id}) to "
            f"{perf.resolve_ledger_path(_ledger_path(args))}",
            file=sys.stderr,
        )
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    """One-shot client: answer request mappings from a flag or a file.

    Every request gets a trace_id stamped client-side (unless it
    already carries one), the replies echo it in their JSON, and a
    stderr line summarises the correlation ids so the run can be joined
    against server-side ops logs and merged traces.
    """
    import asyncio
    from dataclasses import replace as _replace

    from repro.obs import new_trace_id
    from repro.serve import (
        PolicyServer,
        reply_to_mapping,
        request_from_mapping,
        serve_once,
    )

    server = PolicyServer.from_checkpoint(
        args.checkpoint, chip=args.chip, config=_serve_config(args)
    )
    payloads = []
    if args.observation:
        payloads.append(
            {"kind": "decision", "observation": json.loads(args.observation)}
        )
    if args.requests:
        with open(args.requests) as fh:
            payloads.extend(
                json.loads(line) for line in fh if line.strip()
            )
    if not payloads:
        raise ReproError(
            "nothing to decide: pass --observation JSON and/or --requests FILE"
        )
    requests = [
        _replace(r, trace_id=r.trace_id or new_trace_id())
        for r in (request_from_mapping(p, server.chip) for p in payloads)
    ]
    replies = asyncio.run(serve_once(server, requests))
    for reply in replies:
        print(json.dumps(reply_to_mapping(reply)))
    for reply in replies:
        mapping = reply_to_mapping(reply)
        print(
            f"decide: {mapping['kind']} trace_id={mapping['trace_id']} "
            f"request_id={mapping['request_id'] or '-'}",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.trainer import evaluate_policy

    if args.merge:
        merged = obs.merge_trace_files(args.merge, out=args.out)
        lanes = obs.trace_lanes(merged)
        print(
            f"merged {len(args.merge)} trace(s) "
            f"({len(merged['traceEvents'])} events, "
            f"{len(lanes)} lane(s): pids {lanes}) into {args.out}"
        )
        print("open in https://ui.perfetto.dev or chrome://tracing")
        return 0
    if args.scenario is None:
        raise ReproError("a scenario is required unless --merge is given")

    chip = _resolve_chip(args)
    scenario = get_scenario(args.scenario)
    log.info(
        "trace: scenario=%s governor=%s duration=%.1fs -> %s",
        args.scenario, args.governor, args.duration, args.out,
    )
    with obs.capture() as session:
        if args.governor == "rl-policy":
            training = train_policy(
                chip,
                scenario,
                episodes=args.episodes,
                episode_duration_s=args.duration,
            )
            result = evaluate_policy(
                chip, training.policies,
                scenario.trace(args.duration, seed=args.seed),
            )
        elif args.governor.startswith("checkpoint:"):
            policies = load_policies(
                args.governor.removeprefix("checkpoint:"), chip=chip
            )
            result = evaluate_policy(
                chip, policies, scenario.trace(args.duration, seed=args.seed)
            )
        else:
            result = run_baseline(
                chip, scenario, args.governor,
                duration_s=args.duration, seed=args.seed,
            )
    tracer = session.tracer
    if args.format == "chrome":
        obs.write_chrome_trace(args.out, tracer, session.metrics)
    else:
        obs.write_jsonl(args.out, tracer, session.metrics)
    print(result.summary())
    print()
    print(
        f"{len(tracer.spans)} spans, {len(tracer.instants)} instants "
        f"({len(tracer.span_names())} span names) written to {args.out}"
    )
    if args.format == "chrome":
        print("open in https://ui.perfetto.dev or chrome://tracing")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(obs.prometheus_text(session.metrics))
        print(f"metrics written to {args.metrics}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.workload.characterize import profile
    from repro.workload.trace import Trace

    if args.from_trace:
        # Offline re-profiling: phase breakdown straight from the metrics
        # saved in a trace file (Chrome or JSONL), no simulation run.
        print(
            obs.format_breakdown(
                obs.phase_breakdown(obs.load_snapshot(args.from_trace)),
                title=f"engine phase breakdown ({args.from_trace})",
            )
        )
        return 0

    if args.trace:
        trace = Trace.from_csv(args.trace)
    else:
        trace = get_scenario(args.scenario).trace(args.duration, seed=args.seed)
    print(profile(trace).summary())

    chip = _resolve_chip(args)
    governor_name = args.governor
    create(governor_name)  # fail fast on unknown names
    with obs.capture() as session:
        Simulator(chip, trace, lambda cluster: create(governor_name)).run()
    print()
    print(
        obs.format_breakdown(
            obs.phase_breakdown(session.metrics.snapshot()),
            title=(
                f"engine phase breakdown ({governor_name}, "
                f"{trace.duration_s:.1f} s simulated)"
            ),
        )
    )
    if args.trace_out:
        obs.write_chrome_trace(args.trace_out, session.tracer, session.metrics)
        print(f"chrome trace written to {args.trace_out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportConfig, generate_report

    config = ReportConfig(
        experiments=args.experiments.split(","),
        duration_s=args.duration,
        train_episodes=args.episodes,
        jobs=args.jobs,
    )
    generate_report(config, path=args.out)
    print(f"report written to {args.out}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.fleet import (
        FleetFinished,
        FleetProgress,
        FleetSpec,
        failure_table,
        fleet_summary,
        format_event,
        format_progress_line,
        result_table,
        run_fleet,
    )

    if args.spec:
        with open(args.spec) as fh:
            try:
                mapping = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ReproError(f"invalid JSON in {args.spec}: {exc}") from exc
        spec = FleetSpec.from_mapping(mapping)
    else:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError as exc:
            raise ReproError(
                f"--seeds must be comma-separated integers: {args.seeds!r}"
            ) from exc
        spec = FleetSpec(
            scenarios=tuple(args.scenarios.split(",")),
            governors=tuple(args.governors.split(",")),
            seeds=seeds,
            chips=tuple(args.chip.split(",")),
            include_rl=args.include_rl,
            duration_s=args.duration,
            train_episodes=args.episodes,
            timeout_s=args.timeout,
            retries=args.retries,
        )
    if args.metrics:
        spec = replace(spec, collect_metrics=True)
    if args.trace_dir:
        spec = replace(spec, trace_dir=args.trace_dir)
    if args.learn_log:
        spec = replace(spec, learn_log_dir=args.learn_log)
    log.info("fleet: %d-job grid, jobs=%d", len(spec.expand()), args.jobs)

    progress_mode = "none" if args.quiet else args.progress

    def progress(event) -> None:
        if progress_mode == "none":
            return
        if progress_mode == "live":
            if isinstance(event, FleetProgress):
                line = format_progress_line(event)
                print(f"\r{line}", end="", file=sys.stderr, flush=True)
            elif isinstance(event, FleetFinished):
                print(file=sys.stderr)
            return
        line = format_event(event)
        if line:
            print(line, file=sys.stderr)

    cache = None
    if args.cache:
        from repro.cache import RunCache

        cache = RunCache(args.cache_dir)
    with _obs_session(args.trace, None) as session:
        result = run_fleet(spec, jobs=args.jobs, on_event=progress,
                           cache=cache)
    print(result_table(result.successes))
    failures = failure_table(result.failures)
    if failures:
        print()
        print(failures)
    print()
    print(fleet_summary(result))
    if args.metrics:
        from repro.fleet import merge_job_metrics
        from repro.obs import prometheus_text

        merged = merge_job_metrics(result.successes)
        with open(args.metrics, "w") as fh:
            fh.write(prometheus_text(merged))
        print(f"merged fleet metrics written to {args.metrics}")
    if args.trace_dir:
        from repro.fleet import trace_paths

        paths = trace_paths(result.successes)
        print(
            f"{len(paths)} per-job trace(s) in {args.trace_dir}; "
            f"stitch with: repro trace --merge {args.trace_dir}/*.json "
            f"--out merged.json"
        )
    if args.learn_log:
        print(
            f"per-job learning ledgers in {args.learn_log}; read back "
            f"with: repro learn report --learn-log {args.learn_log}/<job>.jsonl"
        )
    if _ledger_requested(args):
        from repro import perf

        run_id = perf.new_run_id()
        for s in result.successes:
            metrics = {
                "energy_j": s.energy_j,
                "mean_qos": s.mean_qos,
                "deadline_miss_rate": s.deadline_miss_rate,
                "energy_per_qos_j": s.energy_per_qos_j,
                "wall_s": s.wall_s,
                "sim_throughput_per_s": s.sim_throughput,
            }
            if s.metrics is not None:
                metrics.update(perf.metrics_from_snapshot(s.metrics))
            perf.record_run(
                "fleet", s.spec.scenario, metrics,
                {
                    "chip": s.spec.chip,
                    "governor": s.spec.governor,
                    "seed": s.spec.seed,
                    "duration_s": s.spec.duration_s,
                },
                run_id=run_id, path=_ledger_path(args),
            )
        perf.record_run(
            "fleet", "grid",
            {
                "jobs_total": float(len(result.successes) + len(result.failures)),
                "jobs_failed": float(len(result.failures)),
                "cache_hits": float(result.cache_hits),
                "cache_misses": float(result.cache_misses),
                "wall_s": result.wall_s,
            },
            {
                "scenarios": ",".join(spec.scenarios),
                "governors": ",".join(spec.governor_axis),
                "seeds": ",".join(str(s) for s in spec.seeds),
                "chips": ",".join(spec.chips),
            },
            run_id=run_id, path=_ledger_path(args),
        )
        print(
            f"ledger: recorded {len(result.successes)} fleet rows + "
            f"grid summary (run {run_id}) to "
            f"{perf.resolve_ledger_path(_ledger_path(args))}"
        )
    _write_obs(session, args.trace, None)
    if args.out:
        rows = [
            {
                **s.spec.to_mapping(),
                "energy_j": s.energy_j,
                "mean_qos": s.mean_qos,
                "deadline_miss_rate": s.deadline_miss_rate,
                "energy_per_qos_j": s.energy_per_qos_j,
                "wall_s": s.wall_s,
                "attempts": s.attempts,
                "cached": s.cached,
            }
            for s in result.successes
        ]
        failed = [
            {
                **f.spec.to_mapping(),
                "error_type": f.error_type,
                "error": f.error,
                "attempts": f.attempts,
                "timed_out": f.timed_out,
            }
            for f in result.failures
        ]
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "rows": rows,
                    "failures": failed,
                    "workers": result.workers,
                    "wall_s": result.wall_s,
                    "cache_hits": result.cache_hits,
                },
                fh,
                indent=2,
            )
        print(f"results written to {args.out}")
    return 0 if result.successes else 1


_DEFAULT_BASELINE = "lint-baseline.json"


def _find_baseline(explicit: str | None, no_baseline: bool) -> str | None:
    """The baseline file to gate against, or ``None``.

    An explicit ``--baseline`` always wins (and must exist);  otherwise
    a committed ``lint-baseline.json`` in the working directory is
    picked up automatically, so plain ``repro check src/`` is the CI
    gate.  ``--no-baseline`` shows the raw findings.
    """
    if no_baseline:
        return None
    if explicit is not None:
        return explicit
    from pathlib import Path

    return _DEFAULT_BASELINE if Path(_DEFAULT_BASELINE).is_file() else None


def _cmd_check(args: argparse.Namespace) -> int:
    from repro import lint

    if args.list_rules:
        print(lint.rule_catalogue())
        return 0
    paths = args.paths or ["src"]
    result = lint.analyze_paths(
        paths,
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else None,
        jobs=args.jobs,
        cache=not args.no_lintcache,
        cache_dir=args.lintcache_dir,
    )
    findings = result.findings
    accepted = 0
    stale = 0
    if args.write_baseline:
        out = args.baseline or _DEFAULT_BASELINE
        lint.Baseline.from_findings(findings).save(out)
        print(
            f"baseline with {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} written to {out}"
        )
        return 0
    baseline_path = _find_baseline(args.baseline, args.no_baseline)
    if baseline_path is not None:
        split = lint.filter_findings(
            findings, lint.Baseline.load(baseline_path)
        )
        findings = split.new
        accepted = len(split.accepted)
        stale = len(split.stale)
    statistics = None
    if args.statistics:
        statistics = lint.build_statistics(
            findings,
            files_checked=result.files_checked,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
        )
    report = lint.render(
        args.format,
        findings,
        files_checked=result.files_checked,
        suppressed=len(result.suppressed),
        accepted=accepted,
        stale=stale,
        statistics=statistics,
    )
    if report:
        print(report)
    if stale and args.format == "text":
        print(
            f"note: {stale} stale baseline "
            + ("entries no longer match" if stale != 1 else "entry no longer matches")
            + " any finding; refresh with --write-baseline",
            file=sys.stderr,
        )
    return 1 if findings else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro import lint
    from repro.lint.flow import CallGraph, ImportGraph

    result = lint.analyze_paths(
        args.paths or ["src"],
        jobs=args.jobs,
        cache=not args.no_lintcache,
        cache_dir=args.lintcache_dir,
    )
    project = result.project
    assert project is not None  # analyze_paths always assembles one
    graph = (
        ImportGraph(project)
        if args.graph_command == "imports"
        else CallGraph(project)
    )
    print(graph.to_json() if args.format == "json" else graph.to_dot())
    return 0


def _polarity_overrides(args: argparse.Namespace) -> dict[str, str] | None:
    overrides: dict[str, str] = {}
    if getattr(args, "higher_better", None):
        for name in args.higher_better.split(","):
            overrides[name] = "higher"
    if getattr(args, "lower_better", None):
        for name in args.lower_better.split(","):
            overrides[name] = "lower"
    return overrides or None


def _read_log(read, path, **kwargs) -> list:
    """``read(path, **kwargs)`` for one ledger, telling stderr about a
    skipped torn final line (an append a crash cut short)."""
    records = read(path, **kwargs)
    if records.torn:
        print(f"{path}: skipped {records.torn} torn final line(s)",
              file=sys.stderr)
    return records


def _gate_tail(report, args: argparse.Namespace, label: str,
               noun: str, blocking: tuple = ()) -> int:
    """Print a report in ``--format``, gate it, and return the exit
    code; under ``--warn-only`` failures are counted on stderr, and the
    ``blocking`` ones still fail."""
    from repro.obs import gate, render

    print(render(report, args.format, getattr(args, "verbose", False)))
    result = gate(report, warn_only=args.warn_only, blocking=blocking)
    advisory = len(report.failures) - len(blocking)
    if advisory and args.warn_only:
        print(
            f"{label}: {advisory} {noun} (warn-only, not failing)",
            file=sys.stderr,
        )
    if blocking:
        print(f"{label}: {len(blocking)} blocking {noun}", file=sys.stderr)
    return result.exit_code


def _cmd_cache_list(args: argparse.Namespace) -> int:
    from repro.cache import RunCache

    cache = RunCache(args.cache_dir)
    entries = cache.list_entries()
    rows = [
        (
            e.key[:12],
            e.job_id,
            e.engine_version,
            time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(e.created_s)),
            e.size_bytes,
        )
        for e in entries
    ]
    print(
        format_table(
            ["key", "job", "engine", "created", "bytes"],
            rows,
            title=f"run cache at {cache.root} ({len(entries)} entr"
                  f"{'y' if len(entries) == 1 else 'ies'})",
        )
    )
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.cache import RunCache
    from repro.sim.engine import ENGINE_VERSION

    stats = RunCache(args.cache_dir).stats()
    print(f"cache dir:      {stats.root}")
    print(f"entries:        {stats.entries}")
    print(f"total bytes:    {stats.total_bytes}")
    print(f"engine version: {ENGINE_VERSION}")
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.cache import RunCache

    cache = RunCache(args.cache_dir)
    removed = cache.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    return 0


def _cmd_perf_list(args: argparse.Namespace) -> int:
    from repro import perf

    records = _read_log(perf.PERF_LEDGER.read,
                        perf.resolve_ledger_path(_ledger_path(args)))
    if args.limit and len(records) > args.limit:
        records = records[-args.limit:]
    rows = [
        (r.run_id, r.kind, r.name, r.git_sha, len(r.metrics), r.key())
        for r in records
    ]
    print(
        format_table(
            ["run", "kind", "name", "sha", "#metrics", "key"],
            rows,
            title=f"performance ledger ({len(records)} record(s) shown)",
        )
    )
    return 0


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    from repro import perf

    baseline = _read_log(perf.PERF_LEDGER.read, args.baseline_ref)
    current = _read_log(perf.PERF_LEDGER.read,
                        perf.resolve_ledger_path(_ledger_path(args)))
    comparison = perf.compare_records(
        baseline, current,
        threshold=args.threshold,
        confidence=args.confidence,
        polarity_overrides=_polarity_overrides(args),
    )
    print(perf.render(comparison, args.format, args.verbose))
    return 0 if comparison.ok else 1


def _cmd_perf_gate(args: argparse.Namespace) -> int:
    from repro import perf

    current_path = perf.resolve_ledger_path(_ledger_path(args))
    if args.baseline is not None:
        baseline = _read_log(perf.PERF_LEDGER.read, args.baseline)
        current = _read_log(perf.PERF_LEDGER.read, current_path)
    else:
        # Self-gating: the ledger's newest run per config key is tested
        # against every earlier record of that key.
        baseline, current = perf.split_latest(
            _read_log(perf.PERF_LEDGER.read, current_path)
        )
        if not baseline and not current:
            print(
                "perf gate: nothing to compare (every config key has "
                "records from a single run only) — pass"
            )
            return 0
    comparison = perf.compare_records(
        baseline, current,
        threshold=args.threshold,
        confidence=args.confidence,
        polarity_overrides=_polarity_overrides(args),
    )
    block = args.block.split(",") if args.block else ()
    return _gate_tail(
        comparison, args, "perf gate", "regression(s)",
        comparison.regressions_in(block),
    )


def _cmd_ops_tail(args: argparse.Namespace) -> int:
    """Print the last N ops-log records, one JSON object per line."""
    from repro.obs import tail_ops_log

    for record in _read_log(tail_ops_log, args.ops_log, n=args.lines):
        print(json.dumps(record, sort_keys=True))
    return 0


def _cmd_ops_summary(args: argparse.Namespace) -> int:
    """Aggregate an ops log: outcomes, rates, latency percentiles."""
    from repro.obs import OPS_LOG, format_ops_summary, summarize_ops

    summary = summarize_ops(_read_log(OPS_LOG.read, args.ops_log))
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(format_ops_summary(summary))
    return 0


def _cmd_slo_gate(args: argparse.Namespace) -> int:
    """Evaluate SLOs over an ops log; non-zero exit on budget burn."""
    from repro.obs import DEFAULT_SLOS, OPS_LOG, evaluate_slos, load_slo_config

    slos = load_slo_config(args.config) if args.config else DEFAULT_SLOS
    report = evaluate_slos(_read_log(OPS_LOG.read, args.ops_log), slos)
    return _gate_tail(report, args, "slo gate", "violation(s)")


def _load_learn_spec(args: argparse.Namespace):
    from repro.obs import DEFAULT_CONVERGENCE, load_convergence_spec

    return load_convergence_spec(args.spec) if args.spec else DEFAULT_CONVERGENCE


def _cmd_learn_report(args: argparse.Namespace) -> int:
    """Summarise a learning ledger + run the convergence detectors."""
    from repro.obs import (
        LEARN_LOG,
        evaluate_learning,
        format_learn_summary,
        render,
        summarize_learning,
    )

    records = _read_log(LEARN_LOG.read, args.learn_log)
    report = evaluate_learning(records, _load_learn_spec(args))
    if args.format == "json":
        payload = {
            "summary": summarize_learning(records),
            "report": report.to_mapping(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_learn_summary(summarize_learning(records)))
    print()
    print(render(report, args.format))
    return 0


def _cmd_learn_gate(args: argparse.Namespace) -> int:
    """Convergence gate over a learning ledger; non-zero exit on failure."""
    from repro.obs import LEARN_LOG, evaluate_learning

    report = evaluate_learning(_read_log(LEARN_LOG.read, args.learn_log),
                               _load_learn_spec(args))
    return _gate_tail(report, args, "learn gate", "failing detector(s)")


def _cmd_policy_show(args: argparse.Namespace) -> int:
    """Render a checkpoint's learned behaviour, per cluster."""
    from repro.core.checkpoint import load_policies
    from repro.core.introspect import (
        decision_surface,
        policy_summary,
        sanity_report,
        visitation_heatmap,
    )

    policies = load_policies(args.checkpoint)
    if args.format == "json":
        payload = {
            name: policy_summary(policy)
            for name, policy in sorted(policies.items())
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name, policy in sorted(policies.items()):
        surface = decision_surface(policy)
        print(f"== cluster {name} ==")
        print(sanity_report(policy))
        print()
        print(visitation_heatmap(surface))
        print()
        print(surface.render_slice(slack_bin=policy.config.slack_bins - 1))
        print()
    return 0


def _cmd_policy_diff(args: argparse.Namespace) -> int:
    """Compare two checkpoints; non-zero exit when they disagree."""
    from repro.core.introspect import diff_checkpoints, render_policy_diff

    diff = diff_checkpoints(args.checkpoint_a, args.checkpoint_b)
    if args.format == "json":
        print(json.dumps(diff.as_mapping(), indent=2, sort_keys=True))
    else:
        print(render_policy_diff(diff))
    return 0 if diff.identical else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RL power management for mobile MPSoCs (DAC 2020 LBR reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", default="warning", choices=_LOG_LEVELS,
        help="stderr diagnostic verbosity (default: warning)",
    )

    sub.add_parser(
        "list", parents=[common], help="list chips, scenarios, governors"
    ).set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", parents=[common],
                           help="run one governor on one scenario")
    run_p.add_argument("--chip", default="exynos5422", choices=sorted(PRESETS))
    run_p.add_argument("--chip-file", default=None,
                       help="chip JSON (device-tree schema), overrides --chip")
    run_p.add_argument("--scenario", default="gaming", choices=sorted(SCENARIOS))
    run_p.add_argument("--governor", default="ondemand")
    run_p.add_argument("--duration", type=float, default=30.0)
    run_p.add_argument("--seed", type=int, default=100)
    run_p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace_event JSON of the run")
    run_p.add_argument("--metrics", default=None, metavar="FILE",
                       help="write a Prometheus-format metrics snapshot")
    run_p.add_argument("--ledger", nargs="?", const="", default=None,
                       metavar="FILE",
                       help="append the run to the performance ledger "
                            "(bare flag: $REPRO_PERF_LEDGER or "
                            ".repro/perf-ledger.jsonl)")
    run_p.set_defaults(func=_cmd_run)

    train_p = sub.add_parser("train", parents=[common],
                             help="train the RL policy, save a checkpoint")
    train_p.add_argument("--chip", default="exynos5422", choices=sorted(PRESETS))
    train_p.add_argument("--chip-file", default=None,
                         help="chip JSON (device-tree schema), overrides --chip")
    train_p.add_argument("--scenario", default="gaming", choices=sorted(SCENARIOS))
    train_p.add_argument("--episodes", type=int, default=15)
    train_p.add_argument("--duration", type=float, default=20.0)
    train_p.add_argument("--out", default="rl-checkpoint")
    train_p.add_argument("--save", default=None, metavar="PATH",
                         help="checkpoint directory (overrides --out); the "
                              "manifest stamps the engine version, and "
                              "'repro serve' refuses stale stamps")
    train_p.add_argument("--learn-log", default=None, metavar="FILE",
                         help="append one learning-ledger record per episode "
                              "(read back with 'repro learn report' and "
                              "'repro learn gate'); training results are "
                              "bit-identical with or without it")
    train_p.set_defaults(func=_cmd_train)

    cmp_p = sub.add_parser("compare", parents=[common],
                           help="RL policy vs baseline governors")
    cmp_p.add_argument("--chip", default="exynos5422", choices=sorted(PRESETS))
    cmp_p.add_argument("--scenario", default="gaming", choices=sorted(SCENARIOS))
    cmp_p.add_argument(
        "--governors", default="performance,powersave,ondemand,conservative"
    )
    cmp_p.add_argument("--duration", type=float, default=20.0)
    cmp_p.add_argument("--episodes", type=int, default=8)
    cmp_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (0 = CPU count)")
    cmp_p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace_event JSON of the sweep "
                            "(in-process jobs only)")
    cmp_p.add_argument("--metrics", default=None, metavar="FILE",
                       help="write a Prometheus-format metrics snapshot")
    cmp_p.add_argument("--ledger", nargs="?", const="", default=None,
                       metavar="FILE",
                       help="append one ledger record per comparison row")
    cmp_p.set_defaults(func=_cmd_compare)

    fleet_p = sub.add_parser(
        "fleet", parents=[common],
        help="run a scenarios x governors x seeds grid in parallel",
    )
    fleet_p.add_argument("--chip", default="exynos5422",
                         help="comma-separated chip presets")
    fleet_p.add_argument("--scenarios", default="gaming,web_browsing",
                         help="comma-separated scenario names")
    fleet_p.add_argument(
        "--governors",
        default="performance,powersave,userspace,ondemand,conservative,interactive",
        help="comma-separated governors (also rl-policy / checkpoint:<dir>)",
    )
    fleet_p.add_argument("--seeds", default="100,200",
                         help="comma-separated evaluation seeds")
    fleet_p.add_argument("--include-rl", action="store_true",
                         help="train + evaluate the RL policy per scenario")
    fleet_p.add_argument("--duration", type=float, default=20.0)
    fleet_p.add_argument("--episodes", type=int, default=12,
                         help="RL training episodes (rl-policy jobs)")
    fleet_p.add_argument("--jobs", type=int, default=0,
                         help="worker processes (0 = CPU count)")
    fleet_p.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock timeout [s]")
    fleet_p.add_argument("--retries", type=int, default=0,
                         help="extra attempts per failed job")
    fleet_p.add_argument("--spec", default=None,
                         help="fleet spec JSON file (overrides grid flags)")
    fleet_p.add_argument("--out", default=None,
                         help="write results as JSON to this path")
    fleet_p.add_argument("--progress", default="plain",
                         choices=("none", "plain", "live"),
                         help="stderr progress stream: one line per event "
                              "(plain), an in-place bar (live), or nothing")
    fleet_p.add_argument("--quiet", action="store_true",
                         help="alias for --progress none")
    fleet_p.add_argument("--trace", default=None, metavar="FILE",
                         help="write a parent-process Chrome trace; "
                              "with --jobs 1 it holds a fleet.job span "
                              "per job and the phase counters, and "
                              "engine.run spans for serial-engine jobs "
                              "only")
    fleet_p.add_argument("--metrics", default=None, metavar="FILE",
                         help="collect per-job metric snapshots and write "
                              "the grid-wide merge as Prometheus text")
    fleet_p.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="write one pid-tagged Chrome trace per job "
                              "into DIR (merge with: repro trace --merge)")
    fleet_p.add_argument("--learn-log", default=None, metavar="DIR",
                         help="write one pid-tagged learning ledger per "
                              "rl-policy job into DIR (read back with "
                              "'repro learn report')")
    fleet_p.add_argument("--ledger", nargs="?", const="", default=None,
                         metavar="FILE",
                         help="append per-job rows + the grid summary to "
                              "the performance ledger")
    fleet_p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="serve repeat jobs from the content-addressed "
                              "run cache and store fresh results "
                              "(--no-cache: off, the default)")
    fleet_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="run-cache directory (default: "
                              "$REPRO_CACHE_DIR or .repro/cache)")
    fleet_p.set_defaults(func=_cmd_fleet)

    lat_p = sub.add_parser("latency", parents=[common],
                           help="SW vs HW decision latency table")
    lat_p.add_argument("--chip", default="exynos5422", choices=sorted(PRESETS))
    lat_p.add_argument("--format", default="text", choices=("text", "json"),
                       help="json adds the typical/best-case speedups and "
                            "the paper's claims for programmatic comparison")
    lat_p.set_defaults(func=_cmd_latency)

    serve_common = argparse.ArgumentParser(add_help=False)
    serve_common.add_argument("--checkpoint", required=True, metavar="DIR",
                              help="policy checkpoint directory "
                                   "(from 'repro train --save')")
    serve_common.add_argument("--chip", default="exynos5422",
                              choices=sorted(PRESETS))
    serve_common.add_argument("--workers", type=int, default=2,
                              help="concurrent request handlers")
    serve_common.add_argument("--queue-size", type=int, default=64,
                              help="queue bound; a full queue rejects with "
                                   "'overloaded' instead of buffering")
    serve_common.add_argument("--deadline", type=float, default=None,
                              metavar="S",
                              help="default per-request deadline [s]")
    serve_common.add_argument("--drain-timeout", type=float, default=30.0,
                              metavar="S",
                              help="max wait for queued work at shutdown")

    serve_p = sub.add_parser(
        "serve", parents=[common, serve_common],
        help="policy-decision service: JSONL requests in, replies out",
    )
    serve_p.add_argument("--requests", default=None, metavar="FILE",
                         help="read JSONL requests from FILE instead of "
                              "stdin (EOF drains and shuts down)")
    serve_p.add_argument("--metrics", default=None, metavar="FILE",
                         help="write a Prometheus-format metrics snapshot")
    serve_p.add_argument("--ledger", nargs="?", const="", default=None,
                         metavar="FILE",
                         help="append serve latency percentiles to the "
                              "performance ledger")
    serve_p.add_argument("--ops-log", default=None, metavar="FILE",
                         help="append one structured JSONL record per "
                              "request outcome (read back with 'repro ops' "
                              "and 'repro slo gate')")
    serve_p.add_argument("--drift-reference", default=None, metavar="DIR",
                         help="reference checkpoint to shadow-score every "
                              "decision against; disagreements surface in "
                              "stats, metrics, and the ops log (kind=drift)")
    serve_p.set_defaults(func=_cmd_serve)

    dec_p = sub.add_parser(
        "decide", parents=[common, serve_common],
        help="one-shot client: observation(s) in, decision(s) out",
    )
    dec_p.add_argument("--observation", default=None, metavar="JSON",
                       help="observation fields as a JSON object; "
                            "unspecified fields default from the chip")
    dec_p.add_argument("--requests", default=None, metavar="FILE",
                       help="JSONL request file (same format as 'serve')")
    dec_p.set_defaults(func=_cmd_decide)

    trace_p = sub.add_parser(
        "trace", parents=[common],
        help="run instrumented, write a Chrome trace_event file",
    )
    trace_p.add_argument("scenario", nargs="?", default=None,
                         choices=sorted(SCENARIOS))
    trace_p.add_argument("--merge", nargs="+", default=None,
                         metavar="TRACE",
                         help="merge per-worker Chrome traces (e.g. a "
                              "fleet --trace-dir output) into --out on a "
                              "common timeline instead of running")
    trace_p.add_argument("--chip", default="exynos5422", choices=sorted(PRESETS))
    trace_p.add_argument("--chip-file", default=None,
                         help="chip JSON (device-tree schema), overrides --chip")
    trace_p.add_argument("--governor", default="rl-policy",
                         help="governor name, rl-policy, or checkpoint:<dir>")
    trace_p.add_argument("--duration", type=float, default=10.0)
    trace_p.add_argument("--seed", type=int, default=100)
    trace_p.add_argument("--episodes", type=int, default=5,
                         help="RL training episodes (rl-policy only)")
    trace_p.add_argument("--out", default="trace.json",
                         help="output trace path")
    trace_p.add_argument("--format", default="chrome",
                         choices=("chrome", "jsonl"),
                         help="trace file format")
    trace_p.add_argument("--metrics", default=None, metavar="FILE",
                         help="also write a Prometheus-format snapshot")
    trace_p.set_defaults(func=_cmd_trace)

    prof_p = sub.add_parser(
        "profile", parents=[common],
        help="characterise a scenario or trace CSV, with engine phase timings",
    )
    prof_p.add_argument("--chip", default="exynos5422", choices=sorted(PRESETS))
    prof_p.add_argument("--scenario", default="gaming", choices=sorted(SCENARIOS))
    prof_p.add_argument("--trace", default=None, help="trace CSV path (overrides --scenario)")
    prof_p.add_argument("--from-trace", default=None, metavar="FILE",
                        help="re-profile a saved trace file (Chrome JSON "
                             "or JSONL, e.g. from the ledgered run's "
                             "trace output) instead of running")
    prof_p.add_argument("--duration", type=float, default=30.0)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument("--governor", default="ondemand",
                        help="governor driving the instrumented run")
    prof_p.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the instrumented run's Chrome trace here")
    prof_p.set_defaults(func=_cmd_profile)

    rep_p = sub.add_parser("report", parents=[common],
                           help="run experiments, write a markdown report")
    rep_p.add_argument("--experiments", default="e1,e3,e4,e7",
                       help="comma-separated ids (e1..e7,a1..a6,x2)")
    rep_p.add_argument("--duration", type=float, default=20.0)
    rep_p.add_argument("--episodes", type=int, default=20)
    rep_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweep-based experiments")
    rep_p.add_argument("--out", default="REPORT.md")
    rep_p.set_defaults(func=_cmd_report)

    check_p = sub.add_parser(
        "check", parents=[common],
        help="run the invariant-aware static analysis (lint gate)",
    )
    check_p.add_argument("paths", nargs="*",
                         help="files or directories (default: src)")
    check_p.add_argument("--select", default=None, metavar="CODES",
                         help="comma-separated code prefixes to run "
                              "exclusively (e.g. RPL0,RPL101)")
    check_p.add_argument("--ignore", default=None, metavar="CODES",
                         help="comma-separated code prefixes to skip")
    check_p.add_argument("--format", default="text",
                         choices=("text", "json", "github"),
                         help="report format (github = Actions annotations)")
    check_p.add_argument("--baseline", default=None, metavar="FILE",
                         help="baseline of accepted findings (default: "
                              "lint-baseline.json when present)")
    check_p.add_argument("--no-baseline", action="store_true",
                         help="ignore any baseline; report raw findings")
    check_p.add_argument("--write-baseline", action="store_true",
                         help="accept all current findings into the "
                              "baseline file and exit 0")
    check_p.add_argument("--list-rules", action="store_true",
                         help="print the rule catalogue and exit")
    check_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for per-file analysis")
    check_p.add_argument("--statistics", action="store_true",
                         help="append per-rule/per-file counts and "
                              "cache traffic to the report")
    check_p.add_argument("--no-lintcache", action="store_true",
                         help="do not read or write the lint summary cache")
    check_p.add_argument("--lintcache-dir", default=None, metavar="DIR",
                         help="lint-cache directory (default: "
                              "$REPRO_LINTCACHE_DIR or .repro/lintcache)")
    check_p.set_defaults(func=_cmd_check)

    graph_p = sub.add_parser(
        "graph", parents=[common],
        help="render the whole-program import or call graph",
    )
    graph_sub = graph_p.add_subparsers(dest="graph_command", required=True)
    for kind, blurb in (
        ("imports", "module import graph (dashed edges = deferred)"),
        ("calls", "name-resolved function call graph"),
    ):
        kind_p = graph_sub.add_parser(kind, parents=[common], help=blurb)
        kind_p.add_argument("paths", nargs="*",
                            help="files or directories (default: src)")
        kind_p.add_argument("--format", default="dot",
                            choices=("dot", "json"),
                            help="output format (default: dot)")
        kind_p.add_argument("--jobs", type=int, default=1,
                            help="worker processes for per-file analysis")
        kind_p.add_argument("--no-lintcache", action="store_true",
                            help="do not read or write the lint summary "
                                 "cache")
        kind_p.add_argument("--lintcache-dir", default=None, metavar="DIR",
                            help="lint-cache directory (default: "
                                 "$REPRO_LINTCACHE_DIR or .repro/lintcache)")
        kind_p.set_defaults(func=_cmd_graph)

    cache_p = sub.add_parser(
        "cache", parents=[common],
        help="content-addressed run cache: list, stats, clear",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)

    cache_common = argparse.ArgumentParser(add_help=False)
    cache_common.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="run-cache directory (default: $REPRO_CACHE_DIR or "
             ".repro/cache)",
    )

    cache_sub.add_parser(
        "list", parents=[common, cache_common],
        help="show stored entries (key, job, engine version, age)",
    ).set_defaults(func=_cmd_cache_list)
    cache_sub.add_parser(
        "stats", parents=[common, cache_common],
        help="entry count, total bytes, current engine version",
    ).set_defaults(func=_cmd_cache_stats)
    cache_sub.add_parser(
        "clear", parents=[common, cache_common],
        help="delete every cached entry",
    ).set_defaults(func=_cmd_cache_clear)

    perf_p = sub.add_parser(
        "perf", parents=[common],
        help="performance ledger: list runs, compare, regression gate",
    )
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    perf_common = argparse.ArgumentParser(add_help=False)
    perf_common.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="ledger file (default: $REPRO_PERF_LEDGER or "
             ".repro/perf-ledger.jsonl)",
    )

    stat_common = argparse.ArgumentParser(add_help=False)
    stat_common.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative median shift treated as noise (default: 0.10)",
    )
    stat_common.add_argument(
        "--confidence", type=float, default=0.95,
        help="bootstrap CI level for n >= 5 samples (default: 0.95)",
    )
    stat_common.add_argument(
        "--format", default="text", choices=("text", "json", "github"),
        help="report format (github = Actions annotations)",
    )
    stat_common.add_argument(
        "--verbose", action="store_true",
        help="also list unchanged/added/removed metrics (text format)",
    )
    stat_common.add_argument(
        "--higher-better", default=None, metavar="METRICS",
        help="comma-separated metrics where bigger is better "
             "(overrides name-based polarity)",
    )
    stat_common.add_argument(
        "--lower-better", default=None, metavar="METRICS",
        help="comma-separated metrics where smaller is better",
    )

    perf_list_p = perf_sub.add_parser(
        "list", parents=[common, perf_common],
        help="show recorded runs",
    )
    perf_list_p.add_argument("--limit", type=int, default=50,
                             help="show at most the last N records")
    perf_list_p.set_defaults(func=_cmd_perf_list)

    perf_cmp_p = perf_sub.add_parser(
        "compare", parents=[common, perf_common, stat_common],
        help="classify metric shifts against a baseline ledger",
    )
    perf_cmp_p.add_argument("baseline_ref", metavar="BASELINE",
                            help="baseline ledger file to compare against")
    perf_cmp_p.set_defaults(func=_cmd_perf_compare)

    perf_gate_p = perf_sub.add_parser(
        "gate", parents=[common, perf_common, stat_common],
        help="CI regression gate (exit 1 on a regression)",
    )
    perf_gate_p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline ledger; omitted = gate the ledger's newest run "
             "against its own history per config key",
    )
    perf_gate_p.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI bring-up mode)",
    )
    perf_gate_p.add_argument(
        "--block", default=None, metavar="METRIC[,METRIC]",
        help="comma-separated metrics whose regressions fail the gate "
             "even under --warn-only",
    )
    perf_gate_p.set_defaults(func=_cmd_perf_gate)

    ops_p = sub.add_parser(
        "ops", parents=[common],
        help="read structured ops logs written by 'repro serve --ops-log'",
    )
    ops_sub = ops_p.add_subparsers(dest="ops_command", required=True)
    ops_tail_p = ops_sub.add_parser(
        "tail", parents=[common],
        help="print the last N records as JSON lines",
    )
    ops_tail_p.add_argument("ops_log", metavar="FILE",
                            help="ops log (JSONL) to read")
    ops_tail_p.add_argument("-n", "--lines", type=int, default=10,
                            help="number of records to print (default: 10)")
    ops_tail_p.set_defaults(func=_cmd_ops_tail)
    ops_sum_p = ops_sub.add_parser(
        "summary", parents=[common],
        help="aggregate outcomes, rates, and latency percentiles",
    )
    ops_sum_p.add_argument("ops_log", metavar="FILE",
                           help="ops log (JSONL) to read")
    ops_sum_p.add_argument("--format", default="text",
                           choices=("text", "json"))
    ops_sum_p.set_defaults(func=_cmd_ops_summary)

    slo_p = sub.add_parser(
        "slo", parents=[common],
        help="service-level objectives over ops logs",
    )
    slo_sub = slo_p.add_subparsers(dest="slo_command", required=True)
    slo_gate_p = slo_sub.add_parser(
        "gate", parents=[common],
        help="evaluate SLO error-budget burn; non-zero exit on violation",
    )
    slo_gate_p.add_argument("--ops-log", required=True, metavar="FILE",
                            help="ops log (JSONL) to evaluate")
    slo_gate_p.add_argument("--config", default=None, metavar="FILE",
                            help="SLO definitions JSON (default: the "
                                 "built-in decision SLOs)")
    slo_gate_p.add_argument("--format", default="text",
                            choices=("text", "json", "github"),
                            help="github emits workflow error annotations")
    slo_gate_p.add_argument("--warn-only", action="store_true",
                            help="report violations but exit 0 "
                                 "(CI bring-up mode)")
    slo_gate_p.set_defaults(func=_cmd_slo_gate)

    policy_p = sub.add_parser(
        "policy", parents=[common],
        help="introspect saved policy checkpoints: show, diff",
    )
    policy_sub = policy_p.add_subparsers(dest="policy_command", required=True)
    policy_show_p = policy_sub.add_parser(
        "show", parents=[common],
        help="greedy-action tables, visitation heatmap, sanity readout",
    )
    policy_show_p.add_argument("checkpoint", metavar="DIR",
                               help="checkpoint directory "
                                    "(from 'repro train --save')")
    policy_show_p.add_argument("--format", default="text",
                               choices=("text", "json"))
    policy_show_p.set_defaults(func=_cmd_policy_show)
    policy_diff_p = policy_sub.add_parser(
        "diff", parents=[common],
        help="per-state action disagreement between two checkpoints "
             "(exit 1 when they differ, like diff(1))",
    )
    policy_diff_p.add_argument("checkpoint_a", metavar="DIR_A",
                               help="baseline checkpoint directory")
    policy_diff_p.add_argument("checkpoint_b", metavar="DIR_B",
                               help="candidate checkpoint directory")
    policy_diff_p.add_argument("--format", default="text",
                               choices=("text", "json"))
    policy_diff_p.set_defaults(func=_cmd_policy_diff)

    learn_p = sub.add_parser(
        "learn", parents=[common],
        help="read learning ledgers written by '--learn-log'",
    )
    learn_sub = learn_p.add_subparsers(dest="learn_command", required=True)
    learn_common = argparse.ArgumentParser(add_help=False)
    learn_common.add_argument("--learn-log", required=True, metavar="FILE",
                              help="learning ledger (JSONL) to read")
    learn_common.add_argument("--spec", default=None, metavar="FILE",
                              help="convergence spec JSON (default: the "
                                   "built-in detector bounds)")
    learn_common.add_argument("--format", default="text",
                              choices=("text", "json", "github"),
                              help="github emits workflow error annotations")
    learn_report_p = learn_sub.add_parser(
        "report", parents=[common, learn_common],
        help="training summary + convergence detector verdicts",
    )
    learn_report_p.set_defaults(func=_cmd_learn_report)
    learn_gate_p = learn_sub.add_parser(
        "gate", parents=[common, learn_common],
        help="convergence/divergence gate; non-zero exit on failure",
    )
    learn_gate_p.add_argument("--warn-only", action="store_true",
                              help="report failures but exit 0 "
                                   "(CI bring-up mode)")
    learn_gate_p.set_defaults(func=_cmd_learn_gate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "log_level", "warning"))
    try:
        return args.func(args)
    except ReproError as exc:
        log.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
