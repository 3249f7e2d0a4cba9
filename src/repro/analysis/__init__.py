"""Experiment harness support: sweeps, tables, plots, statistics."""

from repro.analysis.export import result_to_json, sweep_from_csv, sweep_to_csv
from repro.analysis.pareto import (
    FrontierPoint,
    frontier_table,
    on_frontier,
    pareto_frontier,
)
from repro.analysis.plot import histogram, line_chart, sparkline
from repro.analysis.repeat import RepeatedMeasure
from repro.analysis.report import ReportConfig, generate_report
from repro.analysis.stats import geomean, mean, normalize_to, stdev
from repro.analysis.sweep import SweepResult, SweepRow, run_baseline, sweep
from repro.analysis.tables import format_table

__all__ = [
    "FrontierPoint",
    "RepeatedMeasure",
    "ReportConfig",
    "SweepResult",
    "SweepRow",
    "format_table",
    "frontier_table",
    "generate_report",
    "geomean",
    "histogram",
    "line_chart",
    "mean",
    "normalize_to",
    "on_frontier",
    "pareto_frontier",
    "result_to_json",
    "run_baseline",
    "sparkline",
    "stdev",
    "sweep",
    "sweep_from_csv",
    "sweep_to_csv",
]
