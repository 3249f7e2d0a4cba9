"""repro.lint.flow — the whole-program half of ``repro check``.

A per-file rule sees one AST at a time, so a helper two modules away
that calls ``time.time()`` on behalf of ``sim.engine`` would be
invisible to it, and nothing would stop ``sim/`` from quietly importing
``serve/``.  This package closes that gap in three stages:

1. **Summaries** (:mod:`repro.lint.flow.summary`) — one compact,
   JSON-serialisable :class:`ModuleSummary` per file: imports (with
   deferral), defined functions, resolved outgoing calls,
   nondeterminism / blocking-I/O sources, and ``self.*``-mutation vs
   ``await`` ordering in async methods.
2. **Graphs** (:mod:`repro.lint.flow.graphs`) — a project import graph
   and a name-resolution-based call graph assembled from the summaries,
   with cycle detection and reachability.
3. **Rules** (:mod:`repro.lint.flow.rules`) — run over the graphs:
   RPL001/RPL002 determinism (in the simulation code and wherever the
   simulation loop reaches), RPL701 serve-loop blocking at any call
   depth, RPL901 architecture layering (the DAG lives in
   :mod:`repro.lint.flow.layers`), RPL903 asyncio shared-state hazards.

Summaries are content-addressed (:mod:`repro.lint.flow.cache`) under
``.repro/lintcache`` — keyed by source hash + lint-engine version,
mirroring the run cache's discipline — so a warm ``repro check``
re-parses only edited files.
"""

from repro.lint.flow.cache import (
    DEFAULT_LINTCACHE_DIR,
    LINTCACHE_ENV_VAR,
    CachedAnalysis,
    SummaryCache,
    extra_inputs_digest,
    resolve_lintcache_dir,
)
from repro.lint.flow.graphs import CallGraph, ImportGraph, Project
from repro.lint.flow.layers import LAYER_RANKS, LAYERS, layer_of
from repro.lint.flow.rules import FLOW_CODES, FlowRule, check_project
from repro.lint.flow.summary import (
    SUMMARY_SCHEMA,
    AwaitHazard,
    CallSite,
    FunctionSummary,
    Hazard,
    ImportRecord,
    ModuleSummary,
    module_name,
    summarize_source,
)

__all__ = [
    "AwaitHazard",
    "CachedAnalysis",
    "CallGraph",
    "CallSite",
    "DEFAULT_LINTCACHE_DIR",
    "FLOW_CODES",
    "FlowRule",
    "FunctionSummary",
    "Hazard",
    "ImportGraph",
    "ImportRecord",
    "LAYERS",
    "LAYER_RANKS",
    "LINTCACHE_ENV_VAR",
    "ModuleSummary",
    "Project",
    "SUMMARY_SCHEMA",
    "SummaryCache",
    "check_project",
    "extra_inputs_digest",
    "layer_of",
    "module_name",
    "resolve_lintcache_dir",
    "summarize_source",
]
