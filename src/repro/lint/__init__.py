"""repro.lint — invariant-aware static analysis for this repository.

The repo's correctness rests on invariants no generic linter knows
about: bit-determinism under seeding (sim/rl/batch/fleet), the ``_mhz``
/ ``_mw`` unit-suffix convention, integer-only fixed-point datapaths,
zero-overhead-when-disabled observability probes, and the fleet's
never-swallow-a-worker-failure exception policy.  This package encodes
each as a rule with a stable ``RPLnnn`` code and gates them behind
``repro check``.

Most rules read one file's AST.  The rules whose hazard can sit in one
module and matter in another run over the whole program
(:mod:`repro.lint.flow`): wall-clock and global-RNG reads in simulation
code or reachable from the simulation/training loop (RPL001/RPL002),
blocking calls on the serve event loop at any call depth (RPL701),
architecture layering against a declared layer DAG (RPL901) and asyncio
shared-state hazards (RPL903).  Per-file analyses are content-addressed
in ``.repro/lintcache`` so warm runs re-parse only edited files, and
``--jobs N`` fans cold files over a process pool.

Typical use::

    repro check src/                         # human output, exit 1 on findings
    repro check src/ --format json           # machine report
    repro check src/ --select RPL0 --ignore RPL003
    repro check src/ --jobs 4 --statistics   # parallel + run statistics
    repro check src/ --write-baseline        # accept current findings
    repro check src/ --baseline lint-baseline.json   # the CI gate
    repro graph imports --format dot         # the project import graph

Library API::

    from repro.lint import analyze_paths, check_source

    result = analyze_paths(["src/repro"], jobs=4)
    for finding in result.findings:
        print(finding.location(), finding.code, finding.message)

Suppression: append ``# noqa: RPL001`` (or a bare ``# noqa``) to the
offending line.  The rule catalogue, rationale, and the baseline
workflow live in ``docs/static-analysis.md``.
"""

from repro.lint.baseline import Baseline, BaselineResult, filter_findings
from repro.lint.driver import AnalysisResult, analyze_paths, check_source
from repro.lint.engine import (
    LINT_ENGINE_VERSION,
    FileResult,
    ImportMap,
    LintContext,
    Rule,
    all_rules,
    iter_python_files,
    module_relpath,
    noqa_map,
    register,
    select_rules,
)
from repro.lint.findings import Finding
from repro.lint.output import (
    FORMATS,
    build_statistics,
    render,
    render_github,
    render_json,
    render_text,
    rule_catalogue,
)

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineResult",
    "FORMATS",
    "FileResult",
    "Finding",
    "ImportMap",
    "LINT_ENGINE_VERSION",
    "LintContext",
    "Rule",
    "all_rules",
    "analyze_paths",
    "build_statistics",
    "check_source",
    "filter_findings",
    "iter_python_files",
    "module_relpath",
    "noqa_map",
    "register",
    "render",
    "render_github",
    "render_json",
    "render_text",
    "rule_catalogue",
    "select_rules",
]
