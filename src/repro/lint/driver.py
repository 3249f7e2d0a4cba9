"""The incremental, parallel analysis driver behind ``repro check``.

One run = four stages:

1. **Per-file analysis** — each file is parsed once; every registered
   per-file rule runs on it and a :class:`ModuleSummary` is extracted
   from the same tree.  Results are content-addressed in the lint cache
   (:mod:`repro.lint.flow.cache`), so an unchanged file costs one
   sha256 and one JSON read.  With ``jobs > 1`` the cold files fan out
   over a process pool; output order stays deterministic because the
   pool maps over the sorted file list.
2. **Selection** — cached entries hold *all* rules' findings; the run's
   ``--select``/``--ignore`` expansion filters them afterwards, which
   keeps cache entries valid across differently-selected runs.
3. **Whole-program rules** — the summaries assemble into a
   :class:`~repro.lint.flow.graphs.Project` and the rules that need
   more than one file (determinism RPL001/002, serve-loop blocking
   RPL701, RPL901/903) run over it; their findings pass through the
   same ``# noqa`` discipline via the per-file suppression maps.  The
   stage is skipped when no such rule is selected.
4. **Suppression hygiene** — RPL910 flags ``# noqa: RPLnnn`` comments
   that suppressed nothing, now that the full finding set is known.

:func:`analyze_paths` runs them over files on disk; :func:`check_source`
runs them over one in-memory source, as if it were the whole program.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.engine import (
    FileResult,
    _guess_project_root,
    all_rules,
    check_file,
    iter_python_files,
    parse_source,
    select_rules,
)
from repro.lint.findings import Finding
from repro.lint.flow.cache import (
    CachedAnalysis,
    SummaryCache,
    extra_inputs_digest,
)
from repro.lint.flow.graphs import Project
from repro.lint.flow.rules import FLOW_CODES, check_project
from repro.lint.flow.summary import ModuleSummary, summarize_source

_RPL_CODE_RE = re.compile(r"^RPL[0-9]{3}$")

_UNUSED_NOQA_CODE = "RPL910"
_UNUSED_NOQA_RULE = "suppressions.unused-noqa"


@dataclass
class AnalysisResult:
    """The outcome of a whole ``repro check`` run."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_checked: int
    cache_hits: int = 0
    cache_misses: int = 0
    project: Project | None = None


def _analyze_one(
    job: tuple[str, str | None, str | None, str],
) -> tuple[CachedAnalysis, bool]:
    """Analyse one file (worker-process entry point; must stay picklable).

    ``job`` is ``(path, project_root, cache_dir, extra_inputs_digest)``
    with ``cache_dir`` ``None`` meaning "no cache".  Returns the full
    analysis and whether it was a cache hit.
    """
    path, root, cache_dir, extra = job
    source = Path(path).read_text(encoding="utf-8")
    cache = SummaryCache(cache_dir) if cache_dir is not None else None
    key = SummaryCache.key(path, source, extra)
    if cache is not None:
        cached = cache.probe(key)
        if cached is not None:
            return cached, True
    analysis = _analyze_source(source, path, root)
    if cache is not None:
        cache.store(key, analysis)
    return analysis, False


def _analyze_source(
    source: str, path: str, root: str | None
) -> CachedAnalysis:
    """One file's per-file findings (all rules) and its summary, both
    from one parse."""
    posix = Path(path).as_posix()
    tree = parse_source(source, posix)
    result = check_file(source, posix, tree, project_root=root)
    return CachedAnalysis(
        findings=tuple(result.findings),
        suppressed=tuple(result.suppressed),
        summary=summarize_source(source, posix, tree=tree),
    )


def _apply_summary_noqa(
    findings: Iterable[Finding],
    by_path: dict[str, ModuleSummary],
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (kept, suppressed) via the summaries' noqa maps."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in findings:
        summary = by_path.get(f.path)
        codes = (
            summary.suppressions.get(f.line, "absent")
            if summary is not None
            else "absent"
        )
        if codes is None or (codes != "absent" and f.code in codes):
            suppressed.append(f)
        else:
            kept.append(f)
    return kept, suppressed


def _unused_noqa_findings(
    summaries: Sequence[ModuleSummary],
    used: set[tuple[str, int, str]],
    selected: set[str],
) -> list[Finding]:
    """The raw RPL910 findings (pre-noqa) for one run.

    ``used`` holds every ``(path, line, code)`` a suppression actually
    consumed.  The exemptions are documented on
    :class:`repro.lint.rules.suppressions.UnusedSuppressionRule`.
    """
    known = set(all_rules())
    findings: list[Finding] = []
    for summary in summaries:
        for line in sorted(summary.suppressions):
            codes = summary.suppressions[line]
            if codes is None:  # bare noqa: attribution impossible
                continue
            for code in codes:
                if code == _UNUSED_NOQA_CODE:
                    continue
                if not _RPL_CODE_RE.match(code):
                    continue  # some other linter's code
                if code in known:
                    if code not in selected:
                        continue  # rule did not run this time
                    if (summary.path, line, code) in used:
                        continue
                    reason = f"no {code} finding on this line"
                else:
                    reason = f"{code} is not a registered rule"
                findings.append(
                    Finding(
                        path=summary.path,
                        line=line,
                        col=0,
                        code=_UNUSED_NOQA_CODE,
                        message=(
                            f"unused suppression: {reason}; drop "
                            f"`# noqa: {code}` (dead suppressions hide "
                            "future violations)"
                        ),
                        rule=_UNUSED_NOQA_RULE,
                        line_text=summary.line_text(line),
                    )
                )
    return findings


def _whole_program(
    analyses: Sequence[CachedAnalysis], selected: set[str]
) -> tuple[list[Finding], list[Finding], Project]:
    """Stages 2–4 over per-file analyses: (findings, suppressed, project)."""
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    all_suppressed: list[Finding] = []
    for analysis in analyses:
        all_suppressed.extend(analysis.suppressed)
        findings.extend(f for f in analysis.findings if f.code in selected)
        suppressed.extend(
            f for f in analysis.suppressed if f.code in selected
        )

    summaries = [analysis.summary for analysis in analyses]
    project = Project(summaries)
    by_path = {s.path: s for s in summaries}
    flow_suppressed: list[Finding] = []
    flow_codes = selected & FLOW_CODES
    if flow_codes:
        raw = check_project(project, codes=flow_codes)
        kept, flow_suppressed = _apply_summary_noqa(raw, by_path)
        findings.extend(kept)
        suppressed.extend(flow_suppressed)

    if _UNUSED_NOQA_CODE in selected:
        used = {
            (f.path, f.line, f.code)
            for f in [*all_suppressed, *flow_suppressed]
        }
        raw = _unused_noqa_findings(summaries, used, selected)
        kept, dropped = _apply_summary_noqa(raw, by_path)
        findings.extend(kept)
        suppressed.extend(dropped)

    findings.sort()
    suppressed.sort()
    return findings, suppressed, project


def check_source(
    source: str,
    path: str,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    project_root: str | Path | None = None,
) -> FileResult:
    """Lint one source string as if it lived at ``path``.

    Every rule runs, the whole-program ones over a project holding just
    this file: a hazard in a determinism-scope path is found, one that
    only a call from another module would make reachable is not.  For
    the same reason RPL910 does not run: a ``# noqa`` for a
    whole-program finding may be used by a finding this file alone
    cannot produce.

    Args:
        source: Python source text.
        path: Real or virtual path; its package-relative form drives
            rule scoping.
        select: Optional code prefixes to report exclusively.
        ignore: Optional code prefixes to drop.
        project_root: Repository root for rules that cross-check other
            files (e.g. the register map); ``None`` disables those
            lookups and the rules fall back to their built-in defaults.

    Raises:
        LintError: On syntax errors in ``source`` or bad selectors.
    """
    selected = {rule.code for rule in select_rules(select, ignore)}
    selected.discard(_UNUSED_NOQA_CODE)
    root = str(project_root) if project_root is not None else None
    analysis = _analyze_source(source, path, root)
    findings, suppressed, _project = _whole_program([analysis], selected)
    return FileResult(
        path=analysis.summary.path, findings=findings, suppressed=suppressed
    )


def analyze_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    project_root: str | Path | None = None,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: str | Path | None = None,
) -> AnalysisResult:
    """Lint every Python file under ``paths``, whole-program rules included.

    Args:
        paths: Files and/or directories to expand.
        select: Optional code prefixes to report exclusively.
        ignore: Optional code prefixes to drop.
        project_root: Checkout root for cross-file rule inputs; guessed
            from the first file (pyproject.toml anchor) when ``None``.
        jobs: Worker processes for per-file analysis (1 = in-process).
        cache: Reuse/store per-file analyses in the lint cache.
        cache_dir: Cache root override (default: ``REPRO_LINTCACHE_DIR``
            env or ``.repro/lintcache``).

    Raises:
        LintError: On unparsable sources, missing paths, bad selectors.
    """
    selected = {rule.code for rule in select_rules(select, ignore)}
    files = list(iter_python_files(paths))
    if project_root is None and files:
        project_root = _guess_project_root(files[0])
    extra = extra_inputs_digest(project_root)
    root_str = str(project_root) if project_root is not None else None
    cache_dir_str = (
        str(SummaryCache(cache_dir).root) if cache else None
    )
    worker_jobs = [
        (str(f), root_str, cache_dir_str, extra) for f in files
    ]
    if jobs > 1 and len(worker_jobs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            analyses = list(pool.map(_analyze_one, worker_jobs))
    else:
        analyses = [_analyze_one(job) for job in worker_jobs]

    hits = sum(1 for _, hit in analyses if hit)
    findings, suppressed, project = _whole_program(
        [analysis for analysis, _hit in analyses], selected
    )
    return AnalysisResult(
        findings=findings,
        suppressed=suppressed,
        files_checked=len(files),
        cache_hits=hits,
        cache_misses=len(files) - hits,
        project=project,
    )
