"""Output formatters for ``repro check``.

Three formats, one per consumer:

* ``text`` — human-readable, one ``path:line:col: CODE message`` line
  per finding plus a per-code summary.
* ``json`` — the machine-readable report CI uploads as an artifact.
* ``github`` — GitHub Actions workflow commands
  (``::error file=...``), which the Actions runner turns into inline
  PR annotations.
"""

from __future__ import annotations

import json

from repro.lint.engine import all_rules
from repro.lint.findings import Finding

FORMATS = ("text", "json", "github")


def build_statistics(
    findings: list[Finding],
    *,
    files_checked: int = 0,
    cache_hits: int = 0,
    cache_misses: int = 0,
) -> dict[str, object]:
    """The ``--statistics`` payload: per-rule and per-file counts plus
    how much work the run actually did (files checked, cache traffic).
    """
    by_path: dict[str, int] = {}
    for f in findings:
        by_path[f.path] = by_path.get(f.path, 0) + 1
    return {
        "files_checked": files_checked,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "by_code": _by_code(findings),
        "by_path": dict(sorted(by_path.items())),
    }


def render_text(
    findings: list[Finding],
    *,
    files_checked: int = 0,
    suppressed: int = 0,
    accepted: int = 0,
    stale: int = 0,
    statistics: dict[str, object] | None = None,
) -> str:
    """The human report: findings, then a one-line summary."""
    lines = [f"{f.location()}: {f.code} {f.message}" for f in findings]
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    if counts:
        lines.append("")
        for code, n in sorted(counts.items()):
            rule = all_rules().get(code)
            name = rule.name if rule else "?"
            lines.append(f"{code} ({name}): {n}")
    tail = [f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"]
    if files_checked:
        tail.append(f"{files_checked} files checked")
    if suppressed:
        tail.append(f"{suppressed} suppressed by noqa")
    if accepted:
        tail.append(f"{accepted} accepted by baseline")
    if stale:
        tail.append(f"{stale} stale baseline entries")
    lines.append(", ".join(tail))
    if statistics is not None:
        lines.append("")
        lines.append("statistics:")
        lines.append(f"  files checked: {statistics['files_checked']}")
        lines.append(
            f"  cache: {statistics['cache_hits']} hits, "
            f"{statistics['cache_misses']} misses"
        )
        by_code = statistics.get("by_code") or {}
        if isinstance(by_code, dict) and by_code:
            lines.append("  findings by code:")
            for code, n in by_code.items():
                lines.append(f"    {code}: {n}")
        by_path = statistics.get("by_path") or {}
        if isinstance(by_path, dict) and by_path:
            lines.append("  findings by file:")
            for path, n in by_path.items():
                lines.append(f"    {path}: {n}")
    return "\n".join(lines)


def render_json(
    findings: list[Finding],
    *,
    files_checked: int = 0,
    suppressed: int = 0,
    accepted: int = 0,
    stale: int = 0,
    statistics: dict[str, object] | None = None,
) -> str:
    """The machine report (stable schema; CI artifact)."""
    payload: dict[str, object] = {
        "version": 1,
        "findings": [f.to_mapping() for f in findings],
        "summary": {
            "count": len(findings),
            "files_checked": files_checked,
            "suppressed": suppressed,
            "accepted_by_baseline": accepted,
            "stale_baseline_entries": stale,
            "by_code": _by_code(findings),
        },
    }
    if statistics is not None:
        payload["statistics"] = statistics
    return json.dumps(payload, indent=2)


def render_github(
    findings: list[Finding],
    *,
    statistics: dict[str, object] | None = None,
    **_: int,
) -> str:
    """GitHub Actions annotations, one ``::error`` command per finding."""
    lines = []
    for f in findings:
        message = f.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::error file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.code} {f.rule}::{message}"
        )
    if statistics is not None:
        by_code = statistics.get("by_code") or {}
        codes = (
            " ".join(f"{c}={n}" for c, n in by_code.items())
            if isinstance(by_code, dict)
            else ""
        )
        lines.append(
            "::notice title=repro check statistics::"
            f"files={statistics['files_checked']} "
            f"cache_hits={statistics['cache_hits']} "
            f"cache_misses={statistics['cache_misses']}"
            + (f" {codes}" if codes else "")
        )
    return "\n".join(lines)


def render(
    fmt: str,
    findings: list[Finding],
    *,
    statistics: dict[str, object] | None = None,
    **stats: int,
) -> str:
    """Dispatch on a ``--format`` value."""
    return {
        "text": render_text,
        "json": render_json,
        "github": render_github,
    }[fmt](findings, statistics=statistics, **stats)


def rule_catalogue() -> str:
    """The ``repro check --list-rules`` table."""
    lines = []
    for code, rule in all_rules().items():
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        lines.append(f"{code}  {rule.name}")
        lines.append(f"       {rule.summary}")
        lines.append(f"       scope: {scope}")
    return "\n".join(lines)


def _by_code(findings: list[Finding]) -> dict[str, int]:
    out: dict[str, int] = {}
    for f in findings:
        out[f.code] = out.get(f.code, 0) + 1
    return dict(sorted(out.items()))
