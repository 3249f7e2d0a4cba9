"""The AST visitor framework behind ``repro check``.

The engine builds one :class:`LintContext` per file
(:func:`file_context`): the tree with parent links, the import map and
the ``# noqa`` map.  :func:`check_file` runs every registered
:class:`Rule` that applies to the file's package-relative path over it,
and the module summary reads the same context.  Rules are
:class:`ast.NodeVisitor` subclasses that call :meth:`Rule.report`;
``# noqa`` comments (bare, or code-qualified like ``# noqa: RPL001``)
suppress findings on their line, applied once per run by the driver.

Rule registration::

    @register
    class MyRule(Rule):
        code = "RPL999"
        name = "family.short-name"
        summary = "one-line description for the catalogue"
        scope = ("sim/",)          # path prefixes; () means everywhere

        def visit_Call(self, node):
            ...
            self.report(node, "message")
            self.generic_visit(node)

Paths are normalised to the ``repro`` package root before scope
matching, so ``src/repro/sim/engine.py``, ``repro/sim/engine.py`` and a
test fixture at ``/tmp/x/sim/engine.py`` all match the ``sim/`` scope.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import LintError
from repro.lint.findings import Finding

#: Version of the analysis semantics (rules, summaries, resolution).
#: Participates in every lint-cache key, so bumping it invalidates all
#: cached per-file analyses at once — bump on any change that could
#: alter findings or module summaries for unchanged source.
LINT_ENGINE_VERSION = "4"

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)

_CODE_RE = re.compile(r"^RPL[0-9]{3}$")

#: Directory names never descended into when expanding paths.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}


def module_relpath(path: str) -> str:
    """A path normalised to the ``repro`` package root, posix-style.

    ``src/repro/sim/engine.py`` → ``sim/engine.py``.  Falls back to the
    path unchanged (posix separators) when no ``repro``/``src`` anchor
    appears, which lets tests lint fixture files under any temp dir by
    giving them package-shaped virtual paths.
    """
    parts = Path(path).as_posix().split("/")
    dirs = parts[:-1]
    for anchor in ("repro", "src"):
        if anchor in dirs:
            idx = len(dirs) - 1 - dirs[::-1].index(anchor)
            return "/".join(parts[idx + 1:])
    return "/".join(parts)


# ---------------------------------------------------------------------------
# Import resolution (shared by rules that match dotted call names)
# ---------------------------------------------------------------------------


class ImportMap:
    """Local alias → dotted origin, built from a module's import statements.

    ``import numpy as np`` maps ``np`` → ``numpy``; ``from time import
    time`` maps ``time`` → ``time.time``.  :meth:`resolve` expands an
    expression's root name through the map, so ``np.random.rand`` resolves
    to ``numpy.random.rand`` and a bare ``time()`` call (after a
    ``from time import time``) to ``time.time``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """The dotted origin of a Name/Attribute chain, or ``None``."""
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self._aliases.get(cur.id, cur.id)
        parts.append(root)
        return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# Context and rule base
# ---------------------------------------------------------------------------


@dataclass
class LintContext:
    """Everything a rule may inspect about the file under analysis."""

    path: str
    module_path: str
    source: str
    tree: ast.Module
    imports: ImportMap
    project_root: Path | None = None
    findings: list[Finding] = field(default_factory=list)
    #: Per-line ``# noqa`` codes (:func:`noqa_map` of ``source``).
    noqa: dict[int, set[str] | None] = field(default_factory=dict)

    @cached_property
    def lines(self) -> list[str]:
        """The source split into lines (computed once)."""
        return self.source.splitlines()

    def line_text(self, line: int) -> str:
        """The 1-based source line, or "" out of range."""
        lines = self.lines
        return lines[line - 1] if 1 <= line <= len(lines) else ""


def parent(node: ast.AST) -> ast.AST | None:
    """The parent link the engine annotated, or ``None`` at the root."""
    return getattr(node, "_lint_parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """The node's ancestor chain, innermost first."""
    cur = parent(node)
    while cur is not None:
        yield cur
        cur = parent(cur)


class Rule(ast.NodeVisitor):
    """Base class for all lint rules.

    Class attributes:
        code: The unique ``RPLnnn`` code.
        name: Registry name, ``family.short-name``.
        summary: One line for the rule catalogue / ``--format json``.
        scope: Package-relative path prefixes (or exact file paths) the
            rule applies to; the empty tuple means the whole tree.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    scope: tuple[str, ...] = ()

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx

    @classmethod
    def applies_to(cls, module_path: str) -> bool:
        if not cls.scope:
            return True
        return any(
            module_path == entry or module_path.startswith(entry)
            for entry in cls.scope
        )

    def report(self, node: ast.AST, message: str, *, code: str | None = None) -> None:
        """Record one finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.ctx.findings.append(
            Finding(
                path=self.ctx.path,
                line=line,
                col=col,
                code=code or self.code,
                message=message,
                rule=self.name,
                line_text=self.ctx.line_text(line),
            )
        )

    def run(self) -> None:
        """Visit the whole tree (rules may override for non-visitor logic)."""
        self.visit(self.ctx.tree)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry.

    Raises:
        LintError: On a malformed or duplicate code.
    """
    if not _CODE_RE.match(cls.code):
        raise LintError(f"rule {cls.__name__} has malformed code {cls.code!r}")
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise LintError(
            f"duplicate rule code {cls.code}: {cls.__name__} vs "
            f"{_REGISTRY[cls.code].__name__}"
        )
    if not cls.name:
        raise LintError(f"rule {cls.__name__} needs a registry name")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """Registered rules by code (importing the rule modules on demand)."""
    # The import is deferred so `engine` itself stays importable from the
    # rule modules without a cycle.
    from repro.lint import rules as _rules  # noqa: F401

    return dict(sorted(_REGISTRY.items()))


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[type[Rule]]:
    """The rule classes matching ``--select`` / ``--ignore`` code prefixes.

    A selector matches by prefix, so ``RPL0`` selects the whole
    determinism family and ``RPL101`` exactly one rule.

    Raises:
        LintError: When a selector matches no registered rule.
    """
    rules = all_rules()

    def expand(codes: Iterable[str], flag: str) -> set[str]:
        out: set[str] = set()
        for code in codes:
            matched = {c for c in rules if c.startswith(code.upper())}
            if not matched:
                raise LintError(
                    f"{flag} {code!r} matches no rule; known codes: "
                    + ", ".join(rules)
                )
            out |= matched
        return out

    chosen = expand(select, "--select") if select else set(rules)
    dropped = expand(ignore, "--ignore") if ignore else set()
    return [rules[c] for c in sorted(chosen - dropped)]


# ---------------------------------------------------------------------------
# Suppression
# ---------------------------------------------------------------------------


def noqa_map(source: str) -> dict[int, set[str] | None]:
    """Per-line suppressions: ``None`` means all codes, a set means those.

    Only real trailing ``# noqa`` *comments* are recognised (the same
    contract flake8 uses) — the source is tokenised so a noqa mentioned
    inside a string or docstring does not count.  A bare ``# noqa``
    silences every rule on its line.  Unparsable source falls back to
    raw line scanning.
    """
    out: dict[int, set[str] | None] = {}

    def record(line_no: int, text: str) -> None:
        m = _NOQA_RE.search(text)
        if not m:
            return
        codes = m.group("codes")
        if codes is None:
            out[line_no] = None
        else:
            parsed = {c.strip().upper() for c in codes.split(",")}
            existing = out.get(line_no)
            out[line_no] = parsed if existing is None else parsed | existing

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                record(tok.start[0], tok.string)
        return out
    except (tokenize.TokenError, IndentationError, SyntaxError):
        out.clear()
        for i, line in enumerate(source.splitlines(), start=1):
            if "#" in line:
                record(i, line)
        return out


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


@dataclass
class FileResult:
    """The outcome of linting one file."""

    path: str
    findings: list[Finding]
    suppressed: list[Finding]


def parse_source(source: str, path: str) -> ast.Module:
    """Parse one file's source for linting.

    Raises:
        LintError: On syntax errors in ``source``.
    """
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc


def file_context(
    source: str, path: str, *, project_root: str | Path | None = None
) -> LintContext:
    """The one per-file context that the rules and the summary read:
    ``source`` parsed, its parents linked, its import map and ``# noqa``
    map built, each once.

    Args:
        source: Python source text.
        path: Real or virtual path, as findings should report it; its
            package-relative form drives rule scoping.
        project_root: Repository root for rules that cross-check other
            files (e.g. the register map); ``None`` disables those
            lookups and the rules fall back to their built-in defaults.

    Raises:
        LintError: On syntax errors in ``source``.
    """
    tree = parse_source(source, path)
    _link_parents(tree)
    return LintContext(
        path=path,
        module_path=module_relpath(path),
        source=source,
        tree=tree,
        imports=ImportMap(tree),
        project_root=Path(project_root) if project_root is not None else None,
        noqa=noqa_map(source),
    )


def check_file(ctx: LintContext) -> list[Finding]:
    """Run every per-file rule over one file's context: raw, sorted findings.

    This is one stage of an analysis, not a whole one: ``# noqa``
    suppression, the rules that need the whole program (RPL001/002,
    RPL701, RPL9xx) and RPL910 run in :mod:`repro.lint.driver`, whose
    :func:`~repro.lint.driver.check_source` is the public way to lint
    one string.
    """
    for rule_cls in all_rules().values():
        if rule_cls.applies_to(ctx.module_path):
            rule_cls(ctx).run()
    ctx.findings.sort()
    return ctx.findings


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files.

    Raises:
        LintError: For a path that does not exist.
    """
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(
                f for f in p.rglob("*.py")
                if not _SKIP_DIRS.intersection(f.parts)
            )
            yield from found
        elif p.is_file():
            yield p
        else:
            raise LintError(f"no such file or directory: {p}")


def register_map_path(project_root: str | Path | None) -> Path | None:
    """The checkout's ``hw/registers.py`` (what RPL203 reads), or ``None``.

    Tries the ``src/`` layout, the flat package layout and a bare
    ``hw/`` tree, in that order.
    """
    if project_root is None:
        return None
    root = Path(project_root)
    for candidate in (
        root / "src" / "repro" / "hw" / "registers.py",
        root / "repro" / "hw" / "registers.py",
        root / "hw" / "registers.py",
    ):
        if candidate.is_file():
            return candidate
    return None


def _guess_project_root(anchor: Path) -> Path:
    """Walk up from a file to the checkout root (marked by pyproject.toml)."""
    cur = anchor.resolve()
    for candidate in [cur, *cur.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return anchor.resolve().parent
