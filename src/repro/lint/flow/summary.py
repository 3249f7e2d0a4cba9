"""Per-file analysis summaries: the unit of whole-program linting.

A :class:`ModuleSummary` is everything the flow rules need to know
about one file, extracted in a single AST pass and small enough to
serialise (the summary cache stores it as JSON):

* every import, with its line and whether it is *deferred* (made inside
  a function body rather than at module level) — the import graph and
  the RPL901 layer check consume these;
* every function/method, with its resolved outgoing calls — the call
  graph's edges;
* direct nondeterminism sources (the RPL001/RPL002 origin sets) and
  blocking-I/O calls (the RPL701 origin set) per function — the taint
  those rules propagate across module boundaries — plus the
  nondeterminism sources that run at import time (module and class
  bodies) on the module itself; a lambda's hazards count towards the
  code that defines it;
* ``self.*``-mutation vs ``await`` ordering per async method — the
  RPL903 shared-state hazards, precomputed here because they only need
  one function's statement order;
* the file's ``# noqa`` map and the source text of every referenced
  line, so flow findings anchored in this file can be suppressed and
  baseline-fingerprinted without re-reading the source.

Call resolution is name-based (the same :class:`~repro.lint.engine.ImportMap`
the per-file rules use): ``self.helper()`` resolves to the enclosing
class, a bare ``helper()`` to a module-level definition, and imported
names to their dotted origin.  Calls through variables of unknown type
(``self._queue.get()``) are *not* resolved — the flow rules are a
static over-approximation of the program, not a points-to analysis, and
``docs/static-analysis.md`` documents that boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.lint.engine import ImportMap, module_relpath, noqa_map

#: Bumped when the summary shape (or its extraction semantics) changes;
#: part of the cache key, so stale summaries invalidate themselves.
SUMMARY_SCHEMA = 2


def module_name(path: str) -> str:
    """The dotted module id of a package-relative path.

    ``src/repro/sim/engine.py`` → ``sim.engine``; ``sim/__init__.py`` →
    ``sim``; the repo root ``src/repro/__init__.py`` → ``repro``.  The
    ``repro.`` prefix is deliberately dropped so fixture files with
    virtual package-relative paths (``sim/x.py``) and real tree files
    land in the same namespace.
    """
    rel = module_relpath(path)
    if rel.endswith(".py"):
        rel = rel[: -len(".py")]
    parts = [p for p in rel.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "repro"


@dataclass(frozen=True)
class ImportRecord:
    """One import statement's target, as the import graph sees it.

    ``target`` is the dotted name *as resolvable*: for ``import a.b``
    it is ``a.b``; for ``from a.b import c`` it is ``a.b.c`` (the graph
    drops the last segment when ``a.b.c`` turns out to be a symbol, not
    a module).  A leading ``repro.`` is stripped at graph-assembly
    time, not here.
    """

    target: str
    line: int
    deferred: bool

    def to_mapping(self) -> dict[str, Any]:
        """The JSON-serialisable form stored in the summary cache."""
        return {"target": self.target, "line": self.line,
                "deferred": self.deferred}

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ImportRecord":
        return cls(target=str(data["target"]), line=int(data["line"]),
                   deferred=bool(data["deferred"]))


@dataclass(frozen=True)
class CallSite:
    """One outgoing call with a name-resolved target.

    ``kind`` is ``"local"`` (bare name defined at this module's top
    level), ``"self"`` (a ``self.method()`` call, target already
    class-qualified), or ``"resolved"`` (dotted origin through the
    import map — possibly external; the call graph decides).
    """

    target: str
    line: int
    kind: str

    def to_mapping(self) -> dict[str, Any]:
        """The JSON-serialisable form stored in the summary cache."""
        return {"target": self.target, "line": self.line, "kind": self.kind}

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "CallSite":
        return cls(target=str(data["target"]), line=int(data["line"]),
                   kind=str(data["kind"]))


@dataclass(frozen=True)
class Hazard:
    """A direct nondeterminism or blocking-I/O call, at its source position."""

    origin: str
    line: int
    code: str
    col: int = 0

    def to_mapping(self) -> dict[str, Any]:
        """The JSON-serialisable form stored in the summary cache."""
        return {"origin": self.origin, "line": self.line, "code": self.code,
                "col": self.col}

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "Hazard":
        return cls(origin=str(data["origin"]), line=int(data["line"]),
                   code=str(data["code"]), col=int(data["col"]))


@dataclass(frozen=True)
class AwaitHazard:
    """A ``self.<attr>`` write that spans an ``await`` (RPL903 input).

    The attribute is accessed at ``first_line``, the coroutine yields
    at ``await_line``, and the attribute is written at ``write_line``
    — another handler instance may have interleaved at the await.
    """

    attr: str
    write_line: int
    await_line: int
    first_line: int

    def to_mapping(self) -> dict[str, Any]:
        """The JSON-serialisable form stored in the summary cache."""
        return {"attr": self.attr, "write_line": self.write_line,
                "await_line": self.await_line, "first_line": self.first_line}

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "AwaitHazard":
        return cls(attr=str(data["attr"]), write_line=int(data["write_line"]),
                   await_line=int(data["await_line"]),
                   first_line=int(data["first_line"]))


@dataclass(frozen=True)
class FunctionSummary:
    """One function or method, as the call graph sees it."""

    qualname: str
    line: int
    is_async: bool
    calls: tuple[CallSite, ...] = ()
    nondet: tuple[Hazard, ...] = ()
    blocking: tuple[Hazard, ...] = ()
    await_hazards: tuple[AwaitHazard, ...] = ()

    def to_mapping(self) -> dict[str, Any]:
        """The JSON-serialisable form stored in the summary cache."""
        return {
            "qualname": self.qualname,
            "line": self.line,
            "is_async": self.is_async,
            "calls": [c.to_mapping() for c in self.calls],
            "nondet": [h.to_mapping() for h in self.nondet],
            "blocking": [h.to_mapping() for h in self.blocking],
            "await_hazards": [h.to_mapping() for h in self.await_hazards],
        }

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=str(data["qualname"]),
            line=int(data["line"]),
            is_async=bool(data["is_async"]),
            calls=tuple(CallSite.from_mapping(c) for c in data["calls"]),
            nondet=tuple(Hazard.from_mapping(h) for h in data["nondet"]),
            blocking=tuple(Hazard.from_mapping(h) for h in data["blocking"]),
            await_hazards=tuple(
                AwaitHazard.from_mapping(h) for h in data["await_hazards"]
            ),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the flow rules need to know about one file."""

    path: str
    module_path: str
    module: str
    imports: tuple[ImportRecord, ...] = ()
    functions: tuple[FunctionSummary, ...] = ()
    #: nondeterminism sources outside any function (module and class
    #: bodies, and lambdas defined there): they run at import time.
    nondet: tuple[Hazard, ...] = ()
    #: line → None (bare noqa) or sorted codes; flow-finding suppression.
    suppressions: dict[int, list[str] | None] = field(default_factory=dict)
    #: source text of every line referenced by a record above, so flow
    #: findings carry ``line_text`` for baseline fingerprinting.
    line_texts: dict[int, str] = field(default_factory=dict)

    def line_text(self, line: int) -> str:
        """The stripped source text of one line (1-based), or empty."""
        return self.line_texts.get(line, "")

    def to_mapping(self) -> dict[str, Any]:
        """The JSON-serialisable form stored in the summary cache."""
        return {
            "schema": SUMMARY_SCHEMA,
            "path": self.path,
            "module_path": self.module_path,
            "module": self.module,
            "imports": [i.to_mapping() for i in self.imports],
            "functions": [f.to_mapping() for f in self.functions],
            "nondet": [h.to_mapping() for h in self.nondet],
            "suppressions": {
                str(line): codes for line, codes in self.suppressions.items()
            },
            "line_texts": {
                str(line): text for line, text in self.line_texts.items()
            },
        }

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ModuleSummary":
        return cls(
            path=str(data["path"]),
            module_path=str(data["module_path"]),
            module=str(data["module"]),
            imports=tuple(
                ImportRecord.from_mapping(i) for i in data["imports"]
            ),
            functions=tuple(
                FunctionSummary.from_mapping(f) for f in data["functions"]
            ),
            nondet=tuple(Hazard.from_mapping(h) for h in data["nondet"]),
            suppressions={
                int(line): (None if codes is None else [str(c) for c in codes])
                for line, codes in data["suppressions"].items()
            },
            line_texts={
                int(line): str(text)
                for line, text in data["line_texts"].items()
            },
        )


# ---------------------------------------------------------------------------
# Hazard classification
# ---------------------------------------------------------------------------

#: Dotted call origins that read the wall clock or OS entropy (RPL001).
#: ``time.perf_counter`` is absent on purpose: wall-clock *job timing*
#: is telemetry and never reaches simulated quantities.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: numpy.random attributes that are construction, not global-state use.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "Philox",
    "BitGenerator",
}

#: Dotted origins that park the event loop outright (RPL701).
_SLEEP_ORIGINS = {"time.sleep"}

#: Attribute tails that mean synchronous file I/O on the receiver (RPL701).
_FILE_IO_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes", "open"}


def _unseeded(node: ast.Call) -> bool:
    """Whether a ``default_rng(...)`` call draws OS entropy (no seed)."""
    if not node.args and not node.keywords:
        return True
    first = node.args[0] if node.args else None
    if first is None:
        for kw in node.keywords:
            if kw.arg == "seed":
                first = kw.value
                break
    return isinstance(first, ast.Constant) and first.value is None


def _nondet_hazard(origin: str | None, node: ast.Call) -> Hazard | None:
    """Classify a resolved call as an RPL001/RPL002 source, or ``None``."""
    if origin is None:
        return None
    line, col = node.lineno, node.col_offset
    if origin in _WALL_CLOCK_CALLS:
        return Hazard(origin=origin, line=line, code="RPL001", col=col)
    if origin.startswith("random."):
        return Hazard(origin=origin, line=line, code="RPL002", col=col)
    if origin.startswith("numpy.random."):
        attr = origin.removeprefix("numpy.random.")
        if attr == "default_rng":
            if _unseeded(node):
                return Hazard(origin=origin, line=line, code="RPL002", col=col)
            return None
        if attr not in _NP_RANDOM_OK:
            return Hazard(origin=origin, line=line, code="RPL002", col=col)
    return None


def _blocking_hazard(origin: str | None, node: ast.Call) -> Hazard | None:
    """Classify a call as a blocking operation (the RPL701 origin set)."""
    line, col = node.lineno, node.col_offset
    if origin in _SLEEP_ORIGINS:
        return Hazard(origin=origin or "", line=line, code="sleep", col=col)
    if isinstance(node.func, ast.Name) and node.func.id == "open":
        return Hazard(origin="open", line=line, code="file-io", col=col)
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _FILE_IO_ATTRS
    ):
        return Hazard(origin=f".{node.func.attr}", line=line, code="file-io",
                      col=col)
    return None


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _self_attr(node: ast.expr) -> str | None:
    """The first attribute of a ``self.<attr>...`` chain, or ``None``."""
    chain: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        chain.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name) and cur.id == "self" and chain:
        return chain[-1]
    return None


def _iter_body(root: ast.AST) -> Iterator[tuple[ast.AST, bool]]:
    """The nodes that run when ``root`` runs, each flagged if in a lambda.

    Nested ``def`` bodies are skipped (they run only when called, and
    get their own summary); nested class bodies run with ``root``.  A
    lambda's body counts for ``root``'s nondeterminism but adds no call
    edge or blocking call: handing a lambda to ``run_in_executor`` is
    the sanctioned way off the event loop.
    """
    stack = [(child, False) for child in ast.iter_child_nodes(root)]
    while stack:
        node, in_lambda = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node, in_lambda
        in_lambda = in_lambda or isinstance(node, ast.Lambda)
        stack.extend((child, in_lambda) for child in ast.iter_child_nodes(node))


_LOCK_HINTS = ("lock", "mutex", "semaphore", "sem")


def _is_lock_guard(stmt: ast.AST) -> bool:
    """Whether a ``with``/``async with`` looks like a synchronisation guard."""
    if not isinstance(stmt, (ast.With, ast.AsyncWith)):
        return False
    for item in stmt.items:
        try:
            text = ast.unparse(item.context_expr).lower()
        except Exception:  # pragma: no cover - unparse is total on 3.10+
            continue
        if any(hint in text for hint in _LOCK_HINTS):
            return True
    return False


def _await_hazards(fn: ast.AsyncFunctionDef) -> tuple[AwaitHazard, ...]:
    """``self.*`` writes that span an await, in statement order.

    The walk is ordered by source position — an over-approximation of
    control flow (loops fold onto one pass), which is the right bias
    for a hazard detector.  Writes under a ``with``/``async with`` on
    anything lock-shaped are considered synchronised and skipped.
    """
    events: list[tuple[int, int, str, str]] = []  # (line, col, kind, attr)
    guarded_writes: set[int] = set()

    def walk(node: ast.AST, guarded: bool) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        if isinstance(node, ast.Await):
            events.append(
                (node.lineno, node.col_offset, "await", "")
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    events.append(
                        (node.lineno, node.col_offset, "write", attr)
                    )
                    if guarded:
                        guarded_writes.add(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            attr = _self_attr(node)
            if attr is not None:
                events.append((node.lineno, node.col_offset, "read", attr))
        child_guarded = guarded or _is_lock_guard(node)
        for child in ast.iter_child_nodes(node):
            walk(child, child_guarded)

    for stmt in fn.body:
        walk(stmt, False)
    events.sort(key=lambda e: (e[0], e[1]))

    hazards: list[AwaitHazard] = []
    seen: set[tuple[str, int]] = set()
    for i, (line, _col, kind, attr) in enumerate(events):
        if kind != "write" or line in guarded_writes:
            continue
        # The latest await before this write, and the earliest access of
        # the same attribute before that await.
        await_line = None
        for pline, _pcol, pkind, _pattr in reversed(events[:i]):
            if pkind == "await":
                await_line = pline
                break
        if await_line is None:
            continue
        first_line = None
        for pline, _pcol, pkind, pattr in events[:i]:
            if pline >= await_line:
                break
            if pkind in ("read", "write") and pattr == attr:
                first_line = pline
                break
        if first_line is None or (attr, line) in seen:
            continue
        seen.add((attr, line))
        hazards.append(
            AwaitHazard(
                attr=attr, write_line=line,
                await_line=await_line, first_line=first_line,
            )
        )
    return tuple(hazards)


def _function_summary(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    imports: ImportMap,
    local_defs: set[str],
    class_name: str | None,
) -> FunctionSummary:
    calls: list[CallSite] = []
    nondet: list[Hazard] = []
    blocking: list[Hazard] = []
    for node, in_lambda in _iter_body(fn):
        if not isinstance(node, ast.Call):
            continue
        line = node.lineno
        origin = imports.resolve(node.func)
        hazard = _nondet_hazard(origin, node)
        if hazard is not None:
            nondet.append(hazard)
        if in_lambda:
            continue
        block = _blocking_hazard(origin, node)
        if block is not None:
            blocking.append(block)
        # Call-graph edge candidates, most specific resolution first.
        attr = (
            _self_attr(node.func)
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if attr is not None and class_name is not None:
            calls.append(
                CallSite(target=f"{class_name}.{attr}", line=line,
                         kind="self")
            )
        elif origin is not None and "." in origin:
            calls.append(CallSite(target=origin, line=line, kind="resolved"))
        elif origin is not None and origin in local_defs:
            calls.append(CallSite(target=origin, line=line, kind="local"))
    is_async = isinstance(fn, ast.AsyncFunctionDef)
    return FunctionSummary(
        qualname=qualname,
        line=fn.lineno,
        is_async=is_async,
        calls=tuple(calls),
        nondet=tuple(nondet),
        blocking=tuple(blocking),
        await_hazards=_await_hazards(fn) if is_async else (),
    )


def _is_type_checking_guard(node: ast.AST) -> bool:
    """Whether an ``if`` statement is an ``if TYPE_CHECKING:`` guard."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _collect_imports(tree: ast.Module) -> list[ImportRecord]:
    records: list[ImportRecord] = []

    def handle(child: ast.AST, deferred: bool) -> None:
        if _is_type_checking_guard(child):
            # Type-only imports are erased at runtime: they cannot
            # deadlock start-up or violate runtime layering, so the
            # graph (and RPL901) never sees the guarded body.
            assert isinstance(child, ast.If)
            for alt in child.orelse:
                handle(alt, deferred)
            return
        if isinstance(child, ast.Import):
            for alias in child.names:
                records.append(
                    ImportRecord(target=alias.name, line=child.lineno,
                                 deferred=deferred)
                )
        elif isinstance(child, ast.ImportFrom):
            if child.module and child.level == 0:
                for alias in child.names:
                    records.append(
                        ImportRecord(
                            target=f"{child.module}.{alias.name}",
                            line=child.lineno, deferred=deferred,
                        )
                    )
        else:
            child_deferred = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            for grandchild in ast.iter_child_nodes(child):
                handle(grandchild, child_deferred)

    for stmt in tree.body:
        handle(stmt, False)
    return records


def summarize_source(
    source: str, path: str, tree: ast.Module | None = None
) -> ModuleSummary:
    """Extract one file's :class:`ModuleSummary`.

    Args:
        source: Python source text.
        path: Real or virtual path; drives the module id and scoping.
        tree: An already-parsed AST to reuse (the driver parses once for
            the per-file rules and hands the tree in here).
    """
    if tree is None:
        tree = ast.parse(source, filename=path)
    imports = ImportMap(tree)
    local_defs = {
        stmt.name
        for stmt in tree.body
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }

    functions: list[FunctionSummary] = []
    # Every def at any depth (inside ``if``/``try`` blocks too), in
    # source order: (node, qualname prefix, enclosing class name).
    stack: list[tuple[ast.AST, str, str | None]] = [(tree, "", None)]
    while stack:
        node, prefix, class_name = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            functions.append(
                _function_summary(
                    node, qualname, imports, local_defs, class_name
                )
            )
            # Nested defs get their own (dotted) entry so taint in a
            # closure still lands in the index.
            prefix = f"{qualname}."
        elif isinstance(node, ast.ClassDef):
            prefix, class_name = f"{prefix}{node.name}.", node.name
        children = list(ast.iter_child_nodes(node))
        stack.extend((child, prefix, class_name) for child in reversed(children))
    module_nondet: list[Hazard] = []
    for node, _in_lambda in _iter_body(tree):
        if isinstance(node, ast.Call):
            hazard = _nondet_hazard(imports.resolve(node.func), node)
            if hazard is not None:
                module_nondet.append(hazard)

    import_records = _collect_imports(tree)
    suppressions = {
        line: (None if codes is None else sorted(codes))
        for line, codes in noqa_map(source).items()
    }

    lines = source.splitlines()

    def text(line: int) -> str:
        return lines[line - 1] if 1 <= line <= len(lines) else ""

    referenced: set[int] = set()
    # noqa lines included so RPL910 findings can fingerprint themselves.
    referenced.update(suppressions)
    for rec in import_records:
        referenced.add(rec.line)
    referenced.update(h.line for h in module_nondet)
    for fn in functions:
        referenced.add(fn.line)
        referenced.update(c.line for c in fn.calls)
        referenced.update(h.line for h in fn.nondet)
        referenced.update(h.line for h in fn.blocking)
        referenced.update(h.write_line for h in fn.await_hazards)

    posix_path = path.replace("\\", "/")
    return ModuleSummary(
        path=posix_path,
        module_path=module_relpath(posix_path),
        module=module_name(posix_path),
        imports=tuple(import_records),
        functions=tuple(functions),
        nondet=tuple(module_nondet),
        suppressions=suppressions,
        line_texts={line: text(line) for line in sorted(referenced)},
    )
