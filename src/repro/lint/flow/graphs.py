"""Project assembly: the import graph and the call graph.

A :class:`Project` is a set of :class:`~repro.lint.flow.summary.ModuleSummary`
objects indexed by module id.  From it:

* :class:`ImportGraph` — module → module edges from the import records,
  each with its source line and deferral flag.  Cycle detection
  (Tarjan SCCs) runs over the **module-level** edges only: a deferred
  import cannot deadlock interpreter start-up, while a module-level
  cycle is exactly the thing that breaks ``import repro.sim`` depending
  on who imported it first.
* :class:`CallGraph` — function → function edges by name resolution.
  Function ids are global dotted names (``sim.engine.Simulator.run``);
  a call site resolves through the import map, through one level of
  package re-exports (``from repro.serve import PolicyServer`` finds
  ``serve.server.PolicyServer``), and constructor calls land on
  ``__init__``.  Reachability (:meth:`CallGraph.reachable`) returns a
  BFS parent tree so rules can print full call chains.

Both graphs render to DOT and JSON for ``repro graph``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.lint.flow.summary import FunctionSummary, ModuleSummary


@dataclass(frozen=True)
class ImportEdge:
    """One module-to-module import, with provenance."""

    src: str
    dst: str
    line: int
    deferred: bool


class Project:
    """The summaries of one whole-program analysis run, by module id."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.summaries: dict[str, ModuleSummary] = {}
        for summary in summaries:
            # Last writer wins on module-id collisions (e.g. duplicate
            # virtual paths in tests); real trees have unique ids.
            self.summaries[summary.module] = summary
        #: One-hop re-export map: module → {local name → dotted target}.
        self._exports: dict[str, dict[str, str]] = {}
        for module, summary in self.summaries.items():
            exports: dict[str, str] = {}
            for rec in summary.imports:
                if rec.deferred:
                    continue
                name = rec.target.rsplit(".", 1)[-1]
                exports[name] = self._strip(rec.target)
            self._exports[module] = exports

    @staticmethod
    def _strip(target: str) -> str:
        """Normalise a dotted import target into project namespace.

        Dropping a leading ``repro.`` maps real-tree imports onto the
        package-relative module ids summaries use.
        """
        return target.removeprefix("repro.") if target != "repro" else target

    @property
    def modules(self) -> list[str]:
        return sorted(self.summaries)

    def resolve_module(self, target: str) -> str | None:
        """The project module a dotted import target lands in, if any.

        Tries the stripped target itself, then drops trailing segments
        (``sim.engine.ENGINE_VERSION`` → ``sim.engine`` → ``sim``): an
        ``from a.b import c`` record stores ``a.b.c`` whether ``c`` is a
        submodule or a symbol, and only the project knows which.
        """
        parts = self._strip(target).split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self.summaries:
                return candidate
            parts.pop()
        return None

    def function_index(self) -> dict[str, tuple[str, FunctionSummary]]:
        """Global function id → (module id, summary)."""
        index: dict[str, tuple[str, FunctionSummary]] = {}
        for module, summary in self.summaries.items():
            for fn in summary.functions:
                index[f"{module}.{fn.qualname}"] = (module, fn)
        return index

    def resolve_function(
        self,
        module: str,
        target: str,
        kind: str,
        index: Mapping[str, tuple[str, FunctionSummary]],
    ) -> str | None:
        """The global function id a call site resolves to, or ``None``."""
        if kind in ("local", "self"):
            return self._lookup(f"{module}.{target}", index)
        dotted = self._strip(target)
        for _hop in range(4):  # bounded re-export chasing
            resolved = self._lookup(dotted, index)
            if resolved is not None:
                return resolved
            # Re-export: find the longest module prefix and map the next
            # segment through that module's import table.
            parts = dotted.split(".")
            chased = None
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in self.summaries:
                    rest = parts[cut:]
                    exported = self._exports.get(prefix, {}).get(rest[0])
                    if exported is not None:
                        chased = ".".join([exported, *rest[1:]])
                    break
            if chased is None or chased == dotted:
                return None
            dotted = chased
        return None

    @staticmethod
    def _lookup(
        dotted: str, index: Mapping[str, tuple[str, FunctionSummary]]
    ) -> str | None:
        if dotted in index:
            return dotted
        init = f"{dotted}.__init__"
        if init in index:
            return init
        return None


class ImportGraph:
    """Module-level and deferred import edges between project modules."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.edges: list[ImportEdge] = []
        for module, summary in sorted(project.summaries.items()):
            seen: set[tuple[str, int, bool]] = set()
            for rec in summary.imports:
                dst = project.resolve_module(rec.target)
                if dst is None or dst == module:
                    continue
                key = (dst, rec.line, rec.deferred)
                if key in seen:
                    continue
                seen.add(key)
                self.edges.append(
                    ImportEdge(src=module, dst=dst, line=rec.line,
                               deferred=rec.deferred)
                )

    def adjacency(self, *, include_deferred: bool = True) -> dict[str, list[str]]:
        """Module → imported-module lists, optionally module-level only."""
        adj: dict[str, list[str]] = {m: [] for m in self.project.modules}
        for edge in self.edges:
            if edge.deferred and not include_deferred:
                continue
            if edge.dst not in adj[edge.src]:
                adj[edge.src].append(edge.dst)
        return adj

    def cycles(self) -> list[list[str]]:
        """Module-level import cycles, as sorted SCC member lists.

        Tarjan's algorithm, iterative (lint runs inside CI's default
        recursion limit).  Only strongly-connected components with more
        than one member count: the graph has no self-loops, because an
        import of the importing module itself is dropped.
        """
        adj = self.adjacency(include_deferred=False)
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[list[str]] = []

        for root in sorted(adj):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, child_i = work[-1]
                if child_i == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = adj[node]
                while child_i < len(children):
                    child = children[child_i]
                    child_i += 1
                    if child not in index:
                        work[-1] = (node, child_i)
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if recurse:
                    continue
                work[-1] = (node, child_i)
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
                work.pop()
                if work:
                    parent, _ = work[-1]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        sccs.sort()
        return sccs

    def to_json(self) -> str:
        """The graph as versioned JSON (``repro graph imports --format json``)."""
        payload = {
            "version": 1,
            "modules": self.project.modules,
            "edges": [
                {"from": e.src, "to": e.dst, "line": e.line,
                 "deferred": e.deferred}
                for e in self.edges
            ],
        }
        return json.dumps(payload, indent=2)

    def to_dot(self) -> str:
        """Graphviz DOT; deferred imports render as dashed edges."""
        lines = ["digraph imports {", "  rankdir=LR;", "  node [shape=box];"]
        for module in self.project.modules:
            lines.append(f'  "{module}";')
        for e in self.edges:
            style = " [style=dashed]" if e.deferred else ""
            lines.append(f'  "{e.src}" -> "{e.dst}"{style};')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller → callee edge, with the call-site line."""

    src: str
    dst: str
    line: int


class CallGraph:
    """Name-resolution-based function → function edges."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.index = project.function_index()
        self.edges: list[CallEdge] = []
        adjacency: dict[str, list[CallEdge]] = {}
        for module, summary in sorted(project.summaries.items()):
            for fn in summary.functions:
                src = f"{module}.{fn.qualname}"
                for call in fn.calls:
                    dst = project.resolve_function(
                        module, call.target, call.kind, self.index
                    )
                    if dst is None or dst == src:
                        continue
                    edge = CallEdge(src=src, dst=dst, line=call.line)
                    self.edges.append(edge)
                    adjacency.setdefault(src, []).append(edge)
        self._adjacency = adjacency

    def callees(self, src: str) -> list[CallEdge]:
        """The resolved outgoing edges of one function id."""
        return self._adjacency.get(src, [])

    def reachable(
        self,
        roots: Iterable[str],
        follow: Callable[[FunctionSummary], bool] | None = None,
    ) -> dict[str, tuple[str, int] | None]:
        """BFS tree from ``roots``: function id → (parent id, call line).

        Roots map to ``None``.  The parent pointers reconstruct the
        shortest call chain from a root to any reachable function, and
        the dict's order is BFS discovery order.  ``follow``, when
        given, restricts the walk to callees whose summary it accepts.
        """
        parents: dict[str, tuple[str, int] | None] = {}
        frontier: list[str] = []
        for root in sorted(set(roots)):
            if root in self.index and root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            next_frontier: list[str] = []
            for node in frontier:
                for edge in self.callees(node):
                    if edge.dst in parents:
                        continue
                    if follow is not None and not follow(
                        self.index[edge.dst][1]
                    ):
                        continue
                    parents[edge.dst] = (node, edge.line)
                    next_frontier.append(edge.dst)
            frontier = next_frontier
        return parents

    @staticmethod
    def chain(
        parents: Mapping[str, tuple[str, int] | None], node: str
    ) -> list[str]:
        """The root → ... → node path reconstructed from a BFS tree."""
        path = [node]
        while (parent := parents.get(path[-1])) is not None:
            path.append(parent[0])
        path.reverse()
        return path

    def to_json(self) -> str:
        """The graph as versioned JSON (``repro graph calls --format json``)."""
        payload = {
            "version": 1,
            "functions": sorted(self.index),
            "edges": [
                {"from": e.src, "to": e.dst, "line": e.line}
                for e in self.edges
            ],
        }
        return json.dumps(payload, indent=2)

    def to_dot(self) -> str:
        """Graphviz DOT over the functions that participate in edges."""
        lines = ["digraph calls {", "  rankdir=LR;", "  node [shape=oval];"]
        used = sorted(
            {e.src for e in self.edges} | {e.dst for e in self.edges}
        )
        for fn in used:
            lines.append(f'  "{fn}";')
        for e in self.edges:
            lines.append(f'  "{e.src}" -> "{e.dst}";')
        lines.append("}")
        return "\n".join(lines)
