"""The whole-program rules: every rule that needs more than one AST.

These rules run over an assembled :class:`~repro.lint.flow.graphs.Project`
rather than one file's AST — the per-file engine registers them (so
``--select``/``--ignore``/``--list-rules`` treat them like any other
rule) but their :meth:`~repro.lint.engine.Rule.run` is a no-op; the
analysis driver calls :func:`check_project` instead.

* **RPL001 / RPL002** — determinism: a wall-clock or OS-entropy read
  (RPL001) or a global / unseeded RNG (RPL002) anywhere in the
  determinism scope (:data:`DETERMINISM_SCOPE`: ``sim/``, ``rl/``,
  ``batch/``, ``fleet/worker.py``), or in any function the call graph
  reaches from that scope or from the training entry points
  (:data:`ENTRY_POINTS`), across module boundaries.  A hazard one or
  more calls away carries the call chain in its message.
* **RPL701** — an async function in ``serve/`` that blocks the event
  loop (``time.sleep``, sync file I/O): directly, anchored at the
  blocking call, or through one or more sync helpers (possibly in
  other modules), anchored at the first hop of the chain.
* **RPL901** — architecture layering: an import whose target sits in a
  *higher* layer of the declared DAG (:mod:`repro.lint.flow.layers`),
  plus module-level import cycles.  ``sim/``, ``rl/``, ``hw/``,
  ``governors/`` can never reach ``serve/``, ``fleet/`` or the CLI.
* **RPL903** — asyncio shared-state hazards in ``serve/``: a
  ``self.*`` attribute accessed before an ``await`` and written after
  it in the same async function, without a lock — two handler
  instances interleave exactly at awaits.

Findings are anchored at real source positions (the offending import,
the nondeterministic call, the blocking call or the first hop into a
blocking chain), so ``# noqa`` and the baseline treat them exactly
like per-file findings.
"""

from __future__ import annotations

from repro.lint.engine import Rule, register
from repro.lint.findings import Finding
from repro.lint.flow.graphs import CallGraph, ImportGraph, Project
from repro.lint.flow.layers import layer_of
from repro.lint.flow.summary import Hazard, ModuleSummary

#: Call-graph roots for the determinism rules besides every function in
#: :data:`DETERMINISM_SCOPE`: the simulation run loop and the training
#: loops the headline numbers come from.
ENTRY_POINTS: tuple[str, ...] = (
    "sim.engine.Simulator.run",
    "core.trainer.train_policy",
    "core.trainer.train_curriculum",
)

#: The code that runs inside (or feeds) simulation, where the
#: bit-determinism contract holds: the serial engine, the learners, the
#: batch backend that produces most experiment rows, and the fleet's
#: per-job worker.  Every determinism hazard here is reported, and so is
#: every hazard in a function this code calls, at any depth.
DETERMINISM_SCOPE: tuple[str, ...] = ("sim/", "rl/", "batch/", "fleet/worker.py")


class FlowRule(Rule):
    """Base class for whole-program rules.

    Registered in the normal rule registry for selection/catalogue
    purposes, but inert per file — subclasses implement
    :meth:`check_project` and the analysis driver invokes it once per run.
    """

    def run(self) -> None:
        """Per-file pass: nothing to do (whole-program rules)."""

    @classmethod
    def check_project(
        cls, project: Project, imports: ImportGraph, calls: CallGraph
    ) -> list[Finding]:
        raise NotImplementedError

    @classmethod
    def _finding(
        cls, summary: ModuleSummary, line: int, message: str, col: int = 0
    ) -> Finding:
        return Finding(
            path=summary.path,
            line=line,
            col=col,
            code=cls.code,
            message=message,
            rule=cls.name,
            line_text=summary.line_text(line),
        )


@register
class LayeringRule(FlowRule):
    """RPL901: imports must respect the declared layer DAG."""

    code = "RPL901"
    name = "flow.layering"
    summary = (
        "import from a higher architecture layer (or a module-level "
        "import cycle); the layer DAG lives in repro.lint.flow.layers"
    )

    @classmethod
    def check_project(
        cls, project: Project, imports: ImportGraph, calls: CallGraph
    ) -> list[Finding]:
        findings: list[Finding] = []
        for edge in imports.edges:
            src_layer = layer_of(edge.src)
            dst_layer = layer_of(edge.dst)
            if src_layer is None or dst_layer is None:
                continue
            src_name, src_rank = src_layer
            dst_name, dst_rank = dst_layer
            if dst_rank <= src_rank:
                continue
            summary = project.summaries[edge.src]
            how = "deferred import of" if edge.deferred else "imports"
            findings.append(
                cls._finding(
                    summary,
                    edge.line,
                    f"{edge.src} (layer {src_name}, rank {src_rank}) "
                    f"{how} {edge.dst} (layer {dst_name}, rank "
                    f"{dst_rank}); lower layers must stay importable "
                    "without the execution machinery above them",
                )
            )
        for cycle in imports.cycles():
            anchor = cycle[0]
            summary = project.summaries[anchor]
            # Anchor at the import in `anchor` that participates in the
            # cycle, falling back to line 1.
            members = set(cycle)
            line = 1
            for edge in imports.edges:
                if edge.src == anchor and edge.dst in members and not edge.deferred:
                    line = edge.line
                    break
            chain = " -> ".join([*cycle, cycle[0]])
            findings.append(
                cls._finding(
                    summary,
                    line,
                    f"module-level import cycle: {chain}; break it with a "
                    "deferred import or by moving the shared piece down a "
                    "layer",
                )
            )
        return findings


@register
class TaintRule(FlowRule):
    """RPL001: no wall-clock or OS-entropy read reaches simulated results.

    :class:`RngTaintRule` is the same analysis for RPL002; each reports
    the hazards of its own code.
    """

    code = "RPL001"
    name = "determinism.wall-clock"
    summary = (
        "wall-clock or OS-entropy read in simulation code or in a "
        "function it or the trainer reaches; results must be a pure "
        "function of the spec and seeds"
    )
    scope = DETERMINISM_SCOPE

    @classmethod
    def check_project(
        cls, project: Project, imports: ImportGraph, calls: CallGraph
    ) -> list[Finding]:
        roots = [
            fn_id
            for fn_id, (module, _fn) in calls.index.items()
            if cls.applies_to(project.summaries[module].module_path)
            or any(
                fn_id == entry or fn_id.endswith(f".{entry}")
                for entry in ENTRY_POINTS
            )
        ]
        parents = calls.reachable(roots)
        findings: list[Finding] = []
        for module, summary in sorted(project.summaries.items()):
            # (hazard, call chain from a root); import-time code has no
            # caller, so it counts only in scope.
            hazards: list[tuple[Hazard, list[str]]] = (
                [(h, []) for h in summary.nondet]
                if cls.applies_to(summary.module_path)
                else []
            )
            for fn in summary.functions:
                fn_id = f"{module}.{fn.qualname}"
                if fn_id in parents:
                    chain = CallGraph.chain(parents, fn_id)
                    hazards.extend((h, chain) for h in fn.nondet)
            for hazard, chain in hazards:
                if hazard.code != cls.code:
                    continue
                message = cls._hazard_message(hazard.origin)
                if len(chain) > 1:
                    message += (
                        "; reachable from the simulation/training loop: "
                        + " -> ".join(chain)
                    )
                findings.append(
                    cls._finding(summary, hazard.line, message, hazard.col)
                )
        return findings

    @staticmethod
    def _hazard_message(origin: str) -> str:
        return (
            f"call to {origin}() makes simulation state depend on the "
            "wall clock; thread timestamps in from the caller instead"
        )


@register
class RngTaintRule(TaintRule):
    """RPL002: RNG must be an explicitly seeded, threaded generator."""

    code = "RPL002"
    name = "determinism.global-rng"
    summary = (
        "module-level random.* / numpy global RNG / unseeded "
        "default_rng() in simulation code or in a function it or the "
        "trainer reaches; seed and thread generators explicitly"
    )

    @staticmethod
    def _hazard_message(origin: str) -> str:
        if origin.startswith("random."):
            return (
                f"{origin}() uses the process-global stdlib RNG; pass a "
                "seeded numpy Generator through the call chain instead"
            )
        if origin == "numpy.random.default_rng":
            return (
                "default_rng() without a seed draws OS entropy; "
                "every generator must take an explicit seed"
            )
        return (
            f"{origin}() mutates numpy's hidden global RNG state; use an "
            "explicitly seeded Generator"
        )


@register
class AwaitStateRule(FlowRule):
    """RPL903: ``self.*`` mutation spanning an await in serve handlers."""

    code = "RPL903"
    name = "flow.await-shared-state"
    summary = (
        "self.* attribute accessed before an await and written after "
        "it in a serve/ async function without a lock; handlers "
        "interleave at awaits"
    )
    scope = ("serve/",)

    @classmethod
    def check_project(
        cls, project: Project, imports: ImportGraph, calls: CallGraph
    ) -> list[Finding]:
        findings: list[Finding] = []
        for module in sorted(project.summaries):
            summary = project.summaries[module]
            if not cls.applies_to(summary.module_path):
                continue
            for fn in summary.functions:
                for hazard in fn.await_hazards:
                    findings.append(
                        cls._finding(
                            summary,
                            hazard.write_line,
                            f"self.{hazard.attr} is written here after an "
                            f"await (line {hazard.await_line}) and was "
                            f"accessed before it (line {hazard.first_line}) "
                            f"in {fn.qualname}; another handler can "
                            "interleave at the await — guard it with a "
                            "lock or restructure to a single assignment",
                        )
                    )
        return findings


@register
class BlockingRule(FlowRule):
    """RPL701: no blocking call on the serve event loop, at any depth."""

    code = "RPL701"
    name = "serve.async-blocking"
    summary = (
        "async function in repro.serve reaches time.sleep or sync file "
        "I/O, directly or through sync helpers; it stalls every queued "
        "request"
    )
    scope = ("serve/",)

    @classmethod
    def check_project(
        cls, project: Project, imports: ImportGraph, calls: CallGraph
    ) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[tuple[str, int, str, int]] = set()
        for module in sorted(project.summaries):
            summary = project.summaries[module]
            if not cls.applies_to(summary.module_path):
                continue
            for fn in summary.functions:
                if not fn.is_async:
                    continue
                for hazard in fn.blocking:
                    findings.append(
                        cls._finding(
                            summary, hazard.line, cls._direct_message(hazard),
                            hazard.col,
                        )
                    )
                src_id = f"{module}.{fn.qualname}"
                for first_hop in calls.callees(src_id):
                    if calls.index[first_hop.dst][1].is_async:
                        continue
                    # The nearest blocking function through sync
                    # callees: the first in BFS discovery order.
                    parents = calls.reachable(
                        [first_hop.dst], lambda f: not f.is_async
                    )
                    hazard_fn = next(
                        (f for f in parents if calls.index[f][1].blocking),
                        None,
                    )
                    if hazard_fn is None:
                        continue
                    chain = CallGraph.chain(parents, hazard_fn)
                    hazard = calls.index[hazard_fn][1].blocking[0]
                    key = (src_id, first_hop.line, hazard_fn, hazard.line)
                    if key in seen:
                        continue
                    seen.add(key)
                    hazard_path = project.summaries[
                        calls.index[hazard_fn][0]
                    ].path
                    op = (
                        "time.sleep"
                        if hazard.code == "sleep"
                        else f"sync file I/O ({hazard.origin})"
                    )
                    chain_text = " -> ".join([src_id, *chain])
                    findings.append(
                        cls._finding(
                            summary,
                            first_hop.line,
                            f"this call chain blocks the serve event "
                            f"loop: {chain_text} performs {op} at "
                            f"{hazard_path}:{hazard.line}; ship the sync "
                            "work to a thread via loop.run_in_executor",
                        )
                    )
        return findings

    @staticmethod
    def _direct_message(hazard: Hazard) -> str:
        if hazard.code == "sleep":
            return (
                "time.sleep parks the serve event loop; use "
                "await asyncio.sleep(...)"
            )
        if hazard.origin == "open":
            return (
                "sync open() blocks the serve event loop; move the I/O "
                "to a thread via loop.run_in_executor"
            )
        return (
            f"sync file I/O ({hazard.origin}) blocks the serve event "
            "loop; move it to a thread via loop.run_in_executor"
        )


#: The whole-program rules, in code order — the driver iterates this.
FLOW_RULES: tuple[type[FlowRule], ...] = (
    TaintRule,
    RngTaintRule,
    BlockingRule,
    LayeringRule,
    AwaitStateRule,
)

FLOW_CODES: frozenset[str] = frozenset(rule.code for rule in FLOW_RULES)


def check_project(
    project: Project, codes: frozenset[str] | set[str] | None = None
) -> list[Finding]:
    """Run the (selected) flow rules over an assembled project.

    Args:
        project: Summaries of every file in the run.
        codes: Optional allow-set of rule codes (the driver passes the
            effective ``--select``/``--ignore`` expansion).

    Returns raw findings — ``# noqa`` suppression is the driver's job,
    using each summary's suppression map.
    """
    imports = ImportGraph(project)
    calls = CallGraph(project)
    findings: list[Finding] = []
    for rule_cls in FLOW_RULES:
        if codes is not None and rule_cls.code not in codes:
            continue
        findings.extend(rule_cls.check_project(project, imports, calls))
    findings.sort()
    return findings
