"""Set-iteration rule (RPL003).

The headline claims only reproduce if a simulation's outputs are a pure
function of its inputs and seeds: the fleet promises bit-identical rows
whether a job runs serially or on a pool, and the paper's energy/QoS
numbers are regression-tested against fixed seeds.

* **RPL003** — iterating a ``set`` (literal, comprehension,
  ``set(...)`` call, or set algebra) in a ``for`` loop or comprehension.
  Set iteration order varies across processes with hash randomisation;
  wrap the set in ``sorted(...)`` to pin it.

Scope: the determinism scope (``sim/``, ``rl/``, ``batch/``,
``fleet/worker.py``) — the code that runs inside (or feeds) simulation,
where the bit-determinism contract holds.  The other two determinism
hazards, wall-clock reads (RPL001) and global or unseeded RNG (RPL002),
also matter wherever the simulation loop reaches, so the whole-program
pass owns them (:mod:`repro.lint.flow.rules`); set iteration is a
property of one loop, not of reachability, and stays per file.
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, register
from repro.lint.flow.rules import DETERMINISM_SCOPE


def _is_set_expr(node: ast.expr) -> bool:
    """Whether an expression's value is statically known to be a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)
    ):
        # Set algebra keeps set-ness if either side is a known set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class SetIterationRule(Rule):
    """RPL003: no iteration over unordered sets in simulation code."""

    code = "RPL003"
    name = "determinism.set-iteration"
    summary = (
        "iterating a set in simulation code is hash-order dependent; "
        "wrap it in sorted(...)"
    )
    scope = DETERMINISM_SCOPE

    _MESSAGE = (
        "iteration order of a set depends on hash randomisation and can "
        "differ between worker processes; iterate sorted(...) instead"
    )

    def visit_For(self, node: ast.For) -> None:
        """Flag `for ... in <set>` loops."""
        if _is_set_expr(node.iter):
            self.report(node.iter, self._MESSAGE)
        self.generic_visit(node)

    def _visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        """Flag set-sourced generators in a comprehension."""
        for gen in node.generators:
            if _is_set_expr(gen.iter):
                self.report(gen.iter, self._MESSAGE)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = _visit_comprehension
    visit_DictComp = visit_GeneratorExp = _visit_comprehension
