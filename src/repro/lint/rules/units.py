"""Unit-consistency rules (RPL101–RPL102).

The codebase carries physical units in identifier suffixes — the
convention :mod:`repro.soc.opp` (``freq_hz`` / ``freq_mhz``) and
:mod:`repro.power.model` (``dynamic_w``, ``energy_j``) established.
Since values are plain floats, a dropped ``* 1e6`` or a watt added to a
milliwatt survives every type checker; the only machine-checkable trace
of the unit is the suffix.  These rules read it:

* **RPL101** — mixed-unit arithmetic: ``a + b``, ``a - b``, or a
  comparison where both operands carry recognised unit suffixes that
  disagree in dimension (``_hz`` vs ``_w``) or in scale (``_hz`` vs
  ``_mhz``, ``_w`` vs ``_mw``).  Multiplication and division are exempt:
  they legitimately combine dimensions.
* **RPL102** — a suffix-less float on a power/energy path: a function
  or property on ``power/``, ``qos/``, ``soc/`` or ``thermal/`` whose
  name says it yields a physical quantity (power, energy, freq, ...)
  and is annotated ``-> float`` must declare the unit in its name
  (``..._w``, ``..._j``, ``..._hz``, ...), or an explicitly
  dimensionless marker (``_frac``, ``_ratio``, ``_norm``, ...).
"""

from __future__ import annotations

import ast

from repro.lint.engine import Rule, register

#: suffix -> (dimension, scale relative to the dimension's base unit)
UNIT_SUFFIXES: dict[str, tuple[str, float]] = {
    "hz": ("frequency", 1.0),
    "khz": ("frequency", 1e3),
    "mhz": ("frequency", 1e6),
    "ghz": ("frequency", 1e9),
    "v": ("voltage", 1.0),
    "mv": ("voltage", 1e-3),
    "w": ("power", 1.0),
    "mw": ("power", 1e-3),
    "uw": ("power", 1e-6),
    "j": ("energy", 1.0),
    "mj": ("energy", 1e-3),
    "uj": ("energy", 1e-6),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "c": ("temperature", 1.0),
    "a": ("current", 1.0),
    "ma": ("current", 1e-3),
    "mah": ("charge", 1e-3),
    "pct": ("ratio", 1e-2),
}

#: Suffixes that declare "deliberately dimensionless".
DIMENSIONLESS_SUFFIXES = {
    "frac", "fraction", "ratio", "norm", "scale", "factor", "pct", "percent",
}

#: Name fragments that promise a physical quantity (RPL102 trigger).
_QUANTITY_WORDS = (
    "power", "energy", "freq", "voltage", "temperature", "current",
)

_UNIT_PATH_SCOPE = ()  # RPL101 applies package-wide
_RETURN_PATH_SCOPE = ("power/", "qos/", "soc/", "thermal/")


def unit_of(name: str) -> tuple[str, float] | None:
    """The (dimension, scale) a name's suffix declares, or ``None``.

    Only the token after the final underscore counts, so ``stall_s`` is
    seconds but ``misses`` (no underscore) carries no unit.
    """
    if "_" not in name:
        return None
    suffix = name.rsplit("_", 1)[1]
    return UNIT_SUFFIXES.get(suffix)


def _operand_name(node: ast.expr) -> str | None:
    """The identifier an operand exposes for unit inference."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        # A call's unit is its callee's declared suffix: `energy_j(...)`.
        return _operand_name(node.func)
    return None


def _operand_unit(node: ast.expr) -> tuple[str, str, float] | None:
    """(name, dimension, scale) when the operand's unit is inferable."""
    name = _operand_name(node)
    if name is None:
        return None
    unit = unit_of(name)
    if unit is None:
        return None
    return (name, *unit)


@register
class MixedUnitArithmeticRule(Rule):
    """RPL101: additive/comparative arithmetic across unit suffixes."""

    code = "RPL101"
    name = "units.mixed-arithmetic"
    summary = (
        "adding/subtracting/comparing values whose suffixes declare "
        "different units or scales (e.g. _mhz vs _hz, _w vs _mw)"
    )
    scope = _UNIT_PATH_SCOPE

    def _check_pair(self, node: ast.AST, left: ast.expr, right: ast.expr,
                    verb: str) -> None:
        lu = _operand_unit(left)
        ru = _operand_unit(right)
        if lu is None or ru is None:
            return
        lname, ldim, lscale = lu
        rname, rdim, rscale = ru
        if ldim != rdim:
            self.report(
                node,
                f"{verb} {lname!r} ({ldim}) and {rname!r} ({rdim}) mixes "
                "dimensions; convert one side explicitly",
            )
        elif lscale != rscale:
            self.report(
                node,
                f"{verb} {lname!r} and {rname!r} mixes {ldim} scales "
                f"({lscale:g} vs {rscale:g}); rescale one side explicitly",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        """Check additive arithmetic for unit agreement."""
        if isinstance(node.op, (ast.Add, ast.Sub)):
            verb = "adding" if isinstance(node.op, ast.Add) else "subtracting"
            self._check_pair(node, node.left, node.right, verb)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        """Check each comparison pair for unit agreement."""
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            self._check_pair(node, left, right, "comparing")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Check `+=` / `-=` accumulation for unit agreement."""
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_pair(node, node.target, node.value, "accumulating")
        self.generic_visit(node)


def _returns_float(node: ast.FunctionDef) -> bool:
    ret = node.returns
    return isinstance(ret, ast.Name) and ret.id == "float"


@register
class SuffixlessQuantityRule(Rule):
    """RPL102: float-returning quantity functions must declare a unit."""

    code = "RPL102"
    name = "units.suffixless-return"
    summary = (
        "a float-returning function named after a physical quantity on a "
        "power/energy path must carry a unit suffix (_w, _j, _hz, ...)"
    )
    scope = _RETURN_PATH_SCOPE

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Check a (sync or async) function's name for a declared unit."""
        self._check(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        name = node.name
        if name.startswith("_") or not _returns_float(node):  # type: ignore[arg-type]
            return
        if not any(word in name for word in _QUANTITY_WORDS):
            return
        if "_" in name:
            suffix = name.rsplit("_", 1)[1]
            if suffix in UNIT_SUFFIXES or suffix in DIMENSIONLESS_SUFFIXES:
                return
        self.report(
            node,
            f"{name}() returns a float physical quantity without a unit "
            "suffix; name it e.g. "
            f"{name}_j/{name}_w so call sites carry the unit",
        )
