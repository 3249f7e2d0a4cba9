"""Fixed-point discipline rules (RPL201–RPL203).

The FPGA datapath model (:mod:`repro.hw.datapath`,
:mod:`repro.hw.fixed_point`) must stay faithful to integer RTL: every
quantity is a raw integer in a declared Q-format, arithmetic saturates,
and the only legal float crossings are the declared conversion helpers
(quantize/dequantize and friends).  A stray float literal or a true
division in the update path silently turns the "3.92x faster, bit-exact
vs software" claim into a float model with extra steps.

* **RPL201** — a float literal in datapath arithmetic outside the
  conversion helpers.  Defaults of config parameters (``gamma: float =
  0.85``) are interface-level and exempt; so are ``__init__`` /
  ``__post_init__`` validation (quantisation happens once at
  configuration time, which *is* a conversion boundary).
* **RPL202** — true division (``/``) outside the conversion helpers;
  hardware divides by shifting.
* **RPL203** — a ``QFormat(int_bits=..., frac_bits=...)`` literal in
  ``hw/`` whose total width exceeds the MMIO reward field declared in
  :mod:`repro.hw.registers` (``OBS1_REWARD_BITS``): such a format could
  never be carried over the register interface.  The width is parsed
  out of ``registers.py`` at lint time so the register map stays the
  single source of truth.
"""

from __future__ import annotations

import ast

from repro.lint.engine import (
    LintContext,
    Rule,
    ancestors,
    register,
    register_map_path,
)

_DATAPATH_SCOPE = ("hw/datapath.py", "hw/fixed_point.py")

#: Functions allowed to touch floats / true division: the declared
#: float<->raw conversion boundary of the datapath model.
CONVERSION_HELPERS = {
    "quantize",
    "dequantize",
    "saturate",
    "to_float_table",
    "load_float_table",
    "from_float",
    "max_value",
    "min_value",
    "resolution",
    "alpha",
    "__init__",
    "__post_init__",
}

_FALLBACK_REWARD_BITS = 16


def _enclosing_function(node: ast.AST) -> str | None:
    for anc in ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc.name
    return None


def _in_conversion_helper(node: ast.AST) -> bool:
    name = _enclosing_function(node)
    return name is not None and name in CONVERSION_HELPERS


def _is_default_value(node: ast.AST) -> bool:
    """Whether the node sits in a function signature's default values."""
    for anc in ancestors(node):
        if isinstance(anc, ast.arguments):
            return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            return False
    return False


def _is_annotated_class_default(node: ast.AST) -> bool:
    """Whether the node is a dataclass-style class-level field default."""
    for anc in ancestors(node):
        if isinstance(anc, (ast.AnnAssign, ast.Assign)):
            assign_parent = next(ancestors(anc), None)
            return isinstance(assign_parent, ast.ClassDef)
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


@register
class FloatLiteralRule(Rule):
    """RPL201: no float literals in datapath arithmetic."""

    code = "RPL201"
    name = "fixed-point.float-literal"
    summary = (
        "datapath arithmetic is raw-integer only; float literals belong "
        "in the declared conversion helpers or config defaults"
    )
    scope = _DATAPATH_SCOPE

    def visit_Constant(self, node: ast.Constant) -> None:
        """Flag float literals outside the conversion boundary."""
        if (
            isinstance(node.value, float)
            and not _in_conversion_helper(node)
            and not _is_default_value(node)
            and not _is_annotated_class_default(node)
        ):
            self.report(
                node,
                f"float literal {node.value!r} in datapath code outside a "
                "conversion helper; fixed-point paths carry raw integers",
            )


@register
class TrueDivisionRule(Rule):
    """RPL202: no true division in datapath arithmetic."""

    code = "RPL202"
    name = "fixed-point.true-division"
    summary = (
        "`/` in datapath code outside a conversion helper; hardware "
        "rescales with shifts, not float division"
    )
    scope = _DATAPATH_SCOPE

    def visit_BinOp(self, node: ast.BinOp) -> None:
        """Flag `/` outside the conversion boundary."""
        if isinstance(node.op, ast.Div) and not _in_conversion_helper(node):
            self.report(
                node,
                "true division in datapath code outside a conversion "
                "helper; use shifts (or move this into a declared helper)",
            )
        self.generic_visit(node)


def _reward_field_bits(ctx: LintContext) -> int:
    """The OBS1 reward field width, parsed from ``hw/registers.py``.

    Falls back to the interface's historical 16 bits when the file (or
    the ``OBS1_REWARD_BITS`` constant) cannot be found — e.g. when
    linting a detached fixture file.
    """
    path = register_map_path(ctx.project_root)
    if path is None:
        return _FALLBACK_REWARD_BITS
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return _FALLBACK_REWARD_BITS
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "OBS1_REWARD_BITS"
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            return node.value.value
    return _FALLBACK_REWARD_BITS


@register
class RegisterWidthRule(Rule):
    """RPL203: Q-format literals must fit the MMIO reward field."""

    code = "RPL203"
    name = "fixed-point.register-width"
    summary = (
        "a QFormat wider than the OBS1 reward field in hw/registers.py "
        "cannot cross the MMIO interface"
    )
    scope = ("hw/",)

    def visit_Call(self, node: ast.Call) -> None:
        """Cross-check literal QFormat widths against the register map."""
        if (
            isinstance(node.func, ast.Name) and node.func.id == "QFormat"
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "QFormat"
        ):
            widths = self._literal_bits(node)
            if widths is not None:
                int_bits, frac_bits = widths
                width = 1 + int_bits + frac_bits
                limit = _reward_field_bits(self.ctx)
                if width > limit:
                    self.report(
                        node,
                        f"QFormat({int_bits}, {frac_bits}) is {width} bits "
                        f"wide but the OBS1 reward field carries only "
                        f"{limit}; the register map in hw/registers.py is "
                        "the interface contract",
                    )
        self.generic_visit(node)

    @staticmethod
    def _literal_bits(node: ast.Call) -> tuple[int, int] | None:
        values: dict[str, int] = {}
        names = ("int_bits", "frac_bits")
        for i, arg in enumerate(node.args[:2]):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                values[names[i]] = arg.value
        for kw in node.keywords:
            if (
                kw.arg in names
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, int)
            ):
                values[kw.arg] = kw.value.value
        if set(values) == {"int_bits", "frac_bits"}:
            return values["int_bits"], values["frac_bits"]
        return None
