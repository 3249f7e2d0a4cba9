"""Sole-writer discipline: the one rule behind RPL501/601/801/802.

The perf ledger, the run cache, the ops log and the learning ledger
each stay trustworthy only while one blessed module writes them; an
ad-hoc ``json.dump`` forks the schema (or, for the cache, breaks
content addressing), and the reader chokes or a gate silently skips
the line.  A :class:`SoleWriter` row names one store; the rule flags
write-ish calls (``json.dump``/``dumps``, ``open``, ``write_text``,
``.open``, ``.write``) whose receiver or arguments name the store,
anywhere outside its blessed module.  Each store's row lives in the
module named for it (:mod:`~repro.lint.rules.perfledger`,
:mod:`~repro.lint.rules.cachedir`, :mod:`~repro.lint.rules.opslog`,
:mod:`~repro.lint.rules.learnlog`), which registers it with
:func:`register_row`; :data:`repro.lint.rules.SOLE_WRITERS` is the
table of all four.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import ClassVar

from repro.lint.engine import Rule, register

#: Call shapes that write data: plain names and attribute tails.
_WRITE_NAMES = {"open"}
_WRITE_ATTRS = {"dump", "dumps", "open", "write", "write_text"}


@dataclass(frozen=True)
class SoleWriter:
    """One row of the sole-writer table.

    Attributes:
        code: The rule code.
        name: Registry name.
        blessed: Package-relative path of the one module allowed to
            write the store.
        names: Regex searched in lowercased identifiers and attribute
            names that mention the store.
        strings: Regex searched in lowercased string constants (default:
            ``names``).
        summary: The catalogue line.
        hint: The finding message, pointing at the blessed writer.
    """

    code: str
    name: str
    blessed: str
    names: str
    summary: str
    hint: str
    strings: str | None = None

    def mentions(self, node: ast.expr) -> bool:
        """Whether any sub-expression of ``node`` names the store."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                pattern, text = self.strings or self.names, sub.value
            elif isinstance(sub, ast.Name):
                pattern, text = self.names, sub.id
            elif isinstance(sub, ast.Attribute):
                pattern, text = self.names, sub.attr
            else:
                continue
            if re.search(pattern, text.lower()):
                return True
        return False


def _is_write_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _WRITE_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in _WRITE_ATTRS
    return False


class SoleWriterRule(Rule):
    """Flags writes that bypass a store's blessed writer module."""

    row: ClassVar[SoleWriter]

    @classmethod
    def applies_to(cls, module_path: str) -> bool:
        # Everywhere *except* the blessed writer module.
        return module_path != cls.row.blessed

    def visit_Call(self, node: ast.Call) -> None:
        """Flag writes whose receiver or arguments name the store."""
        if _is_write_call(node):
            targets = list(node.args) + [kw.value for kw in node.keywords]
            if isinstance(node.func, ast.Attribute):
                targets.append(node.func.value)
            if any(self.row.mentions(t) for t in targets):
                self.report(node, self.row.hint)
        self.generic_visit(node)


def register_row(row: SoleWriter) -> type[Rule]:
    """Register the rule that enforces ``row`` under its own code."""
    return register(
        type(
            f"SoleWriter{row.code}",
            (SoleWriterRule,),
            {
                "__doc__": f"{row.code}: {row.summary}",
                "code": row.code,
                "name": row.name,
                "summary": row.summary,
                "row": row,
            },
        )
    )
