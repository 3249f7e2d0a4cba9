"""Finding records produced by the static-analysis engine.

A :class:`Finding` pins one rule violation to a file position.  Findings
are plain, orderable, hashable data so the engine, the baseline store,
and the output formatters can pass them around without coupling to the
rules that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: File path as given to the engine (posix separators).
        line: 1-based source line.
        col: 0-based column, as :mod:`ast` reports it.
        code: The rule code (``RPL001`` ...).
        message: Human-readable description of the violation.
        rule: The rule's registry name (``determinism.wall-clock`` ...).
        line_text: The stripped source line, carried for baseline
            fingerprinting so findings survive line-number drift.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    rule: str = field(default="", compare=False)
    line_text: str = field(default="", compare=False)

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of text output."""
        return f"{self.path}:{self.line}:{self.col}"

    def content_key(self) -> str:
        """The fingerprint payload, stable under line-number drift.

        Two findings of the same code on the same (stripped) source line
        of the same file share a key; the baseline disambiguates
        duplicates with an occurrence counter.
        """
        return f"{self.path}::{self.code}::{self.line_text.strip()}"

    def fingerprint(self, occurrence: int = 0) -> str:
        """A short stable id for baseline storage."""
        payload = f"{self.content_key()}::{occurrence}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_mapping(self) -> dict[str, object]:
        """JSON-ready representation (the ``--format json`` row)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "rule": self.rule,
        }
