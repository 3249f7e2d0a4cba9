"""Suppression hygiene (RPL910).

A ``# noqa: RPLnnn`` that no longer suppresses anything is a silent
lie: the hazard it documented was fixed (or the rule's scope moved) and
the comment now grants a free pass to any *future* violation on that
line.  RPL910 flags such dead suppressions, the same discipline ruff's
``RUF100`` applies to its own codes.

The check is necessarily a whole-run computation — "did any finding
land on this line?" is only known after every rule (including the
whole-program ones) has run — so the rule class here is inert per file
and the analysis driver (:mod:`repro.lint.driver`) produces the
findings.  Ground rules, to stay honest about what the run actually
knows:

* only ``RPL``-shaped codes are examined — ``# noqa: F401`` talks to
  some other linter;
* only codes the current run *selected* can be called unused — an
  unselected rule produced no findings by construction;
* an unknown ``RPL`` code is always flagged — it can never suppress
  anything (a retired code such as ``RPL902`` included);
* ``RPL910`` itself is never flagged, and a ``# noqa: RPL910`` on the
  line suppresses the unused-suppression finding like any other;
* a bare ``# noqa`` is left alone (it suppresses *everything*, so it
  is "used" whenever any rule could fire — attribution is impossible).
"""

from __future__ import annotations

from repro.lint.engine import Rule, register


@register
class UnusedSuppressionRule(Rule):
    """RPL910: a ``# noqa: RPLnnn`` that suppresses no finding."""

    code = "RPL910"
    name = "suppressions.unused-noqa"
    summary = (
        "`# noqa: RPLnnn` with no matching finding on its line; dead "
        "suppressions hide future violations"
    )

    def run(self) -> None:
        """Per-file pass: nothing to do (computed by the analysis driver)."""
