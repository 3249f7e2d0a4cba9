"""Rule modules; importing this package registers every rule.

Rule code families:

* ``RPL0xx`` — determinism (:mod:`repro.lint.rules.determinism`)
* ``RPL1xx`` — unit consistency (:mod:`repro.lint.rules.units`)
* ``RPL2xx`` — fixed-point discipline (:mod:`repro.lint.rules.fixedpoint`)
* ``RPL3xx`` — observability overhead (:mod:`repro.lint.rules.obsguard`)
* ``RPL4xx`` — exception policy (:mod:`repro.lint.rules.exceptions`)
* ``RPL501``/``RPL601``/``RPL801``/``RPL802`` — sole-writer discipline
  for the perf ledger, run cache, ops log and learning ledger: one
  rule (:mod:`repro.lint.rules.solewriter`), one :data:`SOLE_WRITERS`
  row per store (:mod:`~repro.lint.rules.perfledger`,
  :mod:`~repro.lint.rules.cachedir`, :mod:`~repro.lint.rules.opslog`,
  :mod:`~repro.lint.rules.learnlog`)
* ``RPL7xx`` — serve-loop discipline
  (:mod:`repro.lint.rules.asyncblocking`)
* ``RPL90x`` — whole-program flow analysis
  (:mod:`repro.lint.flow.rules`): architecture layering,
  interprocedural determinism taint, asyncio shared-state hazards,
  transitive blocking calls
* ``RPL910`` — suppression hygiene
  (:mod:`repro.lint.rules.suppressions`)
"""

from repro.lint.flow import rules as _flow_rules  # noqa: F401
from repro.lint.rules import (  # noqa: F401
    asyncblocking,
    cachedir,
    determinism,
    exceptions,
    fixedpoint,
    learnlog,
    obsguard,
    opslog,
    perfledger,
    suppressions,
    units,
)

#: The sole-writer table: one row per store, in rule-code order.
SOLE_WRITERS = (perfledger.ROW, cachedir.ROW, opslog.ROW, learnlog.ROW)
