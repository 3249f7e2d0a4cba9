"""Rule modules; importing this package registers every rule.

Rule code families:

* ``RPL001``/``RPL002`` — determinism: wall clock and global RNG, in
  the simulation code and wherever the simulation loop reaches
  (:mod:`repro.lint.flow.rules`)
* ``RPL003`` — determinism: set iteration
  (:mod:`repro.lint.rules.determinism`)
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
* ``RPL701`` — serve-loop discipline: blocking calls on the event
  loop, directly or through sync helpers (:mod:`repro.lint.flow.rules`)
* ``RPL901``/``RPL903`` — whole-program structure
  (:mod:`repro.lint.flow.rules`): architecture layering, asyncio
  shared-state hazards
* ``RPL910`` — suppression hygiene
  (:mod:`repro.lint.rules.suppressions`)
"""

from repro.lint.flow import rules as _flow_rules  # noqa: F401
from repro.lint.rules import (  # noqa: F401
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
