"""The declared architecture layer DAG that RPL901 enforces.

The repo's headline claim is regression-tested against fixed seeds, so
everything below the simulation boundary must stay importable — and
deterministic — without dragging in the service, fleet, or CLI
machinery above it.  The layers encode that as a rank order: a module
may import **same-or-lower** ranks, never higher.  Rationale per rank:

* ``foundation`` (0) — ``errors``: the shared exception vocabulary;
  depends on nothing so every layer can raise it.
* ``domain`` (1) — ``soc``, ``workload``, ``power``, ``qos``,
  ``thermal``, ``mem``, ``idle``, ``obs``: physical models and the
  zero-overhead observability probes.  ``obs`` sits here *because* the
  simulation engine instruments itself with it; anything ``obs``
  needed from above would drag the fleet into every simulation import.
* ``model`` (2) — ``sim``, ``governors``, ``rl``: the simulation
  engine, the DVFS policies, and the learning agents.  This is the
  bit-determinism boundary: nothing here may know about execution
  infrastructure (``serve``/``fleet``/``cli``), or a served decision
  could diverge from an offline rollout.
* ``policy`` (3) — ``core``, ``hw``: trained-policy assembly,
  checkpoints, and the hardware export path; they orchestrate layer-2
  pieces but still serve no traffic.
* ``orchestration`` (4) — ``analysis``, ``experiments``, ``fleet``,
  ``perf``, ``cache``, ``batch``: sweep/grid execution, statistics, the
  perf ledger, the content-addressed run cache and the vectorised
  backend.  ``cache`` ↔ ``fleet`` and ``batch`` ↔ ``fleet`` are
  deliberate same-rank pairings: the cache stores fleet measurements
  and the fleet probes it; the batch backend runs fleet job specs and
  the fleet runs its units of work through it.
* ``scale-out`` (5) — ``serve``: the policy-decision service, built on
  the orchestration layer.
* ``surface`` (6) — ``cli``, ``__main__``, ``lint``, the ``repro``
  root package: user entry points and tooling; may import anything.

Modules whose top-level package is not declared here (test fixtures,
``tests/``, ``benchmarks/``) are outside the DAG and exempt.
"""

from __future__ import annotations

#: Layer name → (rank, member top-level packages).
LAYERS: dict[str, tuple[int, tuple[str, ...]]] = {
    "foundation": (0, ("errors",)),
    "domain": (
        1,
        ("soc", "workload", "power", "qos", "thermal", "mem", "idle", "obs"),
    ),
    "model": (2, ("sim", "governors", "rl")),
    "policy": (3, ("core", "hw")),
    "orchestration": (
        4,
        ("analysis", "experiments", "fleet", "perf", "cache", "batch"),
    ),
    "scale-out": (5, ("serve",)),
    "surface": (6, ("cli", "__main__", "lint", "repro")),
}

#: Top-level package → (layer name, rank), derived from :data:`LAYERS`.
LAYER_RANKS: dict[str, tuple[str, int]] = {
    package: (name, rank)
    for name, (rank, packages) in LAYERS.items()
    for package in packages
}


def layer_of(module: str) -> tuple[str, int] | None:
    """The (layer name, rank) of a dotted module id, or ``None``.

    The top-level package decides: ``sim.engine`` → ``("model", 2)``.
    Unknown packages (fixtures, tests) are outside the DAG.
    """
    top = module.split(".", 1)[0] if module else ""
    return LAYER_RANKS.get(top)
