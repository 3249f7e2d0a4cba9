"""The MPSoC: a named collection of clusters with independent DVFS domains."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import ConfigurationError
from repro.soc.cluster import Cluster, ClusterSpec


class Chip:
    """A multiprocessor system-on-chip built from DVFS clusters.

    The chip owns runtime :class:`~repro.soc.cluster.Cluster` objects and
    provides lookup by name.  Governors attach per cluster; the scheduler
    and power model iterate over all clusters.

    Args:
        name: Chip model name for reporting.
        cluster_specs: Static cluster descriptions; names must be unique.
    """

    def __init__(self, name: str, cluster_specs: Iterable[ClusterSpec]):
        self.name = name
        self.clusters: list[Cluster] = [Cluster(spec) for spec in cluster_specs]
        if not self.clusters:
            raise ConfigurationError("a chip needs at least one cluster")
        names = [c.spec.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate cluster names: {names}")
        self._by_name: Mapping[str, Cluster] = {
            c.spec.name: c for c in self.clusters
        }

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{c.spec.name}:{c.spec.n_cores}x{c.spec.core.name}" for c in self.clusters
        )
        return f"Chip({self.name!r}, {inner})"

    def cluster(self, name: str) -> Cluster:
        """Look a cluster up by name.

        Raises:
            ConfigurationError: If no cluster has that name.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(
                f"chip {self.name!r} has no cluster {name!r}; "
                f"available: {sorted(self._by_name)}"
            ) from None

    @property
    def cluster_names(self) -> list[str]:
        """Cluster names in declaration order."""
        return [c.spec.name for c in self.clusters]

    @property
    def n_cores(self) -> int:
        """Total core count across all clusters."""
        return sum(c.n_cores for c in self.clusters)

    def reset(self) -> None:
        """Reset every cluster's runtime state (OPPs return to the floor)."""
        for cluster in self.clusters:
            cluster.reset()
