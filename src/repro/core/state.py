"""State featurisation for the RL power-management policy.

The state captures the "behavioural characteristics of systems that run
on mobile devices" the paper conditions on: how loaded the cluster is,
where demand is heading (from the predictor), which OPP it sits at, and
how much QoS slack remains in the pending queue.
"""

from __future__ import annotations

from repro.core.config import PolicyConfig
from repro.core.predictor import WorkloadPredictor
from repro.errors import PolicyError
from repro.rl.discretize import Binner, StateSpace
from repro.sim.telemetry import ClusterObservation


class StateFeaturizer:
    """Turns observations into flat Q-table state indices.

    Args:
        config: Policy configuration (bin counts, predictor parameters).
        n_opps: Size of the controlled cluster's OPP table.
    """

    def __init__(self, config: PolicyConfig, n_opps: int):
        if n_opps < 1:
            raise PolicyError(f"need at least one OPP: {n_opps}")
        self.config = config
        self.n_opps = n_opps
        self.space = StateSpace(
            [
                ("util", config.util_bins),
                ("trend", config.trend_bins),
                ("opp", config.opp_bins),
                ("slack", config.slack_bins),
            ]
        )
        # Utilisation of the busiest core, scaled to the top OPP so the
        # feature is frequency-invariant ("absolute load").  Loads can
        # exceed 1 only through queue backlog, which the slack feature
        # covers, so we bin [0, 1].  A bin count of 1 disables a feature
        # (its digit is constant 0).
        self._util_binner = self._binner(0.0, 1.0, config.util_bins)
        # Predicted per-interval load change; +-6 % per 10 ms is already a
        # strong ramp, so the outer bins catch real phase swings.
        self._trend_binner = self._binner(-0.06, 0.06, config.trend_bins)
        self._slack_binner = self._binner(0.0, 1.0, config.slack_bins)
        self.predictor = WorkloadPredictor(
            alpha=config.predictor_alpha,
            phase_change_threshold=config.phase_change_threshold,
        )

    @staticmethod
    def _binner(lo: float, hi: float, n_bins: int) -> Binner | None:
        """A binner, or ``None`` when the feature is disabled (1 bin)."""
        return Binner.uniform(lo, hi, n_bins) if n_bins > 1 else None

    @property
    def n_states(self) -> int:
        return self.space.n_states

    def digits(self, obs: ClusterObservation) -> tuple[int, int, int, int]:
        """The raw (util, trend, opp, slack) digit vector for an observation.

        Feeds the predictor as a side effect: call exactly once per
        interval, in time order.
        """
        load = obs.absolute_load
        self.predictor.observe(load)
        util_bin = 0 if self._util_binner is None else min(
            self._util_binner.bin(self.predictor.level), self.config.util_bins - 1
        )
        trend_bin = 0 if self._trend_binner is None else min(
            self._trend_binner.bin(self.predictor.trend), self.config.trend_bins - 1
        )
        opp_bin = self.opp_digit(obs.opp_index)
        slack_bin = 0 if self._slack_binner is None else min(
            self._slack_binner.bin(obs.qos_slack), self.config.slack_bins - 1
        )
        return util_bin, trend_bin, opp_bin, slack_bin

    def opp_digit(self, opp_index: int) -> int:
        """The OPP digit: the index quantised into ``opp_bins`` bins."""
        return min(
            opp_index * self.config.opp_bins // max(1, self.n_opps),
            self.config.opp_bins - 1,
        )

    def encode(self, obs: ClusterObservation) -> int:
        """Flat state index for an observation (advances the predictor)."""
        return self.space.encode(self.digits(obs))

    def reset(self) -> None:
        """Clear the predictor between runs."""
        self.predictor.reset()
