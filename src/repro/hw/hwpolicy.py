"""The hardware-implemented policy: the RL governor backed by the
fixed-point datapath.

Functionally this is the same policy as
:class:`repro.core.policy.RLPowerManagementPolicy`, but every Q-value
read, argmax, and update goes through the fixed-point
:class:`~repro.hw.datapath.QLearningDatapath`, and each step's modelled
latency (pipeline + MMIO) is accumulated — so a simulation run under
this governor reports both the decisions the FPGA would make and the
time it would take making them.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PolicyConfig
from repro.core.policy import RLPowerManagementPolicy
from repro.core.state import StateFeaturizer
from repro.errors import PolicyError
from repro.governors.base import Governor
from repro.hw.datapath import QLearningDatapath
from repro.hw.fixed_point import DEFAULT_QFORMAT, QFormat
from repro.hw.interface import CpuHwInterface, InterfaceSpec
from repro.hw.pipeline import AcceleratorPipeline, PipelineSpec
from repro.hw.registers import RegisterFile
from repro.rl.reward import RewardConfig, default_energy_scale
from repro.sim.telemetry import ClusterObservation
from repro.soc.cluster import Cluster


class HardwareRLPolicy(Governor):
    """Fixed-point, latency-accounted version of the proposed policy.

    Args:
        config: Policy configuration (bins, actions, reward weights).
            The learning rate is realised as ``2**-alpha_shift``; the
            float ``config.alpha`` is ignored in favour of the shift.
        qformat: Datapath number format.
        alpha_shift: Learning-rate exponent (alpha = 2**-alpha_shift).
        online: Learn while running (True) or act greedily (False).
        pipeline_spec: Accelerator pipeline timing.
        interface_spec: MMIO link timing.
        seed: Exploration RNG seed (exploration runs on the CPU side).
    """

    name = "rl-policy-hw"

    def __init__(
        self,
        config: PolicyConfig | None = None,
        qformat: QFormat = DEFAULT_QFORMAT,
        alpha_shift: int = 2,
        online: bool = True,
        pipeline_spec: PipelineSpec | None = None,
        interface_spec: InterfaceSpec | None = None,
        seed: int | None = None,
    ):
        super().__init__()
        self.config = config or PolicyConfig()
        self.qformat = qformat
        self.alpha_shift = alpha_shift
        self.online = online
        self.featurizer: StateFeaturizer | None = None
        self.datapath: QLearningDatapath | None = None
        self.reward_config: RewardConfig | None = None
        self.pipeline = AcceleratorPipeline(
            pipeline_spec or PipelineSpec(), n_actions=self.config.n_actions
        )
        self.interface = CpuHwInterface(interface_spec or InterfaceSpec(sync_cycles=2))
        # The MMIO reward field is a fixed 16-bit Q7.8 regardless of the
        # datapath's internal table format — it is part of the register map.
        self.registers = RegisterFile(qformat=DEFAULT_QFORMAT)
        self._rng = np.random.default_rng(
            self.config.seed if seed is None else seed
        )
        self._eps_step = 0
        self._prev_state: int | None = None
        self._prev_action: int | None = None
        self.total_latency_s = 0.0
        self.decisions = 0

    # -- lifecycle ---------------------------------------------------------

    def reset(self, cluster: Cluster) -> None:
        """Bind to a cluster; datapath BRAM persists across runs."""
        super().reset(cluster)
        n_opps = len(cluster.spec.opp_table)
        if self.featurizer is not None and self.featurizer.n_opps != n_opps:
            raise PolicyError(
                f"hardware policy configured for a {self.featurizer.n_opps}-OPP "
                f"cluster; cannot re-bind to {n_opps} OPPs"
            )
        if self.featurizer is None:
            self._bind(n_opps)
        top = cluster.spec.opp_table[cluster.spec.opp_table.max_index]
        self.reward_config = RewardConfig(
            energy_scale_j=default_energy_scale(
                cluster.spec.core.ceff_f,
                top.voltage_v,
                top.freq_hz,
                cluster.n_cores,
                interval_s=0.01,
            ),
            lambda_qos=self.config.lambda_qos,
            slack_threshold=self.config.slack_threshold,
        )
        self.featurizer.reset()
        self._prev_state = None
        self._prev_action = None

    # -- decision ------------------------------------------------------------

    def decide(self, obs: ClusterObservation) -> int:
        if self.featurizer is None or self.datapath is None or self.reward_config is None:
            raise PolicyError("hardware policy decide() called before reset()")
        # CPU side: featurise and latch the observation into the MMIO
        # register file (reward is quantised at this boundary).
        digits = self.featurizer.digits(obs)
        reward = self.reward_config.compute(obs)
        self.registers.write_observation(digits, reward, learn=self.online)

        # Accelerator side: consume the registers and run the datapath.
        rx_digits, rx_reward, learn = self.registers.consume_observation()
        state = self.featurizer.space.encode(rx_digits)
        did_update = False
        if learn and self._prev_state is not None and self._prev_action is not None:
            self.datapath.update(self._prev_state, self._prev_action, rx_reward, state)
            did_update = True

        if self.online and self._rng.random() < self._epsilon():
            # Exploration runs on the CPU side (a LFSR in the real design
            # could live on either; the driver owns it here).
            action = int(self._rng.integers(self.config.n_actions))
        else:
            action = self.datapath.argmax(state)
        self.registers.publish_decision(action)
        action, _seq = self.registers.read_decision()
        self._prev_state = state
        self._prev_action = action

        # Account the modelled hardware latency for this step.
        step_latency = self.pipeline.process(with_update=did_update)
        step_latency += self.interface.round_trip_s(1)
        self.total_latency_s += step_latency
        self.decisions += 1

        table = self.cluster.spec.opp_table
        delta = self.config.action_deltas[action]
        return table.clamp_index(obs.opp_index + delta)

    def _epsilon(self) -> float:
        eps = self.config.epsilon.value(self._eps_step)
        self._eps_step += 1
        return eps

    # -- interchange with the software policy ----------------------------------

    def load_from_software(self, policy: RLPowerManagementPolicy) -> None:
        """Quantise a trained software policy's Q-table into the BRAM.

        Raises:
            PolicyError: If either policy is unbound or shapes differ.
        """
        if policy.agent is None or policy.featurizer is None:
            raise PolicyError("software policy has not been trained")
        if self.featurizer is None or self.datapath is None:
            # Mirror the software policy's geometry before a first reset.
            self._bind(policy.featurizer.n_opps)
        self.datapath.load_float_table(policy.agent.table)

    def _bind(self, n_opps: int) -> None:
        """A fresh featurizer and datapath for an ``n_opps`` cluster."""
        self.featurizer = StateFeaturizer(self.config, n_opps)
        self.datapath = QLearningDatapath(
            n_states=self.featurizer.n_states,
            n_actions=self.config.n_actions,
            qformat=self.qformat,
            alpha_shift=self.alpha_shift,
            gamma=self.config.gamma,
        )

    @property
    def mean_decision_latency_s(self) -> float:
        """Average modelled hardware latency per decision so far."""
        return self.total_latency_s / self.decisions if self.decisions else 0.0
