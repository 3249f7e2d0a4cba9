"""Batched multi-rollout simulation backend.

:class:`BatchEngine` runs many (scenario, seed, governor) rollouts in
one process, vectorising the chip/power/QoS models for table-free
governors and running each ``ondemand``/``conservative``/``interactive``
job on a four-field observation with power priced after the loop, while
remaining **bit-identical** to the reference
:class:`repro.sim.engine.Simulator` — see :mod:`repro.batch.engine` for how, and :mod:`repro.batch.plans`
for which rollouts qualify.

``rl-policy`` jobs have their own lock-step fast path
(:mod:`repro.batch.rl`): groups of structurally-matching RL training
jobs advance through every interval together, batching the featurise →
TD-update → select hot loop across rollouts under the same bit-identity
contract.
"""

from repro.batch.engine import (
    BatchEngine,
    run_batch,
    run_fixed_opp,
    run_governor_pass,
)
from repro.batch.plans import (
    REACTIVE_GOVERNORS,
    TABLE_FREE_GOVERNORS,
    fixed_opp_index,
    is_reactive,
    is_rl_vectorisable,
    is_vectorisable,
    rl_group_key,
)
from repro.batch.rl import (
    RLTrainJob,
    evaluate_policies_batch,
    train_policy_batch,
)

__all__ = [
    "BatchEngine",
    "REACTIVE_GOVERNORS",
    "RLTrainJob",
    "TABLE_FREE_GOVERNORS",
    "evaluate_policies_batch",
    "fixed_opp_index",
    "is_reactive",
    "is_rl_vectorisable",
    "is_vectorisable",
    "rl_group_key",
    "run_batch",
    "run_fixed_opp",
    "run_governor_pass",
    "train_policy_batch",
]
