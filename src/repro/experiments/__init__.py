"""Every paper experiment as a library function.

The ``benchmarks/`` tree wraps these for ``pytest-benchmark``; users can
run them programmatically:

    from repro.experiments import run_headline_sweep, e1_energy_per_qos
    result = e1_energy_per_qos(run_headline_sweep())
    print(result.report)

Module map (ids match DESIGN.md's experiment index):

* :mod:`repro.experiments.headline`   — E1, E2, E3
* :mod:`repro.experiments.latency`    — E4
* :mod:`repro.experiments.learning`   — E5, E6
* :mod:`repro.experiments.hardware`   — E7, A4, A6
* :mod:`repro.experiments.ablations`  — A1, A2, A3
* :mod:`repro.experiments.robustness` — X1, X2
"""

from repro.experiments.ablations import (
    A1Result,
    A2Result,
    A3Result,
    a1_state_ablation,
    a2_reward_sweep,
    a3_learner_ablation,
    static_oracle,
)
from repro.experiments.hardware import (
    A4Result,
    A6Result,
    E7Result,
    a4_wordlength,
    a6_fpga_resources,
    decision_agreement,
    e7_hw_fidelity,
    transfer_to_hardware,
)
from repro.experiments.headline import (
    E1Result,
    E2Result,
    E3Result,
    PAPER_IMPROVEMENT_PERCENT,
    e1_energy_per_qos,
    e2_per_scenario,
    e3_qos_preservation,
    run_headline_sweep,
)
from repro.experiments.latency import (
    E4Result,
    PAPER_BEST_CASE_SPEEDUP,
    PAPER_TYPICAL_SPEEDUP,
    e4_decision_latency,
)
from repro.experiments.learning import (
    E5Result,
    E6Result,
    e5_learning_curve,
    e6_adaptation,
)
from repro.experiments.robustness import (
    X1Result,
    X2Result,
    x1_full_system,
    x2_seed_stability,
)

__all__ = [
    "A1Result",
    "A2Result",
    "A3Result",
    "A4Result",
    "A6Result",
    "E1Result",
    "E2Result",
    "E3Result",
    "E4Result",
    "E5Result",
    "E6Result",
    "E7Result",
    "PAPER_BEST_CASE_SPEEDUP",
    "PAPER_IMPROVEMENT_PERCENT",
    "PAPER_TYPICAL_SPEEDUP",
    "X1Result",
    "X2Result",
    "a1_state_ablation",
    "a2_reward_sweep",
    "a3_learner_ablation",
    "a4_wordlength",
    "a6_fpga_resources",
    "decision_agreement",
    "e1_energy_per_qos",
    "e2_per_scenario",
    "e3_qos_preservation",
    "e4_decision_latency",
    "e5_learning_curve",
    "e6_adaptation",
    "e7_hw_fidelity",
    "run_headline_sweep",
    "static_oracle",
    "transfer_to_hardware",
    "x1_full_system",
    "x2_seed_stability",
]
