"""E5/E6 — learning behaviour: convergence and cross-scenario adaptation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.plot import sparkline
from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.batch import RLTrainJob, run_batch, train_policy_batch
from repro.core.config import PolicyConfig
from repro.core.trainer import evaluate_policy, make_policies, train_policy
from repro.fleet import JobSpec
from repro.obs.learn import ConvergenceSpec, LearnRecorder, plateau_episode
from repro.sim.engine import Simulator
from repro.sim.result import SimulationResult
from repro.soc.chip import Chip
from repro.soc.presets import PRESETS, exynos5422
from repro.workload.scenarios import get_scenario

#: The detector settings matching E5's historical tail heuristic: the
#: greedy curve has converged once a 4-point window stops moving by more
#: than 25% relative spread (``max/min < 1.25``, bench_e5's old assert).
E5_CONVERGENCE = ConvergenceSpec(window=4, reward_plateau_tol=0.25)


def e5_convergence_episode(
    values: Sequence[float], spec: ConvergenceSpec | None = None
) -> int | None:
    """First curve index whose trailing window plateaus, or ``None``.

    Routes the old ad-hoc "tail max/min ratio" convergence test through
    the declarative :class:`~repro.obs.learn.ConvergenceSpec` detector
    (window + ``reward_plateau_tol`` are the fields that apply to a bare
    energy curve).
    """
    spec = spec or E5_CONVERGENCE
    return plateau_episode(values, spec.window, spec.reward_plateau_tol)


@dataclass(frozen=True)
class E5Result:
    """E5: the greedy-evaluation learning curve.

    Attributes:
        report: Table + sparkline rendering of the curve.
        curve: ``(episodes_trained, result)`` pairs; entry 0 is the
            untrained policy.
    """

    report: str
    curve: tuple[tuple[int, SimulationResult], ...]

    @property
    def start_j(self) -> float:
        return self.curve[0][1].energy_per_qos_j

    def tail_mean_j(self, n: int = 4) -> float:
        """Mean greedy energy/QoS over the last ``n`` curve points."""
        return mean([run.energy_per_qos_j for _, run in self.curve[-n:]])

    def tail_qos(self, n: int = 4) -> float:
        """Mean QoS over the last ``n`` curve points."""
        return mean([run.qos.mean_qos for _, run in self.curve[-n:]])

    def convergence_episode(
        self, spec: ConvergenceSpec | None = None
    ) -> int | None:
        """First curve index where greedy energy/QoS plateaus, or None."""
        return e5_convergence_episode(
            [run.energy_per_qos_j for _, run in self.curve], spec
        )


def e5_learning_curve(
    scenario_name: str = "gaming",
    episodes: int = 16,
    episode_duration_s: float = 15.0,
    eval_seed: int = 100,
    chip: Chip | None = None,
    config: PolicyConfig | None = None,
    recorder: LearnRecorder | None = None,
) -> E5Result:
    """Train episode by episode, evaluating greedily on one fixed trace
    after each — the proper learning curve (see DESIGN.md E5).

    With a ``recorder``, each training episode appends one learning
    record (global episode index matching the curve's x-axis).
    """
    chip = chip or exynos5422()
    scenario = get_scenario(scenario_name)
    eval_trace = scenario.trace(episode_duration_s, seed=eval_seed)
    policies = make_policies(chip, config)

    curve: list[tuple[int, SimulationResult]] = []
    curve.append((0, evaluate_policy(chip, policies, eval_trace)))
    for episode in range(episodes):
        train_policy(
            chip,
            scenario,
            episodes=1,
            episode_duration_s=episode_duration_s,
            base_seed=episode,
            config=config,
            policies=policies,
            recorder=recorder,
            episode_offset=episode,
        )
        curve.append((episode + 1, evaluate_policy(chip, policies, eval_trace)))

    rows = [
        (ep, run.total_energy_j, run.qos.mean_qos, run.energy_per_qos_j * 1e3)
        for ep, run in curve
    ]
    report = "\n".join(
        [
            format_table(
                ["episodes trained", "energy [J]", "QoS", "greedy E/QoS [mJ/unit]"],
                rows,
                title=f"E5: greedy-evaluation learning curve ({scenario_name})",
            ),
            "",
            "E/QoS  " + sparkline([run.energy_per_qos_j for _, run in curve]),
            "QoS    " + sparkline([run.qos.mean_qos for _, run in curve]),
        ]
    )
    return E5Result(report=report, curve=tuple(curve))


@dataclass(frozen=True)
class E6Segment:
    """One scenario segment of the E6 adaptation run."""

    scenario: str
    adapting_j: float
    specialist_j: float
    ondemand_j: float
    adapting_qos: float


@dataclass(frozen=True)
class E6Result:
    """E6: cross-scenario online adaptation.

    Attributes:
        report: The rendered per-segment table.
        segments: Per-segment comparisons.
    """

    report: str
    segments: tuple[E6Segment, ...]


def e6_adaptation(
    segments: list[str] | None = None,
    segment_duration_s: float = 20.0,
    train_episodes: int = 12,
    train_episode_s: float = 15.0,
    eval_seed: int = 100,
    chip: str = "exynos5422",
    recorder: LearnRecorder | None = None,
) -> E6Result:
    """A policy trained on the first segment's scenario keeps learning
    online as the device moves through the remaining segments; each
    segment is compared against a per-scenario specialist and ondemand.

    The travelling policy and the specialists train lock-step, one
    ``chip`` preset instance per lane; the evaluations learn online, so
    they run on :class:`~repro.sim.engine.Simulator`.  A ``recorder``
    ledgers the travelling policy's training episodes only.
    """
    segments = segments or ["gaming", "video_playback", "web_browsing"]
    jobs = [
        RLTrainJob(PRESETS[chip](), get_scenario(name), episodes=train_episodes,
                   episode_duration_s=train_episode_s,
                   recorder=None if k else recorder)
        for k, name in enumerate([segments[0], *segments])
    ]
    travelling, *specialists = train_policy_batch(jobs)
    ondemand = run_batch([
        JobSpec(name, "ondemand", seed=eval_seed, chip=chip,
                duration_s=segment_duration_s)
        for name in segments
    ])
    out: list[E6Segment] = []
    for name, job, trained, baseline in zip(
        segments, jobs[1:], specialists, ondemand
    ):
        trace = get_scenario(name).trace(segment_duration_s, seed=eval_seed)
        adapted = Simulator(jobs[0].chip, trace, travelling.policies).run()
        specialist = Simulator(job.chip, trace, trained.policies).run()
        out.append(
            E6Segment(
                scenario=name,
                adapting_j=adapted.energy_per_qos_j,
                specialist_j=specialist.energy_per_qos_j,
                ondemand_j=baseline.energy_per_qos_j,
                adapting_qos=adapted.qos.mean_qos,
            )
        )
    report = format_table(
        ["segment", "adapting [mJ]", "specialist [mJ]", "ondemand [mJ]",
         "adapting QoS"],
        [
            (s.scenario, s.adapting_j * 1e3, s.specialist_j * 1e3,
             s.ondemand_j * 1e3, s.adapting_qos)
            for s in out
        ],
        title=(
            f"E6: {segments[0]}-trained policy adapting online through "
            + " -> ".join(segments)
        ),
    )
    return E6Result(report=report, segments=tuple(out))
