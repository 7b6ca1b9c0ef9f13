"""Degradation vs checkpoint-period factor (Appendix A, and the a/b
panels of the Appendix B/C figures).

``PeriodVariation``: run the periodic policy with period
``OptExp-period x 2^f`` for factors ``f`` on a log2 axis, alongside the
standard heuristic set, and report every average degradation.  This is
the study showing that near the optimum the makespan is almost flat in
the period (why Young/Daly do fine for Exponential failures) and how the
curve sharpens for Weibull at scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.degradation import DegradationStats, degradation_from_best
from repro.cluster.models import Platform
from repro.cluster.presets import PlatformPreset
from repro.execution import DEFAULT_EXECUTION, ExecutionConfig
from repro.experiments.common import make_distribution
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.scaling import make_overhead, make_preset
from repro.policies.base import PeriodicPolicy
from repro.simulation.runner import run_scenarios
from repro.core.theory import optimal_num_chunks

__all__ = ["PeriodSweepResult", "run_period_sweep"]


@dataclass
class PeriodSweepResult:
    log2_factors: tuple[float, ...]
    sweep: dict[float, DegradationStats]
    heuristics: dict[str, DegradationStats]


def run_period_sweep(
    platform_kind: str = "peta",
    dist_kind: str = "weibull",
    p: int | None = None,
    log2_factors=(-4, -3, -2, -1, 0, 1, 2, 3, 4),
    scale: ExperimentScale = SMALL,
    weibull_k: float = 0.7,
    seed: int = 2011,
    preset: PlatformPreset | None = None,
    work_time: float | None = None,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
) -> PeriodSweepResult:
    """Sweep the period factor on one scenario.

    ``preset``/``work_time`` may be given directly (e.g. 1-processor
    scenarios for Appendix A); otherwise the scaled platform preset is
    used with an embarrassingly-parallel job on ``p`` processors.
    """
    if preset is None:
        preset = make_preset(platform_kind, scale)
    if p is None:
        p = preset.ptotal
    dist = make_distribution(dist_kind, preset.processor_mtbf, weibull_k)
    platform = Platform(
        p=p,
        dist=dist,
        downtime=preset.downtime,
        overhead=make_overhead("constant", preset),
    )
    if work_time is None:
        work_time = preset.work / p
    base = work_time / optimal_num_chunks(
        1.0 / platform.platform_mtbf, work_time, platform.checkpoint
    )
    from repro.experiments.common import default_parallel_policies

    policies = list(default_parallel_policies(scale, include_dpmakespan=False))
    policies += [
        PeriodicPolicy(base * 2.0**f, name=f"Period[2^{f:+g}]") for f in log2_factors
    ]
    raw = run_scenarios(
        policies,
        platform,
        work_time,
        n_traces=scale.n_traces,
        horizon=preset.horizon,
        t0=preset.start_offset,
        seed=seed,
        execution=execution,
        include_period_lb=False,
        max_makespan=scale.max_makespan_factor * work_time * 2.0**4,
    )
    stats = degradation_from_best(raw.makespans)
    sweep = {
        f: stats[f"Period[2^{f:+g}]"] for f in log2_factors
    }
    heur = {k: v for k, v in stats.items() if not k.startswith("Period[")}
    return PeriodSweepResult(
        log2_factors=tuple(log2_factors), sweep=sweep, heuristics=heur
    )
