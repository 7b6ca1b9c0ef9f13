"""Log-based failures (Figure 7 and Appendix E).

The paper replays availability logs of LANL clusters 18/19 (4-processor
nodes) through the discrete empirical distribution of Section 4.3.  We
substitute synthetic LANL-like logs (see
:mod:`repro.traces.logs`) and scale the availability durations by
``ptotal_scaled / 45208`` so the scaled platform sits in the same brutal
regime as the paper's (platform MTBF of the same order as ``C + R``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.degradation import DegradationStats
from repro.cluster.models import ConstantOverhead, Platform
from repro.cluster.presets import PETASCALE
from repro.distributions import Empirical
from repro.execution import DEFAULT_EXECUTION, ExecutionConfig
from repro.experiments.common import evaluate_scenario, logbased_policies
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.scaling import p_axis
from repro.traces.logs import synthesize_lanl_like_log

__all__ = ["LogBasedResult", "run_logbased_experiment"]


@dataclass
class LogBasedResult:
    cluster: int
    p_values: list[int]
    stats: dict[int, dict[str, DegradationStats]]

    def series(self) -> dict[str, list[float]]:
        """Per-policy degradation averages along the p axis."""
        names: list[str] = []
        for s in self.stats.values():
            for n in s:
                if n not in names:
                    names.append(n)
        return {
            n: [
                self.stats[p][n].avg if n in self.stats[p] else math.nan
                for p in self.p_values
            ]
            for n in names
        }


def run_logbased_experiment(
    cluster: int = 19,
    scale: ExperimentScale = SMALL,
    seed: int = 2011,
    work_factor: float = 0.25,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
) -> LogBasedResult:
    """``work_factor`` shortens the job relative to the preset's 8-day
    full-platform workload: in the log-based regime a failure strikes
    every few platform-MTBFs of ~10-20 checkpoint periods, so even a
    2-day job sees hundreds of failures and the statistics converge."""
    import dataclasses

    from repro.units import YEAR

    preset = PETASCALE.scale(scale.ptotal_peta)
    preset = dataclasses.replace(
        preset,
        work=preset.work * work_factor,
        # Failures are so dense that a one-year post-warm-up horizon
        # covers any makespan; keeps trace generation cheap.
        horizon=preset.start_offset + YEAR,
    )
    log = synthesize_lanl_like_log(cluster=cluster, seed=seed)
    # Scale durations so the *scaled* full platform has the same
    # (C+R)/platform-MTBF ratio as the paper's 45208-processor runs.
    factor = scale.ptotal_peta / PETASCALE.ptotal
    dist = Empirical(np.asarray(log.durations) * factor)
    ps = p_axis(preset, scale.n_p_points)
    stats: dict[int, dict[str, DegradationStats]] = {}
    for p in ps:
        platform = Platform(
            p=p,
            dist=dist,
            downtime=preset.downtime,
            overhead=ConstantOverhead(preset.overhead_seconds),
            procs_per_node=log.procs_per_node,
        )
        outcome = evaluate_scenario(
            logbased_policies(scale),
            platform,
            work_time=preset.work / p,
            preset=preset,
            scale=scale,
            seed=seed,
            execution=execution,
        )
        stats[p] = outcome.degradation
    return LogBasedResult(cluster=cluster, p_values=ps, stats=stats)
