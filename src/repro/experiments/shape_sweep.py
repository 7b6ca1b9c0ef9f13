"""Sensitivity to the Weibull shape parameter (Figure 5).

Full (scaled) Jaguar-like platform; ``k`` sweeps the range reported for
production systems (0.33-0.78) and beyond, down to 0.1 where only
DPNextFailure keeps its degradation low and Liu/Bouguerra collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.degradation import DegradationStats
from repro.cluster.models import Platform
from repro.distributions import Weibull
from repro.execution import DEFAULT_EXECUTION, ExecutionConfig
from repro.experiments.common import default_parallel_policies, evaluate_scenario
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.scaling import make_overhead, make_preset

__all__ = ["ShapeSweepResult", "run_shape_sweep", "DEFAULT_SHAPES"]

DEFAULT_SHAPES = (0.15, 0.3, 0.5, 0.7, 0.85, 1.0)
PAPER_SHAPES = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass
class ShapeSweepResult:
    shapes: tuple[float, ...]
    stats: dict[float, dict[str, DegradationStats]]

    def series(self) -> dict[str, list[float]]:
        """Per-policy degradation averages along the shape axis."""
        names: list[str] = []
        for s in self.stats.values():
            for n in s:
                if n not in names:
                    names.append(n)
        return {
            n: [
                self.stats[k][n].avg if n in self.stats[k] else math.nan
                for k in self.shapes
            ]
            for n in names
        }


def run_shape_sweep(
    shapes=DEFAULT_SHAPES,
    scale: ExperimentScale = SMALL,
    seed: int = 2011,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
) -> ShapeSweepResult:
    """Degradation statistics per Weibull shape on the full scaled
    Petascale platform (Figure 5)."""
    preset = make_preset("peta", scale)
    oh = make_overhead("constant", preset)
    stats: dict[float, dict[str, DegradationStats]] = {}
    for k in shapes:
        dist = Weibull.from_mtbf(preset.processor_mtbf, k)
        platform = Platform(
            p=preset.ptotal, dist=dist, downtime=preset.downtime, overhead=oh
        )
        outcome = evaluate_scenario(
            default_parallel_policies(scale, include_dpmakespan=False),
            platform,
            work_time=preset.work / preset.ptotal,
            preset=preset,
            scale=scale,
            seed=seed,
            execution=execution,
        )
        stats[k] = outcome.degradation
    return ShapeSweepResult(shapes=tuple(shapes), stats=stats)
