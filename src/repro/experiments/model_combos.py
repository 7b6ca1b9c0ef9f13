"""Work-model x overhead-model grid (Appendix B/C).

The paper's appendices repeat the headline comparison for every
combination of parallelism model (embarrassingly parallel, Amdahl,
numerical kernel) and checkpoint-overhead model (constant,
proportional), for both rejuvenation options under Exponential failures
and for Weibull failures.  The stated conclusion — identical relative
ranking of the heuristics everywhere — is what this driver checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.analysis.degradation import DegradationStats
from repro.cluster.models import Platform
from repro.execution import DEFAULT_EXECUTION, ExecutionConfig
from repro.experiments.common import (
    default_parallel_policies,
    evaluate_scenario,
    make_distribution,
)
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.scaling import make_overhead, make_preset, make_work_model

__all__ = ["ComboResult", "run_model_combo_experiment", "DEFAULT_COMBOS"]

DEFAULT_COMBOS = tuple(
    product(("embarrassing", "amdahl", "kernel"), ("constant", "proportional"))
)


@dataclass
class ComboResult:
    dist_kind: str
    combos: tuple[tuple[str, str], ...]
    stats: dict[tuple[str, str], dict[str, DegradationStats]]

    def ranking(self, combo) -> list[str]:
        """Policy names sorted by average degradation for one combo
        (LowerBound/PeriodLB excluded)."""
        s = self.stats[combo]
        names = [
            n for n in s if n not in ("LowerBound", "PeriodLB") and s[n].n_valid > 0
        ]
        return sorted(names, key=lambda n: s[n].avg)


def run_model_combo_experiment(
    platform_kind: str = "peta",
    dist_kind: str = "weibull",
    combos=DEFAULT_COMBOS,
    scale: ExperimentScale = SMALL,
    weibull_k: float = 0.7,
    p: int | None = None,
    seed: int = 2011,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
) -> ComboResult:
    """Run the heuristic comparison for every (work model, overhead)
    combination at one processor count.

    Defaults to a *quarter* of the platform: at ``p = ptotal`` the
    proportional overhead ``C(p) = 600 ptotal / p`` coincides with the
    constant 600 s by construction, so the overhead dimension of the
    grid would be vacuous there; at ``ptotal/4`` the models differ 4x.
    """
    preset = make_preset(platform_kind, scale)
    if p is None:
        p = max(1, preset.ptotal // 4)
    dist = make_distribution(dist_kind, preset.processor_mtbf, weibull_k)
    include_dpm = dist_kind == "exponential"
    stats: dict[tuple[str, str], dict[str, DegradationStats]] = {}
    for wm_kind, oh_kind in combos:
        wm = make_work_model(wm_kind, preset)
        platform = Platform(
            p=p,
            dist=dist,
            downtime=preset.downtime,
            overhead=make_overhead(oh_kind, preset),
        )
        outcome = evaluate_scenario(
            default_parallel_policies(scale, include_dpm),
            platform,
            work_time=wm.time(p),
            preset=preset,
            scale=scale,
            seed=seed,
            execution=execution,
        )
        stats[(wm_kind, oh_kind)] = outcome.degradation
    return ComboResult(dist_kind=dist_kind, combos=tuple(combos), stats=stats)
