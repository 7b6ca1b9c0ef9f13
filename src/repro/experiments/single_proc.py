"""Single-processor study: Tables 2 and 3 (Section 5.1).

One processor, ``C = R = 600 s``, ``D = 60 s``, MTBF of 1 hour / 1 day /
1 week, Exponential or Weibull(k=0.7) failures.  The paper uses a 20-day
workload; scaled configurations shrink it (see
:class:`repro.experiments.config.ExperimentScale`) so that DPMakespan's
cubic DP stays tractable — the degradation statistics are insensitive to
the workload length once it spans several MTBFs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.degradation import DegradationStats
from repro.cluster.models import ConstantOverhead, Platform
from repro.cluster.presets import SINGLE_PROC, PlatformPreset
from repro.execution import DEFAULT_EXECUTION, ExecutionConfig
from repro.experiments.common import (
    evaluate_scenario,
    make_distribution,
    single_proc_policies,
)
from repro.experiments.config import SMALL, ExperimentScale
from repro.units import DAY, HOUR, WEEK

__all__ = ["SingleProcResult", "run_single_proc_experiment"]

DEFAULT_MTBFS = (HOUR, DAY, WEEK)


@dataclass
class SingleProcResult:
    """Per-MTBF degradation table (one paper-table column group)."""

    dist_kind: str
    mtbfs: tuple[float, ...]
    stats: dict[float, dict[str, DegradationStats]]


def run_single_proc_experiment(
    dist_kind: str = "exponential",
    mtbfs=DEFAULT_MTBFS,
    scale: ExperimentScale = SMALL,
    weibull_k: float = 0.7,
    seed: int = 2011,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
) -> SingleProcResult:
    """Reproduce Table 2 (``dist_kind='exponential'``) or Table 3
    (``'weibull'``)."""
    work = scale.single_proc_work
    stats: dict[float, dict[str, DegradationStats]] = {}
    for mtbf in mtbfs:
        dist = make_distribution(dist_kind, mtbf, weibull_k)
        platform = Platform(
            p=1,
            dist=dist,
            downtime=SINGLE_PROC.downtime,
            overhead=ConstantOverhead(SINGLE_PROC.overhead_seconds),
        )
        preset = PlatformPreset(
            name=f"1proc-mtbf{mtbf:.0f}",
            ptotal=1,
            downtime=SINGLE_PROC.downtime,
            overhead_seconds=SINGLE_PROC.overhead_seconds,
            processor_mtbf=mtbf,
            work=work,
            horizon=scale.max_makespan_factor * work + mtbf,
            start_offset=0.0,
        )
        outcome = evaluate_scenario(
            single_proc_policies(scale),
            platform,
            work_time=work,
            preset=preset,
            scale=scale,
            seed=seed,
            execution=execution,
        )
        stats[mtbf] = outcome.degradation
    return SingleProcResult(dist_kind=dist_kind, mtbfs=tuple(mtbfs), stats=stats)
