"""Degradation vs processor count (Figures 2, 3, 4, 6) and Table 4.

Petascale or Exascale platform, Exponential or Weibull failures,
embarrassingly-parallel jobs with constant checkpoint overhead by default
(the paper's headline combination; the full model grid lives in
:mod:`repro.experiments.model_combos`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.degradation import DegradationStats
from repro.cluster.models import (
    AmdahlLaw,
    ConstantOverhead,
    EmbarrassinglyParallel,
    NumericalKernel,
    Platform,
    ProportionalOverhead,
    WorkModel,
)
from repro.cluster.presets import EXASCALE, PETASCALE, PlatformPreset
from repro.execution import DEFAULT_EXECUTION, ExecutionConfig
from repro.experiments.common import (
    default_parallel_policies,
    evaluate_scenario,
    make_distribution,
)
from repro.experiments.config import SMALL, ExperimentScale

__all__ = [
    "ScalingResult",
    "make_preset",
    "make_work_model",
    "make_overhead",
    "p_axis",
    "run_scaling_experiment",
    "run_table4",
    "Table4Result",
]


def make_preset(platform_kind: str, scale: ExperimentScale) -> PlatformPreset:
    """The scaled Petascale ('peta') or Exascale ('exa') preset."""
    if platform_kind == "peta":
        return PETASCALE.scale(scale.ptotal_peta)
    if platform_kind == "exa":
        return EXASCALE.scale(scale.ptotal_exa)
    raise ValueError(f"unknown platform kind {platform_kind!r}")


def make_work_model(
    kind: str, preset: PlatformPreset, gamma: float | None = None
) -> WorkModel:
    """The paper's three parallelism models by name.

    ``gamma`` is interpreted at the *paper's* platform size; on scaled
    presets it is adjusted so the platform fraction where the Amdahl
    sequential term (resp. the kernel's communication term) overtakes
    ``W/p`` is preserved: the crossover of ``W/p = gamma W`` sits at
    ``p* = 1/gamma``, hence ``gamma_scaled = gamma * ratio``; the kernel
    crossover ``p* = W^{2/3}/gamma^2`` combined with ``W ~ ptotal``
    gives ``gamma_scaled = gamma * ratio^{1/6}``.
    """
    work = preset.work
    ratio = preset.scaling_ratio
    if kind == "embarrassing":
        return EmbarrassinglyParallel(work)
    if kind == "amdahl":
        g = 1e-6 if gamma is None else gamma
        return AmdahlLaw(work, min(g * ratio, 0.99))
    if kind == "kernel":
        g = 1.0 if gamma is None else gamma
        return NumericalKernel(work, g * ratio ** (1.0 / 6.0))
    raise ValueError(f"unknown work model {kind!r}")


def make_overhead(kind: str, preset: PlatformPreset):
    """'constant' (C(p)=600 s) or 'proportional' (C(p)=600*ptotal/p)."""
    if kind == "constant":
        return ConstantOverhead(preset.overhead_seconds)
    if kind == "proportional":
        return ProportionalOverhead(preset.overhead_seconds, preset.ptotal)
    raise ValueError(f"unknown overhead kind {kind!r}")


def p_axis(preset: PlatformPreset, n_points: int) -> list[int]:
    """``ptotal / 2^k`` for ``k = n_points-1 .. 0`` (paper: 2^10..ptotal)."""
    return [max(1, preset.ptotal // 2**k) for k in range(n_points - 1, -1, -1)]


@dataclass
class ScalingResult:
    """Degradation statistics per processor count."""

    platform_kind: str
    dist_kind: str
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


def run_scaling_experiment(
    platform_kind: str = "peta",
    dist_kind: str = "weibull",
    scale: ExperimentScale = SMALL,
    weibull_k: float = 0.7,
    work_model: str = "embarrassing",
    overhead: str = "constant",
    seed: int = 2011,
    include_dpmakespan: bool | None = None,
    mtbf_factor: float = 1.0,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
) -> ScalingResult:
    """Reproduce one of the degradation-vs-p figures.

    ``include_dpmakespan`` defaults to the paper's choice: present for
    Exponential failures, absent for Weibull.  ``mtbf_factor`` scales the
    processor MTBF only (paper: the 500-year variant uses factor 4 over
    the 125-year baseline, same workload).
    """
    preset = make_preset(platform_kind, scale)
    # multiplying by the default 1.0 is IEEE-exact, so no guard needed
    preset = preset.with_mtbf(preset.processor_mtbf * mtbf_factor)
    if include_dpmakespan is None:
        include_dpmakespan = dist_kind == "exponential"
    dist = make_distribution(dist_kind, preset.processor_mtbf, weibull_k)
    wm = make_work_model(work_model, preset)
    oh = make_overhead(overhead, preset)
    ps = p_axis(preset, scale.n_p_points)
    stats: dict[int, dict[str, DegradationStats]] = {}
    for p in ps:
        platform = Platform(p=p, dist=dist, downtime=preset.downtime, overhead=oh)
        outcome = evaluate_scenario(
            default_parallel_policies(scale, include_dpmakespan),
            platform,
            work_time=wm.time(p),
            preset=preset,
            scale=scale,
            seed=seed,
            execution=execution,
        )
        stats[p] = outcome.degradation
    return ScalingResult(
        platform_kind=platform_kind,
        dist_kind=dist_kind,
        p_values=ps,
        stats=stats,
    )


@dataclass
class Table4Result:
    """Table 4 plus the Section 5.2.2 spare-processor statistics."""

    stats: dict[str, DegradationStats]
    dp_failures_avg: float
    dp_failures_max: int


def run_table4(
    scale: ExperimentScale = SMALL,
    weibull_k: float = 0.7,
    seed: int = 2011,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
) -> Table4Result:
    """Full scaled Petascale platform, Weibull failures, embarrassingly
    parallel job, constant overheads — with DPNextFailure failure counts
    (the paper's spare-processor guidance)."""
    preset = make_preset("peta", scale)
    dist = make_distribution("weibull", preset.processor_mtbf, weibull_k)
    platform = Platform(
        p=preset.ptotal,
        dist=dist,
        downtime=preset.downtime,
        overhead=make_overhead("constant", preset),
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
    dp_details = outcome.raw.details.get("DPNextFailure", [])
    fails = [d.n_failures for d in dp_details if d is not None]
    return Table4Result(
        stats=outcome.degradation,
        dp_failures_avg=float(np.mean(fails)) if fails else math.nan,
        dp_failures_max=int(np.max(fails)) if fails else 0,
    )
