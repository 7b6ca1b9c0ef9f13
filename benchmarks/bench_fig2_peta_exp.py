"""Figure 2: Petascale platform, Exponential failures, degradation vs p.

Paper shape: Young/DalyLow/DalyHigh/OptExp/PeriodLB indistinguishable
(degradation < 1.023) at every p; Bouguerra slightly above; Liu ~1.09;
DPNextFailure within ~2% of OptExp; DPMakespan slightly behind
DPNextFailure (its all-rejuvenation assumption is harmless here).
"""

from repro.analysis import format_series
from repro.experiments.scaling import run_scaling_experiment

from _util import bench_execution, bench_scale, report, run_once


def test_fig2_petascale_exponential(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_scaling_experiment("peta", "exponential", scale=scale, execution=execution),
    )
    text = format_series(
        "p",
        result.p_values,
        result.series(),
        title="Average degradation vs processors (Petascale, Exponential)",
    )
    report("fig2_petascale_exponential", text)
