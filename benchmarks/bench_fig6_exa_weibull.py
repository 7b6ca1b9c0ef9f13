"""Figure 6: Exascale platform, Weibull(k=0.7) failures, degradation
vs p.

Paper shape: DPNextFailure's advantage is even larger than at Petascale
(its degradation stays below ~1.03 against PeriodLB while the periodic
heuristics drift far above).
"""

from repro.analysis import format_series
from repro.experiments.scaling import run_scaling_experiment

from _util import bench_execution, bench_scale, report, run_once


def test_fig6_exascale_weibull(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_scaling_experiment("exa", "weibull", scale=scale, execution=execution),
    )
    text = format_series(
        "p",
        result.p_values,
        result.series(),
        title="Average degradation vs processors (Exascale, Weibull k=0.7)",
    )
    report("fig6_exascale_weibull", text)
