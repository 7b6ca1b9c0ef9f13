"""Figure 5: sensitivity to the Weibull shape parameter k (full
Jaguar-like platform).

Paper shape: DPNextFailure stays below ~1.03 for k >= 0.15 (1.13 at
k=0.10) while every other heuristic degrades dramatically as k falls;
Liu infeasible for k <= 0.7; Bouguerra collapses (rejuvenation
assumption); at k=1 (Exponential) everyone converges.
"""

from repro.analysis import format_series
from repro.experiments.shape_sweep import DEFAULT_SHAPES, run_shape_sweep

from _util import bench_execution, bench_scale, report, run_once


def test_fig5_weibull_shape_sweep(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark, lambda: run_shape_sweep(shapes=DEFAULT_SHAPES, scale=scale, execution=execution)
    )
    text = format_series(
        "k",
        list(result.shapes),
        result.series(),
        title="Average degradation vs Weibull shape k ('--' = infeasible)",
    )
    report("fig5_weibull_shape_sweep", text)
