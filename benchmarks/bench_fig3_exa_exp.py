"""Figure 3: Exascale platform, Exponential failures, degradation vs p.

Paper shape: corroborates Figure 2 — periodic MTBF-based policies remain
optimal-grade under Exponential failures even at 2^20 processors.
"""

from repro.analysis import format_series
from repro.experiments.scaling import run_scaling_experiment

from _util import bench_execution, bench_scale, report, run_once


def test_fig3_exascale_exponential(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_scaling_experiment("exa", "exponential", scale=scale, execution=execution),
    )
    text = format_series(
        "p",
        result.p_values,
        result.series(),
        title="Average degradation vs processors (Exascale, Exponential)",
    )
    report("fig3_exascale_exponential", text)
