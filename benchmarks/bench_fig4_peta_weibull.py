"""Figure 4: Petascale platform, Weibull(k=0.7) failures, degradation
vs p.

Paper shape: the gap between the MTBF-based periodic heuristics and
PeriodLB grows with p; at the full platform Young/Daly are ~4.3% worse
than DPNextFailure, which stays within ~0.6% of PeriodLB; Liu is absent
(infeasible) at scale; Bouguerra far above everyone.
"""

from repro.analysis import format_series
from repro.experiments.scaling import run_scaling_experiment

from _util import bench_execution, bench_scale, report, run_once


def test_fig4_petascale_weibull(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_scaling_experiment("peta", "weibull", scale=scale, execution=execution),
    )
    text = format_series(
        "p",
        result.p_values,
        result.series(),
        title="Average degradation vs processors (Petascale, Weibull k=0.7)",
    )
    report("fig4_petascale_weibull", text)
