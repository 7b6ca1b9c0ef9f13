"""Figure 7: log-based failures (LANL-like cluster 19), degradation vs p.

Paper shape: DPNextFailure *below* PeriodLB (periodic policies are
inherently suboptimal on real logs); Young noticeably better than
DalyLow/DalyHigh/OptExp; LowerBound falls from ~0.80 to ~0.56 with p
(an intrinsically hard regime: platform MTBF of the order of C+R).
"""

import dataclasses

from repro.analysis import format_series
from repro.experiments.logbased import run_logbased_experiment

from _util import bench_execution, bench_scale, report, run_once


def test_fig7_logbased_cluster19(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    # the log-based regime sees a failure every few minutes: trim the
    # trace count so the bench stays in budget
    scale = dataclasses.replace(
        scale,
        n_traces=max(4, scale.n_traces // 4),
        n_p_points=min(scale.n_p_points, 3),
    )
    result = run_once(
        benchmark, lambda: run_logbased_experiment(cluster=19, scale=scale, execution=execution)
    )
    text = format_series(
        "p",
        result.p_values,
        result.series(),
        title="Average degradation vs processors (LANL-like cluster 19)",
    )
    report("fig7_logbased_cluster19", text)
