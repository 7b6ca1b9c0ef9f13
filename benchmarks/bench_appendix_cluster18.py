"""Appendix E (Figure 100a): log-based failures, LANL-like cluster 18.

Paper shape: same as Figure 7, "even more in favor of DPNextFailure".
"""

import dataclasses

from repro.analysis import format_series
from repro.experiments.logbased import run_logbased_experiment

from _util import bench_execution, bench_scale, report, run_once


def test_appendix_logbased_cluster18(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    scale = dataclasses.replace(
        scale,
        n_traces=max(4, scale.n_traces // 4),
        n_p_points=min(scale.n_p_points, 3),
    )
    result = run_once(
        benchmark, lambda: run_logbased_experiment(cluster=18, scale=scale, execution=execution)
    )
    text = format_series(
        "p",
        result.p_values,
        result.series(),
        title="Average degradation vs processors (LANL-like cluster 18)",
    )
    report("appendix_logbased_cluster18", text)
