"""Appendix B.3 variant: Weibull failures with a 500-year processor MTBF
(4x the 125-year baseline, same workload).

Paper claim (Sections 5.2.1-5.2.2): "the same conclusions are reached
when the MTBF per processor is 500 years instead of 125" — DPNextFailure
still leads at the full platform, Bouguerra still trails.
"""

import dataclasses

from repro.analysis import format_series
from repro.experiments.scaling import run_scaling_experiment

from _util import bench_execution, bench_scale, report, run_once


def test_appendix_weibull_mtbf500(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    scale = dataclasses.replace(scale, n_traces=max(4, scale.n_traces // 2))
    result = run_once(
        benchmark,
        lambda: run_scaling_experiment(
            "peta", "weibull", scale=scale, execution=execution, mtbf_factor=4.0
        ),
    )
    text = format_series(
        "p",
        result.p_values,
        result.series(),
        title="Average degradation vs p (Petascale, Weibull, 4x MTBF)",
    )
    report("appendix_weibull_mtbf500", text)
    full = result.stats[result.p_values[-1]]
    if full["DPNextFailure"].n_valid and full["Bouguerra"].n_valid:
        assert full["DPNextFailure"].avg < full["Bouguerra"].avg
