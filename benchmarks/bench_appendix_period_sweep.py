"""Appendix A (Figures 8-9) and the a/b panels of Appendices B-C:
degradation vs checkpoint-period multiplicative factor.

Paper shape: for Exponential failures the curve is flat within ~2x of
the optimum (why Young/Daly are fine despite differing periods); for
Weibull at scale the bowl sharpens and its minimum sits *below* the
MTBF-derived base period.
"""

from repro.analysis import format_series
from repro.experiments.period_sweep import run_period_sweep

from _util import bench_execution, bench_scale, report, run_once

FACTORS = (-4, -3, -2, -1, 0, 1, 2, 3, 4)


def _render(result, title):
    rows = {
        "PeriodVariation": [result.sweep[f].avg for f in result.log2_factors]
    }
    lines = [
        format_series("log2(factor)", list(result.log2_factors), rows, title=title)
    ]
    lines.append("heuristic reference lines:")
    for name, s in sorted(result.heuristics.items(), key=lambda kv: kv[1].avg):
        lines.append(f"  {name:>14}: {s.avg:.4f}" if s.n_valid else f"  {name:>14}: --")
    return "\n".join(lines)


def test_appendix_period_sweep_exponential(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_period_sweep(
            "peta", "exponential", log2_factors=FACTORS, scale=scale, execution=execution
        ),
    )
    report(
        "appendix_period_sweep_exponential",
        _render(result, "Degradation vs period factor (Exponential)"),
    )


def test_appendix_period_sweep_weibull(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_period_sweep(
            "peta", "weibull", log2_factors=FACTORS, scale=scale, execution=execution
        ),
    )
    report(
        "appendix_period_sweep_weibull",
        _render(result, "Degradation vs period factor (Weibull k=0.7)"),
    )
