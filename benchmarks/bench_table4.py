"""Table 4: full Jaguar-scale platform, Weibull(k=0.7), embarrassingly
parallel job, constant C=R=600 s.

Paper values (45,208 processors, 600 traces):
  LowerBound 0.834 | PeriodLB 1.022 | Young 1.082 | DalyLow 1.082 |
  DalyHigh 1.076 | Bouguerra 1.250 | OptExp 1.076 | DPNextFailure 1.029.
Plus Section 5.2.2: DPNextFailure sees 38 failures per run on average
(max 66) — the spare-processor guidance.
"""

from repro.analysis import format_degradation_table
from repro.experiments.scaling import run_table4

from _util import bench_execution, bench_scale, report, run_once

ORDER = [
    "LowerBound",
    "PeriodLB",
    "Young",
    "DalyLow",
    "DalyHigh",
    "Liu",
    "Bouguerra",
    "OptExp",
    "DPNextFailure",
]


def test_table4_petascale_weibull(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(benchmark, lambda: run_table4(scale=scale, execution=execution))
    text = format_degradation_table(
        result.stats,
        title=(
            f"-- Full scaled Petascale platform ({scale.ptotal_peta} procs), "
            "Weibull k=0.7 --"
        ),
        order=ORDER,
    )
    text += (
        f"\n\nDPNextFailure failures per run: avg {result.dp_failures_avg:.1f}, "
        f"max {result.dp_failures_max}"
    )
    report("table4_petascale_weibull", text)
