"""Table 2: single processor, Exponential failures.

Paper values (600 traces, W=20 days, MTBF 1 h / 1 d / 1 w): all
heuristics within ~1-3% of PeriodLB; LowerBound 0.63 / 0.91 / 0.98;
Liu degrades at long MTBFs; DPNextFailure and DPMakespan close to the
optimal periodic policy.
"""

from repro.analysis import format_degradation_table
from repro.experiments.single_proc import run_single_proc_experiment
from repro.units import DAY, HOUR, WEEK

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
    "DPMakespan",
]


def test_table2_single_proc_exponential(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_single_proc_experiment(
            "exponential", mtbfs=(HOUR, DAY, WEEK), scale=scale, execution=execution
        ),
    )
    blocks = []
    for mtbf in result.mtbfs:
        label = {HOUR: "1 hour", DAY: "1 day", WEEK: "1 week"}[mtbf]
        blocks.append(
            format_degradation_table(
                result.stats[mtbf],
                title=f"-- MTBF = {label} (degradation from best) --",
                order=ORDER,
            )
        )
    report("table2_single_proc_exponential", "\n\n".join(blocks))
