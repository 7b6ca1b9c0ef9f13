"""Table 3: single processor, Weibull(k=0.7) failures.

Paper values: same picture as Table 2 except Liu degrades sharply at
long MTBFs (1.07 at 1 day, 1.19 at 1 week); DP policies stay close to
PeriodLB.
"""

from repro.analysis import format_degradation_table
from repro.experiments.single_proc import run_single_proc_experiment
from repro.units import DAY, HOUR, WEEK

from _util import bench_execution, bench_scale, report, run_once
from bench_table2 import ORDER


def test_table3_single_proc_weibull(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    result = run_once(
        benchmark,
        lambda: run_single_proc_experiment(
            "weibull", mtbfs=(HOUR, DAY, WEEK), scale=scale, execution=execution, weibull_k=0.7
        ),
    )
    blocks = []
    for mtbf in result.mtbfs:
        label = {HOUR: "1 hour", DAY: "1 day", WEEK: "1 week"}[mtbf]
        blocks.append(
            format_degradation_table(
                result.stats[mtbf],
                title=f"-- MTBF = {label}, Weibull k=0.7 --",
                order=ORDER,
            )
        )
    report("table3_single_proc_weibull", "\n\n".join(blocks))
