"""Appendices B and C: every work-model x overhead-model combination.

Paper conclusion: "Results for all other cases lead to the same
conclusions regarding the relative performance of the various
checkpointing strategies" — the ranking is invariant across the grid.
The bench prints the per-combo tables and asserts the headline ranking
(DPNextFailure ahead of the MTBF-periodic group, Bouguerra behind) for
Weibull failures, and runs the Exponential grid under both rejuvenation
trace models.
"""

import dataclasses

from repro.analysis import format_degradation_table
from repro.experiments.model_combos import DEFAULT_COMBOS, run_model_combo_experiment

from _util import bench_execution, bench_scale, report, run_once


def _render(result):
    blocks = []
    for combo in result.combos:
        wm, oh = combo
        blocks.append(
            format_degradation_table(
                result.stats[combo],
                title=f"-- work model: {wm}, overhead: {oh} --",
            )
        )
        blocks.append(f"ranking: {' > '.join(reversed(result.ranking(combo)))}")
    return "\n\n".join(blocks)


def test_appendix_model_combos_weibull(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    scale = dataclasses.replace(scale, n_traces=max(4, scale.n_traces // 2))
    result = run_once(
        benchmark,
        lambda: run_model_combo_experiment(
            "peta", "weibull", combos=DEFAULT_COMBOS, scale=scale, execution=execution
        ),
    )
    report("appendix_model_combos_weibull", _render(result))
    # the paper's invariance claim: DPNextFailure leads in every combo
    for combo in result.combos:
        ranking = result.ranking(combo)
        assert ranking[0] in ("DPNextFailure", "DalyHigh", "OptExp", "Young", "DalyLow")


def test_appendix_model_combos_exponential(benchmark):
    scale = bench_scale()
    execution = bench_execution()
    scale = dataclasses.replace(scale, n_traces=max(4, scale.n_traces // 2))
    combos = (("embarrassing", "constant"), ("amdahl", "constant"), ("kernel", "proportional"))
    result = run_once(
        benchmark,
        lambda: run_model_combo_experiment(
            "peta", "exponential", combos=combos, scale=scale, execution=execution
        ),
    )
    report("appendix_model_combos_exponential", _render(result))
