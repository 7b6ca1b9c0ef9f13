"""A/B benchmark of the fast adaptive-policy (DPNextFailure) pipeline.

Three arms run the *same* Weibull scenario with the same seed and
compare per-trace makespans bit-for-bit:

1. **baseline** — scalar survival kernels, replan memo off, serial
   (``DPNextFailurePolicy(vectorized=False)`` under
   ``ExecutionConfig(use_memo=False)``): the
   pre-pipeline reference path.  The DP *table* cache stays on in every
   arm (it predates this pipeline), so the measured speedup isolates
   the vectorized kernels + replan memo + shared-memory layers.
2. **fast** — vectorized kernels + cross-trace replan memo, serial.
3. **parallel** — the fast arm fanned over worker processes with the
   scenario's traces published once through shared memory.

The caches are cleared between arms so each one measures its own cold
cost, and the persistent disk solve tier is disabled for the whole
benchmark — a disk-warm arm 2 would no longer measure the in-memory
pipeline this A/B isolates (``benchmarks/bench_solvecache.py`` measures
the disk tier itself).  The full run asserts the >= 3x
fast-vs-baseline speedup
documented in ``docs/performance.md`` and archives
``BENCH_dp.json`` at the repo root; ``--smoke`` (CI) only checks the
three-way bit-identity at toy sizes, which tell nothing about
throughput.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cluster.models import ConstantOverhead, Platform  # noqa: E402
from repro.core.cache import clear_cache, clear_replan_memo  # noqa: E402
from repro.distributions.weibull import Weibull  # noqa: E402
from repro.execution import ExecutionConfig  # noqa: E402
from repro.policies.dp import DPNextFailurePolicy  # noqa: E402
from repro.simulation.runner import run_scenarios  # noqa: E402

from _util import report, write_bench_json  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

HOUR = 3600.0
DAY = 24 * HOUR


def _arm(policy: DPNextFailurePolicy, scenario: dict,
         execution: ExecutionConfig) -> dict:
    """Run one arm cold (both caches cleared) and time it.  Every arm
    runs with the disk tier off: each must pay its own in-memory cold
    cost, and a persistent tier would hand arms 2 and 3 the solves arm
    1 just paid for."""
    clear_cache()
    clear_replan_memo()
    t0 = time.perf_counter()
    result = run_scenarios(
        [policy],
        scenario["platform"],
        scenario["work"],
        n_traces=scenario["n_traces"],
        horizon=scenario["horizon"],
        seed=scenario["seed"],
        include_lower_bound=False,
        include_period_lb=False,
        execution=execution,
    )
    elapsed = time.perf_counter() - t0
    return {
        "seconds": elapsed,
        "makespans": result.makespans["DPNextFailure"],
        "memo_hits": result.memo_hits,
        "memo_misses": result.memo_misses,
    }


def bench_pipeline(smoke: bool) -> dict:
    """Three-arm A/B over one adaptive-policy scenario."""
    if smoke:
        p, n_traces, n_grid, work = 8, 6, 24, 4 * HOUR
    else:
        p, n_traces, n_grid, work = 64, 100, 64, 8 * HOUR
    dist = Weibull.from_mtbf(10 * DAY, 0.7)
    scenario = {
        "platform": Platform(
            p=p, dist=dist, downtime=60.0, overhead=ConstantOverhead(600.0)
        ),
        "work": work,
        "n_traces": n_traces,
        "horizon": 400 * DAY,  # reprolint: disable=R2  (sim horizon)
        "seed": 17,
    }
    # At least 2 workers even on a 1-CPU host so the shared-memory
    # publication path is exercised (its gate is identity, not speed).
    jobs = max(2, min(4, os.cpu_count() or 1))

    serial = ExecutionConfig(use_shm=False, use_disk_cache=False)
    baseline = _arm(
        DPNextFailurePolicy(n_grid=n_grid, vectorized=False),
        scenario, ExecutionConfig(use_memo=False, use_shm=False,
                                  use_disk_cache=False),
    )
    fast = _arm(DPNextFailurePolicy(n_grid=n_grid), scenario, serial)
    par = _arm(
        DPNextFailurePolicy(n_grid=n_grid),
        scenario, ExecutionConfig(jobs=jobs, use_disk_cache=False),
    )

    identical = bool(
        np.array_equal(baseline["makespans"], fast["makespans"])
        and np.array_equal(baseline["makespans"], par["makespans"])
    )
    return {
        "distribution": f"Weibull(k=0.7, MTBF=10d) x {p}",
        "n_units": p,
        "n_traces": n_traces,
        "n_grid": n_grid,
        "work_h": work / HOUR,
        "checkpoint_s": 600.0,
        "jobs": jobs,
        "baseline_s": baseline["seconds"],
        "fast_s": fast["seconds"],
        "parallel_s": par["seconds"],
        "speedup": baseline["seconds"] / max(fast["seconds"], 1e-12),
        "speedup_parallel": baseline["seconds"] / max(par["seconds"], 1e-12),
        "memo_hits": fast["memo_hits"],
        "memo_misses": fast["memo_misses"],
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, identity gate only (CI); no artifacts written",
    )
    args = parser.parse_args(argv)

    res = bench_pipeline(args.smoke)
    memo_lookups = res["memo_hits"] + res["memo_misses"]
    hit_rate = res["memo_hits"] / memo_lookups if memo_lookups else 0.0
    lines = [
        f"mode: {'smoke' if args.smoke else 'full'}",
        "",
        "adaptive-policy pipeline (DPNextFailure)",
        f"  scenario: {res['distribution']}, W={res['work_h']:.0f}h, "
        f"C={res['checkpoint_s']:.0f}s, n_grid={res['n_grid']}, "
        f"{res['n_traces']} traces",
        f"  baseline (scalar kernels, no memo) {res['baseline_s']:9.1f} s",
        f"  fast (vectorized + memo, serial)   {res['fast_s']:9.1f} s",
        f"  parallel ({res['jobs']} workers, shm)       "
        f"{res['parallel_s']:9.1f} s",
        f"  speedup (fast vs baseline)         {res['speedup']:9.1f} x",
        f"  speedup (parallel vs baseline)     "
        f"{res['speedup_parallel']:9.1f} x",
        f"  replan memo                        {res['memo_hits']} hits / "
        f"{res['memo_misses']} misses ({hit_rate:.0%} hit rate)",
        f"  bit-identical                      {res['identical']}",
    ]
    if args.smoke:
        # Smoke runs are an identity gate (CI); only a full run may
        # replace the archived full-scale artifacts.
        print("\n".join(lines))
    else:
        report("dp_pipeline", "\n".join(lines))
        out = REPO_ROOT / "BENCH_dp.json"
        write_bench_json(out, {
            "benchmark": "dp_pipeline",
            "mode": "full",
            "pipeline": res,
        })
        print(f"wrote {out}")

    if not res["identical"]:
        print("FAIL: pipeline arms are not bit-identical")
        return 1
    if not args.smoke and res["speedup"] < 3.0:
        print(
            f"FAIL: pipeline speedup {res['speedup']:.1f}x below the "
            "documented 3x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
