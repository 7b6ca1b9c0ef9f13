"""End-to-end benchmark of the checkpointing-strategies reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

``--trace 0`` measures the end-to-end metrics with tracing off: set-up,
then timed iterations of the workload until ``--seconds`` have passed
(at least two).  ``--trace 1`` is the separate traced run: one untraced
and one traced iteration, reporting the per-layer split and the
tracing overhead.  ``--toy`` shrinks every input to a few seconds of
work (the benchmark's own test uses it).

Stdout: a host line, a human-readable table, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when that line is printed; without the program's
sources next to this directory it is 2.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads
from workloads import Ctx, Iteration, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "job_p50_ms": "ms",
}


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) jiffies of the host's CPUs so far."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return sum(fields), fields[7]


def host_block(parallel: bool) -> dict:
    """What the numbers were measured on."""
    import numpy

    affinity = len(os.sched_getaffinity(0))
    block = {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if parallel and affinity < 2:
        block["note"] = ("--jobs 2 on fewer than 2 usable CPUs: not "
                         "meaningful for parallel scaling")
    return block


def end_to_end(iters: list[Iteration], setup_times: list[float]) -> dict:
    computed = [op.latency_s * 1000 for it in iters for op in it.ops
                if not op.cached]
    return {
        "wall_s": statistics.median(it.wall_s for it in iters),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iters),
        "job_p50_ms": percentile(computed, 0.5),
    }


def per_layer(traced: Iteration, untraced: Iteration, trace_dir: Path,
              failed: int, attempted: int) -> dict:
    """Per-layer metrics of the traced iteration (``README.md`` lists
    what each means and which end-to-end metric it should move)."""
    spans, counts = tracer.load(trace_dir)

    def spans_of(prefix: str) -> list[dict]:
        return [s for s in spans if s["name"].startswith(prefix)]

    def self_s(name: str) -> float:
        return sum(s["self"] for s in spans if s["name"] == name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def doc_sum(key: str) -> int:
        return sum(int(doc.get(key, 0)) for doc in traced.docs)

    def median_ms(values: list[float]) -> float:
        return statistics.median(values) * 1000 if values else 0.0

    tier = (traced.service_dir / "solvecache") if traced.service_dir else None
    entries = list(tier.rglob("*.npz")) if tier and tier.is_dir() else []
    units = [s["dur"] for s in spans_of("parallel.unit")]
    sweeps = [env["data"] for env in traced.envelopes
              if env.get("command") == "sweep"]
    computed = [op.latency_s * 1000 for op in untraced.ops if not op.cached]
    cached = [op.latency_s * 1000 for op in untraced.ops if op.cached]
    stores = counts.get("diskcache.stores", 0)
    disk_hits = counts.get("diskcache.hits", 0)
    disk_misses = counts.get("diskcache.misses", 0)
    memo_hits, memo_misses = doc_sum("memo_hits"), doc_sum("memo_misses")
    done = [s for s in traced.statuses if s.get("started_at")]

    metrics = {
        "diskcache.store_s": self_s("diskcache.store"),
        "diskcache.stores": stores,
        "diskcache.stats_per_store": ratio(
            counts.get("diskcache.store_stats", 0), stores),
        "diskcache.load_s": self_s("diskcache.load"),
        "diskcache.hits": disk_hits,
        "diskcache.misses": disk_misses,
        "diskcache.hit_rate": ratio(disk_hits, disk_hits + disk_misses),
        "diskcache.evictions": counts.get("diskcache.evictions", 0),
        "diskcache.entries": len(entries),
        "diskcache.bytes": sum(p.stat().st_size for p in entries),
        "dp_nextfailure.solve_s": self_s("dp_nextfailure.solve"),
        "dp_nextfailure.solves": len(spans_of("dp_nextfailure.solve")),
        "dp_makespan.solve_s": self_s("dp_makespan.solve"),
        "dp_makespan.solves": len(spans_of("dp_makespan.solve")),
        "cache.lookup_s": self_s("cache.lookup"),
        "cache.hits": doc_sum("cache_hits"),
        "cache.misses": doc_sum("cache_misses"),
        "memo.hits": memo_hits,
        "memo.misses": memo_misses,
        "memo.unique_misses": doc_sum("memo_unique_misses"),
        "memo.hit_rate": ratio(memo_hits, memo_hits + memo_misses),
        "traces.generate_s": self_s("traces.generate"),
        "traces.generate_calls": len(spans_of("traces.generate")),
        "batch.compile_s": self_s("batch.compile"),
        "batch.replay_s": self_s("batch.replay"),
        "batch.lower_bound_s": self_s("batch.lower_bound"),
        "sweep.build_s": self_s("sweep.build"),
        "sweep.groups": sum(d["plan"]["n_groups"] for d in sweeps),
        "sweep.prefetched": sum(g["prefetched"] for d in sweeps
                                for g in d["group_stats"]),
        "parallel.units": len(units),
        "parallel.unit_s_max": max(units, default=0.0),
        "parallel.imbalance": ratio(max(units, default=0.0),
                                    statistics.fmean(units) if units else 0),
        "parallel.memo_merge_s": self_s("parallel.memo_merge"),
        "shm.publish_s": self_s("shm.publish"),
        "shm.bytes": counts.get("shm.bytes", 0),
        "serialize.to_dict_s": self_s("serialize.to_dict"),
        "envelope.emit_s": self_s("envelope.emit") + self_s("envelope.dumps"),
        "envelope.bytes": counts.get("envelope.bytes", 0),
        "queue.wait_ms": median_ms(
            [s["started_at"] - s["submitted_at"] for s in done]),
        "queue.run_ms": median_ms(
            [s["finished_at"] - s["started_at"] for s in done]),
        "store.put_s": self_s("store.put"),
        "store.get_s": self_s("store.get"),
        "store.hits": counts.get("store.hits", 0),
        "cli.import_s": counts.get("cli.import_s", 0.0),
        "job_p90_ms": percentile(computed, 0.9) if computed else 0.0,
        "cached_p50_ms": percentile(cached, 0.5) if cached else 0.0,
        "cached_p90_ms": percentile(cached, 0.9) if cached else 0.0,
        "fail_frac": ratio(failed, attempted),
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.traced_wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for route in ("submit", "stream", "result"):
        metrics[f"daemon.request_ms.{route}"] = median_ms(
            [s["dur"] for s in spans_of(f"daemon.request.{route}")])
    return metrics


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith(("_s", "_s_max")):
        return "s"
    if name.endswith("_ms") or ".request_ms." in name:
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_rate", "_frac", ".imbalance")):
        return "ratio"
    if name.endswith(".stats_per_store"):
        return "1/store"
    return "count"


def measure(wl, ctx: Ctx, seconds: float, trace: bool):
    """Set up, run the iterations and check their outputs; returns
    (iterations, operations, metrics)."""
    if trace:
        wl.setup(ctx, repeats=1)
        os.sync()
        untraced = wl.iteration(ctx, 0)
        trace_dir = ctx.work / "trace"
        os.sync()
        traced = wl.iteration(ctx, 1, trace_dir)
        iters = [untraced, traced]
    else:
        wl.setup(ctx, repeats=1 if ctx.toy else 2)
        iters = []
        start = time.perf_counter()
        min_iters = 1 if ctx.toy else 2
        while True:
            # let the previous iteration's file writes reach the disk,
            # so their writeback does not land inside this iteration
            os.sync()
            iters.append(wl.iteration(ctx, len(iters)))
            elapsed = time.perf_counter() - start
            if len(iters) >= min_iters and elapsed >= seconds:
                break
            longest = max(it.wall_s for it in iters)
            if time.perf_counter() + 1.5 * longest > ctx.deadline:
                break
    ops = [op for it in iters for op in it.ops]
    wl.check(ops)
    failed = sum(op.error is not None for op in ops)
    if trace:
        metrics = per_layer(traced, untraced, trace_dir, failed, len(ops))
    else:
        metrics = end_to_end(iters, wl.setup_times)
    return iters, ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs: a smoke run of every code path")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its children (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = workloads.make(args.workload)
    host = host_block(parallel=args.workload in ("peta_dp_cold",
                                                 "static_sweep"))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    ctx = Ctx(ROOT, work, args.seed, args.toy,
              deadline=time.perf_counter() + RUN_BUDGET_S)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ticks = cpu_ticks()
    try:
        iters, ops, metrics = measure(wl, ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    host["loadavg_after"] = list(os.getloadavg())
    total, steal = (b - a for a, b in zip(ticks, cpu_ticks()))
    host["cpu_steal_frac"] = steal / total if total else 0.0

    failed = [op for op in ops if op.error is not None]
    units = END_TO_END_UNITS if not args.trace else {
        name: layer_unit(name) for name in metrics}
    digests = sorted({op.digest[:12] for op in ops if op.digest})
    shown = ", ".join(digests[:3]) + (f" (+{len(digests) - 3} more)"
                                      if len(digests) > 3 else "")
    print("host " + json.dumps(host))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(iters)} iteration(s), {len(ops)} operation(s), "
          f"{len(failed)} failed, digest(s) {shown or '-'}")
    print("  iteration wall_s: " + ", ".join(f"{it.wall_s:.3f}" for it in iters))
    for op in failed[:5]:
        print(f"  FAILED: {op.error}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
