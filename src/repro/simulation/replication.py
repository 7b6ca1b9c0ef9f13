"""Extension: job replication on platform halves (Section 8).

The paper's future-work discussion proposes "replicating the execution
of a given job on, say, both halves of the platform, i.e., with
ptotal/2 processors each.  This could be done independently, or better,
by synchronizing the execution after each checkpoint."  This module
implements both options on top of the trace-driven engine:

- :func:`simulate_independent_replication` — two fully independent
  executions of the job on disjoint halves; the job completes when the
  first replica finishes.
- :func:`simulate_synchronized_replication` — both halves execute the
  same chunk simultaneously; the chunk succeeds if *at least one* half
  completes it (the surviving half's checkpoint is shared), and the
  halves resynchronize before the next chunk while a failed half
  recovers from the shared checkpoint.

Replication halves the failure-exposed group size (fewer wasted chunks)
at the price of doubling the per-chunk compute resources, so it wins
only when the platform MTBF is small relative to the chunk+checkpoint
length — the trade-off the extension benchmark maps out.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import FailureDistribution
from repro.simulation.engine import _Engine
from repro.simulation.results import SimulationResult
from repro.traces.generation import JobTraces, PlatformTraces

__all__ = [
    "split_traces",
    "simulate_independent_replication",
    "simulate_synchronized_replication",
]

_WORK_EPS = 1e-6


def split_traces(traces: PlatformTraces, n_units: int) -> tuple[JobTraces, JobTraces]:
    """Disjoint trace views for the two halves (``n_units`` each)."""
    if traces.n_units < 2 * n_units:
        raise ValueError(
            f"platform has {traces.n_units} units, need {2 * n_units}"
        )
    first = traces.for_job(n_units)
    second = PlatformTraces.from_flat(
        traces.times[traces.offsets[n_units] : traces.offsets[2 * n_units]],
        traces.counts[n_units : 2 * n_units],
        horizon=traces.horizon,
        downtime=traces.downtime,
    ).for_job(n_units)
    return first, second


def simulate_independent_replication(
    policy_factory,
    work_time: float,
    traces: PlatformTraces,
    n_units_per_half: int,
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
) -> SimulationResult:
    """Run the job independently on both halves; first finisher wins.

    ``policy_factory`` builds a fresh policy per replica (policies hold
    per-execution state).  ``work_time`` is the failure-free time on one
    half, i.e. ``W(p/2)``.
    """
    from repro.simulation.engine import simulate_job

    half_a, half_b = split_traces(traces, n_units_per_half)
    results = [
        simulate_job(
            policy_factory(),
            work_time,
            half,
            checkpoint,
            recovery,
            dist,
            t0=t0,
            platform_mtbf=platform_mtbf,
            max_makespan=max_makespan,
        )
        for half in (half_a, half_b)
    ]
    winner = min(results, key=lambda r: r.makespan)
    return SimulationResult(
        makespan=winner.makespan,
        work_time=work_time,
        n_failures=sum(r.n_failures for r in results),
        n_checkpoints=winner.n_checkpoints,
        n_attempts=sum(r.n_attempts for r in results),
        chunk_min=winner.chunk_min,
        chunk_max=winner.chunk_max,
        completed=winner.completed,
    )


def simulate_synchronized_replication(
    policy,
    work_time: float,
    traces: PlatformTraces,
    n_units_per_half: int,
    checkpoint: float,
    recovery: float,
    dist: FailureDistribution,
    t0: float = 0.0,
    platform_mtbf: float = math.nan,
    max_makespan: float = math.inf,
) -> SimulationResult:
    """Checkpoint-synchronized replication.

    Each chunk is attempted by both halves starting at a common time.
    Outcomes:

    - both halves survive ``chunk + C``: the chunk is committed at
      ``t + chunk + C``;
    - exactly one half fails: the chunk is still committed (the survivor
      checkpointed it); the failed half then restores the shared
      checkpoint (downtime + recovery via its own failure machinery) and
      the next chunk starts when both halves are ready;
    - both halves fail: the chunk is lost; both halves recover and the
      chunk is retried at the later of their ready times.
    """
    from repro.simulation.engine import JobContext

    half_a, half_b = split_traces(traces, n_units_per_half)
    engines = [
        _Engine(half_a, recovery, t0),
        _Engine(half_b, recovery, t0),
    ]
    t = max(e.t for e in engines)
    # Policy context reports the ages of the first half (the policy's
    # view; with iid halves this is statistically equivalent to either).
    ctx = JobContext(
        checkpoint=checkpoint,
        recovery=recovery,
        downtime=traces.downtime,
        dist=dist,
        work_time=work_time,
        n_units=n_units_per_half,
        platform_mtbf=platform_mtbf,
        t0=t0,
        time=t,
        _lifetime_start=engines[0].lifetime_start,
    )
    policy.setup(ctx)
    remaining = work_time
    n_checkpoints = 0
    n_attempts = 0
    chunk_min, chunk_max = math.inf, 0.0
    while remaining > _WORK_EPS:
        ctx.time = t
        w = float(policy.next_chunk(remaining, ctx))
        if not (w > 0):
            raise ValueError("policy proposed non-positive chunk")
        w = min(w, remaining)
        chunk_min = min(chunk_min, w)
        chunk_max = max(chunk_max, w)
        n_attempts += 1
        attempt_end = t + w + checkpoint
        ready = []
        survived = []
        for eng in engines:
            # a half idle-waits if it was still recovering at t
            eng.t = max(eng.t, t)
            tf = eng.peek_next_failure()
            if attempt_end <= tf:
                eng.t = attempt_end
                ready.append(attempt_end)
                survived.append(True)
            else:
                ready.append(eng.handle_failure(tf))
                survived.append(False)
        if any(survived):
            remaining -= w
            n_checkpoints += 1
        else:
            policy.on_failure(ctx)
        t = max(ready)
        if t - t0 > max_makespan:
            return SimulationResult(
                makespan=math.inf,
                work_time=work_time,
                n_failures=sum(e.n_failures for e in engines),
                n_checkpoints=n_checkpoints,
                n_attempts=n_attempts,
                chunk_min=chunk_min if n_attempts else math.nan,
                chunk_max=chunk_max if n_attempts else math.nan,
                completed=False,
            )
    return SimulationResult(
        makespan=t - t0,
        work_time=work_time,
        n_failures=sum(e.n_failures for e in engines),
        n_checkpoints=n_checkpoints,
        n_attempts=n_attempts,
        chunk_min=chunk_min if n_attempts else math.nan,
        chunk_max=chunk_max if n_attempts else math.nan,
    )
