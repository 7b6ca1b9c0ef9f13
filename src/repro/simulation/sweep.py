"""The one executor: every scenario runs as a point of a sweep group.

The paper's simulation study (Sections 4-6) is a *grid*: policies x
period candidates x distributions x platforms, all replayed over the
same failure traces.  Executing each grid point as an independent
scenario would regenerate the trace set, recompile the
:class:`~repro.simulation.batch.TraceEnsemble` and republish shared
memory once per point — for a 24-point sweep over one platform that is
24x the dominant fixed cost for identical bytes.

This module plans and executes scenarios in groups:

1. **Expand** — :func:`repro.service.expand_grid` turns a base spec +
   axis lists into validated :class:`~repro.service.spec.ScenarioSpec`
   points (deterministic cartesian order).
2. **Plan** (:func:`plan_sweep`) — points are grouped by *trace
   signature*: the exact spec fields trace generation and ensemble
   compilation depend on (distribution, platform size, downtime, seed,
   trace count, horizon, recovery, t0).  Policies, checkpoint cost and
   work only shape the *replay*, so e.g. a checkpoint-cost axis or a
   policy axis collapses into one group.
3. **Execute** (:func:`_run_groups`, the one driver) — the driver forks
   one process pool (``jobs > 1``) before any trace set exists, so
   workers attach to shared memory instead of inheriting trace sets.
   Each group's traces are then generated **once**, its ensemble
   compiled once, and (with ``jobs > 1`` and shm enabled) published to
   shared memory once; every point of the group runs on a
   :class:`~repro.simulation.parallel.ParallelRunner` over that single
   :class:`~repro.simulation.parallel.SharedTraces` and the one pool.
   A one-ahead prefetch thread builds the *next* group's trace set and
   ensemble while the current group replays.  The next group is
   published only after the current group's segment is closed, so at
   most one group's segment is mapped at a time.

:func:`run_sweep` maps a spec list to groups; :func:`run_scenario`
(behind :func:`~repro.simulation.runner.run_scenarios` and
:meth:`ScenarioSpec.run <repro.service.spec.ScenarioSpec.run>`) runs a
standalone scenario as a group of one point, and the service queue
runs jobs and batches through :func:`run_sweep`.  There is no second
path.

Bit-identity: trace ``i`` is a pure function of ``(platform, horizon,
seed, i)`` (the determinism anchor), and a row subset of the group
ensemble is replay-equivalent to compiling the subset alone — so a
sweep's per-point results are bit-identical to N independent
``run_scenarios`` calls.  The tests hold that reference
(``[spec.run(execution) for spec in specs]``).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.execution import DEFAULT_EXECUTION, ExecutionConfig
from repro.simulation import parallel as _parallel
from repro.simulation import shm as _shm
from repro.simulation.batch import TraceEnsemble
from repro.simulation.parallel import Scenario, SharedTraces, _job_trace
from repro.units import MINUTE

__all__ = [
    "SweepGroup",
    "SweepPlan",
    "SweepResult",
    "plan_sweep",
    "run_scenario",
    "run_sweep",
    "trace_signature",
]


def trace_signature(spec) -> tuple:
    """The spec fields a group's shared trace set depends on.

    Two points may share one generated trace set + compiled ensemble
    iff these are equal: trace generation reads (distribution, p,
    downtime, horizon, seed, n_traces) and ensemble compilation adds
    (recovery, t0).  ``checkpoint``, ``work`` and ``policies`` only
    shape the replay — but note ``work`` feeds the *default* horizon
    (``60*W/p + mtbf``), so a work axis only groups when the spec pins
    ``horizon`` explicitly.  ``shape`` is canonicalized away for
    exponential distributions, matching the spec signature.
    """
    shape = None if spec.dist == "exponential" else float(spec.shape)
    return (
        spec.dist,
        float(spec.mtbf),
        shape,
        int(spec.p),
        float(spec.downtime),
        int(spec.n_traces),
        int(spec.seed),
        float(spec.t0),
        float(spec.effective_horizon),
        float(spec.recovery),
    )


@dataclass(frozen=True)
class SweepGroup:
    """One shared-trace group: the point indices (positions in the
    sweep's spec list, submission order) that share one trace set."""

    key: tuple
    indices: tuple[int, ...]


@dataclass
class SweepPlan:
    """The sweep's execution shape: points and their trace groups,
    groups in first-seen order."""

    specs: list
    groups: list[SweepGroup]

    @property
    def n_points(self) -> int:
        return len(self.specs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready plan summary (group sizes, sharing factor)."""
        return {
            "n_points": len(self.specs),
            "n_groups": len(self.groups),
            "group_sizes": [len(g.indices) for g in self.groups],
            "shared_trace_gens_saved": len(self.specs) - len(self.groups),
        }


def plan_sweep(specs: Sequence) -> SweepPlan:
    """Group grid points by :func:`trace_signature`.

    Groups appear in first-seen order and each group's indices stay in
    submission order, so execution order — and therefore any
    order-dependent observable like parent-memo warmth — is a
    deterministic function of the point list alone.
    """
    specs = list(specs)
    by_key: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        by_key.setdefault(trace_signature(spec), []).append(i)
    groups = [
        SweepGroup(key=key, indices=tuple(indices))
        for key, indices in by_key.items()
    ]
    return SweepPlan(specs=specs, groups=groups)


@dataclass
class SweepResult:
    """Everything a sweep produced: per-point results (input order),
    the plan, per-group reuse stats and the run-level counter roll-up."""

    results: list
    plan: SweepPlan
    group_stats: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    elapsed: float = math.nan
    n_jobs: int = 1

    def scheduler_summary(self) -> dict[str, Any]:
        """Aggregate scheduler imbalance over every point that
        recorded stats (max of maxes, weighted means)."""
        units = 0
        cost_max = 0.0
        cost_sum = 0.0
        sec_max = 0.0
        sec_sum = 0.0
        sec_units = 0
        for res in self.results:
            sched = getattr(res, "scheduler", None) or {}
            n = int(sched.get("units", 0))
            if n and "est_cost_mean" in sched:
                units += n
                cost_max = max(cost_max, float(sched["est_cost_max"]))
                cost_sum += float(sched["est_cost_mean"]) * n
            if n and "unit_seconds_mean" in sched:
                sec_units += n
                sec_max = max(sec_max, float(sched["unit_seconds_max"]))
                sec_sum += float(sched["unit_seconds_mean"]) * n
        out: dict[str, Any] = {"units": units}
        if units:
            mean = cost_sum / units
            out["est_cost_max"] = cost_max
            out["est_cost_mean"] = mean
            out["est_imbalance"] = cost_max / mean if mean > 0 else 1.0
        if sec_units:
            mean_s = sec_sum / sec_units
            out["unit_seconds_max"] = sec_max
            out["unit_seconds_mean"] = mean_s
            out["seconds_imbalance"] = sec_max / mean_s if mean_s > 0 else 1.0
        return out


@dataclass
class _GroupResources:
    """One group's shared trace set + the shm publication backing it.

    Built (possibly on the prefetch thread) without shared memory; the
    driver calls :meth:`publish` on its own thread right before the
    group replays and :meth:`close` when it finishes, so at most one
    group's segment is mapped at any time."""

    shared: SharedTraces
    scenario: dict[str, Any]
    publication: _shm.ScenarioPublication | None = None
    build_seconds: float = 0.0
    prefetched: bool = False

    def publish(self, execution: ExecutionConfig) -> None:
        """Copy traces + ensemble into shared memory when parallel
        workers will consume them."""
        if not (execution.use_shm and execution.n_jobs > 1 and self.shared.traces):
            return
        start = time.perf_counter()  # reprolint: clock-ok=sweep build diagnostics
        try:
            publication = _shm.publish_scenario(
                self.shared.traces, self.shared.ensemble, **self.scenario
            )
        except Exception:
            # no shared memory on this platform / size limits: parallel
            # workers fall back to per-task regeneration (bit-identical)
            return
        self.publication = publication
        self.shared.layout = publication.layout
        self.build_seconds += time.perf_counter() - start  # reprolint: clock-ok=sweep build diagnostics

    def close(self) -> None:
        if self.publication is not None:
            self.publication.close()
            self.publication = None


def _build_group(scenario: Scenario, execution: ExecutionConfig) -> _GroupResources:
    """Generate the trace set of ``scenario``'s group (every member
    shares its trace signature) and compile its ensemble (unpublished:
    see :meth:`_GroupResources.publish`)."""
    build_start = time.perf_counter()  # reprolint: clock-ok=sweep build diagnostics
    platform = scenario.platform
    traces: list | None = None
    ensemble: TraceEnsemble | None = None
    # parallel units without shared memory regenerate their own rows,
    # so nothing would read an in-process set
    if execution.use_shm or execution.n_jobs <= 1:
        traces = [
            _job_trace(platform, scenario.horizon, scenario.seed, i)
            for i in range(scenario.n_traces)
        ]
        if execution.use_batch:
            ensemble = TraceEnsemble(traces, platform.recovery, scenario.t0)
    return _GroupResources(
        shared=SharedTraces(traces=traces, ensemble=ensemble),
        scenario=dict(
            n_units=platform.num_nodes,
            downtime=platform.downtime,
            horizon=scenario.horizon,
            recovery=platform.recovery,
            t0=scenario.t0,
        ),
        build_seconds=time.perf_counter() - build_start,  # reprolint: clock-ok=sweep build diagnostics
    )


def _start_prefetch(build: Callable[[], _GroupResources]):
    """Kick off a one-ahead group build on a background thread; returns
    ``(thread, box)`` where ``box`` receives ``resources`` or
    ``error``.  Trace generation is a pure function of the spec, so
    overlapping it with the current group's replay cannot change what
    gets built — only when."""
    box: dict[str, Any] = {}

    def work() -> None:
        try:
            box["resources"] = build()
        except BaseException as exc:  # the driver re-raises it on its thread
            box["error"] = exc

    thread = threading.Thread(
        target=work, daemon=True, name="repro-sweep-prefetch"
    )
    thread.start()
    return thread, box


def _run_groups(
    groups: Sequence[Sequence[int]],
    scenario: Callable[[int], Scenario],
    execution: ExecutionConfig,
    on_point_start: Callable[[int], None] | None = None,
    on_point_done: Callable[[int, Any], None] | None = None,
    point_progress: Callable[[int, int, int], None] | None = None,
) -> tuple[list, list[dict]]:
    """The one executor: run every point of ``groups`` (point indices,
    execution order) and return ``(results by point index,
    per-group stats)``.

    ``scenario(i)`` builds point ``i``'s inputs; it is called when the
    point runs (and once more for a group's first point, to build the
    trace set), so policy instances live only while their point runs.
    The driver owns the whole lifecycle: it forks the pool once
    (``jobs > 1``) before any trace set exists, builds each group
    (prefetching the next one on a background thread), publishes and
    closes its shared memory, and runs the group's points on that one
    trace set and pool.  Callbacks: ``on_point_start(i)`` /
    ``on_point_done(i, result)`` around each point and
    ``point_progress(i, done, total)`` per work unit; none affect
    results and their exceptions propagate.
    """
    results: list = [None] * sum(len(group) for group in groups)
    group_stats: list[dict] = []
    jobs_n = execution.n_jobs
    executor = ProcessPoolExecutor(max_workers=jobs_n) if jobs_n > 1 else None
    pending: tuple | None = None  # (thread, box) of the next group's build
    try:
        if executor is not None:
            # fork the workers now, before any group's trace set exists
            # and before the prefetch thread starts: they attach to shm
            # instead of inheriting (and holding resident) trace sets
            executor.submit(int).result()
        for gi, group in enumerate(groups):
            if pending is None:
                resources = _build_group(scenario(group[0]), execution)
            else:
                thread, box = pending
                thread.join()
                pending = None
                if "error" in box:
                    raise box["error"]
                resources = box["resources"]
                resources.prefetched = True
            if gi + 1 < len(groups):
                first = groups[gi + 1][0]
                pending = _start_prefetch(
                    lambda i=first: _build_group(scenario(i), execution)
                )
            shm_bytes = 0
            try:
                # the previous group's segment is closed by now
                resources.publish(execution)
                if resources.publication is not None:
                    shm_bytes = resources.publication.nbytes
                for index in group:
                    if on_point_start is not None:
                        on_point_start(index)
                    progress = None
                    if point_progress is not None:
                        progress = (
                            lambda d, t, i=index: point_progress(i, d, t)
                        )
                    runner = _parallel.ParallelRunner(
                        execution, progress=progress, executor=executor
                    )
                    results[index] = runner.run(scenario(index), resources.shared)
                    if on_point_done is not None:
                        on_point_done(index, results[index])
            finally:
                resources.close()
            first_result = results[group[0]]
            group_stats.append({
                "n_points": len(group),
                "point_indices": list(group),
                "trace_gen_reused": bool(first_result.trace_gen_reused),
                "ensemble_reused": bool(first_result.ensemble_reused),
                "shm": resources.shared.layout is not None,
                "shm_bytes": shm_bytes,
                "build_seconds": resources.build_seconds,
                "prefetched": resources.prefetched,
            })
    finally:
        if pending is not None:
            # an unconsumed prefetch holds no segment; just let it end
            pending[0].join(timeout=MINUTE)
        if executor is not None:
            executor.shutdown()
    return results, group_stats


def run_scenario(  # reprolint: disable=R6 the seed lives in the scenario (trace i = f(platform, horizon, scenario.seed, i))
    scenario: Scenario,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
    progress: Callable[[int, int], None] | None = None,
):
    """Run one scenario as a one-point group; ``progress(done,
    total)`` ticks per work unit.  Its ``elapsed`` covers the whole
    run, building its trace set included."""
    start = time.perf_counter()  # reprolint: clock-ok=diagnostic elapsed time
    point_progress = None
    if progress is not None:
        point_progress = lambda _i, done, total: progress(done, total)  # noqa: E731
    results, _stats = _run_groups(
        [(0,)], lambda _i: scenario, execution, point_progress=point_progress
    )
    result = results[0]
    result.elapsed = time.perf_counter() - start  # reprolint: clock-ok=diagnostic elapsed time
    return result


def run_sweep(  # reprolint: disable=R6 each point's seed lives in its spec (trace i = f(platform, horizon, spec.seed, i))
    specs: Sequence,
    execution: ExecutionConfig = DEFAULT_EXECUTION,
    progress: Callable[[int, int], None] | None = None,
    on_point_start: Callable[[int], None] | None = None,
    on_point_done: Callable[[int, Any], None] | None = None,
    point_progress: Callable[[int, int, int], None] | None = None,
) -> SweepResult:
    """Execute a list of :class:`ScenarioSpec` points as one sweep.

    Points are grouped by trace signature and each group replays over
    one shared trace set / ensemble / shm publication, with one process
    pool serving the whole sweep and the next group's traces prefetched
    in the background (see :func:`_run_groups`).

    Callbacks: ``progress(done_points, total_points)`` after each point;
    ``on_point_start(i)`` / ``on_point_done(i, result)`` around each
    point (service batch bookkeeping); ``point_progress(i, done,
    total)`` relays the runner's per-work-unit ticks.  None of them
    affect results; callback exceptions propagate.
    """
    sweep_start = time.perf_counter()  # reprolint: clock-ok=diagnostic elapsed time
    from repro.simulation.runner import aggregate_counters

    specs = list(specs)
    plan = plan_sweep(specs)
    done = 0

    def point_done(index: int, result: Any) -> None:
        nonlocal done
        done += 1
        if on_point_done is not None:
            on_point_done(index, result)
        if progress is not None:
            progress(done, len(specs))

    results, group_stats = _run_groups(
        [group.indices for group in plan.groups],
        lambda i: specs[i].build_scenario(),
        execution,
        on_point_start=on_point_start,
        on_point_done=point_done,
        point_progress=point_progress,
    )
    return SweepResult(
        results=results,
        plan=plan,
        group_stats=group_stats,
        counters=aggregate_counters(results),
        elapsed=time.perf_counter() - sweep_start,  # reprolint: clock-ok=diagnostic elapsed time
        n_jobs=execution.n_jobs,
    )
