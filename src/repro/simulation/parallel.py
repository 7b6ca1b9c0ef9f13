"""Parallel execution layer for the simulation study.

The paper's experiments (Sections 4-6) evaluate ~10 policies over
hundreds of independent failure traces per scenario — embarrassingly
parallel work that the serial runner executed one (policy, trace) pair
at a time.  :class:`ParallelRunner` fans that work out over a
``concurrent.futures.ProcessPoolExecutor`` in three phases:

1. **trace phase** — batches of trace indices; each unit runs every
   policy (plus the omniscient LowerBound) over its rows of the
   scenario's trace set;
2. **period-search phase** — batches of PeriodLB candidate periods,
   each evaluated over the search-subset traces;
3. **winner phase** — the best period's policy over all traces.

Determinism guarantee
---------------------
Results are **bit-identical** to the serial path for a fixed ``seed``,
by construction:

- trace ``i`` is always generated from
  ``numpy.random.SeedSequence([seed, i])`` — a function of the trace
  *index* alone, never of the batch it lands in or the worker that runs
  it;
- :func:`repro.simulation.engine.simulate_job` is deterministic given
  (policy parameters, trace), and every policy's per-trace state is
  reset by ``setup()``;
- batches are stitched back by index, and the PeriodLB winner is the
  ``argmin`` over the same sorted candidate array the serial path scans.

Running with ``jobs=1`` executes the identical unit functions in
process, so the serial path is the parallel path with a trivial
executor — there is no second implementation to drift.

Infeasible policies (:class:`repro.policies.base.PolicyInfeasibleError`,
e.g. Liu on large Weibull platforms) are recorded explicitly in
``ScenarioResult.infeasible`` as ``{policy name: [trace indices]}`` on
both paths; their makespans stay ``NaN`` as before, but the error is no
longer silently swallowed.

Execution is configured by one frozen
:class:`~repro.execution.ExecutionConfig` (``execution``): the runner
makes it the active config for the run and every work unit carries it
into its worker (:func:`repro.execution.using_execution`), where the
cache tiers read their switches from it.

DP table caching is controlled per run (``use_cache``) and observable:
workers return per-unit hit/miss deltas of :mod:`repro.core.cache`,
aggregated into ``ScenarioResult.cache_hits`` / ``cache_misses``.  The
DPNextFailure replan memo (``use_memo``) is handled the same way, with
deltas aggregated into ``memo_hits`` / ``memo_misses``.  Because those
sums add up *per-worker* counters, a signature solved independently by
N workers contributes N misses; ``ScenarioResult.memo_unique_misses``
reports the deduplicated view — the number of distinct memo entries
actually solved — so shared-memo gains are visible rather than drowned
in double counts.

The persistent disk tier (``use_disk_cache``,
:mod:`repro.core.diskcache`) sits below both in-memory caches: workers
report per-unit disk hit/miss/evict deltas, aggregated into
``ScenarioResult.disk_hits`` / ``disk_misses`` / ``disk_evictions``.
With ``jobs > 1`` the replan memo is additionally **shared across
workers**: each work unit ships the memo entries it added back to the
parent, which merges them (:func:`repro.simulation.shm.merge_memo_delta`)
so the next run's pool forks warm, while the disk tier shares solves
between workers inside a run.

One executor: every scenario runs as a point of a sweep group
(:mod:`repro.simulation.sweep`), a standalone scenario as a group of
one.  The group driver forks the pool once, builds the group's trace
set once (generate every trace, compile the ensemble once) and, with
``jobs > 1`` and ``use_shm`` on, publishes it to shared memory; it then
hands each point's runner that :class:`SharedTraces` and the pool.
Serial units read the in-process trace list (ensemble row subsets via
:meth:`TraceEnsemble.take`), parallel units attach to the publication
and copy out only their rows.  Every channel carries the exact arrays
the determinism anchor defines, and any publish/attach failure (or
``use_shm=False``) falls back to per-unit regeneration, so the channel
only changes who computes the traces, never results.

Cost-model scheduling: work units are not all equal — a trace batch
replaying a DP policy costs orders of magnitude more than a vectorized
static-schedule replay.  The runner estimates each unit's cost (policy
family x trace count x DP grid size, discounted by the persistent disk
tier's lifetime hit rate), splits trace batches finer when units are
expensive (dynamic chunking), and dispatches units longest-first (LPT)
so a straggler never lands last on an otherwise idle pool.  Results are
stitched by trace index, so dispatch order is invisible to results; the
estimates and per-unit wall-clock land in ``ScenarioResult.scheduler``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.models import Platform
from repro.core.cache import cache_stats, replan_memo_stats
from repro.core.diskcache import disk_cache_stats, get_disk_cache
from repro.execution import DEFAULT_EXECUTION, ExecutionConfig, using_execution
from repro.simulation import shm as _shm
from repro.policies.base import PeriodicPolicy
from repro.simulation.batch import (
    TraceEnsemble,
    simulate_lower_bound_batch,
    simulate_policy_ensemble,
)
from repro.simulation.engine import simulate_lower_bound
from repro.traces.generation import generate_platform_traces

__all__ = ["ParallelRunner", "Scenario", "SharedTraces"]


@dataclass
class Scenario:
    """One scenario's inputs: ``policies`` replayed over ``n_traces``
    traces of ``platform``; see
    :func:`repro.simulation.runner.run_scenarios` for each field."""

    policies: list
    platform: Platform
    work_time: float
    n_traces: int
    horizon: float
    t0: float = 0.0
    seed: int = 0
    include_lower_bound: bool = True
    include_period_lb: bool = True
    period_lb_factors: list[float] | None = None
    period_lb_traces: int | None = None
    max_makespan: float = math.inf


@dataclass
class SharedTraces:
    """A sweep group's trace set, owned by the group driver.

    ``traces`` / ``ensemble`` are in-process references used on the
    serial path (``jobs <= 1``); ``layout`` is the shared-memory recipe
    parallel workers attach to (None when nothing was published).
    Either channel delivers exactly the arrays the scenario would have
    generated from the determinism anchor, so the channel can never
    change results — only who pays for generation and compilation.
    The driver keeps the publication alive for the runner's whole
    ``run()`` and unlinks it afterwards.
    """

    traces: list | None = None
    ensemble: TraceEnsemble | None = None
    layout: object | None = None


# ----------------------------------------------------------------------
# per-unit cost model (estimates only: scheduling, never results)
# ----------------------------------------------------------------------

#: Relative cost of replaying one trace under a DP policy with the
#: reference grid (n_grid=96) versus one vectorized static-schedule
#: replay.  Order-of-magnitude calibration from BENCH_dp: adaptive
#: replays are dominated by replan solves, static replays are a few
#: array passes.
_DP_TRACE_WEIGHT = 48.0


def _policy_weight(policy, disk_discount: float) -> float:
    """Estimated per-trace replay cost of ``policy`` (1.0 = one
    vectorized static-schedule replay).  DP policies scale with their
    grid resolution and are discounted by the persistent solve tier's
    observed hit rate — a warm tier turns most solves into loads."""
    n_grid = getattr(policy, "n_grid", None)
    if n_grid is None:
        return 1.0
    return max(1.0, _DP_TRACE_WEIGHT * (float(n_grid) / 96.0) * disk_discount)


def _disk_discount(use_disk_cache: bool) -> float:
    """Fraction of a DP policy's solve cost expected to be actually
    paid, calibrated from the disk tier's lifetime hit counters: a tier
    that historically answers 80% of lookups makes adaptive units ~5x
    cheaper than their cold estimate.  Returns 1.0 (no discount) when
    the tier is off or unreadable; floor 0.1 keeps even a perfectly
    warm tier's units ordered above static replays."""
    if not use_disk_cache:
        return 1.0
    try:
        rate = float(get_disk_cache().lifetime()["hit_rate"])
    except Exception:
        return 1.0
    return max(0.1, 1.0 - 0.9 * min(max(rate, 0.0), 1.0))


# ----------------------------------------------------------------------
# work units (module level: picklable by ProcessPoolExecutor)
# ----------------------------------------------------------------------


def _job_trace(platform: Platform, horizon: float, seed: int, index: int):
    """Trace ``index`` of the scenario — a pure function of
    ``(platform, horizon, seed, index)``, the determinism anchor."""
    return generate_platform_traces(
        platform.dist,
        platform.num_nodes,
        horizon,
        downtime=platform.downtime,
        seed=np.random.SeedSequence([int(seed), int(index)]),
    ).for_job(platform.num_nodes)


def _task_traces(
    platform: Platform,
    horizon: float,
    seed: int,
    indices: list[int],
    t0: float,
    use_batch: bool,
    layout,
    local: SharedTraces | None = None,
):
    """Materialize a work unit's traces + compiled ensemble.

    Preferred sources, in order: an in-process :class:`SharedTraces`
    (``local``, serial runs — never crosses a process boundary), then
    the group's shared-memory publication
    (``layout``) — attach, copy the unit's rows, detach.  Fallback (no
    layout, or any attach failure): regenerate from the determinism
    anchor and compile per batch, exactly the pre-shm path.  All
    sources yield bit-identical traces, and a row subset of the global
    ensemble is replay-equivalent to a per-batch compilation (padding
    columns are inert), so the choice never affects results.
    """
    if local is not None and local.traces is not None:
        traces = [local.traces[i] for i in indices]
        if use_batch and traces:
            ensemble = (
                local.ensemble.take(indices)
                if local.ensemble is not None
                else TraceEnsemble(traces, platform.recovery, t0)
            )
        else:
            ensemble = None
        return traces, ensemble
    if layout is not None:
        try:
            with _shm.attach_scenario(layout) as scenario:
                traces = [scenario.job_traces(i) for i in indices]
                ensemble = (
                    scenario.ensemble_rows(indices)
                    if use_batch and traces
                    else None
                )
            return traces, ensemble
        except Exception:
            # segment gone / platform quirk: drop the layout and
            # regenerate below (bit-identical by the determinism anchor)
            layout = None
    traces = [_job_trace(platform, horizon, seed, index) for index in indices]
    ensemble = (
        TraceEnsemble(traces, platform.recovery, t0)
        if use_batch and traces
        else None
    )
    return traces, ensemble


@dataclass
class _TraceTask:
    """Phase 1/3 unit: run ``policies`` over the traces in ``indices``."""

    platform: Platform
    work_time: float
    horizon: float
    t0: float
    seed: int
    indices: list[int]
    policies: list
    include_lower_bound: bool
    max_makespan: float
    execution: ExecutionConfig
    collect_memo_delta: bool = False
    layout: object | None = None
    # in-process trace source (jobs<=1); never pickled — parallel
    # dispatch always leaves it None and uses ``layout``
    local: SharedTraces | None = None


@dataclass
class _UnitCounters:
    """What every work unit reports besides its results: cache, memo
    and disk-tier deltas, the replan-memo entries it added (shipped
    back for the parent to merge; empty unless ``collect_memo_delta``
    was set) and its wall-clock (scheduler diagnostics)."""

    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    memo_delta: list = field(default_factory=list)
    unit_seconds: float = 0.0


@dataclass
class _TraceTaskResult(_UnitCounters):
    indices: list[int] = field(default_factory=list)
    # per policy name: list of (makespan, SimulationResult | None) in
    # index order; None marks an infeasible (policy, trace) pair
    per_policy: dict[str, list[tuple[float, object]]] = field(default_factory=dict)
    infeasible: dict[str, list[int]] = field(default_factory=dict)
    lower_bound: list[float] = field(default_factory=list)


def _run_unit(task, work: Callable[..., dict]) -> dict:
    """Run ``work(task)`` as one work unit under ``task.execution`` and
    return its result fields plus the unit's :class:`_UnitCounters`."""
    unit_start = time.perf_counter()  # reprolint: clock-ok=scheduler diagnostics
    with using_execution(task.execution):
        cache0, memo0, disk0 = cache_stats(), replan_memo_stats(), disk_cache_stats()
        memo_keys = _shm.memo_snapshot() if task.collect_memo_delta else None
        out = work(task)
        cache1, memo1, disk1 = cache_stats(), replan_memo_stats(), disk_cache_stats()
        # persist hit counters a hit-only worker would otherwise never flush
        get_disk_cache().flush_counters()
        memo_delta = (
            _shm.export_memo_delta(memo_keys) if memo_keys is not None else []
        )
    return dict(
        out,
        cache_hits=cache1.hits - cache0.hits,
        cache_misses=cache1.misses - cache0.misses,
        memo_hits=memo1.hits - memo0.hits,
        memo_misses=memo1.misses - memo0.misses,
        disk_hits=disk1.hits - disk0.hits,
        disk_misses=disk1.misses - disk0.misses,
        disk_evictions=disk1.evictions - disk0.evictions,
        memo_delta=memo_delta,
        unit_seconds=time.perf_counter() - unit_start,  # reprolint: clock-ok=scheduler diagnostics
    )


def _run_trace_task(task: _TraceTask) -> _TraceTaskResult:
    return _TraceTaskResult(**_run_unit(task, _trace_unit))


def _trace_unit(task: _TraceTask) -> dict:
    platform = task.platform
    use_batch = task.execution.use_batch
    per_policy: dict[str, list[tuple[float, object]]] = {}
    infeasible: dict[str, list[int]] = {}
    lower_bound: list[float] = []
    # One compiled ensemble serves every static-schedule policy of the
    # batch (and the LowerBound); dynamic policies fall back to the
    # scalar engine inside simulate_policy_ensemble.
    traces, ensemble = _task_traces(
        platform,
        task.horizon,
        task.seed,
        task.indices,
        task.t0,
        use_batch,
        task.layout,
        task.local,
    )
    for policy in task.policies:
        results = simulate_policy_ensemble(
            policy,
            task.work_time,
            traces,
            platform.checkpoint,
            platform.recovery,
            platform.dist,
            t0=task.t0,
            platform_mtbf=platform.platform_mtbf,
            max_makespan=task.max_makespan,
            ensemble=ensemble,
            use_batch=use_batch,
        )
        pairs: list[tuple[float, object]] = []
        for index, res in zip(task.indices, results):
            if res is None:
                pairs.append((math.nan, None))
                infeasible.setdefault(policy.name, []).append(index)
            else:
                pairs.append((res.makespan, res))
        per_policy[policy.name] = pairs
    if task.include_lower_bound:
        if ensemble is not None:
            lower_bound = [
                res.makespan
                for res in simulate_lower_bound_batch(
                    task.work_time, ensemble, platform.checkpoint
                )
            ]
        else:
            lower_bound = [
                simulate_lower_bound(
                    task.work_time,
                    tr,
                    platform.checkpoint,
                    platform.recovery,
                    t0=task.t0,
                ).makespan
                for tr in traces
            ]
    return dict(
        indices=list(task.indices),
        per_policy=per_policy,
        infeasible=infeasible,
        lower_bound=lower_bound,
    )


@dataclass
class _PeriodTask:
    """Phase 2 unit: mean makespan of each candidate period over the
    search-subset traces."""

    platform: Platform
    work_time: float
    horizon: float
    t0: float
    seed: int
    subset_indices: list[int]
    periods: list[float]
    max_makespan: float
    execution: ExecutionConfig
    collect_memo_delta: bool = False
    layout: object | None = None
    # in-process trace source (jobs<=1); never pickled
    local: SharedTraces | None = None


@dataclass
class _PeriodTaskResult(_UnitCounters):
    means: list[float] = field(default_factory=list)


def _run_period_task(task: _PeriodTask) -> _PeriodTaskResult:
    return _PeriodTaskResult(**_run_unit(task, _period_unit))


def _period_unit(task: _PeriodTask) -> dict:
    platform = task.platform
    use_batch = task.execution.use_batch
    # The compiled ensemble is period-independent: one compilation is
    # amortized over the entire candidate sweep of this work unit.
    traces, ensemble = _task_traces(
        platform,
        task.horizon,
        task.seed,
        task.subset_indices,
        task.t0,
        use_batch,
        task.layout,
        task.local,
    )
    means = []
    for period in task.periods:
        policy = PeriodicPolicy(period, name="PeriodCandidate")
        results = simulate_policy_ensemble(
            policy,
            task.work_time,
            traces,
            platform.checkpoint,
            platform.recovery,
            platform.dist,
            t0=task.t0,
            platform_mtbf=platform.platform_mtbf,
            max_makespan=task.max_makespan,
            ensemble=ensemble,
            use_batch=use_batch,
        )
        # a PeriodicPolicy is never infeasible: every entry is a result
        spans = [res.makespan for res in results if res is not None]
        means.append(float(np.mean(spans)))
    return dict(means=means)


def _chunk(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


class ParallelRunner:
    """Runs one scenario's work units: in process (``jobs=1``) or on
    the group driver's worker pool (``jobs>1``), with identical results.

    Parameters
    ----------
    execution:
        The run's :class:`~repro.execution.ExecutionConfig`: worker
        count (0 or negative = every CPU) and the bit-identical
        switches.  ``run`` makes it the active config of the calling
        thread for the run's duration and every work unit carries it
        into its worker, so the cache tiers see it wherever they run.
    progress:
        Optional callback ``progress(done, total)`` invoked after every
        completed work unit (trace batch, period batch, winner batch).
        ``total`` grows as later phases enqueue their units, so treat it
        as the best current estimate, not a constant.  Used by the
        scenario service for its status/stream JSON; never affects
        results.  Exceptions raised by the callback propagate.
    executor:
        The ``ProcessPoolExecutor`` of a parallel run, forked and shut
        down by the group driver (:mod:`repro.simulation.sweep`), which
        hands one pool to every scenario of a sweep.  Without one, units
        run in process.
    """

    def __init__(
        self,
        execution: ExecutionConfig = DEFAULT_EXECUTION,
        progress: Callable[[int, int], None] | None = None,
        executor: Executor | None = None,
    ):
        self.execution = execution
        self.jobs = execution.n_jobs
        self.progress = progress
        self._executor = executor
        self._units_done = 0
        self._units_total = 0
        # per-unit cost estimates and measured seconds, accumulated
        # across phases for ScenarioResult.scheduler
        self._sched_costs: list[float] = []
        self._sched_seconds: list[float] = []

    # -- internal dispatch ---------------------------------------------

    def _unit_done(self) -> None:
        self._units_done += 1
        if self.progress is not None:
            self.progress(self._units_done, self._units_total)

    def _map(self, fn, tasks: list, costs: list[float] | None = None):
        """Run ``fn`` over ``tasks``, in process or on the pool; results
        come back in task order either way.  Each completed task ticks
        the progress callback.

        ``costs`` (estimated per-unit cost, same length as ``tasks``)
        turns on longest-first dispatch: units are *submitted* in
        descending cost order (LPT — workers pick up the expensive
        stragglers first), while collection stays in task order, so
        callers that rely on order (period means) see no difference.
        """
        self._units_total += len(tasks)
        if costs is not None:
            self._sched_costs.extend(costs)
        if self._executor is None or len(tasks) <= 1:
            out = []
            for t in tasks:
                out.append(fn(t))
                self._unit_done()
            return out
        order = list(range(len(tasks)))
        if costs is not None:
            order.sort(key=lambda i: (-costs[i], i))
        futures = {i: self._executor.submit(fn, tasks[i]) for i in order}
        out = []
        for i in range(len(tasks)):
            out.append(futures[i].result())
            self._unit_done()
        return out

    def _trace_batches(
        self, indices: list[int], per_trace_cost: float = 1.0
    ) -> list[list[int]]:
        """Split trace indices into work units.

        The granularity adapts to the estimated per-trace cost: cheap
        vectorized replays stay chunky (~4 units per worker, little
        IPC), while expensive adaptive replays split finer — imbalance
        there costs whole DP solves, and the extra dispatch overhead is
        noise next to one unit's runtime.  Batching never affects
        results (traces are stitched back by index).
        """
        units_per_worker = int(
            min(16, max(4, round(2.0 * math.sqrt(max(per_trace_cost, 1.0)))))
        )
        size = max(
            1, math.ceil(len(indices) / max(1, self.jobs * units_per_worker))
        )
        return _chunk(indices, size)

    def _scheduler_stats(self) -> dict:
        """JSON-ready summary of the run's unit cost estimates and
        measured unit wall-clock (max/mean imbalance)."""
        costs = self._sched_costs
        seconds = [s for s in self._sched_seconds if s > 0.0]
        stats: dict = {
            "units": len(costs),
            "longest_first": self.jobs > 1,
        }
        if costs:
            mean = sum(costs) / len(costs)
            stats["est_cost_max"] = max(costs)
            stats["est_cost_mean"] = mean
            stats["est_imbalance"] = max(costs) / mean if mean > 0 else 1.0
        if seconds:
            mean_s = sum(seconds) / len(seconds)
            stats["unit_seconds_max"] = max(seconds)
            stats["unit_seconds_mean"] = mean_s
            stats["seconds_imbalance"] = (
                max(seconds) / mean_s if mean_s > 0 else 1.0
            )
        return stats

    # -- public API ----------------------------------------------------

    def run(self, scenario: Scenario, shared: SharedTraces):  # reprolint: disable=R6 the seed lives in the scenario (trace i = f(platform, horizon, scenario.seed, i))
        """Run ``scenario`` over its group's trace set ``shared``; see
        :func:`repro.simulation.runner.run_scenarios` for semantics.
        The group driver keeps ``shared``'s publication alive for the
        duration of the call."""
        # diagnostic elapsed-time only; never feeds simulation state
        start = time.perf_counter()  # reprolint: clock-ok=diagnostic elapsed time
        self._units_done = 0
        self._units_total = 0
        self._sched_costs = []
        self._sched_seconds = []
        with using_execution(self.execution):
            return self._run_phases(scenario, shared, start)

    def _run_phases(self, scenario: Scenario, shared: SharedTraces, start: float):
        # Imported here: runner imports this module, so a module-level
        # import would be circular.
        from repro.simulation.runner import LOWER_BOUND, PERIOD_LB, ScenarioResult
        from repro.simulation.runner import _optexp_period

        policies = scenario.policies
        platform = scenario.platform
        work_time = scenario.work_time
        n_traces = scenario.n_traces
        # Per-trace cost estimate drives chunk granularity and the
        # longest-first dispatch order; the disk-tier discount reads the
        # tier's lifetime counters once, and only when an adaptive
        # policy makes it matter.
        discount = (
            _disk_discount(self.execution.use_disk_cache)
            if any(getattr(p, "n_grid", None) is not None for p in policies)
            else 1.0
        )
        per_trace_cost = sum(_policy_weight(p, discount) for p in policies)
        if scenario.include_lower_bound:
            per_trace_cost += 1.0

        hits = misses = 0
        memo_hits = memo_misses = 0
        disk_hits = disk_misses = disk_evictions = 0
        # With several workers, each unit ships back the memo entries it
        # added; the parent merges them so the next run's pool forks
        # warm, and the union of delta keys is the deduplicated miss
        # count.
        collect_delta = self.jobs > 1 and self.execution.use_memo
        layout = shared.layout
        # the in-process trace list only serves serial runs; parallel
        # units read the shm layout (or regenerate)
        local = shared if self.jobs <= 1 else None
        unit_kw = dict(
            platform=platform,
            work_time=work_time,
            horizon=scenario.horizon,
            t0=scenario.t0,
            seed=scenario.seed,
            max_makespan=scenario.max_makespan,
            execution=self.execution,
            collect_memo_delta=collect_delta,
            layout=layout,
            local=local,
        )
        merged_keys: set = set()

        def _absorb(res) -> None:
            nonlocal hits, misses, memo_hits, memo_misses
            nonlocal disk_hits, disk_misses, disk_evictions
            hits += res.cache_hits
            misses += res.cache_misses
            memo_hits += res.memo_hits
            memo_misses += res.memo_misses
            disk_hits += res.disk_hits
            disk_misses += res.disk_misses
            disk_evictions += res.disk_evictions
            self._sched_seconds.append(res.unit_seconds)
            if res.memo_delta:
                _shm.merge_memo_delta(res.memo_delta)
                merged_keys.update(key for key, _value in res.memo_delta)

        indices = list(range(n_traces))
        tasks = [
            _TraceTask(
                indices=batch,
                policies=policies,
                include_lower_bound=scenario.include_lower_bound,
                **unit_kw,
            )
            for batch in self._trace_batches(indices, per_trace_cost)
        ]
        results = self._map(
            _run_trace_task,
            tasks,
            costs=[len(t.indices) * per_trace_cost for t in tasks],
        )

        makespans: dict[str, np.ndarray] = {
            p.name: np.full(n_traces, np.nan) for p in policies
        }
        details: dict[str, list] = {p.name: [None] * n_traces for p in policies}
        infeasible: dict[str, list[int]] = {}
        lb_spans = np.full(n_traces, np.nan)
        for res in results:
            _absorb(res)
            for name, pairs in res.per_policy.items():
                for index, (span, det) in zip(res.indices, pairs):
                    makespans[name][index] = span
                    details[name][index] = det
            for name, idxs in res.infeasible.items():
                infeasible.setdefault(name, []).extend(idxs)
            if res.lower_bound:
                for index, span in zip(res.indices, res.lower_bound):
                    lb_spans[index] = span
        for name in infeasible:
            infeasible[name].sort()
        if scenario.include_lower_bound:
            makespans[LOWER_BOUND] = lb_spans

        best_period = math.nan
        if scenario.include_period_lb:
            from repro.policies.periodlb import candidate_factors

            factors = (
                scenario.period_lb_factors
                if scenario.period_lb_factors is not None
                else candidate_factors()
            )
            base = _optexp_period(platform, work_time)
            periods = np.asarray(sorted(base * np.asarray(factors, dtype=float)))
            subset = indices[: (scenario.period_lb_traces or n_traces)]
            per_unit = max(
                1, math.ceil(periods.size / max(1, self.jobs * 2))
            )
            period_tasks = [
                _PeriodTask(subset_indices=subset, periods=batch, **unit_kw)
                for batch in _chunk(list(periods), per_unit)
            ]
            # candidate periods replay vectorized (weight 1 per trace)
            period_costs = [
                len(t.periods) * len(t.subset_indices) for t in period_tasks
            ]
            means: list[float] = []
            for period_res in self._map(
                _run_period_task, period_tasks, costs=period_costs
            ):
                means.extend(period_res.means)
                _absorb(period_res)
            best = int(np.argmin(means))
            best_period = float(periods[best])

            winner_tasks = [
                _TraceTask(
                    indices=batch,
                    policies=[PeriodicPolicy(best_period, name=PERIOD_LB)],
                    include_lower_bound=False,
                    **unit_kw,
                )
                for batch in self._trace_batches(indices)
            ]
            lb_period_spans = np.full(n_traces, np.nan)
            for res in self._map(
                _run_trace_task,
                winner_tasks,
                costs=[float(len(t.indices)) for t in winner_tasks],
            ):
                _absorb(res)
                for index, (span, _det) in zip(res.indices, res.per_policy[PERIOD_LB]):
                    lb_period_spans[index] = span
            makespans[PERIOD_LB] = lb_period_spans

        # The group's set counts as reused when the units read it: the
        # in-process list (serial) or the shm layout (parallel) — jobs>1
        # without a layout regenerates per unit.
        trace_gen_reused = local is not None or layout is not None
        ensemble_reused = bool(
            self.execution.use_batch
            and (
                (local is not None and local.ensemble is not None)
                or (layout is not None and getattr(layout, "has_ensemble", False))
            )
        )
        return ScenarioResult(
            makespans=makespans,
            details=details,
            work_time=work_time,
            best_period=best_period,
            infeasible=infeasible,
            elapsed=time.perf_counter() - start,  # reprolint: clock-ok=diagnostic elapsed time
            n_jobs=self.jobs,
            cache_hits=hits,
            cache_misses=misses,
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            memo_unique_misses=(
                len(merged_keys) if collect_delta else memo_misses
            ),
            disk_hits=disk_hits,
            disk_misses=disk_misses,
            disk_evictions=disk_evictions,
            trace_gen_reused=trace_gen_reused,
            ensemble_reused=ensemble_reused,
            scheduler=self._scheduler_stats(),
        )
