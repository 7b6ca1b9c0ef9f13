"""Bit-identity of the vectorized batch replay engine.

The batch engine (:mod:`repro.simulation.batch`) promises results
**bit-identical** to the scalar engine for every static-schedule policy
— not approximately equal.  These tests enforce that promise across
hand-crafted edge traces (cascades, dead events, submissions inside a
downtime window) and randomized Exponential/Weibull ensembles, for the
whole periodic family, Liu's restarting schedule (including per-trace
exhaustion), the ``max_makespan`` abort path and the LowerBound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.distributions import Exponential, Weibull
from repro.execution import ExecutionConfig
from repro.policies.base import (
    PeriodicPolicy,
    Policy,
    PolicyInfeasibleError,
    StaticSchedule,
)
from repro.policies.bouguerra import Bouguerra
from repro.policies.classical import DalyHigh, DalyLow, OptExp, Young
from repro.policies.liu import Liu
from repro.simulation.batch import (
    TraceEnsemble,
    simulate_job_batch,
    simulate_lower_bound_batch,
    simulate_policy_ensemble,
)
from repro.simulation.engine import JobContext, simulate_job, simulate_lower_bound
from repro.traces.generation import PlatformTraces, generate_platform_traces

HOUR = 3600.0
DIST = Exponential(1.0 / (18 * HOUR))

RESULT_FIELDS = (
    "makespan",
    "work_time",
    "n_failures",
    "n_checkpoints",
    "n_attempts",
    "chunk_min",
    "chunk_max",
    "completed",
    "time_lost",
    "time_outage",
    "time_waiting",
)


def assert_same_result(batch, scalar, label=""):
    """Field-by-field exact equality (NaN chunk stats compare equal)."""
    if batch is None or scalar is None:
        assert batch is scalar, f"{label}: {batch!r} != {scalar!r}"
        return
    for f in RESULT_FIELDS:
        x, y = getattr(batch, f), getattr(scalar, f)
        if (
            isinstance(x, float)
            and isinstance(y, float)
            and math.isnan(x)
            and math.isnan(y)
        ):
            continue
        assert x == y, f"{label}: field {f}: batch {x!r} != scalar {y!r}"


def make_traces(per_unit, downtime=50.0, horizon=1e9):
    return PlatformTraces(
        [np.asarray(t, dtype=float) for t in per_unit],
        horizon=horizon,
        downtime=downtime,
    ).for_job(len(per_unit))


def check_policy(policy, work, traces, checkpoint, recovery, dist, **kw):
    """Run both engines over the trace list and demand bit-identity."""
    batch = simulate_policy_ensemble(
        policy, work, traces, checkpoint, recovery, dist, **kw
    )
    scalar_kw = {k: v for k, v in kw.items() if k != "ensemble"}
    for i, tr in enumerate(traces):
        try:
            ref = simulate_job(
                policy, work, tr, checkpoint, recovery, dist, **scalar_kw
            )
        except PolicyInfeasibleError:
            ref = None
        assert_same_result(batch[i], ref, label=f"trace {i}")
    return batch


class RestartingChunks(Policy):
    """Scalar twin of Liu's replay semantics with an arbitrary finite
    schedule — exercises the restarting-chunks mode and exhaustion."""

    name = "RestartingChunks"

    def __init__(self, chunks):
        self._chunks = [float(c) for c in chunks]
        self._idx = 0

    def setup(self, ctx):
        self._idx = 0

    def on_failure(self, ctx):
        self._idx = 0

    def next_chunk(self, remaining, ctx):
        if self._idx >= len(self._chunks):
            raise PolicyInfeasibleError("schedule exhausted")
        w = self._chunks[self._idx]
        self._idx += 1
        return min(w, remaining)

    def static_schedule(self, ctx):
        return StaticSchedule(chunks=np.asarray(self._chunks))


class TestStaticScheduleContract:
    def test_exactly_one_of_period_or_chunks(self):
        with pytest.raises(ValueError):
            StaticSchedule()
        with pytest.raises(ValueError):
            StaticSchedule(period=1.0, chunks=np.asarray([1.0]))
        with pytest.raises(ValueError):
            StaticSchedule(period=0.0)
        with pytest.raises(ValueError):
            StaticSchedule(chunks=np.asarray([1.0, -2.0]))

    def test_periodic_family_declares_schedules(self):
        ctx = JobContext(
            checkpoint=600.0,
            recovery=300.0,
            downtime=60.0,
            dist=DIST,
            work_time=10 * HOUR,
            n_units=4,
            platform_mtbf=DIST.mean() / 4,
            t0=0.0,
        )
        for pol in [Young(), DalyLow(), DalyHigh(), OptExp(), Bouguerra()]:
            pol.setup(ctx)
            sched = pol.static_schedule(ctx)
            assert sched is not None and sched.period is not None
            assert sched.period > 0
        liu = Liu()
        liu.setup(ctx)
        sched = liu.static_schedule(ctx)
        assert sched is not None and sched.chunks is not None

    def test_unbound_context_rejects_age_queries(self):
        ctx = JobContext(
            checkpoint=1.0,
            recovery=1.0,
            downtime=1.0,
            dist=DIST,
            work_time=1.0,
            n_units=1,
            platform_mtbf=1.0,
            t0=0.0,
        )
        with pytest.raises(ValueError):
            _ = ctx.ages
        with pytest.raises(ValueError):
            _ = ctx.age

    def test_dynamic_policy_returns_none_from_batch(self):
        class Adaptive(Policy):
            name = "Adaptive"

            def next_chunk(self, remaining, ctx):
                return remaining

        traces = [make_traces([[500.0], []])]
        out = simulate_job_batch(
            Adaptive(), 1000.0, traces, 100.0, 80.0, DIST
        )
        assert out is None
        # ... and the dispatcher falls back to the scalar engine
        check_policy(Adaptive(), 1000.0, traces, 100.0, 80.0, DIST)


class TestHandCraftedTraces:
    CASES = [
        make_traces([[300.0]]),  # failure mid-chunk
        make_traces([[590.0]]),  # failure during the checkpoint
        make_traces([[620.0]]),  # failure during the recovery window
        make_traces([[100.0, 130.0, 400.0], [135.0]]),  # cascading outage
        make_traces([[100.0, 120.0, 130.0]]),  # dead events (own downtime)
        make_traces([[100.0], [149.0, 400.0]]),  # recovery interrupted
        make_traces([[0.0, 200.0]]),  # event exactly at t0 = 0 skipped
        make_traces([[], []]),  # failure-free
    ]

    @pytest.mark.parametrize("period", [250.0, 500.0, 5000.0])
    def test_periodic_bit_identity(self, period):
        for t0 in (0.0, 110.0):  # 110 lands inside downtime windows
            check_policy(
                PeriodicPolicy(period),
                1000.0,
                self.CASES,
                100.0,
                80.0,
                DIST,
                t0=t0,
            )

    def test_zero_recovery_cascade_boundary(self):
        # with R = 0 an event exactly at t_prev + D is absorbed by the
        # cascade clause, not split into a new outage window
        traces = [make_traces([[100.0, 150.0]], downtime=50.0)]
        check_policy(PeriodicPolicy(300.0), 1000.0, traces, 50.0, 0.0, DIST)

    def test_lower_bound_bit_identity(self):
        for t0 in (0.0, 110.0):
            ens = TraceEnsemble(self.CASES, 80.0, t0)
            batch = simulate_lower_bound_batch(1000.0, ens, 100.0)
            for i, tr in enumerate(self.CASES):
                ref = simulate_lower_bound(1000.0, tr, 100.0, 80.0, t0=t0)
                assert_same_result(batch[i], ref, label=f"LB trace {i}")

    def test_restarting_schedule_and_exhaustion(self):
        # second trace exhausts the two-chunk schedule (failure-free but
        # the schedule only covers 600s of the 1000s job)
        pol = RestartingChunks([400.0, 200.0])
        traces = [make_traces([[300.0]]), make_traces([[]])]
        batch = check_policy(pol, 1000.0, traces, 100.0, 80.0, DIST)
        assert batch[1] is None  # exhausted == scalar raise

    def test_max_makespan_abort(self):
        # abort beats completion when the final attempt overshoots
        traces = [make_traces([[300.0]]), make_traces([[]])]
        for cap in (500.0, 1199.0, 1200.0, 1e9):
            check_policy(
                PeriodicPolicy(1000.0),
                1000.0,
                traces,
                100.0,
                80.0,
                DIST,
                max_makespan=cap,
            )


class TestRandomizedEnsembles:
    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(1.0 / (18 * HOUR)),
            Weibull.from_mtbf(18 * HOUR, 0.7),
            Weibull.from_mtbf(6 * HOUR, 0.5),
        ],
        ids=["exp", "weibull07", "weibull05"],
    )
    @pytest.mark.parametrize("n_units", [1, 4, 16])
    def test_policy_family_bit_identity(self, dist, n_units):
        traces = [
            generate_platform_traces(
                dist,
                n_units,
                40 * 24 * HOUR,
                downtime=60.0,
                seed=np.random.SeedSequence([97, n_units, i]),
            ).for_job(n_units)
            for i in range(10)
        ]
        work, checkpoint, recovery = 30 * HOUR, 600.0, 300.0
        mtbf = dist.mean() / n_units
        for t0 in (0.0, 5000.0):
            ens = TraceEnsemble(traces, recovery, t0)
            for pol in [
                Young(),
                DalyLow(),
                DalyHigh(),
                OptExp(),
                Bouguerra(),
                Liu(),
                PeriodicPolicy(2 * HOUR),
            ]:
                check_policy(
                    pol,
                    work,
                    traces,
                    checkpoint,
                    recovery,
                    dist,
                    t0=t0,
                    platform_mtbf=mtbf,
                    ensemble=ens,
                )
            batch = simulate_lower_bound_batch(work, ens, checkpoint)
            for i, tr in enumerate(traces):
                ref = simulate_lower_bound(
                    work, tr, checkpoint, recovery, t0=t0
                )
                assert_same_result(batch[i], ref, label=f"LB trace {i}")

    def test_setup_infeasibility_matches_scalar(self):
        # Liu on a large sub-hourly-MTBF Weibull platform: setup raises,
        # so every trace is infeasible on both paths
        dist = Weibull.from_mtbf(0.2 * HOUR, 0.5)
        traces = [
            generate_platform_traces(
                dist,
                16,
                10 * 24 * HOUR,
                downtime=60.0,
                seed=np.random.SeedSequence([3, i]),
            ).for_job(16)
            for i in range(3)
        ]
        out = check_policy(
            Liu(),
            10 * HOUR,
            traces,
            600.0,
            300.0,
            dist,
            platform_mtbf=dist.mean() / 16,
        )
        assert out == [None, None, None]

    def test_precompiled_ensemble_matches_fresh(self):
        dist = Weibull.from_mtbf(18 * HOUR, 0.7)
        traces = [
            generate_platform_traces(
                dist,
                4,
                40 * 24 * HOUR,
                downtime=60.0,
                seed=np.random.SeedSequence([13, i]),
            ).for_job(4)
            for i in range(6)
        ]
        ens = TraceEnsemble(traces, 300.0, 0.0)
        mtbf = dist.mean() / 4
        for pol in (Young(), PeriodicPolicy(HOUR)):
            shared = simulate_job_batch(
                pol,
                20 * HOUR,
                traces,
                600.0,
                300.0,
                dist,
                platform_mtbf=mtbf,
                ensemble=ens,
            )
            fresh = simulate_job_batch(
                pol,
                20 * HOUR,
                traces,
                600.0,
                300.0,
                dist,
                platform_mtbf=mtbf,
            )
            for a, b in zip(shared, fresh):
                assert_same_result(a, b)


class TestRunnerDispatch:
    def test_run_scenarios_batch_equals_scalar(self):
        from repro.cluster.models import ConstantOverhead, Platform
        from repro.simulation.runner import run_scenarios

        dist = Weibull.from_mtbf(12 * HOUR, 0.7)
        platform = Platform(
            p=8, dist=dist, downtime=60.0, overhead=ConstantOverhead(600.0)
        )
        policies = [Young(), OptExp(), Liu()]
        kw = dict(
            platform=platform,
            work_time=20 * HOUR,
            n_traces=6,
            horizon=30 * 24 * HOUR,
            seed=5,
            include_period_lb=True,
            period_lb_traces=3,
        )
        a = run_scenarios(policies, execution=ExecutionConfig(use_batch=True), **kw)
        b = run_scenarios(policies, execution=ExecutionConfig(use_batch=False), **kw)
        assert a.best_period == b.best_period
        assert a.infeasible == b.infeasible
        for name in b.makespans:
            assert np.array_equal(
                a.makespans[name], b.makespans[name], equal_nan=True
            ), name
        for name in b.details:
            for da, db in zip(a.details[name], b.details[name]):
                assert_same_result(da, db, label=name)
