"""Parallel scenario runner: determinism, infeasibility recording,
execution configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.models import ConstantOverhead, Platform
from repro.distributions import Exponential, Weibull
from repro.policies import DPMakespanPolicy, DPNextFailurePolicy, Liu, OptExp, Young
from repro.execution import ExecutionConfig, resolve_jobs
from repro.simulation.parallel import ParallelRunner
from repro.simulation.runner import LOWER_BOUND, PERIOD_LB, run_scenarios
from repro.units import DAY, HOUR


def _platform(dist):
    return Platform(p=4, dist=dist, downtime=60.0, overhead=ConstantOverhead(600.0))


def _run(policies, platform, **kw):
    base = dict(
        work_time=DAY,
        n_traces=6,
        horizon=200 * DAY,
        seed=7,
        period_lb_factors=[0.5, 1.0, 2.0],
    )
    base.update(kw)
    return run_scenarios(policies, platform, **base)


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        """The acceptance gate: fixed seed, jobs=4 vs jobs=1, identical
        per-trace makespans for every policy including the DP ones."""
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        policies = lambda: [Young(), OptExp(), DPNextFailurePolicy(n_grid=32)]
        serial = _run(policies(), platform, execution=ExecutionConfig(jobs=1))
        parallel = _run(policies(), platform, execution=ExecutionConfig(jobs=4))
        assert set(serial.makespans) == set(parallel.makespans)
        for name in serial.makespans:
            assert np.array_equal(
                serial.makespans[name], parallel.makespans[name], equal_nan=True
            ), name
        assert serial.best_period == parallel.best_period

    def test_no_cache_does_not_change_results(self):
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        policies = [DPMakespanPolicy(n_grid=48)]
        a = _run(policies, platform, execution=ExecutionConfig(use_cache=True))
        b = _run(policies, platform, execution=ExecutionConfig(use_cache=False))
        assert np.array_equal(
            a.makespans["DPMakespan"], b.makespans["DPMakespan"], equal_nan=True
        )

    def test_period_lb_winner_matches_serial(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        serial = _run([Young()], platform, execution=ExecutionConfig(jobs=1))
        parallel = _run([Young()], platform, execution=ExecutionConfig(jobs=3))
        assert serial.best_period == parallel.best_period
        assert np.array_equal(
            serial.makespans[PERIOD_LB], parallel.makespans[PERIOD_LB]
        )


class TestResultStructure:
    def test_all_entries_present(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young(), OptExp()], platform)
        assert set(res.makespans) == {"Young", "OptExp", LOWER_BOUND, PERIOD_LB}
        for spans in res.makespans.values():
            assert spans.shape == (6,)

    def test_details_in_trace_order(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young()], platform, execution=ExecutionConfig(jobs=2))
        dets = res.details["Young"]
        assert len(dets) == 6
        assert [d.makespan for d in dets] == list(res.makespans["Young"])

    def test_timing_and_jobs_recorded(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young()], platform, execution=ExecutionConfig(jobs=2))
        assert res.n_jobs == 2
        assert res.elapsed > 0

    def test_cache_counters_surface(self):
        from repro.core.cache import clear_cache

        clear_cache()
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        res = _run(
            [DPMakespanPolicy(n_grid=48)],
            platform,
            include_period_lb=False,
        )
        # one DP solve, then one hit per remaining trace
        assert res.cache_misses >= 1
        assert res.cache_hits >= res.makespans["DPMakespan"].size - 1


class TestInfeasibleRecording:
    def test_liu_infeasible_recorded_not_swallowed(self):
        """Liu is infeasible on large decreasing-hazard platforms: the
        runner must record which traces failed, identically on both
        execution paths, instead of silently leaving NaN."""
        platform = Platform(
            p=64,
            dist=Weibull.from_mtbf(30 * DAY, 0.3),
            downtime=60.0,
            overhead=ConstantOverhead(600.0),
        )
        kw = dict(
            work_time=0.5 * DAY,
            n_traces=3,
            horizon=60 * DAY,
            seed=3,
            include_period_lb=False,
            max_makespan=50 * 0.5 * DAY,
        )
        serial = run_scenarios([Liu(), Young()], platform, **kw)
        assert "Liu" in serial.infeasible
        assert serial.infeasible["Liu"] == [0, 1, 2]
        assert np.all(np.isnan(serial.makespans["Liu"]))
        assert "Young" not in serial.infeasible

        parallel = run_scenarios(
            [Liu(), Young()], platform, execution=ExecutionConfig(jobs=2), **kw
        )
        assert parallel.infeasible == serial.infeasible

    def test_feasible_scenario_has_empty_infeasible(self):
        platform = _platform(Exponential.from_mtbf(12 * HOUR))
        res = _run([Young()], platform, include_period_lb=False)
        assert res.infeasible == {}


class TestExecutionConfig:
    def test_resolve_jobs(self):
        import os

        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_config_dataclass_defaults(self):
        import dataclasses

        cfg = ExecutionConfig()
        assert cfg.jobs == 1 and cfg.use_cache is True
        assert cfg.use_memo is True and cfg.use_shm is True
        assert cfg.use_disk_cache is True
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.jobs = 2  # type: ignore[misc]

    def test_runner_takes_one_config(self):
        runner = ParallelRunner(ExecutionConfig(jobs=3, use_cache=False))
        assert runner.jobs == 3
        assert runner.execution.use_cache is False
        assert ParallelRunner().execution == ExecutionConfig()

    def test_concurrent_runs_keep_their_own_cache_switches(self):
        """Two threaded runs overlap: one with every cache tier off
        starts first, a default run starts while it runs, and the
        cache-off run finishes first.  A process-global on/off flag
        saved and restored around each run leaves every tier disabled
        for the rest of the process in this order; the per-thread
        active config must leave a later default run hitting the memo,
        the DP cache and the disk tier."""
        import threading

        from repro.core.cache import (
            clear_cache,
            clear_replan_memo,
            get_cache,
            get_replan_memo,
        )
        from repro.core.diskcache import get_disk_cache

        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        kw = dict(
            work_time=0.25 * DAY,
            n_traces=4,
            horizon=200 * DAY,
            seed=7,
            include_lower_bound=False,
            include_period_lb=False,
        )

        def policies():
            return [DPNextFailurePolicy(n_grid=16), DPMakespanPolicy(n_grid=16)]

        off_started = threading.Event()
        default_started = threading.Event()
        off_done = threading.Event()
        errors: list[BaseException] = []

        def off_progress(done, total):
            if done == 1:
                off_started.set()
                assert default_started.wait(60.0)

        def default_progress(done, total):
            if done == 1:
                default_started.set()
                assert off_done.wait(60.0)

        def run(execution, progress):
            try:
                run_scenarios(
                    policies(), platform, execution=execution,
                    progress=progress, **kw
                )
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        off = ExecutionConfig(use_cache=False, use_memo=False,
                              use_disk_cache=False)
        t_off = threading.Thread(target=run, args=(off, off_progress),
                                 daemon=True)
        t_default = threading.Thread(
            target=run, args=(ExecutionConfig(), default_progress),
            daemon=True,
        )
        t_off.start()
        assert off_started.wait(60.0)
        t_default.start()
        t_off.join(60.0)
        off_done.set()
        t_default.join(60.0)
        assert not t_off.is_alive() and not t_default.is_alive()
        assert errors == []

        tiers = (get_cache(), get_replan_memo(), get_disk_cache())
        assert all(tier.enabled for tier in tiers)
        clear_cache()
        clear_replan_memo()
        after = run_scenarios(policies(), platform, **kw)
        assert after.memo_hits >= 1
        assert after.cache_hits >= 1
        assert after.disk_hits + after.disk_misses >= 1


class TestReplanMemo:
    """Cross-trace replan memo: identical results with the memo on or
    off, serial or parallel, and counters surfaced in the result."""

    def _dp_run(self, **kw):
        from repro.core.cache import clear_cache, clear_replan_memo

        clear_cache()
        clear_replan_memo()
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        base = dict(
            work_time=0.25 * DAY,
            n_traces=6,
            horizon=200 * DAY,
            seed=7,
            include_lower_bound=False,
            include_period_lb=False,
        )
        base.update(kw)
        return run_scenarios(
            [DPNextFailurePolicy(n_grid=24)], platform, **base
        )

    def test_memo_on_off_identical_serial(self):
        on = self._dp_run(execution=ExecutionConfig(use_memo=True))
        off = self._dp_run(execution=ExecutionConfig(use_memo=False))
        assert np.array_equal(
            on.makespans["DPNextFailure"], off.makespans["DPNextFailure"]
        )

    def test_memo_serial_parallel_identical_with_counters(self):
        serial = self._dp_run(execution=ExecutionConfig(use_memo=True))
        parallel = self._dp_run(
            execution=ExecutionConfig(jobs=2, use_memo=True)
        )
        assert np.array_equal(
            serial.makespans["DPNextFailure"],
            parallel.makespans["DPNextFailure"],
        )
        # every replan consults the memo; at least the cross-trace
        # fresh-platform plan hits on both execution paths
        assert serial.memo_misses >= 1 and serial.memo_hits >= 1
        assert parallel.memo_misses >= 1
        assert parallel.memo_hits + parallel.memo_misses > 0

    def test_memo_off_reports_zero_hits(self):
        res = self._dp_run(execution=ExecutionConfig(use_memo=False))
        assert res.memo_hits == 0
        # disabled memo still counts solves as misses
        assert res.memo_misses >= 1


class TestSharedMemory:
    """Shared-memory trace publication: bit-identical to regeneration,
    robust to publish/attach failures."""

    def _run_shm(self, **kw):
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        base = dict(
            work_time=0.25 * DAY,
            n_traces=6,
            horizon=200 * DAY,
            seed=11,
            include_lower_bound=True,
            include_period_lb=False,
        )
        base.update(kw)
        return run_scenarios([Young(), OptExp()], platform, **base)

    def test_shm_on_off_identical(self):
        on = self._run_shm(execution=ExecutionConfig(jobs=2, use_shm=True))
        off = self._run_shm(execution=ExecutionConfig(jobs=2, use_shm=False))
        serial = self._run_shm()
        for name in serial.makespans:
            assert np.array_equal(on.makespans[name], serial.makespans[name]), name
            assert np.array_equal(off.makespans[name], serial.makespans[name]), name

    def test_publish_failure_falls_back(self, monkeypatch):
        import repro.simulation.shm as shm_mod

        def boom(*a, **kw):
            raise OSError("no shared memory here")

        monkeypatch.setattr(shm_mod, "publish_scenario", boom)
        res = self._run_shm(execution=ExecutionConfig(jobs=2, use_shm=True))
        serial = self._run_shm()
        for name in serial.makespans:
            assert np.array_equal(res.makespans[name], serial.makespans[name]), name

    def test_attach_failure_falls_back(self, monkeypatch):
        # Workers are forked, so they inherit the monkeypatched module
        # attribute; _task_traces must swallow the failure and
        # regenerate from the determinism anchor.
        import repro.simulation.shm as shm_mod

        def boom(layout):
            raise OSError("attach refused")

        monkeypatch.setattr(shm_mod, "attach_scenario", boom)
        res = self._run_shm(execution=ExecutionConfig(jobs=2, use_shm=True))
        serial = self._run_shm()
        for name in serial.makespans:
            assert np.array_equal(res.makespans[name], serial.makespans[name]), name

    def test_publish_attach_roundtrip(self):
        from repro.simulation import shm as shm_mod
        from repro.simulation.batch import TraceEnsemble
        from repro.simulation.parallel import _job_trace

        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        horizon = 50 * DAY
        traces = [_job_trace(platform, horizon, seed=3, index=i) for i in range(4)]
        ensemble = TraceEnsemble(traces, platform.recovery, 0.0)
        pub = shm_mod.publish_scenario(
            traces,
            ensemble,
            n_units=platform.num_nodes,
            downtime=platform.downtime,
            horizon=horizon,
            recovery=platform.recovery,
            t0=0.0,
        )
        try:
            with shm_mod.attach_scenario(pub.layout) as scenario:
                for i, tr in enumerate(traces):
                    got = scenario.job_traces(i)
                    assert np.array_equal(got.times, tr.times)
                    assert np.array_equal(got.units, tr.units)
                    assert got.n_units == tr.n_units
                    assert got.downtime == tr.downtime
                    assert got.horizon == tr.horizon
                # Row-slices of the global ensemble vs an ensemble
                # compiled from just those traces: identical up to the
                # narrower padding width, inert +inf/carry padding after.
                sub = scenario.ensemble_rows([1, 3])
                full = TraceEnsemble([traces[1], traces[3]], platform.recovery, 0.0)
                w = full.fail.shape[1]
                assert np.array_equal(sub.t_start, full.t_start)
                assert np.array_equal(sub.fail[:, :w], full.fail)
                assert np.array_equal(sub.resume[:, :w], full.resume)
                assert np.array_equal(sub.cumfail[:, :w], full.cumfail)
                assert np.all(np.isinf(sub.fail[:, w:]))
                assert np.array_equal(
                    sub.cumfail[:, w:],
                    np.broadcast_to(
                        sub.cumfail[:, w - 1 : w], sub.cumfail[:, w:].shape
                    ),
                )
        finally:
            pub.close()

    def test_publish_empty_raises(self):
        from repro.simulation import shm as shm_mod

        with pytest.raises(ValueError):
            shm_mod.publish_scenario(
                [], None, n_units=1, downtime=0.0, horizon=1.0,
                recovery=0.0, t0=0.0,
            )

    def test_attach_closes_segment_on_corrupt_layout(self, monkeypatch):
        """A layout the segment cannot satisfy (bad dtype/offset) must
        not leak the attachment: __init__ closes before propagating."""
        from repro.simulation import shm as shm_mod

        class FakeSegment:
            buf = memoryview(bytearray(8))
            closed = False

            def close(self):
                FakeSegment.closed = True

        monkeypatch.setattr(
            shm_mod, "_attach_segment", lambda name: FakeSegment()
        )
        bad_spec = shm_mod._ArraySpec(
            offset=0, shape=(1000,), dtype="float64"  # 8000 B > 8 B buffer
        )
        layout = shm_mod.ScenarioLayout(
            shm_name="bogus",
            specs={"times": bad_spec},
            n_units=1,
            downtime=0.0,
            horizon=1.0,
            recovery=0.0,
            t0=0.0,
            has_ensemble=False,
        )
        with pytest.raises(Exception):
            shm_mod.attach_scenario(layout)
        assert FakeSegment.closed


class TestDiskCacheTier:
    """Persistent L2 disk tier under the runner: counters surfaced,
    bit-identity with the tier on or off, and the worker memo-delta
    merge that lets a later run in the same process fork warm."""

    def _dp_run(self, **kw):
        from repro.core.cache import clear_cache, clear_replan_memo

        clear_cache()
        clear_replan_memo()
        platform = _platform(Weibull.from_mtbf(12 * HOUR, 0.7))
        base = dict(
            work_time=0.25 * DAY,
            n_traces=6,
            horizon=200 * DAY,
            seed=7,
            include_lower_bound=False,
            include_period_lb=False,
        )
        base.update(kw)
        return run_scenarios(
            [DPNextFailurePolicy(n_grid=24)], platform, **base
        )

    def test_disk_warm_run_bit_identical(self):
        """Second run with cleared L1 caches is served from disk and
        produces the same makespans bit-for-bit."""
        cold = self._dp_run()
        assert cold.disk_misses >= 1  # every solve persisted
        warm = self._dp_run()  # _dp_run cleared L1 again
        assert np.array_equal(
            cold.makespans["DPNextFailure"], warm.makespans["DPNextFailure"]
        )
        assert warm.disk_hits >= 1

    def test_disk_tier_off_bit_identical_and_uncounted(self):
        on = self._dp_run(execution=ExecutionConfig(use_disk_cache=True))
        off = self._dp_run(execution=ExecutionConfig(use_disk_cache=False))
        assert np.array_equal(
            on.makespans["DPNextFailure"], off.makespans["DPNextFailure"]
        )
        assert off.disk_hits == 0 and off.disk_misses == 0

    def test_counters_consistent_serial(self):
        res = self._dp_run()
        # serial misses are already unique, so the deduplicated count
        # is defined to equal the summed one
        assert res.memo_unique_misses == res.memo_misses
        assert res.disk_evictions == 0

    def test_parallel_unique_misses_not_above_summed(self):
        res = self._dp_run(
            execution=ExecutionConfig(jobs=2, use_disk_cache=False)
        )
        assert 1 <= res.memo_unique_misses <= res.memo_misses

    def test_memo_delta_merge_warms_parent(self):
        """Workers ship their memo entries back at unit exit, so a
        later run in the same process forks warm and mostly hits."""
        first = self._dp_run(
            execution=ExecutionConfig(jobs=2, use_disk_cache=False)
        )
        assert first.memo_misses >= 1

        from repro.core.cache import clear_cache

        clear_cache()  # keep the replan memo, drop only the DP tables
        second = run_scenarios(
            [DPNextFailurePolicy(n_grid=24)],
            _platform(Weibull.from_mtbf(12 * HOUR, 0.7)),
            work_time=0.25 * DAY,
            n_traces=6,
            horizon=200 * DAY,
            seed=7,
            include_lower_bound=False,
            include_period_lb=False,
            execution=ExecutionConfig(jobs=2, use_disk_cache=False),
        )
        assert np.array_equal(
            first.makespans["DPNextFailure"],
            second.makespans["DPNextFailure"],
        )
        # every replan the first run paid for is now a memo hit
        assert second.memo_hits >= first.memo_unique_misses
        assert second.memo_misses == 0
