"""Grid sweep engine: expansion, trace-signature planning, execution.

The acceptance property of the sweep engine lives here: a grid
executed through :func:`run_sweep`'s shared-trace plan is **bit
identical** (comparable result payload under canonical JSON) to running
every point as an independent scenario (``[spec.run(execution) for spec
in specs]``, the reference) — across the shm / memo / disk-cache
execution knobs and across worker counts.  It also pins the one-executor
shape: a standalone scenario is a one-point group with one pool.
"""

from __future__ import annotations

import json

import pytest

from repro.execution import ExecutionConfig
from repro.service.serialize import (
    comparable_result_payload,
    scenario_result_to_dict,
)
from repro.service.spec import ScenarioSpec, SpecError, expand_grid
from repro.simulation.sweep import plan_sweep, run_sweep, trace_signature
from repro.units import DAY, HOUR

TINY = dict(work=7200.0, mtbf=14400.0, n_traces=2,
            policies=("young", "dalylow"))


def _payload_json(result) -> str:
    """Canonical JSON of the comparable payload — the identity gate."""
    return json.dumps(
        comparable_result_payload(scenario_result_to_dict(result)),
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------


class TestExpandGrid:
    def test_cartesian_order_last_axis_fastest(self):
        specs = expand_grid(
            dict(TINY), {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        )
        assert [(s.checkpoint, s.seed) for s in specs] == [
            (300.0, 0), (300.0, 1), (600.0, 0), (600.0, 1),
        ]

    def test_expansion_is_deterministic(self):
        grid = {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        a = expand_grid(dict(TINY), grid)
        b = expand_grid(dict(TINY), grid)
        assert [s.signature() for s in a] == [s.signature() for s in b]

    def test_empty_grid_is_one_point(self):
        specs = expand_grid(dict(TINY), {})
        assert len(specs) == 1
        assert specs[0] == ScenarioSpec(**TINY)

    def test_policies_axis(self):
        specs = expand_grid(
            dict(TINY), {"policies": [["young"], ["dalylow", "optexp"]]}
        )
        assert specs[0].policies == ("young",)
        assert specs[1].policies == ("dalylow", "optexp")

    @pytest.mark.parametrize(
        "grid",
        [
            {"nosuchfield": [1]},
            {"checkpoint": []},
            {"checkpoint": 600.0},
            {"checkpoint": "600"},
            {"mtbf": [-1.0]},
        ],
    )
    def test_invalid_grids_fail_whole_expansion(self, grid):
        with pytest.raises(SpecError):
            expand_grid(dict(TINY), grid)


# ----------------------------------------------------------------------
# trace-signature planning
# ----------------------------------------------------------------------


class TestPlanSweep:
    def test_replay_only_axes_collapse_into_one_group(self):
        # checkpoint cost and policy choice never touch trace generation
        specs = expand_grid(dict(TINY), {
            "checkpoint": [300.0, 600.0, 900.0],
            "policies": [["young"], ["dalylow"]],
        })
        plan = plan_sweep(specs)
        assert plan.n_points == 6
        assert len(plan.groups) == 1
        assert plan.groups[0].indices == tuple(range(6))
        assert plan.to_dict() == {
            "n_points": 6, "n_groups": 1, "group_sizes": [6],
            "shared_trace_gens_saved": 5,
        }

    def test_seed_axis_splits_groups_in_first_seen_order(self):
        specs = expand_grid(
            dict(TINY), {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        )
        plan = plan_sweep(specs)
        assert len(plan.groups) == 2
        # last axis (seed) varies fastest: seed 0 at 0,2 / seed 1 at 1,3
        assert plan.groups[0].indices == (0, 2)
        assert plan.groups[1].indices == (1, 3)

    def test_work_axis_splits_unless_horizon_pinned(self):
        # work feeds the default horizon, so a work axis changes the
        # generated traces — unless the spec pins horizon explicitly
        free = expand_grid(dict(TINY), {"work": [7200.0, 14400.0]})
        pinned = expand_grid(
            {**TINY, "horizon": 200000.0}, {"work": [7200.0, 14400.0]}
        )
        assert len(plan_sweep(free).groups) == 2
        assert len(plan_sweep(pinned).groups) == 1

    def test_exponential_shape_canonicalized_away(self):
        a = ScenarioSpec(dist="exponential", shape=0.7, **TINY)
        b = ScenarioSpec(dist="exponential", shape=1.5, **TINY)
        assert trace_signature(a) == trace_signature(b)
        w = ScenarioSpec(dist="weibull", shape=0.7, **TINY)
        assert trace_signature(a) != trace_signature(w)


# ----------------------------------------------------------------------
# execution: bit-identity to independent runs
# ----------------------------------------------------------------------


def _grid_12():
    """12 points, 2 trace groups (seed axis splits, the rest replay)."""
    return expand_grid(dict(TINY), {
        "checkpoint": [300.0, 600.0, 900.0],
        "seed": [0, 1],
        "policies": [["young"], ["dalylow"]],
    })


class TestRunSweepIdentity:
    @pytest.mark.parametrize(
        "knobs",
        [
            {},  # default config
            {"use_memo": False, "use_disk_cache": False},
            {"use_batch": False, "use_cache": False},
        ],
        ids=["defaults", "no-memo-no-disk", "no-batch-no-l1"],
    )
    def test_12_point_grid_bit_identical_to_independent_runs(self, knobs):
        specs = _grid_12()
        execution = ExecutionConfig(jobs=1, **knobs)
        reference = [spec.run(execution) for spec in specs]
        sweep = run_sweep(specs, execution)
        assert [_payload_json(r) for r in sweep.results] == \
            [_payload_json(r) for r in reference]

    @pytest.mark.slow
    def test_parallel_sweep_bit_identical_with_shm(self):
        specs = _grid_12()
        reference = [spec.run(ExecutionConfig()) for spec in specs]
        sweep = run_sweep(specs, ExecutionConfig(jobs=2, use_shm=True))
        assert sweep.n_jobs == 2
        assert [_payload_json(r) for r in sweep.results] == \
            [_payload_json(r) for r in reference]


class TestRunSweepReporting:
    def test_group_stats_record_reuse_and_prefetch(self):
        sweep = run_sweep(_grid_12(), ExecutionConfig(jobs=1))
        assert len(sweep.group_stats) == 2
        for stats in sweep.group_stats:
            assert stats["n_points"] == 6
            assert stats["trace_gen_reused"] is True
            assert stats["ensemble_reused"] is True
            assert stats["build_seconds"] >= 0.0
        # the first group is built inline; every later group's traces
        # are prefetched while its predecessor replays
        assert sweep.group_stats[0]["prefetched"] is False
        assert sweep.group_stats[1]["prefetched"] is True

    def test_at_most_one_group_published_at_a_time(self, monkeypatch):
        """The prefetch thread only builds; the next group is published
        after the current group's segment is closed."""
        from repro.simulation import shm as shm_mod

        events: list[tuple[str, int]] = []
        publish = shm_mod.publish_scenario
        close = shm_mod.ScenarioPublication.close

        def recording_publish(*args, **kwargs):
            publication = publish(*args, **kwargs)
            events.append(("publish", id(publication)))
            return publication

        def recording_close(self):
            events.append(("close", id(self)))
            close(self)

        monkeypatch.setattr(shm_mod, "publish_scenario", recording_publish)
        monkeypatch.setattr(shm_mod.ScenarioPublication, "close", recording_close)
        specs = expand_grid(
            dict(TINY), {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        )
        sweep = run_sweep(specs, ExecutionConfig(jobs=2, use_shm=True))
        assert [s["shm"] for s in sweep.group_stats] == [True, True]
        assert sweep.group_stats[1]["prefetched"] is True
        assert [kind for kind, _ in events] == [
            "publish", "close", "publish", "close",
        ]
        live: set[int] = set()
        for kind, ident in events:
            if kind == "publish":
                live.add(ident)
            else:
                live.discard(ident)
            assert len(live) <= 1

    def test_workers_fork_before_any_group_is_built(self, monkeypatch):
        """Workers hold no copy of a trace set, and no fork happens
        while the prefetch thread runs."""
        import multiprocessing

        from repro.simulation import sweep as sweep_mod

        build = sweep_mod._build_group
        alive: list[int] = []

        def recording_build(*args, **kwargs):
            alive.append(len(multiprocessing.active_children()))
            return build(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_build_group", recording_build)
        specs = expand_grid(dict(TINY), {"seed": [0, 1]})
        run_sweep(specs, ExecutionConfig(jobs=2, use_shm=True))
        assert alive == [2, 2]

    def test_counters_roll_up_over_all_points(self):
        sweep = run_sweep(_grid_12(), ExecutionConfig(jobs=1))
        assert sweep.counters["scenarios"] == 12
        assert sweep.counters["elapsed"] > 0.0
        for key in ("cache_hits", "memo_hits", "disk_hits"):
            assert key in sweep.counters

    def test_scheduler_summary_shape(self):
        summary = run_sweep(_grid_12()[:2]).scheduler_summary()
        assert summary["units"] > 0
        assert summary["est_cost_max"] >= summary["est_cost_mean"] > 0.0
        assert summary["est_imbalance"] >= 1.0

    def test_callbacks_fire_in_plan_order(self):
        specs = expand_grid(
            dict(TINY), {"checkpoint": [300.0, 600.0], "seed": [0, 1]}
        )
        started: list[int] = []
        finished: list[int] = []
        ticks: list[tuple[int, int]] = []

        sweep = run_sweep(
            specs,
            on_point_start=started.append,
            on_point_done=lambda i, result: finished.append(i),
            progress=lambda done, total: ticks.append((done, total)),
        )
        # execution follows the plan: group 0 (seed 0) then group 1
        assert started == [0, 2, 1, 3]
        assert finished == started
        assert ticks == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert all(r is not None for r in sweep.results)


class TestOneExecutor:
    """A standalone scenario runs as a one-point sweep group: one pool
    for every phase, forked before its one trace-set build."""

    @staticmethod
    def _run(execution):
        from repro.cluster.models import ConstantOverhead, Platform
        from repro.distributions import Weibull
        from repro.policies import Young
        from repro.simulation.runner import run_scenarios

        platform = Platform(p=4, dist=Weibull.from_mtbf(12 * HOUR, 0.7),
                            downtime=60.0, overhead=ConstantOverhead(600.0))
        return run_scenarios(
            [Young()], platform, work_time=DAY, n_traces=6,
            horizon=200 * DAY, seed=7, include_period_lb=True,
            period_lb_factors=[0.5, 1.0, 2.0], execution=execution,
        )

    @staticmethod
    def _record_builds(monkeypatch) -> list[tuple[int, float, object]]:
        """(live worker processes, seconds, resources) per
        ``_build_group`` call."""
        import multiprocessing
        import time

        from repro.simulation import sweep as sweep_mod

        build = sweep_mod._build_group
        calls: list[tuple[int, float, object]] = []

        def recording_build(*args, **kwargs):
            alive = len(multiprocessing.active_children())
            start = time.perf_counter()
            out = build(*args, **kwargs)
            calls.append((alive, time.perf_counter() - start, out))
            return out

        monkeypatch.setattr(sweep_mod, "_build_group", recording_build)
        return calls

    def test_parallel_run_constructs_one_pool(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        made: list[int] = []
        init = ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        result = self._run(ExecutionConfig(jobs=2))
        # trace, period-search and winner phases all dispatched units
        assert result.scheduler["units"] > 3
        assert len(made) == 1

    def test_workers_fork_before_the_trace_set_is_built(self, monkeypatch):
        builds = self._record_builds(monkeypatch)
        result = self._run(ExecutionConfig(jobs=2, use_shm=True))
        assert [alive for alive, _, _ in builds] == [2]
        assert result.trace_gen_reused is True
        assert result.ensemble_reused is True

    def test_parallel_run_without_shm_builds_no_unread_set(self, monkeypatch):
        """Without shared memory parallel units regenerate their rows,
        so the driver generates no in-process set for them."""
        builds = self._record_builds(monkeypatch)
        result = self._run(ExecutionConfig(jobs=2, use_shm=False))
        assert [res.shared.traces for _, _, res in builds] == [None]
        assert result.trace_gen_reused is False
        assert _payload_json(result) == _payload_json(
            self._run(ExecutionConfig(jobs=1))
        )

    def test_serial_run_builds_once_and_counts_the_build(self, monkeypatch):
        builds = self._record_builds(monkeypatch)
        result = self._run(ExecutionConfig(jobs=1))
        assert [alive for alive, _, _ in builds] == [0]
        assert result.trace_gen_reused is True
        assert result.elapsed >= builds[0][1]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCliSweep:
    _ARGS = ["sweep", "--work", "2h", "--mtbf", "4h", "--traces", "1",
             "--policies", "young"]

    def _run(self, capsys, extra):
        from repro.cli import main

        rc = main([*self._ARGS, *extra])
        return rc, json.loads(capsys.readouterr().out)

    def test_local_sweep_envelope(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, env = self._run(
            capsys, ["--grid", "checkpoint=5m,10m", "--grid", "seed=1,2"]
        )
        assert rc == 0 and env["ok"] is True
        data = env["data"]
        assert data["plan"] == {
            "n_points": 4, "n_groups": 2, "group_sizes": [2, 2],
            "shared_trace_gens_saved": 2,
        }
        assert len(data["points"]) == 4
        assert data["points"][0]["spec"]["checkpoint"] == 300.0
        assert data["points"][0]["result"]["format"] == "repro.result/1"
        assert data["counters"]["scenarios"] == 4
        assert len(data["group_stats"]) == 2

    def test_no_sweep_plan_escape_hatch_is_identical(self, capsys,
                                                     tmp_path, monkeypatch):
        """``repro sweep`` against its independent reference: one
        ``repro run`` per grid point."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        _, planned = self._run(capsys, ["--grid", "checkpoint=5m,10m"])
        independent = []
        for checkpoint in ("5m", "10m"):
            argv = ["run", *self._ARGS[1:], "--checkpoint", checkpoint]
            assert main(argv) == 0
            independent.append(json.loads(capsys.readouterr().out))
        canon = lambda result: json.dumps(  # noqa: E731
            comparable_result_payload(result), sort_keys=True
        )
        assert [canon(p["result"]) for p in planned["data"]["points"]] == \
            [canon(env["data"]["result"]) for env in independent]

    def test_bad_grid_key_is_spec_error(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, env = self._run(capsys, ["--grid", "nosuchfield=1"])
        assert rc == 2
        assert env["error"]["type"] == "SpecError"

    def test_policies_grid_axis_plus_join(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, env = self._run(
            capsys, ["--grid", "policies=young+dalylow,optexp"]
        )
        assert rc == 0
        specs = [p["spec"] for p in env["data"]["points"]]
        assert [s["policies"] for s in specs] == [
            ["young", "dalylow"], ["optexp"],
        ]
