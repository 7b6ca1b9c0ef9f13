"""Replication extension: engine semantics and crossover behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Exponential, Weibull
from repro.policies import OptExp
from repro.policies.base import PeriodicPolicy
from repro.simulation.engine import simulate_job
from repro.simulation.replication import (
    simulate_independent_replication,
    simulate_synchronized_replication,
    split_traces,
)
from repro.traces.generation import PlatformTraces, generate_platform_traces
from repro.units import DAY, HOUR

DIST = Exponential(1.0)


def make_platform(per_unit, downtime=50.0):
    return PlatformTraces(
        [np.asarray(t, dtype=float) for t in per_unit],
        horizon=1e9,
        downtime=downtime,
    )


class TestSplit:
    def test_disjoint_halves(self):
        pt = generate_platform_traces(Exponential(1 / HOUR), 6, DAY, seed=0)
        a, b = split_traces(pt, 3)
        assert a.n_units == b.n_units == 3
        assert not np.array_equal(a.times, b.times)
        # half B's first unit is platform unit 3
        assert np.array_equal(b.times[b.units == 0], pt.per_unit[3])

    def test_second_half_matches_rebuilt_platform(self):
        """Slicing the flat layout equals rebuilding a platform from
        the second half's per-unit arrays."""
        pt = generate_platform_traces(Weibull.from_mtbf(DAY, 0.7), 9, 40 * DAY, seed=3)
        for n in (1, 2, 4):
            _, b = split_traces(pt, n)
            ref = PlatformTraces(
                pt.per_unit[n : 2 * n], horizon=pt.horizon, downtime=pt.downtime
            ).for_job(n)
            assert b.times.tobytes() == ref.times.tobytes()
            assert b.units.tobytes() == ref.units.tobytes()
            assert b.times.dtype == ref.times.dtype
            assert b.units.dtype == ref.units.dtype
            assert (b.n_units, b.horizon, b.downtime) == (
                ref.n_units, ref.horizon, ref.downtime,
            )

    def test_requires_enough_units(self):
        pt = generate_platform_traces(Exponential(1 / HOUR), 4, DAY, seed=0)
        with pytest.raises(ValueError):
            split_traces(pt, 3)


class TestSynchronizedDeterministic:
    def test_no_failures_same_as_single(self):
        pt = make_platform([[], []])
        res = simulate_synchronized_replication(
            PeriodicPolicy(250.0), 1000.0, pt, 1, 100.0, 80.0, DIST
        )
        assert res.makespan == pytest.approx(4 * 350.0)
        assert res.n_failures == 0

    def test_one_half_fails_chunk_still_commits(self):
        # half A fails at 300 during chunk [0, 600); half B survives.
        # chunk commits at 600; A ready at 300+50+80=430 < 600.
        pt = make_platform([[300.0], []])
        res = simulate_synchronized_replication(
            PeriodicPolicy(500.0), 500.0, pt, 1, 100.0, 80.0, DIST
        )
        assert res.makespan == pytest.approx(600.0)
        assert res.n_failures == 1
        assert res.n_checkpoints == 1

    def test_late_failure_delays_next_chunk(self):
        # chunk [0,350): A fails at 340 -> ready 340+50+80=470 > 350;
        # chunk commits (B survived) but chunk 2 starts at 470.
        pt = make_platform([[340.0], []])
        res = simulate_synchronized_replication(
            PeriodicPolicy(250.0), 500.0, pt, 1, 100.0, 80.0, DIST
        )
        # chunk2 [470, 820)
        assert res.makespan == pytest.approx(820.0)

    def test_both_halves_fail_chunk_lost(self):
        pt = make_platform([[300.0], [200.0]])
        res = simulate_synchronized_replication(
            PeriodicPolicy(500.0), 500.0, pt, 1, 100.0, 80.0, DIST
        )
        # A ready 430, B ready 330; retry at 430, done 1030
        assert res.makespan == pytest.approx(1030.0)
        assert res.n_failures == 2

    def test_synchronized_beats_unreplicated_under_heavy_failures(self):
        """With a failure striking the single half's every other chunk,
        the replica masks most losses."""
        dist = Weibull.from_mtbf(3 * HOUR, 0.7)
        wins = 0
        for seed in range(8):
            pt = generate_platform_traces(dist, 2, 2000 * HOUR, downtime=60.0, seed=seed)
            single = simulate_job(
                PeriodicPolicy(1800.0),
                12 * HOUR,
                pt.for_job(1),
                600.0,
                600.0,
                dist,
            )
            repl = simulate_synchronized_replication(
                PeriodicPolicy(1800.0), 12 * HOUR, pt, 1, 600.0, 600.0, dist
            )
            if repl.makespan <= single.makespan:
                wins += 1
        assert wins >= 5


class TestIndependent:
    def test_winner_is_min(self):
        pt = make_platform([[300.0], []])
        res = simulate_independent_replication(
            lambda: PeriodicPolicy(500.0), 500.0, pt, 1, 100.0, 80.0, DIST
        )
        # half B never fails: 600; half A: 1030
        assert res.makespan == pytest.approx(600.0)
        assert res.n_failures == 1  # aggregated across replicas

    def test_never_worse_than_single_half(self):
        dist = Weibull.from_mtbf(6 * HOUR, 0.7)
        for seed in range(5):
            pt = generate_platform_traces(dist, 2, 4000 * HOUR, downtime=60.0, seed=seed)
            single = simulate_job(
                OptExp(), 12 * HOUR, pt.for_job(1), 600.0, 600.0, dist,
                platform_mtbf=6 * HOUR,
            )
            repl = simulate_independent_replication(
                OptExp, 12 * HOUR, pt, 1, 600.0, 600.0, dist,
                platform_mtbf=6 * HOUR,
            )
            assert repl.makespan <= single.makespan + 1e-6


class TestCrossover:
    def test_replication_loses_when_failures_rare(self):
        """Reliable platform: paying 2x compute for redundancy loses."""
        from repro.experiments.config import SMOKE
        from repro.experiments.replication import run_replication_experiment
        from repro.cluster.presets import PETASCALE

        points = run_replication_experiment(
            scale=SMOKE,
            mtbf_factors=(1.0,),
            preset=PETASCALE.scale(32),
        )
        pt = points[0]
        assert pt.full < pt.independent
        assert pt.full < pt.synchronized
