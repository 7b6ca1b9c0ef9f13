"""Failure trace generation: semantics, coherence, reproducibility."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.models import ConstantOverhead, Platform
from repro.distributions import Exponential, Weibull
from repro.simulation.parallel import _job_trace
from repro.traces import (
    PlatformTraces,
    generate_failure_times,
    generate_platform_traces,
    generate_rejuvenated_platform_traces,
)
from repro.traces.generation import _trace_batch_size
from repro.units import DAY, HOUR


def _merge_reference(per_unit, n_units):
    """Reference merge of the first ``n_units`` units: concatenate the
    per-unit arrays, label each event with its unit, stable-sort."""
    chunks = [np.asarray(t, dtype=float) for t in per_unit[:n_units]]
    times = np.concatenate(chunks)
    units = np.concatenate(
        [np.full(c.size, i, dtype=np.int64) for i, c in enumerate(chunks)]
    )
    order = np.argsort(times, kind="stable")
    return times[order], units[order]


def _lifetime_starts_reference(tr, t0):
    """Reference per-event loop for :meth:`JobTraces.lifetime_starts_at`."""
    starts = np.zeros(tr.n_units)
    before = tr.times < t0
    for u, tf in zip(tr.units[before], tr.times[before]):
        starts[u] = max(starts[u], tf + tr.downtime)
    return starts


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ``_job_trace`` inputs pinned by the golden digest below; the two
# Weibull k=0.3 cases exhaust several units' first batches per trace
_GOLDEN_CASES = [
    (Exponential(1 / DAY), 64, 60.0, 200 * DAY, 11, 4),
    (Weibull.from_mtbf(10 * DAY, 0.7), 128, 60.0, 300 * DAY, 5, 3),
    (Weibull.from_mtbf(HOUR, 0.3), 16, 0.0, 200 * HOUR, 9, 4),
    (Weibull.from_mtbf(HOUR, 0.3), 16, 30.0, 200 * HOUR, 2, 4),
]
_GOLDEN_SHA256 = "4490c003cb6fcc563acfcb91b70622109baa66778256559e2dabb008d075a9d1"


class TestSingleTrace:
    def test_within_horizon_and_sorted(self):
        rng = np.random.default_rng(0)
        t = generate_failure_times(Exponential(1 / HOUR), 2 * DAY, rng, downtime=60.0)
        assert np.all(t <= 2 * DAY)
        assert np.all(np.diff(t) > 0)

    def test_gaps_include_downtime(self):
        rng = np.random.default_rng(1)
        t = generate_failure_times(Exponential(1 / 100.0), 50_000.0, rng, downtime=30.0)
        assert np.all(np.diff(t) >= 30.0)

    def test_failure_count_matches_renewal_rate(self):
        rng = np.random.default_rng(2)
        horizon, mtbf, d = 500 * HOUR, HOUR, 0.0
        t = generate_failure_times(Exponential(1 / mtbf), horizon, rng, downtime=d)
        assert len(t) == pytest.approx(horizon / mtbf, rel=0.15)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            generate_failure_times(Exponential(1.0), 0.0, np.random.default_rng(0))

    @settings(max_examples=25, deadline=None)
    @given(
        mtbf=st.floats(min_value=10.0, max_value=1e5),
        seed=st.integers(min_value=0, max_value=2**31),
        k=st.floats(min_value=0.3, max_value=2.0),
    )
    def test_property_trace_valid_for_weibull(self, mtbf, seed, k):
        rng = np.random.default_rng(seed)
        horizon = 20 * mtbf
        t = generate_failure_times(
            Weibull.from_mtbf(mtbf, k), horizon, rng, downtime=mtbf / 100
        )
        assert np.all(t > 0)
        assert np.all(t <= horizon)
        assert np.all(np.diff(t) >= mtbf / 100 - 1e-9)


class TestPlatformTraces:
    def test_reproducible(self):
        a = generate_platform_traces(Exponential(1 / HOUR), 5, DAY, seed=7)
        b = generate_platform_traces(Exponential(1 / HOUR), 5, DAY, seed=7)
        for x, y in zip(a.per_unit, b.per_unit):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = generate_platform_traces(Exponential(1 / HOUR), 3, DAY, seed=1)
        b = generate_platform_traces(Exponential(1 / HOUR), 3, DAY, seed=2)
        assert not all(np.array_equal(x, y) for x, y in zip(a.per_unit, b.per_unit))

    def test_prefix_coherence(self):
        """Traces for a p-unit job are the prefix of the full platform's
        traces (paper Section 4.3)."""
        full = generate_platform_traces(Exponential(1 / HOUR), 8, DAY, seed=3)
        small = full.for_job(3)
        big = full.for_job(8)
        small_events = set(zip(small.times.tolist(), small.units.tolist()))
        big_events = set(
            (t, u) for t, u in zip(big.times.tolist(), big.units.tolist()) if u < 3
        )
        assert small_events == big_events

    def test_merged_sorted(self):
        tr = generate_platform_traces(Exponential(1 / HOUR), 6, DAY, seed=4).for_job(6)
        assert np.all(np.diff(tr.times) >= 0)
        assert tr.units.max() < 6

    def test_for_job_validates(self):
        pt = generate_platform_traces(Exponential(1 / HOUR), 2, DAY, seed=0)
        with pytest.raises(ValueError):
            pt.for_job(3)
        with pytest.raises(ValueError):
            pt.for_job(0)


class TestRejuvenatedTraces:
    def test_single_macro_unit(self):
        pt = generate_rejuvenated_platform_traces(
            Exponential(1 / HOUR), 8, DAY, downtime=60.0, seed=0
        )
        assert pt.n_units == 1

    def test_failure_rate_matches_min_law(self):
        from repro.distributions import Weibull
        from repro.distributions.minimum import MinOfIID

        d = Weibull.from_mtbf(10 * DAY, 0.7)
        p = 16
        horizon = 3000 * DAY
        pt = generate_rejuvenated_platform_traces(d, p, horizon, seed=1)
        rate = pt.per_unit[0].size / horizon
        assert rate == pytest.approx(1.0 / MinOfIID(d, p).mean(), rel=0.1)

    def test_exponential_matches_independent_rate(self):
        """Memorylessness: both trace models yield the same platform
        failure rate for Exponential lifetimes."""
        d = Exponential(1 / DAY)
        p, horizon = 8, 2000 * DAY
        merged = generate_platform_traces(d, p, horizon, seed=2).for_job(p)
        rej = generate_rejuvenated_platform_traces(d, p, horizon, seed=3).for_job(1)
        assert merged.times.size == pytest.approx(rej.times.size, rel=0.1)


class TestJobTraces:
    def test_next_event_index(self):
        pt = PlatformTraces([np.array([10.0, 20.0, 30.0])], horizon=100.0, downtime=1.0)
        tr = pt.for_job(1)
        assert tr.next_event_index(5.0) == 0
        assert tr.next_event_index(10.0) == 1  # strictly after
        assert tr.next_event_index(25.0) == 2
        assert tr.next_event_index(99.0) == 3

    def test_lifetime_starts(self):
        pt = PlatformTraces(
            [np.array([10.0]), np.array([50.0]), np.array([])],
            horizon=100.0,
            downtime=5.0,
        )
        tr = pt.for_job(3)
        starts = tr.lifetime_starts_at(t0=30.0)
        assert starts[0] == pytest.approx(15.0)  # failed at 10, downtime 5
        assert starts[1] == 0.0  # fails later, lifetime began at 0
        assert starts[2] == 0.0  # never fails

    def test_downtime_in_progress_at_submission(self):
        # failure at 29 with downtime 5: the unit is still down at t0=30
        # and its lifetime starts at 34, after the submission time
        pt = PlatformTraces([np.array([29.0])], horizon=100.0, downtime=5.0)
        starts = pt.for_job(1).lifetime_starts_at(t0=30.0)
        assert starts[0] == pytest.approx(34.0)


class TestFlatLayout:
    """The flat ``times``/``counts``/``offsets`` layout against the
    reference merge and a digest of the traces it has always produced."""

    @settings(max_examples=60, deadline=None)
    @given(
        per_unit=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                max_size=6,
            ).map(sorted),
            min_size=1,
            max_size=8,
        )
    )
    def test_property_for_job_matches_reference(self, per_unit):
        pt = PlatformTraces(per_unit, horizon=1e6, downtime=5.0)
        assert pt.n_units == len(per_unit)
        for n in range(1, len(per_unit) + 1):
            tr = pt.for_job(n)
            times, units = _merge_reference(per_unit, n)
            assert _same_bytes(tr.times, times)
            assert _same_bytes(tr.units, units)

    def test_per_unit_views_are_read_only(self):
        pt = PlatformTraces([[1.0, 2.0], [], [3.0]], horizon=10.0, downtime=0.0)
        views = pt.per_unit
        assert [v.tolist() for v in views] == [[1.0, 2.0], [], [3.0]]
        assert pt.counts.tolist() == [2, 0, 1]
        assert pt.offsets.tolist() == [0, 2, 2, 3]
        with pytest.raises(ValueError):
            views[0][0] = 5.0

    def test_generated_matches_reference_merge(self):
        pt = generate_platform_traces(Weibull.from_mtbf(DAY, 0.7), 12, 30 * DAY, seed=5)
        per_unit = pt.per_unit
        for n in (1, 5, 12):
            tr = pt.for_job(n)
            times, units = _merge_reference(per_unit, n)
            assert _same_bytes(tr.times, times)
            assert _same_bytes(tr.units, units)

    def test_exhausted_batches_top_up_prefix_coherently(self):
        """Heavy-tailed lifetimes with a short mean outrun the first
        batch; those units continue from their own child streams, so
        every unit is the same whatever the platform size."""
        dist, horizon, downtime = Weibull.from_mtbf(HOUR, 0.3), 200 * HOUR, 30.0
        batch = _trace_batch_size(dist, horizon, downtime)
        sizes = (1, 3, 8, 32)
        platforms = {
            n: generate_platform_traces(dist, n, horizon, downtime, seed=[4, 2])
            for n in sizes
        }
        full = platforms[32]
        # the top-up path extended three units, one of them inside the
        # smaller platforms too
        assert np.flatnonzero(full.counts > batch).tolist() == [3, 20, 23]
        for units in full.per_unit:
            assert np.all(units <= horizon)
            assert np.all(np.diff(units) >= downtime)
        for n in sizes:
            small = platforms[n]
            assert _same_bytes(small.counts, full.counts[:n])
            assert _same_bytes(small.times, full.times[: full.offsets[n]])
            tr = full.for_job(n)
            assert _same_bytes(tr.times, small.for_job(n).times)
            assert _same_bytes(tr.units, small.for_job(n).units)

    def test_job_trace_golden_digest(self):
        digest = hashlib.sha256()
        for dist, p, downtime, horizon, seed, n_traces in _GOLDEN_CASES:
            platform = Platform(
                p=p, dist=dist, downtime=downtime, overhead=ConstantOverhead(600.0)
            )
            for index in range(n_traces):
                tr = _job_trace(platform, horizon, seed, index)
                digest.update(
                    f"{tr.times.dtype.str}{tr.units.dtype.str}{tr.n_units}"
                    f"{tr.downtime!r}{tr.horizon!r}".encode()
                )
                digest.update(tr.times.tobytes())
                digest.update(tr.units.tobytes())
        assert digest.hexdigest() == _GOLDEN_SHA256


class TestLifetimeStartsVectorized:
    def test_matches_reference_loop(self):
        pt = generate_platform_traces(
            Weibull.from_mtbf(DAY, 0.7), 10, 60 * DAY, downtime=HOUR, seed=8
        )
        tr = pt.for_job(10)
        for t0 in (0.0, 0.5 * DAY, 7 * DAY, 30 * DAY, 61 * DAY):
            assert _same_bytes(
                tr.lifetime_starts_at(t0), _lifetime_starts_reference(tr, t0)
            )

    def test_downtime_spanning_t0(self):
        # unit 0 fails twice before t0 (latest wins), unit 1 is still
        # down at t0, unit 2 fails only after t0, unit 3 never fails
        pt = PlatformTraces(
            [[3.0, 12.0, 40.0], [18.0], [25.0], []], horizon=100.0, downtime=5.0
        )
        tr = pt.for_job(4)
        got = tr.lifetime_starts_at(20.0)
        assert _same_bytes(got, _lifetime_starts_reference(tr, 20.0))
        assert got.tolist() == [17.0, 23.0, 0.0, 0.0]
