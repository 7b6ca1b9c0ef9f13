"""Persistent disk solve cache: bit-identity, corruption fallback,
concurrency, version rollover, eviction and the disabled slow path."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.cache import cached_dp_makespan, cached_replan, clear_cache
from repro.core.diskcache import (
    DiskSolveCache,
    key_digest,
    load_dp_makespan,
)
from repro.distributions import Exponential, Weibull
from repro.units import DAY, HOUR


@pytest.fixture
def cache(tmp_path):
    return DiskSolveCache(root=tmp_path)


def _arrays(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "table": rng.standard_normal((7, 5)),
        "scalar": np.float64(rng.standard_normal()),
    }


KEY = ("kind-test", 1.5, 3, True, ("nested", 2.0))


class TestRoundTrip:
    def test_store_then_load_bit_identical(self, cache):
        arrays = _arrays()
        assert cache.store("dp", KEY, arrays)
        loaded = cache.load("dp", KEY)
        assert loaded is not None
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == np.asarray(arrays[name]).dtype

    def test_miss_on_absent_key(self, cache):
        assert cache.load("dp", KEY) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_kinds_do_not_collide(self, cache):
        cache.store("a", KEY, _arrays(1))
        assert cache.load("b", KEY) is None

    def test_counters(self, cache):
        cache.store("dp", KEY, _arrays())
        cache.load("dp", KEY)
        cache.load("dp", ("other",))
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_disabled_is_a_noop(self, cache):
        from repro.execution import ExecutionConfig, using_execution

        with using_execution(ExecutionConfig(use_disk_cache=False)):
            assert not cache.enabled
            assert not cache.store("dp", KEY, _arrays())
            assert cache.load("dp", KEY) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)


class TestKeyDigest:
    def test_distinct_types_distinct_digests(self):
        # bool is an int subclass; 1.0 == 1 — the canonical encoding
        # must still tell them apart
        assert key_digest("k", (1,)) != key_digest("k", (True,))
        assert key_digest("k", (1,)) != key_digest("k", (1.0,))
        assert key_digest("k", ("1",)) != key_digest("k", (1,))

    def test_nesting_is_not_flattened(self):
        assert key_digest("k", (("a", "b"),)) != key_digest("k", ("a", "b"))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            key_digest("k", (object(),))


class TestCorruption:
    def test_truncated_entry_is_a_silent_miss(self, cache):
        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        path.write_bytes(path.read_bytes()[:20])
        assert cache.load("dp", KEY) is None
        # the corrupt file was removed so a future solve rebuilds it
        assert not path.exists()

    def test_garbage_entry_is_a_silent_miss(self, cache):
        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        path.write_bytes(b"this is not an npz document")
        assert cache.load("dp", KEY) is None
        assert not path.exists()

    def test_wrong_digest_is_a_miss(self, cache):
        """An entry copied onto the wrong address must not be served."""
        cache.store("dp", KEY, _arrays())
        src = cache._entry_path("dp", key_digest("dp", KEY))
        other = ("unrelated", 9)
        dst = cache._entry_path("dp", key_digest("dp", other))
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(src.read_bytes())
        assert cache.load("dp", other) is None


def _concurrent_writer(args):
    root, seed = args
    cache = DiskSolveCache(root=root)
    return cache.store("dp", KEY, _arrays())  # same key, same content


class TestConcurrency:
    def test_concurrent_same_key_writes_both_succeed(self, tmp_path):
        with multiprocessing.Pool(2) as pool:
            results = pool.map(
                _concurrent_writer, [(tmp_path, 0), (tmp_path, 0)]
            )
        assert results == [True, True]
        cache = DiskSolveCache(root=tmp_path)
        loaded = cache.load("dp", KEY)
        assert loaded is not None
        assert np.array_equal(loaded["table"], _arrays()["table"])

    def test_no_temp_litter_after_store(self, cache):
        cache.store("dp", KEY, _arrays())
        litter = [
            p for p in cache.root.rglob(".tmp-*") if p.is_file()
        ]
        assert litter == []


class TestVersionRollover:
    def test_stale_version_dirs_are_pruned_on_store(self, tmp_path):
        stale = tmp_path / "solvecache" / "deadbeefdeadbeef"
        stale.mkdir(parents=True)
        (stale / "old.npz").write_bytes(b"stale")
        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", KEY, _arrays())
        assert not stale.exists()
        assert cache.load("dp", KEY) is not None

    def test_wipe_removes_all_versions(self, tmp_path):
        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", KEY, _arrays())
        # a stale version appearing after the store's one-shot prune
        stale = tmp_path / "solvecache" / "deadbeefdeadbeef"
        stale.mkdir(parents=True)
        (stale / "old.npz").write_bytes(b"stale")
        assert cache.wipe() == 2  # the stale entry + the live one
        assert cache.load("dp", KEY) is None
        assert not stale.exists()


class TestEviction:
    def test_lru_eviction_under_byte_budget(self, tmp_path):
        cache = DiskSolveCache(root=tmp_path, max_bytes=1)
        cache.store("dp", ("a",), _arrays(1))
        cache.store("dp", ("b",), _arrays(2))
        # a 1-byte budget can hold nothing: every store evicts
        assert cache.stats().evictions >= 1

    def test_load_bumps_mtime_explicitly(self, cache):
        """A hit must refresh the entry's mtime — recency survives
        ``noatime``-mounted filesystems where atime never moves."""
        import os

        cache.store("dp", KEY, _arrays())
        path = cache._entry_path("dp", key_digest("dp", KEY))
        ancient = 1_000_000.0
        os.utime(path, (ancient, ancient))
        assert cache.load("dp", KEY) is not None
        assert path.stat().st_mtime > ancient

    def test_eviction_orders_by_mtime_not_atime(self, tmp_path):
        """Regression: eviction recency is st_mtime.  st_atime lies on
        noatime/relatime mounts, so an entry whose atime looks fresh
        but whose mtime is oldest must still be the one evicted."""
        import os
        import time

        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", ("a",), _arrays(1))
        cache.store("dp", ("b",), _arrays(2))
        path_a = cache._entry_path("dp", key_digest("dp", ("a",)))
        path_b = cache._entry_path("dp", key_digest("dp", ("b",)))
        now = time.time()
        # a: oldest mtime but freshest atime (what a misleading atime
        # source would report); b: newer mtime, ancient atime
        os.utime(path_a, (now + 1000.0, 1_000_000.0))
        os.utime(path_b, (1.0, 2_000_000.0))
        # budget fits exactly two entries: storing c must evict one
        cache.max_bytes = path_a.stat().st_size + path_b.stat().st_size
        cache.store("dp", ("c",), _arrays(3))
        assert not path_a.exists()  # oldest mtime went first
        assert cache.load("dp", ("b",)) is not None
        assert cache.load("dp", ("c",)) is not None

    def test_usage_reports_entries_and_bytes(self, cache):
        cache.store("dp", ("a",), _arrays(1))
        cache.store("replan", ("b",), _arrays(2))
        usage = cache.usage()
        assert usage["entries"] == 2
        assert usage["bytes"] > 0
        assert usage["kinds"]["dp"]["entries"] == 1
        assert usage["kinds"]["replan"]["entries"] == 1
        assert usage["lifetime"]["stores"] == 2

    def test_lifetime_counters_persist_across_instances(self, tmp_path):
        a = DiskSolveCache(root=tmp_path)
        a.store("dp", KEY, _arrays())
        a.load("dp", KEY)
        a.usage()  # flush
        b = DiskSolveCache(root=tmp_path)
        lifetime = b.usage()["lifetime"]
        assert lifetime["stores"] == 1
        assert lifetime["hits"] == 1


class TestSolverCodecs:
    """The dp_makespan / replan payloads round-trip bit-exactly."""

    def test_dp_makespan_disk_warm_bit_identical(self):
        dist = Weibull.from_mtbf(DAY, 0.7)
        kwargs = dict(
            work=2 * HOUR, checkpoint=600.0, downtime=60.0,
            recovery=600.0, dist=dist, u=120.0,
        )
        cold = cached_dp_makespan(**kwargs)
        clear_cache()  # L1 gone; the next call must come from disk
        warm = cached_dp_makespan(**kwargs)
        assert warm.expected_makespan == cold.expected_makespan
        assert warm.first_chunk == cold.first_chunk
        assert np.array_equal(warm._v_pre, cold._v_pre)
        assert np.array_equal(warm._c_pre, cold._c_pre)
        assert np.array_equal(warm._v_post, cold._v_post)
        assert np.array_equal(warm._c_post, cold._c_post)

    def test_replan_disk_warm_bit_identical(self):
        from repro.core.dp_nextfailure import dp_next_failure_parallel
        from repro.core.state import PlatformState

        dist = Exponential.from_mtbf(DAY)
        ages = np.zeros(4)
        calls = []

        def solve():
            calls.append(1)
            state = PlatformState(ages, dist)
            return dp_next_failure_parallel(2 * HOUR, 600.0, state, 600.0)

        args = (2 * HOUR, 600.0, dist, ages, 600.0, 10, 100, True, solve)
        cold = cached_replan(*args)
        from repro.core.cache import clear_replan_memo

        clear_replan_memo()
        warm = cached_replan(*args)
        assert len(calls) == 1  # second call served from disk, not solved
        assert np.array_equal(warm.chunks, cold.chunks)
        assert warm.expected_work == cold.expected_work
        assert warm.u == cold.u

    def test_load_handles_missing_fields(self, tmp_path, monkeypatch):
        """A payload missing required arrays is a miss, not a crash."""
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path))
        from repro.core import diskcache

        key = ("incomplete",)
        diskcache.get_disk_cache().store(
            "dp_makespan", key, {"expected_makespan": np.float64(1.0)}
        )
        assert load_dp_makespan(key) is None


def _tiny(i: int) -> dict:
    """A payload whose stored size does not depend on ``i``."""
    return {"x": np.float64(i)}


def _tier_bytes(cache: DiskSolveCache) -> int:
    return sum(p.stat().st_size for p in cache.root.rglob("*.npz"))


@pytest.fixture
def stat_calls(monkeypatch):
    """Count ``os.stat`` calls (``Path.stat``, ``is_dir`` and ``exists``
    all go through it)."""
    import os

    calls = [0]
    real_stat = os.stat

    def counted(*args, **kwargs):
        calls[0] += 1
        return real_stat(*args, **kwargs)

    monkeypatch.setattr(os, "stat", counted)
    return calls


class TestStoreComplexity:
    """A store costs amortized O(1) file-system operations, whatever
    the number of entries already in the tier.  Counted, not timed."""

    N_STORES = 300

    def test_stats_per_store_into_empty_tier(self, cache, stat_calls):
        for i in range(self.N_STORES):
            assert cache.store("dp", (i,), _tiny(i))
        # each store stats the file it wrote; walking the tier per
        # store would cost ~N_STORES / 2 per store here
        assert self.N_STORES <= stat_calls[0] <= 3 * self.N_STORES
        assert cache.stats().evictions == 0

    @pytest.mark.parametrize("budget_entries", [20, 80])
    def test_stats_per_store_at_budget(self, tmp_path, stat_calls, budget_entries):
        """A tier held at its budget rescans (one stat per entry) only
        after the ~10% of the budget the low-water eviction freed has
        been written again, so the per-store cost does not grow with
        the number of entries the budget holds."""
        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", ("probe",), _tiny(0))
        size = cache._entry_path("dp", key_digest("dp", ("probe",))).stat().st_size
        cache.max_bytes = budget_entries * size
        stat_calls[0] = 0
        for i in range(self.N_STORES):
            assert cache.store("dp", (i,), _tiny(i))
        assert stat_calls[0] <= 16 * self.N_STORES
        assert cache.stats().evictions > 0
        assert _tier_bytes(cache) <= cache.max_bytes

    def test_lifetime_reads_no_entries(self, stat_calls):
        """The runner's cost model reads the lifetime hit rate of the
        global tier on every construction; that must not walk it."""
        from repro.core.diskcache import get_disk_cache
        from repro.simulation.parallel import _disk_discount

        disk = get_disk_cache()
        disk.reset_stats()
        for i in range(50):
            disk.store("dp", (i,), _tiny(i))
        disk.load("dp", (0,))
        disk.flush_counters()
        stat_calls[0] = 0
        assert disk.lifetime()["hit_rate"] == pytest.approx(1.0)
        assert _disk_discount(True) == pytest.approx(0.1)
        assert stat_calls[0] == 0


class TestSharedBudget:
    def test_two_unaware_writers_end_within_budget(self, tmp_path):
        """Two caches on one root each index only their own writes
        after seeding; the next store that takes either one's total
        over the budget rescans and brings the whole tier back under
        it."""
        a = DiskSolveCache(root=tmp_path)
        b = DiskSolveCache(root=tmp_path)
        b.store("dp", ("b", 0), _tiny(0))  # b seeds: sees only its entry
        size = _tier_bytes(b)
        a.max_bytes = b.max_bytes = 10 * size
        for i in range(9):  # a seeds at its first store: sees b's entry
            a.store("dp", ("a", i), _tiny(i))
        for i in range(1, 9):
            b.store("dp", ("b", i), _tiny(i))
        # 18 entries on disk, but each cache believes in at most 10
        assert _tier_bytes(a) == 18 * size
        assert a.stats().evictions == b.stats().evictions == 0
        a.store("dp", ("a", 9), _tiny(9))  # a's 11th: over its budget
        assert a.stats().evictions > 0
        assert _tier_bytes(a) <= a.max_bytes

    def test_threads_keep_the_index_exact(self, tmp_path):
        """Concurrent stores from many threads: the running total must
        equal the bytes on disk (a lost update would break it) and the
        budget must hold."""
        import sys
        import threading

        cache = DiskSolveCache(root=tmp_path)
        cache.store("dp", ("probe",), _tiny(0))
        cache.max_bytes = 25 * _tier_bytes(cache)
        n_threads, per_thread = 8, 30

        def writer(t: int) -> None:
            for i in range(per_thread):
                cache.store("dp", (t, i), _tiny(i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stats().stores == 1 + n_threads * per_thread
        assert cache._index.total == _tier_bytes(cache) <= cache.max_bytes


class TestCounterFlush:
    def test_counters_written_once_per_unit(self, monkeypatch):
        """``store()`` no longer rewrites counters.json; each work unit
        flushes once at exit."""
        import os

        from repro.cluster.models import ConstantOverhead, Platform
        from repro.core.cache import clear_replan_memo
        from repro.core.diskcache import get_disk_cache
        from repro.execution import ExecutionConfig
        from repro.policies import DPNextFailurePolicy
        from repro.simulation import parallel
        from repro.simulation.runner import run_scenarios

        clear_cache()
        clear_replan_memo()
        disk = get_disk_cache()
        disk.reset_stats()  # nothing left over from earlier tests to flush
        real_replace, real_run_unit = os.replace, parallel._run_unit
        writes, units = [0], [0]

        def counted_replace(src, dst, *args, **kwargs):
            if os.fspath(dst).endswith("counters.json"):
                writes[0] += 1
            return real_replace(src, dst, *args, **kwargs)

        def counted_run_unit(*args, **kwargs):
            units[0] += 1
            return real_run_unit(*args, **kwargs)

        monkeypatch.setattr(os, "replace", counted_replace)
        monkeypatch.setattr(parallel, "_run_unit", counted_run_unit)
        platform = Platform(
            p=4, dist=Weibull.from_mtbf(12 * HOUR, 0.7), downtime=60.0,
            overhead=ConstantOverhead(600.0),
        )
        run_scenarios(
            [DPNextFailurePolicy(n_grid=24)], platform, 0.25 * DAY,
            n_traces=4, horizon=200 * DAY, seed=7,
            include_lower_bound=False, include_period_lb=False,
            execution=ExecutionConfig(jobs=1),
        )
        stores = disk.stats().stores
        assert units[0] >= 1
        assert stores > units[0]
        assert writes[0] == units[0]
        assert disk.lifetime()["stores"] == stores
