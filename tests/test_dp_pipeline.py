"""Fast adaptive-policy pipeline: batched survival kernels, the
vectorized DP paths, and the cross-trace replan memo.

Everything here is an identity gate: the vectorized kernels must equal
the scalar reference paths bit-for-bit (``expected_work_of_schedule``
is the documented exception — telescoping reassociates the sum), and a
replan-memo hit must return the bit-identical result of the cold solve
it stands in for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache import (
    cached_replan,
    clear_replan_memo,
    configure_replan_memo,
    get_replan_memo,
    quantize_ages,
    replan_memo_stats,
)
from repro.core.dp_nextfailure import (
    _chunk_cap,
    dp_next_failure_parallel,
    expected_work_of_schedule,
)
from repro.core.state import PlatformState, SurvivalTable
from repro.distributions import Empirical, Exponential, Gamma, LogNormal, Weibull
from repro.execution import ExecutionConfig, using_execution
from repro.units import DAY, HOUR

DISTRIBUTIONS = [
    Exponential(1.0 / DAY),
    Weibull.from_mtbf(10 * DAY, 0.7),
    Gamma(2.0, DAY),
    LogNormal(10.0, 1.2),
    Empirical(np.geomspace(300.0, 40 * DAY, 57)),
]


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts from an empty replan memo."""
    clear_replan_memo()
    yield
    clear_replan_memo()


class TestBatchedKernels:
    """``log_survival`` (array) vs ``logsf`` (scalar): same bits."""

    @pytest.mark.parametrize(
        "dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__
    )
    def test_elementwise_identity(self, dist):
        t = np.concatenate([
            [0.0, 1e-9, 300.0, HOUR, DAY, 40 * DAY, 1e9],
            np.geomspace(1.0, 100 * DAY, 40),
        ])
        batched = dist.log_survival(t)
        scalar = np.array([float(dist.logsf(x)) for x in t])
        assert batched.shape == t.shape
        assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize(
        "dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__
    )
    def test_negative_times_survive(self, dist):
        out = dist.log_survival(np.array([-5.0, 0.0]))
        assert out[0] == out[1] == 0.0


class TestVectorizedDP:
    """Vectorized vs scalar DP plumbing: same bits."""

    def _state(self, seed=0, compress=False):
        rng = np.random.default_rng(seed)
        ages = rng.uniform(0.0, 5 * DAY, size=16)
        st = PlatformState(ages, Weibull.from_mtbf(10 * DAY, 0.7))
        return st.compress(4, 12) if compress else st

    @pytest.mark.parametrize("compress", [False, True])
    def test_survival_table_identity(self, compress):
        st = self._state(compress=compress)
        fast = SurvivalTable.build(st, u=600.0, c=120.0, na=20, nb=6)
        slow = SurvivalTable.build(
            st, u=600.0, c=120.0, na=20, nb=6, vectorized=False
        )
        assert np.array_equal(fast.m2, slow.m2)

    @pytest.mark.parametrize("x0", [1, 5, 64, 1000])
    def test_chunk_cap_identity(self, x0):
        st = self._state(seed=x0)
        fast = _chunk_cap(st, checkpoint=600.0, x0=x0)
        slow = _chunk_cap(st, checkpoint=600.0, x0=x0, vectorized=False)
        assert fast == slow

    @pytest.mark.parametrize("seed", range(4))
    def test_dp_next_failure_parallel_identity(self, seed):
        st = self._state(seed=seed, compress=True)
        fast = dp_next_failure_parallel(8 * HOUR, 600.0, st, u=1200.0)
        slow = dp_next_failure_parallel(
            8 * HOUR, 600.0, st, u=1200.0, vectorized=False
        )
        assert np.array_equal(fast.chunks, slow.chunks)
        assert fast.expected_work == slow.expected_work

    def test_expected_work_telescoping(self):
        st = self._state(seed=7)
        chunks = np.array([1800.0, 3600.0, 600.0, 7200.0])
        fast = expected_work_of_schedule(chunks, 600.0, st)
        slow = expected_work_of_schedule(chunks, 600.0, st, vectorized=False)
        # Documented exception: telescoping reassociates the float sum.
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_expected_work_empty_schedule(self):
        st = self._state()
        assert expected_work_of_schedule([], 600.0, st) == 0.0
        assert expected_work_of_schedule([], 600.0, st, vectorized=False) == 0.0


class TestQuantizeAges:
    def test_snaps_to_lattice(self):
        ages = np.array([0.0, 149.0, 150.0, 151.0, 299.0, 1234.5])
        out = quantize_ages(ages, 100.0)
        assert np.array_equal(out, np.round(ages / 100.0) * 100.0)
        assert np.all(np.abs(out - ages) <= 50.0)

    def test_zero_resolution_is_identity(self):
        ages = np.array([0.0, 17.3, 123.456])
        assert np.array_equal(quantize_ages(ages, 0.0), ages)
        assert np.array_equal(quantize_ages(ages, -1.0), ages)


class TestReplanMemo:
    """A memo hit must be bit-identical to the cold solve it replaces,
    for arbitrary (quantized, compressed) platform states."""

    @pytest.mark.parametrize("seed", range(6))
    def test_hit_is_bit_identical_to_cold_solve(self, seed):
        rng = np.random.default_rng(seed)
        dist = Weibull.from_mtbf(rng.uniform(5, 20) * DAY, 0.7)
        u = float(rng.uniform(300.0, 2000.0))
        horizon = u * int(rng.integers(8, 40))
        checkpoint = float(rng.uniform(60.0, 900.0))
        nexact, napprox = 4, 16
        ages = quantize_ages(
            rng.uniform(0.0, 10 * DAY, size=int(rng.integers(2, 32))), u
        )

        def solve():
            state = PlatformState(ages, dist).compress(nexact, napprox)
            return dp_next_failure_parallel(horizon, checkpoint, state, u)

        cold = cached_replan(
            horizon, checkpoint, dist, ages, u, nexact, napprox, True, solve
        )
        hit = cached_replan(
            horizon, checkpoint, dist, ages, u, nexact, napprox, True, solve
        )
        assert hit is cold  # same object: trivially bit-identical
        # and the object equals an independent cold solve bit-for-bit
        fresh = solve()
        assert np.array_equal(hit.chunks, fresh.chunks)
        assert hit.expected_work == fresh.expected_work
        stats = replan_memo_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_key_separates_parameters(self):
        dist = Exponential(1.0 / DAY)
        ages = np.zeros(4)

        def solve():
            state = PlatformState(ages, dist)
            return dp_next_failure_parallel(4 * HOUR, 600.0, state, 600.0)

        base = (4 * HOUR, 600.0, dist, ages, 600.0, 10, 100, True)
        cached_replan(*base, solve)
        # any parameter change is a miss, not a wrong hit
        cached_replan(8 * HOUR, *base[1:], solve)
        cached_replan(base[0], 300.0, *base[2:], solve)
        cached_replan(*base[:5], 5, *base[6:], solve)
        cached_replan(*base[:7], False, solve)
        stats = replan_memo_stats()
        assert stats.hits == 0 and stats.misses == 5

    def test_disabled_memo_always_solves(self):
        calls = []
        dist = Exponential(1.0 / DAY)
        ages = np.zeros(2)

        def solve():
            calls.append(1)
            state = PlatformState(ages, dist)
            return dp_next_failure_parallel(2 * HOUR, 600.0, state, 600.0)

        with using_execution(ExecutionConfig(use_memo=False)):
            for _ in range(3):
                cached_replan(
                    2 * HOUR, 600.0, dist, ages, 600.0, 10, 100, True, solve
                )
        assert len(calls) == 3
        assert replan_memo_stats().misses == 3

    def test_configure_maxsize_validation(self):
        with pytest.raises(ValueError):
            configure_replan_memo(maxsize=0)
        configure_replan_memo(maxsize=8)
        assert get_replan_memo().maxsize == 8
        configure_replan_memo(maxsize=4096)


class TestPolicyMemoEquivalence:
    """DPNextFailurePolicy with the memo on/off follows identical
    trajectories (quantization is applied unconditionally)."""

    def _run(self, use_memo: bool, vectorized: bool = True):
        from repro.cluster.models import ConstantOverhead, Platform
        from repro.policies.dp import DPNextFailurePolicy
        from repro.simulation.runner import run_scenarios

        platform = Platform(
            p=4,
            dist=Weibull.from_mtbf(10 * DAY, 0.7),
            downtime=60.0,
            overhead=ConstantOverhead(600.0),
        )
        clear_replan_memo()
        return run_scenarios(
            [DPNextFailurePolicy(n_grid=16, vectorized=vectorized)],
            platform,
            2 * HOUR,
            n_traces=4,
            horizon=100 * DAY,
            seed=5,
            include_lower_bound=False,
            include_period_lb=False,
            execution=ExecutionConfig(use_memo=use_memo),
        )

    def test_memo_on_off_identical(self):
        on = self._run(use_memo=True)
        off = self._run(use_memo=False)
        assert np.array_equal(
            on.makespans["DPNextFailure"], off.makespans["DPNextFailure"]
        )
        assert on.memo_hits + on.memo_misses > 0
        assert off.memo_hits == 0

    def test_vectorized_on_off_identical(self):
        fast = self._run(vectorized=True, use_memo=False)
        slow = self._run(vectorized=False, use_memo=False)
        assert np.array_equal(
            fast.makespans["DPNextFailure"], slow.makespans["DPNextFailure"]
        )

    def test_memo_quant_validation(self):
        from repro.policies.dp import DPNextFailurePolicy

        with pytest.raises(ValueError):
            DPNextFailurePolicy(memo_quant=-0.5)
