import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    oracle_best_of_both,
    oracle_mle_learning,
    oracle_private_mle,
    oracle_quantile_learning,
)
from privexp import learners
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import ExpModel, sample
from privexp.errors import BudgetExhausted, NonpositiveMean, OutOfRegime, SearchExhausted
from privexp.learners import (
    Learner,
    LearnerConfig,
    best_of_both,
    mle_learning,
    private_mle,
    quantile_learning,
)
from privexp.pareto import learn_pareto, learn_pareto_known_scale
from privexp.privacy import NoiseScale, PrivacyBudget, RngStream, sample_laplace

WIDE = RateBounds(0.01, 100.0)
MID = RateBounds(0.1, 10.0)


def stratified(rate: float, n: int) -> Dataset:
    """Deterministic sample hitting the (i + 0.5)/n quantiles exactly."""
    return Dataset(ExpModel(rate).quantile((np.arange(n) + 0.5) / n))


def config(alpha=0.2, beta=0.1, bounds=MID):
    return LearnerConfig(alpha, beta, bounds)


class TestPrivateMle:
    def test_unclipped_unit_data(self):
        est = private_mle(Dataset([1.0] * 4), 2.0, PrivacyBudget(1.0),
                          RngStream(0, noiseless=True))
        assert est == 1.0

    def test_clipping_bites(self):
        # {1, 3} clipped at 2 -> mean 1.5 -> estimate exactly 2/3
        est = private_mle(Dataset([1.0, 3.0]), 2.0, PrivacyBudget(1.0),
                          RngStream(0, noiseless=True))
        assert est == 1.0 / 1.5

    def test_nonpositive_mean(self):
        with pytest.raises(NonpositiveMean):
            private_mle(Dataset([0.0, 0.0]), 1.0, PrivacyBudget(1.0),
                        RngStream(0, noiseless=True))

    def test_clip_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(OutOfRegime):
                private_mle(Dataset([1.0]), bad, PrivacyBudget(1.0), RngStream(0))

    def test_budget_consumed_once(self):
        budget = PrivacyBudget(1.0)
        private_mle(Dataset([1.0]), 1.0, budget, RngStream(0, noiseless=True))
        assert budget.state == "consumed"
        with pytest.raises(BudgetExhausted):
            private_mle(Dataset([1.0]), 1.0, budget, RngStream(0))

    def test_noisy_value_reconstructs(self):
        # the released value is exactly 1/(clipped mean + Laplace(R/(eps n)))
        est = private_mle(Dataset([1.0] * 4), 2.0, PrivacyBudget(1.0), RngStream(7))
        z = sample_laplace(NoiseScale(2.0 / (1.0 * 4)), RngStream(7))
        assert est == 1.0 / (1.0 + z)

    def test_matches_oracle(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            values = gen.uniform(0.0, 10.0, int(gen.integers(1, 40))).tolist()
            clip_r = float(gen.uniform(0.5, 8.0))
            got = private_mle(Dataset(values), clip_r, PrivacyBudget(1.0),
                              RngStream(0, noiseless=True))
            assert got == oracle_private_mle(values, clip_r)

    def test_allocates_no_array_of_size_n(self):
        # the clipped sum runs in blocks: no clipped copy of the data, no
        # per-value temporaries of size n
        n = 10 ** 6
        data = Dataset(np.random.default_rng(9).exponential(0.25, n))
        tracemalloc.start()
        try:
            private_mle(data, 3.0, PrivacyBudget(1.0), RngStream(0, noiseless=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * n

    def test_release_ignores_order(self):
        # magnitudes spread over 2^-40..2^40, so left-to-right float sums of
        # the permutations differ; the released value must not
        gen = np.random.default_rng(11)
        values = np.ldexp(gen.random(2000), gen.integers(-40, 40, 2000))
        clip_r = 2.0 ** 39
        want = private_mle(Dataset(values), clip_r, PrivacyBudget(1.0),
                           RngStream(0, noiseless=True))
        naive_sums = set()
        for _ in range(20):
            shuffled = gen.permutation(values)
            naive_sums.add(sum(shuffled.clip(max=clip_r).tolist()))
            got = private_mle(Dataset(shuffled), clip_r, PrivacyBudget(1.0),
                              RngStream(0, noiseless=True))
            assert got == want
        assert len(naive_sums) > 1


def fsum_or_overflow(values):
    try:
        return math.fsum(values)
    except OverflowError:
        return OverflowError


def exact_sum_or_overflow(values, cap=math.inf):
    try:
        return learners._exact_sum(np.array(values, dtype=np.float64), cap)
    except OverflowError:
        return OverflowError


# Nonnegative finite doubles of every magnitude: signed and unsigned zero,
# subnormals, the edges of the normal range, and mantissas scaled across
# the whole exponent range (ldexp rounds small results to subnormals).
SUM_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1.0, 2.0 ** 53,
                     1.7e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1e-307, allow_subnormal=True),
    st.floats(min_value=1.6e308, max_value=1.7976931348623157e308),
    st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
              st.integers(min_value=-1073, max_value=1024)),
)


class TestExactSum:
    @given(st.lists(SUM_ELEMENTS, max_size=60))
    def test_matches_fsum(self, values):
        assert exact_sum_or_overflow(values) == fsum_or_overflow(values)

    @given(st.lists(SUM_ELEMENTS, min_size=1, max_size=60).flatmap(
        lambda values: st.tuples(st.just(values), st.one_of(
            st.sampled_from([0.0, 5e-324, 2.0 ** -1040, math.inf]),
            st.sampled_from(values)))))
    def test_clipped_matches_fsum(self, values_and_cap):
        # the cap: zero, a subnormal, one of the values, or none at all
        values, cap = values_and_cap
        assert (exact_sum_or_overflow(values, cap)
                == fsum_or_overflow([min(v, cap) for v in values]))

    def test_negative_zero_is_zero(self):
        # -0.0 is the one accepted value with the sign bit set; it must be
        # summed as a zero, not filed under some other exponent
        assert learners._exact_sum(np.array([-0.0, 5e-324])) == 5e-324

    def test_ties_round_to_even(self):
        assert learners._exact_sum(np.array([2.0 ** 53, 1.0])) == 2.0 ** 53
        assert (learners._exact_sum(np.array([2.0 ** 53, 1.0, 2.0 ** -60]))
                == 2.0 ** 53 + 2.0)

    def test_all_zeros(self):
        total = learners._exact_sum(np.zeros(1000))
        assert total == 0.0 and math.copysign(1.0, total) == 1.0

    def test_overflow_raises_like_fsum(self):
        with pytest.raises(OverflowError):
            math.fsum([1.7e308, 1.7e308])
        with pytest.raises(OverflowError):
            learners._exact_sum(np.array([1.7e308, 1.7e308]))

    def test_chunk_boundaries(self, monkeypatch):
        # blocks of every size: each block's buckets are added to the total
        # apart, and the buffers are reused across blocks
        gen = np.random.default_rng(3)
        for block in (1, 2, 3, 4, 1 << 16):
            monkeypatch.setattr(learners, "_SUM_BLOCK", block)
            for size in range(12):
                values = np.ldexp(gen.random(size), gen.integers(-1074, 1000, size))
                assert learners._exact_sum(values) == math.fsum(values)
                cap = float(values[size // 2]) if size else 1.0
                assert (learners._exact_sum(values, cap)
                        == math.fsum(np.minimum(values, cap)))
            near_max = np.full(7, 1.7976931348623157e308 / 8.0)
            assert learners._exact_sum(near_max) == math.fsum(near_max)

    @staticmethod
    def _in_thread(work, *args):
        thread = threading.Thread(target=work, args=args)
        thread.start()
        return thread

    def test_threads_sum_in_their_own_buffers(self):
        # the block buffers are kept per thread: threads summing different
        # arrays at once, switching often, each get their own fsum
        gen = np.random.default_rng(6)
        arrays = [gen.exponential(scale, size) for scale, size in
                  ((1.0, 70_000), (3.0, 5_000), (0.5, 140_000), (2.0, 30))]
        caps = [2.0, 1e9, 0.25, 1.0]
        want = [math.fsum(np.minimum(a, cap)) for a, cap in zip(arrays, caps)]
        got = [[] for _ in arrays]

        def work(k):
            for _ in range(200):
                got[k].append(learners._exact_sum(arrays[k], caps[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [self._in_thread(work, k) for k in range(len(arrays))]
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[w] * 200 for w in want]

    def test_buffers_grow_to_one_block_and_no_further(self):
        # in a fresh thread: the buffers grow for a larger sum, serve smaller
        # ones as they are, and several blocks of a larger one
        gen = np.random.default_rng(7)
        arrays = [np.ldexp(gen.random(size), gen.integers(-60, 60, size))
                  for size in (10, 70_000, 10, 140_000)]
        sums, sizes = [], []

        def work():
            for values in arrays:
                sums.append(learners._exact_sum(values, 2.0 ** 50))
                sizes.append(learners._sum_buffers.blocks[0].size)

        thread = self._in_thread(work)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert sums == [math.fsum(np.minimum(a, 2.0 ** 50)) for a in arrays]
        assert sizes == [10, 1 << 16, 1 << 16, 1 << 16]

    @staticmethod
    def _just_below_one():
        # doubles summing exactly to 1 - 2^-1074: each the largest double
        # below the gap the earlier ones leave
        parts, gap = [], 1.0
        while gap > 5e-324:
            below = float(np.nextafter(gap, 0.0))
            parts.append(below)
            gap -= below
        return parts

    def test_rounding_midpoints_across_blocks(self):
        # 2^16 + 1 values whose exact total is halfway between two doubles
        # (ulp 2^10 at 2^62), and the same total 2^-1074 above and below it;
        # the extraction's bound cannot settle these, so they reach the
        # math.fsum fallback, fed block by block
        gen = np.random.default_rng(12)
        rest = gen.integers(0, 1 << 14, 1 << 16).astype(np.float64)
        rest[0] = 1.0
        rest[-1] += (512 - int(rest.sum())) % 1024
        assert int(rest.sum()) % 1024 == 512
        midpoint = np.concatenate(([2.0 ** 62], rest))
        above = np.append(midpoint, 5e-324)
        below = np.concatenate((midpoint[:1], self._just_below_one(), midpoint[2:]))
        sums = [learners._exact_sum(values) for values in (midpoint, above, below)]
        assert sums == [math.fsum(values) for values in (midpoint, above, below)]
        assert sums[1] > sums[2]
        # the same, clipped: the cap leaves every value as it is
        assert learners._exact_sum(above, 2.0 ** 62) == sums[1]

    def test_negative_remainders(self):
        # 26 rounds up to 32 on the extraction's grid, a remainder of -6: the
        # sum is halfway between 2^54 + 24 and 2^54 + 28, which the bound
        # cannot settle, so it reaches the math.fsum fallback and rounds to even
        assert learners._exact_sum(np.array([2.0 ** 54, 26.0])) == 2.0 ** 54 + 24

    def test_whole_exponent_range(self):
        gen = np.random.default_rng(13)
        values = np.ldexp(gen.random(10 ** 5), gen.integers(-1074, 1000, 10 ** 5))
        assert learners._exact_sum(values) == math.fsum(values)
        cap = 2.0 ** -500
        assert learners._exact_sum(values, cap) == math.fsum(np.minimum(values, cap))

    def test_blocks_topped_near_the_largest_doubles(self):
        # blocks whose sigma = 2^(e + 17) would pass 2^1023 reach the
        # math.fsum fallback: topped near 2^(1023 - 16), and near the largest
        # double
        gen = np.random.default_rng(14)
        top = 2.0 ** 1007
        for edge in (float(np.nextafter(top, 0.0)), top):
            values = np.concatenate(([edge, 5e-324, 2.0 ** -1060],
                                     gen.uniform(0.5, 1.0, (1 << 16) + 5) * top))
            assert learners._exact_sum(values) == math.fsum(values)
        largest = sys.float_info.max
        ulp = 2.0 ** 971
        for values in ([largest, 5e-324], [largest, ulp / 2], [largest, 0.75 * ulp / 2],
                       [largest / 2, largest / 2], [largest / 2, largest / 2, 5e-324],
                       [largest / 2, largest / 2, ulp / 2], [largest, ulp / 4, ulp / 4],
                       [largest] + [5e-324] * 70_000, [largest / 4] * 3 + [ulp] * 65_536):
            assert exact_sum_or_overflow(values) == fsum_or_overflow(values)
        with pytest.raises(OverflowError):
            learners._exact_sum(np.array([largest, ulp / 2]))

    @staticmethod
    def _count_fallbacks(monkeypatch):
        calls = []
        monkeypatch.setattr(math, "fsum",
                            lambda values, fsum=math.fsum: calls.append(1) or fsum(values))
        return calls

    def test_samples_never_take_the_fallback(self, monkeypatch):
        # one extraction level settles sums of exponential samples at the
        # sizes the benchmark sums, clipped or not: math.fsum stays the
        # exception
        gen = np.random.default_rng(15)
        calls = self._count_fallbacks(monkeypatch)
        for size, count in ((20_424, 200), (36_944, 200), (112_324, 4), (250_000, 4)):
            for _ in range(count):
                values = gen.exponential(1.0, size)
                learners._exact_sum(values)
                learners._exact_sum(values, 3.0)
        assert calls == []

    def test_fallback_allocates_no_array_of_size_n(self, monkeypatch):
        # one value at 2^1007 takes its block's sigma past 2^1023, so the sum
        # is math.fsum's, fed from the block buffer
        n = 10 ** 6
        values = np.random.default_rng(16).exponential(1.0, n)
        values[n // 2] = 2.0 ** 1007
        want = math.fsum(values)
        calls = self._count_fallbacks(monkeypatch)
        tracemalloc.start()
        try:
            got = learners._exact_sum(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and calls == [1]
        assert peak < 0.25 * 8 * n

    def test_upper_bound_past_the_largest_double(self, monkeypatch):
        # one-value blocks below 2^1022 keep every sigma a double, but sums
        # at and just below the midpoint of the largest double and 2^1024
        # take the upper bound past it, so math.fsum decides: the midpoint
        # rounds to even, 2^1024, and overflows; the sum below it does not
        monkeypatch.setattr(learners, "_SUM_BLOCK", 1)
        arrays = [[2.0 ** 1022 - 2.0 ** 969] * 4 + [last]
                  for last in (2.0 ** 970, 2.0 ** 970 - 2.0 ** 918)]
        sums = [fsum_or_overflow(values) for values in arrays]
        assert sums == [OverflowError, sys.float_info.max]
        calls = self._count_fallbacks(monkeypatch)
        assert [exact_sum_or_overflow(values) for values in arrays] == sums
        assert len(calls) == 2

    def test_all_negative_zero_block_first(self, monkeypatch):
        values = np.concatenate((np.full(1 << 16, -0.0), [3.0, 2.0 ** -1074, 0.5]))
        assert learners._exact_sum(values) == math.fsum(values)
        monkeypatch.setattr(learners, "_SUM_BLOCK", 4)
        values = np.array([-0.0] * 8 + [1.0, -0.0, 2.0 ** 53, 1.0])
        assert learners._exact_sum(values) == math.fsum(values) == 2.0 ** 53 + 2.0


class TestMleLearning:
    def test_noiseless_recovers_rate(self):
        est = mle_learning(stratified(4.0, 2000), config(bounds=WIDE),
                           PrivacyBudget(1.0), RngStream(0, noiseless=True))
        assert est.route is Learner.MLE
        assert est.coarse_estimate is None
        assert 3.2 <= est.lambda_hat <= 4.8

    def test_budget_ledger_halves(self):
        budget = PrivacyBudget(1.0)
        mle_learning(stratified(4.0, 500), config(bounds=WIDE), budget,
                     RngStream(0, noiseless=True))
        assert budget.state == "split"
        assert [c.epsilon for c in budget.children] == [0.5, 0.5]
        assert all(c.state == "consumed" for c in budget.children)
        assert budget.spent() == (1.0, 0.0)

    def test_range_estimation_failure(self):
        # everything far above the grid: the quantile scan exhausts
        data = Dataset([1e9] * 10)
        with pytest.raises(SearchExhausted, match="the SVT grid of"):
            mle_learning(data, config(bounds=RateBounds(0.5, 1.0)),
                         PrivacyBudget(1.0), RngStream(0, noiseless=True))

    def test_matches_oracle_on_random_data(self):
        gen = np.random.default_rng(17)
        for _ in range(120):
            values = gen.exponential(1.0 / 2.0, int(gen.integers(2, 60))).tolist()
            try:
                want = oracle_mle_learning(values, 0.1, 10.0, 0.1)
            except (SearchExhausted, NonpositiveMean) as exc:
                want = type(exc)
            try:
                got = mle_learning(Dataset(values), config(), PrivacyBudget(1.0),
                                   RngStream(0, noiseless=True))
                assert got.lambda_hat == want[0]
            except (SearchExhausted, NonpositiveMean) as exc:
                assert type(exc) is want

    @pytest.mark.parametrize("n", [20_424, 65_537, 140_000])
    def test_matches_oracle_across_blocks(self, n):
        # sample sizes the harness runs: one sum block, one value past it,
        # and three blocks
        values = np.random.default_rng(n).exponential(1.0 / 2.0, n)
        data, listed = Dataset(values), values.tolist()
        clip_r = 1.5  # clips about 5% of the values
        assert (private_mle(data, clip_r, PrivacyBudget(1.0), RngStream(0, noiseless=True))
                == oracle_private_mle(listed, clip_r))
        est = mle_learning(data, config(), PrivacyBudget(1.0), RngStream(0, noiseless=True))
        assert (est.lambda_hat, est.route.value) == oracle_mle_learning(listed, 0.1, 10.0, 0.1)

    def test_statistical_success_rate(self):
        hits, trials, n = 0, 60, 20424
        cfg = LearnerConfig(0.2, 0.1, WIDE)
        for t in range(trials):
            rng = RngStream(42, t)
            data = sample(ExpModel(4.0), n, rng)
            try:
                est = mle_learning(data, cfg, PrivacyBudget(1.0), rng)
            except (SearchExhausted, NonpositiveMean):
                continue
            if 4.0 * 0.8 <= est.lambda_hat <= 4.0 * 1.2:
                hits += 1
        assert hits >= 0.85 * trials


class TestQuantileLearning:
    def test_noiseless_recovers_rate(self):
        est = quantile_learning(stratified(1.0, 10_000), config(),
                                PrivacyBudget(1.0), RngStream(0, noiseless=True))
        assert est.route is Learner.QUANTILE
        assert 0.8 <= est.lambda_hat <= 1.2

    def test_search_exhausted_outside_bounds(self):
        with pytest.raises(SearchExhausted):
            quantile_learning(stratified(100.0, 1000), config(),
                              PrivacyBudget(1.0), RngStream(0, noiseless=True))

    def test_probe_count_capped(self):
        # ratio 100, alpha 0.2: 44 candidate positions, cap ceil(log2 45) = 6
        rng = RngStream(11)
        data = sample(ExpModel(1.0), 5000, rng)
        try:
            quantile_learning(data, config(), PrivacyBudget(1.0), rng)
        except SearchExhausted:
            pass
        assert rng.laplace_draws <= 6

    def test_budget_consumed_whole(self):
        budget = PrivacyBudget(2.0)
        quantile_learning(stratified(1.0, 10_000), config(), budget,
                          RngStream(0, noiseless=True))
        assert budget.state == "consumed"
        assert budget.spent() == (2.0, 0.0)

    def test_matches_oracle_on_random_data(self):
        gen = np.random.default_rng(23)
        for _ in range(120):
            values = gen.exponential(1.0, int(gen.integers(2, 60))).tolist()
            try:
                want = oracle_quantile_learning(values, 0.1, 10.0, 0.2)
            except SearchExhausted as exc:
                want = type(exc)
            try:
                got = quantile_learning(Dataset(values), config(), PrivacyBudget(1.0),
                                        RngStream(0, noiseless=True))
                assert got.lambda_hat == want[0]
            except SearchExhausted as exc:
                assert type(exc) is want

    def test_statistical_success_rate(self):
        hits, trials, n = 0, 60, 616
        cfg = LearnerConfig(0.2, 0.1, MID)
        for t in range(trials):
            rng = RngStream(43, t)
            data = sample(ExpModel(0.5), n, rng)
            try:
                est = quantile_learning(data, cfg, PrivacyBudget(1.0), rng)
            except SearchExhausted:
                continue
            if 0.5 * 0.8 <= est.lambda_hat <= 0.5 * 1.2:
                hits += 1
        assert hits >= 0.85 * trials


class TestBestOfBoth:
    def test_large_rate_takes_mle_route(self):
        est = best_of_both(stratified(3.0, 10_000), config(), PrivacyBudget(1.0),
                           RngStream(0, noiseless=True))
        assert est.route is Learner.MLE
        assert est.coarse_estimate is not None
        assert est.coarse_estimate >= 2.0
        assert 3.0 * 0.8 <= est.lambda_hat <= 3.0 * 1.2

    def test_small_rate_takes_quantile_route(self):
        est = best_of_both(stratified(0.5, 10_000), config(), PrivacyBudget(1.0),
                           RngStream(0, noiseless=True))
        assert est.route is Learner.QUANTILE
        assert est.coarse_estimate < 2.0
        assert 0.5 * 0.8 <= est.lambda_hat <= 0.5 * 1.2

    def test_coarse_failure_names_its_grid(self):
        data = stratified(1.0, 1000)
        with pytest.raises(SearchExhausted, match="at alpha = 0.5"):
            best_of_both(data, config(bounds=RateBounds(50.0, 100.0)),
                         PrivacyBudget(1.0), RngStream(0, noiseless=True))

    def test_budget_ledger_thirds(self):
        budget = PrivacyBudget(1.0)
        best_of_both(stratified(3.0, 10_000), config(), budget,
                     RngStream(0, noiseless=True))
        assert budget.state == "split"
        coarse, main = budget.children
        assert coarse.epsilon == 1.0 / 3.0
        assert main.epsilon == 2.0 / 3.0
        assert budget.spent() == (1.0, 0.0)

    def test_matches_oracle_on_random_data(self):
        gen = np.random.default_rng(31)
        for _ in range(120):
            rate = float(gen.uniform(0.3, 5.0))
            values = gen.exponential(1.0 / rate, int(gen.integers(2, 80))).tolist()
            try:
                want = oracle_best_of_both(values, 0.1, 10.0, 0.2, 0.1)
            except (SearchExhausted, NonpositiveMean) as exc:
                want = type(exc)
            try:
                got = best_of_both(Dataset(values), config(), PrivacyBudget(1.0),
                                   RngStream(0, noiseless=True))
                assert (got.lambda_hat, got.route.value) == want
            except (SearchExhausted, NonpositiveMean) as exc:
                assert type(exc) is want

    def test_config_validation(self):
        for alpha, beta in [(0.0, 0.1), (1.0, 0.1), (0.2, 0.0), (0.2, 1.0)]:
            with pytest.raises(OutOfRegime):
                LearnerConfig(alpha, beta, MID)


class TestRouteIsALearner:
    def test_pareto_learners_report_the_learner_of_their_shape_stage(self):
        # an estimate's route is the Learner that released it, for the Pareto
        # learners as for the rate learners; e^X for X exponential at rate 2
        # is Pareto of scale 1 and shape 2
        data = Dataset(np.exp(stratified(2.0, 20_000).values))
        for est in (learn_pareto(data, config(), PrivacyBudget(1.0), RngStream(8)),
                    learn_pareto_known_scale(data, 1.0, config(), PrivacyBudget(1.0),
                                             RngStream(8))):
            assert isinstance(est.route, Learner)
            assert est.route in (Learner.MLE, Learner.QUANTILE)
