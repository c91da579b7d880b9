import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    oracle_dyadic_bins,
    oracle_find_bounds,
    oracle_learn_without_bounds,
)
from privexp import bounds
from privexp.bounds import dyadic_histogram, find_bounds, learn_without_bounds, noisy_histogram
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import ExpModel
from privexp.errors import (
    NoBinSurvived,
    NonpositiveMean,
    OutOfRegime,
    RangeEstimationFailed,
    SearchExhausted,
)
from privexp.learners import CoarseFailed
from privexp.privacy import PrivacyBudget, RngStream

LN2 = math.log(2.0)
MAX = np.finfo(np.float64).max


def _power_of_two_and_neighbours(k):
    edge = math.ldexp(1.0, k)
    return st.sampled_from([edge, math.nextafter(edge, 0.0),
                            math.nextafter(edge, math.inf)])


# Nonnegative doubles over every binary exponent: the special values at both
# ends of the range, exact powers of two with their neighbours, and arbitrary
# doubles; each drawn with a multiplicity for heavy ties.
HISTOGRAM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 2.0 ** -1050, 2.0 ** -1023,
                     math.nextafter(2.0 ** -1022, 0.0), 2.0 ** -1022,
                     math.nextafter(2.0 ** -1022, 1.0), 1.7e308,
                     math.nextafter(MAX, 0.0), MAX]),
    st.integers(-1074, 1023).flatmap(_power_of_two_and_neighbours),
    st.floats(0.0, MAX),
)


def stratified(rate: float, n: int) -> Dataset:
    return Dataset(ExpModel(rate).quantile((np.arange(n) + 0.5) / n))


class TestDyadicHistogram:
    def test_single_bin(self):
        assert dyadic_histogram(Dataset([3.0, 3.5, 2.5, 3.9])) == {1: 1.0}

    def test_zero_goes_to_lowest_bin(self):
        assert dyadic_histogram(Dataset([0.0])) == {-1074: 1.0}

    def test_bin_edges(self):
        # [2^k, 2^(k+1)): the left edge belongs to the bin, the right does not
        hist = dyadic_histogram(Dataset([1.0, 1.999, 2.0, 0.5]))
        assert hist == {0: 0.5, 1: 0.25, -1: 0.25}

    def test_matches_oracle(self):
        gen = np.random.default_rng(7)
        for _ in range(40):
            values = gen.exponential(1.0, int(gen.integers(1, 80))).tolist()
            assert dyadic_histogram(Dataset(values)) == oracle_dyadic_bins(values)

    @given(st.lists(st.tuples(HISTOGRAM_VALUES, st.integers(1, 40)),
                    min_size=1, max_size=12))
    def test_matches_oracle_over_every_exponent(self, runs):
        values = [v for v, times in runs for _ in range(times)]
        assert dyadic_histogram(Dataset(values)) == oracle_dyadic_bins(values)

    @pytest.mark.parametrize("block", [1, 2, 3, 64, 4096])
    def test_blocks_add_up_to_the_whole_sample(self, monkeypatch, block):
        # each block's exponent fields are counted on their own, and its
        # zeros and subnormals split by frexp: the counts must add up across
        # block boundaries and a short last block, also when the bins run
        # from the zero bin to the top of the double range
        monkeypatch.setattr(bounds, "_HIST_BLOCK", block)
        gen = np.random.default_rng(block)
        values = gen.exponential(1.0, 200).tolist() + [
            0.0, -0.0, 5e-324, 2.0 ** -1030, 2.0 ** -1022, 1.0, 1.5, MAX]
        values = gen.permutation(values).tolist()
        assert dyadic_histogram(Dataset(values)) == oracle_dyadic_bins(values)
        assert dyadic_histogram(Dataset(values[:block + 1])) == oracle_dyadic_bins(
            values[:block + 1])

    def test_allocates_no_array_of_size_n(self):
        n = 100_000
        data = Dataset(np.random.default_rng(9).exponential(1.0, n))
        tracemalloc.start()
        try:
            dyadic_histogram(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 8 * n

    def test_fractions_sum_to_one(self):
        gen = np.random.default_rng(8)
        values = gen.uniform(0.0, 100.0, 500).tolist()
        assert math.isclose(math.fsum(dyadic_histogram(Dataset(values)).values()), 1.0)


class TestNoisyHistogram:
    def test_needs_positive_delta(self):
        with pytest.raises(OutOfRegime):
            noisy_histogram(Dataset([1.0]), PrivacyBudget(1.0, 0.0), RngStream(0))

    def test_threshold_formula(self):
        hist = noisy_histogram(Dataset([1.0] * 4), PrivacyBudget(10.0, 0.5),
                               RngStream(0, noiseless=True))
        assert hist.threshold == (2.0 / 40.0) * math.log(4.0) + 0.25

    def test_noiseless_releases_raw_fractions(self):
        # only the survivors: at threshold 0.005 ln 20 + 0.25 = 0.265, bin 1
        # (0.5) clears it and bins 0 and 3 (0.25 each) do not
        data = Dataset([1.0, 2.0, 2.5, 8.0])
        hist = noisy_histogram(data, PrivacyBudget(100.0, 0.1),
                               RngStream(0, noiseless=True))
        assert dyadic_histogram(data) == {0: 0.25, 1: 0.5, 3: 0.25}
        assert hist.noisy_bins == {1: 0.5}
        assert hist.threshold == 0.005 * math.log(20.0) + 0.25
        assert {f.name for f in dataclasses.fields(hist)} == {"noisy_bins",
                                                             "threshold"}

    def test_empty_bins_not_released(self):
        # neither an empty bin nor the nonempty bin 6 (1/11, below the
        # threshold (2/11) ln 20 + 1/11) is released
        hist = noisy_histogram(Dataset([1.0] * 10 + [100.0]),
                               PrivacyBudget(1.0, 0.1), RngStream(0))
        assert set(hist.noisy_bins) == {0}
        assert hist.noisy_bins[0] >= hist.threshold

    def test_budget_consumed(self):
        budget = PrivacyBudget(1.0, 0.1)
        noisy_histogram(Dataset([1.0]), budget, RngStream(0, noiseless=True))
        assert budget.state == "consumed"
        assert budget.spent() == (1.0, 0.1)

    def test_survivors_monotone_in_delta(self):
        data = Dataset(np.random.default_rng(3).exponential(1.0, 200).tolist())
        loose = noisy_histogram(data, PrivacyBudget(1.0, 0.5),
                                RngStream(0, noiseless=True))
        tight = noisy_histogram(data, PrivacyBudget(1.0, 1e-6),
                                RngStream(0, noiseless=True))
        assert set(tight.noisy_bins) <= set(loose.noisy_bins)


class TestFindBounds:
    def test_frozen_example(self):
        bounds = find_bounds(Dataset([3.0, 3.5, 2.5, 3.9]), PrivacyBudget(10.0, 0.5),
                             RngStream(0, noiseless=True))
        assert bounds.lower == math.ldexp(LN2, -2)
        assert bounds.upper == math.ldexp(LN2, 0)
        assert bounds.ratio == 4.0

    def test_none_when_threshold_unreachable(self):
        budget = PrivacyBudget(0.01, 1e-9)
        out = find_bounds(Dataset([1.0] * 10), budget, RngStream(0, noiseless=True))
        assert out is None
        assert budget.state == "consumed"  # spent even without a release

    def test_tie_breaks_to_smaller_bin(self):
        data = Dataset([1.0] * 5 + [2.0] * 5)
        bounds = find_bounds(data, PrivacyBudget(10.0, 0.5),
                             RngStream(0, noiseless=True))
        assert bounds.lower == math.ldexp(LN2, -1)
        assert bounds.upper == math.ldexp(LN2, 1)

    def test_brackets_unit_rate(self):
        bounds = find_bounds(stratified(1.0, 100_000), PrivacyBudget(1.0, 1e-6),
                             RngStream(0, noiseless=True))
        assert bounds.contains(1.0)
        assert bounds.ratio == 4.0

    @pytest.mark.parametrize("value, top_bin", [
        (0.0, -1074), (5e-324, -1074), (2.0 ** -1024, -1024)])
    def test_bin_beyond_double_range_is_a_named_failure(self, value, top_bin):
        # ln2 * 2^(1 - k*) overflows for k* <= -1024
        with pytest.raises(RangeEstimationFailed, match=f"2\\^{top_bin}"):
            find_bounds(Dataset([value] * 10), PrivacyBudget(10.0, 0.5),
                        RngStream(0, noiseless=True))
        with pytest.raises(RangeEstimationFailed):
            oracle_find_bounds([value] * 10, 10.0, 0.5)

    def test_lowest_bin_that_still_fits(self):
        bounds = find_bounds(Dataset([2.0 ** -1023] * 10),
                             PrivacyBudget(10.0, 0.5), RngStream(0, noiseless=True))
        assert bounds.upper == math.ldexp(LN2, 1024)
        assert (bounds.lower, bounds.upper) == oracle_find_bounds(
            [2.0 ** -1023] * 10, 10.0, 0.5)

    def test_matches_oracle(self):
        gen = np.random.default_rng(11)
        for _ in range(60):
            values = gen.exponential(1.0, int(gen.integers(5, 150))).tolist()
            got = find_bounds(Dataset(values), PrivacyBudget(1.0, 0.5),
                              RngStream(0, noiseless=True))
            want = oracle_find_bounds(values, 1.0, 0.5)
            if want is None:
                assert got is None
            else:
                assert (got.lower, got.upper) == want


class TestLearnWithoutBounds:
    def test_needs_positive_delta(self):
        with pytest.raises(OutOfRegime):
            learn_without_bounds(Dataset([1.0]), 0.2, 0.1, PrivacyBudget(1.0),
                                 RngStream(0))

    def test_budget_ledger_routes_delta_to_finder(self):
        budget = PrivacyBudget(1.0, 1e-6)
        learn_without_bounds(stratified(1.0, 100_000), 0.2, 0.1, budget,
                             RngStream(0, noiseless=True))
        finder, learner = budget.children
        assert (finder.epsilon, finder.delta) == (0.5, 1e-6)
        assert (learner.epsilon, learner.delta) == (0.5, 0.0)
        assert budget.spent() == (1.0, 1e-6)

    @pytest.mark.parametrize("alpha, beta", [(1e-13, 0.1), (0.2, 1.5)])
    @pytest.mark.parametrize("n", [200_000, 3])
    def test_refused_before_the_bounds_stage_spends(self, alpha, beta, n):
        # an alpha below the grids' floor, or a beta outside (0, 1), is
        # refused by name whatever the data, with the budget left fresh
        budget = PrivacyBudget(1.0, 1e-6)
        with pytest.raises(OutOfRegime, match="alpha" if beta < 1 else "beta"):
            learn_without_bounds(stratified(1.0, n), alpha, beta, budget, RngStream(0))
        assert budget.state == "fresh" and budget.spent() == (0.0, 0.0)

    def test_no_bin_survived(self):
        with pytest.raises(NoBinSurvived):
            learn_without_bounds(Dataset([1.0] * 5), 0.2, 0.1,
                                 PrivacyBudget(0.01, 1e-9),
                                 RngStream(0, noiseless=True))

    def test_noiseless_recovers_rate(self):
        est = learn_without_bounds(stratified(1.0, 100_000), 0.2, 0.1,
                                   PrivacyBudget(1.0, 1e-6),
                                   RngStream(0, noiseless=True))
        assert 0.8 <= est.lambda_hat <= 1.2

    def test_matches_oracle(self):
        gen = np.random.default_rng(13)
        for _ in range(60):
            values = gen.exponential(1.0, int(gen.integers(10, 200))).tolist()
            try:
                want = oracle_learn_without_bounds(values, 0.2, 0.1, 1.0, 0.5)
            except (NoBinSurvived, SearchExhausted, RangeEstimationFailed,
                    NonpositiveMean) as exc:
                want = type(exc)
            try:
                got = learn_without_bounds(Dataset(values), 0.2, 0.1,
                                           PrivacyBudget(1.0, 0.5),
                                           RngStream(0, noiseless=True))
                assert (got.lambda_hat, got.route.value) == want
            except CoarseFailed as exc:
                assert want is SearchExhausted
                assert type(exc.__cause__) is want
            except (NoBinSurvived, SearchExhausted, RangeEstimationFailed,
                    NonpositiveMean) as exc:
                assert type(exc) is want
