import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_clipping_range, oracle_svt_grid, oracle_svt_quantile
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import ExpModel, sample
from privexp.errors import BudgetExhausted, OutOfRegime, TooFewSamples
from privexp.privacy import PrivacyBudget, RngStream
from privexp.quantile import QuantileResult, clipping_range, svt_grid, svt_quantile

BOUNDS = RateBounds(0.5, 1.0)
DATA = Dataset([0.5, 1.5, 2.5, 3.5])


def fresh():
    return PrivacyBudget(1.0), RngStream(0, noiseless=True)


class TestSvtGrid:
    def test_small_grid_contents(self):
        grid = svt_grid(BOUNDS, 0.5)
        assert list(grid) == [1.0, 2.0, 4.0, 8.0]

    def test_grid_is_read_only_and_shared_by_equal_arguments(self):
        # the cached array is handed to every caller, so none may write it
        grid = svt_grid(RateBounds(0.5, 1.0), 0.5)
        assert svt_grid(RateBounds(0.5, 1.0), 0.5) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0

    def test_matches_oracle_shape(self):
        for lo, hi, theta in [(0.01, 100.0, 0.1), (0.1, 10.0, 0.9),
                              (1.0, 3.0, 0.5), (0.25, 1e4, 0.13)]:
            grid = svt_grid(RateBounds(lo, hi), theta)
            assert list(grid) == oracle_svt_grid(lo, hi, theta)

    def test_grid_covers_target_window(self):
        # for every in-bounds rate the noiseless scan can halt: the grid top
        # reaches past the slowest rate's target quantile, and at the bottom
        # either the fastest rate's target is inside the grid or the very
        # first point already clears the CDF threshold
        for theta in (0.1, 0.5, 0.9):
            bounds = RateBounds(0.01, 100.0)
            grid = svt_grid(bounds, theta)
            target = math.log(1.0 / theta)
            assert grid[-1] >= target / bounds.lower
            assert (grid[0] <= target / bounds.upper
                    or ExpModel(bounds.upper).cdf(grid[0]) >= 1.0 - theta)
            assert grid[0] == 1.0 / bounds.upper
            assert all(b == 2.0 * a for a, b in zip(grid, grid[1:]))


class TestSvtQuantile:
    def test_noiseless_frozen_example(self):
        budget, rng = fresh()
        res = svt_quantile(DATA, BOUNDS, 0.5, budget, rng)
        assert res == QuantileResult(2.0, 1)

    def test_all_zeros_returns_first_point(self):
        budget, rng = fresh()
        res = svt_quantile(Dataset([0.0, 0.0, 0.0]), BOUNDS, 0.5, budget, rng)
        assert (res.quantile_value, res.grid_index) == (1.0, 0)

    def test_exhaustion_returns_none(self):
        budget, rng = fresh()
        res = svt_quantile(Dataset([1e6] * 4), BOUNDS, 0.5, budget, rng)
        assert res is None
        assert budget.state == "consumed"  # spent even without a release

    def test_theta_regime(self):
        for theta in (0.05, 0.95, 0.0, 1.0):
            with pytest.raises(OutOfRegime):
                svt_quantile(DATA, BOUNDS, theta, *fresh())

    def test_budget_consumed_once(self):
        budget, rng = fresh()
        svt_quantile(DATA, BOUNDS, 0.5, budget, rng)
        with pytest.raises(BudgetExhausted):
            svt_quantile(DATA, BOUNDS, 0.5, budget, rng)

    def test_noiseless_draws_nothing(self):
        budget, rng = fresh()
        svt_quantile(DATA, BOUNDS, 0.5, budget, rng)
        assert rng.laplace_draws == 0

    def test_noisy_draw_structure_on_success(self):
        # one threshold draw plus one per query up to and including the hit
        for seed in range(12):
            budget, rng = PrivacyBudget(1.0), RngStream(seed)
            res = svt_quantile(DATA, BOUNDS, 0.5, budget, rng)
            if res is not None:
                assert rng.laplace_draws == 1 + (res.grid_index + 1)

    def test_noisy_draw_structure_on_exhaustion(self):
        budget, rng = PrivacyBudget(1.0), RngStream(3)
        res = svt_quantile(Dataset([1e6] * 4), BOUNDS, 0.5, budget, rng)
        if res is None:
            assert rng.laplace_draws == 1 + len(svt_grid(BOUNDS, 0.5))

    def test_matches_oracle_on_random_data(self):
        gen = np.random.default_rng(99)
        for _ in range(100):
            n = int(gen.integers(1, 60))
            values = gen.uniform(0.0, 20.0, n).tolist()
            theta = float(gen.uniform(0.1, 0.9))
            got = svt_quantile(Dataset(values), RateBounds(0.2, 5.0), theta,
                               PrivacyBudget(1.0), RngStream(0, noiseless=True))
            want = oracle_svt_quantile(values, 0.2, 5.0, theta)
            if want is None:
                assert got is None
            else:
                assert (got.quantile_value, got.grid_index) == want

    @given(st.lists(st.floats(0.01, 50.0), min_size=2, max_size=30),
           st.floats(1e3, 1e6))
    def test_monotone_under_large_insertion(self, values, big):
        # appending a huge sample can only push the found quantile up
        before = svt_quantile(Dataset(values), RateBounds(0.2, 5.0), 0.5,
                              PrivacyBudget(1.0), RngStream(0, noiseless=True))
        after = svt_quantile(Dataset(values + [big]), RateBounds(0.2, 5.0), 0.5,
                             PrivacyBudget(1.0), RngStream(0, noiseless=True))
        if before is None:
            return  # grid already exhausted; nothing to compare
        if after is None:
            assert True  # pushed off the top of the grid
        else:
            assert after.quantile_value >= before.quantile_value

    def test_six_approximation_statistical(self):
        # Exp(1) at the calculator's n: the 0.9-quantile ln(10) is recovered
        # within a factor of 6 in at least 90% of trials
        true_q = math.log(10.0)
        n, trials, hits = 738, 200, 0
        for t in range(trials):
            rng = RngStream(1000, t)
            data = sample(ExpModel(1.0), n, rng)
            res = svt_quantile(data, RateBounds(0.1, 10.0), 0.1,
                               PrivacyBudget(1.0), rng)
            if res is not None and true_q / 6.0 <= res.quantile_value <= 6.0 * true_q:
                hits += 1
        assert hits >= 0.90 * trials


class TestClippingRange:
    def test_frozen_example(self):
        # theta = e^-2 and beta = 1 collapse the constant to exactly 3
        r = clipping_range(QuantileResult(1.0, 0), math.e ** 2,
                           math.exp(-2.0), 1.0)
        assert math.isclose(r, 6.0, rel_tol=1e-12)

    def test_plug_in_matches_oracle(self):
        for q, n, theta, beta in [(2.3, 10_000, 0.1, 0.1), (0.5, 100, 0.37, 0.01),
                                  (7.0, 2, 0.9, 1.0)]:
            got = clipping_range(QuantileResult(q, 0), n, theta, beta)
            assert got == oracle_clipping_range(q, n, theta, beta)

    def test_beta_one_drops_inflation(self):
        base = clipping_range(QuantileResult(1.0, 0), 1000, 0.1, 1.0)
        inflated = clipping_range(QuantileResult(1.0, 0), 1000, 0.1, 0.1)
        assert inflated > base

    def test_validation(self):
        with pytest.raises(TooFewSamples):
            clipping_range(QuantileResult(1.0, 0), 1, 0.1, 0.1)
        for beta in (0.0, -1.0, 1.5):
            with pytest.raises(OutOfRegime):
                clipping_range(QuantileResult(1.0, 0), 100, 0.1, beta)

    def test_coverage_statistical(self):
        # the pipeline's R covers the whole sample nearly always
        covered = 0
        for t in range(100):
            rng = RngStream(500, t)
            data = sample(ExpModel(1.0), 1000, rng)
            res = svt_quantile(data, RateBounds(0.01, 100.0), 0.1,
                               PrivacyBudget(1.0), rng)
            if res is None:
                continue
            r = clipping_range(res, data.n, 0.1, 0.1)
            if data.max() <= r:
                covered += 1
        assert covered >= 95
