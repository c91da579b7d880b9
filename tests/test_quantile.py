import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_clipping_range, oracle_svt_grid, oracle_svt_quantile
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import ExpModel, sample
from privexp.errors import BudgetExhausted, InvalidRatio, OutOfRegime, TooFewSamples
from privexp.privacy import PrivacyBudget, RngStream
from privexp.quantile import clipping_range, svt_grid, svt_quantile

BOUNDS = RateBounds(0.5, 1.0)
DATA = Dataset([0.5, 1.5, 2.5, 3.5])
GRID = svt_grid(BOUNDS, 0.5)


def fresh():
    return PrivacyBudget(1.0), RngStream(0, noiseless=True)


def positions(grid):
    return [grid.position(k) for k in range(grid.n_steps + 1)]


class TestSvtGrid:
    def test_small_grid_contents(self):
        assert positions(GRID) == [1.0, 2.0, 4.0, 8.0]
        assert (GRID.level, GRID.half_band) == (0.5, 0.0)

    def test_grid_is_read_only_and_shared_by_equal_arguments(self):
        # the cached grid is handed to every caller, so none may write it
        grid = svt_grid(RateBounds(0.5, 1.0), 0.5)
        assert svt_grid(RateBounds(0.5, 1.0), 0.5) is grid
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.lo = 0.0

    def test_matches_oracle_shape(self):
        for lo, hi, theta in [(0.01, 100.0, 0.1), (0.1, 10.0, 0.9),
                              (1.0, 3.0, 0.5), (0.25, 1e4, 0.13)]:
            grid = svt_grid(RateBounds(lo, hi), theta)
            assert positions(grid) == oracle_svt_grid(lo, hi, theta)

    @given(st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023),
           st.floats(1.0, 2.0, exclude_max=True), st.integers(0, 1023),
           st.floats(0.1, 0.9))
    def test_positions_are_powers_of_two_over_upper(self, m, e, m_ratio, e_ratio, theta):
        # (1/upper) 2^k is 2^k/upper bit for bit while 1/upper is a normal
        # double; at upper > 2^1022 it is subnormal and the two may differ
        upper = math.ldexp(m, e)
        try:
            bounds = RateBounds(upper / math.ldexp(m_ratio, e_ratio), upper)
            grid = svt_grid(bounds, theta)
        except InvalidRatio:
            return
        if 1.0 / upper >= sys.float_info.min:
            assert positions(grid) == [2.0 ** k / upper for k in range(grid.n_steps + 1)]

    def test_grid_covers_target_window(self):
        # for every in-bounds rate the noiseless scan can halt: the grid top
        # reaches past the slowest rate's target quantile, and at the bottom
        # either the fastest rate's target is inside the grid or the very
        # first point already clears the CDF threshold
        for theta in (0.1, 0.5, 0.9):
            bounds = RateBounds(0.01, 100.0)
            grid = positions(svt_grid(bounds, theta))
            target = math.log(1.0 / theta)
            assert grid[-1] >= target / bounds.lower
            assert (grid[0] <= target / bounds.upper
                    or ExpModel(bounds.upper).cdf(grid[0]) >= 1.0 - theta)
            assert grid[0] == 1.0 / bounds.upper
            assert all(b == 2.0 * a for a, b in zip(grid, grid[1:]))


class TestSvtQuantile:
    def test_noiseless_frozen_example(self):
        budget, rng = fresh()
        assert svt_quantile(DATA, GRID, budget, rng) == 2.0

    def test_all_zeros_returns_first_point(self):
        budget, rng = fresh()
        assert svt_quantile(Dataset([0.0, 0.0, 0.0]), GRID, budget, rng) == 1.0

    def test_exhaustion_returns_none(self):
        budget, rng = fresh()
        res = svt_quantile(Dataset([1e6] * 4), GRID, budget, rng)
        assert res is None
        assert budget.state == "consumed"  # spent even without a release

    def test_theta_regime(self):
        # the scan's target level is checked where its grid is built
        for theta in (0.05, 0.95, 0.0, 1.0):
            with pytest.raises(OutOfRegime, match="theta"):
                svt_grid(BOUNDS, theta)

    def test_budget_consumed_once(self):
        budget, rng = fresh()
        svt_quantile(DATA, GRID, budget, rng)
        with pytest.raises(BudgetExhausted):
            svt_quantile(DATA, GRID, budget, rng)

    def test_noiseless_draws_nothing(self):
        budget, rng = fresh()
        svt_quantile(DATA, GRID, budget, rng)
        assert rng.laplace_draws == 0

    def test_noisy_draw_structure_on_success(self):
        # one threshold draw plus one per query up to and including the hit
        for seed in range(12):
            budget, rng = PrivacyBudget(1.0), RngStream(seed)
            res = svt_quantile(DATA, GRID, budget, rng)
            if res is not None:
                assert rng.laplace_draws == 1 + (positions(GRID).index(res) + 1)

    def test_noisy_draw_structure_on_exhaustion(self):
        budget, rng = PrivacyBudget(1.0), RngStream(3)
        res = svt_quantile(Dataset([1e6] * 4), GRID, budget, rng)
        if res is None:
            assert rng.laplace_draws == 1 + GRID.n_steps + 1

    def test_matches_oracle_on_random_data(self):
        gen = np.random.default_rng(99)
        for _ in range(100):
            n = int(gen.integers(1, 60))
            values = gen.uniform(0.0, 20.0, n).tolist()
            theta = float(gen.uniform(0.1, 0.9))
            grid = svt_grid(RateBounds(0.2, 5.0), theta)
            got = svt_quantile(Dataset(values), grid, PrivacyBudget(1.0),
                               RngStream(0, noiseless=True))
            want = oracle_svt_quantile(values, 0.2, 5.0, theta)
            if want is None:
                assert got is None
            else:
                assert (got, positions(grid).index(got)) == want

    @given(st.lists(st.floats(0.01, 50.0), min_size=2, max_size=30),
           st.floats(1e3, 1e6))
    def test_monotone_under_large_insertion(self, values, big):
        # appending a huge sample can only push the found quantile up
        grid = svt_grid(RateBounds(0.2, 5.0), 0.5)
        before = svt_quantile(Dataset(values), grid, PrivacyBudget(1.0),
                              RngStream(0, noiseless=True))
        after = svt_quantile(Dataset(values + [big]), grid, PrivacyBudget(1.0),
                             RngStream(0, noiseless=True))
        if before is None:
            return  # grid already exhausted; nothing to compare
        if after is None:
            assert True  # pushed off the top of the grid
        else:
            assert after >= before

    def test_six_approximation_statistical(self):
        # Exp(1) at the calculator's n: the 0.9-quantile ln(10) is recovered
        # within a factor of 6 in at least 90% of trials
        true_q = math.log(10.0)
        n, trials, hits = 738, 200, 0
        for t in range(trials):
            rng = RngStream(1000, t)
            data = sample(ExpModel(1.0), n, rng)
            res = svt_quantile(data, svt_grid(RateBounds(0.1, 10.0), 0.1),
                               PrivacyBudget(1.0), rng)
            if res is not None and true_q / 6.0 <= res <= 6.0 * true_q:
                hits += 1
        assert hits >= 0.90 * trials


class TestClippingRange:
    def test_frozen_example(self):
        # theta = e^-2 and beta = 1 collapse the constant to exactly 3
        r = clipping_range(1.0, math.e ** 2,
                           math.exp(-2.0), 1.0)
        assert math.isclose(r, 6.0, rel_tol=1e-12)

    def test_plug_in_matches_oracle(self):
        for q, n, theta, beta in [(2.3, 10_000, 0.1, 0.1), (0.5, 100, 0.37, 0.01),
                                  (7.0, 2, 0.9, 1.0)]:
            got = clipping_range(q, n, theta, beta)
            assert got == oracle_clipping_range(q, n, theta, beta)

    def test_beta_one_drops_inflation(self):
        base = clipping_range(1.0, 1000, 0.1, 1.0)
        inflated = clipping_range(1.0, 1000, 0.1, 0.1)
        assert inflated > base

    def test_validation(self):
        with pytest.raises(TooFewSamples):
            clipping_range(1.0, 1, 0.1, 0.1)
        for beta in (0.0, -1.0, 1.5):
            with pytest.raises(OutOfRegime):
                clipping_range(1.0, 100, 0.1, beta)

    def test_coverage_statistical(self):
        # the pipeline's R covers the whole sample nearly always
        covered = 0
        for t in range(100):
            rng = RngStream(500, t)
            data = sample(ExpModel(1.0), 1000, rng)
            res = svt_quantile(data, svt_grid(RateBounds(0.01, 100.0), 0.1),
                               PrivacyBudget(1.0), rng)
            if res is None:
                continue
            r = clipping_range(res, data.n, 0.1, 0.1)
            if data.max() <= r:
                covered += 1
        assert covered >= 95
