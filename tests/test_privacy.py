import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from privexp.errors import (BadSplit, BudgetExhausted, EmptyDataset, InvalidScale,
                            OutOfRegime)
from privexp.dataset import Dataset
from privexp.privacy import (NoiseScale, PrivacyBudget, RngStream,
                             noisy_fraction_below, sample_laplace)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a, b = RngStream(42), RngStream(42)
        assert list(a.generator.random(10)) == list(b.generator.random(10))

    def test_distinct_stream_ids_differ(self):
        a, b = RngStream(42, 0), RngStream(42, 1)
        assert list(a.generator.random(10)) != list(b.generator.random(10))

    def test_stream_id_beats_call_order(self):
        # stream 3's draws do not depend on whether stream 2 ran first
        first = list(RngStream(7, 3).generator.random(5))
        _ = RngStream(7, 2).generator.random(100)
        again = list(RngStream(7, 3).generator.random(5))
        assert first == again


class TestSampleLaplace:
    def test_noiseless_is_exactly_zero(self):
        rng = RngStream(0, noiseless=True)
        assert sample_laplace(NoiseScale(1.0), rng) == 0.0
        assert rng.laplace_draws == 0

    def test_noiseless_does_not_advance_stream(self):
        quiet = RngStream(123, noiseless=True)
        sample_laplace(NoiseScale(1.0), quiet)
        assert quiet.generator.random() == RngStream(123).generator.random()

    def test_negative_scale_rejected(self):
        with pytest.raises(InvalidScale):
            NoiseScale(-1.0)
        with pytest.raises(InvalidScale):
            NoiseScale(0.0)
        with pytest.raises(InvalidScale):
            NoiseScale(math.inf)

    def test_draws_are_counted(self):
        rng = RngStream(1)
        for _ in range(5):
            sample_laplace(NoiseScale(2.0), rng)
        assert rng.laplace_draws == 5

    def test_a_uniform_of_zero_is_drawn_again(self):
        # u = 0.0 would give log1p(-1) = -inf: the draw comes from the next
        # uniform, and is counted once
        uniforms = [0.0, 0.75]
        rng = RngStream(0)
        rng.generator = SimpleNamespace(random=lambda: uniforms.pop(0))
        assert sample_laplace(NoiseScale(2.0), rng) == -2.0 * math.log1p(-0.5)
        assert rng.laplace_draws == 1 and uniforms == []

    def test_deterministic_per_stream(self):
        a = [sample_laplace(NoiseScale(0.7), RngStream(9, i)) for i in range(4)]
        b = [sample_laplace(NoiseScale(0.7), RngStream(9, i)) for i in range(4)]
        assert a == b

    def test_scale_is_linear_in_b(self):
        # same uniforms, so doubling b exactly doubles the draw
        one = sample_laplace(NoiseScale(1.0), RngStream(4))
        two = sample_laplace(NoiseScale(2.0), RngStream(4))
        assert two == 2.0 * one

    def test_statistics_at_moderate_size(self):
        b = 0.5
        rng = RngStream(2024)
        draws = np.array([sample_laplace(NoiseScale(b), rng)
                          for _ in range(100_000)])
        assert abs(draws.mean()) <= 0.01
        # Pr[|Z| > b ln 100] = 1/100
        tail = np.mean(np.abs(draws) > b * math.log(100.0))
        assert 0.005 <= tail <= 0.015

        def cdf(x):
            x = np.asarray(x)
            return np.where(x < 0, 0.5 * np.exp(x / b),
                            1.0 - 0.5 * np.exp(-x / b))

        xs = np.sort(draws)
        grid = (np.arange(len(xs)) + 1) / len(xs)
        ks = np.max(np.abs(cdf(xs) - grid))
        assert ks < 0.01


class TestNoisyFractionBelow:
    def test_noiseless_plain_fraction(self):
        data = Dataset([0.5, 1.5, 2.5, 3.5])
        value = noisy_fraction_below(data, 2.0, NoiseScale(1.0),
                                     RngStream(0, noiseless=True))
        assert value == 0.5

    def test_noiseless_zero_fraction(self):
        data = Dataset([1.0])
        value = noisy_fraction_below(data, 0.5, NoiseScale(1.0),
                                     RngStream(0, noiseless=True))
        assert value == 0.0

    def test_noisy_is_fraction_plus_known_draw(self):
        data = Dataset([0.5, 1.5])
        seed = 31
        value = noisy_fraction_below(data, 3.0, NoiseScale(1.0), RngStream(seed))
        z = sample_laplace(NoiseScale(1.0), RngStream(seed))
        assert value == 1.0 + z

    def test_empty_data_rejected(self):
        class Hollow:
            n = 0
        with pytest.raises(EmptyDataset):
            noisy_fraction_below(Hollow(), 1.0, NoiseScale(1.0), RngStream(0))


class TestPrivacyBudget:
    def test_validation(self):
        with pytest.raises(OutOfRegime):
            PrivacyBudget(0.0)
        with pytest.raises(OutOfRegime):
            PrivacyBudget(-1.0)
        with pytest.raises(OutOfRegime):
            PrivacyBudget(math.inf)
        with pytest.raises(OutOfRegime):
            PrivacyBudget(1.0, -0.1)
        with pytest.raises(OutOfRegime):
            PrivacyBudget(1.0, 1.0)

    def test_consume_once(self):
        b = PrivacyBudget(1.0)
        assert b.state == "fresh"
        b.consume()
        assert b.state == "consumed"
        with pytest.raises(BudgetExhausted):
            b.consume()
        with pytest.raises(BudgetExhausted):
            b.split([0.5, 0.5])

    def test_split_once(self):
        b = PrivacyBudget(1.0)
        b.split([0.5, 0.5])
        with pytest.raises(BudgetExhausted):
            b.split([0.5, 0.5])
        with pytest.raises(BudgetExhausted):
            b.consume()

    def test_even_split_halves_exactly(self):
        kids = PrivacyBudget(1.0).split([0.5, 0.5])
        assert [(k.epsilon, k.delta) for k in kids] == [(0.5, 0.0), (0.5, 0.0)]

    def test_thirds_of_three_are_exact(self):
        kids = PrivacyBudget(3.0).split([1.0 / 3.0, 2.0 / 3.0])
        assert [(k.epsilon, k.delta) for k in kids] == [(1.0, 0.0), (2.0, 0.0)]

    def test_bad_fractions(self):
        with pytest.raises(BadSplit):
            PrivacyBudget(1.0).split([0.6, 0.6])
        with pytest.raises(BadSplit):
            PrivacyBudget(1.0).split([])
        with pytest.raises(BadSplit):
            PrivacyBudget(1.0).split([1.2, -0.2])
        with pytest.raises(BadSplit):
            PrivacyBudget(1.0).split([0.5, 0.0, 0.5])

    def test_delta_fraction_routing(self):
        b = PrivacyBudget(1.0, 1e-6)
        kids = b.split([0.5, 0.5], delta_fractions=[1.0, 0.0])
        assert kids[0].delta == 1e-6
        assert kids[1].delta == 0.0
        assert kids[0].epsilon == kids[1].epsilon == 0.5

    def test_delta_fraction_validation(self):
        with pytest.raises(BadSplit):
            PrivacyBudget(1.0, 1e-6).split([0.5, 0.5], delta_fractions=[1.0])
        with pytest.raises(BadSplit):
            PrivacyBudget(1.0, 1e-6).split([0.5, 0.5],
                                           delta_fractions=[1.5, -0.5])
        with pytest.raises(BadSplit):
            PrivacyBudget(1.0, 1e-6).split([0.5, 0.5],
                                           delta_fractions=[0.7, 0.7])

    def test_spent_walks_the_tree(self):
        root = PrivacyBudget(1.0, 1e-6)
        left, right = root.split([0.5, 0.5], delta_fractions=[1.0, 0.0])
        assert root.spent() == (0.0, 0.0)
        left.consume()
        assert root.spent() == (0.5, 1e-6)
        inner = right.split([0.5, 0.5])
        for child in inner:
            child.consume()
        eps, delta = root.spent()
        assert eps == 1.0
        assert delta == 1e-6

    def test_children_view(self):
        root = PrivacyBudget(2.0)
        kids = root.split([0.25, 0.75])
        assert root.children == tuple(kids)
        assert PrivacyBudget(1.0).children == ()

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
           st.floats(0.1, 8.0))
    def test_spent_matches_total_within_ulps(self, weights, epsilon):
        total = math.fsum(weights)
        fractions = [w / total for w in weights]
        root = PrivacyBudget(epsilon)
        try:
            kids = root.split(fractions)
        except BadSplit:
            # normalization can land the fsum outside the one-ulp window
            return
        for k in kids:
            k.consume()
        spent, _ = root.spent()
        assert abs(spent - epsilon) <= 4 * math.ulp(epsilon)
