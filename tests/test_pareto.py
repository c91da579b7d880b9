import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_learn_pareto, oracle_learn_pareto_known_scale, oracle_log_transform
from privexp.analysis import SampleBound, required_n
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import ParetoModel, sample
from privexp.errors import EmptyTail, NonpositiveMean, OutOfRegime, ScaleViolation, SearchExhausted
from privexp.learners import LearnerConfig, best_of_both, mle_learning
from privexp.pareto import (
    DEFAULT_TAIL_QUANTILE,
    ParetoEstimate,
    _pivot_grid,
    learn_pareto,
    learn_pareto_known_scale,
    log_transform,
    recover_scale,
)
from privexp.privacy import PrivacyBudget, RngStream
from privexp.quantile import _band_search

WIDE = RateBounds(0.01, 100.0)


def config(alpha=0.2, beta=0.1, bounds=WIDE):
    return LearnerConfig(alpha, beta, bounds)


class TestLogTransform:
    def test_pivot_itself_maps_to_zero(self):
        out = log_transform(Dataset([2.0]), 2.0)
        assert list(out.values) == [0.0]

    def test_values_below_pivot_dropped(self):
        out = log_transform(Dataset([1.0, 3.0]), 2.0)
        assert list(out.values) == [np.log(1.5)]

    def test_order_preserved(self):
        out = log_transform(Dataset([5.0, 2.0, 3.0]), 2.0)
        assert list(out.values) == [np.log(2.5), 0.0, np.log(1.5)]

    def test_empty_tail(self):
        with pytest.raises(EmptyTail):
            log_transform(Dataset([1.0, 1.5]), 2.0)

    def test_pivot_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(OutOfRegime):
                log_transform(Dataset([1.0]), bad)

    def test_array_log_equals_scalar_log(self):
        # log_transform takes numpy's log of the whole tail in one call, in
        # place (out= its input), and the oracle takes it one element at a
        # time; the two agree bit for bit only while the vectorized (SIMD)
        # loop and the scalar call give the same float. Pinned here, out of
        # place and in place, over Pareto ratios kept / pivot, every short
        # length (the SIMD remainder paths), offset slices and a buffer that
        # is not even 8-byte aligned.
        def log_in_place(view):
            np.log(view, out=view)
            return view

        gen = np.random.default_rng(21)
        values = 1.0 + gen.pareto(2.0, 120_000)
        pivot = 1.07
        ratios = values[values >= pivot] / pivot
        assert ratios.size >= 100_000
        scalar = np.array([float(np.log(r)) for r in ratios.tolist()])
        assert np.array_equal(np.log(ratios), scalar)
        assert np.array_equal(log_in_place(ratios.copy()), scalar)
        for size in range(1, 34):
            for offset in range(9):
                window = slice(offset, offset + size)
                assert np.array_equal(np.log(ratios[window]), scalar[window])
                assert np.array_equal(log_in_place(ratios[:48].copy()[window]),
                                      scalar[window])
        raw = np.zeros(ratios.size * 8 + 1, dtype=np.uint8)
        unaligned = raw[1:].view(np.float64)
        unaligned[:] = ratios
        assert not unaligned.flags.aligned
        assert np.array_equal(np.log(unaligned), scalar)
        assert np.array_equal(log_in_place(unaligned), scalar)

    def test_overflowing_quotient_takes_log_difference(self):
        # 1e308 / 0.5 overflows to inf; the transform must still return the
        # finite ln(1e308) - ln(0.5) and warn about nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_transform(Dataset([1e308, 2.0, 3.0]), 0.5)
        assert list(out.values) == [np.log(1e308) - np.log(0.5),
                                    np.log(4.0), np.log(6.0)]

    def test_matches_oracle(self):
        gen = np.random.default_rng(3)
        for k in range(40):
            values = gen.uniform(0.5, 10.0, int(gen.integers(1, 50))).tolist()
            pivot = float(gen.uniform(0.5, 5.0))
            if k % 4 == 0:  # values whose quotient by the pivot overflows
                values += gen.uniform(1.7e308, 1.79e308, 3).tolist()
                pivot = float(gen.uniform(0.5, 0.9))
            try:
                want = oracle_log_transform(values, pivot)
            except EmptyTail as exc:
                want = type(exc)
            try:
                got = log_transform(Dataset(values), pivot)
                assert list(got.values) == want
            except EmptyTail as exc:
                assert type(exc) is want

    @settings(max_examples=200)
    @given(st.data())
    def test_equals_sample_order_oracle(self, data):
        # ties, a pivot equal to a sample value, quotients that overflow
        # (anywhere in the tail) and a pivot above the maximum
        base = data.draw(st.lists(st.one_of(
            st.floats(0.0, 1e3), st.sampled_from([0.0, 1.0, 2.0, 2.5]),
            st.floats(1.7e308, 1.79e308)), min_size=1, max_size=40))
        values = base + data.draw(st.lists(st.sampled_from(base), max_size=20))
        positive = [v for v in values if v > 0.0]
        pivots = {"below one": st.floats(1e-3, 0.9), "wide": st.floats(0.5, 2e3),
                  "tiny": st.floats(5e-324, 1e-300),
                  "above max": st.just(float(np.nextafter(max(values), math.inf))),
                  "a sample value": st.sampled_from(positive or [1.0])}
        pivot = data.draw(pivots[data.draw(st.sampled_from(sorted(pivots)))])
        try:
            want = oracle_log_transform(values, pivot)
        except EmptyTail:
            with pytest.raises(EmptyTail):
                log_transform(Dataset(values), pivot)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_transform(Dataset(values), pivot)
        assert got.values.tobytes() == np.array(want).tobytes()
        assert (got.min(), got.max()) == (min(want), max(want))
        thresholds = data.draw(st.lists(st.one_of(
            st.floats(-1.0, 800.0), st.sampled_from(want)), max_size=10))
        for t in thresholds:
            assert got.count_below(t) == sum(1 for v in want if v < t)

    def test_peak_memory_is_one_tail_buffer(self):
        # the exceedances are divided into one fresh array, logged in place
        # and adopted; their mask adds a bool per sample value
        data = sample(ParetoModel(1.0, 2.0), 100_000, RngStream(1))
        pivot = 1.07
        tail = data.n - data.count_below(pivot)
        assert tail >= 80_000
        tracemalloc.start()
        try:
            log_transform(data, pivot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * tail


class TestRecoverScale:
    def test_unit_exponent(self):
        assert recover_scale(2.0, 0.5, 1.0) == 1.0

    def test_identity(self):
        for q, tau, a in [(1.28, DEFAULT_TAIL_QUANTILE, 2.0), (3.0, 0.2, 0.7)]:
            assert recover_scale(q, tau, a) == q * (1.0 - tau) ** (1.0 / a)

    def test_default_tau_value(self):
        assert DEFAULT_TAIL_QUANTILE == 1.0 / (4.0 * math.log(7.0))
        assert 0.1 <= DEFAULT_TAIL_QUANTILE <= 0.25


class TestKnownScale:
    def test_scale_violation(self):
        with pytest.raises(ScaleViolation):
            learn_pareto_known_scale(Dataset([0.5, 2.0]), 1.0, config(),
                                     PrivacyBudget(1.0),
                                     RngStream(0, noiseless=True))

    def test_matches_oracle(self):
        gen = np.random.default_rng(5)
        for _ in range(60):
            values = (1.0 + gen.pareto(2.0, int(gen.integers(2, 60)))).tolist()
            try:
                want = oracle_learn_pareto_known_scale(values, 1.0, 0.01, 100.0, 0.1)
            except (SearchExhausted, NonpositiveMean, ScaleViolation) as exc:
                want = type(exc)
            try:
                got = learn_pareto_known_scale(Dataset(values), 1.0, config(),
                                               PrivacyBudget(1.0),
                                               RngStream(0, noiseless=True))
                assert got.shape_hat == want[0]
                assert got.scale_hat == 1.0
            except (SearchExhausted, NonpositiveMean, ScaleViolation) as exc:
                assert type(exc) is want

    def test_values_near_float_max_below_unit_scale(self):
        # x / x_m overflows for x = 1e308 at x_m = 0.5; valid data must still
        # release, silently, and match the oracle
        values = [1e308, 2.0, 3.0] * 100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = learn_pareto_known_scale(Dataset(values), 0.5, config(),
                                           PrivacyBudget(1.0),
                                           RngStream(0, noiseless=True))
        want, _ = oracle_learn_pareto_known_scale(values, 0.5, 0.01, 100.0, 0.1)
        assert got.shape_hat == want
        assert math.isfinite(got.shape_hat) and got.shape_hat > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_release_equals_sample_order_tail(self, seed):
        # the ascending tail releases the same bits, on the same noisy
        # stream, as the tail built in sample order
        values = (1.0 + np.random.default_rng(seed).pareto(2.0, 4000)).tolist()
        got = learn_pareto_known_scale(Dataset(values), 1.0, config(),
                                       PrivacyBudget(1.0), RngStream(seed, 7))
        rng = RngStream(seed, 7)
        want = mle_learning(Dataset(oracle_log_transform(values, 1.0)),
                            config(), PrivacyBudget(1.0), rng)
        assert rng.laplace_draws > 0
        assert (got.shape_hat, got.scale_hat, got.route) == (want.lambda_hat,
                                                             1.0, want.route)

    def test_statistical_success_rate(self):
        shape = 5.0
        n = 4 * required_n(SampleBound.MLE_LEARNING, alpha=0.2, beta=0.1,
                           epsilon=1.0, lam=shape, bounds=(0.01, 100.0)).n_required
        hits, trials = 0, 60
        cfg = LearnerConfig(0.2, 0.1, WIDE)
        for t in range(trials):
            rng = RngStream(77, t)
            data = sample(ParetoModel(1.0, shape), n, rng)
            try:
                est = learn_pareto_known_scale(data, 1.0, cfg, PrivacyBudget(1.0), rng)
            except (SearchExhausted, NonpositiveMean):
                continue
            if shape * 0.8 <= est.shape_hat <= shape * 1.2:
                hits += 1
        assert hits >= 0.85 * trials


class TestLearnPareto:
    def test_estimate_holds_released_values_only(self):
        # no exact count #{x >= pivot}
        assert [f.name for f in dataclasses.fields(ParetoEstimate)] == [
            "shape_hat", "scale_hat", "route"]

    def test_tau_regime(self):
        data = Dataset([1.0, 2.0])
        for tau in (0.05, 0.3):
            with pytest.raises(OutOfRegime):
                learn_pareto(data, config(), PrivacyBudget(1.0),
                             RngStream(0, noiseless=True), tau)

    def test_budget_ledger_halves(self):
        data = stratified_pareto(2.0, 5000)
        budget = PrivacyBudget(1.0)
        learn_pareto(data, config(), budget, RngStream(0, noiseless=True))
        pivot, shape = budget.children
        assert pivot.epsilon == shape.epsilon == 0.5
        assert budget.spent() == (1.0, 0.0)

    def test_noiseless_pipeline_sanity(self):
        # Pareto(1, 2): the pivot lands within the band around the
        # tau-quantile, the shape comes back near 2, and the recovered scale
        # is within acceptance 09's factor e^(2 ln7 (alpha/shape) tau) of 1,
        # on either side
        est = learn_pareto(stratified_pareto(2.0, 20_000), config(),
                           PrivacyBudget(1.0), RngStream(0, noiseless=True))
        assert 1.6 <= est.shape_hat <= 2.4
        log_cap = 2.0 * math.log(7.0) * (0.2 / 2.0) * DEFAULT_TAIL_QUANTILE
        assert abs(math.log(est.scale_hat)) <= log_cap

    def test_composition_is_exactly_the_manual_pipeline(self):
        gen = np.random.default_rng(9)
        values = (1.0 + gen.pareto(2.0, 500)).tolist()
        data = Dataset(values)
        tau = DEFAULT_TAIL_QUANTILE

        est = learn_pareto(data, config(), PrivacyBudget(1.0),
                           RngStream(0, noiseless=True), tau)

        pivot_b, shape_b = PrivacyBudget(1.0).split([0.5, 0.5])
        pivot = _band_search(data, _pivot_grid(0.2, WIDE, tau), pivot_b,
                             RngStream(1, noiseless=True))
        tail = log_transform(data, pivot)
        inner = best_of_both(tail, config(), shape_b, RngStream(1, noiseless=True))
        assert est.shape_hat == inner.lambda_hat
        assert est.scale_hat == recover_scale(pivot, tau, inner.lambda_hat)
        assert est.route == inner.route.value

    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_release_equals_sample_order_tail(self, seed):
        # the same pipeline on one noisy stream, with the tail built in
        # sample order, releases the same bits
        values = (1.0 + np.random.default_rng(seed).pareto(2.0, 20_000)).tolist()
        tau = DEFAULT_TAIL_QUANTILE
        got = learn_pareto(Dataset(values), config(), PrivacyBudget(1.0),
                           RngStream(seed, 7), tau)
        rng = RngStream(seed, 7)
        pivot_b, shape_b = PrivacyBudget(1.0).split([0.5, 0.5])
        pivot = _band_search(Dataset(values), _pivot_grid(0.2, WIDE, tau), pivot_b, rng)
        tail = Dataset(oracle_log_transform(values, pivot))
        inner = best_of_both(tail, config(), shape_b, rng)
        assert rng.laplace_draws > 0
        assert (got.shape_hat, got.scale_hat, got.route) == (
            inner.lambda_hat, recover_scale(pivot, tau, inner.lambda_hat),
            inner.route)

    @pytest.mark.parametrize("x_m", [1e-3, 1000.0])
    @pytest.mark.parametrize("noiseless", [True, False])
    def test_scale_outside_pivot_window_raises(self, x_m, noiseless):
        # WIDE puts the pivot window at [0.01, 655.36]; the tau-quantile of
        # Pareto(x_m, 2) is about 1.07 x_m
        data = Dataset(x_m * stratified_pareto(2.0, 20_000).values)
        with pytest.raises(SearchExhausted, match="the pivot grid of"):
            learn_pareto(data, config(), PrivacyBudget(1.0),
                         RngStream(0, noiseless=noiseless))

    def test_matches_oracle(self):
        gen = np.random.default_rng(13)
        tau = DEFAULT_TAIL_QUANTILE
        for _ in range(60):
            shape = float(gen.uniform(0.5, 4.0))
            values = (1.0 + gen.pareto(shape, int(gen.integers(5, 120)))).tolist()
            try:
                want = oracle_learn_pareto(values, 0.01, 100.0, 0.2, 0.1, tau)
            except (EmptyTail, SearchExhausted, NonpositiveMean) as exc:
                want = type(exc)
            try:
                got = learn_pareto(Dataset(values), config(), PrivacyBudget(1.0),
                                   RngStream(0, noiseless=True), tau)
                assert (got.shape_hat, got.scale_hat, got.route) == want
            except (EmptyTail, SearchExhausted, NonpositiveMean) as exc:
                assert type(exc) is want


def stratified_pareto(shape: float, n: int) -> Dataset:
    model = ParetoModel(1.0, shape)
    return Dataset(model.quantile((np.arange(n) + 0.5) / n))
