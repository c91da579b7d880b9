import math
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import (decimal_exp_tv, decimal_exp_tv_crossing, decimal_pareto_cdf,
                     decimal_pareto_kl, decimal_pareto_log_pdf, quad_exp_tv,
                     quad_pareto_kl, quad_pareto_tv)
from privexp.distributions import (_U_MAX, ExpModel, ParetoModel, _draw,
                                   exp_tv, exp_tv_crossing, pareto_kl_equal_scale,
                                   pareto_tv_bound, sample, separation_T)
from privexp.errors import (EmptyRequest, InvalidRate, InvalidRatio,
                            InvalidScale, InvalidShape, OutOfRegime)
from privexp.privacy import RngStream
from test_errors import POSITIVE_DOUBLES


class TestExpModel:
    def test_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidRate):
                ExpModel(bad)

    def test_closed_forms(self):
        m = ExpModel(2.0)
        assert m.mean == 0.5
        assert m.cdf(0.0) == 0.0
        assert m.cdf(-1.0) == 0.0
        assert m.pdf(-1.0) == 0.0
        assert math.isclose(m.pdf(0.3), 2.0 * math.exp(-0.6), rel_tol=1e-15)
        assert math.isclose(m.cdf(0.3), 1.0 - math.exp(-0.6), rel_tol=1e-15)
        assert m.quantile(0.0) == 0.0

    def test_quantile_round_trip(self):
        m = ExpModel(0.7)
        for p in (0.01, 0.5, 1.0 - 1.0 / math.e, 0.99):
            assert math.isclose(m.cdf(m.quantile(p)), p, rel_tol=1e-12)

    def test_quantile_level_validation(self):
        with pytest.raises(OutOfRegime):
            ExpModel(1.0).quantile(1.0)
        with pytest.raises(OutOfRegime):
            ExpModel(1.0).quantile(-0.1)
        with pytest.raises(OutOfRegime):
            ExpModel(1.0).quantile([0.5, math.nan])

    def test_vector_output(self):
        m = ExpModel(1.0)
        out = m.cdf(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0

    def test_far_below_the_support_is_zero_without_a_warning(self):
        # exp and expm1 of 1000 overflow where np.where then discards them
        m = ExpModel(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (m.pdf, m.cdf):
                assert f(-1000.0) == 0.0
                assert f(np.array([-1000.0, 0.0]))[0] == 0.0

    def test_reciprocal_quantile_identity(self):
        # F(1/rate) = 1 - 1/e for every rate
        for rate in (0.2, 1.0, 5.0, 37.5):
            assert math.isclose(ExpModel(rate).cdf(1.0 / rate),
                                1.0 - 1.0 / math.e, rel_tol=1e-15)


class TestParetoModel:
    def test_validation(self):
        with pytest.raises(InvalidScale):
            ParetoModel(0.0, 1.0)
        with pytest.raises(InvalidScale):
            ParetoModel(-2.0, 1.0)
        with pytest.raises(InvalidShape):
            ParetoModel(1.0, 0.0)
        with pytest.raises(InvalidShape):
            ParetoModel(1.0, math.inf)

    def test_closed_forms(self):
        m = ParetoModel(2.0, 3.0)
        assert m.cdf(1.5) == 0.0
        assert m.cdf(2.0) == 0.0
        assert m.pdf(1.5) == 0.0
        assert math.isclose(m.cdf(4.0), 1.0 - (2.0 / 4.0) ** 3, rel_tol=1e-14)
        assert math.isclose(m.pdf(4.0), 3.0 * 2.0 ** 3 / 4.0 ** 4, rel_tol=1e-14)

    def test_quantile_round_trip(self):
        m = ParetoModel(0.5, 1.7)
        for p in (0.0, 0.3, 0.871, 0.999):
            assert math.isclose(m.cdf(m.quantile(p)), p,
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_quantile_level_validation(self):
        for p in (1.0, -0.1, math.nan):
            with pytest.raises(OutOfRegime):
                ParetoModel(1.0, 2.0).quantile(p)

    def test_density_integrates_to_one(self):
        from scipy import integrate
        m = ParetoModel(1.0, 2.5)
        mass, _ = integrate.quad(m.pdf, 1.0, math.inf)
        assert math.isclose(mass, 1.0, rel_tol=1e-9)


class TestSample:
    def test_deterministic_given_stream(self):
        a = sample(ExpModel(1.0), 100, RngStream(5)).values
        b = sample(ExpModel(1.0), 100, RngStream(5)).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 7, 616, 112_324])
    def test_equals_out_of_place_expressions(self, n):
        # sample transforms its uniforms in place; the bits must be those of
        # the plain expressions on the same draws from a twin stream
        exp = sample(ExpModel(0.37), n, RngStream(5, 2)).values
        u = RngStream(5, 2).generator.random(n)
        assert exp.tobytes() == (-np.log1p(-u) / 0.37).tobytes()
        pareto = sample(ParetoModel(1.3, 2.5), n, RngStream(5, 2)).values
        u = RngStream(5, 2).generator.random(n)
        assert pareto.tobytes() == (1.3 * np.exp(-np.log1p(-u) / 2.5)).tobytes()

    # The ends of [0, 1) and the binade edges below 1, then random uniforms.
    EDGE_UNIFORMS = np.concatenate([
        [0.0, 5e-324, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
        np.random.default_rng(11).random(100_000)])

    @pytest.mark.parametrize("rate", [1e-300, 0.01, 0.37, 1.0, 3.0, 1e300])
    def test_exp_draw_equals_the_written_expression(self, rate):
        u = self.EDGE_UNIFORMS
        got = _draw(ExpModel(rate), u.copy())
        assert got.tobytes() == (-np.log1p(-u) / rate).tobytes()

    @pytest.mark.parametrize("xm, shape", [(1.0, 2.0), (1.3, 2.5), (1e-3, 0.5),
                                           (1e5, 7.0), (2.0, 1e3)])
    def test_pareto_draw_equals_the_written_expression(self, xm, shape):
        u = self.EDGE_UNIFORMS
        got = _draw(ParetoModel(xm, shape), u.copy())
        assert got.tobytes() == (xm * np.exp(-np.log1p(-u) / shape)).tobytes()

    @pytest.mark.parametrize("model", [ExpModel(1.0), ParetoModel(1.0, 2.0)])
    def test_peak_memory_is_the_dataset_and_the_draws(self, model):
        # the uniforms, transformed in place and adopted by the Dataset:
        # one array of n
        n = 100_000
        rng = RngStream(1)
        tracemalloc.start()
        try:
            sample(model, n, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n

    def test_rejects_zero_draws(self):
        with pytest.raises(EmptyRequest):
            sample(ExpModel(1.0), 0, RngStream(0))

    def test_unknown_model(self):
        with pytest.raises(TypeError):
            sample(object(), 5, RngStream(0))

    def test_exp_goodness_of_fit(self):
        from scipy import stats
        data = sample(ExpModel(2.0), 20_000, RngStream(77)).values
        ks = stats.kstest(data, lambda x: ExpModel(2.0).cdf(x)).statistic
        assert ks < 0.015

    def test_pareto_goodness_of_fit(self):
        from scipy import stats
        m = ParetoModel(1.5, 2.0)
        data = sample(m, 20_000, RngStream(78)).values
        assert data.min() >= 1.5
        ks = stats.kstest(data, lambda x: m.cdf(x)).statistic
        assert ks < 0.015


class TestExpTv:
    def test_equal_rates_zero(self):
        assert exp_tv(1.0, 1.0) == 0.0

    @pytest.mark.parametrize("gap", [1e-13, 1e-14])
    def test_near_equal_rates_are_distinct(self, gap):
        lo, hi = 3.0, 3.0 * (1.0 + gap)
        assert math.isclose(exp_tv(lo, hi), float(decimal_exp_tv(lo, hi)), rel_tol=1e-15)
        assert math.isclose(exp_tv_crossing(lo, hi), float(decimal_exp_tv_crossing(lo, hi)),
                            rel_tol=1e-15)

    def test_symmetry(self):
        assert exp_tv(0.3, 4.1) == exp_tv(4.1, 0.3)

    def test_validation(self):
        with pytest.raises(InvalidRate):
            exp_tv(0.0, 1.0)
        with pytest.raises(InvalidRate):
            exp_tv(1.0, -2.0)

    def test_crossing_point_equalizes_densities(self):
        for l1, l2 in [(1.0, 2.0), (0.01, 3.0), (5.0, 5.5)]:
            a = exp_tv_crossing(l1, l2)
            assert math.isclose(ExpModel(l1).pdf(a), ExpModel(l2).pdf(a),
                                rel_tol=1e-12)

    def test_crossing_rejects_equal_rates(self):
        with pytest.raises(InvalidRate):
            exp_tv_crossing(2.0, 2.0)

    def test_matches_quadrature_spot(self):
        for l1, l2 in [(1.0, 2.0), (0.001, 0.003), (100.0, 900.0), (0.5, 0.6)]:
            assert abs(exp_tv(l1, l2) - quad_exp_tv(l1, l2)) < 1e-10

    def test_nearby_rates_no_cancellation(self):
        # relative agreement with quadrature even when TV is tiny
        tv = exp_tv(1.0, 1.0 + 1e-6)
        assert 1e-7 < tv < 1e-6
        assert math.isclose(tv, quad_exp_tv(1.0, 1.0 + 1e-6), rel_tol=1e-4)

    @given(st.floats(-3.0, 3.0), st.floats(0.001, 0.999))
    def test_accuracy_band_implies_tv_band(self, log10_rate, alpha):
        rate = 10.0 ** log10_rate
        assert exp_tv((1.0 + alpha) * rate, rate) <= alpha
        assert exp_tv((1.0 - alpha) * rate, rate) <= alpha


class TestSeparationT:
    def test_validation(self):
        with pytest.raises(InvalidRatio):
            separation_T(0.9)
        with pytest.raises(InvalidRatio):
            separation_T(math.inf)

    def test_unit_ratio(self):
        assert separation_T(1.0) == 0.0

    def test_is_the_tv_at_that_ratio(self):
        for r in (1.1, 1.8, 3.0, 10.0):
            assert math.isclose(separation_T(r), exp_tv(r, 1.0), rel_tol=1e-12)
            # scale invariance: only the ratio matters
            assert math.isclose(separation_T(r), exp_tv(0.07 * r, 0.07),
                                rel_tol=1e-12)

    def test_separation_margin_spot(self):
        for alpha in (0.01, 0.1, 0.25, 0.4, 0.499):
            assert separation_T(1.0 + 8.0 * alpha) >= alpha


class TestParetoDistances:
    def test_kl_zero_at_equal_shapes(self):
        assert pareto_kl_equal_scale(2.0, 2.0) == 0.0

    def test_kl_validation(self):
        with pytest.raises(InvalidShape):
            pareto_kl_equal_scale(0.0, 1.0)

    def test_kl_closed_form(self):
        assert math.isclose(pareto_kl_equal_scale(3.0, 2.0),
                            1.5 - 1.0 - math.log(1.5), rel_tol=1e-15)

    def test_kl_orientation_matches_quadrature(self):
        # value equals the divergence from the second shape to the first
        for a1, a2 in [(3.0, 2.0), (2.0, 3.0), (1.1, 0.4), (5.0, 4.9)]:
            assert math.isclose(pareto_kl_equal_scale(a1, a2),
                                quad_pareto_kl(a2, a1), rel_tol=1e-8,
                                abs_tol=1e-12)

    def test_tv_bound_equal_shapes_exact(self):
        # with equal shapes the bound's scale term is the exact TV
        for m1, m2, a in [(1.0, 2.0, 1.5), (0.5, 0.7, 3.0)]:
            bound = pareto_tv_bound(ParetoModel(m1, a), ParetoModel(m2, a))
            assert math.isclose(bound, 1.0 - (m1 / m2) ** a, rel_tol=1e-12)
            assert abs(bound - quad_pareto_tv(m1, a, m2, a)) < 1e-9

    def test_tv_bound_dominates_quadrature(self):
        cases = [(1.0, 2.0, 1.0, 2.4), (1.0, 2.0, 1.1, 1.6),
                 (0.5, 1.0, 0.55, 1.3), (2.0, 3.0, 2.2, 2.7)]
        for m1, a1, m2, a2 in cases:
            bound = pareto_tv_bound(ParetoModel(m1, a1), ParetoModel(m2, a2))
            true_tv = quad_pareto_tv(m1, a1, m2, a2)
            assert bound >= true_tv - 1e-9

    def test_tv_bound_symmetric(self):
        a = pareto_tv_bound(ParetoModel(1.0, 2.0), ParetoModel(1.3, 2.6))
        b = pareto_tv_bound(ParetoModel(1.3, 2.6), ParetoModel(1.0, 2.0))
        assert a == b

    def test_learner_guarantee_implies_tv_conclusion(self):
        # a (1 +- g) shape estimate and a scale overshoot within the
        # recovery factor keep the TV bound within g (pure errors) or
        # g*(1 + g) (both at once)
        tau = 1.0 / (4.0 * math.log(7.0))
        xm, shape = 1.0, 2.0
        truth = ParetoModel(xm, shape)
        for g in (0.001, 0.01, 0.05, 0.2, 0.5):
            scale_cap = math.exp(2.0 * math.log(7.0) * (g / shape) * tau)
            pure_scale = pareto_tv_bound(ParetoModel(xm * scale_cap, shape), truth)
            assert pure_scale <= g
            for corner in (1.0 + g, 1.0 - g):
                pure_shape = pareto_tv_bound(ParetoModel(xm, shape * corner), truth)
                assert pure_shape <= g
                joint = pareto_tv_bound(
                    ParetoModel(xm * scale_cap, shape * corner), truth)
                assert joint <= g * (1.0 + g)


def quiet(f, *args):
    """f(*args), with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def _near(x, k):
    """x and x (1 + 2^k), capped at the largest double."""
    return x, min(x * (1.0 + 2.0 ** k), sys.float_info.max)


# Pairs of positive doubles: drawn apart, and drawn 2^k apart relatively,
# for k in [-44, 10].
PAIRS = st.one_of(st.tuples(POSITIVE_DOUBLES, POSITIVE_DOUBLES),
                  st.builds(_near, POSITIVE_DOUBLES, st.floats(-44.0, 10.0)))
LOG_MAX = math.log(sys.float_info.max)
LOG_MIN_NORMAL = math.log(sys.float_info.min)


def _distinct(lo, hi) -> bool:
    """Rates exp_tv tells apart."""
    return lo != hi


class TestWholeDoubleRange:
    """The distances, densities and sampling over every positive double they
    accept, against 50-digit references, with no warning."""

    def test_edge_values(self):
        assert quiet(exp_tv, 1e-300, 1e300) == quiet(exp_tv, 5e-324, 1.0) == 1.0
        assert quiet(exp_tv, 5e-324, 1e-323) == 0.25
        assert quiet(exp_tv, 5e-324, 5e-324) == 0.0
        # ln(1e300 / 1e-300) / (1e300 - 1e-300), which is finite
        crossing = (Decimal(1e300) / Decimal(1e-300)).ln() / Decimal(1e300)
        assert math.isclose(quiet(exp_tv_crossing, 1e-300, 1e300), float(crossing),
                            rel_tol=1e-15)
        with pytest.raises(InvalidRate):
            exp_tv_crossing(5e-324, 5e-324)

    @given(PAIRS)
    @example((1e-300, 1e300))
    @example((5e-324, 1.0))
    @example((5e-324, 1e-323))
    @example((5e-324, 5e-324))
    @example((1.0, 1.0 + 1e-11))
    def test_exp_tv_is_the_tv_of_the_rate_ratio(self, pair):
        tv = quiet(exp_tv, *pair)
        assert 0.0 <= tv <= 1.0
        if _distinct(min(pair), max(pair)):
            assert math.isclose(tv, float(decimal_exp_tv(*pair)), rel_tol=1e-15)
        else:
            assert tv == 0.0

    @given(PAIRS, st.integers(-2100, 2100))
    @example((5e-324, 1e-323), 1000)
    def test_exp_tv_depends_on_the_ratio_only(self, pair, k):
        # both rates times 2^k, k clamped so that neither loses a bit
        lo, hi = sorted(pair)
        k = min(max(k, -1021 - math.frexp(lo)[1]), 1024 - math.frexp(hi)[1])
        assume(math.ldexp(math.ldexp(lo, k), -k) == lo)
        assert quiet(exp_tv, math.ldexp(lo, k), math.ldexp(hi, k)) == exp_tv(lo, hi)

    @given(PAIRS)
    @example((1.0, 1.0 + 1e-11))
    @example((0.07, 0.07 * 1.1))
    def test_exp_tv_is_separation_T_of_the_ratio(self, pair):
        lo, hi = sorted(pair)
        r = hi / lo
        assume(r < math.inf and _distinct(lo, hi))
        # r is hi / lo rounded; T moves by r ln r / (r - 1)^2 times its error
        tol = 1e-15 + 2.0 ** -52 * math.log(r) / (r - 1.0) * r / (r - 1.0)
        assert math.isclose(quiet(separation_T, r), exp_tv(lo, hi), rel_tol=tol)
        assert math.isclose(separation_T(r), float(decimal_exp_tv(1.0, r)), rel_tol=1e-15)

    @given(PAIRS)
    @example((1e300, 1e-300))
    @example((1e-300, 1e300))
    @example((5e-324, 2.0))
    @example((2.0, 2.0 * (1.0 + 1e-14)))
    def test_pareto_kl_is_nonnegative_or_inf(self, pair):
        kl = quiet(pareto_kl_equal_scale, *pair)
        assert kl >= 0.0
        ref = decimal_pareto_kl(*pair)
        if kl == math.inf:
            assert ref > Decimal(sys.float_info.max) * (1 - Decimal(2) ** -50)
        else:
            # within a few roundings of the value, near equal shapes too
            assert abs(Decimal(kl) - ref) <= Decimal(2) ** -49 * ref

    @given(PAIRS)
    @example((1e-300, 1e300))
    @example((5e-324, 1e-323))
    @example((3.0, 3.0 * (1.0 + 1e-13)))
    @example((sys.float_info.max * (1.0 - 2.0 ** -52), sys.float_info.max))
    def test_exp_tv_crossing_is_the_crossing_point(self, pair):
        assume(pair[0] != pair[1])
        got = quiet(exp_tv_crossing, *pair)
        ref = decimal_exp_tv_crossing(*pair)
        if got == math.inf:
            assert ref > Decimal(sys.float_info.max) * (1 - Decimal(2) ** -50)
        else:
            assert math.isclose(got, float(ref), rel_tol=1e-15)

    @given(PAIRS, POSITIVE_DOUBLES)
    @example((1e-200, 1e200), 1e-3)
    @example((5e-324, 2.0), 5e-324)
    @example((1e-310, 1e10), 1e-5)
    @example((1.0, 1.0), 2.0)
    @example((1.0, 1.0 + 2.0 ** -52), 1e300)
    def test_pareto_cdf_is_a_probability(self, pair, a):
        xm, x = sorted(pair)
        got = quiet(ParetoModel(xm, a).cdf, x)
        assert 0.0 <= got <= 1.0
        # ln(xm / x) rounds as a quotient and its log, or as two logs and
        # their difference; then a times it and expm1 each round once
        log_err = 2.0 ** -50 * (1.0 + abs(math.log(xm)) + abs(math.log(x)))
        low = decimal_pareto_cdf(xm, a, x, log_err)
        high = decimal_pareto_cdf(xm, a, x, -log_err)
        slack = Decimal(2) ** -50 * high + Decimal(2) ** -1074
        assert low - slack <= Decimal(got) <= high + slack

    @given(PAIRS, POSITIVE_DOUBLES)
    @example((20.0, 10.0), 400.0)
    @example((0.6, 0.5), 2000.0)
    @example((1e-300 * (1 + 5.5e-10), 1e-300), 1.8e8)
    @example((2e-300, 1e-300), 1e300)
    @example((1e-300, 1e-300), 1e300)
    @example((5e-324, 2.0), 0.5)
    def test_pareto_pdf_is_a_density(self, pair, a):
        xm, x = sorted(pair)
        got = quiet(ParetoModel(xm, a).pdf, x)
        assert 0.0 <= got
        log_ref = float(decimal_pareto_log_pdf(xm, a, x))
        # the roundings of xm / x and its power, or of each log and their sum
        slack = 2.0 ** -50 * (4.0 + abs(math.log(a))
                              + (1.0 + a) * (abs(math.log(x)) + abs(math.log(xm))))
        if got == math.inf:
            assert log_ref > LOG_MAX - slack
        elif got >= sys.float_info.min:
            assert abs(math.log(got) - log_ref) <= slack
        else:
            assert log_ref < LOG_MIN_NORMAL + slack

    @pytest.mark.parametrize("model", [ExpModel(1e-310), ExpModel(5e-324),
                                       ParetoModel(1e300, 0.01), ParetoModel(1.0, 0.049)],
                             ids=repr)
    def test_sampling_refuses_a_law_past_the_doubles(self, model):
        # its largest draw, at the largest uniform, passes the largest double
        assert quiet(model.quantile, _U_MAX) == math.inf
        with pytest.raises(OutOfRegime,
                           match=re.escape(f"{model} draws values past the largest double")):
            quiet(sample, model, 3, RngStream(0))

    @pytest.mark.parametrize("model", [ExpModel(2.1e-307), ParetoModel(1.0, 0.0518)],
                             ids=repr)
    def test_sampling_takes_a_law_up_to_the_doubles(self, model):
        assert quiet(model.quantile, _U_MAX) < math.inf
        assert np.all(np.isfinite(quiet(sample, model, 1000, RngStream(0)).values))

    def test_quantile_past_the_doubles_is_inf(self):
        assert quiet(ExpModel(5e-324).quantile, 0.5) == math.inf
