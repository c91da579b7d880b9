import math

import pytest

from privexp import analysis, learners, quantile
from privexp.analysis import (
    SampleBound,
    _band_search_value,
    build_packing,
    lower_bound_n,
    quantile_order_terms,
    required_n,
)
from privexp.bounds import learn_without_bounds
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import ExpModel, ParetoModel, exp_tv, sample, separation_T
from privexp.errors import (
    IncompleteInputs,
    InvalidRatio,
    OutOfRegime,
    PrivexpError,
    RegimeViolation,
    SearchExhausted,
)
from privexp.harness import ExperimentSpec, Learner, run_experiment
from privexp.pareto import (DEFAULT_TAIL_QUANTILE, _pivot_grid, learn_pareto,
                            learn_pareto_known_scale)
from privexp.privacy import PrivacyBudget, RngStream
from privexp.quantile import clipping_range

WIDE = (0.01, 100.0)
BASE = dict(alpha=0.2, beta=0.1, epsilon=1.0, bounds=WIDE)


class TestBuildPacking:
    def test_two_point_family(self):
        rates = build_packing(RateBounds(1.0, 1.8), 0.1)
        assert rates == (1.0, 1.8)
        # a bounds tuple is read as lower_bound_n reads it
        assert build_packing((1.0, 1.8), 0.1) == rates

    def test_ratio_ten_family(self):
        rates = build_packing(RateBounds(1.0, 10.0), 0.1)
        assert len(rates) == math.floor(math.log(10.0) / math.log(1.8)) + 1
        assert len(rates) == 4
        for a, b in zip(rates, rates[1:]):
            assert math.isclose(b / a, 1.8, rel_tol=1e-12)
            assert exp_tv(a, b) >= 0.1

    def test_family_stays_in_bounds(self):
        for lo, hi, alpha in [(0.5, 7.0, 0.05), (1.0, 1e4, 0.3), (0.01, 0.02, 0.49)]:
            rates = build_packing(RateBounds(lo, hi), alpha)
            assert rates[0] == lo
            assert rates[-1] <= hi * (1.0 + 1e-12)

    def test_alpha_regime(self):
        for alpha in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(OutOfRegime):
                build_packing(RateBounds(1.0, 10.0), alpha)

    def test_separation_function_backs_the_family(self):
        # adjacent TV equals T(1 + 8*alpha), which stays above alpha
        for alpha in (0.01, 0.1, 0.25, 0.49):
            rates = build_packing(RateBounds(1.0, 100.0), alpha)
            r = 1.0 + 8.0 * alpha
            for a, b in zip(rates, rates[1:]):
                assert math.isclose(exp_tv(a, b), separation_T(r), rel_tol=1e-9)
            assert separation_T(r) >= alpha


class TestLowerBound:
    def test_hand_computed_example(self):
        # ln(ratio) = 1.6 * e makes the inner log collapse to exactly 1,
        # so the bound is ceil(1/0.6) = 2
        ratio = math.exp(16.0 * 0.1 * 0.1 * math.e)
        assert lower_bound_n(0.1, 0.1, 1.0, (1.0, ratio)) == 2

    def test_never_below_one(self):
        assert lower_bound_n(0.4, 0.4, 10.0, (1.0, 1.01)) == 1

    def test_strictly_grows_with_ratio(self):
        small = lower_bound_n(0.1, 0.1, 1.0, (1.0, 10.0))
        large = lower_bound_n(0.1, 0.1, 1.0, (1.0, 1e6))
        assert large > small

    def test_regime_checks(self):
        for alpha, beta in [(0.5, 0.1), (0.0, 0.1), (0.1, 0.5), (0.1, 0.0)]:
            with pytest.raises(OutOfRegime):
                lower_bound_n(alpha, beta, 1.0, (1.0, 10.0))
        with pytest.raises(OutOfRegime):
            lower_bound_n(0.1, 0.1, 0.0, (1.0, 10.0))
        for bad in [(2.0, 2.0), (3.0, 1.0), (0.0, 1.0)]:
            with pytest.raises(InvalidRatio):
                lower_bound_n(0.1, 0.1, 1.0, bad)

    def test_required_n_wrapper(self):
        report = required_n(SampleBound.PACKING_LOWER_BOUND, alpha=0.1, beta=0.1,
                            epsilon=1.0, bounds=(1.0, 100.0))
        assert report.n_required == lower_bound_n(0.1, 0.1, 1.0, (1.0, 100.0))
        assert report.exact_constants


class TestExactCalculators:
    def test_svt_quantile_formula(self):
        report = required_n(SampleBound.SVT_QUANTILE, epsilon=1.0, beta=0.1,
                            bounds=(1.0, 100.0))
        want = max((5.0 / 1.0) * math.log(4.0 * math.log(100.0) / 0.1),
                   200.0 * math.log(4.0 / 0.1))
        assert report.n_required == math.ceil(want) == 738
        assert report.exact_constants

    def test_svt_quantile_privacy_branch(self):
        report = required_n(SampleBound.SVT_QUANTILE, epsilon=0.001, beta=0.1,
                            bounds=(1.0, 100.0))
        assert report.n_required == math.ceil(
            5000.0 * math.log(4.0 * math.log(100.0) / 0.1))

    def test_clipped_mle_formula(self):
        report = required_n(SampleBound.CLIPPED_MLE, epsilon=1.0, beta=0.1,
                            alpha=0.2, lam=1.0, clip_r=10.0)
        bias = math.exp(-10.0)
        want = max(10.0 * math.log(20.0) / (0.1 - bias),
                   (12.0 / 0.04) * math.log(40.0))
        assert report.n_required == math.ceil(want) == 1107

    def test_clipped_mle_regime_violation(self):
        # e^(-lam*R) = e^-1 dominates alpha/2 = 0.1: no sample size helps
        with pytest.raises(RegimeViolation):
            required_n(SampleBound.CLIPPED_MLE, epsilon=1.0, beta=0.1,
                       alpha=0.2, lam=1.0, clip_r=1.0)

    def test_quantile_search_formula(self):
        report = required_n(SampleBound.QUANTILE_SEARCH, epsilon=1.0, beta=0.1,
                            alpha=0.2, bounds=(1.0, 100.0))
        # depth: the probe cap of quantile_learning's grid, positions one
        # step 1/(1 - alpha/2) apart across the ratio
        n_steps = math.ceil(math.log(100.0) / math.log(1.0 / (1.0 - 0.1)))
        depth = math.ceil(math.log2(n_steps + 1))
        assert (n_steps, depth) == (44, 6)
        log_term = math.log(2.0 * depth / 0.1)
        want = max((2.0 * math.e * depth / 0.2) * log_term,
                   (2.0 / 0.04) * log_term)
        assert report.n_required == math.ceil(want) == 781

    @pytest.mark.parametrize("search, alpha, bounds", [
        ("quantile", 0.2, (1.0, 100.0)), ("quantile", 0.5, WIDE),
        ("quantile", 0.05, (0.1, 1e5)), ("quantile", 0.9, (1.0, 1.5)),
        ("pivot", 0.2, WIDE), ("pivot", 0.5, (1.0, 100.0)), ("pivot", 0.05, (0.1, 1e5))])
    def test_band_search_depth_is_the_probe_count(self, monkeypatch, search, alpha, bounds):
        # the calculator prices every probe a band search can make: an
        # exhausted search (all data above every position) makes them all,
        # and the grid priced is the grid searched
        probes = []
        def counting(*args):
            probes.append(args[1])
            return 0.0
        monkeypatch.setattr(quantile, "noisy_fraction_below", counting)
        priced = []
        band_search_value = analysis._band_search_value
        def recording(epsilon, beta, grid):
            priced.append(grid)
            return band_search_value(epsilon, beta, grid)
        monkeypatch.setattr(analysis, "_band_search_value", recording)
        config = learners.LearnerConfig(alpha, 0.1, RateBounds(*bounds))
        budget, rng = PrivacyBudget(1.0), RngStream(0, noiseless=True)
        if search == "quantile":
            grid = learners._search_grid(alpha, config.bounds)
            with pytest.raises(SearchExhausted):
                learners.quantile_learning(Dataset([1.0]), config, budget, rng)
            report = required_n(SampleBound.QUANTILE_SEARCH, epsilon=1.0, beta=0.1,
                                alpha=alpha, bounds=bounds)
            assert report.n_required == math.ceil(band_search_value(1.0, 0.1, grid))
        else:
            grid = _pivot_grid(alpha, config.bounds, DEFAULT_TAIL_QUANTILE)
            assert grid.position(grid.n_steps) < 1e300
            with pytest.raises(SearchExhausted):
                learn_pareto(Dataset([1e300]), config, budget, rng)
            required_n(SampleBound.PARETO_LEARNING, epsilon=1.0, beta=0.1,
                       alpha=alpha, lam=2.0, bounds=bounds)
        assert len(probes) == grid.probes
        assert grid in priced

    def test_bounds_finder_formula(self):
        report = required_n(SampleBound.BOUNDS_FINDER, epsilon=1.0, delta=1e-6,
                            beta=0.1)
        want = max(800.0 * math.log(2.0 / 1e-7), 5000.0 * math.log(20.0))
        assert report.n_required == math.ceil(want) == 14979


class TestComposedCalculators:
    def test_mle_learning_pinned(self):
        report = required_n(SampleBound.MLE_LEARNING, lam=4.0, **BASE)
        assert report.n_required == 5106
        assert not report.exact_constants

    def test_mle_learning_covers_its_stages(self):
        # the fixed point must satisfy the range-estimation stage run at
        # half budget and half confidence
        n = required_n(SampleBound.MLE_LEARNING, lam=4.0, **BASE).n_required
        svt = required_n(SampleBound.SVT_QUANTILE, epsilon=0.5, beta=0.05,
                         bounds=WIDE).n_required
        assert n >= svt

    def test_quantile_learning_is_max_of_order_terms(self):
        report = required_n(SampleBound.QUANTILE_LEARNING, **BASE)
        terms = quantile_order_terms(1.0, 0.1, 0.2, WIDE)
        assert report.n_required == math.ceil(max(terms)) == 154
        assert not report.exact_constants

    def test_order_terms_formulas(self):
        privacy, statistical = quantile_order_terms(1.0, 0.1, 0.2, WIDE)
        level = math.log(1e4) / 0.2
        log_term = math.log(level / 0.1)
        assert math.isclose(privacy, math.log(level) * log_term / 0.2, rel_tol=1e-12)
        assert math.isclose(statistical, log_term / 0.04, rel_tol=1e-12)

    def test_best_of_both_pinned(self):
        for lam, want in [(0.2, 1527), (1.0, 1527), (5.0, 9236)]:
            report = required_n(SampleBound.BEST_OF_BOTH, lam=lam, **BASE)
            assert report.n_required == want

    def test_best_of_both_branches(self):
        # small rates price only the quantile branch, large rates only the
        # MLE branch, middle rates both; the middle can never be cheaper
        small = required_n(SampleBound.BEST_OF_BOTH, lam=1.0, **BASE).n_required
        mid = required_n(SampleBound.BEST_OF_BOTH, lam=2.0, **BASE).n_required
        assert mid >= small

    def test_learn_without_bounds_composition(self):
        inputs = dict(alpha=0.2, beta=0.1, epsilon=1.0, delta=1e-6, lam=1.0)
        report = required_n(SampleBound.LEARN_WITHOUT_BOUNDS, **inputs)
        finder = required_n(SampleBound.BOUNDS_FINDER, epsilon=0.5, delta=1e-6,
                            beta=0.05).n_required
        learner = required_n(SampleBound.BEST_OF_BOTH, alpha=0.2, beta=0.05,
                             epsilon=0.5, lam=1.0, bounds=(0.5, 2.0)).n_required
        assert report.n_required == 28008
        assert report.n_required >= max(finder, learner) - 1

    def test_pareto_pinned_and_dominates_stages(self):
        report = required_n(SampleBound.PARETO_LEARNING, lam=2.0, **BASE)
        assert report.n_required == 28081
        # the pivot search's own bound (about 4,400 here); the tail term
        # dominates
        pivot = math.ceil(_band_search_value(
            0.5, 0.05, _pivot_grid(0.2, RateBounds(*WIDE), DEFAULT_TAIL_QUANTILE)))
        bob = required_n(SampleBound.BEST_OF_BOTH, alpha=0.2, beta=0.05,
                         epsilon=0.5, lam=2.0, bounds=WIDE).n_required
        assert report.n_required >= pivot
        assert report.n_required >= bob  # the tail thinning only inflates
        assert report.inputs["tau"] == pytest.approx(1.0 / (4.0 * math.log(7.0)))


class TestRequiredNInterface:
    def test_missing_inputs_are_named(self):
        cases = [
            (SampleBound.SVT_QUANTILE, dict(epsilon=1.0), ["beta", "bounds"]),
            (SampleBound.CLIPPED_MLE, dict(epsilon=1.0, beta=0.1, alpha=0.2),
             ["lam", "clip_r"]),
            (SampleBound.MLE_LEARNING, dict(**BASE), ["lam"]),
            (SampleBound.BEST_OF_BOTH, dict(alpha=0.2, beta=0.1, epsilon=1.0),
             ["lam", "bounds"]),
            (SampleBound.BOUNDS_FINDER, dict(epsilon=1.0, beta=0.1), ["delta"]),
            (SampleBound.LEARN_WITHOUT_BOUNDS,
             dict(alpha=0.2, beta=0.1, epsilon=1.0), ["delta", "lam"]),
            (SampleBound.PARETO_LEARNING, dict(alpha=0.2, beta=0.1, epsilon=1.0),
             ["lam", "bounds"]),
        ]
        for bound_id, kwargs, missing in cases:
            with pytest.raises(IncompleteInputs) as exc_info:
                required_n(bound_id, **kwargs)
            for name in missing:
                assert name in str(exc_info.value)

    def test_inputs_recorded(self):
        report = required_n(SampleBound.SVT_QUANTILE, epsilon=2.0, beta=0.1,
                            bounds=(1.0, 10.0))
        assert report.inputs["epsilon"] == 2.0
        assert report.inputs["beta"] == 0.1
        assert isinstance(report.inputs["bounds"], RateBounds)
        assert "lam" not in report.inputs

    def test_exact_constant_flags(self):
        exact = {SampleBound.SVT_QUANTILE: dict(epsilon=1.0, beta=0.1, bounds=WIDE),
                 SampleBound.QUANTILE_SEARCH: BASE,
                 SampleBound.BOUNDS_FINDER: dict(epsilon=1.0, delta=1e-6, beta=0.1)}
        loose = {SampleBound.MLE_LEARNING: dict(lam=4.0, **BASE),
                 SampleBound.QUANTILE_LEARNING: BASE,
                 SampleBound.BEST_OF_BOTH: dict(lam=1.0, **BASE),
                 SampleBound.PARETO_LEARNING: dict(lam=2.0, **BASE)}
        for bound_id, kwargs in exact.items():
            assert required_n(bound_id, **kwargs).exact_constants
        for bound_id, kwargs in loose.items():
            assert not required_n(bound_id, **kwargs).exact_constants

    def test_out_of_regime_inputs(self):
        # every bound rejects a value outside the range its guarantee holds
        # on for each input it reads, and ignores the inputs it does not read
        good = dict(alpha=0.2, beta=0.1, epsilon=1.0, delta=1e-6, lam=4.0,
                    bounds=WIDE, clip_r=3.0)
        bad = [("epsilon", -1.0), ("epsilon", 0.0), ("epsilon", math.inf),
               ("epsilon", math.nan), ("alpha", 0.0), ("alpha", 1.0),
               ("alpha", 5.0), ("beta", 0.0), ("beta", 1.0), ("beta", math.nan),
               ("lam", 0.0), ("lam", -1.0), ("lam", math.inf), ("lam", math.nan),
               ("clip_r", 0.0), ("clip_r", -1.0), ("clip_r", math.inf),
               ("clip_r", math.nan), ("delta", 0.0), ("delta", 1.0),
               ("delta", 2.0), ("delta", math.nan), ("tau", 0.05),
               ("tau", 0.3), ("tau", 1.5), ("tau", math.nan)]
        checked = 0
        for bound_id, (_, names, _) in analysis._CALCULATORS.items():
            for name, value in bad:
                if name in names:
                    with pytest.raises(OutOfRegime, match=name):
                        required_n(bound_id, **{**good, name: value})
                    checked += 1
                else:
                    required_n(bound_id, **{**good, name: value})
        assert checked == 130

    def test_mle_fixed_point_reports_no_convergence(self, monkeypatch):
        def never_in_regime(*args):
            raise RegimeViolation("clipping level too low")

        monkeypatch.setattr(analysis, "_clipped_mle_value", never_in_regime)
        with pytest.raises(RegimeViolation, match="did not converge"):
            required_n(SampleBound.MLE_LEARNING, lam=4.0, **BASE)

    def test_degenerate_bounds_tuple(self):
        with pytest.raises(InvalidRatio):
            required_n(SampleBound.SVT_QUANTILE, epsilon=1.0, beta=0.1,
                       bounds=(2.0, 2.0))


class TestMonotonicity:
    EPS_GRID = [0.1, 0.5, 1.0, 2.0, 10.0]
    ALPHA_GRID = [0.05, 0.1, 0.2, 0.4]
    BETA_GRID = [0.01, 0.05, 0.1, 0.3]

    def test_nonincreasing_in_epsilon(self):
        for bound_id, kwargs in [
            (SampleBound.SVT_QUANTILE, dict(beta=0.1, bounds=WIDE)),
            (SampleBound.QUANTILE_SEARCH, dict(alpha=0.2, beta=0.1, bounds=WIDE)),
            (SampleBound.QUANTILE_LEARNING, dict(alpha=0.2, beta=0.1, bounds=WIDE)),
            (SampleBound.BEST_OF_BOTH, dict(alpha=0.2, beta=0.1, bounds=WIDE, lam=1.0)),
            (SampleBound.BOUNDS_FINDER, dict(beta=0.1, delta=1e-6)),
            (SampleBound.MLE_LEARNING, dict(alpha=0.2, beta=0.1, bounds=WIDE, lam=4.0)),
        ]:
            ns = [required_n(bound_id, epsilon=e, **kwargs).n_required
                  for e in self.EPS_GRID]
            assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_nonincreasing_in_alpha(self):
        for bound_id, kwargs in [
            (SampleBound.QUANTILE_SEARCH, dict(epsilon=1.0, beta=0.1, bounds=WIDE)),
            (SampleBound.QUANTILE_LEARNING, dict(epsilon=1.0, beta=0.1, bounds=WIDE)),
        ]:
            ns = [required_n(bound_id, alpha=a, **kwargs).n_required
                  for a in self.ALPHA_GRID]
            assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_nonincreasing_in_beta(self):
        for bound_id, kwargs in [
            (SampleBound.SVT_QUANTILE, dict(epsilon=1.0, bounds=WIDE)),
            (SampleBound.QUANTILE_SEARCH, dict(epsilon=1.0, alpha=0.2, bounds=WIDE)),
            (SampleBound.BOUNDS_FINDER, dict(epsilon=1.0, delta=1e-6)),
        ]:
            ns = [required_n(bound_id, beta=b, **kwargs).n_required
                  for b in self.BETA_GRID]
            assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_lower_bound_nonincreasing_in_epsilon_and_alpha(self):
        bounds = (1.0, 1e4)
        ns = [lower_bound_n(0.1, 0.1, e, bounds) for e in self.EPS_GRID]
        assert all(a >= b for a, b in zip(ns, ns[1:]))
        ns = [lower_bound_n(a, 0.1, 1.0, bounds) for a in self.ALPHA_GRID]
        assert all(a >= b for a, b in zip(ns, ns[1:]))


class TestLowerUpperConsistency:
    def test_lower_never_exceeds_quantile_learning(self):
        for alpha in (0.1, 0.2):
            for eps in (0.5, 1.0):
                for ratio in (1e2, 1e4):
                    bounds = (1.0, ratio)
                    lower = lower_bound_n(alpha, 0.1, eps, bounds)
                    upper = required_n(SampleBound.QUANTILE_LEARNING, alpha=alpha,
                                       beta=0.1, epsilon=eps, bounds=bounds).n_required
                    assert lower <= upper


# The calculators whose constants are the source's explicit ones, checked
# against the harness: at the calculated n (no safety factor), 200 trials
# of the learner each prices must succeed in at least 1 - beta of them by
# the one-sided 95% Clopper-Pearson lower bound. The quantile search is
# quantile_learning's own bound; the bounds finder reads no bounds, so its
# rates may lie outside them.
SUFFICIENCY_CELLS = [
    *[(Learner.QUANTILE, SampleBound.QUANTILE_SEARCH, alpha, rate, n)
      for alpha, n in ((0.2, 941), (0.1, 2208)) for rate in (0.02, 0.5, 5.0, 60.0)],
    *[(Learner.BOUNDS_FINDER, SampleBound.BOUNDS_FINDER, 0.2, rate, 14979)
      for rate in (0.01, 1.0, 300.0)],
]


@pytest.mark.parametrize("learner, bound_id, alpha, rate, n", SUFFICIENCY_CELLS)
def test_exact_calculator_n_suffices(learner, bound_id, alpha, rate, n):
    from scipy import stats

    beta, trials = 0.1, 200
    assert required_n(bound_id, **{**BASE, "alpha": alpha, "delta": 1e-6}).n_required == n
    spec = ExperimentSpec(learner, alpha, beta, 1.0, delta=1e-6, bounds=RateBounds(*WIDE),
                          true_lambda=rate, n=n, trials=trials, base_seed=7)
    successes = round(run_experiment(spec).success_rate * trials)
    lower = stats.beta.ppf(0.05, successes, trials - successes + 1)
    assert lower >= 1.0 - beta, (successes, lower)


# Each learner that clips, on data of a rate its MLE route serves, and the
# calculator that prices it: (run, bound, rate, extra calculator inputs).
# The run takes (data, config, budget, rng); the Pareto ones see Pareto data.
CLIPPING_RUNS = {
    "mle": (learners.mle_learning, SampleBound.MLE_LEARNING, 5.0, {}),
    "best-of-both": (learners.best_of_both, SampleBound.BEST_OF_BOTH, 5.0, {}),
    "pareto-known-scale": (lambda d, c, b, r: learn_pareto_known_scale(d, 1.0, c, b, r),
                           SampleBound.MLE_LEARNING, 2.0, {}),
    # at shape 2 the coarse stage picks the quantile route
    "pareto": (learn_pareto, SampleBound.PARETO_LEARNING, 5.0, {}),
    "learn_without_bounds": (
        lambda d, c, b, r: learn_without_bounds(d, c.alpha, c.beta, b, r),
        SampleBound.LEARN_WITHOUT_BOUNDS, 5.0, {"delta": 1e-6}),
}


@pytest.mark.parametrize("case", CLIPPING_RUNS)
def test_clip_reads_the_priced_beta(case, monkeypatch):
    # the beta the learner clips at is the one its calculator prices the
    # clip at: both take it from the shares in learners.py
    run, bound_id, rate, extra = CLIPPING_RUNS[case]
    seen = {learners: [], analysis: []}
    for module, betas in seen.items():
        def recorded(q, n, theta, beta, betas=betas):
            betas.append(beta)
            return clipping_range(q, n, theta, beta)
        monkeypatch.setattr(module, "clipping_range", recorded)
    model = ParetoModel(1.0, rate) if case.startswith("pareto") else ExpModel(rate)
    config = learners.LearnerConfig(0.2, 0.1, RateBounds(*WIDE))
    estimate = run(sample(model, 20_000, RngStream(7)), config,
                   PrivacyBudget(1.0, extra.get("delta", 0.0)), RngStream(8))
    assert estimate.route is learners.Learner.MLE
    required_n(bound_id, lam=rate, **{**BASE, **extra})
    assert len(seen[learners]) == 1 and set(seen[analysis]) == set(seen[learners])


# The order-form calculators against the harness: at the calculated n (no
# safety factor), each learner must succeed in at least 1 - beta of its
# trials by the one-sided 95% Clopper-Pearson lower bound, at rates across
# its bounds and, for best_of_both, on both sides of its branch cutoff.
ORDER_FORM_CELLS = [
    *[(Learner.MLE, SampleBound.MLE_LEARNING, rate) for rate in (2.0, 8.0, 30.0)],
    *[(Learner.BEST_OF_BOTH, SampleBound.BEST_OF_BOTH, rate)
      for rate in (0.02, 0.5, 1.0, 2.0, 5.0, 60.0)],
    *[(None, SampleBound.LEARN_WITHOUT_BOUNDS, rate) for rate in (1e-3, 1.0, 1e3)],
]


@pytest.mark.parametrize("learner, bound_id, rate", ORDER_FORM_CELLS)
def test_order_form_n_suffices(learner, bound_id, rate):
    from scipy import stats

    alpha, beta = 0.2, 0.1
    inputs = {**BASE, "lam": rate}
    if learner is None:  # learn_without_bounds finds its own bounds
        del inputs["bounds"]
        inputs["delta"] = 1e-6
    n = required_n(bound_id, **inputs).n_required
    assert lower_bound_n(alpha, beta, 1.0, WIDE) < n
    if learner is None:
        trials, successes = 100, 0
        for i in range(trials):
            rng = RngStream(7, i)
            data = sample(ExpModel(rate), n, rng)
            try:
                estimate = learn_without_bounds(data, alpha, beta,
                                                PrivacyBudget(1.0, 1e-6), rng)
            except PrivexpError:
                continue
            successes += abs(estimate.lambda_hat / rate - 1.0) <= alpha
    else:
        trials = 200
        spec = ExperimentSpec(learner, alpha, beta, 1.0, bounds=RateBounds(*WIDE),
                              true_lambda=rate, n=n, trials=trials, base_seed=7)
        successes = round(run_experiment(spec).success_rate * trials)
    lower = stats.beta.ppf(0.05, successes, trials - successes + 1)
    assert lower >= 1.0 - beta, (n, successes, lower)


# The paper's adaptive claim at the BEST_OF_BOTH n (no safety factor): at
# rates across the bounds, best_of_both succeeds in at least as many trials
# as the better of the two routes run alone on the same n. It does not at
# 0.02 and 0.5, where it reads 0.985 and 0.995 against quantile's 0.99 and
# 1.0: after its coarse stage it runs the quantile route at 2/3 of epsilon.
FALLS_SHORT = pytest.mark.xfail(strict=True, reason="best_of_both below quantile alone")


@pytest.mark.parametrize("rate", [pytest.param(0.02, marks=FALLS_SHORT),
                                  pytest.param(0.5, marks=FALLS_SHORT), 2.0, 5.0, 60.0])
def test_best_of_both_matches_the_better_route(rate):
    n = required_n(SampleBound.BEST_OF_BOTH, lam=rate, **BASE).n_required
    success = {}
    for learner in (Learner.BEST_OF_BOTH, Learner.MLE, Learner.QUANTILE):
        spec = ExperimentSpec(learner, 0.2, 0.1, 1.0, bounds=RateBounds(*WIDE),
                              true_lambda=rate, n=n, trials=200, base_seed=7)
        success[learner] = run_experiment(spec).success_rate
    assert success[Learner.BEST_OF_BOTH] >= max(success[Learner.MLE],
                                                success[Learner.QUANTILE]), (n, success)
