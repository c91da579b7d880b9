"""The numeric parameter contract: every real-valued parameter is checked by
errors.check_in, which accepts an int or a float (never a bool) inside the
parameter's interval and raises the site's named PrivexpError otherwise."""

import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from privexp.analysis import (_CALCULATORS, _PACKING_MAX_RATES, SampleBound, build_packing,
                              lower_bound_n, required_n)
from privexp.bounds import learn_without_bounds, noisy_histogram
from privexp.dataset import Dataset, RateBounds
from privexp.distributions import (ExpModel, ParetoModel, exp_tv, exp_tv_crossing,
                                   pareto_kl_equal_scale, sample, separation_T)
from privexp.errors import (BadSplit, IncompleteInputs, InputError, InvalidRate,
                            InvalidRatio, InvalidScale, InvalidShape, OutOfRegime,
                            PrivexpError, RegimeViolation, check_in)
from privexp.harness import ExperimentSpec, Learner, run_experiment, write_sample
from privexp.learners import (_ALPHA_MIN, LearnerConfig, _search_grid, best_of_both,
                              mle_learning, private_mle, quantile_learning)
from privexp.pareto import _pivot_grid, learn_pareto, learn_pareto_known_scale, log_transform
from privexp.privacy import NoiseScale, PrivacyBudget, RngStream
from privexp.quantile import QuantileResult, clipping_range, svt_grid, svt_quantile

BOUNDS = RateBounds(0.5, 5.0)
CALC = dict(alpha=0.2, beta=0.1, epsilon=1.0, delta=1e-6, lam=4.0,
            bounds=(0.01, 100.0), clip_r=3.0)
DATA = Dataset([1.0, 2.0, 3.0, 4.0])
PARETO_DATA = sample(ParetoModel(1.0, 2.0), 4000, RngStream(3))
EXP_DATA = sample(ExpModel(1.0), 20000, RngStream(4))
SPEC = ExperimentSpec(Learner.QUANTILE, 0.2, 0.1, 1.0, bounds=RateBounds(0.1, 10.0),
                      true_lambda=1.0, trials=1)


def calc(bound, name):
    return lambda v: required_n(bound, **{**CALC, name: v})


def pareto_run(tau):
    return learn_pareto(PARETO_DATA, LearnerConfig(0.2, 0.1, BOUNDS),
                        PrivacyBudget(1.0), RngStream(0, noiseless=True), tau=tau)


# id -> (entry point taking the value, error class, word the message names,
#        in-range values: an int (None when the interval holds none) and a
#        float, one value outside the interval)
SITES = {
    "required_n-epsilon": (calc(SampleBound.CLIPPED_MLE, "epsilon"),
                           OutOfRegime, "epsilon", 1, 1.0, -1.0),
    "required_n-lam": (calc(SampleBound.CLIPPED_MLE, "lam"),
                       OutOfRegime, "lam", 4, 4.0, 0.0),
    "required_n-clip_r": (calc(SampleBound.CLIPPED_MLE, "clip_r"),
                          OutOfRegime, "clip_r", 3, 3.0, -3.0),
    "required_n-alpha": (calc(SampleBound.QUANTILE_SEARCH, "alpha"),
                         OutOfRegime, "alpha", None, 0.2, 1.0),
    "required_n-beta": (calc(SampleBound.QUANTILE_SEARCH, "beta"),
                        OutOfRegime, "beta", None, 0.1, 0.0),
    "required_n-delta": (calc(SampleBound.BOUNDS_FINDER, "delta"),
                         OutOfRegime, "delta", None, 1e-6, 0.0),
    "required_n-tau": (calc(SampleBound.PARETO_LEARNING, "tau"),
                       OutOfRegime, "tau", None, 0.2, 0.3),
    "lower_bound_n-alpha": (lambda v: lower_bound_n(v, 0.1, 1.0, BOUNDS),
                            OutOfRegime, "alpha", None, 0.1, 0.5),
    "lower_bound_n-beta": (lambda v: lower_bound_n(0.1, v, 1.0, BOUNDS),
                           OutOfRegime, "beta", None, 0.1, 0.5),
    "lower_bound_n-epsilon": (lambda v: lower_bound_n(0.1, 0.1, v, BOUNDS),
                              OutOfRegime, "epsilon", 1, 1.0, 0.0),
    "build_packing": (lambda v: build_packing(BOUNDS, v),
                      OutOfRegime, "alpha", None, 0.2, 0.5),
    "RateBounds-lower": (lambda v: RateBounds(v, 10.0),
                         InvalidRatio, "lower", 1, 1.0, 0.0),
    "RateBounds-upper": (lambda v: RateBounds(0.5, v),
                         InvalidRatio, "upper", 1, 1.0, -1.0),
    "ExpModel": (ExpModel, InvalidRate, "rate", 1, 1.0, 0.0),
    "exp_tv": (lambda v: exp_tv(v, 3.0), InvalidRate, "lambda1", 2, 2.0, -2.0),
    "exp_tv_crossing": (lambda v: exp_tv_crossing(3.0, v),
                        InvalidRate, "lambda2", 2, 2.0, 0.0),
    "ParetoModel-scale": (lambda v: ParetoModel(v, 2.0),
                          InvalidScale, "scale", 1, 1.0, 0.0),
    "ParetoModel-shape": (lambda v: ParetoModel(1.0, v),
                          InvalidShape, "shape", 2, 2.0, -2.0),
    "separation_T": (separation_T, InvalidRatio, "ratio", 2, 2.0, 0.5),
    "pareto_kl_equal_scale": (lambda v: pareto_kl_equal_scale(v, 2.0),
                              InvalidShape, "alpha1", 1, 1.0, 0.0),
    "LearnerConfig-alpha": (lambda v: LearnerConfig(v, 0.1, BOUNDS),
                            OutOfRegime, "alpha", None, 0.2, 1.0),
    "LearnerConfig-beta": (lambda v: LearnerConfig(0.2, v, BOUNDS),
                           OutOfRegime, "beta", None, 0.1, 0.0),
    "private_mle": (lambda v: private_mle(DATA, v, PrivacyBudget(1.0),
                                          RngStream(0, noiseless=True)),
                    OutOfRegime, "clipping", 2, 2.0, -1.0),
    "log_transform": (lambda v: log_transform(DATA, v),
                      OutOfRegime, "pivot", 1, 1.0, 0.0),
    "learn_pareto": (pareto_run, OutOfRegime, "tau", None, 0.2, 0.05),
    "NoiseScale": (NoiseScale, InvalidScale, "scale", 1, 1.0, 0.0),
    "PrivacyBudget-epsilon": (PrivacyBudget, OutOfRegime, "epsilon", 1, 1.0, 0.0),
    "PrivacyBudget-delta": (lambda v: PrivacyBudget(1.0, v),
                            OutOfRegime, "delta", 0, 0.1, 1.0),
    "split-fraction": (lambda v: PrivacyBudget(1.0).split([v]),
                       BadSplit, "fraction", 1, 1.0, 0.0),
    "split-delta-fraction": (
        lambda v: PrivacyBudget(1.0, 0.1).split([1.0], delta_fractions=[v]),
        BadSplit, "delta fraction", 1, 1.0, -1.0),
    "noisy_histogram": (lambda v: noisy_histogram(DATA, PrivacyBudget(1.0, v),
                                                  RngStream(0)),
                        OutOfRegime, "delta", None, 1e-3, 0.0),
    "learn_without_bounds": (
        lambda v: learn_without_bounds(EXP_DATA, 0.2, 0.1, PrivacyBudget(1.0, v),
                                       RngStream(0, noiseless=True)),
        OutOfRegime, "delta", None, 1e-3, 0.0),
    "experiment-delta": (lambda v: run_experiment(replace(SPEC, delta=v)),
                         OutOfRegime, "delta", 0, 0.1, 1.0),
    "experiment-safety_factor": (
        lambda v: run_experiment(replace(SPEC, safety_factor=v)),
        OutOfRegime, "safety_factor", 4, 4.0, 0.0),
    "svt_quantile": (lambda v: svt_quantile(DATA, BOUNDS, v, PrivacyBudget(1.0),
                                            RngStream(0)),
                     OutOfRegime, "theta", None, 0.5, 0.95),
    "clipping_range": (lambda v: clipping_range(QuantileResult(1.0, 0), 10, 0.1, v),
                       OutOfRegime, "beta", 1, 0.1, 0.0),
}


@pytest.mark.parametrize("site", SITES)
def test_refused_with_the_sites_named_error(site):
    entry, error, word, _, good, outside = SITES[site]
    for bad in (True, False, "1", None, 10**400, -10**400, math.nan, math.inf,
                -math.inf, np.float32(0.5), np.float32(good), outside):
        # required_n reads None as an input not given
        expected = (IncompleteInputs if bad is None and site.startswith("required_n")
                    else error)
        with pytest.raises(expected) as exc_info:
            entry(bad)
        assert type(exc_info.value) is expected, bad
        assert word in str(exc_info.value), bad


def known_scale_run(x_m):
    return learn_pareto_known_scale(PARETO_DATA, x_m, LearnerConfig(0.2, 0.1, BOUNDS),
                                    PrivacyBudget(1.0), RngStream(0, noiseless=True))


# Outside input refused by name where it enters, before numpy or a later
# stage sees it: id -> (call, error class, word the message names).
# Integers (sizes, seeds, stream ids) are ints, not bools, in a closed
# range; a float is refused, not truncated.
REFUSALS = {
    "Dataset-string": (lambda: Dataset(["a"]), InputError, "real numbers"),
    "Dataset-ragged": (lambda: Dataset([[1.0], [2.0, 3.0]]), InputError, "real numbers"),
    **{f"known-scale-{x_m!r}": (lambda x_m=x_m: known_scale_run(x_m), InvalidScale, "x_m")
       for x_m in ("1", -1.0, 0.0, math.nan, True, math.inf)},
    "build_packing-tuple": (lambda: build_packing((1.0, 0.1), 0.2), InvalidRatio, "lower"),
    "RngStream-seed": (lambda: RngStream(-1), OutOfRegime, "seed"),
    "RngStream-seed-float": (lambda: RngStream(2.5), OutOfRegime, "seed"),
    "RngStream-stream_id": (lambda: RngStream(0, -1), OutOfRegime, "stream_id"),
    "experiment-base_seed": (lambda: run_experiment(replace(SPEC, n=10, base_seed=-1)),
                             OutOfRegime, "seed"),
    **{f"sample-n-{n!r}": (lambda n=n: sample(ExpModel(1.0), n, RngStream(0)),
                           OutOfRegime, "n must")
       for n in (2.5, "3", 10**30, -1, True)},
    "write_sample-n": (lambda: write_sample(os.devnull, ExpModel(1.0), 2.5, 0),
                       OutOfRegime, "n must"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_outside_input_refused_by_name(case):
    call, error, word = REFUSALS[case]
    with pytest.raises(error, match=word) as exc_info:
        call()
    assert type(exc_info.value) is error


@pytest.mark.parametrize("site", SITES)
def test_in_range_int_float_and_float64_accepted(site):
    entry, _, _, whole, good, _ = SITES[site]
    for value in (whole, good, np.float64(good)):
        if value is not None:
            entry(value)


# LearnerConfig.bounds is not a number: bounds of another type are refused
# when the config is built, and a config built without bounds (None) by
# every learner, since only a run that reads them needs them.
LEARNERS = {
    "mle_learning": mle_learning,
    "quantile_learning": quantile_learning,
    "best_of_both": best_of_both,
    "learn_pareto": learn_pareto,
    "learn_pareto_known_scale":
        lambda d, c, b, r: learn_pareto_known_scale(d, 1.0, c, b, r),
}


@pytest.mark.parametrize("learner", LEARNERS)
def test_config_without_bounds_refused_by_every_learner(learner):
    config = LearnerConfig(0.2, 0.1, None)
    with pytest.raises(IncompleteInputs, match="bounds"):
        LEARNERS[learner](PARETO_DATA, config, PrivacyBudget(1.0),
                          RngStream(0, noiseless=True))


@pytest.mark.parametrize("bounds", [(0.1, 10.0), [0.1, 10.0], "0.1-10"])
def test_config_bounds_of_another_type_refused(bounds):
    with pytest.raises(InputError, match="RateBounds"):
        LearnerConfig(0.2, 0.1, bounds)


# Positive doubles, log-uniform over the binades from the smallest subnormal
# to the largest double, and those ends themselves.
POSITIVE_DOUBLES = st.one_of(
    st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
              st.integers(-1074, 1023)),
    st.sampled_from([5e-324, sys.float_info.min, sys.float_info.max]))
SMALL_PARETO = sample(ParetoModel(1.0, 2.0), 200, RngStream(5))
BOUNDS_CALCULATORS = [bound for bound, (_, names, _) in _CALCULATORS.items()
                      if "bounds" in names]


# Each learner that reads bounds and the calculators that price it.
PRICED_BY = {
    "quantile_learning": (SampleBound.QUANTILE_SEARCH, SampleBound.QUANTILE_LEARNING),
    "best_of_both": (SampleBound.BEST_OF_BOTH,),
    "mle_learning": (SampleBound.MLE_LEARNING, SampleBound.SVT_QUANTILE),
    "learn_pareto": (SampleBound.PARETO_LEARNING,),
}


def outcome(call):
    """The class of the PrivexpError that call raises, or None if it returns."""
    try:
        call()
    except PrivexpError as exc:
        return type(exc)
    return None


@given(POSITIVE_DOUBLES, POSITIVE_DOUBLES)
@example(1e-310, 1e-3)
@example(5e-324, 1e-16)
def test_any_bounds_return_or_fail_by_name(a, b):
    # Bounds anywhere in the doubles are refused or used: every entry point
    # that reads them returns or raises a PrivexpError, never a bare one.
    # A learner and each calculator that prices it refuse the same bounds:
    # when either raises InvalidRatio, or the calculator raises at all, both
    # raise the same class. The learner alone may also fail on its data.
    try:
        bounds = RateBounds(min(a, b), max(a, b))
    except InvalidRatio:
        return
    config = LearnerConfig(0.2, 0.1, bounds)
    learned = {name: outcome(lambda: f(SMALL_PARETO, config, PrivacyBudget(1.0),
                                       RngStream(0)))
               for name, f in LEARNERS.items()}
    priced = {bound: outcome(lambda: required_n(bound, **{**CALC, "bounds": bounds}))
              for bound in BOUNDS_CALCULATORS}
    for call in (lambda: svt_grid(bounds, 0.5), lambda: build_packing(bounds, 0.2),
                 lambda: lower_bound_n(0.2, 0.1, 1.0, bounds)):
        outcome(call)
    for learner, bound_ids in PRICED_BY.items():
        for bound in bound_ids:
            if priced[bound] is not None or learned[learner] is InvalidRatio:
                assert priced[bound] is learned[learner], (learner, bound)


# Accepted alphas, log-uniform over the binades from the smallest subnormal
# up to 1, and the values whose calculators overflowed or divided by zero.
SMALL_ALPHAS = (1e-160, 1e-200, 1e-300, 5e-324, 2.0 ** -57)
ALPHAS = st.one_of(
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
              st.integers(-1073, 0)),
    st.sampled_from(SMALL_ALPHAS))
WIDE_BOUNDS = RateBounds(0.01, 100.0)


@given(ALPHAS, st.floats(0.1, 0.25))
@example(1e-160, 0.1)
@example(1e-200, 0.25)
@example(1e-300, 0.18)
@example(5e-324, 0.1)
@example(2.0 ** -57, 0.2)
def test_any_alpha_and_tau_return_or_fail_by_name(alpha, tau):
    # Every entry point that reads alpha (and tau) returns or raises a
    # PrivexpError at any accepted alpha, never a bare one.
    config = LearnerConfig(alpha, 0.1, WIDE_BOUNDS)
    learners = [*LEARNERS.values(),
                lambda d, c, b, r: learn_pareto(d, c, b, r, tau=tau),
                lambda d, c, b, r: learn_without_bounds(d, c.alpha, c.beta,
                                                        PrivacyBudget(1.0, 1e-6), r)]
    calls = [lambda f=f: f(SMALL_PARETO, config, PrivacyBudget(1.0), RngStream(0))
             for f in learners]
    calls += [lambda: _search_grid(alpha, WIDE_BOUNDS),
              lambda: _pivot_grid(alpha, WIDE_BOUNDS, tau),
              lambda: lower_bound_n(alpha, 0.1, 1.0, WIDE_BOUNDS)]
    calls += [lambda bound=bound: required_n(bound, **{**CALC, "alpha": alpha,
                                                       "tau": tau})
              for bound in _CALCULATORS]
    calls.append(lambda: build_packing(WIDE_BOUNDS, alpha))
    for call in calls:
        try:
            call()
        except PrivexpError:
            pass


@pytest.mark.parametrize("alpha", SMALL_ALPHAS)
def test_tiny_alphas_fail_by_name(alpha):
    # 1 + 8 alpha rounds to 1; below 1e-150 a term such as 1/alpha**2
    # overflows or divides by an underflowed zero
    with pytest.raises(OutOfRegime, match="packing"):
        build_packing(WIDE_BOUNDS, alpha)
    if alpha < 1e-150:
        with pytest.raises(RegimeViolation, match="quantile-learning"):
            required_n(SampleBound.QUANTILE_LEARNING, **{**CALC, "alpha": alpha})
    if alpha == 5e-324:
        with pytest.raises(RegimeViolation, match="packing-lower-bound"):
            lower_bound_n(alpha, 0.1, 1.0, WIDE_BOUNDS)


@pytest.mark.parametrize("lower, upper", [
    (1e-5, 5e-5), (1e-300, 1e-10), (1.0, 2.0 ** 1019), (1e300, 1.7e308),
    (1e-320, 1e-310), (1e-10, 1e298), (5e-324, 1.0), (1e-300, 1e300),
    (1e10, 1e20)])
def test_bounds_whose_grids_leave_the_doubles_are_invalid_ratio(lower, upper):
    # the pivot grid's step, window or step count, the SVT grid's top point,
    # or the ratio itself is not a finite double, or the pivot grid's step
    # rounds to 1 (the last bounds: every probe would be at 1/upper)
    with pytest.raises(InvalidRatio):
        learn_pareto(SMALL_PARETO, LearnerConfig(0.2, 0.1, RateBounds(lower, upper)),
                     PrivacyBudget(1.0), RngStream(0))
    with pytest.raises(InvalidRatio):
        required_n(SampleBound.PARETO_LEARNING, **{**CALC, "bounds": (lower, upper)})


@pytest.mark.parametrize("alpha", [1e-17, 2.0 ** -53, 5e-324])
def test_an_alpha_whose_search_step_rounds_to_one_is_out_of_regime(alpha):
    # 1/(1 - alpha/2) is exactly 1.0: the search grid would have no spacing
    config = LearnerConfig(alpha, 0.1, RateBounds(0.1, 10.0))
    with pytest.raises(OutOfRegime, match="alpha"):
        quantile_learning(EXP_DATA, config, PrivacyBudget(1.0), RngStream(0))
    with pytest.raises(OutOfRegime, match="alpha"):
        required_n(SampleBound.QUANTILE_SEARCH, **{**CALC, "alpha": alpha})


@pytest.mark.parametrize("lower, upper", [(1e-310, 1e-3), (5e-324, 1e-16)])
def test_bounds_whose_search_grid_tops_leave_the_doubles_are_refused(lower, upper):
    # 1/lower leaves the doubles, and with it the top of every grid searched
    # for a rate: the learners and each calculator pricing them refuse
    config = LearnerConfig(0.2, 0.1, RateBounds(lower, upper))
    for learner in (quantile_learning, best_of_both, mle_learning):
        with pytest.raises(InvalidRatio):
            learner(SMALL_PARETO, config, PrivacyBudget(1.0), RngStream(0))
    for bound in (SampleBound.QUANTILE_SEARCH, SampleBound.QUANTILE_LEARNING,
                  SampleBound.BEST_OF_BOTH, SampleBound.MLE_LEARNING,
                  SampleBound.SVT_QUANTILE):
        with pytest.raises(InvalidRatio):
            required_n(bound, **{**CALC, "bounds": (lower, upper)})


def test_grids_are_built_from_the_alpha_floor_and_refused_below_it():
    # At the floor each step's excess over 1 is within 2^-10 of the one alpha
    # asks for (the pivot's for shape bounds up to 1); at the next double
    # below, every grid built from alpha refuses it by name.
    floor, below = _ALPHA_MIN, math.nextafter(_ALPHA_MIN, 0.0)
    narrow = RateBounds(1.0, 1.0 + 2.0 ** -30)  # a packing of 129 rates at the floor
    tau = 0.25

    def off(step, excess):
        return abs((Fraction(step) - 1) / Fraction(excess) - 1)

    grid = _search_grid(floor, BOUNDS)
    assert off(grid.step, Fraction(floor) / 2 / (1 - Fraction(floor) / 2)) < 2.0 ** -10
    pivot = _pivot_grid(floor, RateBounds(0.5, 1.0), tau)
    assert off(pivot.step, math.expm1(pivot.half_band)) < 2.0 ** -10
    family = build_packing(narrow, floor)
    assert off(family.rates[1], 8 * Fraction(floor)) < 2.0 ** -10

    learners = {"quantile_learning": quantile_learning, "best_of_both": best_of_both,
                "learn_pareto": lambda d, c, b, r: learn_pareto(d, c, b, r, tau=tau)}
    bound_ids = (SampleBound.QUANTILE_SEARCH, SampleBound.QUANTILE_LEARNING,
                 SampleBound.BEST_OF_BOTH, SampleBound.PARETO_LEARNING)
    for alpha, refused in ((floor, False), (below, True)):
        config = LearnerConfig(alpha, 0.1, BOUNDS)
        calls = [lambda f=f: f(SMALL_PARETO, config, PrivacyBudget(1.0), RngStream(0))
                 for f in learners.values()]
        calls += [lambda bound=bound: required_n(bound, **{**CALC, "alpha": alpha,
                                                           "tau": tau})
                  for bound in bound_ids]
        for call in calls:
            assert (outcome(call) is OutOfRegime) == refused
    for site in (lambda: _search_grid(below, BOUNDS), lambda: _pivot_grid(below, BOUNDS, tau)):
        with pytest.raises(OutOfRegime, match="alpha"):
            site()
    with pytest.raises(OutOfRegime, match="packing"):
        build_packing(narrow, below)


def test_a_packing_past_its_size_limit_is_refused():
    # alpha = 2^-20 spaces the rates by 1 + 2^-17; a ratio of that to the
    # power 2^20 -+ 1/2 asks for 2^20 rates, built, or 2^20 + 1, refused
    alpha = 2.0 ** -20
    log_r = math.log(1.0 + 8.0 * alpha)
    family = build_packing(RateBounds(1.0, math.exp((_PACKING_MAX_RATES - 0.5) * log_r)),
                           alpha)
    assert len(family.rates) == _PACKING_MAX_RATES
    with pytest.raises(OutOfRegime, match="packing"):
        build_packing(RateBounds(1.0, math.exp((_PACKING_MAX_RATES + 0.5) * log_r)), alpha)
    # about 1.2e9 rates: refused before any is built
    with pytest.raises(OutOfRegime, match="packing"):
        build_packing(WIDE_BOUNDS, 1e-9)


class TestCheckIn:
    def test_returns_a_python_float(self):
        for value in (2, 2.0, np.float64(2.0)):
            x = check_in("x", value, 0.0, math.inf)
            assert type(x) is float and x == 2.0

    def test_ends_open_or_closed(self):
        for ends, low_ok, high_ok in (("()", False, False), ("[)", True, False),
                                      ("(]", False, True), ("[]", True, True)):
            for value, ok in ((0.0, low_ok), (1.0, high_ok), (0.5, True)):
                if ok:
                    assert check_in("x", value, 0.0, 1.0, ends=ends) == value
                else:
                    with pytest.raises(OutOfRegime):
                        check_in("x", value, 0.0, 1.0, ends=ends)

    def test_message_names_parameter_interval_and_value(self):
        with pytest.raises(InvalidRate) as exc_info:
            check_in("rate", -1, 0.0, math.inf, InvalidRate)
        assert str(exc_info.value) == "rate must lie in (0.0, inf), got -1"
        with pytest.raises(OutOfRegime) as exc_info:
            check_in("tau", "0.2", 0.1, 0.25, ends="[]")
        assert str(exc_info.value) == "tau must lie in [0.1, 0.25], got '0.2'"
