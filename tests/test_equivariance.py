"""Scale equivariance of every learner.

Multiplying the data by c = 2^k and dividing the rate bounds by c must
scale each learner's output by c, bit for bit: rates by 1/c, Pareto scales
by c, Pareto shapes not at all. Powers of two scale every double exactly,
so a learner whose arithmetic is relative to its bounds takes the same
route, or raises the same refusal class, and returns the scaled values
exactly. Each side runs on a fresh RngStream(seed), so both draw the same
uniforms for the sample and for the noise.

Three learners are not equivariant and are marked as strict xfails, each
with an explicit example of its failure:
- best_of_both picks its route by comparing the coarse estimate with the
  absolute MLE_BRANCH_CUTOFF, so scaling moves a rate across it;
- learn_without_bounds runs best_of_both inside the bounds it finds;
- learn_pareto searches its pivot in a window built from the shape bounds
  alone, which does not move with the data's scale.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from privexp import (Estimate, ExpModel, LearnerConfig, ParetoEstimate, ParetoModel,
                     PrivacyBudget, PrivexpError, RateBounds, RngStream, best_of_both,
                     find_bounds, learn_pareto, learn_pareto_known_scale,
                     learn_without_bounds, mle_learning, quantile_learning, sample)
from privexp.dataset import Dataset

ALPHA, BETA = 0.2, 0.1
RATE_BOUNDS = (0.01, 100.0)
SHAPE_BOUNDS = RateBounds(0.5, 8.0)
XM, SHAPE = 1.0, 2.0
DELTA = 1e-6

K = st.integers(-40, 40)
SEEDS = st.integers(0, 2**32 - 1)
RATES = st.floats(0.05, 20.0)

ABSOLUTE_CUTOFF = pytest.mark.xfail(
    strict=True, reason="best_of_both routes on the absolute MLE_BRANCH_CUTOFF")
PIVOT_WINDOW = pytest.mark.xfail(
    strict=True, reason="the pivot window comes from the shape bounds alone")


def _config(bounds):
    return LearnerConfig(ALPHA, BETA, bounds)


# name -> (n, run(data, rate bounds, rng))
RATE_LEARNERS = {
    "mle_learning": (2_000, lambda d, b, r: mle_learning(
        d, _config(b), PrivacyBudget(1.0), r)),
    "quantile_learning": (2_000, lambda d, b, r: quantile_learning(
        d, _config(b), PrivacyBudget(1.0), r)),
    "best_of_both": (2_000, lambda d, b, r: best_of_both(
        d, _config(b), PrivacyBudget(1.0), r)),
    "find_bounds": (2_000, lambda d, b, r: find_bounds(
        d, PrivacyBudget(1.0, DELTA), r)),
    "learn_without_bounds": (20_000, lambda d, b, r: learn_without_bounds(
        d, ALPHA, BETA, PrivacyBudget(1.0, DELTA), r)),
}

# name -> run(data, c, rng); the known scale moves with the data
PARETO_LEARNERS = {
    "learn_pareto_known_scale": lambda d, c, r: learn_pareto_known_scale(
        d, XM * c, _config(SHAPE_BOUNDS), PrivacyBudget(1.0), r),
    "learn_pareto": lambda d, c, r: learn_pareto(
        d, _config(SHAPE_BOUNDS), PrivacyBudget(1.0), r),
}


def _outcome(run):
    """run's result, or the class of the PrivexpError it raised."""
    try:
        return run()
    except PrivexpError as exc:
        return type(exc)


def _both_sides(model, n, k, seed, noiseless, run):
    """run(data, c, rng) on the sample and on the sample times c = 2^k,
    each on a fresh stream of the same seed."""
    c = 2.0 ** k
    outcomes = []
    for scale in (1.0, c):
        rng = RngStream(seed, noiseless=noiseless)
        data = Dataset(sample(model, n, rng).values * scale)
        outcomes.append(_outcome(lambda: run(data, scale, rng)))
    return c, outcomes


def _rate_scaled(out, c):
    """A rate learner's output with every rate divided by c."""
    if isinstance(out, Estimate):
        coarse = None if out.coarse_estimate is None else out.coarse_estimate / c
        return replace(out, lambda_hat=out.lambda_hat / c, coarse_estimate=coarse)
    if isinstance(out, RateBounds):
        return RateBounds(out.lower / c, out.upper / c)
    return out  # None (no bin survived) or a refusal class


@pytest.mark.parametrize("name", [
    "mle_learning",
    "quantile_learning",
    pytest.param("best_of_both", marks=ABSOLUTE_CUTOFF),
    "find_bounds",
    pytest.param("learn_without_bounds", marks=ABSOLUTE_CUTOFF),
])
@given(rate=RATES, k=K, seed=SEEDS, noiseless=st.booleans())
@example(rate=5.0, k=3, seed=0, noiseless=False)
@example(rate=0.5, k=-40, seed=0, noiseless=True)
def test_rate_learner_is_scale_equivariant(name, rate, k, seed, noiseless):
    n, run = RATE_LEARNERS[name]
    lower, upper = RATE_BOUNDS
    c, (plain, scaled) = _both_sides(
        ExpModel(rate), n, k, seed, noiseless,
        lambda d, scale, r: run(d, RateBounds(lower / scale, upper / scale), r))
    assert scaled == _rate_scaled(plain, c)


@pytest.mark.parametrize("name", [
    "learn_pareto_known_scale",
    pytest.param("learn_pareto", marks=PIVOT_WINDOW),
])
@given(k=K, seed=SEEDS, noiseless=st.booleans())
@example(k=3, seed=0, noiseless=False)
@example(k=-3, seed=0, noiseless=True)
def test_pareto_learner_is_scale_equivariant(name, k, seed, noiseless):
    c, (plain, scaled) = _both_sides(ParetoModel(XM, SHAPE), 20_000, k, seed,
                                     noiseless, PARETO_LEARNERS[name])
    if isinstance(plain, ParetoEstimate):
        plain = replace(plain, scale_hat=plain.scale_hat * c)
    assert scaled == plain
