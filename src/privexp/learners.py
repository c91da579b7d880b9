"""The exponential-rate learners.

Three pure-DP strategies, all returning a multiplicative (1 +- alpha)
estimate of the rate when given enough samples:

- private_mle / mle_learning: clip to a privately estimated range, release
  the noisy clipped mean, invert. Strong when the rate is large (samples
  are small, so the range and hence the noise scale is small).
- quantile_learning: noisy binary search for the (1 - 1/e)-quantile, whose
  reciprocal is exactly the rate. Strong when the rate is small.
- best_of_both: spends a third of the budget on a coarse estimate to pick
  between the two routes.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import Dataset, RateBounds, check_bounds
from .errors import IncompleteInputs, NonpositiveMean, OutOfRegime, SearchExhausted, check_in
from .privacy import NoiseScale, PrivacyBudget, RngStream, sample_laplace
from .quantile import (SearchGrid, _band_search, _check_alpha, clipping_range, svt_grid,
                       svt_quantile)

__all__ = ["Route", "LearnerConfig", "Estimate", "private_mle",
           "mle_learning", "quantile_learning", "best_of_both"]

# Target CDF level for quantile_learning: F(1/rate) = 1 - 1/e exactly.
_QUANTILE_LEVEL = 1.0 - 1.0 / math.e

# Quantile level used by the MLE pipeline's range-estimation stage.
MLE_RANGE_THETA = 0.1

# The composed learners' shares by stage of epsilon and of beta, split by the
# learners and priced by the calculators: mle_learning (range scan, noisy
# mean), best_of_both (coarse, main), learn_pareto (pivot, shape) and
# learn_without_bounds (bounds, adaptive), whose delta all goes to bounds.
MLE_SPLIT = (0.5, 0.5)
BEST_OF_BOTH_SPLIT = (1.0 / 3.0, 2.0 / 3.0)
PARETO_SPLIT = (0.5, 0.5)
WITHOUT_BOUNDS_SPLIT = (0.5, 0.5)
WITHOUT_BOUNDS_DELTA_SPLIT = (1.0, 0.0)
"""Each stage of a composed learner runs at the same share of beta as of
epsilon, and fails with at most that probability; the shares sum to 1, so
a union bound over the stages that run gives the pipeline 1 - beta. The
calculators price each stage at the same shares, so they spend beta too:

- mle_learning: the range scan misses the (1 - theta)-quantile w.p. at
  most beta/2, and given the scan's quantile the noisy clipped mean misses
  its band w.p. at most beta/2 (Laplace tail and sampling deviation).
- best_of_both: the coarse stage beta/3, then the one route it picks 2beta/3.
- learn_pareto: the pivot search beta/2, the shape stage (best_of_both)
  beta/2. learn_without_bounds: the bounds beta/2, best_of_both beta/2.

The clip takes the noisy mean's share, beta' = MLE_SPLIT[1] beta.
clipping_range's coverage event (all n values below R, probability
1 - 2 beta') is not a term of the bound: the mean's bound
(analysis._clipped_mle_value) charges the clipping bias
1/lam - E[min(X, R)] = e^(-lam R)/lam against alpha/2 instead of asking
that no value be clipped, so beta' only sizes R.
"""

# best_of_both's coarse accuracy: a factor-3/2 estimate separates the branches.
COARSE_ALPHA = 0.5
MLE_BRANCH_CUTOFF = 2.0

# Values per block of _exact_sum, which works in two buffers of one block.
# Fewer, longer numpy calls pay: clipped sums of 36,944 and 112,324 values
# took 0.17 and 0.52 ms in 2^14-value blocks, 0.14 and 0.36 ms in 2^15 and
# in these (medians, 2-core Xeon VM). Each call also hands the GIL over;
# with two threads each summing its own 131,072 values, a size the harness
# runs threaded, 2^14 and 2^15-value blocks took 1.73 and 0.95 ms a sum
# against 0.56 ms for these. The buffers are kept per thread across calls,
# so a sum allocates nothing of its size: freeing and re-allocating them
# cost 88 page faults per 20,424-value MLE release. They grow to at most
# one block each, 1 MB a thread.
_SUM_BLOCK = 1 << 16
_sum_buffers = threading.local()
_UNIT = 1 << 1074  # 1.0 in _exact_sum's units


class Route(str, Enum):
    MLE = "mle"
    QUANTILE = "quantile"


@dataclass(frozen=True)
class LearnerConfig:
    """Shared learner knobs: target error, failure probability, rate bounds."""

    alpha: float
    beta: float
    bounds: RateBounds

    def __post_init__(self):
        check_in("alpha", self.alpha, 0.0, 1.0)
        check_in("beta", self.beta, 0.0, 1.0)
        # None is accepted here and refused by the learners, which read the
        # bounds: a config may be built for a run that never does.
        if self.bounds is not None:
            check_bounds(self.bounds, pairs=False)


@dataclass(frozen=True)
class Estimate:
    """Learner output: the rate estimate, the route that produced it, and the
    coarse first-stage estimate when one was made."""

    lambda_hat: float
    route: Route
    coarse_estimate: Optional[float]


def private_mle(data: Dataset, clip_r: float, budget: PrivacyBudget,
                rng: RngStream) -> float:
    """1 / (noisy clipped mean): clip at clip_r, add Laplace(clip_r/(eps*n)).

    Raises NonpositiveMean when the noise swamps the mean; clamping instead
    would silently break the multiplicative guarantee. Raises OutOfRegime
    when the clipped sum exceeds the largest double.
    """
    check_in("clipping level clip_r", clip_r, 0.0, math.inf)
    budget.consume()
    n = data.n
    # The sum is exact and rounded once, so the released mean does not
    # depend on summation order and equals math.fsum's bit for bit; the
    # oracle tests rely on that.
    try:
        clipped_mean = _exact_sum(data.values, clip_r) / n
    except OverflowError:
        raise OutOfRegime(f"the sum of n = {n} values clipped at clip_r = "
                          f"{clip_r!r} exceeds the largest double") from None
    scale = NoiseScale(clip_r / (budget.epsilon * n))
    noisy_mean = clipped_mean + sample_laplace(scale, rng)
    if noisy_mean <= 0:
        raise NonpositiveMean(f"noisy clipped mean {noisy_mean} <= 0; "
                              f"n too small for this budget")
    return 1.0 / noisy_mean


def _exact_sum(values: np.ndarray, cap: float = math.inf) -> float:
    """The sum of min(x, cap) over nonnegative finite float64 values,
    correctly rounded (half to even) exactly like math.fsum.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I: faithful rounding", SIAM J. Sci. Comput. 2008), one
    block of k <= _SUM_BLOCK values at a time, in two buffers of one block
    kept per thread across calls, so the peak memory is bounded (1 MB)
    whatever n.
    - sigma: every x in the block is below 2^e (e from frexp of the largest)
      and k < 2^m (m = k.bit_length()); sigma = 2^s, s = e + m.
    - q = (x + sigma) - sigma is x rounded to a multiple of ulp(sigma)/2,
      with q <= 2^e. The k values q sum to less than sigma, on that grid, so
      their float sum is exact in any order. The remainder x - q is exact
      too, and at most 2^(s-53) in size.
    - So the float sum of the k remainders is off by at most
      (k-1) 2^-53 / (1 - (k-1) 2^-53) * k 2^(s-53) < k^2 2^(s-105).
    - The check: the exact q-sums plus the remainder sums, once less and once
      more the summed bounds, are rounded. When both round to one double, so
      does the exact sum, which lies between them: that double is the answer.
    - When they do not, when the upper one overflows, or when a block's sigma
      would pass 2^1023, the answer is math.fsum of the clipped values, fed
      block by block from the first buffer; no sum of the benchmark's
      samples needs it.
    The parts are added as integers counting 2^-1074, which every double is
    a whole number of, and rounded by int true division. That raises
    OverflowError past the largest double, as math.fsum does.
    """
    size = min(values.size, _SUM_BLOCK)
    buffers = getattr(_sum_buffers, "blocks", None)
    if buffers is None or buffers[0].size < size:
        buffers = _sum_buffers.blocks = (np.empty(size), np.empty(size))
    exact = approx = bound = 0  # the q-sums, the remainder sums, their bound
    for start in range(0, values.size, _SUM_BLOCK):
        block = values[start:start + _SUM_BLOCK]
        k = block.size
        r = np.minimum(block, cap, out=buffers[0][:k])
        top = r.max()
        if top == 0:
            continue
        s = math.frexp(top)[1] + k.bit_length()
        if s > 1023:
            return math.fsum(_clipped(values, cap, buffers[0]))
        sigma = math.ldexp(1.0, s)
        q = np.subtract(np.add(r, sigma, out=buffers[1][:k]), sigma, out=buffers[1][:k])
        exact += _units(float(q.sum()))
        approx += _units(float(np.subtract(r, q, out=r).sum()))
        bound += _units(math.ldexp(k * k, s - 105))
    low = (exact + approx - bound) / _UNIT
    try:
        high = (exact + approx + bound) / _UNIT
    except OverflowError:
        high = math.inf
    return low if low == high else math.fsum(_clipped(values, cap, buffers[0]))


def _clipped(values: np.ndarray, cap: float, buffer: np.ndarray):
    """min(x, cap) for each value, clipped block by block into buffer."""
    for start in range(0, values.size, _SUM_BLOCK):
        block = values[start:start + _SUM_BLOCK]
        yield from np.minimum(block, cap, out=buffer[:block.size])


def _units(x: float) -> int:
    """x as an exact whole number of 2^-1074."""
    num, den = x.as_integer_ratio()
    return (num << 1074) // den


def mle_learning(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                 rng: RngStream) -> Estimate:
    """Range estimation, then private MLE, at the shares of MLE_SPLIT. Raises
    SearchExhausted, naming the grid, when the range scan passes every
    position."""
    grid = svt_grid(config.bounds, MLE_RANGE_THETA)
    range_budget, mle_budget = budget.split(MLE_SPLIT)
    quantile = svt_quantile(data, grid, range_budget, rng)
    if quantile is None:
        raise SearchExhausted(f"{grid.name}: the scan passed every position; "
                              "the rate below the bounds or n too small")
    clip_r = clipping_range(quantile, data.n, MLE_RANGE_THETA, MLE_SPLIT[1] * config.beta)
    lam = private_mle(data, clip_r, mle_budget, rng)
    return Estimate(lam, Route.MLE, None)


def quantile_learning(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                      rng: RngStream) -> Estimate:
    """Noisy binary search over _search_grid for the (1 - 1/e)-quantile
    position. Adjacent positions are rates one accuracy step apart, and a
    position inside the band (1 - 1/e) +- alpha/(2e) is within (1 +- alpha)
    of 1/rate, so its reciprocal is returned."""
    position = _band_search(data, _search_grid(config.alpha, config.bounds), budget, rng)
    return Estimate(1.0 / position, Route.QUANTILE, None)


# The grids of recent (alpha, bounds) pairs, by value: an experiment's
# trials, best_of_both's coarse stage and the calculators share one.
@functools.lru_cache(maxsize=128)
def _search_grid(alpha: float, bounds: RateBounds) -> SearchGrid:
    """quantile_learning's grid: from 1/upper past 1/lower with ratio
    1/(1 - alpha/2), around the level 1 - 1/e with half-band alpha/(2e)."""
    if bounds is None:
        raise IncompleteInputs("rate bounds are needed, got None")
    _check_alpha(alpha, "the quantile search")
    step = 1.0 / (1.0 - alpha / 2.0)
    return SearchGrid(f"the quantile search grid of {bounds} at alpha = {alpha!r}",
                      1.0 / bounds.upper, step, math.log(bounds.ratio) / math.log(step),
                      _QUANTILE_LEVEL, alpha / (2.0 * math.e))


def _best_of_both_grids(alpha: float, bounds: RateBounds) -> tuple[SearchGrid, SearchGrid]:
    """best_of_both's coarse and quantile-route grids, built with the MLE
    route's SVT grid, so that bounds either route would refuse are refused
    whatever route the data takes."""
    quantile_grid = _search_grid(alpha, bounds)  # first, for its alpha check
    svt_grid(bounds, MLE_RANGE_THETA)
    return _search_grid(COARSE_ALPHA, bounds), quantile_grid


def best_of_both(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                 rng: RngStream) -> Estimate:
    """Coarse estimate at (eps/3, beta/3) picks the route; the winner runs
    at (2 eps/3, 2 beta/3). A search of either stage that finds no position
    raises SearchExhausted naming its grid."""
    coarse_grid, _ = _best_of_both_grids(config.alpha, config.bounds)
    coarse_budget, main_budget = budget.split(BEST_OF_BOTH_SPLIT)
    lambda_0 = 1.0 / _band_search(data, coarse_grid, coarse_budget, rng)
    if lambda_0 >= MLE_BRANCH_CUTOFF:
        main_config = replace(config, beta=BEST_OF_BOTH_SPLIT[1] * config.beta)
        inner = mle_learning(data, main_config, main_budget, rng)
    else:
        inner = quantile_learning(data, config, main_budget, rng)
    return Estimate(inner.lambda_hat, inner.route, lambda_0)
