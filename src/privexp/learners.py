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
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import Dataset, RateBounds
from .errors import (
    CoarseFailed,
    IncompleteInputs,
    InputError,
    NonpositiveMean,
    OutOfRegime,
    RangeEstimationFailed,
    SearchExhausted,
    check_in,
)
from .privacy import NoiseScale, PrivacyBudget, RngStream, noisy_fraction_below, sample_laplace
from .quantile import SearchGrid, clipping_range, svt_grid, svt_quantile

__all__ = ["Route", "LearnerConfig", "Estimate", "private_mle",
           "mle_learning", "quantile_learning", "best_of_both"]

# Target CDF level for quantile_learning: F(1/rate) = 1 - 1/e exactly.
_QUANTILE_LEVEL = 1.0 - 1.0 / math.e

# Quantile level used by the MLE pipeline's range-estimation stage.
MLE_RANGE_THETA = 0.1

# The composed learners' budget shares by stage, split by the learners and
# priced by the calculators: mle_learning (range scan, noisy mean),
# best_of_both (coarse, main), learn_pareto (pivot, shape) and
# learn_without_bounds (bounds, adaptive), whose delta all goes to bounds.
MLE_SPLIT = (0.5, 0.5)
BEST_OF_BOTH_SPLIT = (1.0 / 3.0, 2.0 / 3.0)
PARETO_SPLIT = (0.5, 0.5)
WITHOUT_BOUNDS_SPLIT = (0.5, 0.5)
WITHOUT_BOUNDS_DELTA_SPLIT = (1.0, 0.0)
# best_of_both's coarse accuracy: a factor-3/2 estimate separates the branches.
COARSE_ALPHA = 0.5
MLE_BRANCH_CUTOFF = 2.0

# The smallest alpha any grid is built for; _check_alpha derives it.
_ALPHA_MIN = 2.0 ** -40

# Values per block of _exact_sum, which works in three buffers of one block.
# Per exponent, a block's 27 high and 26 low significand bits sum exactly
# in float64 (below 2^53 units) while it holds at most 2^26 values. Fewer,
# longer numpy calls pay: on one thread, 36,944 values took 0.31 ms a sum
# in 2^14-value blocks against 0.22 ms in these (medians, 2-core Xeon VM).
# Each call also hands the GIL over; with two threads each summing its own
# 131,072 values, a size the harness runs threaded, 2^14-value blocks took
# 2.70 ms a sum against 1.86 ms for these. The buffers are kept per thread
# across calls, so a sum allocates nothing of its size: freeing and
# re-allocating them cost 88 page faults per 20,424-value MLE release. They
# grow to at most one block each, 1.5 MB a thread.
_SUM_BLOCK = 1 << 16
_sum_buffers = threading.local()


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
        if not isinstance(self.bounds, (RateBounds, type(None))):
            raise InputError(f"bounds must be a RateBounds, got {self.bounds!r}")


@dataclass(frozen=True)
class Estimate:
    """Learner output: the rate estimate, the route that produced it, the
    coarse first-stage estimate when one was made, and the budget ledger."""

    lambda_hat: float
    route: Route
    coarse_estimate: Optional[float]
    budget_spent: PrivacyBudget


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

    Works one block of _SUM_BLOCK values at a time in three buffers of one
    block each, kept per thread across calls, so the peak memory is bounded
    (1.5 MB) whatever n.
    Each value is clipped at cap, bucketed by its biased exponent and split
    exactly into its 27 high significand bits and the 26-bit remainder; per
    bucket each part sums exactly in float64 over the block. These partials
    add up exactly to the sum of min(x, cap), and math.fsum rounds them once.
    Raises OverflowError when the sum rounds past the largest double.
    """
    size = min(values.size, _SUM_BLOCK)
    buffers = getattr(_sum_buffers, "blocks", None)
    if buffers is None or buffers[0].size < size:
        buffers = _sum_buffers.blocks = (np.empty(size), np.empty(size, dtype=np.int64),
                                         np.empty(size, dtype=np.int64))
    clipped, exponent, bits = buffers
    partials = []
    for start in range(0, values.size, _SUM_BLOCK):
        block = values[start:start + _SUM_BLOCK]
        x = np.minimum(block, cap, out=clipped[:block.size])
        # Shifted as unsigned, -0.0 (the only value with the sign bit set)
        # lands in bucket 2048, where it adds nothing.
        field = exponent[:block.size]
        np.right_shift(x.view(np.uint64), 52, out=field.view(np.uint64))
        high_bits = np.bitwise_and(x.view(np.int64), -1 << 26, out=bits[:block.size])
        high_part = high_bits.view(np.float64)
        high = np.bincount(field, weights=high_part)
        low = np.bincount(field, weights=np.subtract(x, high_part, out=x))
        partials += high[high > 0].tolist() + low[low > 0].tolist()
    total = math.fsum(partials)
    if total == math.inf:  # a bucket's float64 sum overflowed
        raise OverflowError("clipped sum exceeds the largest double")
    return total


def mle_learning(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                 rng: RngStream) -> Estimate:
    """Range estimation, then private MLE, at the shares of MLE_SPLIT."""
    range_budget, mle_budget = budget.split(MLE_SPLIT)
    qres = svt_quantile(data, config.bounds, MLE_RANGE_THETA, range_budget, rng)
    if qres is None:
        raise RangeEstimationFailed("quantile scan exhausted its grid")
    clip_r = clipping_range(qres, data.n, MLE_RANGE_THETA, config.beta)
    lam = private_mle(data, clip_r, mle_budget, rng)
    return Estimate(lam, Route.MLE, None, budget)


def quantile_learning(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                      rng: RngStream) -> Estimate:
    """Noisy binary search over _search_grid for the (1 - 1/e)-quantile
    position. Adjacent positions are rates one accuracy step apart, and a
    position inside the band (1 - 1/e) +- alpha/(2e) is within (1 +- alpha)
    of 1/rate, so its reciprocal is returned."""
    position = _band_search(data, _search_grid(config.alpha, config.bounds), budget, rng)
    return Estimate(1.0 / position, Route.QUANTILE, None, budget)


def _check_alpha(alpha: float, grid: str) -> None:
    """OutOfRegime naming alpha and grid for an alpha below _ALPHA_MIN =
    2^-40 (about 9.1e-13), the smallest whose grid steps are faithful.

    A step 1 + x is stored within 2^-53 of it, the spacing of the doubles
    in [1, 2) halved, so its excess x is off by up to 2^-53/x; the quantile
    step 1/(1 - alpha/2), rounded twice, by up to 1.5 * 2^-53/x. x is
    alpha/2 for that step, 8 alpha for the packing ratio 1 + 8 alpha, and
    alpha (1 - tau)/(4 upper) >= 0.1875 alpha for the pivot step of shape
    bounds up to 1. At 2^-40 these errors are 3 * 2^-13, 2^-16 and 2^-10.6
    of x, all within 2^-10 (0.1%); below it they grow as 1/alpha (the
    quantile step's x is off by 2.1% at 1e-14, by 33% at 1e-15, and is 0
    from about 2^-53). The pivot's x also shrinks as 1/upper; SearchGrid
    refuses its step once it rounds to 1.
    """
    if not alpha >= _ALPHA_MIN:
        raise OutOfRegime(f"{grid} needs alpha >= 2^-40 for a faithful step, "
                          f"got alpha = {alpha!r}")


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


def _band_search(data: Dataset, grid: SearchGrid, budget: PrivacyBudget,
                 rng: RngStream) -> float:
    """The first position of grid whose noisy CDF falls in its band; raises
    SearchExhausted once grid.probes probes are used up."""
    budget.consume()
    cap = grid.probes
    scale = NoiseScale(cap / (budget.epsilon * data.n))
    band_lo = grid.level - grid.half_band
    band_hi = grid.level + grid.half_band

    low, high = 0, grid.n_steps
    for _ in range(cap):
        mid = (low + high) // 2
        position = grid.lo * grid.step ** mid
        value = noisy_fraction_below(data, position, scale, rng)
        if value > band_hi:
            high = mid
        elif value < band_lo:
            low = mid
        else:
            return position
    raise SearchExhausted("no position accepted within the probe cap; "
                          "rate outside bounds or n too small")


def best_of_both(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                 rng: RngStream) -> Estimate:
    """Coarse estimate at eps/3 picks the route; the winner runs at 2*eps/3."""
    coarse_grid, _ = _best_of_both_grids(config.alpha, config.bounds)
    coarse_budget, main_budget = budget.split(BEST_OF_BOTH_SPLIT)
    try:
        lambda_0 = 1.0 / _band_search(data, coarse_grid, coarse_budget, rng)
    except SearchExhausted as exc:
        raise CoarseFailed("coarse rate estimate did not converge") from exc
    if lambda_0 >= MLE_BRANCH_CUTOFF:
        inner = mle_learning(data, config, main_budget, rng)
    else:
        inner = quantile_learning(data, config, main_budget, rng)
    return Estimate(inner.lambda_hat, inner.route, lambda_0, budget)
