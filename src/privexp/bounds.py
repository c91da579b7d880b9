"""Approximate-DP discovery of rate bounds via a dyadic histogram.

The median of Exp(rate) is ln(2)/rate, so the power-of-two bin holding the
most mass brackets the median within a factor of 2 on each side. Releasing
noisy bin fractions and keeping only those above a threshold calibrated to
(eps, delta) gives a private argmax bin, hence bounds with ratio exactly 4.
Only nonempty bins receive noise; empty bins release exactly zero, which is
what costs the delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RateBounds
from .errors import NoBinSurvived, RangeEstimationFailed, check_in
from .learners import Estimate, LearnerConfig, best_of_both
from .privacy import NoiseScale, PrivacyBudget, RngStream, sample_laplace

__all__ = ["DyadicHistogram", "dyadic_histogram", "find_bounds", "learn_without_bounds"]

# Bin index of x is k with x in [2^k, 2^(k+1)); every positive double lands
# in k in [-1074, 1023]. Zero is assigned to the lowest representable bin.
ZERO_BIN = -1074

# Values per block of the histogram. A block's sorted copy (32 KB) is the
# largest array it allocates. Smaller blocks mean more, shorter numpy calls,
# each of which releases the GIL; with two threads, 2,048-value blocks made
# the histogram twice as slow as these.
_SORT_BLOCK = 1 << 12


def dyadic_histogram(data: Dataset) -> dict[int, float]:
    """Fractions of data per power-of-two bin [2^k, 2^(k+1)); nonempty bins only.

    Counts the values below each bin edge from the lowest bin to the
    highest, one block of _SORT_BLOCK values at a time: sort the block and
    search it for all edges at once. That is two numpy calls per block, not
    one count per edge, and no array of n values.
    """
    first, last = (ZERO_BIN if x == 0 else math.frexp(x)[1] - 1
                   for x in (data.min(), data.max()))
    edges = np.ldexp(1.0, np.arange(first + 1, last + 1))
    below = np.zeros(edges.size, dtype=np.int64)
    for i in range(0, data.n, _SORT_BLOCK):
        below += np.sort(data.values[i:i + _SORT_BLOCK]).searchsorted(edges)
    counts = np.diff(below, prepend=0, append=data.n).tolist()
    return {first + k: c / data.n for k, c in enumerate(counts) if c}


@dataclass(frozen=True)
class DyadicHistogram:
    """The release: noisy fractions of the bins that clear the threshold."""

    noisy_bins: dict[int, float]
    threshold: float


def noisy_histogram(data: Dataset, budget: PrivacyBudget,
                    rng: RngStream) -> DyadicHistogram:
    """Releases the stabilized noisy histogram; consumes the whole budget.
    Bins whose noisy fraction falls below the threshold are not released."""
    check_in("histogram release delta", budget.delta, 0.0, 1.0)
    budget.consume()
    eps, delta, n = budget.epsilon, budget.delta, data.n
    bins = dyadic_histogram(data)
    scale = NoiseScale(2.0 / (eps * n))
    noisy = {k: bins[k] + sample_laplace(scale, rng) for k in sorted(bins)}
    threshold = (2.0 / (eps * n)) * math.log(2.0 / delta) + 1.0 / n
    survivors = {k: v for k, v in noisy.items() if v >= threshold}
    return DyadicHistogram(survivors, threshold)


def find_bounds(data: Dataset, budget: PrivacyBudget, rng: RngStream):
    """RateBounds bracketing ln(2)/(top surviving bin), or None if no bin survives.

    The returned interval is (ln2 * 2^-(k*+1), ln2 * 2^-(k*-1)) where k* is
    the surviving bin with the largest noisy fraction (smallest k on ties),
    so its ratio is exactly 4. Raises RangeEstimationFailed when k* is so
    low (the zero bin, say) that the upper end overflows a double.
    """
    released = noisy_histogram(data, budget, rng).noisy_bins
    if not released:
        return None
    k_star = max(sorted(released), key=released.get)
    ln2 = math.log(2.0)
    try:
        return RateBounds(math.ldexp(ln2, -(k_star + 1)),
                          math.ldexp(ln2, -(k_star - 1)))
    except OverflowError:
        # the zero bin or a subnormal one: no double bounds the rate
        raise RangeEstimationFailed(f"top bin 2^{k_star} puts the rate bounds "
                                    "beyond the largest double") from None


def learn_without_bounds(data: Dataset, alpha: float, beta: float,
                         budget: PrivacyBudget, rng: RngStream) -> Estimate:
    """End-to-end learner with no prior bounds: find bounds at (eps/2, delta),
    then run the adaptive learner at (eps/2, 0) inside them."""
    check_in("learning without bounds delta", budget.delta, 0.0, 1.0)
    bounds_budget, learn_budget = budget.split([0.5, 0.5],
                                               delta_fractions=[1.0, 0.0])
    rate_bounds = find_bounds(data, bounds_budget, rng)
    if rate_bounds is None:
        raise NoBinSurvived("no histogram bin cleared the release threshold; "
                            "n too small for this (epsilon, delta)")
    config = LearnerConfig(alpha, beta, rate_bounds)
    inner = best_of_both(data, config, learn_budget, rng)
    return Estimate(inner.lambda_hat, inner.route, inner.coarse_estimate, budget)
