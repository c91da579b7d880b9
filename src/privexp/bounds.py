"""Approximate-DP discovery of rate bounds via a dyadic histogram.

The median of Exp(rate) is ln(2)/rate, so the power-of-two bin holding the
most mass brackets the median within a factor of 2 on each side. Releasing
noisy bin fractions and keeping only those above a threshold calibrated to
(eps, delta) gives a private argmax bin, hence bounds with ratio exactly 4.
Only nonempty bins receive noise; empty bins release exactly zero, which is
what costs the delta. The bin of a double is read off its exponent field,
so the histogram counts those fields block by block and sorts nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RateBounds
from .errors import NoBinSurvived, RangeEstimationFailed, check_in
from .learners import (WITHOUT_BOUNDS_DELTA_SPLIT, WITHOUT_BOUNDS_SPLIT, Estimate,
                       LearnerConfig, _check_alpha, best_of_both)
from .privacy import NoiseScale, PrivacyBudget, RngStream, sample_laplace

__all__ = ["DyadicHistogram", "dyadic_histogram", "find_bounds", "learn_without_bounds"]

# Bin index of x is k with x in [2^k, 2^(k+1)); every positive double lands
# in k in [-1074, 1023]. Zero is assigned to the lowest representable bin.
ZERO_BIN = -1074

# Values per block of the histogram. A block's exponent fields (32 KB) are
# the largest array it allocates. Smaller blocks mean more, shorter numpy
# calls: on one thread, 59,916 values took 0.43 ms a histogram in 2,048-value
# blocks against 0.24 ms in these (medians, 2-core Xeon VM). Each call also
# releases and retakes the GIL; with two threads each counting its own
# 131,072 values, a size the harness runs threaded, 2,048-value blocks took
# 3.0 ms a histogram against 2.5 ms for these.
_HIST_BLOCK = 1 << 12


def dyadic_histogram(data: Dataset) -> dict[int, float]:
    """Fractions of data per power-of-two bin [2^k, 2^(k+1)); nonempty bins only.

    A normal double lies in bin k = e - 1023, e being its biased exponent
    field. One block of _HIST_BLOCK values at a time, the fields are shifted
    out into a reused buffer, offset by the lowest field present and counted
    by one bincount: nothing is sorted and no array of n values is made.
    Zero, -0.0 and the subnormals all have field 0; in the blocks that hold
    any, frexp files them under their own bins, zero under ZERO_BIN.
    """
    # biased exponent fields of the ends; the mask files -0.0 under 0
    lo, hi = ((int(np.float64(x).view(np.int64)) >> 52) & 0x7FF
              for x in (data.min(), data.max()))
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    tiny = np.zeros(-1022 - ZERO_BIN, dtype=np.int64)  # bins below 2^-1022
    buf = np.empty(min(data.n, _HIST_BLOCK), dtype=np.int64)
    for i in range(0, data.n, _HIST_BLOCK):
        block = data.values[i:i + _HIST_BLOCK]
        field = np.right_shift(block.view(np.int64), 52, out=buf[:block.size])
        field -= lo
        if lo == 0:
            np.maximum(field, 0, out=field)  # -0.0 has the sign bit set
        block_counts = np.bincount(field, minlength=counts.size)
        counts += block_counts
        if lo == 0 and block_counts[0]:
            small = block[block < 2.0 ** -1022]
            exponent = np.frexp(np.maximum(small, 5e-324))[1]  # zero -> ZERO_BIN
            tiny += np.bincount(exponent - (ZERO_BIN + 1), minlength=tiny.size)
    if lo == 0:
        first, counts = ZERO_BIN, np.concatenate((tiny, counts[1:]))
    else:
        first = lo - 1023
    return {first + k: c / data.n for k, c in enumerate(counts.tolist()) if c}


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
    then run the adaptive learner at (eps/2, 0) inside them. The inputs the
    second stage reads are checked before the first spends."""
    check_in("learning without bounds delta", budget.delta, 0.0, 1.0)
    _check_alpha(check_in("alpha", alpha, 0.0, 1.0), "the quantile search")
    check_in("beta", beta, 0.0, 1.0)
    bounds_budget, learn_budget = budget.split(WITHOUT_BOUNDS_SPLIT,
                                               WITHOUT_BOUNDS_DELTA_SPLIT)
    rate_bounds = find_bounds(data, bounds_budget, rng)
    if rate_bounds is None:
        raise NoBinSurvived("no histogram bin cleared the release threshold; "
                            "n too small for this (epsilon, delta)")
    config = LearnerConfig(alpha, beta, rate_bounds)
    inner = best_of_both(data, config, learn_budget, rng)
    return Estimate(inner.lambda_hat, inner.route, inner.coarse_estimate, budget)
