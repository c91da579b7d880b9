"""Private Pareto learning via the log reduction to exponentials.

ln(X / x_m) of a Pareto(x_m, shape) sample is Exp(shape), so with a known
scale the problem is exactly exponential learning. With unknown scale, the
same holds conditionally: given X >= t, ln(X / t) is Exp(shape) for any
t >= x_m. The learner privately finds a low quantile to use as t, estimates
the shape on the log-exceedances, and recovers the scale from the quantile
identity x_m = q_tau * (1 - tau)^(1/shape).

The pivot comes from a noisy binary search in CDF space over a fine
geometric grid. The grid spans the window [1/upper, 2^(span+2)/upper] of
the shape bounds' doubling grid (svt_grid), so the tau-quantile
q_tau = x_m (1 - tau)^(-1/shape) has to lie in that window; when it does
not, the search raises SearchExhausted.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, RateBounds
from .errors import EmptyTail, InvalidScale, ScaleViolation, check_in
from .learners import (PARETO_SPLIT, LearnerConfig, Route, _best_of_both_grids, best_of_both,
                       mle_learning)
from .privacy import PrivacyBudget, RngStream
from .quantile import SearchGrid, _band_search, _check_alpha, svt_grid

__all__ = ["DEFAULT_TAIL_QUANTILE", "ParetoEstimate", "log_transform",
           "recover_scale", "learn_pareto_known_scale", "learn_pareto"]

# Tail pivot level: deep enough that the exceedance set keeps most of the
# data, shallow enough that the scale-recovery exponent stays small.
DEFAULT_TAIL_QUANTILE = 1.0 / (4.0 * math.log(7.0))

# The scale-recovery analysis needs the pivot level in this window.
TAU_MIN = 0.1
TAU_MAX = 0.25

# The largest x whose math.exp(x) is a finite double.
_LN_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ParetoEstimate:
    """Estimated (shape, scale) pair and the route of the shape stage."""

    shape_hat: float
    scale_hat: float
    route: Route


def log_transform(data: Dataset, pivot: float) -> Dataset:
    """{ ln(x / pivot) : x in data, x >= pivot }, in sample order."""
    pivot = check_in("pivot", pivot, 0.0, math.inf)
    # The one fresh buffer, divided and logged in place. When nothing is
    # dropped (always so with a known scale), no mask is built.
    if data.min() >= pivot:
        kept = slice(None)
        with np.errstate(over="ignore"):
            logs = np.divide(data.values, pivot)
    else:
        kept = data.values >= pivot
        # A boolean index, not np.compress: at 112,324 values, 87% kept, it
        # took 0.35 ms of CPU time against 0.65 ms for np.compress,
        # np.extract or take(flatnonzero) (medians of 40 interleaved
        # repeats, numpy 2.4, 2-core Xeon VM).
        logs = data.values[kept]
        if logs.size == 0:
            raise EmptyTail(f"no samples at or above pivot {pivot}")
        with np.errstate(over="ignore"):
            np.divide(logs, pivot, out=logs)
    np.log(logs, out=logs)
    # x / pivot overflows for x near the float maximum and a pivot below 1,
    # which happens iff it does for the maximum. Only there take the
    # difference of logs, so finite quotients keep the log of the ratio bit
    # for bit.
    if data.max() / pivot == math.inf:
        over = np.isinf(logs)
        logs[over] = np.log(data.values[kept][over]) - np.log(pivot)
    return Dataset._adopt(logs)


def recover_scale(quantile_value: float, tau: float, shape_hat: float) -> float:
    """Scale from the quantile identity: x_m = q_tau * (1 - tau)^(1/shape)."""
    return quantile_value * (1.0 - tau) ** (1.0 / shape_hat)


@functools.lru_cache(maxsize=128)  # by value, as learners._search_grid
def _pivot_grid(alpha: float, bounds: RateBounds, tau: float) -> SearchGrid:
    """The tail pivot search's grid, around the level tau.

    The positions run from 1/upper to the top of svt_grid(bounds, 1 - tau).
    A pivot whose CDF lies within tau +- half_band, half_band =
    alpha(1 - tau)/4, moves the log of the recovered scale by at most
    -ln(1 - alpha/4)/shape, about alpha/(4 shape). Inside the band, one step
    of ln(step) = half_band/upper moves the CDF of any shape <= upper by at
    most (1 - tau + half_band) half_band, less than the band's width, so
    some position falls inside the band whenever the tau-quantile lies in
    the window.
    """
    _check_alpha(alpha, "the pivot search")
    window = svt_grid(bounds, 1.0 - tau)
    lo, hi = window.lo, window.position(window.n_steps)
    half_band = alpha * (1.0 - tau) / 4.0
    ln_step = half_band / bounds.upper
    # math.exp raises past the doubles, where SearchGrid refuses the step
    step = math.exp(ln_step) if ln_step <= _LN_MAX else math.inf
    return SearchGrid(f"the pivot grid of {bounds} at alpha = {alpha!r}", lo, step,
                      math.log(hi / lo) / ln_step, tau, half_band)


def learn_pareto_known_scale(data: Dataset, x_m: float, config: LearnerConfig,
                             budget: PrivacyBudget, rng: RngStream) -> ParetoEstimate:
    """Known-scale reduction: log-transform at x_m, learn the rate via the
    MLE pipeline; the rate estimate is the shape estimate."""
    x_m = check_in("known scale x_m", x_m, 0.0, math.inf, InvalidScale)
    if data.min() < x_m:
        raise ScaleViolation(f"sample {data.min()} below declared scale {x_m}")
    transformed = log_transform(data, x_m)
    est = mle_learning(transformed, config, budget, rng)
    return ParetoEstimate(est.lambda_hat, x_m, est.route)


def learn_pareto(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                 rng: RngStream, tau: float = DEFAULT_TAIL_QUANTILE) -> ParetoEstimate:
    """Unknown-scale learner: private tail pivot, shape from log-exceedances,
    scale from the quantile identity.

    config.bounds are bounds on the shape (the rate of the exceedance law).
    The pivot is searched for in the window of _pivot_grid, [1/upper,
    2^(span+2)/upper] with span = ceil(log2(upper/lower)). When the
    tau-quantile x_m (1 - tau)^(-1/shape) lies outside it (x_m too small or
    too large for the bounds), no position falls in the band and
    SearchExhausted, naming the pivot grid, is raised. Bounds that the pivot
    grid or a grid of the shape stage refuses are refused before the search,
    whatever the data.
    """
    check_in("tail level tau", tau, TAU_MIN, TAU_MAX, ends="[]")
    grid = _pivot_grid(config.alpha, config.bounds, tau)
    _best_of_both_grids(config.alpha, config.bounds)
    pivot_budget, shape_budget = budget.split(PARETO_SPLIT)
    pivot = _band_search(data, grid, pivot_budget, rng)
    tail = log_transform(data, pivot)
    shape_config = replace(config, beta=PARETO_SPLIT[1] * config.beta)
    est = best_of_both(tail, shape_config, shape_budget, rng)
    scale_hat = recover_scale(pivot, tau, est.lambda_hat)
    return ParetoEstimate(est.lambda_hat, scale_hat, est.route)
