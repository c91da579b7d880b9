"""Private Pareto learning via the log reduction to exponentials.

ln(X / x_m) of a Pareto(x_m, shape) sample is Exp(shape), so with a known
scale the problem is exactly exponential learning. With unknown scale, the
same holds conditionally: given X >= t, ln(X / t) is Exp(shape) for any
t >= x_m. The learner privately finds a low quantile to use as t, estimates
the shape on the log-exceedances, and recovers the scale from the quantile
identity x_m = q_tau * (1 - tau)^(1/shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import Dataset
from .errors import EmptyTail, OutOfRegime, RangeEstimationFailed, ScaleViolation
from .learners import LearnerConfig, Route, best_of_both, mle_learning
from .privacy import PrivacyBudget, RngStream
from .quantile import svt_quantile

__all__ = ["DEFAULT_TAIL_QUANTILE", "ParetoEstimate", "log_transform",
           "recover_scale", "learn_pareto_known_scale", "learn_pareto"]

# Tail pivot level: deep enough that the exceedance set keeps most of the
# data, shallow enough that the scale-recovery exponent stays small.
DEFAULT_TAIL_QUANTILE = 1.0 / (4.0 * math.log(7.0))

# The scale-recovery analysis needs the pivot level in this window.
TAU_MIN = 0.1
TAU_MAX = 0.25


@dataclass(frozen=True)
class ParetoEstimate:
    """Estimated (shape, scale) pair plus the tail pivot bookkeeping."""

    shape_hat: float
    scale_hat: float
    tail_quantile_tau: float
    tail_count: int
    route: Route
    budget_spent: PrivacyBudget


def log_transform(data: Dataset, pivot: float) -> Dataset:
    """{ ln(x / pivot) : x in data, x >= pivot }, order preserved."""
    if not (isinstance(pivot, (int, float)) and math.isfinite(pivot) and pivot > 0):
        raise ValueError(f"pivot must be positive and finite, got {pivot!r}")
    kept = data.values[data.values >= pivot]
    if kept.size == 0:
        raise EmptyTail(f"no samples at or above pivot {pivot}")
    # math.log per element, not the vectorized log: the two can differ in the
    # last ulp, and the noiseless-equivalence tests compare bit-exactly.
    return Dataset([math.log(v / pivot) for v in kept])


def recover_scale(quantile_value: float, tau: float, shape_hat: float) -> float:
    """Scale from the quantile identity: x_m = q_tau * (1 - tau)^(1/shape)."""
    return quantile_value * (1.0 - tau) ** (1.0 / shape_hat)


def learn_pareto_known_scale(data: Dataset, x_m: float, config: LearnerConfig,
                             budget: PrivacyBudget, rng: RngStream) -> ParetoEstimate:
    """Known-scale reduction: log-transform at x_m, learn the rate via the
    MLE pipeline; the rate estimate is the shape estimate."""
    if data.min() < x_m:
        raise ScaleViolation(f"sample {data.min()} below declared scale {x_m}")
    transformed = log_transform(data, x_m)
    est = mle_learning(transformed, config, budget, rng)
    return ParetoEstimate(est.lambda_hat, x_m, 0.0, data.n, est.route, budget)


def learn_pareto(data: Dataset, config: LearnerConfig, budget: PrivacyBudget,
                 rng: RngStream, tau: float = DEFAULT_TAIL_QUANTILE) -> ParetoEstimate:
    """Unknown-scale learner: private tail pivot, shape from log-exceedances,
    scale from the quantile identity.

    config.bounds are bounds on the shape (the rate of the exceedance law).
    """
    if not (TAU_MIN <= tau <= TAU_MAX):
        raise OutOfRegime(f"tail level tau must lie in [{TAU_MIN}, {TAU_MAX}], "
                          f"got {tau!r}")
    pivot_budget, shape_budget = budget.split([0.5, 0.5])
    qres = svt_quantile(data, config.bounds, 1.0 - tau, pivot_budget, rng,
                        config.noiseless)
    if qres is None:
        raise RangeEstimationFailed("tail pivot scan exhausted its grid")
    tail = log_transform(data, qres.quantile_value)
    est = best_of_both(tail, config, shape_budget, rng)
    scale_hat = recover_scale(qres.quantile_value, tau, est.lambda_hat)
    return ParetoEstimate(est.lambda_hat, scale_hat, tau, tail.n, est.route,
                          budget)
