"""Closed-form exponential and Pareto models, exact TV/KL formulas,
and the packing separation function T(r).

All distances here are analytic. The exponential TV formula is exact (the
two densities cross exactly once, at a point with a closed form); the
Pareto distance is an upper bound combining an exact equal-shape TV term
with a Pinsker bound on the equal-scale shape gap. Each is computed from
the one ratio log, _log_ratio, over every pair of positive doubles: the
exponential TV is 0.0 only at equal rates, the only rates whose crossing
point is refused, and near equal rates or shapes each distance is within
a few roundings of its value relatively.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (EmptyRequest, InvalidRate, InvalidRatio, InvalidScale, InvalidShape,
                     OutOfRegime, check_count, check_in)
from .privacy import RngStream

__all__ = [
    "ExpModel",
    "ParetoModel",
    "sample",
    "exp_tv",
    "exp_tv_crossing",
    "separation_T",
    "pareto_kl_equal_scale",
    "pareto_tv_bound",
]


@dataclass(frozen=True)
class ExpModel:
    """Exponential law with density rate * e^(-rate * x) on x >= 0."""

    rate_lambda: float

    def __post_init__(self):
        check_in("rate_lambda", self.rate_lambda, 0.0, math.inf, InvalidRate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate_lambda

    def pdf(self, x):
        lam = self.rate_lambda
        return _on_support(x, 0.0, lambda x: lam * np.exp(-lam * x))

    def cdf(self, x):
        return _on_support(x, 0.0, lambda x: -np.expm1(-self.rate_lambda * x))

    def quantile(self, p):
        return _quantile(self, p)


@dataclass(frozen=True)
class ParetoModel:
    """Pareto law with density shape * scale^shape / x^(shape+1) on x >= scale.

    Its pdf and cdf hold over every positive double, where scale / x
    underflows too."""

    scale_xm: float
    shape_alpha_p: float

    def __post_init__(self):
        check_in("scale_xm", self.scale_xm, 0.0, math.inf, InvalidScale)
        check_in("shape_alpha_p", self.shape_alpha_p, 0.0, math.inf, InvalidShape)

    def pdf(self, x):
        xm, a = self.scale_xm, self.shape_alpha_p
        return _on_support(x, xm, lambda x: _pareto_density(xm, a, x))

    def cdf(self, x):
        xm, a = self.scale_xm, self.shape_alpha_p
        return _on_support(x, xm, lambda x: -np.expm1(a * _log_scale_ratio(xm, x)))

    def quantile(self, p):
        return _quantile(self, p)


def _pareto_density(xm: float, a: float, x):
    """a xm^a / x^(a+1) for x >= xm, as a / x * (xm / x)^a: a ratio at most
    1 to the power a. Where a / x passes the doubles, or xm / x or its power
    falls below the normal ones, that product would be nan or lose its bits,
    so there it is the exp of the sum of the logs instead."""
    ratio = xm / x
    head, tail = a / x, ratio ** a
    normal = (head < math.inf) & (np.minimum(ratio, tail) >= sys.float_info.min)
    return np.where(normal, head * tail,
                    np.exp(math.log(a) - np.log(x) + a * _log_scale_ratio(xm, x)))


def _log_scale_ratio(xm: float, x):
    """ln(xm / x): the log of the quotient where it is a normal double, else
    math.log(xm) - np.log(x), since there the quotient has lost its bits."""
    ratio = xm / x
    return np.where(ratio >= sys.float_info.min, np.log(ratio), math.log(xm) - np.log(x))


def _on_support(x, low, formula):
    """formula(x) where x >= low, else 0.0; a float for a scalar x. The
    formula is evaluated everywhere, so what it overflows, divides by zero
    or makes invalid below the support, which np.where discards, warns of
    nothing."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(x < low, 0.0, formula(x))
    return float(out) if out.ndim == 0 else out


# The most float64 values a numpy array holds: numpy refuses one more with
# ValueError ("array is too big"), and an allocation of fewer that the host
# cannot make raises MemoryError.
_MAX_DRAWS = sys.maxsize // 8


def sample(model, n: int, rng: RngStream) -> Dataset:
    """n i.i.d. draws via inverse CDF on uniforms in [0, 1), n at most
    _MAX_DRAWS."""
    if check_count("n", n, 0, _MAX_DRAWS) == 0:
        raise EmptyRequest("need at least one draw, got n=0")
    return Dataset._adopt(_draw(_check_draws(model), rng.generator.random(n)))


# The largest uniform Generator.random returns.
_U_MAX = 1.0 - 2.0 ** -53


def _check_draws(model):
    """model, once its largest draw, _draw at _U_MAX, is a finite double;
    OutOfRegime otherwise. Draws grow with the uniform, so then all are."""
    if not math.isfinite(_quantile(model, _U_MAX)):
        raise OutOfRegime(f"{model} draws values past the largest double")
    return model


def _quantile(model, p):
    """model's inverse CDF at the levels p in [0, 1): _draw on a copy, inf
    where a level's value passes the doubles."""
    u = np.array(p, dtype=np.float64)
    if not np.all((u >= 0) & (u < 1)):  # nan too
        raise OutOfRegime("quantile level must lie in [0, 1)")
    with np.errstate(over="ignore"):
        out = _draw(model, u)
    return float(out) if out.ndim == 0 else out


def _draw(model, u: np.ndarray) -> np.ndarray:
    """Turn u, uniforms in [0, 1), into draws of model in place; returns u.

    The bits of -log1p(-u) / rate and xm * exp(-log1p(-u) / shape): dividing
    log1p(-u) by the negated parameter skips the outer negation's pass,
    since IEEE division is sign-symmetric, signed zeros included.
    """
    np.log1p(np.negative(u, out=u), out=u)
    if isinstance(model, ExpModel):
        u /= -model.rate_lambda
    elif isinstance(model, ParetoModel):
        np.exp(np.divide(u, -model.shape_alpha_p, out=u), out=u)
        u *= model.scale_xm
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return u


def _rate_pair(lambda1: float, lambda2: float) -> list:
    """The two rates, each checked, lower first."""
    return sorted((check_in("lambda1", lambda1, 0.0, math.inf, InvalidRate),
                   check_in("lambda2", lambda2, 0.0, math.inf, InvalidRate)))


def exp_tv_crossing(lambda1: float, lambda2: float) -> float:
    """Crossing point a = ln(l1/l2) / (l1 - l2), where two exponential
    densities with distinct rates meet; inf where it passes the doubles."""
    lo, hi = _rate_pair(lambda1, lambda2)
    if lo == hi:
        raise InvalidRate("crossing point undefined for equal rates")
    return _log_ratio(lo, hi)[1] / (hi - lo)


def exp_tv(lambda1: float, lambda2: float) -> float:
    """Exact TV distance between Exp(lambda1) and Exp(lambda2).

    The densities cross once, at a = exp_tv_crossing(l_lo, l_hi), and
    TV = e^(-l_lo * a) - e^(-l_hi * a), which is separation_T(l_hi / l_lo).
    """
    return _separation(*_rate_pair(lambda1, lambda2))


def separation_T(r: float) -> float:
    """TV between exponential laws whose rates differ by ratio r >= 1.

    T(r) = r^(-1/(r-1)) * (1 - 1/r); T(1) = 0 by continuity. Satisfies
    T(1 + 8a) >= a for a in (0, 1/2), which is what makes the geometric
    packing family pairwise separated.
    """
    return _separation(1.0, check_in("ratio r", r, 1.0, math.inf, InvalidRatio, "[)"))


def _log_ratio(lo: float, hi: float) -> tuple:
    """(r - 1, ln r) for r = hi / lo >= 1, without forming r: r - 1 as
    (hi - lo) / lo, so that it does not cancel near 1, and ln r as its
    log1p, or as log(hi) - log(lo) where r - 1 passes the doubles."""
    d = (hi - lo) / lo
    return d, math.log1p(d) if d < math.inf else math.log(hi) - math.log(lo)


def _separation(lo: float, hi: float) -> float:
    """T(hi / lo) for hi >= lo, as -exp(-ln r / (r - 1)) * expm1(-ln r): a
    function of the rate ratio alone, each factor in [0, 1]. r - 1 is 0 only
    at equal rates (two distinct doubles are at least 2^-53 apart relatively),
    where T is 0."""
    d, log_r = _log_ratio(lo, hi)
    return -math.exp(-log_r / d) * math.expm1(-log_r) if d else 0.0


def pareto_kl_equal_scale(alpha1: float, alpha2: float) -> float:
    """alpha1/alpha2 - 1 - ln(alpha1/alpha2), the KL between equal-scale
    Pareto laws whose shapes differ by the ratio alpha1/alpha2, within a
    few roundings relatively, near equal shapes too; inf where that ratio
    passes the doubles.

    (As an oriented divergence this equals KL(Pareto(alpha2) || Pareto(alpha1));
    the TV bound below only uses it through the symmetric max/min ratio.)
    """
    check_in("alpha1", alpha1, 0.0, math.inf, InvalidShape)
    check_in("alpha2", alpha2, 0.0, math.inf, InvalidShape)
    # With r' = max/min: r' - 1 - ln r' for r = r', 1/r' - 1 + ln r' for 1/r'.
    d, log_r = _log_ratio(min(alpha1, alpha2), max(alpha1, alpha2))
    # Near r = 1 both cancel; there r - 1 - ln r = 2 sum_{k>=2} c_k u^k with
    # u = (r - 1)/(r + 1), c_k = 1 for even k and 1 - 1/k for odd k, a sum
    # whose terms shrink by |u| < 1/4 each and nearly all share a sign.
    u = d / (2.0 + d) if alpha1 >= alpha2 else -d / (2.0 + d)
    if abs(u) < 0.25:
        return 2.0 * math.fsum((1.0 - k % 2 / k) * u ** k for k in range(2, 30))
    return d - log_r if alpha1 >= alpha2 else log_r + math.expm1(-log_r)


def pareto_tv_bound(model1: ParetoModel, model2: ParetoModel) -> float:
    """Upper bound on TV(model1, model2): exact equal-shape scale term plus
    a Pinsker bound on the equal-scale shape term. May exceed 1."""
    log_s = _log_ratio(*sorted((model1.scale_xm, model2.scale_xm)))[1]
    a_min, a_max = sorted((model1.shape_alpha_p, model2.shape_alpha_p))
    scale_term = -math.expm1(-a_max * log_s)
    shape_term = math.sqrt(0.5 * pareto_kl_equal_scale(a_max, a_min))
    return scale_term + shape_term
