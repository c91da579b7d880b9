"""Closed-form exponential and Pareto models, exact TV/KL formulas,
and the packing separation function T(r).

All distances here are analytic. The exponential TV formula is exact (the
two densities cross exactly once, at a point with a closed form); the
Pareto distance is an upper bound combining an exact equal-shape TV term
with a Pinsker bound on the equal-scale shape gap.
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

# Rates closer than this (relatively) are treated as equal; the crossing
# point formula degenerates to 0/0 there.
_RATE_EQ_RTOL = 1e-12


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
    """Pareto law with density shape * scale^shape / x^(shape+1) on x >= scale."""

    scale_xm: float
    shape_alpha_p: float

    def __post_init__(self):
        check_in("scale_xm", self.scale_xm, 0.0, math.inf, InvalidScale)
        check_in("shape_alpha_p", self.shape_alpha_p, 0.0, math.inf, InvalidShape)

    def pdf(self, x):
        xm, a = self.scale_xm, self.shape_alpha_p
        return _on_support(x, xm, lambda x: a * xm ** a / x ** (a + 1.0))

    def cdf(self, x):
        xm, a = self.scale_xm, self.shape_alpha_p
        return _on_support(x, xm, lambda x: -np.expm1(a * np.log(xm / x)))

    def quantile(self, p):
        return _quantile(self, p)


def _on_support(x, low, formula):
    """formula(x) where x >= low, else 0.0; a float for a scalar x. The
    formula is evaluated everywhere, so what it overflows, divides by zero
    or makes invalid below the support, which np.where discards, warns of
    nothing."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(x < low, 0.0, formula(x))
    return float(out) if out.ndim == 0 else out


def sample(model, n: int, rng: RngStream) -> Dataset:
    """n i.i.d. draws via inverse CDF on uniforms in [0, 1)."""
    if check_count("n", n, 0, sys.maxsize) == 0:
        raise EmptyRequest("need at least one draw, got n=0")
    return Dataset._adopt(_draw(model, rng.generator.random(n)))


def _quantile(model, p):
    """model's inverse CDF at the levels p in [0, 1): _draw on a copy."""
    u = np.array(p, dtype=np.float64)
    if not np.all((u >= 0) & (u < 1)):  # nan too
        raise OutOfRegime("quantile level must lie in [0, 1)")
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
    densities with distinct rates meet."""
    lo, hi = _rate_pair(lambda1, lambda2)
    if hi - lo < _RATE_EQ_RTOL * hi:
        raise InvalidRate("crossing point undefined for (near-)equal rates")
    d = hi - lo
    return math.log1p(d / lo) / d


def exp_tv(lambda1: float, lambda2: float) -> float:
    """Exact TV distance between Exp(lambda1) and Exp(lambda2).

    The densities cross once, at a = exp_tv_crossing(l_lo, l_hi), and
    TV = e^(-l_lo * a) - e^(-l_hi * a), written with expm1 so nearby rates
    do not lose the small difference to cancellation.
    """
    lo, hi = _rate_pair(lambda1, lambda2)
    if hi - lo < _RATE_EQ_RTOL * hi:
        return 0.0
    a = exp_tv_crossing(lo, hi)
    return -math.exp(-lo * a) * math.expm1(-(hi - lo) * a)


def separation_T(r: float) -> float:
    """TV between exponential laws whose rates differ by ratio r >= 1.

    T(r) = r^(-1/(r-1)) * (1 - 1/r); T(1) = 0 by continuity. Satisfies
    T(1 + 8a) >= a for a in (0, 1/2), which is what makes the geometric
    packing family pairwise separated.
    """
    r = check_in("ratio r", r, 1.0, math.inf, InvalidRatio, "[)")
    if r == 1.0:
        return 0.0
    return r ** (-1.0 / (r - 1.0)) * (1.0 - 1.0 / r)


def pareto_kl_equal_scale(alpha1: float, alpha2: float) -> float:
    """alpha1/alpha2 - 1 - ln(alpha1/alpha2), the KL between equal-scale
    Pareto laws whose shapes differ by the ratio alpha1/alpha2.

    (As an oriented divergence this equals KL(Pareto(alpha2) || Pareto(alpha1));
    the TV bound below only uses it through the symmetric max/min ratio.)
    """
    check_in("alpha1", alpha1, 0.0, math.inf, InvalidShape)
    check_in("alpha2", alpha2, 0.0, math.inf, InvalidShape)
    ratio = alpha1 / alpha2
    return ratio - 1.0 - math.log(ratio)


def pareto_tv_bound(model1: ParetoModel, model2: ParetoModel) -> float:
    """Upper bound on TV(model1, model2): exact equal-shape scale term plus
    a Pinsker bound on the equal-scale shape term. May exceed 1."""
    m_hi = max(model1.scale_xm, model2.scale_xm)
    m_lo = min(model1.scale_xm, model2.scale_xm)
    delta_s = math.log(m_hi / m_lo)
    a_max = max(model1.shape_alpha_p, model2.shape_alpha_p)
    a_min = min(model1.shape_alpha_p, model2.shape_alpha_p)
    scale_term = -math.expm1(-a_max * delta_s)
    shape_term = math.sqrt(0.5 * pareto_kl_equal_scale(a_max, a_min))
    return scale_term + shape_term
