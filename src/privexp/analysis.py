"""Closed-form sample-size calculators, the geometric packing family, and
the packing lower bound.

Each learner guarantee has a calculator mapping (accuracy, confidence,
budget, bounds, ...) to a sufficient sample size. Calculators whose source
states explicit constants evaluate them verbatim (`exact_constants=True`);
the pipeline-level ones hide constants behind O(.), so those compose the
stage calculators and carry unit constants on the remaining terms
(`exact_constants=False`, "up to constants"). The harness multiplies the
latter by a safety factor when sizing experiments.

All logarithms are natural unless a quantity is explicitly a binary search
depth or a dyadic grid size; ceilings are applied last.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from enum import Enum

from .dataset import RateBounds
from .errors import IncompleteInputs, OutOfRegime, RegimeViolation, check_in
from .learners import (BEST_OF_BOTH_SPLIT, COARSE_ALPHA, MLE_BRANCH_CUTOFF, MLE_RANGE_THETA,
                       MLE_SPLIT, PARETO_SPLIT, WITHOUT_BOUNDS_DELTA_SPLIT,
                       WITHOUT_BOUNDS_SPLIT, _best_of_both_grids, _check_alpha, _search_grid)
from .pareto import DEFAULT_TAIL_QUANTILE, TAU_MAX, TAU_MIN, _pivot_grid
from .quantile import QuantileResult, SearchGrid, clipping_range, svt_grid

__all__ = ["SampleBound", "SampleSizeReport", "PackingFamily", "build_packing",
           "lower_bound_n", "required_n", "quantile_order_terms"]

PACKING_RATIO_FACTOR = 8.0  # adjacent packing rates differ by 1 + 8*alpha
_PACKING_MAX_RATES = 1 << 20


class SampleBound(Enum):
    """Which guarantee a sample-size calculation targets."""

    SVT_QUANTILE = "svt-quantile"
    CLIPPED_MLE = "clipped-mle"
    MLE_LEARNING = "mle-learning"
    QUANTILE_SEARCH = "quantile-search"
    QUANTILE_LEARNING = "quantile-learning"
    BEST_OF_BOTH = "best-of-both"
    BOUNDS_FINDER = "bounds-finder"
    LEARN_WITHOUT_BOUNDS = "learn-without-bounds"
    PARETO_LEARNING = "pareto-learning"
    PACKING_LOWER_BOUND = "packing-lower-bound"


@dataclass(frozen=True)
class SampleSizeReport:
    bound_id: SampleBound
    n_required: int
    inputs: dict
    exact_constants: bool


@dataclass(frozen=True)
class PackingFamily:
    """Geometric family of rates, adjacent pairs separated by TV >= alpha."""

    rates: tuple
    alpha: float
    bounds: RateBounds


def build_packing(bounds: RateBounds, alpha: float) -> PackingFamily:
    """Rates lower * (1 + 8*alpha)^i for i = 0 .. floor(log(ratio)/log(1+8*alpha)).
    Raises OutOfRegime, naming the packing, for an alpha below the grids'
    floor (learners._check_alpha) or a family, built in full, of more than
    _PACKING_MAX_RATES = 2^20 rates (about 32 MB)."""
    a = check_in("alpha", alpha, 0.0, 0.5)
    _check_alpha(a, "the packing")
    bounds = _as_bounds(bounds)
    r = 1.0 + PACKING_RATIO_FACTOR * a
    count = math.floor(math.log(bounds.ratio) / math.log(r))
    if count >= _PACKING_MAX_RATES:
        raise OutOfRegime(f"the packing at alpha = {alpha!r} has {count + 1} rates, "
                          f"more than {_PACKING_MAX_RATES}")
    rates = tuple(bounds.lower * r ** i for i in range(count + 1))
    return PackingFamily(rates, alpha, bounds)


def _as_bounds(bounds) -> RateBounds:
    return bounds if isinstance(bounds, RateBounds) else RateBounds(*bounds)


def _sample_size(value: float, bound: str) -> int:
    """max(1, ceil(value)), or RegimeViolation naming the bound when value
    is not a finite double (alpha, epsilon or lam so small that the size
    leaves the doubles)."""
    if not value < math.inf:
        raise RegimeViolation(f"the {bound} sample size exceeds the largest double")
    return max(1, math.ceil(value))


def lower_bound_n(alpha: float, beta: float, epsilon: float, bounds) -> int:
    """Packing lower bound: any private learner this accurate needs at least
    ceil((1/(6*eps*alpha)) * ln((ln(ratio)/(16*alpha)) / beta)) samples."""
    check_in("alpha", alpha, 0.0, 0.5)
    check_in("beta", beta, 0.0, 0.5)
    check_in("epsilon", epsilon, 0.0, math.inf)
    bounds = _as_bounds(bounds)
    inner = (math.log(bounds.ratio) / (16.0 * alpha)) / beta
    return _sample_size(math.log(inner) / (6.0 * epsilon * alpha),
                        SampleBound.PACKING_LOWER_BOUND.value)


# --- raw (un-ceiled) term values per guarantee -----------------------------

def _svt_quantile_value(epsilon, beta, bounds) -> float:
    svt_grid(bounds, MLE_RANGE_THETA)  # refuse the bounds mle_learning's scan refuses
    log_ratio = math.log(bounds.ratio)
    return max((5.0 / epsilon) * math.log(4.0 * log_ratio / beta),
               200.0 * math.log(4.0 / beta))


def _clipped_mle_value(epsilon, beta, alpha, lam, clip_r) -> float:
    tail_mass = math.exp(-lam * clip_r)
    if alpha / 2.0 <= tail_mass:
        raise RegimeViolation(
            f"clipping bias e^(-lam*R) = {tail_mass:.3g} is not below "
            f"alpha/2 = {alpha / 2.0:.3g}; increase R or relax alpha")
    privacy = clip_r * lam * math.log(2.0 / beta) / (epsilon * (alpha / 2.0 - tail_mass))
    statistical = (12.0 / alpha ** 2) * math.log(4.0 / beta)
    return max(privacy, statistical)


_FIXED_POINT_ITERATIONS = 200


def _mle_learning_value(epsilon, beta, alpha, lam, bounds) -> float:
    """Fixed point in n: the clipping level grows like ln(n), and n must
    cover both pipeline stages (each at its share of epsilon, and beta/2)
    plus the composed pipeline terms."""
    range_eps, mle_eps = (share * epsilon for share in MLE_SPLIT)
    stage_beta = beta / 2.0
    svt_need = _svt_quantile_value(range_eps, stage_beta, bounds)
    # The range stage's target, the (1 - theta)-quantile of Exp(lam).
    quantile = QuantileResult(math.log(1.0 / MLE_RANGE_THETA) / lam, 0)
    n = 16.0
    for _ in range(_FIXED_POINT_ITERATIONS):
        log_n = math.log(n)
        clip_r = clipping_range(quantile, n, MLE_RANGE_THETA, stage_beta)
        try:
            mle_need = _clipped_mle_value(mle_eps, stage_beta, alpha, lam, clip_r)
        except RegimeViolation:
            n *= 2.0  # clipping level still too low at this n; grow and retry
            continue
        composed = max(
            math.log(1.0 / alpha) * math.log(1.0 / beta) * log_n / (lam * epsilon * alpha),
            math.log(1.0 / beta) / alpha ** 2,
            math.log(math.log(bounds.ratio) / beta) / epsilon,
        )
        target = max(svt_need, mle_need, composed)
        if abs(target - n) <= 0.5:
            return target
        n = target
    raise RegimeViolation(f"the mle-learning fixed point did not converge in "
                          f"{_FIXED_POINT_ITERATIONS} iterations")


def _band_search_value(epsilon, beta, grid: SearchGrid) -> float:
    """A noisy binary search over grid: as deep as its probe cap, with
    Laplace noise and sampling error each kept inside its half-band."""
    depth, half_band = grid.probes, grid.half_band
    log_term = math.log(2.0 * depth / beta)
    return max((depth / (epsilon * half_band)) * log_term,
               log_term / (2.0 * (math.e * half_band) ** 2))


def quantile_order_terms(epsilon, beta, alpha, bounds) -> tuple[float, float]:
    """(privacy term, statistical term) of the order-form quantile-route
    bound, with unit constants. The privacy term is the one the packing
    lower bound matches up to log factors."""
    bounds = _as_bounds(bounds)
    level = math.log(bounds.ratio) / alpha
    log_term = math.log(level / beta)
    return (math.log(level) * log_term / (epsilon * alpha),
            log_term / alpha ** 2)


# Branch reachability for the adaptive learner: the coarse stage returns a
# (1 +- COARSE_ALPHA) estimate whp, so the MLE branch (coarse >= cutoff) is
# reachable only when (1 + COARSE_ALPHA) lam >= cutoff and the quantile
# branch only when (1 - COARSE_ALPHA) lam < cutoff.
MLE_BRANCH_MIN_RATE = MLE_BRANCH_CUTOFF / (1.0 + COARSE_ALPHA)
QUANTILE_BRANCH_MAX_RATE = MLE_BRANCH_CUTOFF / (1.0 - COARSE_ALPHA)


def _best_of_both_value(epsilon, beta, alpha, lam, bounds) -> float:
    coarse_grid, quantile_grid = _best_of_both_grids(alpha, bounds)
    coarse_share, main_share = BEST_OF_BOTH_SPLIT
    need = _band_search_value(coarse_share * epsilon, coarse_share * beta, coarse_grid)
    main_eps, main_beta = main_share * epsilon, main_share * beta
    if lam >= MLE_BRANCH_MIN_RATE:
        need = max(need, _mle_learning_value(main_eps, main_beta, alpha, lam, bounds))
    if lam < QUANTILE_BRANCH_MAX_RATE:
        need = max(need, _band_search_value(main_eps, main_beta, quantile_grid))
    return need


def _bounds_finder_value(epsilon, delta, beta) -> float:
    return max((800.0 / epsilon) * math.log(2.0 / (delta * beta)),
               5000.0 * math.log(2.0 / beta))


def _learn_without_bounds_value(epsilon, delta, beta, alpha, lam) -> float:
    # The discovered interval has ratio 4 and contains lam whp; (lam/2, 2*lam)
    # is the representative interval for sizing the second stage.
    found = RateBounds(lam / 2.0, 2.0 * lam)
    find_eps, learn_eps = (share * epsilon for share in WITHOUT_BOUNDS_SPLIT)
    find_delta = WITHOUT_BOUNDS_DELTA_SPLIT[0] * delta
    return max(_bounds_finder_value(find_eps, find_delta, beta / 2.0),
               _best_of_both_value(learn_eps, beta / 2.0, alpha, lam, found))


def _pareto_value(epsilon, beta, alpha, lam, bounds, tau) -> float:
    # The shape stage runs on ~(1-tau)*n exceedances.
    pivot_eps, shape_eps = (share * epsilon for share in PARETO_SPLIT)
    pivot = _band_search_value(pivot_eps, beta / 2.0, _pivot_grid(alpha, bounds, tau))
    tail = _best_of_both_value(shape_eps, beta / 2.0, alpha, lam, bounds)
    return max(pivot, tail / (1.0 - tau))


# Per guarantee: the value function, the inputs it takes, named by its
# parameters in their order (a missing one is named in that order), and
# whether its constants are the source's explicit ones.
_CALCULATORS = {bound: (value_of, tuple(inspect.signature(value_of).parameters), exact)
                for bound, (value_of, exact) in {
    SampleBound.SVT_QUANTILE: (_svt_quantile_value, True),
    SampleBound.CLIPPED_MLE: (_clipped_mle_value, True),
    SampleBound.MLE_LEARNING: (_mle_learning_value, False),
    SampleBound.QUANTILE_SEARCH: (
        lambda epsilon, beta, alpha, bounds:
        _band_search_value(epsilon, beta, _search_grid(alpha, bounds)), True),
    SampleBound.QUANTILE_LEARNING: (
        lambda epsilon, beta, alpha, bounds:
        max(quantile_order_terms(epsilon, beta, alpha, bounds)), False),
    SampleBound.BEST_OF_BOTH: (_best_of_both_value, False),
    SampleBound.BOUNDS_FINDER: (_bounds_finder_value, True),
    SampleBound.LEARN_WITHOUT_BOUNDS: (_learn_without_bounds_value, False),
    SampleBound.PARETO_LEARNING: (_pareto_value, False),
    SampleBound.PACKING_LOWER_BOUND: (
        lambda epsilon, beta, alpha, bounds: lower_bound_n(alpha, beta, epsilon, bounds),
        True),
}.items()}


def required_n(bound_id: SampleBound, *, alpha=None, beta=None, epsilon=None,
               delta=None, lam=None, bounds=None, clip_r=None,
               tau=DEFAULT_TAIL_QUANTILE) -> SampleSizeReport:
    """Evaluate the sample-size bound for one guarantee.

    Raises IncompleteInputs when the selected bound needs an input that was
    not provided (e.g. the clipped-MLE bound needs both lam and clip_r),
    OutOfRegime when it reads an epsilon, lam or clip_r that is not positive
    and finite, an alpha, beta or delta outside (0, 1), or a tau outside
    [TAU_MIN, TAU_MAX], and RegimeViolation when the size is not a finite
    double. A bound that prices a learner refuses what that learner's grids
    refuse: InvalidRatio for bounds, OutOfRegime for an alpha below the
    grids' floor.
    The report records every input given; tau only where the bound reads it.
    """
    value_of, names, exact = _CALCULATORS[bound_id]
    if bounds is not None:
        bounds = _as_bounds(bounds)
    given = {"alpha": alpha, "beta": beta, "epsilon": epsilon, "delta": delta,
             "lam": lam, "bounds": bounds, "clip_r": clip_r, "tau": tau}
    missing = [k for k in names if given[k] is None]
    if missing:
        raise IncompleteInputs(f"{bound_id.value} needs {', '.join(missing)}")
    for k in ("epsilon", "lam", "clip_r"):
        if k in names:
            check_in(k, given[k], 0.0, math.inf)
    for k in ("alpha", "beta", "delta"):
        if k in names:
            check_in(k, given[k], 0.0, 1.0)
    if "tau" in names:
        check_in("tau", tau, TAU_MIN, TAU_MAX, ends="[]")
    try:
        value = value_of(*(given[k] for k in names))
    except ZeroDivisionError:  # a term's denominator, such as alpha**2, underflowed
        value = math.inf
    n = _sample_size(value, bound_id.value)
    # The order form is priced without the grid its learner searches; that
    # grid is built after the size, so a size past the doubles stays a
    # RegimeViolation.
    if bound_id is SampleBound.QUANTILE_LEARNING:
        _search_grid(alpha, bounds)
    inputs = {k: v for k, v in given.items()
              if v is not None and (k != "tau" or k in names)}
    return SampleSizeReport(bound_id, n, inputs, exact)
