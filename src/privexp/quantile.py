"""Private searches over geometric grids, and the clipping-range rule built
on one of them.

SearchGrid is the one grid value, positions lo * step**k. Each search takes
one and returns a position as a float. svt_quantile (the sparse vector
technique) scans the positions in order for the first whose noisy CDF
reaches a noisy level; only that first report is released, which keeps the
whole scan at a single epsilon. It returns None past the last position.
_band_search, a noisy binary search, raises SearchExhausted naming the grid
once its probes are used up; the learners report an exhausted scan the same
way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .dataset import Dataset, RateBounds
from .errors import (IncompleteInputs, InvalidRatio, OutOfRegime, SearchExhausted,
                     TooFewSamples, check_in)
from .privacy import NoiseScale, PrivacyBudget, RngStream, noisy_fraction_below, sample_laplace

__all__ = ["svt_grid", "svt_quantile", "clipping_range"]

# The quantile approximation guarantee holds for target levels bounded away
# from both ends; outside this window the constant-factor analysis breaks.
THETA_MIN = 0.1
THETA_MAX = 0.9

# Approximation constant of the SVT quantile; also the constant folded into
# the clipping-range rule.
QUANTILE_APPROX_FACTOR = 6.0

# The smallest alpha any grid is built for; _check_alpha derives it.
_ALPHA_MIN = 2.0 ** -40


@dataclass(frozen=True)
class SearchGrid:
    """Positions lo * step**k, k = 0..n_steps, of the grid `name`.

    A band search looks for a position whose noisy CDF falls in level +-
    half_band within `probes` probes, a cap that fixes its per-probe noise
    scale, and the calculators price it from the same cap and half-band; the
    SVT scan has the level 1 - theta and no band. This is the one check of
    the package's grids: a step that is not a finite double above 1, a step
    count (kept rounded up) that is not positive and finite, or a top
    position past the doubles raises InvalidRatio.
    """

    name: str
    lo: float
    step: float
    n_steps: int
    level: float
    half_band: float

    def __post_init__(self):
        if 1.0 < self.step < math.inf and 0 < self.n_steps < math.inf:
            object.__setattr__(self, "n_steps", math.ceil(self.n_steps))
            try:
                if self.position(self.n_steps) < math.inf:
                    return
            except OverflowError:  # float ** raises past the largest double
                pass
        raise InvalidRatio(f"{self.name} leaves the doubles: step {self.step!r}, "
                           f"{self.n_steps!r} steps from {self.lo!r}")

    def position(self, k: int) -> float:
        """The k-th position, lo * step**k."""
        return self.lo * self.step ** k

    @property
    def probes(self) -> int:
        return math.ceil(math.log2(self.n_steps + 1))


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


# By value, as learners._search_grid; typed, so that a theta of another
# type (np.float32(0.5), say) is checked, not served an equal float's grid.
@functools.lru_cache(maxsize=128, typed=True)
def svt_grid(bounds: RateBounds, theta: float) -> SearchGrid:
    """The SVT scan's grid of candidate (1 - theta)-quantiles, at the level
    1 - theta; calls with equal arguments share one grid.

    The target (1-theta)-quantile of Exp(rate) is ln(1/theta)/rate, which for
    rate in [lower, upper] ranges over [ln(1/theta)/upper, ln(1/theta)/lower].
    Doubling from 1/upper with a few slack doublings covers that whole window
    while keeping the checkpoint count logarithmic in the bounds ratio.
    The positions (1/upper) * 2^k equal 2^k/upper bit for bit while 1/upper
    is a normal double, that is for upper <= 2^1022. Raises OutOfRegime for
    a theta outside [THETA_MIN, THETA_MAX] and InvalidRatio when the
    positions leave the doubles.
    """
    check_in("target level theta", theta, THETA_MIN, THETA_MAX, ends="[]")
    if bounds is None:
        raise IncompleteInputs("rate bounds are needed, got None")
    span = math.ceil(math.log2(bounds.ratio))
    slack = math.ceil(math.log2(max(1.0, math.log(1.0 / theta))))
    return SearchGrid(f"the SVT grid of {bounds} at theta = {theta!r}",
                      1.0 / bounds.upper, 2.0, span + slack + 2, 1.0 - theta, 0.0)


def svt_quantile(data: Dataset, grid: SearchGrid, budget: PrivacyBudget,
                 rng: RngStream):
    """Return the first position p of grid with noisy CDF(p) >= noisy
    grid.level, or None if the scan passes every position.

    Consumes the whole budget regardless of where the scan halts: SVT pays
    once for the first positive report, not per query.
    """
    budget.consume()
    eps, n = budget.epsilon, data.n
    threshold_scale = NoiseScale(2.0 / (eps * n))
    query_scale = NoiseScale(4.0 / (eps * n))
    threshold = grid.level + sample_laplace(threshold_scale, rng)
    for k in range(grid.n_steps + 1):
        position = grid.position(k)
        if noisy_fraction_below(data, position, query_scale, rng) >= threshold:
            return position
    return None


def _band_search(data: Dataset, grid: SearchGrid, budget: PrivacyBudget,
                 rng: RngStream) -> float:
    """The first position of grid whose noisy CDF falls in its band; raises
    SearchExhausted, naming the grid, once grid.probes probes are used up."""
    budget.consume()
    cap = grid.probes
    scale = NoiseScale(cap / (budget.epsilon * data.n))
    band_lo = grid.level - grid.half_band
    band_hi = grid.level + grid.half_band

    low, high = 0, grid.n_steps
    for _ in range(cap):
        mid = (low + high) // 2
        position = grid.position(mid)
        value = noisy_fraction_below(data, position, scale, rng)
        if value > band_hi:
            high = mid
        elif value < band_lo:
            low = mid
        else:
            return position
    raise SearchExhausted(f"{grid.name}: no position accepted within {cap} probes; "
                          "the target outside the grid or n too small")


def clipping_range(quantile_value: float, n: int, theta: float, beta: float) -> float:
    """Clipping level R = C * Q * ln(n) with C = (6/ln(1/theta)) * (1 + ln(1/beta)/ln(n)),
    Q the (1 - theta)-quantile found by svt_quantile.

    With probability >= 1 - 2*beta all n samples fall below R, so clipping at
    R costs only a vanishing bias. beta = 1 is allowed (drops the confidence
    inflation term); this is the whole-dataset coverage rule, applied exactly
    once in the MLE pipeline.
    """
    if n < 2:
        raise TooFewSamples(f"clipping range needs n >= 2, got {n}")
    check_in("beta", beta, 0.0, 1.0, ends="(]")
    log_n = math.log(n)
    c = (QUANTILE_APPROX_FACTOR / math.log(1.0 / theta)) * (1.0 + math.log(1.0 / beta) / log_n)
    return c * quantile_value * log_n
