"""Private quantile search over a dyadic grid (sparse vector technique),
and the clipping-range rule built on top of it.

The mechanism draws one noisy threshold, then scans the grid issuing one
fresh noisy counting query per point, halting at the first point whose
noisy empirical CDF reaches the threshold. Only the first positive report
is released, which is what keeps the whole scan at a single epsilon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RateBounds
from .errors import IncompleteInputs, InvalidRatio, TooFewSamples, check_in
from .privacy import NoiseScale, PrivacyBudget, RngStream, noisy_fraction_below, sample_laplace

__all__ = ["QuantileResult", "svt_grid", "svt_quantile", "clipping_range"]

# The quantile approximation guarantee holds for target levels bounded away
# from both ends; outside this window the constant-factor analysis breaks.
THETA_MIN = 0.1
THETA_MAX = 0.9

# Approximation constant of the SVT quantile; also the constant folded into
# the clipping-range rule.
QUANTILE_APPROX_FACTOR = 6.0


@dataclass(frozen=True)
class QuantileResult:
    """First grid point whose noisy empirical CDF cleared the noisy threshold."""

    quantile_value: float
    grid_index: int


@dataclass(frozen=True)
class SearchGrid:
    """Positions lo * step**k, k = 0..n_steps, of the grid `name`.

    A band search looks for a position whose noisy CDF falls in level +-
    half_band within `probes` probes, a cap that fixes its per-probe noise
    scale, and the calculators price it from the same cap and half-band; the
    SVT scan has the level 1 - theta and no band. This is the one check of
    the package's grids: a step that is not a finite double above 1, a step
    count (kept rounded up) that is not positive and finite, or a top
    position lo * step**n_steps past the doubles raises InvalidRatio.
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
                if self.lo * self.step ** self.n_steps < math.inf:
                    return
            except OverflowError:  # float ** raises past the largest double
                pass
        raise InvalidRatio(f"{self.name} leaves the doubles: step {self.step!r}, "
                           f"{self.n_steps!r} steps from {self.lo!r}")

    @property
    def probes(self) -> int:
        return math.ceil(math.log2(self.n_steps + 1))


@functools.lru_cache(maxsize=128)  # by value, as learners._search_grid
def svt_grid(bounds: RateBounds, theta: float) -> np.ndarray:
    """Geometric grid of candidate quantile values, as a read-only array
    that calls with equal arguments share.

    The target (1-theta)-quantile of Exp(rate) is ln(1/theta)/rate, which for
    rate in [lower, upper] ranges over [ln(1/theta)/upper, ln(1/theta)/lower].
    Doubling from 1/upper with a few slack doublings covers that whole window
    while keeping the checkpoint count logarithmic in the bounds ratio.
    The points are 2^i/upper, which (1/upper) * 2^i equals only while
    1/upper is a normal double. Raises InvalidRatio when they leave the
    doubles.
    """
    if bounds is None:
        raise IncompleteInputs("rate bounds are needed, got None")
    span = math.ceil(math.log2(bounds.ratio))
    slack = math.ceil(math.log2(max(1.0, math.log(1.0 / theta))))
    grid = SearchGrid(f"the SVT grid of {bounds}", 1.0 / bounds.upper, 2.0,
                      span + slack + 2, 1.0 - theta, 0.0)
    points = np.array([2.0 ** i / bounds.upper for i in range(grid.n_steps + 1)])
    points.setflags(write=False)
    return points


def svt_quantile(data: Dataset, bounds: RateBounds, theta: float,
                 budget: PrivacyBudget, rng: RngStream):
    """Return the first grid point g with noisy CDF(g) >= noisy (1-theta),
    or None if the grid is exhausted.

    Consumes the whole budget regardless of where the scan halts: SVT pays
    once for the first positive report, not per query.
    """
    check_in("target level theta", theta, THETA_MIN, THETA_MAX, ends="[]")
    grid = svt_grid(bounds, theta)
    budget.consume()
    eps, n = budget.epsilon, data.n
    threshold_scale = NoiseScale(2.0 / (eps * n))
    query_scale = NoiseScale(4.0 / (eps * n))
    threshold = (1.0 - theta) + sample_laplace(threshold_scale, rng)
    for i, point in enumerate(grid):
        value = noisy_fraction_below(data, point, query_scale, rng)
        if value >= threshold:
            return QuantileResult(float(point), i)
    return None


def clipping_range(q: QuantileResult, n: int, theta: float, beta: float) -> float:
    """Clipping level R = C * Q * ln(n) with C = (6/ln(1/theta)) * (1 + ln(1/beta)/ln(n)).

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
    return c * q.quantile_value * log_n
