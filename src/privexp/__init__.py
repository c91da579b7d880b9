"""Differentially private learning of exponential and Pareto distributions.

Pure-DP learners (clipped-mean MLE route, noisy binary search on a fixed
quantile, and an adaptive combination of the two), an approximate-DP range
finder that removes the need for a priori rate bounds, exact total-variation
machinery for exponential laws, sample-size calculators with a matching
packing lower bound, and a reproducible Monte Carlo harness.

Each library module's ``__all__`` is the one list of its public names: the
package exports exactly those, and ``__version__``.
"""

from . import (analysis, bounds, dataset, distributions, errors, harness, learners,
               pareto, privacy, quantile)
from .analysis import *
from .bounds import *
from .dataset import *
from .distributions import *
from .errors import *
from .harness import *
from .learners import *
from .pareto import *
from .privacy import *
from .quantile import *

__version__ = "0.1.0"

__all__ = ["__version__", *(name for module in (
    analysis, bounds, dataset, distributions, errors, harness, learners, pareto,
    privacy, quantile) for name in module.__all__)]
