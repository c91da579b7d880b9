"""Differentially private learning of exponential and Pareto distributions.

Pure-DP learners (clipped-mean MLE route, noisy binary search on a fixed
quantile, and an adaptive combination of the two), an approximate-DP range
finder that removes the need for a priori rate bounds, exact total-variation
machinery for exponential laws, sample-size calculators with a matching
packing lower bound, and a reproducible Monte Carlo harness.
"""

from .analysis import (PackingFamily, SampleBound, SampleSizeReport,
                       build_packing, lower_bound_n, quantile_order_terms,
                       required_n)
from .bounds import (DyadicHistogram, dyadic_histogram, find_bounds,
                     learn_without_bounds, noisy_histogram)
from .dataset import Dataset, RateBounds
from .distributions import (ExpModel, ParetoModel, exp_tv, exp_tv_crossing,
                            pareto_kl_equal_scale, pareto_tv_bound, sample,
                            separation_T)
from .errors import (BadSplit, BudgetExhausted, EmptyDataset, EmptyRequest,
                     EmptyTail, IncompleteInputs, InputError, InvalidRate,
                     InvalidRatio, InvalidScale, InvalidShape, NoBinSurvived,
                     NonpositiveMean, OutOfRegime, PrivexpError,
                     RangeEstimationFailed, RegimeViolation, ScaleViolation,
                     SearchExhausted, TooFewSamples)
from .harness import (ExperimentSpec, ExperimentSummary, Learner, TrialRecord,
                      estimate_from_file, read_values, run_experiment,
                      run_sweep, sweep_csv, write_sample)
from .learners import (Estimate, LearnerConfig, Route, best_of_both,
                       mle_learning, private_mle, quantile_learning)
from .pareto import (DEFAULT_TAIL_QUANTILE, ParetoEstimate, learn_pareto,
                     learn_pareto_known_scale, log_transform, recover_scale)
from .privacy import (NoiseScale, PrivacyBudget, RngStream,
                      noisy_fraction_below, sample_laplace)
from .quantile import clipping_range, svt_grid, svt_quantile

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # privacy primitives
    "PrivacyBudget", "RngStream", "NoiseScale", "sample_laplace",
    "noisy_fraction_below",
    # data and models
    "Dataset", "RateBounds", "ExpModel", "ParetoModel", "sample",
    # exact distance machinery
    "exp_tv", "exp_tv_crossing", "separation_T", "pareto_kl_equal_scale",
    "pareto_tv_bound",
    # quantile estimation
    "svt_grid", "svt_quantile", "clipping_range",
    # exponential learners
    "LearnerConfig", "Estimate", "Route", "private_mle", "mle_learning",
    "quantile_learning", "best_of_both",
    # range finding without bounds
    "DyadicHistogram", "dyadic_histogram", "noisy_histogram", "find_bounds",
    "learn_without_bounds",
    # Pareto learners
    "ParetoEstimate", "DEFAULT_TAIL_QUANTILE", "log_transform",
    "recover_scale", "learn_pareto", "learn_pareto_known_scale",
    # analysis
    "SampleBound", "SampleSizeReport", "PackingFamily", "required_n",
    "build_packing", "lower_bound_n", "quantile_order_terms",
    # harness
    "Learner", "ExperimentSpec", "TrialRecord", "ExperimentSummary",
    "run_experiment", "run_sweep", "sweep_csv", "read_values", "write_sample",
    "estimate_from_file",
    # errors
    "PrivexpError", "InvalidScale", "EmptyDataset", "BadSplit",
    "BudgetExhausted", "InvalidRate", "InvalidRatio", "InvalidShape",
    "EmptyRequest", "OutOfRegime", "TooFewSamples", "NonpositiveMean",
    "RangeEstimationFailed", "SearchExhausted",
    "NoBinSurvived", "ScaleViolation", "EmptyTail",
    "IncompleteInputs", "RegimeViolation", "InputError",
]
