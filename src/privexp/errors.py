"""Exception types raised by the learners and their supporting machinery.

Every failure a caller might want to catch individually gets its own class;
they all inherit from PrivexpError so a bare ``except PrivexpError`` catches
any in-regime failure without also swallowing programming errors.
"""

import math

# The classes only. check_in and check_count are the package's own helpers,
# and the benchmark's tracer wraps every function a module's __all__ lists.
__all__ = ["PrivexpError", "InvalidScale", "EmptyDataset", "BadSplit",
           "BudgetExhausted", "InvalidRate", "InvalidRatio", "InvalidShape",
           "EmptyRequest", "OutOfRegime", "TooFewSamples", "NonpositiveMean",
           "RangeEstimationFailed", "SearchExhausted", "NoBinSurvived",
           "ScaleViolation", "EmptyTail", "IncompleteInputs", "RegimeViolation",
           "InputError"]


class PrivexpError(Exception):
    """Base class for all failures raised by this package."""


class InvalidScale(PrivexpError):
    """A scale parameter (Laplace scale, Pareto minimum) was not positive and finite."""


class EmptyDataset(PrivexpError):
    """An operation required at least one sample and got none."""


class BadSplit(PrivexpError):
    """Budget split fractions were malformed (nonpositive or not summing to 1)."""


class BudgetExhausted(PrivexpError):
    """A privacy budget was consumed or split more than once."""


class InvalidRate(PrivexpError):
    """An exponential rate parameter was not strictly positive and finite."""


class InvalidRatio(PrivexpError):
    """Bounds were degenerate (lower >= upper, or a nonpositive endpoint), or
    their ratio or a grid built from them leaves the finite doubles."""


class InvalidShape(PrivexpError):
    """A Pareto shape parameter was not strictly positive."""


class EmptyRequest(PrivexpError):
    """A sampler was asked for zero draws."""


class OutOfRegime(PrivexpError):
    """A tuning parameter (target quantile, accuracy, ...) left its valid range."""


class TooFewSamples(PrivexpError):
    """The dataset is too small for the requested computation."""


class NonpositiveMean(PrivexpError):
    """The noised clipped mean came out nonpositive, so 1/mean is meaningless."""


class RangeEstimationFailed(PrivexpError):
    """The private bounds finder's top bin puts the rate bounds beyond the
    doubles."""


class SearchExhausted(PrivexpError):
    """A private search over a grid found no position: the SVT scan passed
    every position, or the band search used up its probes. The message
    names the grid."""


class NoBinSurvived(PrivexpError):
    """No histogram bin cleared the noise threshold."""


class ScaleViolation(PrivexpError):
    """A sample fell below the declared Pareto scale (left endpoint)."""


class EmptyTail(PrivexpError):
    """No samples remained at or above the tail pivot."""


class IncompleteInputs(PrivexpError):
    """A computation was missing a required input (e.g. bounds for a calculator)."""


class RegimeViolation(PrivexpError):
    """Calculator inputs violate the regime its guarantee needs."""


class InputError(PrivexpError):
    """Input data was unusable: a data file could not be accessed or
    parsed, in-memory values were not a flat sequence of nonnegative
    finite reals, or a counting threshold was NaN.

    Carries the 1-based line number of the offending record when the
    failure is tied to one (parse errors); file-level failures leave it
    None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None
                         else message)
        self.line = line


def check_in(name: str, value, low: float, high: float,
             error: type[PrivexpError] = OutOfRegime, ends: str = "()") -> float:
    """Return value as a float if it is an int or a float (never a bool)
    that lies between low and high, each end open ("(", ")") or closed
    ("[", "]") as ends says; otherwise raise error naming the parameter.

    An int too large for a double fails like any value outside the interval.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
        if (low < x < high or (x == low and ends[0] == "[")
                or (x == high and ends[1] == "]")):
            return x
    raise error(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, "
                f"got {value!r}")


def check_count(name: str, value, low: int, high: float,
                error: type[PrivexpError] = OutOfRegime) -> int:
    """Return value if it is an int (never a bool) in [low, high]; otherwise
    raise error naming the parameter. Counts, sizes and seeds are exact
    integers: a float such as 2.5 is refused, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool) and low <= value <= high:
        return value
    raise error(f"{name} must be an int in [{low}, {high}], got {value!r}")
