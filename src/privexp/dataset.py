"""Immutable sample container and rate-bound interval."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InputError, InvalidRatio, check_in

__all__ = ["Dataset", "RateBounds"]


class Dataset:
    """An immutable collection of nonnegative finite reals.

    Holds one read-only float64 array, in sample order, and its min and max.
    Each count #{x < t} is one vectorized comparison, O(n) at a fraction of
    a nanosecond per value: a learner asks for a few dozen counts, and
    sorting a copy for binary search costs as much as about thirty of them.
    Dataset(values) copies its input; Dataset._adopt keeps a caller's fresh
    array without a copy, checked the same way.
    """

    def __init__(self, values):
        try:
            arr = np.array(values, dtype=np.float64)  # a private copy
        except (TypeError, ValueError) as exc:
            raise InputError(f"dataset values must be real numbers: {exc}") from None
        self._keep(arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Dataset:
        """A Dataset over arr, a fresh float64 array the caller gives up."""
        data = cls.__new__(cls)
        data._keep(arr)
        return data

    def _keep(self, arr: np.ndarray) -> None:
        """Check arr, then freeze and keep it with its min and max. NaN
        propagates into both, so non-finite is named before negative."""
        if arr.ndim != 1:
            raise InputError(f"expected a flat sequence, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptyDataset("dataset must contain at least one value")
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError("dataset values must be finite")
        if lo < 0:
            raise InputError("dataset values must be nonnegative")
        arr.setflags(write=False)
        self._values = arr
        self._min, self._max = lo, hi
        self.n = int(arr.size)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def count_below(self, threshold: float) -> int:
        """#{x in data : x < threshold}; a NaN threshold raises InputError."""
        if math.isnan(threshold):
            raise InputError("count threshold must not be NaN")
        return int(np.count_nonzero(self._values < threshold))

    def min(self) -> float:
        return self._min

    def max(self) -> float:
        return self._max

    def __len__(self) -> int:
        return self.n

    def __repr__(self):  # pragma: no cover
        return f"Dataset(n={self.n})"


@dataclass(frozen=True)
class RateBounds:
    """An interval 0 < lower < upper of plausible rate (or shape) values,
    whose ratio upper/lower is a finite double."""

    lower: float
    upper: float

    def __post_init__(self):
        lo = check_in("lower", self.lower, 0.0, math.inf, InvalidRatio)
        hi = check_in("upper", self.upper, 0.0, math.inf, InvalidRatio)
        if not lo < hi:
            raise InvalidRatio(f"need lower < upper, got ({lo!r}, {hi!r})")
        if hi / lo == math.inf:
            raise InvalidRatio(f"the ratio upper/lower of ({lo!r}, {hi!r}) "
                               f"exceeds the largest double")

    @property
    def ratio(self) -> float:
        return self.upper / self.lower

    def contains(self, value: float) -> bool:
        return self.lower < value < self.upper
