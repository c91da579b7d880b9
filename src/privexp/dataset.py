"""Immutable sample container and rate-bound interval."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InputError, InvalidRatio, check_in

__all__ = ["Dataset", "RateBounds"]


class Dataset:
    """An immutable collection of nonnegative finite reals.

    Keeps a sorted copy so counting queries (#{x < t}) cost O(log n) via
    binary search; the learners issue many of these per invocation. Input
    is checked at that copy's ends: sorting puts -inf first, +inf and NaN last.

    Dataset(values) copies its input and sorts a second copy. An array
    adopted with Dataset._adopt is kept as one read-only buffer that serves
    both as values and as the sorted copy, so its values are ascending.
    """

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)  # a private copy
        _check_shape(arr)
        self._keep(arr, np.sort(arr))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Dataset:
        """A Dataset over arr, a fresh float64 array the caller gives up.

        Ascending order is checked, not trusted: arr is sorted in place when
        one comparison pass finds it out of order (NaN compares false).
        """
        _check_shape(arr)
        if not (arr[:-1] <= arr[1:]).all():
            arr.sort()
        data = cls.__new__(cls)
        data._keep(arr, arr)
        return data

    def _keep(self, values: np.ndarray, sorted_values: np.ndarray) -> None:
        """Check the sorted copy's ends, then freeze and keep both arrays."""
        if not np.isfinite(sorted_values[[0, -1]]).all():
            raise InputError("dataset values must be finite")
        if sorted_values[0] < 0:
            raise InputError("dataset values must be nonnegative")
        values.setflags(write=False)
        sorted_values.setflags(write=False)
        self._values = values
        self._sorted = sorted_values
        self.n = int(values.size)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def count_below(self, threshold: float) -> int:
        """#{x in data : x < threshold}."""
        return int(self._sorted.searchsorted(threshold))

    def fraction_below(self, threshold: float) -> float:
        return self.count_below(threshold) / self.n

    def min(self) -> float:
        return float(self._sorted[0])

    def max(self) -> float:
        return float(self._sorted[-1])

    def __len__(self) -> int:
        return self.n

    def __repr__(self):  # pragma: no cover
        return f"Dataset(n={self.n})"


def _check_shape(arr: np.ndarray) -> None:
    if arr.ndim != 1:
        raise InputError(f"expected a flat sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyDataset("dataset must contain at least one value")


@dataclass(frozen=True)
class RateBounds:
    """An interval 0 < lower < upper of plausible rate (or shape) values."""

    lower: float
    upper: float

    def __post_init__(self):
        lo = check_in("lower", self.lower, 0.0, math.inf, InvalidRatio)
        hi = check_in("upper", self.upper, 0.0, math.inf, InvalidRatio)
        if not lo < hi:
            raise InvalidRatio(f"need lower < upper, got ({lo!r}, {hi!r})")

    @property
    def ratio(self) -> float:
        return self.upper / self.lower

    def contains(self, value: float) -> bool:
        return self.lower < value < self.upper
