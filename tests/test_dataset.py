import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from privexp.dataset import Dataset, RateBounds
from privexp.errors import EmptyDataset, InputError, InvalidRatio
from privexp.privacy import NoiseScale, RngStream, noisy_fraction_below

MAX = float(np.finfo(np.float64).max)


class TestDataset:
    def test_preserves_insertion_order(self):
        d = Dataset([3.0, 1.0, 2.0])
        assert list(d.values) == [3.0, 1.0, 2.0]
        assert d.n == len(d) == 3

    def test_rejects_empty(self):
        with pytest.raises(EmptyDataset):
            Dataset([])

    def test_rejects_negative_and_nonfinite(self):
        # a non-finite value is named before a negative one
        finite = "dataset values must be finite"
        for values, message in [
                ([1.0, -0.5], "dataset values must be nonnegative"),
                ([1.0, math.nan], finite), ([1.0, math.inf], finite),
                ([-1.0, math.nan], finite), ([-math.inf, 1.0], finite),
                ([math.nan], finite), ([-1.0, math.inf, 2.0], finite)]:
            with pytest.raises(InputError) as exc_info:
                Dataset(values)
            assert type(exc_info.value) is InputError
            assert str(exc_info.value) == message

    def test_rejects_non_flat(self):
        with pytest.raises(InputError):
            Dataset([[1.0, 2.0], [3.0, 4.0]])

    def test_zero_allowed(self):
        assert Dataset([0.0]).min() == 0.0
        assert Dataset([-0.0]).max() == 0.0
        assert Dataset([3.0, -0.0]).count_below(0.0) == 0

    def test_values_read_only(self):
        d = Dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            d.values[0] = 5.0

    def test_source_array_mutation_does_not_leak(self):
        source = np.array([3.0, 1.0, 2.0])
        d = Dataset(source)
        source[:] = [0.0, 100.0, -5.0]
        assert list(d.values) == [3.0, 1.0, 2.0]
        assert d.count_below(2.5) == 2
        assert d.min() == 1.0 and d.max() == 3.0

    def test_counting_query(self):
        d = Dataset([0.5, 1.5, 2.5, 3.5])
        assert d.count_below(2.0) == 2
        assert d.count_below(0.5) == 0  # strict: x < t
        assert d.count_below(100.0) == 4

    def test_min_max(self):
        d = Dataset([2.0, 7.0, 0.25])
        assert d.min() == 0.25 and d.max() == 7.0

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50),
           st.floats(-1.0, 1e6 + 1))
    def test_count_below_matches_direct_scan(self, values, threshold):
        # at a drawn threshold, and at min(), max() and their neighbouring
        # doubles, where the count is 0 or n without a pass
        d = Dataset(values)
        ends = [t for v in (d.min(), d.max())
                for t in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
        for t in (threshold, *ends):
            assert d.count_below(t) == sum(1 for v in values if v < t), t

    @given(st.data())
    def test_matches_searchsorted_oracle(self, data):
        # the sorted-copy counting it replaced: ties, signed zeros,
        # subnormals and values near the float maximum, at thresholds of
        # +-0, +-inf and each value with its neighbours
        values = data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.0 ** -1022, 1.0,
                             1.7e308, MAX]),
            st.floats(0.0, MAX), st.floats(1.7e308, MAX)), min_size=1, max_size=30))
        values += data.draw(st.lists(st.sampled_from(values), max_size=10))
        d = Dataset(values)
        ordered = np.sort(np.array(values))
        assert (d.min(), d.max()) == (ordered[0], ordered[-1])
        thresholds = [0.0, -0.0, math.inf, -math.inf] + [
            t for v in values
            for t in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
        for t in thresholds:
            assert d.count_below(t) == int(ordered.searchsorted(t))

    def test_nan_threshold_is_refused(self):
        d = Dataset([0.5, 1.5])
        for nan in (math.nan, np.float64("nan")):
            with pytest.raises(InputError) as exc_info:
                d.count_below(nan)
            assert type(exc_info.value) is InputError
            with pytest.raises(InputError):
                noisy_fraction_below(d, nan, NoiseScale(1.0),
                                     RngStream(0, noiseless=True))

    def test_peak_memory_is_one_private_copy(self):
        n = 100_000
        source = np.random.default_rng(4).exponential(1.0, n)
        tracemalloc.start()
        try:
            Dataset(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n


class TestAdopt:
    # Dataset._adopt keeps a fresh array the caller gives up, without a
    # copy; it must check what Dataset(...) checks

    @pytest.mark.parametrize("values", [
        [1.0, -0.5], [1.0, math.nan], [1.0, math.inf], [-1.0, math.nan],
        [-math.inf, 1.0], [math.nan], [-1.0, math.inf, 2.0],
        [1.0, math.nan, 2.0], [0.0, 1.0, math.inf], [-2.0, -1.0], [], [[1.0]]])
    def test_rejects_what_the_constructor_rejects(self, values):
        with pytest.raises((InputError, EmptyDataset)) as want:
            Dataset(values)
        with pytest.raises(type(want.value)) as got:
            Dataset._adopt(np.array(values, dtype=np.float64))
        assert str(got.value) == str(want.value)

    def test_one_read_only_buffer(self):
        arr = np.array([2.5, 0.5, 1.5])
        d = Dataset._adopt(arr)
        assert d.values is arr
        assert list(d.values) == [2.5, 0.5, 1.5]
        with pytest.raises(ValueError):
            d.values[0] = 5.0
        with pytest.raises(ValueError):
            arr[0] = 5.0

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50),
           st.floats(-1.0, 1e6 + 1))
    def test_matches_the_constructor(self, values, threshold):
        d = Dataset._adopt(np.array(values, dtype=np.float64))
        want = Dataset(values)
        assert d.values.tobytes() == want.values.tobytes()
        assert (d.n, d.min(), d.max()) == (want.n, want.min(), want.max())
        assert d.count_below(threshold) == sum(1 for v in values if v < threshold)


class TestRateBounds:
    def test_valid(self):
        b = RateBounds(0.5, 2.0)
        assert b.ratio == 4.0

    def test_rejects_degenerate(self):
        for lo, hi in [(2.0, 2.0), (3.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                       (1.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(InvalidRatio):
                RateBounds(lo, hi)

    def test_contains_is_strict(self):
        b = RateBounds(1.0, 4.0)
        assert b.contains(2.0)
        assert not b.contains(1.0)
        assert not b.contains(4.0)
        assert not b.contains(5.0)
