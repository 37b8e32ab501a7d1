"""The median bandwidth streams the distances and returns np.median(pdist(X))'s bits.

`median_bandwidth` never holds the n(n-1)/2 distances: it brackets the median
with a sample and keeps only the distances inside the bracket. On every fixture
it must return exactly float(np.median(pdist(X))) and raise the same typed
errors; whatever the sample says, a bracket that misses must end in the exact
value; and its peak memory must stay a small share of the distance array.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from protoselect import Dataset, DegenerateDataError, NumericError, median_bandwidth
from protoselect import kernel
from helpers import RULES


def reference(X):
    return float(np.median(pdist(X)))


def normal(n, d=3, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def with_ties(n, seed=0):
    return np.random.default_rng(seed).integers(0, 3, size=(n, 2)).astype(float)


def with_duplicates(n, seed=0):
    X = normal(n, seed=seed)
    X[: n // 4] = X[0]
    return X


# name: rows. n = 2, 3, 6 and 65 give an odd pair count, n = 4, 5 and 64 an even one;
# 64 and 65 rows end on and just past a chunk.
FIXTURES = {
    "n2": normal(2), "n3": normal(3), "n4_even": normal(4), "n5_even": normal(5),
    "n6_odd": normal(6), "n64_even": normal(64, d=5), "n65_odd": normal(65, d=1),
    "n300": normal(300, d=20), "ties": with_ties(50), "ties_even": with_ties(61),
    "duplicates": with_duplicates(40), "sorted_rows": np.sort(normal(200, d=1), axis=0),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_equals_the_median_of_pdist(name):
    X = FIXTURES[name]
    assert median_bandwidth(Dataset(X)) == reference(X)


def test_ties_and_duplicates_have_a_nonzero_median():
    for X in (FIXTURES["ties"], FIXTURES["duplicates"]):
        assert reference(X) > 0 and np.any(pdist(X) == 0)


def test_a_row_at_1e300_leaves_the_median_finite():
    X = normal(20, seed=0)
    X[0] = 1e300
    assert np.isinf(pdist(X)).sum() == 19
    assert median_bandwidth(Dataset(X)) == reference(X) == 2.216466367246994


def test_rows_at_1e300_past_the_middle_raise_numeric_error():
    X = normal(20, seed=0)
    X[:12] += 1e300
    assert np.isinf(reference(X))
    with pytest.raises(NumericError):
        median_bandwidth(Dataset(X))


def test_identical_rows_raise_degenerate_data_error():
    with pytest.raises(DegenerateDataError):
        median_bandwidth(Dataset(np.full((30, 2), 0.5)))


def median_and_passes(X, sample=None):
    """(median, passes over the distances), with `sample` as the bracket's sample if given."""
    passes = []
    real_pass, real_sample = kernel._bracket_pass, kernel._pair_sample

    def counted(*args):
        passes.append(1)
        return real_pass(*args)

    fake = real_sample if sample is None else (lambda X: np.asarray(sample, dtype=float))
    with mock.patch.object(kernel, "_pair_sample", fake), \
            mock.patch.object(kernel, "_bracket_pass", counted):
        return median_bandwidth(Dataset(X)), len(passes)


@pytest.mark.parametrize("sample", [np.zeros(200), np.full(200, 1e9), np.linspace(0, 0.1, 5000),
                                    np.linspace(10, 20, 5000), []],
                         ids=["all_zero", "all_far", "below", "above", "empty"])
@pytest.mark.parametrize("n", [2, 3, 40, 130])
def test_a_missed_bracket_moves_until_it_holds_the_median(sample, n):
    X = normal(n, seed=n)
    got, passes = median_and_passes(X, sample)
    assert got == reference(X)
    if len(sample) and n > 3:
        assert passes > 1  # these samples put the bracket off the median


@RULES
@given(n=st.integers(2, 150), d=st.integers(1, 6), scale=st.integers(-8, 8),
       seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans())
def test_any_shape_and_scale_gives_the_bits_of_pdist(n, d, scale, seed, ties):
    X = np.random.default_rng(seed).normal(size=(n, d))
    if ties:
        X = np.round(X)
    X *= 10.0 ** scale
    expected = reference(X)
    if expected == 0.0:
        with pytest.raises(DegenerateDataError):
            median_bandwidth(Dataset(X))
    else:
        assert median_bandwidth(Dataset(X)) == expected


@RULES
@given(n=st.integers(2, 60), sample=st.lists(st.floats(0.0, 10.0), max_size=300))
def test_any_sample_ends_in_the_exact_median(n, sample):
    X = normal(n, seed=n)
    assert median_and_passes(X, np.sort(sample))[0] == reference(X)


def test_peak_memory_is_a_small_share_of_the_distance_array():
    n = 3000
    X = normal(n, d=20, seed=3)
    tracemalloc.start()
    try:
        got, passes = median_and_passes(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference(X)
    assert peak < 8 * n * (n - 1) / 2 / 8  # an eighth of pdist's 36 MB
    assert passes == 1  # the sample's bracket holds on gaussian rows


def test_the_kept_distances_are_held_once():
    # A crafted sample brackets 5/7 of the distances, so the kept set dominates the
    # peak: held as chunks and again as their concatenation, it would double it.
    n = 2000
    X = normal(n, seed=4)
    dist = np.sort(pdist(X))
    sample = dist[np.linspace(0, dist.size - 1, 36).astype(int)]
    del dist
    kept = []
    real_pass = kernel._bracket_pass

    def recorded(*args):
        counts = real_pass(*args)
        kept.append(counts[3].nbytes)
        return counts

    with mock.patch.object(kernel, "_bracket_pass", recorded):
        tracemalloc.start()
        try:
            got, passes = median_and_passes(X, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == reference(X)
    assert passes == 1 and kept[0] > 8 * n * (n - 1) / 2 / 2
    assert peak < 1.5 * kept[0]
