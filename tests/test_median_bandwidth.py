"""The median bandwidth filters the distances and returns np.median(pdist(X))'s bits.

`median_bandwidth` never holds the n(n-1)/2 distances: it brackets the median
with a sample, and one pass counts the pairs whose GEMM estimate lies surely
below the bracket, drops those surely above, and keeps the rest with their
estimates. Only the kept pairs near the median's rank, and the pairs of a row
too far out for the GEMM, are computed exactly. On every fixture it must return
exactly float(np.median(pdist(X))) and raise the same typed errors; whatever the
sample says, and however wide a valid margin is, a bracket that misses must end
in the exact value; and its peak memory must stay a small share of the distance
array.
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
# 64 and 65 rows end on and just past a chunk. Rows shifted by 1e6 are exact only if
# the filter centres them; rows rounded to 0.1 tie at the bracket's edges, where their
# rounded estimates fall on either side. Both span several chunks.
FIXTURES = {
    "n2": normal(2), "n3": normal(3), "n4_even": normal(4), "n5_even": normal(5),
    "n6_odd": normal(6), "n64_even": normal(64, d=5), "n65_odd": normal(65, d=1),
    "n300": normal(300, d=20), "ties": with_ties(50), "ties_even": with_ties(61),
    "duplicates": with_duplicates(40), "sorted_rows": np.sort(normal(200, d=1), axis=0),
    "offset_1e6": normal(200, d=4, seed=5) + 1e6, "rounded": np.round(normal(300, d=4, seed=5), 1),
    "rounded_d1": np.round(normal(150, d=1, seed=5), 1),
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
    # A crafted sample brackets 5/7 of the distances, so the kept pairs dominate the peak:
    # held as chunks and again as their concatenation, or copied to be partitioned, they
    # would double it.
    n = 2000
    X = normal(n, seed=4)
    dist = np.sort(pdist(X))
    sample = dist[np.linspace(0, dist.size - 1, 36).astype(int)]
    del dist
    kept = []
    real_pass = kernel._bracket_pass

    def recorded(*args):
        below, held, margin = real_pass(*args)
        kept.append(held.nbytes)
        return below, held, margin

    with mock.patch.object(kernel, "_bracket_pass", recorded):
        tracemalloc.start()
        try:
            got, passes = median_and_passes(X, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == reference(X)
    assert passes == 1 and kept[0] > 16 * n * (n - 1) / 2 / 2  # an estimate and a pair, 16 bytes
    assert peak < 1.5 * kept[0]


def counted_distances(X, sample=None):
    """(median, distances cdist computed) over one median_bandwidth call."""
    computed = []
    real_cdist = kernel.cdist

    def counted(*args, **kwargs):
        out = real_cdist(*args, **kwargs)
        computed.append(out.size)
        return out

    with mock.patch.object(kernel, "cdist", counted):
        return median_and_passes(X, sample)[0], sum(computed)


def test_a_far_row_widens_only_its_own_margins():
    # A row at 1e150 is 1e150 from every other row. Its own pairs' margins grow with its
    # norm, but it must not widen the others': every pair is still placed without cdist.
    n = 3000
    X = np.vstack([normal(n, d=20, seed=3), np.full((1, 20), 1e150)])
    tracemalloc.start()
    try:
        got, computed = counted_distances(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference(X)
    assert peak < 8 * n * (n - 1) / 2 / 8  # as for the gaussian rows alone
    assert computed < n  # of 4.5 M pairs


def test_a_row_past_the_norm_cut_is_computed_exactly_and_alone():
    # A row at 1e200 could overflow the GEMM, so its n - 1 pairs go through cdist, and
    # still none of the others.
    n = 1000
    X = np.vstack([normal(n, d=3, seed=8), np.full((1, 3), 1e200)])
    got, computed = counted_distances(X)
    assert got == reference(X)
    assert n <= computed < 2 * n


def test_a_kept_value_outside_the_bracket_moves_it(monkeypatch):
    # The first chunk's margins, widened far past the roundoff, are still valid bounds: its
    # pairs are neither counted nor dropped, so the pairs kept below lo shift the middle
    # rank among the kept pairs off the median. A bracket that took that rank's value
    # without checking it against [lo, hi] would return a distance below the median.
    real_rows = kernel._filter_rows

    def widened(X):
        order, A, G, R, E, b = real_rows(X)
        E, b = E.copy(), b.copy()
        E[:64] *= 1e24
        b[:64] *= 1e10
        return order, A, G, R, E, b

    monkeypatch.setattr(kernel, "_filter_rows", widened)
    X = normal(400, seed=11)
    dist = np.sort(pdist(X))
    got, passes = median_and_passes(X, np.full(200, dist[dist.size // 2 + 2000]))
    assert got == reference(X)
    assert passes > 1


@pytest.mark.parametrize("name", ["rounded", "rounded_d1"])
def test_a_tie_class_at_an_edge_is_kept_not_computed(name):
    # Rows on a 0.1 grid tie in classes of hundreds of pairs. The pass keeps a class near
    # a bracket edge with its estimates; only the window at the median computes
    # distances, of 44 850 and 11 175 pairs.
    X = FIXTURES[name]
    got, computed = counted_distances(X)
    assert got == reference(X)
    assert computed < 1000


@pytest.mark.parametrize("seed", range(4))
def test_estimates_anywhere_within_the_margin_rank_exactly(seed):
    # Pull every estimate the full margin towards rank t, the pairs below it up and the
    # rest down: the window of 2 margins either side of the t-th estimate must still hold
    # the t-th distance. The margin spans several distinct distances of rows on a 0.1 grid.
    n = 30
    X = np.round(normal(n, d=2, seed=seed), 1)
    exact = pdist(X)
    a, b = np.triu_indices(n, 1)
    margin = 0.05
    rank = np.argsort(exact, kind="stable")
    for t in range(0, exact.size, 7):
        shift = np.full(exact.size, -margin)
        shift[rank[:t]] = margin
        kept = (exact + shift) + 1j * (a * n + b)
        kept.partition(t)
        assert kernel._exact_rank(X, kept, t, margin) == np.sort(exact)[t]


def sample_by_gathered_pairs(X):
    """The pair sample built as it first was: each round gathers the moved rows and their
    partners, so a row that the round's permutation fixes is never paired."""
    n = X.shape[0]
    rng = np.random.default_rng(0)
    rounds = []
    with np.errstate(over="ignore"):
        for _ in range(kernel._SAMPLE_ROUNDS):
            partner = rng.permutation(n)
            moved = partner != np.arange(n)
            diff = X[moved] - X[partner[moved]]
            rounds.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    return np.concatenate(rounds)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 1), (3, 4), (7, 2), (1000, 20), (2000, 20),
                                  (5000, 20), (300, 33)])
def test_the_pair_sample_equals_the_gathered_pairs(n, d):
    X = normal(n, d, seed=n + d) * 10.0 ** (d % 7 - 3)
    sample = kernel._pair_sample(X)
    assert sample.tobytes() == sample_by_gathered_pairs(X).tobytes()
    if n <= 3:  # some round's permutation fixes a row, whose distance is dropped
        assert sample.size < kernel._SAMPLE_ROUNDS * n


def test_the_pair_sample_of_far_rows_is_inf_as_gathered():
    X = np.array([[1e300, 0.0], [-1e300, 1.0], [0.0, 0.0], [3.0, -1e300]])
    sample = kernel._pair_sample(X)
    assert np.isinf(sample).any()
    assert sample.tobytes() == sample_by_gathered_pairs(X).tobytes()


def far_simplex(seed, far=100.0, n_far=40, n_near=60):
    """Rows whose middle distances differ by a few ulps: n_far vertices of a regular simplex
    of unit edge, `far` out along the first axis, and n_near rows in a small cloud at the
    origin, whose pairs all lie below the edge.

    The vertices' pairs, 16% of all pairs, hold the median. Rounded, they take dozens of
    distinct values within a few hundred ulps of 1, while the centred rows' norms, about
    `far`, make each GEMM estimate err by thousands of ulps of the edge: only the margins
    place these pairs.
    """
    rng = np.random.default_rng(seed)
    d = n_far
    simplex = np.linalg.qr(rng.normal(size=(d, d)))[0][:n_far] / np.sqrt(2.0)
    simplex[:, 0] += far
    return np.vstack([rng.normal(size=(n_near, d)) * 0.05, simplex])


@pytest.mark.parametrize("seed, far", [(0, 100.0), (1, 100.0), (2, 100.0), (0, 1e3), (1, 10.0)])
def test_distances_within_ulps_of_the_edge_and_the_window(seed, far):
    # A bracket edge lies among the simplex's distinct distances, and the window's middle
    # value, an estimate, within its error of them, so a filter threshold or a window
    # without its margin moves the median.
    X = far_simplex(seed, far)
    edges, middles = [], []
    real_pass, real_rank = kernel._bracket_pass, kernel._exact_rank

    def bracket(X, lo, hi):
        edges.extend((lo, hi))
        return real_pass(X, lo, hi)

    def window(X, kept, t, margin):
        middles.append(kept[t].real)
        return real_rank(X, kept, t, margin)

    with mock.patch.object(kernel, "_bracket_pass", bracket), \
            mock.patch.object(kernel, "_exact_rank", window):
        got = median_bandwidth(Dataset(X))
    assert got == reference(X)
    edge_class = np.unique(pdist(X)[np.abs(pdist(X) - 1.0) < 1e-12])
    assert edge_class.size >= 5
    assert any(abs(e - 1.0) < 1e-12 for e in edges)
    assert middles and all(abs(v - 1.0) < 1e-9 for v in middles)
