import numpy as np
import pytest
from scipy.spatial.distance import pdist

from protoselect import (
    Dataset,
    DegenerateDataError,
    InputError,
    KernelMatrix,
    KernelSpec,
    MeanMap,
    NumericError,
    ProtoSelectError,
    SolverConfig,
    kernel_eval,
    kernel_matrix,
    kkt_residual,
    mean_map,
    median_bandwidth,
    rank_sources,
)
from protoselect.selectors import SelectionConfig, proto_dash
from helpers import entries_of, gaussian_instance


def gauss(sigma=1.0, jitter=0.0):
    return KernelSpec("gaussian", bandwidth=sigma, jitter=jitter)


def closed_form(x, y, sigma):
    """exp(-|x - y|^2 / (2 sigma^2)), written out apart from the package's formula."""
    return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * sigma ** 2)))


class TestKernelEval:
    def test_gaussian_zero_distance(self):
        x = np.array([1.5, -2.0, 0.25])
        assert kernel_eval(x, x, gauss()) == pytest.approx(1.0)

    def test_gaussian_unit_distance(self):
        assert kernel_eval(np.array([0.0]), np.array([1.0]), gauss()) == pytest.approx(
            np.exp(-0.5)
        )

    def test_linear_dot_product(self):
        assert kernel_eval(np.array([1.0, 2.0]), np.array([3.0, -1.0]), KernelSpec("linear")) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_eval(np.array([1.0]), np.array([1.0, 2.0]), gauss())

    def test_gaussian_overflowing_distance_is_zero(self):
        # the squared distance overflows to inf, as cdist's does in mean_map
        assert kernel_eval([1e200], [-1e200], gauss()) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y, shift = rng.normal(size=(3, 4))
            a = kernel_eval(x, y, gauss(sigma=1.7))
            b = kernel_eval(x + shift, y + shift, gauss(sigma=1.7))
            assert a == pytest.approx(b, rel=1e-12)

    def test_gaussian_equals_the_gram_entry(self):
        # one formula: every entry bit for bit, off the diagonal too
        X = np.random.default_rng(11).normal(size=(60, 7))
        spec = gauss(sigma=1.3)
        want = entries_of(kernel_matrix(Dataset(X), spec))
        got = np.array([[kernel_eval(x, y, spec) for y in X] for x in X])
        assert np.array_equal(got, want)


class TestKernelMatrix:
    def test_identical_rows_all_ones(self):
        K = kernel_matrix(Dataset(np.array([[0.5, 1.0], [0.5, 1.0]])), gauss())
        np.testing.assert_allclose(entries_of(K), np.ones((2, 2)))

    def test_two_points_closed_form(self):
        K = kernel_matrix(Dataset(np.array([[0.0], [1.0]])), gauss())
        expected = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
        np.testing.assert_allclose(entries_of(K), expected, rtol=1e-12)

    def test_matches_per_entry_oracle(self):
        # independent oracle: the closed form, entry by entry
        rng = np.random.default_rng(1)
        X = rng.normal(size=(3, 4))
        spec = gauss(sigma=1.3)
        K = kernel_matrix(Dataset(X), spec)
        for i in range(3):
            for j in range(3):
                want = closed_form(X[i], X[j], 1.3)
                if i == j:
                    want = 1.0
                assert entries_of(K)[i, j] == pytest.approx(want, abs=1e-12)

    def test_exact_symmetry(self):
        # nothing mirrors the block, so both families must come out symmetric
        # from C-ordered, Fortran-ordered and strided feature arrays alike
        rng = np.random.default_rng(2)
        specs = (gauss(sigma=0.8, jitter=1e-10), KernelSpec("linear", jitter=1e-10))
        for n in (2, 5, 17, 64):
            X = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-3, 3)
            for values in (X, np.asfortranarray(X), X[:, ::2]):
                for spec in specs:
                    K = kernel_matrix(Dataset(values), spec)
                    assert np.array_equal(entries_of(K), entries_of(K).T)

    def test_gaussian_diagonal_and_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        jitter = 1e-10
        K = kernel_matrix(Dataset(X), gauss(sigma=1.1, jitter=jitter))
        assert np.all(np.diagonal(entries_of(K)) == 1.0 + jitter)
        off = entries_of(K)[~np.eye(6, dtype=bool)]
        assert np.all(off > 0) and np.all(off <= 1.0)

    def test_positive_definite_small(self):
        rng = np.random.default_rng(4)
        for n in range(2, 9):
            X = rng.normal(size=(n, 2))
            K = kernel_matrix(Dataset(X), gauss(sigma=1.0, jitter=1e-10))
            assert np.linalg.eigvalsh(entries_of(K)).min() > 0

    def test_linear_family(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        K = kernel_matrix(Dataset(X), KernelSpec("linear", jitter=0.0))
        np.testing.assert_allclose(entries_of(K), np.array([[1.0, 0.0], [0.0, 4.0]]))

    def test_overflow_raises_numeric_error(self):
        rng = np.random.default_rng(8)
        source = Dataset(rng.normal(size=(5, 3)) * 1e200)
        target = Dataset(rng.normal(size=(4, 3)) * 1e200)
        spec = KernelSpec("linear")
        with pytest.raises(NumericError):
            kernel_matrix(source, spec)
        with pytest.raises(NumericError):
            mean_map(target, source, spec)


class TestMeanMap:
    def test_single_row_self(self):
        ds = Dataset(np.array([[2.0, 3.0]]))
        mu = mean_map(ds, ds, gauss())
        np.testing.assert_allclose(mu.entries, [1.0])
        assert mu.n1 == 1

    def test_symmetric_targets(self):
        mu = mean_map(
            Dataset(np.array([[0.0], [2.0]])), Dataset(np.array([[1.0]])), gauss()
        )
        np.testing.assert_allclose(mu.entries, [np.exp(-0.5)], rtol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        T = rng.normal(size=(5, 3))
        S = rng.normal(size=(4, 3))
        spec = gauss(sigma=0.9)
        mu = mean_map(Dataset(T), Dataset(S), spec)
        for j in range(4):
            want = sum(closed_form(T[i], S[j], 0.9) for i in range(5)) / 5.0
            assert mu.entries[j] == pytest.approx(want, abs=1e-12)

    def test_gaussian_range(self):
        rng = np.random.default_rng(6)
        mu = mean_map(
            Dataset(rng.normal(size=(8, 2))), Dataset(rng.normal(size=(6, 2))), gauss()
        )
        assert np.all(mu.entries > 0) and np.all(mu.entries <= 1)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            mean_map(Dataset(np.zeros((2, 2))), Dataset(np.zeros((2, 3))), gauss())


class TestMedianBandwidth:
    def test_single_pair(self):
        assert median_bandwidth(Dataset(np.array([[0.0], [1.0]]))) == 1.0

    def test_three_points(self):
        assert median_bandwidth(Dataset(np.array([[0.0], [1.0], [3.0]]))) == 2.0

    def test_matches_pairwise_oracle(self):
        X = np.random.default_rng(7).normal(size=(20, 3))
        assert median_bandwidth(Dataset(X)) == float(np.median(pdist(X)))

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateDataError):
            median_bandwidth(Dataset(np.ones((3, 2))))

    def test_single_row_rejected(self):
        with pytest.raises(InputError):
            median_bandwidth(Dataset(np.ones((1, 2))))

    def test_overflowing_distances_raise_numeric_error(self):
        X = np.random.default_rng(9).normal(size=(6, 3)) * 1e300
        with pytest.raises(NumericError):
            median_bandwidth(Dataset(X))


class TestValidation:
    def test_dataset_rejects_nan(self):
        with pytest.raises(InputError):
            Dataset(np.array([[np.nan]]))

    def test_spec_rejects_bad_bandwidth(self):
        with pytest.raises(InputError):
            KernelSpec("gaussian", bandwidth=0.0)
        with pytest.raises(InputError):
            KernelSpec("gaussian", bandwidth=None)

    def test_huge_bandwidth_saturates_to_ones(self):
        # bandwidth**2 overflows a float; the kernel must saturate, not raise
        spec = KernelSpec("gaussian", bandwidth=1e200, jitter=1e-10)
        rng = np.random.default_rng(3)
        source, target = Dataset(rng.normal(size=(5, 2))), Dataset(rng.normal(size=(4, 2)))
        K = kernel_matrix(source, spec)
        mu = mean_map(target, source, spec)
        value = kernel_eval(source.values[0], target.values[0], spec)
        np.testing.assert_array_equal(entries_of(K), np.ones((5, 5)) + 1e-10 * np.eye(5))
        np.testing.assert_array_equal(mu.entries, np.ones(5))
        assert value == 1.0
        assert rank_sources([source, target], m=2, spec=spec).rank.shape == (2, 2)
        try:
            res = proto_dash(K, mu, SelectionConfig(m=3))
        except ProtoSelectError:
            return
        assert kkt_residual(res.weights, K, mu, res.indices) <= SolverConfig().kkt_tolerance

    def test_tiny_bandwidth_saturates_to_zeros(self):
        # bandwidth**2 underflows to 0; distinct rows give 0, neither a warning nor an error
        spec = KernelSpec("gaussian", bandwidth=1e-200, jitter=1e-10)
        rng = np.random.default_rng(3)
        source, target = Dataset(rng.normal(size=(5, 2))), Dataset(rng.normal(size=(4, 2)))
        K = kernel_matrix(source, spec)
        np.testing.assert_array_equal(K.rows(range(5)), (1.0 + 1e-10) * np.eye(5))
        np.testing.assert_array_equal(mean_map(target, source, spec).entries, np.zeros(5))
        assert kernel_eval(source.values[0], target.values[0], spec) == 0.0

    def test_spec_rejects_negative_jitter(self):
        with pytest.raises(InputError):
            KernelSpec("gaussian", bandwidth=1.0, jitter=-1e-3)

    def test_kernel_matrix_rejects_asymmetry(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(InputError):
            KernelMatrix(entries=bad)


@pytest.mark.parametrize("written", ["kernel_matrix", "mean_map"])
def test_later_writes_to_the_callers_array_change_nothing(written):
    # each holds its own copy, so a NaN written after the checks reaches no selection
    K, mu = gaussian_instance(np.random.default_rng(21), n1=12, n2=10)
    entries, mu_entries = entries_of(K), mu.entries.copy()
    cfg = SelectionConfig(m=4)
    want = proto_dash(KernelMatrix(entries.copy()), MeanMap(mu_entries.copy(), n1=12), cfg)
    K, mu = KernelMatrix(entries), MeanMap(mu_entries, n1=12)
    if written == "kernel_matrix":
        entries[3] = entries[:, 3] = np.nan
    else:
        mu_entries[3] = np.nan
    got = proto_dash(K, mu, cfg)
    assert got.indices.indices == want.indices.indices and len(got.indices) == 4
    assert got.weights.weights.tobytes() == want.weights.weights.tobytes()
    assert got.objective_trace.tobytes() == want.objective_trace.tobytes()
