"""The Gram is read only through `KernelMatrix.diag/rows/block`.

A KernelMatrix subclass that has nothing but its own `n2` and those three
readers, over its own copy of a dense Gram, must give byte-identical results
to the KernelMatrix it copies for every function that takes a kernel. Any
other read of the kernel fails on the stand-in with AttributeError.
"""

import numpy as np
import pytest

from protoselect import (
    Dataset,
    InputError,
    KernelMatrix,
    KernelSpec,
    SupportSet,
    WeightVector,
    gradient,
    kernel_matrix,
    kkt_residual,
    mean_map,
    objective,
    solve_restricted,
)
from protoselect.nnqp import gain_bounds
from protoselect.oracle import verify_instance
from protoselect.selectors import (
    SelectionConfig,
    SelectionResult,
    criticisms,
    l2c_equal,
    proto_dash,
    proto_greedy,
    random_w,
    top_m_by_weight,
)
from helpers import entries_of, gaussian_instance, oversampled


class ReadersOnly(KernelMatrix):
    """A dense Gram behind the reader interface and nothing else.

    It never runs KernelMatrix.__init__, so the base class's buffer and slot
    map do not exist, and any read other than its own four fails.
    """

    def __init__(self, K: KernelMatrix):
        self._dense = entries_of(K)

    @property
    def n2(self):
        return self._dense.shape[0]

    def _checked(self, idx):
        idx = np.asarray(idx, dtype=np.intp)
        if any(not 0 <= i < self.n2 for i in idx.tolist()):
            raise InputError("support index out of range")
        return idx

    def diag(self):
        return self._dense.diagonal().copy()

    def rows(self, idx):
        return self._dense[self._checked(idx)]

    def block(self, idx):
        idx = self._checked(idx)
        return np.ascontiguousarray(self._dense[idx][:, idx])


def _instances():
    rng = np.random.default_rng(2024)
    out = [gaussian_instance(rng, n1=9, n2=10, sigma=1.2) for _ in range(3)]
    out.append(gaussian_instance(rng, n1=7, n2=9, sigma=0.8, jitter=0.0))
    source = rng.normal(size=(8, 3))
    source[5] = source[2]  # duplicate rows
    spec = KernelSpec("gaussian", bandwidth=1.0)
    target = Dataset(rng.normal(size=(6, 3)))
    out.append((kernel_matrix(Dataset(source), spec), mean_map(target, Dataset(source), spec)))
    linear = KernelSpec("linear", jitter=1e-6)
    source, target = Dataset(rng.normal(size=(9, 2))), Dataset(rng.normal(size=(5, 2)) + 0.5)
    out.append((kernel_matrix(source, linear), mean_map(target, source, linear)))
    return out


def _bytes(value):
    """A byte string that tells two results apart unless they are identical."""
    if isinstance(value, SelectionResult):
        return _bytes((value.method, value.indices.indices, value.weights,
                       value.objective_trace, value.gradient_trace, value.early_stopped))
    if isinstance(value, WeightVector):
        return _bytes((value.support.indices, value.weights, value.dimension))
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_bytes(v) for v in value) + b")"
    if isinstance(value, dict):
        return _bytes(sorted(value.items()))
    if isinstance(value, (float, np.ndarray, np.floating)):
        arr = np.asarray(value, dtype=float)
        return repr(arr.shape).encode() + arr.tobytes()
    return repr(value).encode()


def _calls(K, mu):
    cfg = SelectionConfig(m=4)
    dash = proto_dash(K, mu, cfg)
    w = dash.weights
    return {
        "proto_dash": dash,
        "proto_greedy": proto_greedy(K, mu, cfg),
        "proto_dash_oversampled": oversampled(proto_dash, K, mu, 3, 2),
        "proto_dash_epsilon": proto_dash(K, mu, SelectionConfig(epsilon=1e-4)),
        "l2c_equal": l2c_equal(K, mu, cfg),
        "random_w": random_w(K, mu, SelectionConfig(m=4, seed=5)),
        "top_m_by_weight": top_m_by_weight(dash, 2, K, mu),
        "criticisms": criticisms(dash, K, mu, 3),
        "objective": objective(w, K, mu),
        "objective_empty": objective(WeightVector.zeros(K.n2), K, mu),
        "gradient": gradient(w, K, mu),
        "gradient_empty": gradient(WeightVector.zeros(K.n2), K, mu),
        "kkt_residual": kkt_residual(w, K, mu, SupportSet(tuple(range(K.n2)))),
        "solve_restricted": solve_restricted(K, mu, SupportSet((3, 0, 6)), warm_start=None),
        "gain_bounds": gain_bounds(w, gradient(w, K, mu), K),
        "gain_bounds_empty": gain_bounds(WeightVector.zeros(K.n2), mu.entries, K),
        "verify_instance": verify_instance(K, mu, 2),
    }


@pytest.mark.parametrize("case", range(len(_instances())))
def test_readers_alone_give_identical_results(case):
    K, mu = _instances()[case]
    dense, readers = _calls(K, mu), _calls(ReadersOnly(K), mu)
    for name in dense:
        assert _bytes(readers[name]) == _bytes(dense[name]), name


def test_rows_are_the_columns():
    K, _ = _instances()[4]
    S = [5, 0, 2, 5]
    assert K.rows(S).flags.c_contiguous and K.block(S).flags.c_contiguous
    np.testing.assert_array_equal(K.rows(S), entries_of(K)[:, S].T)
    np.testing.assert_array_equal(K.block(S), entries_of(K)[np.ix_(S, S)])
    np.testing.assert_array_equal(K.diag(), np.diagonal(entries_of(K)))
    assert K.rows([]).shape == (0, K.n2) and K.block([]).shape == (0, 0)


def test_fortran_ordered_entries_stored_row_major():
    K = KernelMatrix(np.asfortranarray(np.eye(3) + 0.5))
    for idx in ([0, 1, 2], [2], [2, 0]):
        assert K.rows(idx).flags.c_contiguous and K.block(idx).flags.c_contiguous


@pytest.mark.parametrize("reader", ["rows", "block"])
@pytest.mark.parametrize("idx", [[0, 8], [8], [-1], [0, 100]])
def test_readers_reject_indices_out_of_range(reader, idx):
    K, _ = _instances()[4]
    with pytest.raises(InputError, match="out of range"):
        getattr(K, reader)(idx)


@pytest.mark.parametrize("reader", ["rows", "block"])
@pytest.mark.parametrize("idx", [[1.5], ["1"], [True, False], [[0, 1]], 3])
def test_readers_reject_non_integer_indices(reader, idx):
    K, _ = _instances()[4]
    with pytest.raises(InputError, match="integers"):
        getattr(K, reader)(idx)
