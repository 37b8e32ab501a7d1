"""Kernel evaluations, Gram matrices, and target mean-map vectors.

The selection objective works entirely on two precomputed quantities: the
Gram matrix K over the source rows and the vector of average kernel
evaluations between every target row and each source row (the empirical
mean map). Both are built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import DegenerateDataError, InputError, NumericError, as_index, as_real, as_reals

GAUSSIAN = "gaussian"
LINEAR = "linear"
DEFAULT_JITTER = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Dense real matrix, rows are instances and columns are features."""

    values: np.ndarray

    def __post_init__(self):
        arr = as_reals(self.values, "dataset values")
        if arr.ndim != 2:
            raise InputError("dataset must be a 2-D array of shape (n, d)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError("dataset needs at least one row and one feature")
        if not np.all(np.isfinite(arr)):
            raise InputError("dataset contains non-finite entries")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    Args:
        family: "gaussian" or "linear".
        bandwidth: positive length scale, required for the gaussian family.
        jitter: non-negative value added to the Gram diagonal so the matrix
            stays positive definite under duplicated rows.
    """

    family: str = GAUSSIAN
    bandwidth: float | None = None
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        if self.family not in (GAUSSIAN, LINEAR):
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN:
            object.__setattr__(self, "bandwidth", as_real(self.bandwidth, "bandwidth"))
        elif self.bandwidth is not None:
            raise InputError("bandwidth only applies to the gaussian family")
        object.__setattr__(self, "jitter", as_real(self.jitter, "jitter", allow_zero=True))


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric Gram matrix over the source rows, jitter already applied.

    Only this module reads `entries`: the package reads the Gram through
    `n2`, `diag()`, `rows(idx)` and `block(idx)`, which is all a kernel
    stored another way would need. Entries are C-contiguous and exactly
    symmetric, so a row read is a contiguous copy equal to those columns.
    """

    entries: np.ndarray
    spec: KernelSpec

    def __post_init__(self):
        arr = np.ascontiguousarray(as_reals(self.entries, "kernel matrix entries"))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("kernel matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise NumericError("kernel matrix contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise InputError("kernel matrix must be exactly symmetric")
        object.__setattr__(self, "entries", arr)

    @property
    def n2(self) -> int:
        return self.entries.shape[0]

    def _checked(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise InputError("kernel indices must be a 1-D sequence of integers")
        idx = idx.astype(np.intp, copy=False)
        # one reduction checks both ends: a negative index reads as a huge unsigned one
        if idx.size and idx.view(np.uintp).max() >= self.n2:
            raise InputError("support index out of range")
        return idx

    def diag(self) -> np.ndarray:
        """The n2 diagonal entries, read-only."""
        return np.diagonal(self.entries)

    def rows(self, idx) -> np.ndarray:
        """The |idx| x n2 kernel values of the source rows idx, C-contiguous."""
        return self.entries[self._checked(idx)]

    def block(self, idx) -> np.ndarray:
        """The principal |idx| x |idx| block on idx, in that order, C-contiguous."""
        idx = self._checked(idx)
        return self.entries[np.ix_(idx, idx)]


@dataclass(frozen=True)
class MeanMap:
    """Average kernel evaluation of every target row at each source row."""

    entries: np.ndarray
    n1: int

    def __post_init__(self):
        arr = as_reals(self.entries, "mean map entries")
        if arr.ndim != 1:
            raise InputError("mean map must be a 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise NumericError("mean map contains non-finite entries")
        object.__setattr__(self, "n1", as_index(self.n1, "n1", least=1))
        object.__setattr__(self, "entries", arr)

    @property
    def n2(self) -> int:
        return self.entries.shape[0]


def kernel_eval(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """Evaluate the kernel on a single pair of feature vectors."""
    x = as_reals(x, "kernel arguments").ravel()
    y = as_reals(y, "kernel arguments").ravel()
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    if spec.family == GAUSSIAN:
        diff = x - y
        value = float(np.exp(-(diff @ diff) / (2.0 * np.float64(spec.bandwidth) ** 2)))
    else:
        value = float(x @ y)
    if not np.isfinite(value):
        raise NumericError("kernel evaluation produced a non-finite value")
    return value


# Rows of the cross kernel computed at a time: 64 x 5000 floats is 2.5 MB.
_CHUNK_ROWS = 64


def _gaussian_in_place(sq_dist: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-sq_dist / (2 bandwidth^2)), written over sq_dist."""
    np.divide(sq_dist, -2.0 * np.float64(bandwidth) ** 2, out=sq_dist)
    return np.exp(sq_dist, out=sq_dist)


def _cross_kernel(left: np.ndarray, right: np.ndarray, spec: KernelSpec) -> np.ndarray:
    if spec.family == GAUSSIAN:
        return _gaussian_in_place(cdist(left, right, "sqeuclidean"), spec.bandwidth)
    return left @ right.T


def _gaussian_blocks(left: np.ndarray, right: np.ndarray, bandwidth: float):
    """Yield the gaussian kernel between `left` and `right`, _CHUNK_ROWS rows at a time.

    Each block is C-contiguous and entry for entry bit-equal to the same
    rows of `_cross_kernel`: cdist computes every pair on its own. The blocks
    share one buffer, so a consumer is done with a block, and free to
    overwrite it, once it asks for the next.
    """
    right = np.ascontiguousarray(right)
    buf = np.empty((min(left.shape[0], _CHUNK_ROWS), right.shape[0]))
    for start in range(0, left.shape[0], _CHUNK_ROWS):
        block = buf[: min(_CHUNK_ROWS, left.shape[0] - start)]
        cdist(left[start:start + _CHUNK_ROWS], right, "sqeuclidean", out=block)
        yield _gaussian_in_place(block, bandwidth)


def _add_rows(total: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """`total` plus every row of `block`, one row after another.

    A column reduction of a C-contiguous array with more than one column adds
    its rows in order, so carrying `total` in the block's first row gives the
    bits of one reduction over all rows. `block[0]` is overwritten.
    """
    if total is not None:
        block[0] += total
    return np.add.reduce(block, axis=0)


def _jittered(entries: np.ndarray, spec: KernelSpec) -> KernelMatrix:
    if spec.family == GAUSSIAN:
        np.fill_diagonal(entries, 1.0 + spec.jitter)
    else:
        np.fill_diagonal(entries, np.diagonal(entries) + spec.jitter)
    return KernelMatrix(entries=entries, spec=spec)


def kernel_matrix(source: Dataset, spec: KernelSpec) -> KernelMatrix:
    """Gram matrix over the source rows.

    The block is exactly symmetric as computed: the pairwise distances do
    the same arithmetic for (i, j) and (j, i), and numpy forms X @ X.T as
    one triangle mirrored. KernelMatrix rejects any asymmetry and any
    non-finite entry. Jitter is added to the diagonal only; for the
    gaussian family the diagonal is exactly 1 + jitter.
    """
    return _jittered(_cross_kernel(source.values, source.values, spec), spec)


def _gram_and_self_mean_map(source: Dataset, spec: KernelSpec) -> tuple[KernelMatrix, MeanMap]:
    """`kernel_matrix(source)` and `mean_map(source, source)` from one kernel pass.

    The mean map is the column mean of the Gram before the jitter goes on.
    """
    entries = _cross_kernel(source.values, source.values, spec)
    mu = MeanMap(entries=entries.mean(axis=0), n1=source.n)
    return _jittered(entries, spec), mu


def _streams(source: Dataset, spec: KernelSpec) -> bool:
    # Chunked sums are bit-equal to one block's only where the block's column
    # reduction runs row by row: a one-column block is reduced pairwise. Linear
    # rows of A @ B.T depend on how BLAS tiles the product, so they stay one block.
    return spec.family == GAUSSIAN and source.n > 1


def mean_map(target: Dataset, source: Dataset, spec: KernelSpec) -> MeanMap:
    """Empirical mean-map vector of the target evaluated at the source rows.

    Entry j is the average of the kernel between every target row and
    source row j. The gaussian kernel is computed and summed _CHUNK_ROWS
    target rows at a time, so memory is one chunk x n2 floats, not n1 x n2;
    the sums are bit-equal to averaging the whole n1 x n2 block. The linear
    kernel, and a source of one row, still build the whole block.
    """
    if target.d != source.d:
        raise InputError(f"feature dimension mismatch: target {target.d}, source {source.d}")
    if not _streams(source, spec):
        return MeanMap(entries=_cross_kernel(target.values, source.values, spec).mean(axis=0),
                       n1=target.n)
    total = None
    for block in _gaussian_blocks(target.values, source.values, spec.bandwidth):
        total = _add_rows(total, block)
    return MeanMap(entries=total / target.n, n1=target.n)


def _pair_mean_maps(a: Dataset, b: Dataset, spec: KernelSpec) -> tuple[MeanMap, MeanMap]:
    """`mean_map(a, b)` and `mean_map(b, a)` from one pass over the kernel between a and b.

    a and b must share their feature dimension. cdist(b, a) is exactly the
    transpose of cdist(a, b), so the row sums of the a x b blocks are the
    column sums `mean_map(b, a)` would take. They are taken with cumsum,
    which adds along a row in order as that column reduction does, where a
    plain row sum would add pairwise.
    """
    if not (_streams(a, spec) and _streams(b, spec)):
        return mean_map(a, b, spec), mean_map(b, a, spec)
    total, row_sums = None, []
    for block in _gaussian_blocks(a.values, b.values, spec.bandwidth):
        # Taken before _add_rows overwrites block[0], and copied: a view of the
        # last column would keep the chunk's whole cumsum alive.
        row_sums.append(np.cumsum(block, axis=1)[:, -1].copy())
        total = _add_rows(total, block)
    return (MeanMap(entries=total / a.n, n1=a.n),
            MeanMap(entries=np.concatenate(row_sums) / b.n, n1=b.n))


def median_bandwidth(data: Dataset) -> float:
    """Median of pairwise Euclidean distances over all unordered row pairs.

    Standard heuristic default for the gaussian bandwidth; callers that
    want a tuned width should select it themselves.
    """
    if data.n < 2:
        raise InputError("median bandwidth needs at least two rows")
    med = float(np.median(pdist(data.values)))
    if not np.isfinite(med):
        raise NumericError("median pairwise distance is not finite (features too large)")
    if med <= 0.0:
        raise DegenerateDataError("median pairwise distance is zero (rows effectively identical)")
    return med
