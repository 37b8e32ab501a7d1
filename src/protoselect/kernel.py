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

from .errors import DegenerateDataError, InputError, NumericError

GAUSSIAN = "gaussian"
LINEAR = "linear"
DEFAULT_JITTER = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Dense real matrix, rows are instances and columns are features."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
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
            if self.bandwidth is None or not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
                raise InputError("gaussian kernel needs a positive finite bandwidth")
        elif self.bandwidth is not None:
            raise InputError("bandwidth only applies to the gaussian family")
        if not np.isfinite(self.jitter) or self.jitter < 0:
            raise InputError("jitter must be a non-negative finite value")


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric Gram matrix over the source rows, jitter already applied."""

    entries: np.ndarray
    spec: KernelSpec

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
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


@dataclass(frozen=True)
class MeanMap:
    """Average kernel evaluation of every target row at each source row."""

    entries: np.ndarray
    n1: int

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 1:
            raise InputError("mean map must be a 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise NumericError("mean map contains non-finite entries")
        if self.n1 < 1:
            raise InputError("mean map needs at least one target row")
        object.__setattr__(self, "entries", arr)

    @property
    def n2(self) -> int:
        return self.entries.shape[0]


def kernel_eval(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """Evaluate the kernel on a single pair of feature vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
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


def _cross_kernel(left: np.ndarray, right: np.ndarray, spec: KernelSpec) -> np.ndarray:
    if spec.family == GAUSSIAN:
        out = cdist(left, right, "sqeuclidean")
        np.divide(out, -2.0 * np.float64(spec.bandwidth) ** 2, out=out)
        return np.exp(out, out=out)
    return left @ right.T


def kernel_matrix(source: Dataset, spec: KernelSpec) -> KernelMatrix:
    """Gram matrix over the source rows.

    The block is exactly symmetric as computed: the pairwise distances do
    the same arithmetic for (i, j) and (j, i), and numpy forms X @ X.T as
    one triangle mirrored. KernelMatrix rejects any asymmetry and any
    non-finite entry. Jitter is added to the diagonal only; for the
    gaussian family the diagonal is exactly 1 + jitter.
    """
    entries = _cross_kernel(source.values, source.values, spec)
    if spec.family == GAUSSIAN:
        np.fill_diagonal(entries, 1.0 + spec.jitter)
    else:
        np.fill_diagonal(entries, np.diagonal(entries) + spec.jitter)
    return KernelMatrix(entries=entries, spec=spec)


def mean_map(target: Dataset, source: Dataset, spec: KernelSpec) -> MeanMap:
    """Empirical mean-map vector of the target evaluated at the source rows.

    Entry j is the average of the kernel between every target row and
    source row j.
    """
    if target.d != source.d:
        raise InputError(f"feature dimension mismatch: target {target.d}, source {source.d}")
    entries = _cross_kernel(target.values, source.values, spec).mean(axis=0)
    return MeanMap(entries=entries, n1=target.n)


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
