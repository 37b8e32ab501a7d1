"""Kernel evaluations, Gram matrices, and target mean-map vectors.

The selection objective works entirely on two precomputed quantities: the
Gram matrix K over the source rows and the vector of average kernel
evaluations between every target row and each source row (the empirical
mean map). Both are built here, and `_cross_kernel` computes every kernel
value in them: it warns of no float error, and a result that is not finite
is refused with NumericError.

Every Gram is a KernelMatrix, read through n2, diag(), rows(idx) and
block(idx) alone; the gaussian one is its subclass GaussianGram.
"""

from __future__ import annotations

import threading
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


# Rows computed, summed or checked at a time: 64 x 5000 floats is 2.5 MB.
_CHUNK_ROWS = 64


def _checked(idx, n2: int) -> np.ndarray:
    """idx as a 1-D intp array of row indices below n2; InputError otherwise."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InputError("kernel indices must be a 1-D sequence of integers")
    idx = idx.astype(np.intp, copy=False)
    # one reduction checks both ends: a negative index reads as a huge unsigned one
    if idx.size and idx.view(np.uintp).max() >= n2:
        raise InputError("support index out of range")
    return idx


class KernelMatrix:
    """Symmetric Gram matrix over the source rows, jitter already applied.

    Its rows live in one C-contiguous buffer, which each enters through
    `_admit`: that refuses a row that is not finite or that differs from a
    held row at their shared entries, so a row read equals those columns.
    Rows are admitted under a lock and never change after, so threads may
    share a Gram. KernelMatrix(entries) holds a copy of entries, so later
    writes to the caller's array change no entry.
    """

    def __init__(self, entries):
        arr = np.array(as_reals(entries, "kernel matrix entries"), order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("kernel matrix must be square")
        self._hold(arr, np.diagonal(arr).copy())

    def _hold(self, buf: np.ndarray, diag: np.ndarray):
        """Take `buf`, which no one else holds, as the buffer and `diag` as the diagonal.
        The rows of buf, source rows 0, 1, ..., are admitted _CHUNK_ROWS at a time."""
        n2 = diag.shape[0]
        diag.flags.writeable = False
        self._diag = diag
        self._slot = np.full(n2, -1, dtype=np.intp)  # buffer row of each source row, -1 if unheld
        self._held = np.empty(n2, dtype=np.intp)  # source row in each filled buffer row
        self._filled = 0
        self._buf = buf
        self._lock = threading.Lock()
        for start in range(0, buf.shape[0], _CHUNK_ROWS):
            self._admit(np.arange(start, min(start + _CHUNK_ROWS, buf.shape[0])))

    @property
    def n2(self) -> int:
        return self._slot.shape[0]

    def diag(self) -> np.ndarray:
        """The n2 diagonal entries, read-only."""
        return self._diag

    def rows(self, idx) -> np.ndarray:
        """The |idx| x n2 kernel values of the source rows idx, C-contiguous.

        Rows held in this order, as a growing support reads them, come back
        as a read-only view of the buffer.
        """
        slots = self._slots(_checked(idx, self.n2))
        if slots.size and np.all(np.diff(slots) == 1):
            view = self._buf[slots[0]:slots[-1] + 1]
            view.flags.writeable = False
            return view
        return self._buf[slots]

    def block(self, idx) -> np.ndarray:
        """The principal |idx| x |idx| block on idx, in that order, C-contiguous."""
        idx = _checked(idx, self.n2)
        slots = self._slots(idx)  # before self._buf is read: a fill may grow it
        return self._buf[slots[:, None], idx]

    def _slots(self, idx: np.ndarray) -> np.ndarray:
        """The buffer rows holding the source rows idx, filling those not yet held."""
        slots = self._slot[idx]
        if self._filled < self.n2 and slots.size and slots.min() < 0:
            with self._lock:
                self._fill(idx)
            slots = self._slot[idx]
        return slots

    def _admit(self, rows: np.ndarray):
        """Hold the source rows `rows`, just written to the buffer after the held ones.
        They must be finite and equal every held row, and each other, where they meet."""
        start, stop = self._filled, self._filled + rows.size
        new = self._buf[start:stop]
        if not np.all(np.isfinite(new)):
            raise NumericError("kernel matrix contains non-finite entries")
        self._held[start:stop] = rows
        if not np.array_equal(new[:, self._held[:stop]], self._buf[:stop, rows].T):
            raise InputError("kernel matrix must be exactly symmetric")
        self._slot[rows] = np.arange(start, stop)
        self._filled = stop


class GaussianGram(KernelMatrix):
    """Gaussian Gram over the source rows, each row computed when first read.

    Row i is _cross_kernel(X[[i]], X), entry for entry that row of the
    whole block, with 1 + jitter on the diagonal. The buffer grows as rows
    are read, so m prototypes cost m rows of time and memory, not n2.
    """

    def __init__(self, source: Dataset, spec: KernelSpec):
        if spec.family != GAUSSIAN:
            raise InputError("GaussianGram needs a gaussian kernel spec")
        # A copy, so later writes to the caller's array change no row.
        self._X = np.array(source.values, order="C")
        self._spec = spec
        n2 = self._X.shape[0]
        self._hold(np.empty((0, n2)), np.full(n2, 1.0 + spec.jitter))

    def _fill(self, idx: np.ndarray):
        """Compute and admit the rows of idx not yet held."""
        missing = np.array(list(dict.fromkeys(idx[self._slot[idx] < 0].tolist())), dtype=np.intp)
        start, stop = self._filled, self._filled + missing.size
        if start == stop:  # another thread filled them while this one waited for the lock
            return
        if stop > self._buf.shape[0]:
            grown = np.empty((min(self.n2, max(2 * self._buf.shape[0], stop)), self.n2))
            grown[:start] = self._buf[:start]
            self._buf = grown
        new = self._buf[start:stop]
        _cross_kernel(self._X[missing], self._X, self._spec, out=new)
        new[np.arange(missing.size), missing] = self._diag[0]
        self._admit(missing)


@dataclass(frozen=True)
class MeanMap:
    """Average kernel evaluation of every target row at each source row."""

    entries: np.ndarray
    n1: int

    def __post_init__(self):
        # A read-only copy, so no write, the caller's or a reader's, changes an entry.
        arr = np.array(as_reals(self.entries, "mean map entries"))
        arr.flags.writeable = False
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
    """The kernel between two 1-D feature vectors: `_cross_kernel` on one row each.

    A gaussian value equals the Gram's entry bit for bit; a linear one can
    differ from it in the last bits, because BLAS tiles X @ X.T by its shape.
    """
    x, y = as_reals(x, "kernel arguments"), as_reals(y, "kernel arguments")
    if x.ndim != 1 or x.size == 0 or x.shape != y.shape:
        raise InputError(f"kernel arguments must be 1-D vectors of one length with at least "
                         f"one entry, got shapes {x.shape} and {y.shape}")
    value = float(_cross_kernel(x[None], y[None], spec)[0, 0])
    # An infinite argument can give a finite gaussian 0, so the arguments are checked too.
    if not (np.isfinite(value) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("kernel evaluation met a non-finite argument or value")
    return value


def _cross_kernel(left: np.ndarray, right: np.ndarray, spec: KernelSpec,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The kernel between the rows of `left` and of `right`; a gaussian one fills `out`.

    Float errors are not warned: an overflow, or a bandwidth whose square
    overflows or underflows, gives inf, 0 or NaN, which every caller refuses.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.family == GAUSSIAN:
            out = cdist(left, right, "sqeuclidean", out=out)
            np.divide(out, -2.0 * np.float64(spec.bandwidth) ** 2, out=out)
            return np.exp(out, out=out)
        return left @ right.T


def _gaussian_blocks(left: np.ndarray, right: np.ndarray, spec: KernelSpec):
    """Yield the gaussian kernel between `left` and `right`, _CHUNK_ROWS rows at a time.

    Each block is C-contiguous and entry for entry bit-equal to the same
    rows of `_cross_kernel(left, right)`: cdist computes every pair on its
    own. The blocks share one buffer, so a consumer is done with a block,
    and free to overwrite it, once it asks for the next.
    """
    right = np.ascontiguousarray(right)
    buf = np.empty((min(left.shape[0], _CHUNK_ROWS), right.shape[0]))
    for start in range(0, left.shape[0], _CHUNK_ROWS):
        block = buf[: min(_CHUNK_ROWS, left.shape[0] - start)]
        yield _cross_kernel(left[start:start + _CHUNK_ROWS], right, spec, out=block)


def _add_rows(total: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """`total` plus every row of `block`, one row after another.

    A column reduction of a C-contiguous array with more than one column adds
    its rows in order, so carrying `total` in the block's first row gives the
    bits of one reduction over all rows. `block[0]` is overwritten.
    """
    if total is not None:
        block[0] += total
    return np.add.reduce(block, axis=0)


def kernel_matrix(source: Dataset, spec: KernelSpec) -> KernelMatrix:
    """Gram matrix over the source rows.

    The gaussian Gram is a GaussianGram, which computes a row when it is
    first read. The linear Gram is built whole, because rows of
    X[idx] @ X.T can differ in the last bits from those of X @ X.T, and
    held as its buffer without a copy.

    Either is exactly symmetric as computed: the pairwise distances do the
    same arithmetic for (i, j) and (j, i), and numpy forms X @ X.T as one
    triangle mirrored. KernelMatrix._admit still refuses any asymmetry and
    any non-finite entry. Jitter is added to the diagonal only; for the
    gaussian family the diagonal is exactly 1 + jitter.
    """
    if spec.family == GAUSSIAN:
        return GaussianGram(source, spec)
    entries = _cross_kernel(source.values, source.values, spec)
    diag = np.diagonal(entries) + spec.jitter
    np.fill_diagonal(entries, diag)
    K = KernelMatrix.__new__(KernelMatrix)
    K._hold(entries, diag)
    return K


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
        with np.errstate(over="ignore", invalid="ignore"):  # a linear sum can overflow
            entries = _cross_kernel(target.values, source.values, spec).mean(axis=0)
        return MeanMap(entries=entries, n1=target.n)
    total = None
    for block in _gaussian_blocks(target.values, source.values, spec):
        total = _add_rows(total, block)
    return MeanMap(entries=total / target.n, n1=target.n)


def _pair_mean_maps(a: Dataset, b: Dataset, spec: KernelSpec) -> tuple[MeanMap, MeanMap]:
    """`mean_map(a, b)` and `mean_map(b, a)` from one pass over the kernel between a and b.

    a and b must share their feature dimension. cdist(b, a) is exactly the
    transpose of cdist(a, b), so the row sums of the a x b blocks are the
    column sums `mean_map(b, a)` would take. They are taken as the column
    sums of the block's transpose, which add along a row in order as that
    column reduction does, where a plain row sum would add pairwise. A
    one-row block's transpose is one column, which numpy also sums
    pairwise, so that block takes its sum with cumsum, which adds in order.
    """
    if not (_streams(a, spec) and _streams(b, spec)):
        return mean_map(a, b, spec), mean_map(b, a, spec)
    total, row_sums = None, []
    for block in _gaussian_blocks(a.values, b.values, spec):
        # Taken before _add_rows overwrites block[0].
        if block.shape[0] > 1:
            row_sums.append(np.add.reduce(np.ascontiguousarray(block.T), axis=0))
        else:
            row_sums.append(np.cumsum(block, axis=1)[:, -1].copy())
        total = _add_rows(total, block)
    return (MeanMap(entries=total / a.n, n1=a.n),
            MeanMap(entries=np.concatenate(row_sums) / b.n, n1=b.n))


# Rounds of the median's sample: each pairs every row with one other, so the
# sample holds about 16 n distances.
_SAMPLE_ROUNDS = 16
# Half-width of the median's first bracket, in standard errors of a sample quantile.
_BRACKET_Z = 4.0


def _pair_sample(X: np.ndarray) -> np.ndarray:
    """Sorted distances of about _SAMPLE_ROUNDS x n row pairs, drawn with a fixed seed.

    Each round pairs row i with row perm[i] of a fixed permutation, so every
    row is in two pairs a round and no row weighs more than another. The
    values only bracket the median, so they need not be pdist's bits.
    """
    n = X.shape[0]
    rng = np.random.default_rng(0)
    rounds = []
    with np.errstate(over="ignore"):  # a pair too far apart is inf, as in pdist
        for _ in range(_SAMPLE_ROUNDS):
            partner = rng.permutation(n)
            moved = partner != np.arange(n)
            diff = X[moved] - X[partner[moved]]
            rounds.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    return np.sort(np.concatenate(rounds))


def _triangle_distances(X: np.ndarray):
    """Yield the distance of every pair i < j, _CHUNK_ROWS values of i at a time.

    pdist gives the pairs inside a chunk and cdist those past it. Both
    compute each pair as pdist(X) does, so every value has pdist(X)'s bits.
    """
    for start in range(0, X.shape[0], _CHUNK_ROWS):
        chunk = X[start:start + _CHUNK_ROWS]
        yield pdist(chunk)
        yield cdist(chunk, X[start + _CHUNK_ROWS:]).ravel()


def _bracket_pass(X: np.ndarray, lo: float, hi: float):
    """How many distances lie below lo, up to lo and up to hi, and those strictly
    between. Ties at an edge are counted, not kept, so they cost no memory."""
    below = at_lo = closed = 0
    kept = []
    for dist in _triangle_distances(X):
        from_lo = dist >= lo
        below += dist.size - np.count_nonzero(from_lo)
        inside = dist[from_lo & (dist <= hi)]
        at_lo += np.count_nonzero(inside == lo)
        closed += inside.size
        kept.append(inside[(inside > lo) & (inside < hi)])
    return below, below + at_lo, below + closed, np.concatenate(kept)


def median_bandwidth(data: Dataset) -> float:
    """Median of pairwise Euclidean distances over all unordered row pairs.

    Standard heuristic default for the gaussian bandwidth; callers that
    want a tuned width should select it themselves.

    The result is exactly float(np.median(pdist(X))), but the n(n-1)/2
    distances are never held at once (Floyd & Rivest 1975):

    1. Bracket. Quantiles of a sample of about 16 n pair distances
       (_pair_sample), 4 standard errors either side of the median's rank,
       bracket the median as [lo, hi].
    2. Stream. One pass over the distances (_bracket_pass) counts those
       below lo, up to lo and up to hi, and keeps those strictly between.
    3. Select. The counts place each middle rank at lo, at hi, or among the
       kept values, where np.partition picks it. Two middle values are
       averaged with np.mean, as np.median does.
    4. Miss. If the counts place a middle rank outside the bracket, that
       edge moves out in the sample by the ranks it missed by plus twice
       the last step, and the pass runs again. An edge past the end of the
       sample is -inf or inf, which no rank can miss, so the passes end.

    Memory is the sample, one chunk of 64 x n distances, and the kept set:
    about 1/sqrt(n) of all the distances where the sample brackets well,
    so 1.4 MB at n = 5000 and 45 MB at n = 50 000, against pdist's 10 GB.
    """
    if data.n < 2:
        raise InputError("median bandwidth needs at least two rows")
    X = np.ascontiguousarray(data.values)
    total = data.n * (data.n - 1) // 2
    ranks = sorted({(total - 1) // 2, total // 2})  # the middle one or two order statistics
    sample = _pair_sample(X)
    per_rank = sample.size / total  # sample positions per rank
    # A sample quantile's standard error is 0.5 sqrt(size) sample positions.
    step = max(1.0, _BRACKET_Z * 0.5 * np.sqrt(sample.size))
    low, high = int(np.floor(ranks[0] * per_rank - step)), int(np.ceil(ranks[-1] * per_rank + step))
    while True:
        lo = sample[low] if low >= 0 else -np.inf
        hi = sample[high] if high < sample.size else np.inf
        below, upto_lo, upto_hi, kept = _bracket_pass(X, lo, hi)
        step *= 2
        if ranks[0] < below:  # a middle value lies below lo
            high = low if ranks[-1] < below else high
            low = int(np.floor(low - (below - ranks[0]) * per_rank - step))
        elif ranks[-1] >= upto_hi:  # a middle value lies above hi
            low = high if ranks[0] >= upto_hi else low
            high = int(np.ceil(high + (ranks[-1] - upto_hi + 1) * per_rank + step))
        else:
            break
    # Rank k is lo before upto_lo, then the kept values in order, then hi.
    at = [k - upto_lo for k in ranks]
    inner = [i for i in at if 0 <= i < kept.size]
    if inner:
        kept.partition(inner)
    med = float(np.mean([lo if i < 0 else kept[i] if i < kept.size else hi for i in at]))
    if not np.isfinite(med):
        raise NumericError("median pairwise distance is not finite (features too large)")
    if med <= 0.0:
        raise DegenerateDataError("median pairwise distance is zero (rows effectively identical)")
    return med
