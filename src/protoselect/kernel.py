"""Kernel evaluations, Gram matrices, and target mean-map vectors.

The selection objective works entirely on two precomputed quantities: the
Gram matrix K over the source rows and the vector of average kernel
evaluations between every target row and each source row (the empirical
mean map). Both are built here, and `_cross_kernel` computes every kernel
value in them: it warns of no float error, and a result that is not finite
is refused with NumericError.

Every Gram is a KernelMatrix, read through n2, diag(), rows(idx) and
block(idx) alone; the gaussian one is its subclass GaussianGram.

Where the bits come from. cdist computes each squared distance from its own
two rows, so a value does not depend on what else is computed with it: the
Gram's rows (`KernelMatrix._admit` requires exact symmetry), `kernel_eval`,
and the median bandwidth's exact distances are all cdist's. The gaussian
mean map's tiles come from one BLAS GEMM of centred rows augmented to d + 2
columns (`_augmented`), within the rounding bound stated in `mean_map`; an
input too small for the GEMM to pay, or one where the bound would be wide,
takes cdist tiles instead. The median's filter uses the same rows and GEMM
only to count the pairs surely below its bracket and drop those surely
above; it keeps the rest with their estimates, and cdist computes only the
few kept pairs near the median's rank, so its result is still pdist's.

The gaussian mean map runs on every usable core through `_on_cores`, the
one code that starts a thread: its n source rows are split into
w = min(usable cores, n // _MIN_SLAB) slabs, at least one, so an input below
2 x _MIN_SLAB runs serially on the calling thread. Slab edges fall on
multiples of _CHUNK_ROWS, so every tile has the same shape and every sum
adds the same tiles in the same order: the bits do not depend on the core
count. The median bandwidth runs on the calling thread: its filter's numpy
calls are short, and two threads split them slower than one.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (DegenerateDataError, InputError, NumericError, as_held, as_index, as_instance,
                     as_real, as_reals)

GAUSSIAN = "gaussian"
LINEAR = "linear"
DEFAULT_JITTER = 1e-10


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense real matrix, rows are instances and columns are features."""

    values: np.ndarray

    def __post_init__(self):
        arr = as_held(self.values, "dataset", (None, None))
        if arr.size == 0:
            raise InputError("dataset needs at least one row and one feature")
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
# Fewest source rows a slab of the threaded mean map takes: 8 chunks.
_MIN_SLAB = 512


def _on_cores(n: int, slab) -> list:
    """[slab(0, w), ..., slab(w - 1, w)], w = min(usable cores, n // _MIN_SLAB), at least 1.

    The calling thread runs slab 0 and w - 1 threads the others; all are
    joined before this returns, and the first exception raised, the calling
    thread's before a worker's, is raised again unchanged. The usable cores
    are those of os.sched_getaffinity(0), or os.cpu_count() where that call
    does not exist; they are not asked for an input below 2 x _MIN_SLAB.
    """
    w = n // _MIN_SLAB
    if w > 1:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        w = min(w, cores or 1)
    if w <= 1:
        return [slab(0, 1)]
    results, errors = [None] * w, []

    def run(part):
        try:
            results[part] = slab(part, w)
        except BaseException as err:  # raised again on the calling thread
            errors.append(err)

    workers = [threading.Thread(target=run, args=(part,)) for part in range(1, w)]
    for worker in workers:
        worker.start()
    try:
        results[0] = slab(0, w)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    return results


# The unit roundoff. _gamma(k) = k u / (1 - k u) bounds the relative error of a sum of
# k rounded products, in any order and with or without fused multiply-adds (Higham 2002, §3.1).
_U = np.finfo(float).eps / 2
# Below this centred norm no square, product or partial sum of a GEMM of `_augmented` rows
# reaches 2**1022, so every estimate is finite. A row that may pass it has its pairs computed
# exactly by the median's filter, and sends the whole mean map to cdist.
_NORM_CUT = 2.0 ** 510
# Columns of one GEMM tile of the filter and of the mean map: 64 x 1024 floats is 512 kB.
_TILE_COLS = 1024
# Widest bound on a kernel exponent's error for which the mean map takes the GEMM: each
# kernel value is then within a factor exp(2**-30) of the exact one, before exp rounds it.
_GEMM_TOL = 2.0 ** -30
# Fewest n1 x n2 x d multiply-adds for which the mean map's GEMM pays for building its rows:
# below it cdist's tiles are faster (at d = 20 on a 2-core x86 box, 64 x 64 rows took 97 us
# by cdist and 121 us by the GEMM, 128 x 128 rows 303 and 184 us).
_GEMM_MIN_WORK = 2 ** 17
# The smallest normal float.
_TINY = np.finfo(float).tiny


def _gamma(k: int) -> float:
    return k * _U / (1 - k * _U)


def _checked(idx, n2: int) -> np.ndarray:
    """idx as a 1-D intp array of row indices below n2; InputError otherwise."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InputError("kernel indices must be a 1-D sequence of integers")
    idx = idx.astype(np.intp, copy=False)
    # one reduction checks both ends: a negative index reads as a huge unsigned one;
    # a single index, as a grown row or a column read asks, is read without one
    top = idx.view(np.uintp)
    if idx.size and (top[0] if idx.size == 1 else top.max()) >= n2:
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

    Every function that takes a Gram requires a KernelMatrix. A subclass may
    compute its rows its own way, as GaussianGram does.
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
        as a read-only view of the buffer: a run of k buffer rows spans k - 1
        and rises at every step, and one or two rows need only the span.
        """
        slots = self._slots(_checked(idx, self.n2))
        if slots.size and slots[-1] - slots[0] == slots.size - 1 and (
                slots.size < 3 or (slots[1:] > slots[:-1]).all()):
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
        if self._filled < self.n2 and slots.size and (slots[0] if slots.size == 1 else slots.min()) < 0:
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
        self._X = source.values
        self._spec = spec
        self._hold(np.empty((0, source.n)), np.full(source.n, 1.0 + spec.jitter))

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


@dataclass(frozen=True, eq=False)
class MeanMap:
    """Average kernel evaluation of every target row at each source row."""

    entries: np.ndarray
    n1: int

    def __post_init__(self):
        entries = as_held(self.entries, "mean map", (None,), NumericError)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n1", as_index(self.n1, "n1", least=1))

    @property
    def n2(self) -> int:
        return self.entries.shape[0]


def kernel_eval(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """The kernel between two 1-D feature vectors: `_cross_kernel` on one row each.

    A gaussian value equals the Gram's entry bit for bit; a linear one can
    differ from it in the last bits, because BLAS tiles X @ X.T by its shape.
    """
    as_instance(spec, KernelSpec, "spec")
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
                  out: np.ndarray | None = None, gemm: bool = False) -> np.ndarray:
    """The kernel between the rows of `left` and of `right`; a gaussian one fills `out`.

    With `gemm`, left and right are rows of `_augmented`, left ones and right
    ones, and `_squared_distances` gives the squared distances; otherwise cdist
    computes each from its own two rows. Float errors are not warned: an
    overflow, or a bandwidth whose square overflows or underflows, gives inf,
    0 or NaN, which every caller refuses.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.family == GAUSSIAN:
            if gemm:
                out = _squared_distances(left, right, out)
            else:
                out = cdist(left, right, "sqeuclidean", out=out)
            np.divide(out, -2.0 * np.float64(spec.bandwidth) ** 2, out=out)
            return np.exp(out, out=out)
        return left @ right.T


def _augmented(X: np.ndarray, centre: np.ndarray, left: bool = False):
    """(G, R): the rows y = x - centre of X augmented to d + 2 columns, and R[i] >= |y_i|.

    A row of G is [y, 1, |y|^2], or [-2y, |y|^2, 1] with `left`, so a left
    row times a right row is |y_i|^2 + |y_j|^2 - 2 y_i . y_j, the squared
    distance. R bounds |y| from above although |y|^2 was rounded and may
    have underflowed. A far row overflows to inf or NaN, and R with it, so
    callers ignore float errors.
    """
    n, d = X.shape
    Y = X - centre
    sq = np.einsum("ij,ij->i", Y, Y)
    R = np.sqrt((sq + d * 2.0 ** -1074) * (1 + 2 * _gamma(d))) * (1 + 4 * _U)
    G = np.empty((n, d + 2))
    np.multiply(Y, -2.0 if left else 1.0, out=G[:, :d])
    G[:, d], G[:, d + 1] = (sq, 1.0) if left else (1.0, sq)
    return G, R


def _squared_distances(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The squared distance of each pair of a left and a right row of `_augmented`, in out:
    one GEMM."""
    return np.matmul(left, right.T, out=out)


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
    as_instance(source, Dataset, "source")
    as_instance(spec, KernelSpec, "spec")
    if spec.family == GAUSSIAN:
        return GaussianGram(source, spec)
    entries = _cross_kernel(source.values, source.values, spec)
    diag = np.diagonal(entries) + spec.jitter
    np.fill_diagonal(entries, diag)
    K = KernelMatrix.__new__(KernelMatrix)
    K._hold(entries, diag)
    return K


def _gemm_rows(source: np.ndarray, target: np.ndarray, spec: KernelSpec):
    """(left rows of the source, right rows of the target), both of `_augmented` at the
    source's mean, where the mean map's GEMM pays and keeps its bound; else None."""
    (n2, d), n1 = source.shape, target.shape[0]
    if n1 * n2 * d < _GEMM_MIN_WORK:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a far row's norm is inf
        centre = source.mean(axis=0)
        left, R_source = _augmented(source, centre, left=True)
        right, R_target = _augmented(target, centre)
        width = 2.0 * np.float64(spec.bandwidth) ** 2
    reach = (float(R_source.max()), float(R_target.max()))
    if (max(reach) <= _NORM_CUT and _TINY <= width < np.inf
            and 4 * _gamma(d + 2) * sum(reach) ** 2 <= _GEMM_TOL * width):
        return left, right
    return None


def mean_map(target: Dataset, source: Dataset, spec: KernelSpec) -> MeanMap:
    """Empirical mean-map vector of the target evaluated at the source rows.

    Entry j is the average of the kernel between every target row and
    source row j. The linear kernel builds the whole n1 x n2 block. The
    gaussian kernel is computed a tile at a time, _CHUNK_ROWS source rows by
    _TILE_COLS target rows. Each tile's row sums are added, tile after tile
    in target order, into its source rows' totals, which are divided by n1.

    The tiles. Both sides are centred at the source's mean c. One GEMM of
    the source rows [-2z, |z|^2, 1] and the target rows [y, 1, |y|^2] of
    `_augmented` gives |z - y|^2 for every pair of a tile, and
    `_cross_kernel` divides it by -2 sigma^2 and takes exp. cdist computes
    the tiles instead, each pair from its own two rows, where the GEMM does
    not pay (n1 x n2 x d below _GEMM_MIN_WORK), where a row's centred norm
    may pass _NORM_CUT, where 2 sigma^2 overflows or underflows, or where the
    bound below passes _GEMM_TOL = 2^-30.

    The bound. Let u be the unit roundoff, gamma_k = k u / (1 - k u), z and y
    the rounded centred rows of a pair, R_z >= |z| and R_y >= |y| the norm
    bounds of `_augmented`, S = R_z + R_y, and D the pair's true distance.
    - Centring rounds each coordinate by at most u of itself, so |z - y| is
      within u S of D, and |z - y|^2 within 2.01 u S^2 of D^2.
    - The GEMM's d + 2 products sum to -2 z.y + |z|^2 + |y|^2 = |z - y|^2
      plus the rounding of the two squared norms, gamma_d (|z|^2 + |y|^2).
      Their magnitudes add up to at most (1 + gamma_d) S^2, so any order of
      the sum errs by at most gamma_(d+2) (1 + gamma_d) S^2 (Higham 2002,
      §3.1). In all, the estimate is within 3 gamma_(d+2) S^2 of D^2, plus
      (4d + 4) 2^-1075 where products or sums underflow.
    - Rounding 2 sigma^2 and the quotient adds 2.01 u of the exponent
      t = -D^2 / (2 sigma^2), and |t| <= (1 + u)^2 S^2 / (2 sigma^2).
    So each computed exponent is within
        delta = 4 gamma_(d+2) S^2 / (2 sigma^2) + (2d + 2) 2^-1074 / sigma^2
    of t, and each kernel value within a factor exp(+-delta) of exp(t),
    before np.exp rounds it as it does on the cdist path. The sums add
    non-negative values, so they err by at most gamma_n1 of the total, and
    the division by n1 by u: entry j is within
        mean_i exp(t_ij) (exp(delta_ij) - 1) + (gamma_n1 + u) mu_j
    of the mean of exp(t_ij), plus np.exp's rounding. The GEMM runs only
    where delta at the largest R on each side is at most 2^-30. On
    `dash_5k`'s rows (5000 x 20, sigma 6.2) it is 2.7e-14, and the entries
    lie within 8e-15 relative of cdist's.

    Threads and memory. `_on_cores` splits the source rows into slabs whose
    edges fall on multiples of _CHUNK_ROWS, so every tile has the same shape
    and each total adds the same tiles in the same order on any number of
    cores. Each slab holds one tile buffer of 64 x 1024 floats, 512 kB; the
    pass also holds the augmented rows, (n1 + n2) x (d + 2) floats, 1.8 MB
    at 5000 x 5000 x 20, and no n1 x n2 block.
    """
    as_instance(target, Dataset, "target")
    as_instance(source, Dataset, "source")
    as_instance(spec, KernelSpec, "spec")
    if target.d != source.d:
        raise InputError(f"feature dimension mismatch: target {target.d}, source {source.d}")
    # Linear rows of A @ B.T depend on how BLAS tiles the product, so they stay one block.
    if spec.family != GAUSSIAN:
        with np.errstate(over="ignore", invalid="ignore"):  # a linear sum can overflow
            entries = _cross_kernel(target.values, source.values, spec).mean(axis=0)
        return MeanMap(entries=entries, n1=target.n)
    rows = _gemm_rows(source.values, target.values, spec)
    gemm = rows is not None
    left, right = rows if gemm else (source.values, target.values)
    n2, n1 = source.n, target.n
    totals = np.empty(n2)
    chunks = -(-n2 // _CHUNK_ROWS)

    def slab(part: int, parts: int):
        first, last = (_CHUNK_ROWS * (chunks * p // parts) for p in (part, part + 1))
        buf = np.empty(_CHUNK_ROWS * min(_TILE_COLS, n1))
        for start in range(first, min(last, n2), _CHUNK_ROWS):
            r = min(_CHUNK_ROWS, n2 - start)
            total = np.zeros(r)
            for col in range(0, n1, _TILE_COLS):
                c = min(_TILE_COLS, n1 - col)
                tile = _cross_kernel(left[start:start + r], right[col:col + c], spec,
                                     out=buf[:r * c].reshape(r, c), gemm=gemm)
                total += tile.sum(axis=1)
            totals[start:start + r] = total

    _on_cores(n2, slab)
    return MeanMap(entries=totals / n1, n1=n1)


# Rounds of the median's sample: each pairs every row with one other, so the
# sample holds about 16 n distances.
_SAMPLE_ROUNDS = 16
# Half-width of the median's first bracket, in standard errors of a sample quantile.
_BRACKET_Z = 4.0


def _pair_sample(X: np.ndarray) -> np.ndarray:
    """Distances of about _SAMPLE_ROUNDS x n row pairs, drawn with a fixed seed, unsorted.

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
    return np.concatenate(rounds)


def _filter_rows(X: np.ndarray):
    """(order, A, G, R, E, b): the median filter's rows, largest centred norm first.

    The rows are centred at their coordinate-wise median, which a far row
    cannot move, and taken in `order`. Rows i of A and G are the left and
    right rows of `_augmented` for the i-th centred row y so taken, and R[i]
    bounds |y| from above. Since R falls along the order, a pair of row i
    and a later row has
        |estimate - |y_i - y_j|^2| <= E[i] and |pdist's value - |y_i - y_j|| <= b[i].
    """
    d, centre = X.shape[1], np.median(X, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # a far row's norm is inf
        G, R = _augmented(X, centre)
        order = np.argsort(-R, kind="stable")
        A, G, R = _augmented(X, centre, left=True)[0][order], G[order], R[order]
        E = 8 * _gamma(2 * d + 4) * R ** 2 + (2 * d + 2) * 2.0 ** -1070
        b = 4 * _gamma(2 * d + 8) * R + np.sqrt(d) * 2.0 ** -536
    return order, A, G, R, E, b


def _exact_distances(X: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """pdist(X)'s distance of each row pair (a[k], b[k]).

    One cdist call per distinct row of a, against exactly that row's
    partners: cdist computes each pair from its own two rows, as pdist does,
    so every value has pdist's bits, and no pair is computed that was not
    asked for.
    """
    out = np.empty(a.size)
    by_row = np.argsort(a, kind="stable")
    rows, firsts = np.unique(a[by_row], return_index=True)
    for row, pick in zip(rows, np.split(by_row, firsts[1:])):
        out[pick] = cdist(X[row:row + 1], X[b[pick]])[0]
    return out


def _bracket_pass(X: np.ndarray, lo: float, hi: float):
    """(below, kept, margin): a two-way filter of the distances against lo <= hi.

    A pair whose GEMM estimate lies surely below lo is counted in `below`,
    one surely above hi is dropped, and every other pair is kept with its
    estimate, which lies within `margin` of pdist's value. A row past
    _NORM_CUT has no estimate: its pairs' exact distances, the only ones the
    pass computes, are counted, dropped or kept the same way, exactly.

    `kept` is one complex array that grows in place: the real part is a
    pair's estimate, or its exact distance, and the imaginary part is a n + b
    for its rows a < b, so np.partition moves each pair with its estimate.
    """
    n = X.shape[0]
    order, A, G, R, E, b = _filter_rows(X)
    far = np.count_nonzero(~(R <= _NORM_CUT))  # they lead the order
    with np.errstate(over="ignore", invalid="ignore"):
        # An estimate below low[i] places a pair of row i and a later row surely below lo,
        # one above high[i] surely above hi; each is rounded past its exact value, and a
        # masked estimate, inf, lies above every high.
        low = np.where(lo > b, (lo - b) ** 2 * (1 - 8 * _U) - E * (1 + 4 * _U), -np.inf)
        high = np.minimum((hi + b) ** 2 * (1 + 8 * _U) + E * (1 + 4 * _U), np.finfo(float).max)
    below, kept, size, margin = 0, np.empty(0, complex), 0, 0.0

    def keep(values, i, j):
        nonlocal size
        if size + values.size > kept.size:  # a realloc: no view of kept is alive
            kept.resize(max(size + values.size, kept.size * 9 // 8), refcheck=False)
        a, c = order[i], order[j]
        new = kept[size:size + values.size]
        new.real, new.imag = values, np.minimum(a, c) * n + np.maximum(a, c)
        size += values.size

    cols = min(max(_TILE_COLS, _CHUNK_ROWS), n - far)
    buf = np.empty(_CHUNK_ROWS * cols)
    under_buf, hit_buf = np.empty(buf.size, bool), np.empty(buf.size, bool)
    tri = np.tril_indices(_CHUNK_ROWS)

    # A function of its own, as keep is: under tracemalloc, which perfbench's kernel spans
    # run, each allocation looks up its line from the top of its function.
    def chunk(start, stop):  # every pair of rows start..stop-1 and a later row
        nonlocal below, margin
        r = stop - start
        for col in range(start, n, cols):
            c = min(cols, n - col)
            Q = buf[:r * c].reshape(r, c)
            _squared_distances(A[start:stop], G[col:col + c], Q)
            if col == start:  # a pair of two chunk rows is counted once, and no row with itself
                Q[tri[0][:r * (r + 1) // 2], tri[1][:r * (r + 1) // 2]] = np.inf
            under = np.less(Q, low[start], out=under_buf[:r * c].reshape(r, c))
            below += np.count_nonzero(under)
            hit = np.less_equal(Q, high[start], out=hit_buf[:r * c].reshape(r, c))
            hit = np.flatnonzero(np.not_equal(hit, under, out=hit))  # neither counted nor dropped
            if hit.size:
                est = Q.reshape(-1)[hit]
                np.sqrt(np.maximum(est, 0.0, out=est), out=est)
                i, j = np.divmod(hit, c)
                keep(est, i + start, j + col)
                least, e = float(est.min()) * (1 - 4 * _U), float(E[start])
                reach = e / least if least * least > e else np.sqrt(e)  # both bound the error
                margin = max(margin, float(b[start]) + reach + 2 * _U * float(est.max()))

    for row in range(far):  # every pair of a far row is computed exactly
        j = np.arange(row + 1, n)
        dist = _exact_distances(X, np.full(j.size, order[row]), order[j])
        below += np.count_nonzero(dist < lo)
        inner = (dist >= lo) & (dist <= hi)
        keep(dist[inner], row, j[inner])
    start, fall = far, -R
    while start < n:
        # A chunk's norms lie within a factor 2, so its first row's margin fits every row.
        stop = min(start + _CHUNK_ROWS, int(np.searchsorted(fall, -R[start] / 2, "right")))
        chunk(start, stop)
        start = stop
    kept.resize(size, refcheck=False)
    return below, kept, 2 * margin


def _exact_rank(X: np.ndarray, kept: np.ndarray, t: int, margin: float) -> float:
    """The t-th smallest distance of the kept pairs, with kept partitioned at t.

    Every kept estimate lies within margin of its pair's distance, so the
    t-th distance lies within margin of v, the t-th estimate. A pair whose
    estimate is below v - 2 margin is below it, one above v + 2 margin above
    it, so the pairs between are computed exactly, and the t-th distance is
    their (t - #{estimate < v - 2 margin})-th. An infinite v is a far pair's
    exact distance, and is returned unchanged.
    """
    v = kept[t].real
    if np.isinf(v):
        return float(v)
    half = 2 * margin + 4 * _U * abs(v) + 2.0 ** -1070  # rounded v -+ half still passes v -+ 2 margin
    est = kept.real
    low, high = v - half, v + half
    code = kept[(est >= low) & (est <= high)].imag.astype(np.int64)
    dist = _exact_distances(X, code // X.shape[0], code % X.shape[0])
    rank = t - np.count_nonzero(est < low)
    return float(np.partition(dist, rank)[rank])


def _order_statistic(values: np.ndarray, k: int):
    """The k-th smallest of `values`, selected in place by one partition; -inf for k < 0 and
    inf past the end. One k at a time: on 80 000 values, numpy 2.4 selects one k in a
    quarter of a sort's time, and two at once in three times a sort's."""
    if k < 0:
        return -np.inf
    if k >= values.size:
        return np.inf
    values.partition(k)
    return values[k]


def median_bandwidth(data: Dataset) -> float:
    """Median of pairwise Euclidean distances over all unordered row pairs.

    Standard heuristic default for the gaussian bandwidth; callers that
    want a tuned width should select it themselves.

    The result is exactly float(np.median(pdist(X))), but the n(n-1)/2
    distances are never held at once, and almost none is computed
    (Floyd & Rivest 1975 for the selection):

    1. Bracket. Quantiles of a sample of about 16 n pair distances
       (_pair_sample), 4 standard errors either side of the median's rank,
       bracket the median as [lo, hi]. Each is selected by np.partition.
    2. Filter. One pass over the pairs (_bracket_pass) counts those surely
       below lo, drops those surely above hi, and keeps every other pair
       with its estimate. The rows are centred at their coordinate-wise
       median and sorted by norm, largest first, into chunks of at most 64
       rows whose norms lie within a factor 2. One GEMM over the rows
       [-2y, |y|^2, 1] of a chunk and [y, 1, |y|^2] of the later rows, 1024
       columns at a time, estimates |y_i - y_j|^2 for each of the chunk's
       pairs, and a margin places it. The pass computes no distance exactly
       but the pairs of a row whose norm may pass 2^510, which it filters by
       their exact values.
    3. Select. Middle rank k is the (k - below)-th of the kept pairs, which
       _exact_rank finds by the window below. A value that lies in [lo, hi]
       is the k-th of all the distances, since every counted pair lies
       below it and every dropped pair above. Two middle values are
       averaged with np.mean, as np.median does.
    4. Miss. A middle rank that falls among the counted pairs, or whose
       value lies below lo, missed lo; one that falls among the dropped
       pairs, or whose value lies above hi, missed hi. That edge moves out
       in the sample by the ranks it missed by, if any, plus twice the last
       step, and the pass runs again. An edge past the end of the sample is
       -inf or inf, which no rank can miss, so the passes end.

    The margin. Let u be the unit roundoff, gamma_k = k u / (1 - k u), y the
    rounded centred rows and R_i >= |y_i|. A sum of K rounded products errs
    by at most gamma_K times the sum of their magnitudes, in any order
    (Higham 2002, §3.1). So the GEMM's K = d + 2 terms estimate
    |y_i|^2 + |y_j|^2 - 2 y_i . y_j within gamma_K (|y_i| + |y_j|)^2, and the
    two rounded squared norms add gamma_d each: 6 gamma_K R_i^2 in all for
    R_j <= R_i. Centring moves a row by at most u |y_i|, and pdist's value
    is within gamma_(d+2) + 2u of the true distance, so it lies within about
    (2 gamma_(d+2) + 6u) R_i of |y_i - y_j|. The filter takes
    E = 8 gamma_(2K) R^2 and b = 4 gamma_(2d+8) R at the chunk's first,
    largest row, plus terms for underflow: an estimate below (lo - b)^2 - E
    places its pair below lo, one above (hi + b)^2 + E above hi, and each
    threshold is rounded outward. A row more than twice as far out as the
    next starts a chunk of its own, so it widens only its own pairs'
    margins; a row past 2^510, whose squares could overflow, has none.

    Each tile bounds its kept estimates. An estimate q within E of D^2,
    D = |y_i - y_j|, has sqrt(q) within min(sqrt(E), E / sqrt(q)) of D, so a
    kept estimate s = sqrt(max(q, 0)) lies within
        b + min(sqrt(E), E / s_min) + 2 u s_max
    of pdist's value, with s_min the tile's smallest kept estimate rounded
    down and s_max its largest. The bound holds on either side of an edge,
    and the margin m is twice the largest tile's.

    The window. When every value moves by at most m, so does every order
    statistic, so the t-th distance of the kept pairs lies within m of v,
    their t-th estimate. A pair whose estimate is below v - 2m then lies
    below it, and one above v + 2m above it: the t-th distance is the
    (t - #{estimate < v - 2m})-th of the pairs between, which alone are
    computed exactly, one cdist call per distinct row.

    Memory is the sample, the filter's two n x (d + 2) row sets, one GEMM block of
    64 x 1024 floats with two byte masks of its size, and 16 bytes a kept
    pair: its estimate and its index a n + b, as one complex number that
    np.partition moves whole. The index is exact below n = 9.4e7. The
    bracket keeps about 4 / sqrt(16 n) of the pairs where the sample
    brackets well: 171 000 pairs, 2.7 MB, at n = 5000, and 5.6 M pairs,
    89 MB, at n = 50 000, against pdist's 100 MB and 10 GB.
    """
    as_instance(data, Dataset, "data")
    if data.n < 2:
        raise InputError("median bandwidth needs at least two rows")
    X = data.values
    total = data.n * (data.n - 1) // 2
    ranks = sorted({(total - 1) // 2, total // 2})  # the middle one or two order statistics
    sample = _pair_sample(X)
    per_rank = sample.size / total  # sample positions per rank
    # A sample quantile's standard error is 0.5 sqrt(size) sample positions.
    step = max(1.0, _BRACKET_Z * 0.5 * np.sqrt(sample.size))
    low, high = int(np.floor(ranks[0] * per_rank - step)), int(np.ceil(ranks[-1] * per_rank + step))
    while True:
        lo, hi = _order_statistic(sample, low), _order_statistic(sample, high)
        below, kept, margin = _bracket_pass(X, lo, hi)
        at = [k - below for k in ranks]  # each middle rank's place among the kept pairs
        inner = [i for i in at if 0 <= i < kept.size]
        if inner:
            kept.partition(inner)
        got = [-np.inf if i < 0 else np.inf if i >= kept.size else _exact_rank(X, kept, i, margin)
               for i in at]
        step *= 2
        if got[0] < lo:  # a middle value lies below lo
            high = low if got[-1] < lo else high
            low = int(np.floor(low - max(below - ranks[0], 0) * per_rank - step))
        elif got[-1] > hi:  # a middle value lies above hi
            low = high if got[0] > hi else low
            high = int(np.ceil(high + max(ranks[-1] + 1 - below - kept.size, 0) * per_rank + step))
        else:
            break
    med = float(np.mean(got))
    if not np.isfinite(med):
        raise NumericError("median pairwise distance is not finite (features too large)")
    if med <= 0.0:
        raise DegenerateDataError("median pairwise distance is zero (rows effectively identical)")
    return med
