"""Non-negative maximization of l(w) = w'mu - w'Kw/2 on a restricted support.

The solver is an active-set method in the Lawson-Hanson style: it grows a
passive (free) set one coordinate at a time, solves the unconstrained
subproblem on the passive set through the one Cholesky factorization,
`_factor`, which calls LAPACK directly, and steps back to the feasible
region whenever a passive weight would turn negative. On a positive definite
Gram matrix it terminates finitely with an exact support, which the
downstream KKT-based checks rely on; a block that does not factor ends it.

A weight vector that `solve_restricted` returns remembers its solve: the Gram
and mean map it was solved against, their block and entries at its support, the
final passive set, and its objective (`_Record`). The solve sets the record once,
and nothing changes it later; it computes that objective once, by `_value` on the
record's block, entries and weights, and `objective` of the vector returns it.
Solved again from it as a warm start, against the same Gram and mean map, on
its support or on that support plus one index, the block is read from the record,
grown by one row of K, not gathered, and the warm start itself is not solved
again. `kkt_residual` reads the record too. `gain_bounds` reads its bounds from the
whitening of the support (`_Whitened`: the Cholesky factor of K's block, the rows
it whitens and their Schur complements), built from the empty support one index
at a time; a caller that bounds a growing support holds the whitening itself and
grows it by the new indices only (`_whitening`, then `_bounds`), in O(|S| n2) an
index, not O(|S|^2 n2). Every output has the same bits as from a vector without a
record.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import (InputError, SolverError, as_held, as_index, as_indices, as_instance, as_real,
                     as_reals, read_only)
from .kernel import KernelMatrix, MeanMap

# Relative size below which a Schur complement has lost its digits to cancellation.
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
# Why a solve stopped short: its SolverError.reason.
NOT_POSITIVE_DEFINITE = "not_positive_definite"
ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class SupportSet:
    """Ordered set of distinct source indices; iteration follows insertion order."""

    indices: tuple[int, ...] = ()
    _array = None  # a class attribute, not a field: `as_array`'s array, once made

    def __post_init__(self):
        idx = as_indices(self.indices, "support indices")
        if len(set(idx)) != len(idx):
            raise InputError("support indices must be distinct")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, j) -> bool:
        return j in self.indices

    def extended(self, j: int) -> "SupportSet":
        """This support with j appended. Only j is checked, by the constructor's rules:
        the indices held are checked already, so a grown support costs one check a step."""
        (j,) = as_indices((j,), "support indices")
        if j in self.indices:
            raise InputError("support indices must be distinct")
        grown = object.__new__(SupportSet)
        object.__setattr__(grown, "indices", self.indices + (j,))
        return grown

    def as_array(self) -> np.ndarray:
        """The indices as one read-only intp array, made at the first call and held. It is
        not part of the value: it is not compared, hashed or pickled."""
        if self._array is None:
            object.__setattr__(self, "_array", read_only(np.array(self.indices, dtype=np.intp)))
        return self._array

    def __getstate__(self):
        return {"indices": self.indices}


class _Whitened(NamedTuple):
    """The whitening of the first `size` indices S of a support, grown one index at a time
    by `_whiten`: the lower Cholesky factor L of K_SS, B = L^-1 K[S, :] and the Schur
    complements s = diag(K) - sum of B's squared rows. All three are None once a pivot
    is untrusted (see `gain_bounds`), for then every bound on S or a superset is."""

    size: int
    factor: np.ndarray | None  # size x size
    B: np.ndarray | None  # size x n2
    s: np.ndarray | None  # n2


class _Record(NamedTuple):
    """What a solve computed on its support, kept by the WeightVector it returns."""

    K: weakref.ref  # the Gram and the mean map solved against; held weakly, so that a
    mu: weakref.ref  # result does not keep them alive
    block: np.ndarray  # K's block at the support, read-only
    mu_entries: np.ndarray  # mu's entries at the support, read-only
    passive: np.ndarray  # the passive set of the solve's last pass
    objective: float  # `_value` of the weights on the block and entries above


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Non-negative weights aligned to an ordered support; zero elsewhere.

    One returned by `solve_restricted` also carries the solve's `_Record`. The record is
    not part of the value: it is not a field and is not pickled.
    """

    support: SupportSet
    weights: np.ndarray
    dimension: int
    _record = None  # a class attribute, not a field

    def __post_init__(self):
        as_instance(self.support, SupportSet, "support")
        object.__setattr__(self, "dimension", as_index(self.dimension, "dimension", least=0))
        w = as_held(self.weights, "weights", (len(self.support),))
        if (w < 0).any():
            raise InputError("weights must be non-negative")
        if max(self.support.indices, default=-1) >= self.dimension:
            raise InputError("support index out of range")
        object.__setattr__(self, "weights", w)

    @classmethod
    def zeros(cls, dimension: int) -> "WeightVector":
        return cls(support=SupportSet(), weights=np.zeros(0), dimension=dimension)

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name != "_record"}

    def dense(self) -> np.ndarray:
        out = np.zeros(self.dimension)
        if len(self.support):
            out[self.support.as_array()] = self.weights
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Weight solver settings: the KKT tolerance, and the iteration cap.

    A solve on a support L stops after 10·|L| + 100 iterations by default;
    `max_iterations`, if set, replaces that cap.
    """

    kkt_tolerance: float = 1e-8
    max_iterations: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kkt_tolerance", as_real(self.kkt_tolerance, "kkt_tolerance"))
        if self.max_iterations is not None:
            object.__setattr__(self, "max_iterations",
                               as_index(self.max_iterations, "max_iterations", least=1))


def as_solver(cfg) -> SolverConfig:
    """`cfg`, or the default SolverConfig for None; InputError for anything else."""
    return SolverConfig() if cfg is None else as_instance(cfg, SolverConfig, "solver")


def _check_sizes(K: KernelMatrix, v: np.ndarray, w: WeightVector | None = None):
    """InputError unless K is a KernelMatrix that v (mu's entries or a gradient) and w fit."""
    if v.shape != (as_instance(K, KernelMatrix, "K").n2,):
        raise InputError(f"vector of shape {v.shape} does not fit a kernel matrix of {K.n2} rows")
    if w is not None and w.dimension != K.n2:
        raise InputError(f"weight vector has dimension {w.dimension}, kernel matrix has {K.n2}")


def _record_of(w: WeightVector | None, K: KernelMatrix, mu: MeanMap | None = None):
    """The record w carries of a solve against this K (and this mu, if given), or None."""
    rec = getattr(w, "_record", None)  # w may be None
    if rec is None or rec.K() is not K or (mu is not None and rec.mu() is not mu):
        return None
    return rec


def _restricted(K: KernelMatrix, mu: MeanMap, L: SupportSet, w: WeightVector | None, name: str):
    """(K's block, mu's entries, w's weights) at L, zero weights if w is None, and whether
    the weights at L solve the first pass of `_active_set_max` already.

    If w carries the record of a solve against this K and mu, and L is w's support or
    that support plus one index j, the arrays are the record's, grown by row j of K and
    its mirror: O(|L|) work, not the O(|L|^2) gather. `KernelMatrix._admit` makes a
    held row equal its column entry for entry, so the grown block has the bits of
    K.block(L); a zero, whose mirror may be -0.0, sends the row to the gather instead.

    InputError unless the arguments fit one another and w's support, if any, lies inside L.
    """
    _check_sizes(K, as_instance(mu, MeanMap, "mu").entries, w)
    L = as_instance(L, SupportSet, "L")
    rec = _record_of(w, K, mu)
    if rec is not None:
        held = w.support.indices
        # the recorded passive set is the warm start's positive set: its pass is done. The
        # weights are positive only inside that set, so equal counts mean equal sets.
        solved = np.count_nonzero(w.weights) == np.count_nonzero(rec.passive)
        if L.indices == held:
            return rec.block, rec.mu_entries, w.weights, solved
        if len(L) == len(held) + 1 and L.indices[:-1] == held:
            j = L.indices[-1]
            row = K.rows((j,))[0]
            edge = row.take(w.support.as_array())
            if np.count_nonzero(edge) == edge.size:
                n = len(held)
                KL = np.empty((n + 1, n + 1))
                KL[:n, :n] = rec.block
                KL[n, :n] = KL[:n, n] = edge
                KL[n, n] = row[j]
                return (KL, np.concatenate((rec.mu_entries, mu.entries[j:j + 1])),
                        np.concatenate((w.weights, (0.0,))), solved)
    idx = L.as_array()
    KL = K.block(idx)  # the block first: it refuses an index out of range
    wL = np.zeros(idx.size) if w is None else w.dense()[idx]
    # weights are non-negative, so L gathers them all exactly when it gathers every positive one
    if w is not None and np.count_nonzero(wL) != np.count_nonzero(w.weights):
        raise InputError(f"{name} support must lie inside L")
    return KL, mu.entries[idx], wL, False


def objective(w: WeightVector, K: KernelMatrix, mu: MeanMap) -> float:
    """Value of w'mu - w'Kw/2 using only the support coordinates.

    A w that `solve_restricted` returned for this K and mu carries the value in its
    record: the solve computed it by `_value` on the very arrays a gather would give,
    so nothing is gathered or computed here, and the value has the same bits as from a
    plain copy of w.
    """
    rec = _record_of(as_instance(w, WeightVector, "w"), K, as_instance(mu, MeanMap, "mu"))
    if rec is not None:
        return rec.objective
    return _value(*_restricted(K, mu, w.support, w, "weight")[:3])


def _value(KL: np.ndarray, muL: np.ndarray, wL: np.ndarray) -> float:
    return float(wL @ muL - 0.5 * wL @ (KL @ wL))


def gradient(w: WeightVector, K: KernelMatrix, mu: MeanMap) -> np.ndarray:
    """Full-length gradient mu - Kw."""
    _check_sizes(K, as_instance(mu, MeanMap, "mu").entries, as_instance(w, WeightVector, "w"))
    return mu.entries - w.weights @ K.rows(w.support.as_array())


def kkt_residual(w: WeightVector, K: KernelMatrix, mu: MeanMap, L: SupportSet) -> float:
    """Largest first-order optimality violation of w on the support L.

    Per coordinate j in L this is |grad_j| where w_j > 0 and max(grad_j, 0)
    where w_j = 0; weights are never negative.
    """
    KL, muL, wL, _ = _restricted(K, mu, L, as_instance(w, WeightVector, "w"), "weight")
    return _residual_of(KL, muL, wL)


def gain_bounds(w: WeightVector, g: np.ndarray, K: KernelMatrix) -> np.ndarray:
    """Upper bound on the objective gain of adding each index to w's support.

    With S the support of w and g = mu - Kw its gradient, let rho_S be g on
    the positive weights of S and max(g, 0) on its zero weights. Entry j is
        rho_S' K_SS^-1 rho_S / 2 + h_j^2 / (2 s_j),
    where s_j = K_jj - k_j' K_SS^-1 k_j is the Schur complement of K_SS and
    h_j = g_j - k_j' K_SS^-1 rho_S. Any non-negative weights v on S + j gain
    at most this much, by weak duality (Boyd & Vandenberghe, ch. 5): the
    multipliers lambda = max(-g, 0) on the zero weights, 0 elsewhere, are
    non-negative with lambda'w = 0, so l(v) <= l(v) + lambda'v. That
    concave function equals l(w) at w, where its gradient is rho_S on S and
    g_j at j, and its unconstrained maximum on S + j lies the entry above
    l(w). Where every weight is positive, rho_S = g_S and the
    entry is U(S + j) - l(w), U(T) the unconstrained maximum of l on T.

    Every entry comes from S's whitening (`_Whitened`): the lower Cholesky
    factor L of K_SS, B = L^-1 K[S, :] and s = diag(K) - sum of B's squared
    rows. r = L^-1 rho_S gives h = g - r'B and the first term r'r / 2. The
    whitening is built one index of S at a time, in S's order, by `_whiten`,
    in O(|S| n2) each (Golub & Van Loan, §4.2 and §6.5); the first, of the
    empty support, is L = [], B = [] and s = diag(K). Here it is built from
    the empty support; a caller that bounds a growing support, as ProtoGreedy
    does, holds the whitening instead, grows it by each new index of S
    (`_whitening`), and reads the same entries, bit for bit, through
    `_bounds`, so that a step adds one row and reads one new row of K. Each
    s_j takes |S| rounded subtractions of squares, the same gamma_|S| order
    of error as the sum of squares it replaced, so
    `selectors._BOUND_SLACK`'s argument stands.

    The bound is +inf where it cannot be trusted: a pivot of L, the Schur
    complement s_j of the index j it adds (K_jj - l'l, l = B[:, j]), is at
    most sqrt(eps) times K_jj, which covers a K_SS that does not factor; or
    s_j is, where cancellation has taken its digits. Entries for indices
    already in S carry no meaning.
    """
    g = as_reals(g, "gradient")
    if not np.isfinite(g).all():
        raise InputError("gradient contains non-finite entries")
    _check_sizes(K, g, as_instance(w, WeightVector, "w"))
    return _bounds(_whitening(w.support, K), w, g, K)


def _bounds(W: _Whitened, w: WeightVector, g: np.ndarray, K: KernelMatrix) -> np.ndarray:
    """`gain_bounds` of w and g, read from W, the whitening of w's support."""
    if W.factor is None:
        return np.full(K.n2, np.inf)
    s, h, base = W.s, g, 0.0
    if W.size:
        idx = w.support.as_array()
        rho = np.where(w.weights > 0.0, g[idx], np.maximum(g[idx], 0.0))
        r = lapack.dtrtrs(W.factor, rho, lower=1)[0]
        h = g - r @ W.B
        base = 0.5 * float(r @ r)
    diag = K.diag()
    trusted = s > _SQRT_EPS * diag
    bound = np.full(K.n2, np.inf)
    with np.errstate(over="ignore"):  # an overflowing bound stays +inf
        bound[trusted] = base + h[trusted] ** 2 / (2.0 * s[trusted])
    return bound


def _whitening(S: SupportSet, K: KernelMatrix, W: _Whitened | None = None) -> _Whitened:
    """The whitening of S, grown from W, that of a prefix of S, or from the empty support's."""
    if W is None:
        W = _Whitened(0, np.zeros((0, 0)), np.zeros((0, K.n2)), K.diag())
    for j in S.indices[W.size:]:
        W = _whiten(W, j, K)
    return W


def _whiten(W: _Whitened, j: int, K: KernelMatrix) -> _Whitened:
    """W grown by the index j, from row j of K: L gains the row (l, lambda), l = B[:, j]
    = L^-1 K[S, j] and lambda^2 = s_j = K_jj - l'l, its pivot; B gains the row
    b = (K_j - l'B) / lambda, and s loses b^2. A pivot at most sqrt(eps) K_jj is
    untrusted, and so is every whitening grown from one."""
    n = W.size
    if W.factor is None or not W.s[j] > _SQRT_EPS * K.diag()[j]:
        return _Whitened(n + 1, None, None, None)
    pivot = math.sqrt(W.s[j])
    edge = W.B[:, j]
    b = (K.rows((j,))[0] - edge @ W.B) / pivot
    factor = np.zeros((n + 1, n + 1))
    factor[:n, :n] = W.factor
    factor[n, :n] = edge
    factor[n, n] = pivot
    return _Whitened(n + 1, factor, np.concatenate((W.B, b[None])), W.s - b * b)


def _block_of(w: WeightVector, K: KernelMatrix) -> np.ndarray:
    """K's block at w's support: the record's if w was solved against K, else gathered."""
    rec = _record_of(w, K)
    return K.block(w.support.as_array()) if rec is None else rec.block


def _factor(A: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of A, or None if A is not positive definite. Its upper
    triangle keeps A's entries: dpotrs, dtrtrs and np.diagonal read only the lower."""
    factor, info = lapack.dpotrf(A, lower=1, clean=0)
    return factor if info == 0 else None


def _subproblem(A: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray | None:
    """Unconstrained maximizer on the passive coordinates; None if their block does not factor.

    One or two refinement passes keep the stationarity residual of the
    passive block near roundoff even for ill-conditioned Gram blocks. A block that
    is passive whole is solved as it is: no gather, and no scatter of the solution.
    """
    p = passive.nonzero()[0]
    if not p.size:
        return np.zeros(b.size)
    whole = p.size == b.size
    # two takes gather a C-ordered block faster than one 2-D index
    sub, rhs = (A, b) if whole else (A.take(p, 0).take(p, 1), b[p])
    factor = _factor(sub)
    if factor is None:
        return None
    x = lapack.dpotrs(factor, rhs, lower=1)[0]
    for _ in range(2):
        r = rhs - sub @ x
        if abs(r).max() <= 1e-13 * max(1.0, abs(rhs).max()):
            break
        x = x + lapack.dpotrs(factor, r, lower=1)[0]
    if whole:
        return x
    z = np.zeros(b.size)
    z[p] = x
    return z


def _residual_of(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    g = b - A @ w
    per_coord = np.where(w > 0, np.abs(g), np.maximum(g, 0.0))
    return float(per_coord.max()) if per_coord.size else 0.0


def _active_set_max(A: np.ndarray, b: np.ndarray, w0: np.ndarray, tol: float, max_iter: int,
                    solved: bool = False) -> tuple[np.ndarray, np.ndarray, str | None]:
    """(maximizer, passive set, None), or (last iterate, passive set, reason) if a block
    does not factor, NOT_POSITIVE_DEFINITE, or the cap passes, ITERATION_CAP; the start
    w0 is feasible.

    Each pass solves the subproblem on the passive set, which also absorbs a warm
    start that is feasible but not yet stationary. Then it either steps back,
    if a passive weight would turn negative, or lets the coordinate with the
    largest KKT violation enter. One iteration is one step-back or one entering
    coordinate; it is counted, and checked against max_iter, before it is applied.

    `solved` says that w0 is already the first pass's solution: w0 was returned by a solve
    whose last pass had w0's positive set as its passive set, on a block whose leading
    rows and columns are A's, bit for bit. That pass would gather the same sub-block and
    right side and put them through the same dpotrf, dpotrs and refinement, so it would
    give w0 again, bit for bit; the first pass takes w0 and factors nothing.
    """
    w, passive = w0, w0 > 0
    iters = 0
    while True:
        z = w0 if solved and iters == 0 else _subproblem(A, b, passive)
        if z is None:
            return w, passive, NOT_POSITIVE_DEFINITE
        negative = (passive & (z < 0.0)).nonzero()[0]
        if not negative.size:
            w = z
            if np.count_nonzero(passive) == passive.size:  # no coordinate is left to enter
                return w, passive, None
            masked = np.where(passive, -np.inf, b - A @ w)
            entering = int(masked.argmax())
            if not math.isfinite(masked[entering]) or masked[entering] <= 0.5 * tol:
                return w, passive, None
        iters += 1
        if iters > max_iter:
            return w, passive, ITERATION_CAP
        if negative.size:
            ratios = np.full(b.shape[0], np.inf)
            ratios[negative] = w[negative] / (w[negative] - z[negative])
            w = w + min(max(float(ratios.min()), 0.0), 1.0) * (z - w)
            w[int(ratios.argmin())] = 0.0
            np.maximum(w, 0.0, out=w)
            passive = w > 0
        else:
            passive[entering] = True


def solve_restricted(K: KernelMatrix, mu: MeanMap, L: SupportSet,
                     cfg: SolverConfig | None = None,
                     warm_start: WeightVector | None = None) -> WeightVector:
    """Maximize l over non-negative weights supported on L.

    Args:
        K: Gram matrix over the source rows.
        mu: target mean map.
        L: allowed support; an empty L returns the zero vector.
        cfg: solver tolerances; defaults to SolverConfig().
        warm_start: previous solution whose positive support lies in L, used
            to seed the passive set. The returned objective is never below
            the warm start's. One this function returned for the same K and mu
            (by identity), on L or on L less its last index, brings the block
            from its record, grown by one row, and needs no first re-solve; the
            result has the same bits as from a plain copy of it.

    Returns:
        The weights on L, carrying the solve's record (see the module docstring).

    Raises:
        SolverError: a block of K on L does not factor, or the iteration cap
            runs out; the error carries which as its reason, and the best
            iterate and its KKT residual.
    """
    cfg = as_solver(cfg)
    if warm_start is not None:
        as_instance(warm_start, WeightVector, "warm_start")
    KL, muL, w0, solved = _restricted(K, mu, L, warm_start, "warm start")
    n2 = K.n2
    if len(L) == 0:
        return WeightVector.zeros(n2)
    cap = 10 * len(L) + 100 if cfg.max_iterations is None else cfg.max_iterations
    weights, passive, reason = _active_set_max(KL, muL, w0, cfg.kkt_tolerance, cap, solved)
    w = WeightVector(support=L, weights=weights, dimension=n2)
    if reason is not None:
        residual = _residual_of(KL, muL, weights)
        stop = ("met a block that is not positive definite" if reason == NOT_POSITIVE_DEFINITE
                else f"reached its iteration cap of {cap}")
        raise SolverError(f"weight solver {stop} on a support of size {len(L)} "
                          f"(residual {residual:.3e})", residual=residual, best_iterate=w,
                          reason=reason)
    object.__setattr__(w, "_record", _Record(weakref.ref(K), weakref.ref(mu), read_only(KL),
                                             read_only(muL), passive, _value(KL, muL, w.weights)))
    return w

