"""Non-negative maximization of l(w) = w'mu - w'Kw/2 on a restricted support.

The solver is an active-set method in the Lawson-Hanson style: it grows a
passive (free) set one coordinate at a time, solves the unconstrained
subproblem on the passive set through the one Cholesky factorization,
`_factor`, which calls LAPACK directly, and steps back to the feasible
region whenever a passive weight would turn negative. On a positive definite
Gram matrix it terminates finitely with an exact support, which the
downstream KKT-based checks rely on; a block that does not factor ends it.

A weight vector that `solve_restricted` returns remembers its solve: the Gram
and mean map it was solved against, their block and entries at its support, and
the final passive set (`_Record`). Solved again from it as a warm start, against
the same Gram and mean map, on its support or on that support plus one index,
the block is read from the record, grown by one row of K, not gathered, and the
warm start itself is not solved again. `objective` and `kkt_residual` read the
record too. Every output has the same bits as from a vector without a record.
"""

from __future__ import annotations

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
        return np.asarray(self.indices, dtype=np.intp)


class _Record(NamedTuple):
    """What a solve computed on its support, kept by the WeightVector it returns."""

    K: weakref.ref  # the Gram and the mean map solved against; held weakly, so that a
    mu: weakref.ref  # result does not keep them alive
    block: np.ndarray  # K's block at the support, read-only
    mu_entries: np.ndarray  # mu's entries at the support, read-only
    passive: np.ndarray  # the passive set of the solve's last pass


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
        if np.any(w < 0):
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
    if np.shape(v) != (as_instance(K, KernelMatrix, "K").n2,):
        raise InputError(f"vector of shape {np.shape(v)} does not fit a kernel matrix of {K.n2} rows")
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
        # the recorded passive set is the warm start's positive set: its pass is done
        solved = np.array_equal(w.weights > 0, rec.passive)
        if L.indices == held:
            return rec.block, rec.mu_entries, w.weights, solved
        if len(L) == len(held) + 1 and L.indices[:-1] == held:
            j = L.indices[-1]
            row = K.rows([j])[0]
            edge = row[w.support.as_array()]
            if edge.all():
                n = len(held)
                KL = np.empty((n + 1, n + 1))
                KL[:n, :n] = rec.block
                KL[n, :n] = KL[:n, n] = edge
                KL[n, n] = row[j]
                return (KL, np.append(rec.mu_entries, mu.entries[j]), np.append(w.weights, 0.0),
                        solved)
    idx = L.as_array()
    KL = K.block(idx)  # the block first: it refuses an index out of range
    wL = np.zeros(idx.size) if w is None else w.dense()[idx]
    # weights are non-negative, so L gathers them all exactly when it gathers every positive one
    if w is not None and np.count_nonzero(wL) != np.count_nonzero(w.weights):
        raise InputError(f"{name} support must lie inside L")
    return KL, mu.entries[idx], wL, False


def objective(w: WeightVector, K: KernelMatrix, mu: MeanMap) -> float:
    """Value of w'mu - w'Kw/2 using only the support coordinates.

    A w that `solve_restricted` returned for this K and mu brings its support's block
    and mean-map entries in its record, so nothing is gathered; the value has the same
    bits either way.
    """
    KL, muL, wL, _ = _restricted(K, mu, as_instance(w, WeightVector, "w").support, w, "weight")
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
    entry is U(S + j) - l(w), U(T) the unconstrained maximum of l on T. One
    Cholesky factor of K_SS and one triangular solve against K[S, :] give
    every entry.

    The bound is +inf where it cannot be trusted: K_SS does not factor or a
    pivot of its factor, itself a Schur complement, is at most sqrt(eps)
    times its diagonal entry; or s_j is, where cancellation has taken its
    digits. Entries for indices already in S carry no meaning. K_SS is read from w's
    record when w was solved against this K.
    """
    g = as_reals(g, "gradient")
    if not np.isfinite(g).all():
        raise InputError("gradient contains non-finite entries")
    _check_sizes(K, g, as_instance(w, WeightVector, "w"))
    diag = K.diag()
    s, h, base = diag, g, 0.0
    if len(w.support):
        idx = w.support.as_array()
        rec = _record_of(w, K)
        factor = _factor(K.block(idx) if rec is None else rec.block)
        if factor is None or np.any(np.diagonal(factor) ** 2 <= _SQRT_EPS * diag[idx]):
            return np.full(K.n2, np.inf)
        B = lapack.dtrtrs(factor, K.rows(idx), lower=1)[0]
        rho = np.where(w.weights > 0.0, g[idx], np.maximum(g[idx], 0.0))
        r = lapack.dtrtrs(factor, rho, lower=1)[0]
        s = diag - np.einsum("ij,ij->j", B, B)
        h = g - r @ B
        base = 0.5 * float(r @ r)
    trusted = s > _SQRT_EPS * diag
    bound = np.full(K.n2, np.inf)
    with np.errstate(over="ignore"):  # an overflowing bound stays +inf
        bound[trusted] = base + h[trusted] ** 2 / (2.0 * s[trusted])
    return bound


def _factor(A: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of A, or None if A is not positive definite. Its upper
    triangle keeps A's entries: dpotrs, dtrtrs and np.diagonal read only the lower."""
    factor, info = lapack.dpotrf(A, lower=1, clean=0)
    return factor if info == 0 else None


def _subproblem(A: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray | None:
    """Unconstrained maximizer on the passive coordinates; None if their block does not factor.

    One or two refinement passes keep the stationarity residual of the
    passive block near roundoff even for ill-conditioned Gram blocks.
    """
    z = np.zeros_like(b)
    p = np.flatnonzero(passive)
    if not p.size:
        return z
    # two takes gather a C-ordered block faster than one 2-D index; the whole block needs none
    sub = A if p.size == b.size else A.take(p, 0).take(p, 1)
    rhs = b[p]
    factor = _factor(sub)
    if factor is None:
        return None
    x = lapack.dpotrs(factor, rhs, lower=1)[0]
    for _ in range(2):
        r = rhs - sub @ x
        if np.max(np.abs(r)) <= 1e-13 * max(1.0, np.max(np.abs(rhs))):
            break
        x = x + lapack.dpotrs(factor, r, lower=1)[0]
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
        negative = passive & (z < 0.0)
        stepping_back = negative.any()
        if not stepping_back:
            w = z
            masked = np.where(passive, -np.inf, b - A @ w)
            entering = int(np.argmax(masked))
            if not np.isfinite(masked[entering]) or masked[entering] <= 0.5 * tol:
                return w, passive, None
        iters += 1
        if iters > max_iter:
            return w, passive, ITERATION_CAP
        if stepping_back:
            ratios = np.full(b.shape[0], np.inf)
            ratios[negative] = w[negative] / (w[negative] - z[negative])
            w = w + min(max(float(ratios.min()), 0.0), 1.0) * (z - w)
            w[int(np.argmin(ratios))] = 0.0
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
                                             read_only(muL), passive))
    return w
