"""Non-negative maximization of l(w) = w'mu - w'Kw/2 on a restricted support.

The solver is an active-set method in the Lawson-Hanson style: it grows a
passive (free) set one coordinate at a time, solves the unconstrained
subproblem on the passive set through the one Cholesky factorization,
`_factor`, which calls LAPACK directly, and steps back to the feasible
region whenever a passive weight would turn negative. On a positive definite
Gram matrix it terminates finitely with an exact support, which the
downstream KKT-based checks rely on; a block that does not factor ends it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (InputError, SolverError, as_held, as_index, as_indices, as_instance, as_real,
                     as_reals)
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


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Non-negative weights aligned to an ordered support; zero elsewhere."""

    support: SupportSet
    weights: np.ndarray
    dimension: int

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


def _restricted(K: KernelMatrix, mu: MeanMap, L: SupportSet, w: WeightVector | None, name: str):
    """(K's block, mu's entries, w's weights) gathered at L, zero weights if w is None.

    InputError unless the arguments fit one another and w's support, if any, lies inside L.
    """
    _check_sizes(K, as_instance(mu, MeanMap, "mu").entries, w)
    idx = as_instance(L, SupportSet, "L").as_array()
    KL = K.block(idx)  # the block first: it refuses an index out of range
    wL = np.zeros(idx.size) if w is None else w.dense()[idx]
    # weights are non-negative, so L gathers them all exactly when it gathers every positive one
    if w is not None and np.count_nonzero(wL) != np.count_nonzero(w.weights):
        raise InputError(f"{name} support must lie inside L")
    return KL, mu.entries[idx], wL


def objective(w: WeightVector, K: KernelMatrix, mu: MeanMap) -> float:
    """Value of w'mu - w'Kw/2 using only the support coordinates."""
    KL, muL, wL = _restricted(K, mu, as_instance(w, WeightVector, "w").support, w, "weight")
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
    return _residual_of(*_restricted(K, mu, L, as_instance(w, WeightVector, "w"), "weight"))


def gain_bounds(w: WeightVector, g: np.ndarray, K: KernelMatrix) -> np.ndarray:
    """Upper bound on the objective gain of adding each index to w's support.

    With S the support of w, g = mu - Kw its gradient and U(T) the
    unconstrained maximum of l on a support T, entry j is
    U(S + j) - l(w) = g_S' K_SS^-1 g_S / 2 + h_j^2 / (2 s_j), where
    s_j = K_jj - k_j' K_SS^-1 k_j is the Schur complement of K_SS and
    h_j = g_j - k_j' K_SS^-1 g_S the gradient at U(S). Any non-negative
    weights on S + j gain at most this much. One Cholesky factor of K_SS and
    one triangular solve against K[S, :] give every entry.

    The bound is +inf where it cannot be trusted: K_SS does not factor or a
    pivot of its factor, itself a Schur complement, is at most sqrt(eps)
    times its diagonal entry; or s_j is, where cancellation has taken its
    digits. Entries for indices already in S carry no meaning.
    """
    g = as_reals(g, "gradient")
    if not np.isfinite(g).all():
        raise InputError("gradient contains non-finite entries")
    _check_sizes(K, g, as_instance(w, WeightVector, "w"))
    diag = K.diag()
    s, h, base = diag, g, 0.0
    if len(w.support):
        idx = w.support.as_array()
        factor = _factor(K.block(idx))
        if factor is None or np.any(np.diagonal(factor) ** 2 <= _SQRT_EPS * diag[idx]):
            return np.full(K.n2, np.inf)
        B = lapack.dtrtrs(factor, K.rows(idx), lower=1)[0]
        r = lapack.dtrtrs(factor, g[idx], lower=1)[0]
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
    sub = A[p[:, None], p]
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


def _active_set_max(A: np.ndarray, b: np.ndarray, w0: np.ndarray,
                    tol: float, max_iter: int) -> tuple[np.ndarray, str | None]:
    """(maximizer, None), or (last iterate, reason) if a block does not factor,
    NOT_POSITIVE_DEFINITE, or the cap passes, ITERATION_CAP; the start w0 is feasible.

    Each pass solves the subproblem on the passive set, which also absorbs a warm
    start that is feasible but not yet stationary. Then it either steps back,
    if a passive weight would turn negative, or lets the coordinate with the
    largest KKT violation enter. One iteration is one step-back or one entering
    coordinate; it is counted, and checked against max_iter, before it is applied.
    """
    w, passive = w0, w0 > 0
    iters = 0
    while True:
        z = _subproblem(A, b, passive)
        if z is None:
            return w, NOT_POSITIVE_DEFINITE
        negative = passive & (z < 0.0)
        stepping_back = negative.any()
        if not stepping_back:
            w = z
            masked = np.where(passive, -np.inf, b - A @ w)
            entering = int(np.argmax(masked))
            if not np.isfinite(masked[entering]) or masked[entering] <= 0.5 * tol:
                return w, None
        iters += 1
        if iters > max_iter:
            return w, ITERATION_CAP
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
            the warm start's.

    Raises:
        SolverError: a block of K on L does not factor, or the iteration cap
            runs out; the error carries which as its reason, and the best
            iterate and its KKT residual.
    """
    cfg = as_solver(cfg)
    if warm_start is not None:
        as_instance(warm_start, WeightVector, "warm_start")
    KL, muL, w0 = _restricted(K, mu, L, warm_start, "warm start")
    n2 = K.n2
    if len(L) == 0:
        return WeightVector.zeros(n2)
    cap = 10 * len(L) + 100 if cfg.max_iterations is None else cfg.max_iterations
    weights, reason = _active_set_max(KL, muL, w0, cfg.kkt_tolerance, cap)
    w = WeightVector(support=L, weights=weights, dimension=n2)
    if reason is not None:
        residual = _residual_of(KL, muL, weights)
        stop = ("met a block that is not positive definite" if reason == NOT_POSITIVE_DEFINITE
                else f"reached its iteration cap of {cap}")
        raise SolverError(f"weight solver {stop} on a support of size {len(L)} "
                          f"(residual {residual:.3e})", residual=residual, best_iterate=w,
                          reason=reason)
    return w
