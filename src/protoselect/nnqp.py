"""Non-negative maximization of l(w) = w'mu - w'Kw/2 on a restricted support.

The solver is an active-set method in the Lawson-Hanson style: it grows a
passive (free) set one coordinate at a time, solves the unconstrained
subproblem on the passive set through a Cholesky factorization, and steps
back to the feasible region whenever a passive weight would turn negative.
On a positive definite Gram matrix it terminates finitely with an exact
support, which the downstream KKT-based checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky, solve_triangular

from .errors import InputError, SolverError, as_index, as_indices, as_real, as_reals
from .kernel import Gram, MeanMap

# Relative size below which a Schur complement has lost its digits to cancellation.
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


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
        return SupportSet(self.indices + (int(j),))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)


@dataclass(frozen=True)
class WeightVector:
    """Non-negative weights aligned to an ordered support; zero elsewhere."""

    support: SupportSet
    weights: np.ndarray
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "dimension", as_index(self.dimension, "dimension", least=0))
        w = as_reals(self.weights, "weights")
        if w.ndim != 1 or w.shape[0] != len(self.support):
            raise InputError("weights must be 1-D and aligned to the support")
        if not np.all(np.isfinite(w)):
            raise InputError("weights contain non-finite entries")
        if np.any(w < 0):
            raise InputError("weights must be non-negative")
        if any(i >= self.dimension for i in self.support):
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

    def positive_support(self) -> SupportSet:
        kept = tuple(j for j, w in zip(self.support, self.weights) if w > 0)
        return SupportSet(kept)


@dataclass(frozen=True)
class SolverConfig:
    kkt_tolerance: float = 1e-8
    max_iterations: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kkt_tolerance", as_real(self.kkt_tolerance, "kkt_tolerance"))
        if self.max_iterations is not None:
            object.__setattr__(self, "max_iterations",
                               as_index(self.max_iterations, "max_iterations", least=1))

    def iteration_cap(self, support_size: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 10 * support_size + 100


def as_solver(cfg) -> SolverConfig:
    """`cfg`, or the default SolverConfig for None; InputError for anything else."""
    if cfg is None:
        return SolverConfig()
    if not isinstance(cfg, SolverConfig):
        raise InputError(f"solver must be a SolverConfig, got {cfg!r}")
    return cfg


def _check_sizes(K: Gram, v: np.ndarray, w: WeightVector | None = None):
    """InputError unless the vector v (a mean map's entries or a gradient) and w fit K."""
    if np.shape(v) != (K.n2,):
        raise InputError(f"vector of shape {np.shape(v)} does not fit a kernel matrix of {K.n2} rows")
    if w is not None and w.dimension != K.n2:
        raise InputError(f"weight vector has dimension {w.dimension}, kernel matrix has {K.n2}")


def objective(w: WeightVector, K: Gram, mu: MeanMap) -> float:
    """Value of w'mu - w'Kw/2 using only the support coordinates."""
    _check_sizes(K, mu.entries, w)
    s = w.support.as_array()
    ws = w.weights
    return float(ws @ mu.entries[s] - 0.5 * ws @ (K.block(s) @ ws))


def gradient(w: WeightVector, K: Gram, mu: MeanMap) -> np.ndarray:
    """Full-length gradient mu - Kw."""
    _check_sizes(K, mu.entries, w)
    return mu.entries - w.weights @ K.rows(w.support.as_array())


def kkt_residual(w: WeightVector, K: Gram, mu: MeanMap, L: SupportSet) -> float:
    """Largest first-order optimality violation of w on the support L.

    Per coordinate j in L this is |grad_j| where w_j > 0 and max(grad_j, 0)
    where w_j = 0; weights are never negative.
    """
    _check_sizes(K, mu.entries, w)
    if not set(w.positive_support()).issubset(set(L)):
        raise InputError("weight support must lie inside L")
    idx = L.as_array()
    return _residual_of(K.block(idx), mu.entries[idx], w.dense()[idx])


def gain_bounds(w: WeightVector, g: np.ndarray, K: Gram) -> np.ndarray:
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
    _check_sizes(K, g, w)
    diag = K.diag()
    s, h, base = diag, g, 0.0
    if len(w.support):
        idx = w.support.as_array()
        try:
            factor = cholesky(K.block(idx), lower=True, check_finite=False)
        except LinAlgError:
            return np.full(K.n2, np.inf)
        if np.any(np.diagonal(factor) ** 2 <= _SQRT_EPS * diag[idx]):
            return np.full(K.n2, np.inf)
        B = solve_triangular(factor, K.rows(idx), lower=True, check_finite=False)
        r = solve_triangular(factor, g[idx], lower=True, check_finite=False)
        s = diag - np.einsum("ij,ij->j", B, B)
        h = g - r @ B
        base = 0.5 * float(r @ r)
    trusted = s > _SQRT_EPS * diag
    bound = np.full(K.n2, np.inf)
    with np.errstate(over="ignore"):  # an overflowing bound stays +inf
        bound[trusted] = base + h[trusted] ** 2 / (2.0 * s[trusted])
    return bound


class _ActiveSetFailure(Exception):
    def __init__(self, weights: np.ndarray, residual: float):
        self.weights = weights
        self.residual = residual


def _subproblem(A: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Unconstrained maximizer restricted to the passive coordinates.

    One or two refinement passes keep the stationarity residual of the
    passive block near roundoff even for ill-conditioned Gram blocks.
    """
    z = np.zeros_like(b)
    if not passive.any():
        return z
    sub = A[np.ix_(passive, passive)]
    rhs = b[passive]
    factor = cho_factor(sub, lower=True, check_finite=False)
    x = cho_solve(factor, rhs, check_finite=False)
    for _ in range(2):
        r = rhs - sub @ x
        if np.max(np.abs(r)) <= 1e-13 * max(1.0, np.max(np.abs(rhs))):
            break
        x = x + cho_solve(factor, r, check_finite=False)
    z[passive] = x
    return z


def _residual_of(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    g = b - A @ w
    per_coord = np.where(w > 0, np.abs(g), np.maximum(g, 0.0))
    return float(per_coord.max()) if per_coord.size else 0.0


def _active_set_max(A: np.ndarray, b: np.ndarray, w0: np.ndarray | None,
                    tol: float, max_iter: int) -> np.ndarray:
    p = b.shape[0]
    if w0 is None or not np.any(w0 > 0):
        w = np.zeros(p)
        passive = np.zeros(p, dtype=bool)
    else:
        w = np.maximum(w0, 0.0)
        passive = w > 0
    iters = 0
    while True:
        # Restore subproblem optimality on the current passive set; this also
        # absorbs warm starts that are feasible but not yet stationary.
        while True:
            try:
                z = _subproblem(A, b, passive)
            except LinAlgError:
                raise _ActiveSetFailure(w, _residual_of(A, b, w)) from None
            negative = passive & (z < 0.0)
            if not negative.any():
                w = z
                break
            iters += 1
            if iters > max_iter:
                raise _ActiveSetFailure(w, _residual_of(A, b, w))
            ratios = np.full(p, np.inf)
            ratios[negative] = w[negative] / (w[negative] - z[negative])
            step = float(ratios.min())
            w = w + min(max(step, 0.0), 1.0) * (z - w)
            w[int(np.argmin(ratios))] = 0.0
            np.maximum(w, 0.0, out=w)
            passive = w > 0
        g = b - A @ w
        masked = np.where(passive, -np.inf, g)
        entering = int(np.argmax(masked))
        if not np.isfinite(masked[entering]) or masked[entering] <= 0.5 * tol:
            return w
        passive[entering] = True
        iters += 1
        if iters > max_iter:
            raise _ActiveSetFailure(w, _residual_of(A, b, w))


def solve_restricted(K: Gram, mu: MeanMap, L: SupportSet,
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
        SolverError: no convergence within the iteration cap; the error
            carries the best iterate and its KKT residual.
    """
    cfg = as_solver(cfg)
    n2 = K.n2
    _check_sizes(K, mu.entries, warm_start)
    if len(L) == 0:
        return WeightVector.zeros(n2)
    idx = L.as_array()
    KL = K.block(idx)
    muL = mu.entries[idx]
    w0 = None
    if warm_start is not None:
        if not set(warm_start.positive_support()).issubset(set(L)):
            raise InputError("warm start support must lie inside L")
        w0 = warm_start.dense()[idx]
    try:
        weights = _active_set_max(KL, muL, w0, cfg.kkt_tolerance, cfg.iteration_cap(len(L)))
    except _ActiveSetFailure as fail:
        best = WeightVector(support=L, weights=np.maximum(fail.weights, 0.0), dimension=n2)
        raise SolverError(
            f"weight solver did not converge on a support of size {len(L)} "
            f"(residual {fail.residual:.3e})",
            best_iterate=best, residual=fail.residual,
        ) from None
    return WeightVector(support=L, weights=weights, dimension=n2)
