"""Prototype selectors: gradient-driven, greedy, baselines, and criticisms.

All selectors consume a precomputed Gram matrix and mean map and return a
SelectionResult whose traces record the objective and the selected
coordinate's gradient after each step. Argmax ties always break toward the
lowest index so runs are reproducible.

ProtoDash, ProtoGreedy, Random-W and the top-m re-solve share one loop,
`_grow`: each step reads the gradient, lets a pick policy choose the next
index and solve the grown support, and records the traces. The policies
are largest gradient, largest realized gain, and a fixed order. The
largest-gain policy solves only the candidates whose gain bound can still
beat the best gain of the step, so it picks what exhaustive scoring would
at a fraction of the solves. The uniform-weight L2C baseline solves
nothing and keeps its own loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, SolverError, as_index, as_indices, as_real, as_reals
from .kernel import KernelMatrix, MeanMap
from .nnqp import (SolverConfig, SupportSet, WeightVector, _check_sizes, as_solver, gain_bounds,
                   gradient, objective, solve_restricted)

PROTODASH = "protodash"
PROTOGREEDY = "protogreedy"
L2C_EQUAL = "l2c_equal"
RANDOM_W = "random_w"

# Relative roundoff allowance when a gain bound is compared with a realized gain.
_BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class SelectionConfig:
    """Termination rule and knobs shared by the selectors.

    Exactly one of `m` (sparsity level) and `epsilon` (minimal objective
    increase) must be set. `seed` is only consulted by random_w;
    `oversample_factor` > 1 selects factor*m prototypes and keeps the m of
    largest weight, which requires m-termination and a weight-learning
    method.
    """

    m: int | None = None
    epsilon: float | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int | None = None
    oversample_factor: int = 1

    def __post_init__(self):
        if (self.m is None) == (self.epsilon is None):
            raise InputError("set exactly one of m and epsilon")
        object.__setattr__(self, "solver", as_solver(self.solver))
        if self.m is not None:
            object.__setattr__(self, "m", as_index(self.m, "m", least=0))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", as_real(self.epsilon, "epsilon"))
        if self.seed is not None:
            object.__setattr__(self, "seed", as_index(self.seed, "seed", least=0))
        object.__setattr__(self, "oversample_factor",
                           as_index(self.oversample_factor, "oversample_factor", least=1))
        if self.oversample_factor > 1 and self.m is None:
            raise InputError("oversampling requires m-termination")


@dataclass(frozen=True)
class SelectionResult:
    """Ordered prototype indices with weights, traces, and per-step timings."""

    method: str
    indices: SupportSet
    weights: WeightVector
    objective_trace: np.ndarray
    gradient_trace: np.ndarray
    wall_times: np.ndarray
    early_stopped: bool = False

    def __post_init__(self):
        if not isinstance(self.weights, WeightVector) or self.indices != self.weights.support:
            raise InputError("weights must be a WeightVector whose support is indices, in order")
        t = len(self.indices)
        for name in ("objective_trace", "gradient_trace", "wall_times"):
            arr = as_reals(getattr(self, name), name)
            if arr.shape != (t,):
                raise InputError(f"{name} must have one entry per selected index")
            object.__setattr__(self, name, arr)

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1]) if len(self.indices) else 0.0


@dataclass(frozen=True)
class CriticismResult:
    """Worst-represented non-prototypes, scores sorted non-increasing."""

    indices: tuple[int, ...]
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", as_indices(self.indices, "criticism indices"))
        scores = as_reals(self.scores, "scores")
        if scores.shape != (len(self.indices),):
            raise InputError("scores must align with indices")
        if np.any(np.diff(scores) > 0):
            raise InputError("scores must be non-increasing")
        object.__setattr__(self, "scores", scores)


def _check_instance(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig):
    if mu.n2 != K.n2:
        raise InputError("kernel matrix and mean map sizes disagree")
    if cfg.m is not None:
        as_index(cfg.m, "m", most=K.n2)


def _result(method, weights, obj, grad, times, early) -> SelectionResult:
    return SelectionResult(method, weights.support, weights, obj, grad, times, early)


def _grow(method, K, mu, cfg: SelectionConfig, pick) -> SelectionResult:
    """Grow a support one index per step, re-solving the weights each time.

    `pick(g, weights, f, extend)` sees the gradient g at the current weights
    and their objective f; `extend(j)` solves the support grown by j from a
    warm start. It returns `(j, weights, objective)` for the grown support,
    or None to stop early. Growth stops at cfg.m indices (all n2 in epsilon
    mode) or when the objective rises by less than cfg.epsilon. A
    SolverError leaves with the steps completed so far as `partial`.
    """
    target = cfg.m if cfg.m is not None else K.n2
    weights, f = WeightVector.zeros(K.n2), 0.0
    obj, grad, times = [], [], []
    early = False

    def extend(j: int):
        solved = solve_restricted(K, mu, weights.support.extended(j), cfg.solver,
                                  warm_start=weights)
        return j, solved, objective(solved, K, mu)

    while len(weights.support) < target:
        start = time.perf_counter()
        g = gradient(weights, K, mu)
        try:
            picked = pick(g, weights, f, extend)
        except SolverError as err:
            err.partial = _result(method, weights, obj, grad, times, early)
            raise
        if picked is None:
            early = True
            break
        j, solved, f_new = picked
        if cfg.epsilon is not None and f_new - f < cfg.epsilon:
            break
        weights, f = solved, f_new
        obj.append(f)
        grad.append(g[j])
        times.append(time.perf_counter() - start)
    return _result(method, weights, obj, grad, times, early)


def _largest_gradient(g, weights, f, extend):
    """ProtoDash: take the candidate with the largest positive gradient."""
    masked = g.copy()
    masked[weights.support.as_array()] = -np.inf
    j = int(np.argmax(masked))
    return extend(j) if masked[j] > 0.0 else None


def _largest_gain(K: KernelMatrix):
    """ProtoGreedy: take the candidate whose solve gains the most.

    Candidates with a non-positive gradient leave the objective unchanged
    and score zero without a solve. The others are solved in order of
    decreasing gain bound (`nnqp.gain_bounds`) until the next bound, widened
    by `_BOUND_SLACK` for roundoff, falls below the best gain so far: no
    candidate left can then win or tie, so the pick is the one exhaustive
    scoring would make, ties going to the lowest index.
    """
    def pick(g, weights, f, extend):
        candidate = np.ones(g.shape[0], dtype=bool)
        candidate[weights.support.as_array()] = False
        if np.where(candidate, g, -np.inf).max() <= 0.0:
            return None
        gains = np.full(g.shape[0], -np.inf)
        gains[candidate & (g <= 0.0)] = 0.0
        best = gains.max()
        bounds = gain_bounds(weights, g, K)
        positive = np.flatnonzero(candidate & (g > 0.0))
        extensions = {}
        for j in positive[np.argsort(-bounds[positive], kind="stable")]:
            if bounds[j] + _BOUND_SLACK * (bounds[j] + abs(f)) < best:
                break
            extensions[j] = extend(int(j))
            gains[j] = extensions[j][2] - f
            best = max(best, gains[j])
        j0 = int(np.argmax(gains))
        if g[j0] > 0.0:
            return extensions[j0]
        # inert addition: the optimum is unchanged, the new coordinate stays 0
        return j0, WeightVector(weights.support.extended(j0), np.append(weights.weights, 0.0),
                                weights.dimension), f

    return pick


def _in_order(order):
    """Random-W and top-m re-solve: take the given indices in turn."""
    return lambda g, weights, f, extend: extend(int(order[len(weights.support)]))


def _grown_config(cfg: SelectionConfig, n2: int) -> SelectionConfig:
    """The config actually grown: oversampling widens m to factor * m, capped at n2."""
    if cfg.oversample_factor == 1:
        return cfg
    return replace(cfg, m=min(cfg.m * cfg.oversample_factor, n2), oversample_factor=1)


def _with_oversampling(method, K, mu, cfg: SelectionConfig, pick) -> SelectionResult:
    _check_instance(K, mu, cfg)
    full = _grow(method, K, mu, _grown_config(cfg, K.n2), pick)
    if cfg.m is None or len(full.indices) <= cfg.m:
        return full
    return top_m_by_weight(full, cfg.m, K, mu, cfg.solver)


def proto_dash(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Select prototypes by repeatedly taking the largest-gradient candidate.

    Each step appends the index maximizing the current gradient of the
    objective, then re-solves the non-negative weights on the grown
    support. Stops at the sparsity level, when the realized objective
    increase falls below epsilon, or early once no remaining gradient is
    positive (further additions cannot change the objective).
    """
    return _with_oversampling(PROTODASH, K, mu, cfg, _largest_gradient)


def proto_greedy(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Select prototypes by taking the candidate with the largest realized gain.

    Each step appends the index whose restricted weight solve raises the
    objective most, ties toward the lowest index. Candidates whose gradient
    is non-positive leave the objective unchanged and score zero without a
    solve. The rest are bounded first: the unconstrained maximum on the
    support grown by j bounds any non-negative solve there, and one Cholesky
    factor of the support's Gram block gives that bound for every j at once.
    Candidates are solved in order of decreasing bound, and scoring stops
    once no remaining bound can beat the best gain found, so the picks are
    exactly those of solving every candidate. A bound that roundoff could
    have spoiled is infinite and its candidate is always solved.

    The bounds hold within one step only. The objective is weakly, not fully,
    submodular, so a candidate's gain can grow as the support grows and a
    bound from an earlier step proves nothing later (lazy evaluation across
    steps would change the picks). Termination matches proto_dash.
    """
    return _with_oversampling(PROTOGREEDY, K, mu, cfg, _largest_gain(K))


def l2c_equal(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Greedy baseline with fixed uniform weights instead of learned ones.

    Every selected index carries weight 1/|L|; each step adds the candidate
    maximizing the objective at the uniform weight vector. Only
    m-termination is supported.
    """
    _check_instance(K, mu, cfg)
    if cfg.m is None:
        raise InputError("uniform-weight baseline supports m-termination only")
    if cfg.oversample_factor != 1:
        raise InputError("oversampling is meaningless with uniform weights")
    n2 = K.n2
    diag, mu_entries = K.diag(), mu.entries
    sel: list[int] = []
    obj, grad, times = [], [], []
    col_sum = np.zeros(n2)  # sum of K columns over the selected set
    mu_sum = 0.0
    quad_sum = 0.0  # sum of K over all selected pairs
    for step in range(cfg.m):
        start = time.perf_counter()
        t = step + 1
        vals = (mu_sum + mu_entries) / t - (
            quad_sum + 2.0 * col_sum + diag
        ) / (2.0 * t * t)
        vals[sel] = -np.inf
        j0 = int(np.argmax(vals))
        grad.append(mu_entries[j0] - (col_sum[j0] / step if step else 0.0))
        sel.append(j0)
        mu_sum += mu_entries[j0]
        quad_sum += 2.0 * col_sum[j0] + diag[j0]
        col_sum += K.rows([j0])[0]
        obj.append(float(vals[j0]))
        times.append(time.perf_counter() - start)
    m = len(sel)
    weights = WeightVector(SupportSet(tuple(sel)), np.full(m, 1.0 / m) if m else np.zeros(0), n2)
    return _result(L2C_EQUAL, weights, obj, grad, times, early=False)


def random_w(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Uniformly sample m distinct prototypes, then learn their weights."""
    if cfg.m is None:
        raise InputError("random_w supports m-termination only")
    if cfg.seed is None:
        raise InputError("random_w needs a seed")
    _check_instance(K, mu, cfg)
    rng = np.random.default_rng(cfg.seed)
    order = rng.choice(K.n2, size=_grown_config(cfg, K.n2).m, replace=False)
    return _with_oversampling(RANDOM_W, K, mu, cfg, _in_order(order))


def top_m_by_weight(result: SelectionResult, m: int, K: KernelMatrix, mu: MeanMap,
                    solver: SolverConfig | None = None) -> SelectionResult:
    """Keep the m largest-weight prototypes and re-solve on the kept support.

    Ties break toward the earlier-selected index. The kept indices retain
    their selection order and the objective trace is recomputed over the
    kept prefixes.
    """
    _check_sizes(K, mu.entries, result.weights)
    t = len(result.indices)
    m = as_index(m, "m", least=0, most=t)
    order = sorted(range(t), key=lambda p: (-result.weights.weights[p], p))[:m]
    kept = [result.indices.indices[p] for p in sorted(order)]
    cfg = SelectionConfig(m=m, solver=solver)
    res = _grow(result.method, K, mu, cfg, _in_order(kept))
    return replace(res, early_stopped=result.early_stopped)


def criticisms(result: SelectionResult, K: KernelMatrix, mu: MeanMap,
               c: int) -> CriticismResult:
    """Rank non-prototypes by witness deviation |mu_j - K_j.w|.

    The deviation is the gradient magnitude of the objective at the final
    weights; large values mark points the weighted prototypes represent
    poorly. Returns the c largest, descending, ties toward the lower index.
    """
    n2 = K.n2
    c = as_index(c, "c", least=1, most=n2 - len(result.indices))
    g = gradient(result.weights, K, mu)
    mask = np.ones(n2, dtype=bool)
    mask[list(result.indices)] = False
    pool = np.flatnonzero(mask)
    scores = np.abs(g[pool])
    order = np.argsort(-scores, kind="stable")[:c]
    return CriticismResult(
        indices=tuple(int(pool[i]) for i in order),
        scores=scores[order],
    )
