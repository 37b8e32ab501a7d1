"""Prototype selectors: gradient-driven, greedy, baselines, and criticisms.

All selectors consume a precomputed Gram matrix and mean map and return a
SelectionResult whose traces record the objective and the selected
coordinate's gradient after each step. Argmax ties always break toward the
lowest index so runs are reproducible.

All five selectors share one loop, `_grow`, which each calls after its own
checks. Each step calls a pick policy,
`pick(grad, weights, f, extend) -> (j, weights, f_new, g_j) | None`, and
records the traces; `grad()` computes the gradient only for a pick that asks.
The picks are ProtoDash's largest gradient; ProtoGreedy's largest realized
gain, which solves only candidates whose gain bound can still beat the step's
best and so picks what exhaustive scoring would; Random-W's and the top-m
re-solve's fixed order; and L2C's best uniform weights, with no solve and no gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, SolverError, as_held, as_index, as_indices, as_instance, as_real
from .kernel import KernelMatrix, MeanMap, _gamma
from .nnqp import (SolverConfig, SupportSet, WeightVector, _block_of, _bounds, _check_sizes,
                   _whitening, as_solver, gradient, objective, solve_restricted)

PROTODASH = "protodash"
PROTOGREEDY = "protogreedy"
L2C_EQUAL = "l2c_equal"
RANDOM_W = "random_w"

# Relative allowance for the roundoff of a gain bound: a Schur complement may have lost up
# to half its digits before `gain_bounds` stops trusting it.
_BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class SelectionConfig:
    """Termination rule and knobs shared by the selectors.

    Exactly one of `m` (sparsity level) and `epsilon` (minimal objective
    increase) must be set. `seed` is only consulted by random_w.
    """

    m: int | None = None
    epsilon: float | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int | None = None

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


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Prototype weights, with traces and timings per step.

    The prototypes are the support of `weights`, in selection order; the
    property `indices` reads that support. Each trace holds one entry per
    prototype.
    """

    method: str
    weights: WeightVector
    objective_trace: np.ndarray
    gradient_trace: np.ndarray
    wall_times: np.ndarray
    early_stopped: bool = False

    def __post_init__(self):
        as_instance(self.weights, WeightVector, "weights")
        for name in ("objective_trace", "gradient_trace", "wall_times"):
            object.__setattr__(self, name, as_held(getattr(self, name), name, (len(self.indices),)))

    @property
    def indices(self) -> SupportSet:
        return self.weights.support

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1]) if len(self.indices) else 0.0


@dataclass(frozen=True, eq=False)
class CriticismResult:
    """Worst-represented non-prototypes, distinct, scores sorted non-increasing."""

    indices: tuple[int, ...]
    scores: np.ndarray

    def __post_init__(self):
        idx = as_indices(self.indices, "criticism indices")
        if len(set(idx)) != len(idx):
            raise InputError("criticism indices must be distinct")
        object.__setattr__(self, "indices", idx)
        scores = as_held(self.scores, "scores", (len(self.indices),))
        if np.any(np.diff(scores) > 0):
            raise InputError("scores must be non-increasing")
        object.__setattr__(self, "scores", scores)


def _check_instance(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig):
    as_instance(mu, MeanMap, "mu")
    as_instance(cfg, SelectionConfig, "cfg")
    _check_sizes(K, mu.entries)
    if cfg.m is not None:
        as_index(cfg.m, "m", most=K.n2)


def _grow(method, K, mu, cfg: SelectionConfig, pick) -> SelectionResult:
    """Grow a support one index per step: the one loop of all five selectors.

    `pick(grad, weights, f, extend)` sees the current weights and their objective f,
    `grad()`, which computes their gradient, and `extend(j)`, which returns
    `(j, weights, objective)` for the support grown by j, solved from a warm start. It
    returns `(j, weights, f_new, g_j)`, g_j the gradient recorded for j, or None to stop
    early. Growth stops at cfg.m indices (all n2 in epsilon mode) or when the objective
    rises by less than cfg.epsilon; a SolverError leaves with the steps done as `partial`.
    State a pick keeps across steps, L2C's sums or ProtoGreedy's whitening, lives in the
    pick's closure, so neither result holds it.
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
        try:
            picked = pick(lambda: gradient(weights, K, mu), weights, f, extend)
        except SolverError as err:
            err.partial = SelectionResult(method, weights, obj, grad, times, early)
            raise
        if picked is None:
            early = True
            break
        _, solved, f_new, g_j = picked
        if cfg.epsilon is not None and f_new - f < cfg.epsilon:
            break
        weights, f = solved, f_new
        obj.append(f)
        grad.append(g_j)
        times.append(time.perf_counter() - start)
    return SelectionResult(method, weights, obj, grad, times, early)


def _largest_gradient(grad, weights, f, extend):
    """ProtoDash: take the candidate with the largest positive gradient."""
    g = grad()  # a fresh array, masked in place
    g.put(weights.support.as_array(), -np.inf)
    j = int(g.argmax())
    return (*extend(j), g[j]) if g[j] > 0.0 else None


def _largest_gain(K: KernelMatrix, mu: MeanMap):
    """ProtoGreedy: take the candidate whose solve gains the most.

    Candidates with a non-positive gradient leave the objective unchanged
    and score zero without a solve. The others are solved in order of
    decreasing gain bound b_j (`nnqp.gain_bounds`) until the next bound,
    widened by a slack for roundoff, falls below the best gain so far: no
    candidate left can then win or tie, so the pick is the one exhaustive
    scoring would make, ties going to the lowest index. Each next candidate
    is the argmax of the bounds not yet visited, the largest first and ties
    to the lowest index, as a stable sort would order them: a step solves
    about one candidate, so it sorts none. Bounds are finite or +inf. They are
    `nnqp.gain_bounds` of the step's weights, read by `nnqp._bounds` from the
    whitening W of their support, which the pick holds from step to step: a
    step's support is the last one's plus its pick, so each step appends one
    row to W (O(|S| n2)), gathers no block and solves no rows through a factor.
    If no candidate gains, the pick j0 has a non-positive gradient and joins at
    weight 0 by `extend(j0)`: a warm solve from the step's weights that skips its
    first pass and returns those weights with 0 appended, bit for bit, and the
    objective trace keeps f.

    The slack is _BOUND_SLACK b_j for the bound's own roundoff, plus a bound
    on the roundoff of a computed gain. Let u be the unit roundoff,
    gamma_k = k u / (1 - k u) and sigma(v) = v'|mu| + v'|K|v for weights
    v >= 0 on k indices. The objective v'mu - v'(Kv)/2 is two dot products
    and a matrix-vector product of k terms each, and one difference, so it is
    computed within gamma_(2k+2) sigma(v) (Higham 2002, §3.1). A gain
    f_j - f, of weights v_j on the s + 1 indices S + j over the s weights w,
    is then computed within gamma_(2s+4) (sigma(w) + sigma(v_j)), plus u of
    itself, which the first term covers, of l(v_j) - l(w) <= b_j. Where K and
    mu are non-negative, as for the gaussian kernel,
    sigma(v) = 4 l(v) - 3 v'(mu - Kv), whose last term the KKT tolerance
    keeps negligible at solved weights, so sigma(v_j) <= sigma(w) + 4 b_j.
    A candidate is thus skipped when
        b_j + _BOUND_SLACK b_j + gamma_(2s+4) (2 sigma(w) + 4 b_j) < best.
    For a linear kernel with negative entries the second term is an
    estimate of the same size, not a proof; the tests compare the picks
    with exhaustive scoring there too.
    A slack of 1e-6 |f| instead would pass every gain below 1e-6 of the
    objective, and stop the pruning once the gains fall that low.
    """
    W = None  # the whitening of the support of the last step's weights

    def pick(grad, weights, f, extend):
        nonlocal W
        g = grad()
        idx, w = weights.support.as_array(), weights.weights
        candidate = np.ones(g.shape[0], dtype=bool)
        candidate[idx] = False
        if np.where(candidate, g, -np.inf).max() <= 0.0:
            return None
        gains = np.full(g.shape[0], -np.inf)
        gains[candidate & (g <= 0.0)] = 0.0
        best = gains.max()
        W = _whitening(weights.support, K, W)
        bounds = _bounds(W, weights, g, K)
        roundoff = _gamma(2 * idx.size + 4)
        sigma = float(w @ np.abs(mu.entries[idx]) + w @ (np.abs(_block_of(weights, K)) @ w))
        left = np.where(candidate & (g > 0.0), bounds, -np.inf)  # the bounds not yet visited
        extensions = {}
        while left[j := int(left.argmax())] > -np.inf:  # the largest left, ties to the lowest j
            if bounds[j] + _BOUND_SLACK * bounds[j] + roundoff * (2 * sigma + 4 * bounds[j]) < best:
                break
            left[j] = -np.inf
            extensions[j] = extend(j)
            gains[j] = extensions[j][2] - f
            best = max(best, gains[j])
        j0 = int(gains.argmax())
        if g[j0] > 0.0:
            return (*extensions[j0], g[j0])
        # inert addition: the optimum is unchanged, the new coordinate stays 0
        return j0, extend(j0)[1], f, g[j0]

    return pick


def _in_order(order):
    """Random-W and top-m re-solve: take the given indices in turn."""
    def pick(grad, weights, f, extend):
        j = int(order[len(weights.support)])
        return (*extend(j), grad()[j])

    return pick


def _uniform(K: KernelMatrix, mu: MeanMap):
    """L2C: take the candidate that scores most at uniform weights, from running sums."""
    diag, mu_entries = K.diag(), mu.entries
    col_sum = np.zeros(K.n2)  # sum of K columns over the selected set
    mu_sum = quad_sum = 0.0  # sums of mu, and of K over all selected pairs

    def pick(grad, weights, f, extend):
        nonlocal mu_sum, quad_sum, col_sum
        t = len(weights.support) + 1
        vals = (mu_sum + mu_entries) / t - (quad_sum + 2.0 * col_sum + diag) / (2.0 * t * t)
        vals[weights.support.as_array()] = -np.inf
        j = int(np.argmax(vals))
        g_j = mu_entries[j] - (col_sum[j] / (t - 1) if t > 1 else 0.0)
        mu_sum += mu_entries[j]
        quad_sum += 2.0 * col_sum[j] + diag[j]
        col_sum += K.rows([j])[0]
        return (j, WeightVector(weights.support.extended(j), np.full(t, 1.0 / t), K.n2),
                float(vals[j]), g_j)

    return pick


def proto_dash(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Select prototypes by repeatedly taking the largest-gradient candidate.

    Each step appends the index maximizing the current gradient of the
    objective, then re-solves the non-negative weights on the grown
    support. Stops at the sparsity level, when the realized objective
    increase falls below epsilon, or early once no remaining gradient is
    positive (further additions cannot change the objective).
    """
    _check_instance(K, mu, cfg)
    return _grow(PROTODASH, K, mu, cfg, _largest_gradient)


def proto_greedy(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Select prototypes by taking the candidate with the largest realized gain.

    Each step appends the index whose restricted weight solve raises the
    objective most, ties toward the lowest index. Candidates whose gradient
    is non-positive leave the objective unchanged and score zero without a
    solve; if one of them wins, it joins at weight 0 by a warm solve that
    returns the step's weights with that 0 appended. The rest are bounded
    first: the unconstrained maximum on the support grown by j bounds any
    non-negative solve there, and the support's whitening, its Gram block's
    Cholesky factor L and B = L^-1 K[S, :], gives that bound for every j at
    once. The selection holds the whitening itself, not in any solve's
    record, and grows it by one row a step, so a step costs O(|S| n2) beside
    its solves; the returned result holds none of it.
    Candidates are solved in order of decreasing bound, and scoring stops
    once no remaining bound can beat the best gain found, so the picks are
    exactly those of solving every candidate. A bound that roundoff could
    have spoiled is infinite and its candidate is always solved.

    The bounds hold within one step only. The objective is weakly, not fully,
    submodular, so a candidate's gain can grow as the support grows and a
    bound from an earlier step proves nothing later (lazy evaluation across
    steps would change the picks). Termination matches proto_dash.
    """
    _check_instance(K, mu, cfg)
    return _grow(PROTOGREEDY, K, mu, cfg, _largest_gain(K, mu))


def l2c_equal(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Greedy baseline with fixed uniform weights instead of learned ones.

    Every selected index carries weight 1/|L|; each step adds the candidate
    maximizing the objective at the uniform weight vector. Only
    m-termination is supported.
    """
    _check_instance(K, mu, cfg)
    if cfg.m is None:
        raise InputError("uniform-weight baseline supports m-termination only")
    return _grow(L2C_EQUAL, K, mu, cfg, _uniform(K, mu))


def random_w(K: KernelMatrix, mu: MeanMap, cfg: SelectionConfig) -> SelectionResult:
    """Uniformly sample m distinct prototypes, then learn their weights."""
    _check_instance(K, mu, cfg)
    if cfg.m is None:
        raise InputError("random_w supports m-termination only")
    if cfg.seed is None:
        raise InputError("random_w needs a seed")
    rng = np.random.default_rng(cfg.seed)
    order = rng.choice(K.n2, size=cfg.m, replace=False)
    return _grow(RANDOM_W, K, mu, cfg, _in_order(order))


def top_m_by_weight(result: SelectionResult, m: int, K: KernelMatrix, mu: MeanMap,
                    solver: SolverConfig | None = None) -> SelectionResult:
    """Keep the m largest-weight prototypes and re-solve on the kept support.

    Ties break toward the earlier-selected index. The kept indices retain
    their selection order and the objective trace is recomputed over the
    kept prefixes.

    Oversampling by a factor f is this after a larger selection:
        full = select(K, mu, SelectionConfig(m=min(f * m, K.n2), solver=solver))
        full if len(full.indices) <= m else top_m_by_weight(full, m, K, mu, solver)
    """
    as_instance(result, SelectionResult, "result")
    as_instance(mu, MeanMap, "mu")
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
    g = gradient(as_instance(result, SelectionResult, "result").weights, K, mu)
    n2 = K.n2
    c = as_index(c, "c", least=1, most=n2 - len(result.indices))
    mask = np.ones(n2, dtype=bool)
    mask[list(result.indices)] = False
    pool = np.flatnonzero(mask)
    scores = np.abs(g[pool])
    order = np.argsort(-scores, kind="stable")[:c]
    return CriticismResult(
        indices=tuple(int(pool[i]) for i in order),
        scores=scores[order],
    )
