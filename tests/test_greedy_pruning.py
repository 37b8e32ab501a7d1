"""ProtoGreedy's gain-bound pruning: same selections as exhaustive scoring, far fewer solves."""

import numpy as np
import pytest

from protoselect import (
    Dataset,
    KernelSpec,
    SolverError,
    SupportSet,
    WeightVector,
    gradient,
    kernel_matrix,
    mean_map,
    median_bandwidth,
    objective,
    solve_restricted,
)
from protoselect import selectors
from protoselect.nnqp import gain_bounds
from protoselect.selectors import SelectionConfig, SelectionResult, proto_greedy, top_m_by_weight
from helpers import entries_of, gaussian_instance, synthetic_instance


def exhaustive_greedy(K, mu, cfg):
    """Reference ProtoGreedy: solve every positive-gradient candidate at every step.

    Ties go to the lowest index; a non-positive-gradient candidate scores zero
    and, if it wins, joins with weight 0. Oversampling grows factor * m
    indices and keeps the m of largest weight through top_m_by_weight.
    """
    n2 = K.n2
    target = n2 if cfg.m is None else min(cfg.m * cfg.oversample_factor, n2)
    weights, f = WeightVector.zeros(n2), 0.0
    obj, grad, early = [], [], False

    def result():
        return SelectionResult("protogreedy", weights, obj, grad, np.zeros(len(obj)), early)

    while len(weights.support) < target:
        g = gradient(weights, K, mu)
        free = [j for j in range(n2) if j not in weights.support]
        if max(g[free]) <= 0.0:
            early = True
            break
        best = None
        for j in free:
            if g[j] > 0.0:
                try:
                    solved = solve_restricted(K, mu, weights.support.extended(j), cfg.solver,
                                              warm_start=weights)
                except SolverError as err:
                    err.partial = result()
                    raise
                f_new = objective(solved, K, mu)
            else:
                solved = WeightVector(weights.support.extended(j),
                                      np.append(weights.weights, 0.0), n2)
                f_new = f
            # compare gains, as the selector does: f_new - f can tie where f_new does not
            if best is None or f_new - f > best[0] - f:
                best = (f_new, j, solved)
        f_new, j, solved = best
        if cfg.epsilon is not None and f_new - f < cfg.epsilon:
            break
        weights, f = solved, f_new
        obj.append(f)
        grad.append(g[j])
    res = result()
    if cfg.m is not None and len(res.indices) > cfg.m:
        return top_m_by_weight(res, cfg.m, K, mu, cfg.solver)
    return res


def awkward_instance(seed):
    """Seeded instance; the seed picks duplicate rows, jitter 0, a linear kernel or an
    indefinite matrix (whose solves fail), and a feature scale in [1e-2, 1e2]."""
    rng = np.random.default_rng(seed)
    n2 = int(rng.integers(4, 25))
    if seed % 17 == 0:
        A = rng.standard_normal((n2, n2))
        return synthetic_instance((A + A.T) / 2 + 2.0 * np.eye(n2), rng.uniform(-0.5, 1.0, n2))
    d = int(rng.integers(1, 5))
    scale = 10.0 ** rng.uniform(-2, 2)
    X = rng.standard_normal((n2, d)) * scale
    if seed % 3 == 0:
        k = max(1, n2 // 4)
        X[rng.choice(n2, k, replace=False)] = X[rng.choice(n2, k)]
    T = rng.standard_normal((int(rng.integers(2, 20)), d)) * scale + 0.3 * scale
    jitter = 0.0 if seed % 4 == 0 else 1e-10
    if seed % 5 == 0:
        spec = KernelSpec("linear", jitter=jitter)
    else:
        spec = KernelSpec("gaussian", bandwidth=scale * float(rng.uniform(0.3, 3.0)) * np.sqrt(d),
                          jitter=jitter)
    source = Dataset(X)
    return kernel_matrix(source, spec), mean_map(Dataset(T), source, spec)


def _config(seed, K, mu):
    m = min(K.n2, 1 + seed % 7)
    if seed % 3 == 1:
        return SelectionConfig(epsilon=10.0 ** -(3 + seed % 5) * float(mu.entries.max() ** 2))
    if seed % 3 == 2 and 2 * m <= K.n2:
        return SelectionConfig(m=m, oversample_factor=2)
    return SelectionConfig(m=m)


def _outcome(select, K, mu, cfg):
    try:
        res = select(K, mu, cfg)
    except SolverError as err:
        part = err.partial
        return ("error", str(err), part.indices.indices, part.weights.weights.tobytes(),
                part.objective_trace.tobytes())
    return (res.indices.indices, res.weights.weights.tobytes(), res.objective_trace.tobytes(),
            res.gradient_trace.tobytes(), res.early_stopped)


def test_pruned_greedy_matches_exhaustive_scoring():
    seen = {"errors": 0, "early": 0, "epsilon": 0, "oversampled": 0}
    for seed in range(240):
        K, mu = awkward_instance(seed)
        if not np.any(mu.entries > 0):
            continue
        cfg = _config(seed, K, mu)
        pruned = _outcome(proto_greedy, K, mu, cfg)
        assert pruned == _outcome(exhaustive_greedy, K, mu, cfg), f"seed {seed}"
        seen["errors"] += pruned[0] == "error"
        seen["early"] += pruned[-1] is True
        seen["epsilon"] += cfg.epsilon is not None
        seen["oversampled"] += cfg.oversample_factor > 1
    assert min(seen.values()) >= 5, seen


def test_greedy_solves_few_candidates(monkeypatch):
    # exhaustive scoring would make about m * n2 = 2400 solves here
    rng = np.random.default_rng(2017)
    source = Dataset(rng.standard_normal((300, 10)))
    target = Dataset(rng.standard_normal((200, 10)) + 0.3)
    spec = KernelSpec("gaussian", bandwidth=np.sqrt(10.0))
    K, mu = kernel_matrix(source, spec), mean_map(target, source, spec)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_restricted(*args, **kwargs)

    monkeypatch.setattr(selectors, "solve_restricted", counted)
    res = proto_greedy(K, mu, SelectionConfig(m=8))
    assert len(res.indices) == 8
    assert len(calls) < K.n2
    assert len(calls) <= 3 * 8


def test_greedy_prunes_at_every_support_size(monkeypatch):
    # Late in this run the gains fall below 1e-6 of the objective, and step-backs leave
    # support weights at zero with a negative gradient. A slack of 1e-6 |f|, or a bound
    # that adds those zero weights' gradients, solved 42 to 53 candidates a step.
    rng = np.random.default_rng(7)
    source = Dataset(rng.standard_normal((400, 5)))
    target = Dataset(rng.standard_normal((400, 5)) + 0.3)
    spec = KernelSpec("gaussian", bandwidth=median_bandwidth(source))
    K, mu = kernel_matrix(source, spec), mean_map(target, source, spec)
    cfg = SelectionConfig(m=100)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_restricted(*args, **kwargs)

    monkeypatch.setattr(selectors, "solve_restricted", counted)
    pruned = _outcome(proto_greedy, K, mu, cfg)
    assert len(calls) <= 4 * cfg.m
    monkeypatch.setattr(selectors, "gain_bounds", lambda w, g, K: np.full(K.n2, np.inf))
    assert pruned == _outcome(proto_greedy, K, mu, cfg)  # every positive candidate solved


class TestGainBounds:
    def test_bound_is_unconstrained_gain_and_covers_solved_gain(self, rng):
        # the bound holds at any non-negative weights on S, not just at the optimum
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=12, sigma=0.8)
            S = rng.choice(12, size=4, replace=False)
            values = rng.uniform(0.0, 0.3, 4) * (rng.random(4) < 0.7)
            w = WeightVector(SupportSet(tuple(S)), values, 12)
            f = objective(w, K, mu)
            bounds = gain_bounds(w, gradient(w, K, mu), K)
            for j in set(range(12)) - set(S.tolist()):
                T = np.append(S, j)
                unconstrained = np.linalg.solve(entries_of(K)[np.ix_(T, T)], mu.entries[T])
                expected = 0.5 * mu.entries[T] @ unconstrained - f
                assert bounds[j] == pytest.approx(expected, rel=1e-6, abs=1e-12)
                solved = solve_restricted(K, mu, SupportSet(tuple(T)), warm_start=w)
                assert objective(solved, K, mu) - f <= bounds[j] + 1e-12

    def test_zero_weights_bound_by_weak_duality(self, rng):
        # A zero weight whose gradient is negative is held at zero by its multiplier
        # lambda = max(-g, 0): the bound is how far the unconstrained maximum of l + lambda'v
        # on S + j lies above l(w), and it still covers every solved gain.
        held = 0
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=12, sigma=0.8)
            S = rng.choice(12, size=4, replace=False)
            values = rng.uniform(1.0, 2.0, 4) * (np.arange(4) % 2)  # too heavy: g < 0 on S
            w = WeightVector(SupportSet(tuple(S)), values, 12)
            f, g = objective(w, K, mu), gradient(w, K, mu)
            lam = np.where(values > 0.0, 0.0, np.maximum(-g[S], 0.0))
            held += bool(np.any(lam > 0.0))
            bounds = gain_bounds(w, g, K)
            for j in set(range(12)) - set(S.tolist()):
                T = np.append(S, j)
                shifted = mu.entries[T] + np.append(lam, 0.0)
                dual = 0.5 * shifted @ np.linalg.solve(entries_of(K)[np.ix_(T, T)], shifted) - f
                assert bounds[j] == pytest.approx(dual, rel=1e-6, abs=1e-12)
                solved = solve_restricted(K, mu, SupportSet(tuple(T)), warm_start=w)
                assert objective(solved, K, mu) - f <= bounds[j] + 1e-12
        assert held >= 5

    def test_empty_support_bound_is_single_coordinate_gain(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=7)
        g = mu.entries.copy()
        bounds = gain_bounds(WeightVector.zeros(7), g, K)
        np.testing.assert_allclose(bounds, g ** 2 / (2.0 * np.diagonal(entries_of(K))))

    def test_untrusted_bounds_are_infinite(self):
        # rows 0 and 1 are duplicates under a 1e-10 jitter: the Schur complement
        # of 1 given 0 is about 2e-10, all cancellation
        K, mu = synthetic_instance([[1.0 + 1e-10, 1.0, 0.2], [1.0, 1.0 + 1e-10, 0.2],
                                    [0.2, 0.2, 1.0]], [0.6, 0.6, 0.3])
        w = WeightVector(SupportSet((0,)), np.array([0.6]), 3)
        bounds = gain_bounds(w, gradient(w, K, mu), K)
        assert bounds[1] == np.inf and np.isfinite(bounds[2])
        # a support holding both has a pivot of the same size: nothing is trusted
        w = WeightVector(SupportSet((0, 1)), np.array([0.3, 0.3]), 3)
        assert np.all(gain_bounds(w, gradient(w, K, mu), K) == np.inf)
        # a support that does not factor at all
        K, mu = synthetic_instance([[1.0, 2.0, 0.2], [2.0, 1.0, 0.2], [0.2, 0.2, 1.0]],
                                   [0.6, 0.6, 0.3])
        assert np.all(gain_bounds(w, gradient(w, K, mu), K) == np.inf)
