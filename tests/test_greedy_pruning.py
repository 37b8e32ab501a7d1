"""ProtoGreedy's gain-bound pruning: same selections as exhaustive scoring, far fewer solves."""

import gc
import weakref
from types import SimpleNamespace

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
    objective,
    solve_restricted,
)
from protoselect import kernel, nnqp, selectors
from protoselect.nnqp import gain_bounds
from protoselect.selectors import SelectionConfig, SelectionResult, proto_greedy
from helpers import (entries_of, gaussian_instance, late_gains_instance, oversampled,
                     synthetic_instance)


def exhaustive_greedy(K, mu, cfg):
    """Reference ProtoGreedy: solve every positive-gradient candidate at every step.

    Ties go to the lowest index; a non-positive-gradient candidate scores zero
    and, if it wins, joins with weight 0.
    """
    n2 = K.n2
    target = n2 if cfg.m is None else cfg.m
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
    return result()


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
    """The seed's config, and the factor by which it oversamples."""
    m = min(K.n2, 1 + seed % 7)
    if seed % 3 == 1:
        return SelectionConfig(epsilon=10.0 ** -(3 + seed % 5) * float(mu.entries.max() ** 2)), 1
    if seed % 3 == 2 and 2 * m <= K.n2:
        return SelectionConfig(m=m), 2
    return SelectionConfig(m=m), 1


def _outcome(select, K, mu, cfg, factor=1):
    try:
        res = select(K, mu, cfg) if factor == 1 else oversampled(select, K, mu, cfg.m, factor)
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
        cfg, factor = _config(seed, K, mu)
        pruned = _outcome(proto_greedy, K, mu, cfg, factor)
        assert pruned == _outcome(exhaustive_greedy, K, mu, cfg, factor), f"seed {seed}"
        seen["errors"] += pruned[0] == "error"
        seen["early"] += pruned[-1] is True
        seen["epsilon"] += cfg.epsilon is not None
        seen["oversampled"] += factor > 1
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


@pytest.mark.parametrize("support", [(), (3,)], ids=["empty", "one"])
def test_candidates_are_visited_in_the_stable_order_of_their_bounds(monkeypatch, support):
    # Crafted bounds that tie, at finite values and at +inf: each next candidate is the
    # argmax of the bounds left, which must visit the positive-gradient candidates in the
    # order of a stable sort by decreasing bound, and stop where that order is pruned.
    K, mu = gaussian_instance(np.random.default_rng(7), n1=10, n2=12, d=2)
    weights = solve_restricted(K, mu, SupportSet(support))
    f, g = objective(weights, K, mu), gradient(weights, K, mu)
    bounds = np.array([0.5, np.inf, 0.5, 0.0, 0.2, 0.5, np.inf, 0.2, 0.9, 0.5, 0.0, 0.2])
    monkeypatch.setattr(selectors, "_bounds", lambda W, w, g, K: bounds.copy())
    positive = [j for j in np.flatnonzero(g > 0.0) if j not in support]
    order = [positive[i] for i in np.argsort(-bounds[positive], kind="stable")]
    for gain, visits in ((0.0, len(order)), (0.6, sum(bounds[order] >= 0.6))):
        visited = []

        def extend(j):  # the first candidate gains `gain`, the rest nothing
            visited.append(j)
            return j, weights, f + (gain if len(visited) == 1 else 0.0)

        selectors._largest_gain(K, mu)(lambda: g.copy(), weights, f, extend)
        assert len(order) >= 8 and visits >= 3
        assert visited == order[:visits]


def test_greedy_prunes_at_every_support_size(monkeypatch):
    # A slack of 1e-6 |f|, or a bound that adds the zero weights' gradients, solved 42 to
    # 53 candidates a step here.
    K, mu = late_gains_instance()
    cfg = SelectionConfig(m=100)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_restricted(*args, **kwargs)

    monkeypatch.setattr(selectors, "solve_restricted", counted)
    pruned = _outcome(proto_greedy, K, mu, cfg)
    assert len(calls) <= 4 * cfg.m
    monkeypatch.setattr(selectors, "_bounds", lambda W, w, g, K: np.full(K.n2, np.inf))
    assert pruned == _outcome(proto_greedy, K, mu, cfg)  # every positive candidate solved


def test_solved_gains_stay_within_their_bounds_where_the_support_holds_a_zero_weight(
        monkeypatch):
    # There the bound is weak duality's, not the unconstrained maximum: no candidate that
    # _largest_gain solves may gain more than its bound plus the slack with which it prunes.
    K, mu = late_gains_instance()
    steps = []  # (weights, bounds, weights solved in the step)

    def bounds_of(W, w, g, K):
        steps.append((w, nnqp._bounds(W, w, g, K), []))
        return steps[-1][1]

    def solved(K, mu, L, cfg, warm_start=None):
        steps[-1][2].append(solve_restricted(K, mu, L, cfg, warm_start=warm_start))
        return steps[-1][2][-1]

    monkeypatch.setattr(selectors, "_bounds", bounds_of)
    monkeypatch.setattr(selectors, "solve_restricted", solved)
    proto_greedy(K, mu, SelectionConfig(m=100))
    zero_steps = checked = 0
    for w, bounds, solves in steps:
        if np.all(w.weights > 0.0):
            continue
        idx, v = w.support.as_array(), w.weights
        f = objective(w, K, mu)
        sigma = v @ np.abs(mu.entries[idx]) + v @ (np.abs(K.block(idx)) @ v)
        roundoff = kernel._gamma(2 * idx.size + 4)
        zero_steps += 1
        for grown in solves:
            b = bounds[grown.support.indices[-1]]
            slack = selectors._BOUND_SLACK * b + roundoff * (2 * sigma + 4 * b)
            assert objective(grown, K, mu) - f <= b + slack
            checked += bool(np.isfinite(b))
    assert zero_steps >= 50 and checked >= 150, (zero_steps, checked)


@pytest.mark.parametrize("d1, ulps", [(1.2, 1), (1.4, 0)])
def test_a_near_tie_within_roundoff_is_solved_not_pruned(d1, ulps):
    # Two candidates whose exact gains mu_j^2 / (2 d_j) agree to within an ulp or two: the
    # computed bounds order them one way and the computed gains the other. Pruning the
    # second on its bound alone, without the slack, picks the first.
    mu0 = 0.9
    mu1 = mu0 * np.sqrt(d1 / 1.2)
    K, mu = synthetic_instance(np.diag([1.2, d1]), [mu0, mu1 + ulps * np.spacing(mu1)])
    cfg = SelectionConfig(m=1)
    assert _outcome(proto_greedy, K, mu, cfg) == _outcome(exhaustive_greedy, K, mu, cfg)


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


def _plain(w):
    return WeightVector(w.support, w.weights, w.dimension)


def _held_whitening_instances():
    """name -> (K, mu, m): zero weights on the support, a linear Gram whose Schur
    complements run out past its rank, and twice-repeated rows whose pivots go untrusted."""
    rng = np.random.default_rng(5)
    linear = KernelSpec("linear", jitter=1e-10)
    source = Dataset(rng.normal(size=(60, 6)))
    repeated = Dataset(np.repeat(rng.normal(size=(12, 2)), 2, axis=0))
    gaussian = KernelSpec("gaussian", bandwidth=1.0)
    return {
        "late_gains": (*late_gains_instance(), 100),
        "linear": (kernel_matrix(source, linear),
                   mean_map(Dataset(rng.normal(size=(50, 6)) + 0.5), source, linear), 10),
        "repeated_rows": (kernel_matrix(repeated, gaussian),
                          mean_map(Dataset(rng.normal(size=(20, 2))), repeated, gaussian), 16),
    }


class TestHeldWhitening:
    """The whitening ProtoGreedy's pick holds from step to step and grows by one row a step."""

    @pytest.mark.parametrize("name", list(_held_whitening_instances()))
    def test_bounds_along_greedy_steps_equal_those_of_plain_copies(self, monkeypatch, name):
        K, mu, m = _held_whitening_instances()[name]
        held = []  # rows of the whitening the pick held before each step grew it
        steps = []  # (support size, rows held before the step, zero weight, all +inf)

        def grown(S, K, W=None):
            held.append(None if W is None else W.size)
            return nnqp._whitening(S, K, W)

        def compared(W, w, g, K):
            bounds = nnqp._bounds(W, w, g, K)
            assert gain_bounds(_plain(w), g, K).tobytes() == bounds.tobytes()
            assert W.size == len(w.support)
            steps.append((len(w.support), held[-1], bool(np.any(w.weights == 0.0)),
                          bool(np.all(bounds == np.inf))))
            return bounds

        monkeypatch.setattr(selectors, "_whitening", grown)
        monkeypatch.setattr(selectors, "_bounds", compared)
        assert len(proto_greedy(K, mu, SelectionConfig(m=m)).indices) == m
        # the first step built the whitening from the empty support, and every later step
        # grew the last step's by one, additions at weight 0 included
        assert [s[1] for s in steps] == [None] + [s[0] - 1 for s in steps[1:]]
        if name == "late_gains":
            assert sum(s[2] for s in steps) >= 50
        else:  # past the rank, or with both copies of a row held, a pivot is untrusted
            assert 2 <= sum(s[3] for s in steps) < m - 2

    def test_an_addition_at_weight_0_keeps_the_whitening(self, monkeypatch):
        # Past the linear Gram's rank ProtoGreedy adds indices at weight 0. The pick's
        # whitening grows across them too, so every step's bounds append exactly one row.
        K, mu, m = _held_whitening_instances()["linear"]
        appended, whiten = [], nnqp._whiten
        monkeypatch.setattr(nnqp, "_whiten", lambda W, j, K: appended.append(j) or whiten(W, j, K))
        steps = []

        def counted(W, w, g, K):
            steps.append((len(w.support), len(appended), bool(np.any(w.weights == 0.0))))
            del appended[:]
            return nnqp._bounds(W, w, g, K)

        monkeypatch.setattr(selectors, "_bounds", counted)
        proto_greedy(K, mu, SelectionConfig(m=m))
        assert [appends for _, appends, _ in steps] == [min(size, 1) for size, _, _ in steps]
        assert sum(zero for _, _, zero in steps) >= 2

    @pytest.mark.parametrize("name, inert", [("linear", 3), ("repeated_rows", 4)])
    def test_an_inert_pick_pads_the_weights_and_keeps_the_objective(self, monkeypatch, name,
                                                                     inert):
        # A pick that gains nothing joins at weight 0 by a warm solve that skips its first
        # pass: the weights are the step's with 0 appended, bit for bit, and the objective
        # trace repeats the step's entry.
        K, mu, m = _held_whitening_instances()[name]
        starts = []  # the weights each step starts from

        def kept(W, w, g, K):
            starts.append(w)
            return nnqp._bounds(W, w, g, K)

        monkeypatch.setattr(selectors, "_bounds", kept)
        res = proto_greedy(K, mu, SelectionConfig(m=m))
        ends = starts[1:] + [res.weights]
        steps = [t for t in range(m) if res.gradient_trace[t] <= 0.0]
        assert len(steps) >= inert and steps[0] >= 1
        trace = res.objective_trace
        for t in steps:
            assert ends[t].support.indices[:-1] == starts[t].support.indices
            assert ends[t].weights.tobytes() == np.append(starts[t].weights, 0.0).tobytes()
            assert trace[t:t + 1].tobytes() == trace[t - 1:t].tobytes()

    def test_a_greedy_step_reads_one_new_row_and_solves_no_rows_through_the_factor(
            self, monkeypatch):
        K, mu = gaussian_instance(np.random.default_rng(0), n1=200, n2=300, d=3)
        reads, solves = [], []
        for name in ("rows", "block"):
            monkeypatch.setattr(K, name, lambda idx, read=getattr(K, name), name=name:
                                reads.append((name, tuple(np.atleast_1d(idx)))) or read(idx))
        real = nnqp.lapack
        monkeypatch.setattr(nnqp, "lapack", SimpleNamespace(
            dpotrf=real.dpotrf, dpotrs=real.dpotrs,
            dtrtrs=lambda a, b, **kw: solves.append(np.shape(b)) or real.dtrtrs(a, b, **kw)))
        budgets = []

        def grown(S, K, W=None):  # a step's reads and solves from here to its bounds
            del reads[:], solves[:]
            return nnqp._whitening(S, K, W)

        def counted(W, w, g, K):
            bounds = nnqp._bounds(W, w, g, K)
            budgets.append((len(w.support), w.support.indices[-1:], list(reads), list(solves)))
            return bounds

        monkeypatch.setattr(selectors, "_whitening", grown)
        monkeypatch.setattr(selectors, "_bounds", counted)
        proto_greedy(K, mu, SelectionConfig(m=30))
        late = [b for b in budgets if b[0] >= 2]
        assert len(late) == 28
        for size, last, read, solved in late:
            assert read == [("rows", last)] and solved == [(size,)], (size, read, solved)

    def test_a_returned_result_holds_no_whitened_rows(self, monkeypatch):
        K, mu = gaussian_instance(np.random.default_rng(1), n1=100, n2=200, d=3)
        made, whiten = [], nnqp._whiten

        def kept(W, j, K):
            grown = whiten(W, j, K)
            if grown.B is not None:
                made.append(weakref.ref(grown.B))
            return grown

        monkeypatch.setattr(nnqp, "_whiten", kept)
        res = proto_greedy(K, mu, SelectionConfig(m=12))
        gc.collect()
        assert len(res.indices) == 12 and len(made) == 12 - 1
        assert all(ref() is None for ref in made)
        # nor does a partial result, once the error that carries it is dropped:
        # rank-deficient rows at a large scale fail a solve
        del made[:]
        rng = np.random.default_rng(0)
        X = Dataset(1e4 * (rng.normal(size=(40, 2)) @ rng.normal(size=(2, 6))))
        spec = KernelSpec("linear")
        with pytest.raises(SolverError) as err:
            proto_greedy(kernel_matrix(X, spec), mean_map(X, X, spec), SelectionConfig(m=5))
        partial = err.value.partial.weights
        del err
        gc.collect()
        assert len(partial.support) >= 1 and made
        assert all(ref() is None for ref in made)
