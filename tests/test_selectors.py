import numpy as np
import pytest

from protoselect import (
    InputError,
    SolverConfig,
    SolverError,
    SupportSet,
    WeightVector,
    gradient,
    kkt_residual,
    objective,
    solve_restricted,
)
from protoselect import selectors
from protoselect.selectors import (
    SelectionConfig,
    criticisms,
    l2c_equal,
    proto_dash,
    proto_greedy,
    random_w,
    top_m_by_weight,
)
from helpers import entries_of, gaussian_instance, identity_instance, oversampled, synthetic_instance


def brute_force_singleton(K, mu):
    """Independent oracle: best single-index support and its objective."""
    best_j, best_f = None, 0.0
    for j in range(K.n2):
        f = max(mu.entries[j], 0.0) ** 2 / (2.0 * entries_of(K)[j, j])
        if f > best_f:
            best_j, best_f = j, f
    return best_j, best_f


def uniform_value(K, mu, subset):
    """Objective at uniform weights 1/|subset| on the subset."""
    t = len(subset)
    w = np.zeros(K.n2)
    w[list(subset)] = 1.0 / t
    return float(w @ mu.entries - 0.5 * w @ (entries_of(K) @ w))


def brute_force_l2c(K, mu, m):
    """Independent loop-based greedy over the uniform-weight objective."""
    sel = []
    for _ in range(m):
        best_j, best_v = None, -np.inf
        for j in range(K.n2):
            if j in sel:
                continue
            v = uniform_value(K, mu, sel + [j])
            if v > best_v:
                best_j, best_v = j, v
        sel.append(best_j)
    return sel


class TestProtoDash:
    def test_first_pick_is_mean_map_argmax(self, rng):
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=8, sigma=1.1)
            res = proto_dash(K, mu, SelectionConfig(m=3))
            assert res.indices.indices[0] == int(np.argmax(mu.entries))
            assert res.gradient_trace[0] == pytest.approx(mu.entries.max())

    def test_m_zero_is_empty(self, rng):
        K, mu = gaussian_instance(rng)
        res = proto_dash(K, mu, SelectionConfig(m=0))
        assert len(res.indices) == 0
        assert res.final_objective == 0.0

    def test_singleton_matches_brute_force(self, rng):
        for _ in range(20):
            K, mu = gaussian_instance(rng, n1=5, n2=7, sigma=0.9)
            res = proto_dash(K, mu, SelectionConfig(m=1))
            j_star, f_star = brute_force_singleton(K, mu)
            assert res.indices.indices == (j_star,)
            assert res.final_objective == pytest.approx(f_star, rel=1e-9)

    def test_monotone_trace(self, rng):
        for _ in range(20):
            K, mu = gaussian_instance(rng, n1=7, n2=9, sigma=1.4)
            res = proto_dash(K, mu, SelectionConfig(m=6))
            assert np.all(np.diff(res.objective_trace) >= -1e-10)

    def test_epsilon_termination(self, rng):
        K, mu = gaussian_instance(rng, n1=8, n2=8)
        full = proto_dash(K, mu, SelectionConfig(m=8))
        res = proto_dash(K, mu, SelectionConfig(epsilon=1e-12))
        # every realized increase in the kept trace is at least epsilon
        incs = np.diff(np.concatenate([[0.0], res.objective_trace]))
        assert np.all(incs >= 1e-12)
        assert res.final_objective <= full.final_objective + 1e-10

    def test_all_negative_mean_map_stops_early(self):
        K, mu = identity_instance([-0.2, -0.5, -0.1])
        res = proto_dash(K, mu, SelectionConfig(m=2))
        assert len(res.indices) == 0
        assert res.early_stopped

    def test_weights_satisfy_kkt(self, rng):
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=10, sigma=0.8)
            res = proto_dash(K, mu, SelectionConfig(m=5))
            assert kkt_residual(res.weights, K, mu, res.indices) <= 1e-8

    def test_deterministic(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=9)
        a = proto_dash(K, mu, SelectionConfig(m=4))
        b = proto_dash(K, mu, SelectionConfig(m=4))
        assert a.indices.indices == b.indices.indices
        np.testing.assert_array_equal(a.weights.weights, b.weights.weights)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_lower_bound_selection_rule(self, rng):
        # with a unit diagonal the chosen index maximizes, among candidates
        # with non-negative gradient, the one-step extension value
        # l_j(w) = l(w) + g_j^2 / (2 K_jj) evaluated at the current weights
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=8, sigma=1.0, jitter=0.0)
            res = proto_dash(K, mu, SelectionConfig(m=4))
            partial: list[int] = []
            w = WeightVector.zeros(8)
            for step, j0 in enumerate(res.indices):
                g = gradient(w, K, mu)
                scores = {
                    j: g[j] ** 2 / (2.0 * entries_of(K)[j, j])
                    for j in range(8)
                    if j not in partial and g[j] >= 0.0
                }
                assert scores[j0] == pytest.approx(max(scores.values()), abs=1e-12)
                partial.append(j0)
                w = solve_restricted(K, mu, SupportSet(tuple(partial)))


class TestProtoGreedy:
    def test_m1_equals_singleton_oracle(self, rng):
        for _ in range(20):
            K, mu = gaussian_instance(rng, n1=5, n2=7, sigma=1.2)
            res = proto_greedy(K, mu, SelectionConfig(m=1))
            j_star, f_star = brute_force_singleton(K, mu)
            assert res.indices.indices == (j_star,)
            assert res.final_objective == pytest.approx(f_star, rel=1e-9)

    def test_prefix_resolve_oracle(self, rng):
        # the recorded trace equals an independent cold re-solve of every prefix
        K, mu = gaussian_instance(rng, n1=8, n2=10, sigma=1.0)
        res = proto_greedy(K, mu, SelectionConfig(m=4))
        for t in range(1, len(res.indices) + 1):
            prefix = SupportSet(res.indices.indices[:t])
            f = objective(solve_restricted(K, mu, prefix), K, mu)
            assert res.objective_trace[t - 1] == pytest.approx(f, abs=1e-6)

    def test_greedy_dominates_every_candidate(self, rng):
        # each recorded increment is at least the increment of any other candidate
        for _ in range(5):
            K, mu = gaussian_instance(rng, n1=6, n2=8, sigma=1.1)
            res = proto_greedy(K, mu, SelectionConfig(m=3))
            prefix: list[int] = []
            f_prev = 0.0
            for t, j0 in enumerate(res.indices):
                inc = res.objective_trace[t] - f_prev
                for j in range(8):
                    if j in prefix or j == j0:
                        continue
                    other = objective(
                        solve_restricted(K, mu, SupportSet(tuple(prefix) + (j,))), K, mu
                    )
                    assert inc >= other - f_prev - 1e-9
                prefix.append(j0)
                f_prev = res.objective_trace[t]

    def test_epsilon_stops_on_no_positive_increase(self):
        K, mu = identity_instance([-0.4, -0.2])
        res = proto_greedy(K, mu, SelectionConfig(epsilon=1e-8))
        assert len(res.indices) == 0
        assert res.early_stopped

    def test_matches_dash_trace_shape(self, rng):
        K, mu = gaussian_instance(rng, n1=7, n2=9)
        res = proto_greedy(K, mu, SelectionConfig(m=4))
        assert len(res.objective_trace) == len(res.indices) == 4
        assert np.all(np.diff(res.objective_trace) >= -1e-10)


class TestUniformBaselines:
    def test_single_pick_matches_dash_argmax(self, rng):
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=7, sigma=1.0)
            res = l2c_equal(K, mu, SelectionConfig(m=1))
            dash = proto_dash(K, mu, SelectionConfig(m=1))
            assert res.indices.indices == dash.indices.indices

    def test_full_selection_uniform_weights(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=6)
        res = l2c_equal(K, mu, SelectionConfig(m=6))
        assert sorted(res.indices) == list(range(6))
        np.testing.assert_allclose(res.weights.weights, np.full(6, 1 / 6))

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=8, sigma=1.3)
            res = l2c_equal(K, mu, SelectionConfig(m=3))
            assert list(res.indices) == brute_force_l2c(K, mu, 3)
            for t in range(1, 4):
                want = uniform_value(K, mu, list(res.indices)[:t])
                assert res.objective_trace[t - 1] == pytest.approx(want, rel=1e-9)

    def test_adapted_concentrated_target(self, rng):
        # a target sitting on one source row makes that row the first pick
        from protoselect import Dataset, KernelSpec, kernel_matrix, mean_map

        spec = KernelSpec("gaussian", bandwidth=1.0)
        source = Dataset(rng.normal(size=(6, 2)) * 3.0)
        target = Dataset(np.repeat(source.values[4:5], 5, axis=0))
        K = kernel_matrix(source, spec)
        mu = mean_map(target, source, spec)
        res = l2c_equal(K, mu, SelectionConfig(m=2))
        assert res.indices.indices[0] == 4

    def test_rejects_epsilon_mode(self, rng):
        K, mu = gaussian_instance(rng)
        with pytest.raises(InputError):
            l2c_equal(K, mu, SelectionConfig(epsilon=1e-3))

    def test_gradient_trace_is_mu_less_the_mean_column_of_earlier_picks(self, rng):
        # entry t is mu_j - mean of K[i, j] over the first t - 1 prototypes i, j the t-th
        for _ in range(5):
            K, mu = gaussian_instance(rng, n1=6, n2=10, sigma=1.2)
            res = l2c_equal(K, mu, SelectionConfig(m=6))
            picks = list(res.indices)
            assert res.gradient_trace[0] == mu.entries[picks[0]]
            for t in range(2, 7):
                j = picks[t - 1]
                want = mu.entries[j] - entries_of(K)[picks[:t - 1], j].mean()
                assert res.gradient_trace[t - 1] == pytest.approx(want, rel=1e-12, abs=0.0)


def _top_m_of_dash(K, mu, cfg):
    return top_m_by_weight(proto_dash(K, mu, SelectionConfig(m=cfg.m + 2)), cfg.m, K, mu)


@pytest.mark.parametrize("select", [proto_dash, proto_greedy, l2c_equal, random_w, _top_m_of_dash])
def test_every_selector_records_one_timed_entry_per_prototype(rng, select):
    K, mu = gaussian_instance(rng, n1=6, n2=9)
    res = select(K, mu, SelectionConfig(m=4, seed=3))
    assert len(res.indices) == 4
    for trace in (res.objective_trace, res.gradient_trace, res.wall_times):
        assert trace.shape == (4,)
    assert np.all(res.wall_times > 0.0)


def test_a_step_computes_the_gradient_only_when_its_pick_asks(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(selectors, "gradient", lambda *args: calls.append(1) or gradient(*args))
    K, mu = gaussian_instance(rng, n1=6, n2=9)
    l2c_equal(K, mu, SelectionConfig(m=4))
    assert not calls
    for select in (proto_dash, proto_greedy, random_w):
        select(K, mu, SelectionConfig(m=4, seed=3))
        assert len(calls) == 4
        calls.clear()


class TestRandomW:
    def test_same_seed_same_result(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=9)
        a = random_w(K, mu, SelectionConfig(m=4, seed=7))
        b = random_w(K, mu, SelectionConfig(m=4, seed=7))
        assert a.indices.indices == b.indices.indices
        np.testing.assert_array_equal(a.weights.weights, b.weights.weights)

    def test_different_seeds_differ(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=10)
        picks = {random_w(K, mu, SelectionConfig(m=3, seed=s)).indices.indices for s in range(8)}
        assert len(picks) > 1

    def test_full_support_equals_unrestricted(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=6)
        res = random_w(K, mu, SelectionConfig(m=6, seed=0))
        full = solve_restricted(K, mu, SupportSet(tuple(range(6))))
        assert objective(full, K, mu) == pytest.approx(res.final_objective, abs=1e-10)

    def test_kkt_and_monotone_trace(self, rng):
        for seed in range(5):
            K, mu = gaussian_instance(rng, n1=7, n2=8)
            res = random_w(K, mu, SelectionConfig(m=5, seed=seed))
            assert kkt_residual(res.weights, K, mu, res.indices) <= 1e-8
            assert np.all(np.diff(res.objective_trace) >= -1e-10)

    def test_requires_seed(self, rng):
        K, mu = gaussian_instance(rng)
        with pytest.raises(InputError):
            random_w(K, mu, SelectionConfig(m=2))


class TestTopMByWeight:
    def test_keep_all_is_identity(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=8)
        res = proto_dash(K, mu, SelectionConfig(m=4))
        trunc = top_m_by_weight(res, 4, K, mu)
        assert trunc.indices.indices == res.indices.indices
        np.testing.assert_allclose(trunc.weights.weights, res.weights.weights, atol=1e-9)

    def test_keeps_largest_weights(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=6)
        base = proto_dash(K, mu, SelectionConfig(m=3))
        fake = base.__class__(
            method=base.method,
            weights=WeightVector(SupportSet((5, 1, 3)), np.array([0.5, 0.0, 0.3]), 6),
            objective_trace=np.zeros(3),
            gradient_trace=np.zeros(3),
            wall_times=np.zeros(3),
            early_stopped=True,
        )
        trunc = top_m_by_weight(fake, 2, K, mu)
        assert trunc.indices.indices == (5, 3)
        assert trunc.method == base.method and trunc.early_stopped

    def test_oversample_config_path(self, rng):
        K, mu = gaussian_instance(rng, n1=8, n2=10)
        for select in (proto_dash, proto_greedy, random_w):
            res = oversampled(select, K, mu, 3, 2, seed=0)
            assert len(res.indices) == 3
            assert kkt_residual(res.weights, K, mu, res.indices) <= 1e-8

    def test_rejects_m_too_large(self, rng):
        K, mu = gaussian_instance(rng)
        res = proto_dash(K, mu, SelectionConfig(m=2))
        with pytest.raises(InputError):
            top_m_by_weight(res, 5, K, mu)


def _select(method, K, mu, solver):
    if method == "top_m_by_weight":
        full = proto_dash(K, mu, SelectionConfig(m=8))
        return top_m_by_weight(full, len(full.indices) - 1, K, mu, solver)
    select = {"proto_dash": proto_dash, "proto_greedy": proto_greedy, "random_w": random_w}[method]
    return select(K, mu, SelectionConfig(m=6, seed=3, solver=solver))


@pytest.mark.parametrize("method", ["proto_dash", "proto_greedy", "random_w", "top_m_by_weight"])
def test_solver_error_carries_completed_steps(rng, method):
    # a one-iteration cap fails the first step whose solve needs a step-back;
    # the steps before it match the uncapped run
    failed_late = 0
    for _ in range(10):
        K, mu = gaussian_instance(rng, n1=12, n2=12)
        full = _select(method, K, mu, SolverConfig())
        try:
            _select(method, K, mu, SolverConfig(max_iterations=1))
        except SolverError as err:
            partial = err.partial
            t = len(partial.indices)
            assert partial.method == full.method and t < len(full.indices)
            assert partial.indices.indices == full.indices.indices[:t]
            np.testing.assert_array_equal(partial.objective_trace, full.objective_trace[:t])
            assert kkt_residual(partial.weights, K, mu, partial.indices) <= 1e-8
            failed_late += t > 0
    assert failed_late > 0


class TestCriticisms:
    def test_zero_weights_reduce_to_mean_map(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=8)
        res = proto_dash(K, mu, SelectionConfig(m=0))
        crit = criticisms(res, K, mu, 3)
        want = np.argsort(-mu.entries, kind="stable")[:3]
        assert list(crit.indices) == [int(j) for j in want]

    def test_duplicate_of_full_weight_prototype_scores_zero(self):
        K, mu = synthetic_instance(
            [[1.0, 1.0, 0.1], [1.0, 1.0, 0.1], [0.1, 0.1, 1.0]], [1.0, 1.0, 0.2]
        )
        res = proto_dash(K, mu, SelectionConfig(m=1))
        assert res.indices.indices == (0,)
        crit = criticisms(res, K, mu, 2)
        scores = dict(zip(crit.indices, crit.scores))
        assert scores[1] == 0.0

    def test_matches_brute_force_scores(self, rng):
        K, mu = gaussian_instance(rng, n1=7, n2=9)
        res = proto_dash(K, mu, SelectionConfig(m=3))
        crit = criticisms(res, K, mu, 4)
        dense = res.weights.dense()
        manual = {
            j: abs(mu.entries[j] - float(entries_of(K)[j] @ dense))
            for j in range(9)
            if j not in res.indices
        }
        ranked = sorted(manual, key=lambda j: (-manual[j], j))[:4]
        assert list(crit.indices) == ranked
        assert np.all(np.diff(crit.scores) <= 0)

    def test_rejects_excessive_count(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=6)
        res = proto_dash(K, mu, SelectionConfig(m=2))
        with pytest.raises(InputError):
            criticisms(res, K, mu, 5)


class TestConfigValidation:
    def test_exactly_one_termination(self):
        with pytest.raises(InputError):
            SelectionConfig()
        with pytest.raises(InputError):
            SelectionConfig(m=2, epsilon=0.1)

    def test_m_bounds_checked_at_call(self, rng):
        K, mu = gaussian_instance(rng, n1=4, n2=4)
        # oversampling's two calls each check m: the selector against n2, and
        # top_m_by_weight against the selection it keeps from
        for select in (proto_dash, proto_greedy, random_w, l2c_equal):
            for m in (5, 9):
                with pytest.raises(InputError):
                    select(K, mu, SelectionConfig(m=m, seed=0))
            full = select(K, mu, SelectionConfig(m=3, seed=0))
            with pytest.raises(InputError):
                top_m_by_weight(full, 4, K, mu)
