import itertools

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
from helpers import gaussian_instance, identity_instance, synthetic_instance


def dense_objective(K, mu, w):
    w = np.asarray(w, dtype=float)
    return float(w @ mu.entries - 0.5 * w @ (K.entries @ w))


def grid_search_2d(K, mu, lo=0.0, hi=2.0, resolution=1e-3):
    """Dense grid maximum of the objective over [lo, hi]^2."""
    axis = np.arange(lo, hi + resolution / 2, resolution)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    k11, k12, k22 = K.entries[0, 0], K.entries[0, 1], K.entries[1, 1]
    vals = (
        W1 * mu.entries[0]
        + W2 * mu.entries[1]
        - 0.5 * (k11 * W1**2 + 2 * k12 * W1 * W2 + k22 * W2**2)
    )
    return float(vals.max())


class TestObjective:
    def test_empty_support_is_zero(self):
        K, mu = identity_instance([0.8, 0.2])
        assert objective(WeightVector.zeros(2), K, mu) == 0.0

    def test_identity_unconstrained_optimum(self):
        K, mu = identity_instance([0.8, 0.2])
        w = WeightVector(SupportSet((0, 1)), np.array([0.8, 0.2]), 2)
        assert objective(w, K, mu) == pytest.approx(0.34)

    def test_matches_naive_arithmetic(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=4)
        weights = rng.uniform(0, 1, size=3)
        w = WeightVector(SupportSet((2, 0, 3)), weights, 4)
        manual = 0.0
        dense = w.dense()
        for i in range(4):
            manual += dense[i] * mu.entries[i]
            for j in range(4):
                manual -= 0.5 * dense[i] * K.entries[i, j] * dense[j]
        assert objective(w, K, mu) == pytest.approx(manual, rel=1e-12)


class TestGradient:
    def test_at_zero_equals_mean_map(self, rng):
        K, mu = gaussian_instance(rng)
        np.testing.assert_array_equal(gradient(WeightVector.zeros(6), K, mu), mu.entries)

    def test_stationary_at_identity_optimum(self):
        K, mu = identity_instance([0.8, 0.2])
        w = WeightVector(SupportSet((0, 1)), np.array([0.8, 0.2]), 2)
        np.testing.assert_allclose(gradient(w, K, mu), np.zeros(2), atol=1e-15)

    def test_matches_central_differences(self, rng):
        step = 1e-6
        for _ in range(20):
            K, mu = gaussian_instance(rng, n1=6, n2=5)
            w = WeightVector(SupportSet((1, 3, 4)), rng.uniform(0.1, 1.0, 3), 5)
            g = gradient(w, K, mu)
            dense = w.dense()
            for j in range(5):
                hi, lo = dense.copy(), dense.copy()
                hi[j] += step
                lo[j] -= step
                fd = (dense_objective(K, mu, hi) - dense_objective(K, mu, lo)) / (2 * step)
                assert fd == pytest.approx(g[j], rel=1e-5, abs=1e-8)


class TestSolveRestricted:
    def test_separable_clamps_negative(self):
        K, mu = identity_instance([0.5, -0.3])
        w = solve_restricted(K, mu, SupportSet((0, 1)))
        np.testing.assert_allclose(w.dense(), [0.5, 0.0], atol=1e-12)

    def test_empty_support_convention(self, rng):
        K, mu = gaussian_instance(rng)
        w = solve_restricted(K, mu, SupportSet())
        assert len(w.support) == 0
        assert objective(w, K, mu) == 0.0

    def test_matches_grid_search_oracle(self):
        K, mu = synthetic_instance([[1.0, 0.9], [0.9, 1.0]], [1.0, 0.95])
        w = solve_restricted(K, mu, SupportSet((0, 1)))
        got = objective(w, K, mu)
        want = grid_search_2d(K, mu)
        assert got == pytest.approx(want, abs=1e-3)
        assert got >= want - 1e-9  # solver cannot be below any grid point

    def test_grid_search_random_instances(self, rng):
        for _ in range(10):
            rho = rng.uniform(-0.4, 0.4)
            K, mu = synthetic_instance(
                [[1.0, rho], [rho, 1.0]], rng.uniform(0.05, 1.0, size=2)
            )
            w = solve_restricted(K, mu, SupportSet((0, 1)))
            assert objective(w, K, mu) == pytest.approx(grid_search_2d(K, mu), abs=1e-3)

    def test_warm_start_never_hurts(self, rng):
        for _ in range(25):
            K, mu = gaussian_instance(rng, n1=7, n2=6, sigma=0.8)
            L = SupportSet((0, 2, 4, 5))
            raw = rng.uniform(0, 0.5, size=4)
            warm = WeightVector(L, raw, 6)
            solved = solve_restricted(K, mu, L, warm_start=warm)
            assert objective(solved, K, mu) >= objective(warm, K, mu) - 1e-12

    def test_monotone_under_nested_supports(self, rng):
        for _ in range(30):
            K, mu = gaussian_instance(rng, n1=6, n2=8, sigma=1.2)
            big = list(rng.permutation(8)[: rng.integers(2, 8)])
            small = big[: rng.integers(1, len(big))]
            f_small = objective(solve_restricted(K, mu, SupportSet(small)), K, mu)
            f_big = objective(solve_restricted(K, mu, SupportSet(big)), K, mu)
            assert f_small <= f_big + 1e-10

    def test_order_invariance(self, rng):
        for _ in range(20):
            K, mu = gaussian_instance(rng, n1=5, n2=7, sigma=0.9)
            idx = list(rng.permutation(7)[:4])
            f1 = objective(solve_restricted(K, mu, SupportSet(idx)), K, mu)
            shuffled = list(idx)
            rng.shuffle(shuffled)
            f2 = objective(solve_restricted(K, mu, SupportSet(shuffled)), K, mu)
            assert f1 == pytest.approx(f2, abs=1e-9)

    def test_kkt_residual_within_tolerance(self, rng):
        cfg = SolverConfig()
        for _ in range(50):
            n2 = int(rng.integers(2, 9))
            K, mu = gaussian_instance(rng, n1=6, n2=n2, sigma=float(rng.uniform(0.5, 2)))
            size = int(rng.integers(1, n2 + 1))
            L = SupportSet(list(rng.permutation(n2)[:size]))
            w = solve_restricted(K, mu, L, cfg)
            assert kkt_residual(w, K, mu, L) <= cfg.kkt_tolerance

    def test_zero_gradient_addition_is_inert(self, rng):
        # adding a coordinate whose gradient is non-positive leaves the
        # optimum unchanged and keeps that coordinate at exactly zero
        checked = 0
        while checked < 30:
            K, mu = gaussian_instance(rng, n1=5, n2=7, sigma=0.7)
            L = SupportSet(list(rng.permutation(7)[:3]))
            w = solve_restricted(K, mu, L)
            g = gradient(w, K, mu)
            outside = [j for j in range(7) if j not in L and g[j] <= 0]
            if not outside:
                continue
            j = outside[0]
            w2 = solve_restricted(K, mu, L.extended(j))
            assert w2.dense()[j] == 0.0
            assert objective(w2, K, mu) == pytest.approx(objective(w, K, mu), abs=1e-8)
            checked += 1

    def test_rsc_rsm_sandwich(self, rng):
        # curvature of l between k-sparse points is bracketed by the extreme
        # eigenvalues over size-k principal submatrices
        for _ in range(5):
            K, mu = gaussian_instance(rng, n1=6, n2=6, sigma=1.0)
            k = 3
            mins, maxes = [], []
            for combo in itertools.combinations(range(6), k):
                eig = np.linalg.eigvalsh(K.entries[np.ix_(combo, combo)])
                mins.append(eig[0])
                maxes.append(eig[-1])
            c, C = min(mins), max(maxes)
            for _ in range(100):
                combo = rng.permutation(6)[:k]
                x = np.zeros(6)
                y = np.zeros(6)
                x[combo] = rng.uniform(0, 1, k)
                y[combo] = rng.uniform(0, 1, k)
                diff = y - x
                gap = (
                    dense_objective(K, mu, y)
                    - dense_objective(K, mu, x)
                    - float((mu.entries - K.entries @ x) @ diff)
                )
                nrm = float(diff @ diff)
                assert -C * nrm / 2 - 1e-9 <= gap <= -c * nrm / 2 + 1e-9

    def test_solver_error_carries_best_iterate(self):
        K, mu = synthetic_instance([[1.0, 0.9], [0.9, 1.0]], [1.0, 0.95])
        with pytest.raises(SolverError) as err:
            solve_restricted(K, mu, SupportSet((0, 1)), SolverConfig(max_iterations=1))
        assert err.value.best_iterate is not None
        assert err.value.residual is not None


class TestKktResidual:
    def test_exact_optimum_separable(self):
        K, mu = identity_instance([0.5, 0.2])
        w = WeightVector(SupportSet((0, 1)), np.array([0.5, 0.2]), 2)
        assert kkt_residual(w, K, mu, SupportSet((0, 1))) == 0.0

    def test_zero_with_negative_mean_map(self):
        K, mu = identity_instance([-0.5, -0.1])
        w = WeightVector(SupportSet((0, 1)), np.zeros(2), 2)
        assert kkt_residual(w, K, mu, SupportSet((0, 1))) == 0.0

    def test_perturbed_identity_optimum(self):
        K, mu = identity_instance([0.5, 0.2])
        w = WeightVector(SupportSet((0, 1)), np.array([0.5 + 1e-3, 0.2]), 2)
        assert kkt_residual(w, K, mu, SupportSet((0, 1))) == pytest.approx(1e-3)

    def test_support_must_be_inside_L(self):
        K, mu = identity_instance([0.5, 0.2])
        w = WeightVector(SupportSet((0,)), np.array([0.5]), 2)
        with pytest.raises(InputError):
            kkt_residual(w, K, mu, SupportSet((1,)))


class TestTypes:
    def test_support_set_rejects_duplicates(self):
        with pytest.raises(InputError):
            SupportSet((1, 1))

    def test_support_set_keeps_order(self):
        s = SupportSet((3, 0, 2))
        assert list(s) == [3, 0, 2]
        assert s.extended(5).indices == (3, 0, 2, 5)

    def test_weight_vector_rejects_negative(self):
        with pytest.raises(InputError):
            WeightVector(SupportSet((0,)), np.array([-0.1]), 2)

    def test_weight_vector_dense_and_positive_support(self):
        w = WeightVector(SupportSet((2, 0)), np.array([0.5, 0.0]), 3)
        np.testing.assert_array_equal(w.dense(), [0.0, 0.0, 0.5])
        assert w.positive_support().indices == (2,)
