import itertools
import pickle

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls

from protoselect import (
    Dataset,
    InputError,
    KernelSpec,
    SolverConfig,
    SolverError,
    SupportSet,
    WeightVector,
    gradient,
    kernel_matrix,
    kkt_residual,
    mean_map,
    median_bandwidth,
    objective,
    solve_restricted,
)
from protoselect import nnqp, ranking, selectors
from protoselect.nnqp import _restricted, gain_bounds
from protoselect.oracle import _lattice
from protoselect.ranking import rank_sources
from protoselect.selectors import (SelectionConfig, SelectionResult, l2c_equal, proto_dash,
                                   proto_greedy, random_w, top_m_by_weight)
from helpers import dense, entries_of, gaussian_instance, identity_instance, synthetic_instance


def dense_objective(K, mu, w):
    w = np.asarray(w, dtype=float)
    return float(w @ mu.entries - 0.5 * w @ (entries_of(K) @ w))


def grid_search_2d(K, mu, lo=0.0, hi=2.0, resolution=1e-3):
    """Dense grid maximum of the objective over [lo, hi]^2."""
    axis = np.arange(lo, hi + resolution / 2, resolution)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    k11, k12, k22 = entries_of(K)[0, 0], entries_of(K)[0, 1], entries_of(K)[1, 1]
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
                manual -= 0.5 * dense[i] * entries_of(K)[i, j] * dense[j]
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
                eig = np.linalg.eigvalsh(entries_of(K)[np.ix_(combo, combo)])
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
                    - float((mu.entries - entries_of(K) @ x) @ diff)
                )
                nrm = float(diff @ diff)
                assert -C * nrm / 2 - 1e-9 <= gap <= -c * nrm / 2 + 1e-9

    def test_every_cap_stops_short_or_gives_the_uncapped_weights(self, rng):
        # below the iterations a solve needs, the cap ends it with its iterate so far; from
        # there on, a cap changes no bit of the weights
        stepped_back = False
        for _ in range(4):
            K, mu = gaussian_instance(rng, n1=20, n2=30, sigma=0.6)
            L = SupportSet(rng.permutation(30)[:16])
            half = solve_restricted(K, mu, SupportSet(L.indices[::2]))
            for warm_start in (None, half):
                uncapped = solve_restricted(K, mu, L, warm_start=warm_start)
                first = None
                for cap in range(1, 10 * len(L) + 101):
                    try:
                        w = solve_restricted(K, mu, L, SolverConfig(max_iterations=cap),
                                             warm_start=warm_start)
                    except SolverError as err:
                        assert first is None and err.reason == "iteration_cap"
                        assert isinstance(err.best_iterate, WeightVector)
                        continue
                    assert w.weights.tobytes() == uncapped.weights.tobytes()
                    first = cap if first is None else first
                    if cap > first + 3:
                        break
                assert first is not None and first > 1
                # a cold solve that took more iterations than it kept weights stepped back
                stepped_back |= warm_start is None and first > np.count_nonzero(w.weights)
        assert stepped_back

    def test_solver_error_carries_best_iterate(self):
        # the iteration cap runs out; then a singular block: the third index to enter
        # completes K's null vector (1, 1, -1)
        cases = [(synthetic_instance([[1.0, 0.9], [0.9, 1.0]], [1.0, 0.95]), (0, 1),
                  SolverConfig(max_iterations=1), [1.0, 0.0], "iteration_cap"),
                 (synthetic_instance([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [1, 1, 1.9]), (0, 1, 2),
                  None, [0.1, 0.0, 0.9], "not_positive_definite")]
        for (K, mu), L, cfg, best, reason in cases:
            L = SupportSet(L)
            with pytest.raises(SolverError) as err:
                solve_restricted(K, mu, L, cfg)
            np.testing.assert_allclose(err.value.best_iterate.dense(), best, atol=1e-12)
            assert err.value.residual == kkt_residual(err.value.best_iterate, K, mu, L)
            assert err.value.reason == reason


class TestIndependentReferences:
    """The weight solve against optima that share none of its code. Support sizes are
    reported, not asserted: a weight near zero may fall on either side."""

    def test_matches_nnls_on_proto_dash_prefixes(self):
        # With K_LL = R'R and R'y = mu_L, maximizing l on L is minimizing |Rw - y|^2 over
        # w >= 0, which scipy's Lawson-Hanson nnls solves.
        rng = np.random.default_rng(20170704)
        source = Dataset(rng.normal(size=(400, 5)))
        target = Dataset(rng.normal(size=(300, 5)) + 0.3)
        spec = KernelSpec("gaussian", bandwidth=median_bandwidth(source))
        K, mu = kernel_matrix(source, spec), mean_map(target, source, spec)
        order = proto_dash(K, mu, SelectionConfig(m=60)).indices.indices
        tol = SolverConfig().kkt_tolerance
        for size in (1, 2, 5, 10, 20, 40, 60):
            L = SupportSet(order[:size])
            w = solve_restricted(K, mu, L)
            assert kkt_residual(w, K, mu, L) <= tol
            KL, muL = K.block(L.as_array()), mu.entries[L.as_array()]
            R = cholesky(KL)
            x = nnls(R, solve_triangular(R, muL, trans="T"))[0]
            assert objective(w, K, mu) == pytest.approx(x @ muL - 0.5 * x @ KL @ x, rel=1e-12)
            print(f"|L|={size}: support {np.count_nonzero(w.weights)} solver, "
                  f"{np.count_nonzero(x)} nnls")

    def test_matches_the_lattice_on_every_subset(self):
        rng = np.random.default_rng(4)
        tol = SolverConfig().kkt_tolerance
        for n2 in (8, 9, 10):
            K, mu = gaussian_instance(rng, n1=7, n2=n2, sigma=float(rng.uniform(0.5, 2.0)))
            table = dense(_lattice(K, mu, n2), n2)
            for size in range(1, n2 + 1):
                for combo in itertools.combinations(range(n2), size):
                    L = SupportSet(combo)
                    w = solve_restricted(K, mu, L)
                    assert kkt_residual(w, K, mu, L) <= tol
                    lattice = table[sum(1 << j for j in combo)]
                    assert objective(w, K, mu) == pytest.approx(lattice, rel=1e-12)


def plain(w):
    """w without a solve's record: solving from it gathers the restricted problem."""
    return WeightVector(w.support, w.weights, w.dimension)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestWarmRecords:
    """A solve's record read, against plain copies of the same weights: equal bytes."""

    @staticmethod
    def instance(seed=0, n2=300):
        return gaussian_instance(np.random.default_rng(seed), n1=200, n2=n2, d=3)

    def test_every_proto_dash_step_equals_the_plain_warm_start(self):
        K, mu = self.instance()
        w = WeightVector.zeros(K.n2)
        for _ in range(80):
            g = gradient(w, K, mu)
            g[w.support.as_array()] = -np.inf
            L = w.support.extended(int(np.argmax(g)))
            solved = solve_restricted(K, mu, L, warm_start=w)
            gathered = solve_restricted(K, mu, L, warm_start=plain(w))
            assert solved.support == gathered.support
            assert same_bits(solved.weights, gathered.weights)
            assert same_bits(objective(solved, K, mu), objective(plain(solved), K, mu))
            assert same_bits(kkt_residual(solved, K, mu, L), kkt_residual(plain(solved), K, mu, L))
            again = solve_restricted(K, mu, L, warm_start=solved)
            assert same_bits(again.weights, solve_restricted(K, mu, L, warm_start=plain(solved)).weights)
            assert same_bits(gain_bounds(solved, gradient(solved, K, mu), K),
                             gain_bounds(plain(solved), gradient(solved, K, mu), K))
            w = solved
        res = proto_dash(K, mu, SelectionConfig(m=80))
        assert res.indices == w.support and same_bits(res.weights.weights, w.weights)

    def test_a_record_is_read_only_against_its_own_gram_and_mean_map(self):
        K1, mu1 = self.instance(1, n2=60)
        K2, mu2 = self.instance(2, n2=60)
        order = proto_dash(K1, mu1, SelectionConfig(m=9)).indices.indices
        w = solve_restricted(K1, mu1, SupportSet(order[:8]))
        for K, mu in ((K2, mu2), (K1, mu2), (K2, mu1)):
            for L in (w.support, w.support.extended(order[8])):
                got = solve_restricted(K, mu, L, warm_start=w)
                want = solve_restricted(K, mu, L, warm_start=plain(w))
                assert same_bits(got.weights, want.weights)
                assert same_bits(kkt_residual(w, K, mu, L), kkt_residual(plain(w), K, mu, L))
            assert same_bits(objective(w, K, mu), objective(plain(w), K, mu))
            g = gradient(w, K, mu)
            assert same_bits(gain_bounds(w, g, K), gain_bounds(plain(w), g, K))

    def test_a_support_that_is_not_the_record_s_or_one_index_more_is_gathered(self, monkeypatch):
        K, mu = self.instance(3, n2=60)
        order = proto_dash(K, mu, SelectionConfig(m=9)).indices.indices
        w = solve_restricted(K, mu, SupportSet(order[:6]))
        blocks = []
        block = K.block
        monkeypatch.setattr(K, "block", lambda idx: blocks.append(1) or block(idx))
        recorded = (order[:6], order[:7])
        gathered = (order[:6][::-1], order[1:6] + order[:1], order[:8], order[:7][::-1],
                    order[6:7] + order[:6])
        for gathers, supports in ((0, recorded), (1, gathered)):
            for L in map(SupportSet, supports):
                del blocks[:]
                got = solve_restricted(K, mu, L, warm_start=w)
                assert len(blocks) == gathers
                assert same_bits(got.weights, solve_restricted(K, mu, L, warm_start=plain(w)).weights)
        with pytest.raises(InputError, match="warm start support must lie inside L"):
            solve_restricted(K, mu, SupportSet(order[:5] + order[7:8]), warm_start=w)

    def test_a_grown_block_has_the_bits_of_the_gathered_one(self):
        K, mu = self.instance(4, n2=80)
        w = WeightVector.zeros(K.n2)
        for j in proto_dash(K, mu, SelectionConfig(m=12)).indices:
            L = w.support.extended(j)
            assert same_bits(_restricted(K, mu, L, w, "warm start")[0], K.block(L.as_array()))
            w = solve_restricted(K, mu, L, warm_start=w)
        # Row 1 holds -0.0 where row 0 holds 0.0, which the Gram's symmetry check lets
        # through: the mirror would put -0.0 in the block, so that row is gathered.
        K, mu = synthetic_instance([[1.0, 0.0], [-0.0, 1.0]], [0.5, 0.4])
        w = solve_restricted(K, mu, SupportSet((0,)))
        L = SupportSet((0, 1))
        assert same_bits(_restricted(K, mu, L, w, "warm start")[0], K.block([0, 1]))

    def test_a_proto_dash_step_factors_once_plus_at_most_twice_per_step_back(self, monkeypatch):
        K, mu = self.instance()
        factors, passives = [], []
        factor, subproblem = nnqp._factor, nnqp._subproblem
        monkeypatch.setattr(nnqp, "_factor", lambda A: factors.append(1) or factor(A))

        def spy(A, b, passive):
            passives.append((passive.size, int(passive.sum())))
            return subproblem(A, b, passive)

        monkeypatch.setattr(nnqp, "_subproblem", spy)
        steps = len(proto_dash(K, mu, SelectionConfig(m=100)).indices)
        # a step-back drops a passive index on the same support; the index may enter again
        step_backs = sum(a[0] == b[0] and b[1] < a[1] for a, b in zip(passives, passives[1:]))
        assert steps == 100 and step_backs > 0
        assert len(factors) <= steps + 2 * step_backs

    def test_the_record_is_not_pickled_and_a_failed_solve_has_none(self):
        K, mu = self.instance(5, n2=40)
        w = solve_restricted(K, mu, SupportSet((3, 1, 4)))
        assert w._record is not None
        assert pickle.dumps(w) == pickle.dumps(plain(w))
        loaded = pickle.loads(pickle.dumps(w))
        assert loaded._record is None and same_bits(loaded.weights, w.weights)
        res = proto_dash(K, mu, SelectionConfig(m=5))
        assert pickle.dumps(res) == pickle.dumps(
            SelectionResult(res.method, plain(res.weights), res.objective_trace,
                            res.gradient_trace, res.wall_times, res.early_stopped))
        K, mu = synthetic_instance([[1.0, 0.9], [0.9, 1.0]], [1.0, 0.95])
        with pytest.raises(SolverError) as err:
            solve_restricted(K, mu, SupportSet((0, 1)), SolverConfig(max_iterations=1))
        assert err.value.best_iterate._record is None


class TestCallBudget:
    """What a ProtoDash step and a solved vector's objective read: counted, not timed."""

    def test_a_proto_dash_step_reads_rows_twice_gathers_no_block_and_factors_once(
            self, monkeypatch):
        K, mu = TestWarmRecords.instance()
        calls = []
        for name in ("rows", "block"):
            monkeypatch.setattr(K, name, lambda idx, read=getattr(K, name), name=name:
                                calls.append(name) or read(idx))
        factor, subproblem = nnqp._factor, nnqp._subproblem
        monkeypatch.setattr(nnqp, "_factor", lambda A: calls.append("factor") or factor(A))
        monkeypatch.setattr(nnqp, "_subproblem", lambda A, b, passive: calls.append(
            ("pass", int(passive.sum()))) or subproblem(A, b, passive))
        steps, pick = [], selectors._largest_gradient

        def counted(grad, weights, f, extend):
            del calls[:]
            picked = pick(grad, weights, f, extend)
            steps.append((len(weights.support), weights.weights.all(), list(calls)))
            return picked

        monkeypatch.setattr(selectors, "_largest_gradient", counted)
        assert len(proto_dash(K, mu, SelectionConfig(m=100)).indices) == 100

        def grows(c):  # each pass's passive set is larger than the one before
            sizes = [x[1] for x in c if isinstance(x, tuple)]
            return all(a < b for a, b in zip(sizes, sizes[1:]))

        # From positive weights on S, a step with no step-back has its passive sets grow:
        # the first pass, on S, is the warm start's, and the next is on S + j.
        plain = [c for size, positive, c in steps if size >= 2 and positive and grows(c)]
        assert len(plain) >= 50
        for c in plain:
            assert (c.count("rows"), c.count("block"), c.count("factor")) == (2, 0, 1), c

    def test_the_objective_of_a_solved_vector_reads_no_kernel_entry(self, monkeypatch):
        K, mu = TestWarmRecords.instance(6, n2=60)
        solved = solve_restricted(K, mu, SupportSet((5, 2, 9, 30)))
        want = objective(plain(solved), K, mu)

        def refuse(idx):
            raise AssertionError("a kernel entry was read")

        monkeypatch.setattr(K, "rows", refuse)
        monkeypatch.setattr(K, "block", refuse)
        assert same_bits(objective(solved, K, mu), want)

    @pytest.mark.parametrize("select", [proto_dash, proto_greedy, random_w, l2c_equal],
                             ids=lambda f: f.__name__)
    def test_every_solve_records_the_objective_of_its_plain_copy(self, monkeypatch, select):
        # every solve of every prefix, on a gaussian and a linear Gram
        rng = np.random.default_rng(9)
        linear = KernelSpec("linear")
        source = Dataset(rng.normal(size=(60, 6)))
        instances = [gaussian_instance(rng, n1=70, n2=80, d=4),
                     (kernel_matrix(source, linear),
                      mean_map(Dataset(rng.normal(size=(70, 6)) + 0.5), source, linear))]
        solved, inner = [], selectors.solve_restricted
        monkeypatch.setattr(selectors, "solve_restricted",
                            lambda *a, **kw: solved.append(inner(*a, **kw)) or solved[-1])
        for K, mu in instances:
            del solved[:]
            res = select(K, mu, SelectionConfig(m=12, seed=3))
            solved += [top_m_by_weight(res, 6, K, mu).weights]
            for w in solved:
                assert w._record is not None
                assert same_bits(objective(w, K, mu), objective(plain(w), K, mu))

    def test_rank_sources_reweight_solves_record_the_objective_of_their_plain_copies(
            self, monkeypatch):
        rng = np.random.default_rng(50)
        datasets = [Dataset(rng.normal(size=(120, 3)) + 0.3 * i) for i in range(3)]
        seen, inner = [], ranking.solve_restricted

        def spy(K, mu, L, cfg):
            seen.append((K, mu, inner(K, mu, L, cfg)))
            return seen[-1][2]

        monkeypatch.setattr(ranking, "solve_restricted", spy)
        rank_sources(datasets, 15, KernelSpec("gaussian", bandwidth=1.0))
        assert len(seen) == 6
        for K, mu, w in seen:
            assert same_bits(objective(w, K, mu), objective(plain(w), K, mu))


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
        with pytest.raises(InputError, match="warm start"):
            solve_restricted(K, mu, SupportSet((1,)), warm_start=w)
        # a zero weight outside L is not support: only the positive weights must lie in L
        zero_outside = WeightVector(SupportSet((1, 0)), np.array([0.5, 0.0]), 2)
        assert kkt_residual(zero_outside, K, mu, SupportSet((1,))) == pytest.approx(0.3)
        solved = solve_restricted(K, mu, SupportSet((1,)), warm_start=zero_outside)
        np.testing.assert_allclose(solved.weights, [0.2])


class TestTypes:
    def test_support_set_rejects_duplicates(self):
        with pytest.raises(InputError):
            SupportSet((1, 1))

    def test_support_set_keeps_order(self):
        s = SupportSet((3, 0, 2))
        assert list(s) == [3, 0, 2]
        assert s.extended(5).indices == (3, 0, 2, 5)

    @pytest.mark.parametrize("j,message", [
        (True, "not bools"), (np.False_, "integers"), (2.0, "must be integers"),
        ("4", "must be integers"), (-1, "non-negative"), (np.int64(-1), "non-negative"),
        (2 ** 63, "at most"), (0, "distinct"), (np.intp(2), "distinct")])
    def test_extended_checks_the_new_index_as_the_constructor_does(self, j, message):
        s = SupportSet((3, 0, 2))
        with pytest.raises(InputError, match=message):
            s.extended(j)
        with pytest.raises(InputError, match=message):
            SupportSet(s.indices + (j,))

    def test_extended_stores_python_ints_and_leaves_the_support_as_it_was(self):
        s = SupportSet((3, 0))
        grown = s.extended(np.uint8(7))
        assert grown.indices == (3, 0, 7) and type(grown.indices[2]) is int
        assert grown == SupportSet((3, 0, 7)) and s.indices == (3, 0)

    def test_support_set_holds_one_read_only_index_array_outside_its_value(self):
        s = SupportSet((3, 0, 2))
        arr = s.as_array()
        assert s.as_array() is arr and arr.dtype == np.intp and arr.tolist() == [3, 0, 2]
        with pytest.raises(ValueError):
            arr[0] = 1
        assert s.extended(5).as_array().tolist() == [3, 0, 2, 5] and s.as_array() is arr
        twin = SupportSet((3, 0, 2))
        assert s == twin and hash(s) == hash(twin)
        assert pickle.dumps(s) == pickle.dumps(twin)  # twin has made no array
        loaded = pickle.loads(pickle.dumps(s))
        assert loaded == s and "_array" not in vars(loaded)
        assert loaded.as_array().tolist() == [3, 0, 2]
        assert SupportSet().as_array().shape == (0,)

    def test_weight_vector_rejects_negative(self):
        with pytest.raises(InputError):
            WeightVector(SupportSet((0,)), np.array([-0.1]), 2)

    def test_weight_vector_dense_and_positive_support(self):
        w = WeightVector(SupportSet((2, 0)), np.array([0.5, 0.0]), 3)
        np.testing.assert_array_equal(w.dense(), [0.0, 0.0, 0.5])
        np.testing.assert_array_equal(np.flatnonzero(w.dense()), [2])
