import itertools
import json
import math
from importlib import resources
from unittest import mock

import jsonschema
import numpy as np
import pytest

from protoselect import (
    Dataset,
    GuardError,
    KernelSpec,
    SolverError,
    SupportSet,
    WeightVector,
    kernel_matrix,
    mean_map,
    objective,
    solve_restricted,
)
from protoselect import oracle
from protoselect.errors import DegenerateDataError
from protoselect.nnqp import NOT_POSITIVE_DEFINITE
from protoselect.oracle import (
    _certified,
    _lattice,
    exhaustive_optimal,
    gamma_over_prefixes,
    rsc_rsm_bounds,
    submodularity_ratio,
    verify_instance,
)
from protoselect.selectors import (
    SelectionConfig,
    l2c_equal,
    proto_dash,
    proto_greedy,
    random_w,
)
from helpers import (entries_of, finite_difference_check, gaussian_instance,
                     identity_instance, identity_kernel_instance, margin_instances,
                     random_gaussian_instance, synthetic_instance)


class TestExhaustiveOptimal:
    def test_full_support_equals_unrestricted(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=5)
        _, f_opt = exhaustive_optimal(K, mu, 5)
        full = objective(solve_restricted(K, mu, SupportSet(tuple(range(5)))), K, mu)
        assert f_opt == pytest.approx(full, abs=1e-10)

    def test_identity_singletons(self):
        K, mu = identity_instance([0.9, 0.5, 0.1])
        best, f_opt = exhaustive_optimal(K, mu, 1)
        assert best.indices == (0,)
        assert f_opt == pytest.approx(0.405)

    def test_dominates_every_selector(self, rng):
        for _ in range(5):
            K, mu = gaussian_instance(rng, n1=6, n2=8, sigma=1.1)
            _, f_opt = exhaustive_optimal(K, mu, 3)
            cfg = SelectionConfig(m=3)
            for res in (
                proto_dash(K, mu, cfg),
                proto_greedy(K, mu, cfg),
                l2c_equal(K, mu, cfg),
                random_w(K, mu, SelectionConfig(m=3, seed=1)),
            ):
                assert f_opt >= res.final_objective - 1e-9

    def test_guard_rejects_large(self):
        from protoselect.kernel import KernelMatrix, MeanMap

        big = KernelMatrix(entries=np.eye(25))
        bigmu = MeanMap(entries=np.ones(25), n1=1)
        with pytest.raises(GuardError):
            exhaustive_optimal(big, bigmu, 3)
        # C(20, 14) is under the cap, but sizes 1..14 together are over it
        K20 = KernelMatrix(entries=np.eye(20))
        with pytest.raises(GuardError):
            exhaustive_optimal(K20, MeanMap(entries=np.ones(20), n1=1), 14)

    def test_returns_the_positive_support(self):
        # A superset of the optimum's support that only adds zero weights ties with it, and the
        # smaller set must win. Scored by a solve on each set, roundoff chose the superset in
        # 3 of these 300 draws.
        rng = np.random.default_rng(11)
        for _ in range(300):
            K, mu, m = random_gaussian_instance(rng, max_n2=12, max_m=4)
            best, f_opt = exhaustive_optimal(K, mu, m)
            w = solve_restricted(K, mu, best)
            assert np.all(w.weights > 0), (best, w.weights)
            assert objective(w, K, mu) == pytest.approx(f_opt, rel=1e-12)

    def test_singular_block_raises_solver_error(self):
        # Row 2 has a zero diagonal and a positive mean-map entry: no finite maximum on {2}.
        K, mu = synthetic_instance(np.diag([1.0, 1.0, 0.0]), [0.5, 0.4, 0.1])
        with pytest.raises(SolverError) as err:
            exhaustive_optimal(K, mu, 2)
        assert err.value.reason == NOT_POSITIVE_DEFINITE


class TestSubmodularityRatio:
    def test_identity_is_modular(self):
        K, mu = identity_instance([0.6, 0.4, 0.8, 0.3])
        for L in (SupportSet(), SupportSet((1,)), SupportSet((0, 2))):
            assert submodularity_ratio(K, mu, L, 2) == pytest.approx(1.0, abs=1e-9)

    def test_r1_is_always_one(self, rng):
        for _ in range(5):
            K, mu = gaussian_instance(rng, n1=5, n2=6, sigma=0.9)
            assert submodularity_ratio(K, mu, SupportSet((2,)), 1) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_matches_independent_enumeration(self, rng):
        # oracle for the oracle: plain loops with cold solves
        K, mu = gaussian_instance(rng, n1=6, n2=8, sigma=1.2)
        L = (1, 4)

        def f(subset):
            if not subset:
                return 0.0
            return objective(solve_restricted(K, mu, SupportSet(tuple(subset))), K, mu)

        base = f(L)
        best = None
        rest = [j for j in range(8) if j not in L]
        for size in (1, 2):
            for S in itertools.combinations(rest, size):
                denom = f(L + S) - base
                if denom <= 1e-12:
                    continue
                ratio = sum(f(L + (j,)) - base for j in S) / denom
                best = ratio if best is None else min(best, ratio)
        got = submodularity_ratio(K, mu, SupportSet(L), 2)
        assert got == pytest.approx(best, rel=1e-6)
        assert got > 0

    def test_positivity_random(self, rng):
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=5, n2=7, sigma=np.exp(rng.uniform(-0.5, 0.5)))
            assert submodularity_ratio(K, mu, SupportSet(), 2) > 0

    def test_lower_bounded_by_curvature_ratio(self, rng):
        # ratio at L over sets of size <= r is at least c_{|L|+r} / C_tilde_1
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=6, sigma=1.0)
            L = SupportSet((0, 3))
            r = 2
            gamma = submodularity_ratio(K, mu, L, r)
            c, _ = rsc_rsm_bounds(K, len(L) + r)
            _, C1 = rsc_rsm_bounds(K, 1)
            assert gamma >= c / C1 - 1e-9

    def test_degenerate_when_nothing_increases(self):
        K, mu = identity_instance([-0.5, -0.2])
        with pytest.raises(DegenerateDataError):
            submodularity_ratio(K, mu, SupportSet(), 2)


class TestRscRsmBounds:
    def test_identity_all_one(self):
        K, _ = identity_instance([0.5, 0.5, 0.5, 0.5])
        for k in range(1, 5):
            c, C = rsc_rsm_bounds(K, k)
            assert c == pytest.approx(1.0)
            assert C == pytest.approx(1.0)

    def test_k1_is_diagonal_extremes(self, rng):
        from protoselect.kernel import KernelMatrix

        diag = np.diag([0.5, 2.0, 1.25])
        K = KernelMatrix(entries=diag)
        c, C = rsc_rsm_bounds(K, 1)
        assert (c, C) == (0.5, 2.0)

    def test_matches_minor_enumeration(self, rng):
        # the batched spectra are bit-equal to one eigvalsh per minor, at every k
        for n2 in (6, 9):
            K, _ = gaussian_instance(rng, n1=4, n2=n2, sigma=1.0)
            for k in range(1, n2 + 1):
                mins, maxes = [], []
                for combo in itertools.combinations(range(n2), k):
                    eig = np.linalg.eigvalsh(entries_of(K)[np.ix_(combo, combo)])
                    mins.append(eig[0])
                    maxes.append(eig[-1])
                assert rsc_rsm_bounds(K, k) == (min(mins), max(maxes))

    def test_full_spectrum_path(self, rng):
        K, _ = gaussian_instance(rng, n1=4, n2=5, sigma=1.0)
        c, C = rsc_rsm_bounds(K, 5)
        eig = np.linalg.eigvalsh(entries_of(K))
        assert c == pytest.approx(float(eig[0]))
        assert C == pytest.approx(float(eig[-1]))


class TestVerifyGuarantee:
    def test_identity_instance_tight(self):
        K, mu = identity_instance([0.9, 0.6, 0.3, 0.2])
        row = verify_instance(K, mu, 2)
        assert row["satisfied"]
        assert row["gamma"] == pytest.approx(1.0, abs=1e-9)
        assert row["f_dash"] == pytest.approx(row["f_opt"], abs=1e-10)

    def test_m_equals_n2(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=5, sigma=1.0)
        row = verify_instance(K, mu, 5)
        assert row["satisfied"]
        assert row["f_dash"] == pytest.approx(row["f_opt"], abs=1e-9)

    def test_random_instances_hold(self, rng):
        for _ in range(20):
            K, mu, m = random_gaussian_instance(rng, max_n1=10, max_n2=8, max_m=3)
            row = verify_instance(K, mu, m)
            assert row["satisfied"]
            assert 0 < row["c"] <= row["C_tilde"]
            assert row["gamma"] > 0

    def test_verify_instance_includes_greedy(self, rng):
        K, mu, m = random_gaussian_instance(rng, max_n2=7)
        row = verify_instance(K, mu, m)
        assert row["satisfied"] and row["greedy_satisfied"]
        assert row["f_greedy"] >= row["f_dash"] - 1e-9 or True  # informational only
        assert row["greedy_bound"] <= row["f_opt"] + 1e-12

    def test_identity_generator(self, rng):
        K, mu, m = identity_kernel_instance(rng)
        row = verify_instance(K, mu, m)
        assert row["gamma"] == pytest.approx(1.0, abs=1e-9)
        assert row["satisfied"]

    def test_row_matches_report_schema(self, rng):
        schema = json.loads(
            resources.files("protoselect").joinpath("schemas/verify_report.schema.json").read_text()
        )
        assert set(schema["required"]) == set(schema["properties"])
        for _ in range(5):
            K, mu, m = random_gaussian_instance(rng, max_n2=7)
            row = verify_instance(K, mu, m)
            jsonschema.validate(row, schema)

    def test_guard_counts_every_subset_of_up_to_2m_rows(self, rng):
        # The table holds every subset of at most 2m of the 20 rows: at m = 7 that is
        # sum of C(20, k) for k <= 14, over the cap, though each enumeration alone is under.
        K, mu = gaussian_instance(rng, n1=5, n2=20)
        for m in (7, 13):
            with pytest.raises(GuardError, match="too many subsets"):
                verify_instance(K, mu, m)

    def test_vacuous_bound_is_degenerate(self):
        # c = 0 on the minors that hold the zero diagonal entry: no guarantee to check
        K, mu = synthetic_instance(np.diag([1.0, 1.0, 0.0]), [0.5, 0.4, 0.0])
        with pytest.raises(DegenerateDataError, match="c=0"):
            verify_instance(K, mu, 2)


class TestFiniteDifferenceCheck:
    def test_quadratic_is_tiny(self, rng):
        for _ in range(10):
            K, mu = gaussian_instance(rng, n1=6, n2=6, sigma=1.1)
            w = WeightVector(SupportSet((0, 2, 5)), rng.uniform(0.1, 1.0, 3), 6)
            assert finite_difference_check(K, mu, w, 1e-6) <= 1e-5

    def test_zero_weights_check_all_coordinates(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=5)
        err = finite_difference_check(K, mu, WeightVector.zeros(5), 1e-6)
        assert err <= 1e-5

    def test_stationary_point_absolute_error(self):
        K, mu = identity_instance([0.7, 0.4])
        w = WeightVector(SupportSet((0, 1)), np.array([0.7, 0.4]), 2)
        assert finite_difference_check(K, mu, w, 1e-6) <= 1e-8


class TestGammaOverPrefixes:
    def test_includes_empty_prefix(self, rng):
        K, mu = gaussian_instance(rng, n1=5, n2=6, sigma=1.0)
        res = proto_dash(K, mu, SelectionConfig(m=2))
        gamma = gamma_over_prefixes(K, mu, res.indices, 2)
        assert gamma <= submodularity_ratio(K, mu, SupportSet(), 2) + 1e-12
        assert gamma > 0


def counted_eigvalsh():
    """A patch of np.linalg.eigvalsh that counts its calls, and the mock that counts them."""
    counter = mock.Mock(wraps=np.linalg.eigvalsh)
    return mock.patch.object(np.linalg, "eigvalsh", counter), counter


class TestCertificate:
    """One spectrum of K settles every block's definiteness test where it can."""

    def test_certified_tables_equal_the_per_chunk_path(self):
        # The oracle_sweep pool's size grid, with its data drawn as the pool draws it.
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for n2 in range(2, 17):
                for m in range(1, min(4, n2) + 1):
                    d, n1 = int(rng.choice((2, 3))), int(rng.integers(2, 21))
                    spec = KernelSpec("gaussian", bandwidth=float(rng.uniform(0.5, 2.0)))
                    source = Dataset(rng.standard_normal((n2, d)))
                    target = Dataset(rng.standard_normal((n1, d)))
                    K, mu = kernel_matrix(source, spec), mean_map(target, source, spec)
                    depth = min(n2, 2 * m)
                    assert _certified(K, depth), (seed, n2, m)
                    certified = _lattice(K, mu, depth)
                    with mock.patch.object(oracle, "_certified", return_value=False):
                        per_chunk = _lattice(K, mu, depth)
                    assert certified.tobytes() == per_chunk.tobytes(), (seed, n2, m)

    def test_a_certified_table_runs_one_eigvalsh(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=12)
        patch, counter = counted_eigvalsh()
        with patch:
            _lattice(K, mu, 6)
        assert counter.call_count == 1
        # the per-chunk path: the spectrum of K, then one call per chunk of 256 subsets
        chunks = sum(-(-math.comb(12, k) // oracle._CHUNK) for k in range(1, 7))
        with patch, mock.patch.object(oracle, "_certified", return_value=False):
            _lattice(K, mu, 6)
        assert counter.call_count == 1 + chunks

    def test_the_margin_decides_the_path(self):
        instances = margin_instances()
        for (K, mu), certified in ((instances["below"], False), (instances["above"], True)):
            assert _certified(K, 2) is certified
            patch, counter = counted_eigvalsh()
            with patch:
                table = _lattice(K, mu, 2)
            assert counter.call_count == (1 if certified else 3)  # K, then sizes 1 and 2
            # every block passes its own test either side, so the closed form fills both
            t = float(entries_of(K)[1, 1])
            assert table.tolist() == [0.0, 0.18, t / 2, 0.18 + t / 2]

    def test_a_singular_gram_is_not_certified(self):
        K, _ = synthetic_instance(np.diag([1.0, 1.0, 0.0]), [0.5, 0.4, 0.1])
        assert not _certified(K, 1)
        rows = [0, 0, 1]
        K, _ = synthetic_instance(np.array([[1.0, 0.3], [0.3, 1.0]])[np.ix_(rows, rows)],
                                  [0.5, 0.5, 0.4])
        assert not _certified(K, 1)
