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
from protoselect.errors import DegenerateDataError, InputError
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
from helpers import (dense, entries_of, finite_difference_check, gaussian_instance,
                     identity_instance, identity_kernel_instance, margin_instances,
                     random_gaussian_instance, synthetic_instance)
import reference


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
        # a subset's key is an int64 bitmask: 62 rows are enumerable, 63 are not
        K, mu = identity_instance(np.ones(63))
        with pytest.raises(GuardError, match="n2=63 > 62"):
            exhaustive_optimal(K, mu, 1)
        K, mu = identity_instance(np.linspace(0.1, 1.0, 62))
        assert exhaustive_optimal(K, mu, 2)[0].indices == (60, 61)
        # C(20, 14) is under the cap, but sizes 1..14 together are over it
        K, mu = identity_instance(np.ones(20))
        with pytest.raises(GuardError):
            exhaustive_optimal(K, mu, 14)

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

    def test_guard_counts_the_subsets_the_table_holds(self, rng):
        # At m = 7 of 20 rows the table holds every subset of at most 7 rows, 137 979 of
        # them, and, for each selector's 7 picks, every subset of the picks joined with up to
        # 7 other rows: 605 956 more of at least 8 rows. The guard adds the two selectors'
        # counts, 1 349 891, over the cap, though the subsets of at most 7 rows and each
        # selector's set alone are under it.
        K, mu = gaussian_instance(rng, n1=5, n2=20)
        with pytest.raises(GuardError, match="too many subsets to enumerate: 1349891 > "):
            verify_instance(K, mu, 7)
        # One pick set's count is exact: the guard's count is the number of subsets held.
        counted = mock.Mock(wraps=oracle._guard_subsets)
        with mock.patch.object(oracle, "_guard_subsets", counted):
            table = oracle._lattice(K, mu, 2, (SupportSet((3, 1, 4)),), 2)
        held = sum(len(keys) for keys, _ in table) - 1  # the empty set is not counted
        assert counted.call_args.args == (20, held)

    def test_a_bound_over_the_cap_refuses_before_any_key_is_made(self, rng):
        # 62 rows at m = 6: the bound is about 1.3e9 subsets, and no subset is enumerated
        K, mu = gaussian_instance(rng, n1=5, n2=62)
        refuse = mock.Mock(side_effect=AssertionError("a subset was enumerated"))
        with (mock.patch.object(oracle, "_combinations", refuse),
              mock.patch.object(oracle, "_masks", refuse),
              pytest.raises(GuardError, match="too many subsets")):
            verify_instance(K, mu, 6)
        assert not refuse.called

    def test_m_and_the_guard_are_checked_before_either_selector_runs(self, rng, monkeypatch):
        refuse = mock.Mock(side_effect=AssertionError("a selector ran"))
        monkeypatch.setattr(oracle, "proto_dash", refuse)
        monkeypatch.setattr(oracle, "proto_greedy", refuse)
        K, mu = gaussian_instance(rng, n1=4, n2=5)
        for m, match in ((0, "m must be at least 1"), (6, "m must be at most 5")):
            with pytest.raises(InputError, match=match):
                verify_instance(K, mu, m)
        with pytest.raises(GuardError, match="n2=63 > 62"):
            verify_instance(*gaussian_instance(rng, n1=4, n2=63), 1)
        # the subsets of at most 6 of 40 rows alone pass the cap
        count = sum(math.comb(40, k) for k in range(1, 7))
        with pytest.raises(GuardError, match=f"too many subsets to enumerate: {count} > "):
            verify_instance(*gaussian_instance(rng, n1=4, n2=40), 6)
        assert not refuse.called

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

    def test_the_report_reads_what_the_public_readers_return(self):
        # verify_instance reads one table shared by f_opt and both selectors' ratios; each
        # public reader builds a table of its own. Every entry a table holds has the bits a
        # table of every subset gives it, so the values are equal, not merely close, and
        # gamma over the prefixes is the least ratio at any prefix where one is defined.
        rng = np.random.default_rng(7)
        for draw in range(60):
            K, mu, m = random_gaussian_instance(rng)
            report = verify_instance(K, mu, m)
            assert report["f_opt"] == exhaustive_optimal(K, mu, m)[1], draw
            for key, select in (("gamma", proto_dash), ("gamma_greedy", proto_greedy)):
                order = select(K, mu, SelectionConfig(m=m)).indices
                gamma = gamma_over_prefixes(K, mu, order, m)
                assert report[key] == gamma, (draw, key)
                ratios = []
                for cut in range(len(order) + 1):
                    try:
                        ratios.append(submodularity_ratio(K, mu, SupportSet(order.indices[:cut]), m))
                    except DegenerateDataError:
                        continue
                assert gamma == min(ratios), (draw, key)


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
                    certified = dense(_lattice(K, mu, depth), n2)
                    with mock.patch.object(oracle, "_certified", return_value=False):
                        per_chunk = dense(_lattice(K, mu, depth), n2)
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
            assert dense(table, 2).tolist() == [0.0, 0.18, t / 2, 0.18 + t / 2]

    def test_a_singular_gram_is_not_certified(self):
        K, _ = synthetic_instance(np.diag([1.0, 1.0, 0.0]), [0.5, 0.4, 0.1])
        assert not _certified(K, 1)
        rows = [0, 0, 1]
        K, _ = synthetic_instance(np.array([[1.0, 0.3], [0.3, 1.0]])[np.ix_(rows, rows)],
                                  [0.5, 0.5, 0.4])
        assert not _certified(K, 1)

    def test_more_than_20_rows_take_the_per_chunk_path(self, rng):
        # The eigensolver's error bound is stated up to 20 rows, so a wider K is not
        # certified, without a spectrum of K, and each chunk of each size runs eigvalsh.
        K, mu = gaussian_instance(rng, n1=10, n2=40)
        picks = (SupportSet((7, 3, 31)), SupportSet((7, 12, 3)))
        patch, counter = counted_eigvalsh()
        with patch:
            assert not _certified(K, 6)
            assert counter.call_count == 0
            table = _lattice(K, mu, 3, picks, 3)
        assert counter.call_count == sum(-(-len(keys) // oracle._CHUNK) for keys, _ in table[1:])


def held_by_definition(n2, full, picks, r):
    """How many subsets of each size a table holds, counted from the definition."""
    counts = [0] * (n2 + 1)
    for size in range(n2 + 1):
        for S in itertools.combinations(range(n2), size):
            if size <= full or any(len(set(S) - set(P)) <= r for P in picks):
                counts[size] += 1
    while counts[-1] == 0:
        counts.pop()
    return counts


class TestDemandTable:
    """The table holds only the subsets its readers read, keyed by sorted int64 bitmasks."""

    def test_held_subsets_per_size(self, rng):
        K, mu = gaussian_instance(rng, n1=6, n2=12)
        cases = [
            # (full, picks, r): the held count of each size, from the empty set up
            ((3, ((0, 1, 2), (2, 5, 7)), 3), [1, 12, 66, 220, 460, 456, 161]),
            ((3, ((4, 9, 1),), 3), [1, 12, 66, 220, 369, 288, 84]),
            ((0, ((6, 2),), 2), [1, 12, 66, 100, 45]),
            ((4, (), 0), [1, 12, 66, 220, 495]),
        ]
        for (full, picks, r), counts in cases:
            table = _lattice(K, mu, full, tuple(map(SupportSet, picks)), r)
            assert [len(keys) for keys, _ in table] == counts
            assert counts == held_by_definition(12, full, picks, r)
            for k, (keys, values) in enumerate(table):
                assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)
                assert all(bin(key).count("1") == k for key in keys.tolist())
        # every value equals the full table's at the same subset
        picks = (SupportSet((0, 1, 2)), SupportSet((2, 5, 7)))
        held, full = dense(_lattice(K, mu, 3, picks, 3), 12), dense(_lattice(K, mu, 6), 12)
        kept = ~np.isnan(held)
        assert held[kept].tobytes() == full[kept].tobytes()

    def test_the_oracle_sweep_pool_holds_178997_subsets(self):
        # The seed-1 oracle_sweep pool: tables of every subset of at most 2m rows would hold
        # 437 481 nonempty subsets, the sets the reports read hold 178 997.
        from perfbench.workloads import WORKLOADS

        w = WORKLOADS["oracle_sweep"]
        held = []

        def counted(*args, **kwargs):
            table = _lattice(*args, **kwargs)
            held.append(sum(len(keys) for keys, _ in table) - 1)
            return table

        with mock.patch.object(oracle, "_lattice", counted):
            for target, source, spec, m in w.make_pool(np.random.default_rng(1), w.sizes):
                verify_instance(kernel_matrix(source, spec), mean_map(target, source, spec), m)
        assert (len(held), sum(held)) == (369, 178_997)

    def test_a_wide_instance_meets_both_bounds(self):
        # 40 rows, m = 3: past the old 20-row limit, and f_opt is the NNLS optimum of the
        # dense reference on the subset the table names.
        rng = np.random.default_rng(40)
        source, target = rng.normal(size=(40, 2)), rng.normal(size=(12, 2))
        spec = KernelSpec("gaussian", bandwidth=1.0)
        data = Dataset(source)
        K, mu = kernel_matrix(data, spec), mean_map(Dataset(target), data, spec)
        row = verify_instance(K, mu, 3)
        assert row["satisfied"] and row["greedy_satisfied"]
        best, f_opt = exhaustive_optimal(K, mu, 3)
        assert f_opt == row["f_opt"]
        L = list(best)
        gram, mean = reference.gram(source, 1.0), reference.mean_map(target, source, 1.0)
        w = reference.weights(gram, mean, L)
        assert np.all(w > 0)
        assert reference.objective(gram, mean, L, w) == pytest.approx(f_opt, rel=1e-10)
        # ProtoDash falls short of the optimum here, so f_opt is not its own value read back
        assert row["f_dash"] < f_opt * (1 - 1e-3)
