import numpy as np
import pytest

from protoselect import Dataset, InputError, KernelSpec, kernel_matrix, mean_map
from protoselect.nnqp import objective, solve_restricted
from protoselect.ranking import (AverageRanks, GraphExport, RankMatrix, average_ranks, export_graph,
                                 rank_sources)


def cluster(rng, center, n=20, std=0.05):
    return Dataset(center + rng.normal(scale=std, size=(n, 1)))


SPEC = KernelSpec("gaussian", bandwidth=1.0)


class TestRankSources:
    def test_identical_datasets_symmetric(self, rng):
        data = rng.normal(size=(15, 2))
        rm = rank_sources([Dataset(data), Dataset(data.copy())], 3, SPEC)
        assert rm.objective[0, 1] == pytest.approx(rm.objective[1, 0], abs=1e-9)
        assert rm.rank[0, 1] == rm.rank[1, 0] == 1

    def test_three_cluster_geometry(self, rng):
        near_a = cluster(rng, 0.0)
        near_b = cluster(rng, 0.1)
        far = cluster(rng, 10.0)
        rm = rank_sources([near_a, near_b, far], 3, SPEC, names=["a", "b", "far"])
        # the two near clusters pick each other first; the far one is last for both
        assert rm.rank[0, 1] == 1 and rm.rank[1, 0] == 1
        assert rm.rank[0, 2] == 2 and rm.rank[1, 2] == 2

    def test_rank_rows_are_permutations(self, rng):
        datasets = [Dataset(rng.normal(size=(10, 2))) for _ in range(3)]
        rm = rank_sources(datasets, 2, SPEC)
        for i in range(3):
            assert sorted(rm.rank[i, j] for j in range(3) if j != i) == [1, 2]

    def test_objective_matches_recomputation(self, rng):
        # independent re-evaluation of l at the reported support and target
        datasets = [Dataset(rng.normal(size=(12, 2))) for _ in range(3)]
        rm = rank_sources(datasets, 3, SPEC)
        from protoselect.selectors import SelectionConfig, proto_dash

        for j in range(3):
            K = kernel_matrix(datasets[j], SPEC)
            mu_self = mean_map(datasets[j], datasets[j], SPEC)
            support = proto_dash(K, mu_self, SelectionConfig(m=3)).indices
            for i in range(3):
                if i == j:
                    continue
                mu_i = mean_map(datasets[i], datasets[j], SPEC)
                w = solve_restricted(K, mu_i, support)
                assert rm.objective[i, j] == pytest.approx(objective(w, K, mu_i), abs=1e-9)

    def test_frozen_weights_mode(self, rng):
        datasets = [Dataset(rng.normal(size=(10, 2))) for _ in range(2)]
        frozen = rank_sources(datasets, 3, SPEC, reweight=False)
        refit = rank_sources(datasets, 3, SPEC, reweight=True)
        # refitting can only improve the cross objective on the same support
        assert refit.objective[0, 1] >= frozen.objective[0, 1] - 1e-9
        assert refit.objective[1, 0] >= frozen.objective[1, 0] - 1e-9

    def test_needs_two_datasets(self, rng):
        with pytest.raises(InputError):
            rank_sources([Dataset(rng.normal(size=(5, 2)))], 2, SPEC)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InputError):
            rank_sources(
                [Dataset(rng.normal(size=(5, 2))), Dataset(rng.normal(size=(5, 3)))],
                2,
                SPEC,
            )


class TestAverageRanks:
    def test_two_datasets_both_first(self, rng):
        data = [Dataset(rng.normal(size=(8, 2))) for _ in range(2)]
        avg = average_ranks(rank_sources(data, 2, SPEC))
        np.testing.assert_allclose(avg.values, [1.0, 1.0])

    def test_column_mean_arithmetic(self):
        rank = np.array(
            [
                [0, 1, 2, 3],
                [1, 0, 2, 3],
                [2, 1, 0, 3],
                [3, 1, 2, 0],
            ]
        )
        rm = RankMatrix(names=("a", "b", "c", "d"), objective=-rank)
        np.testing.assert_array_equal(rm.rank, rank)
        avg = average_ranks(rm)
        means = {n: v for n, v in zip(avg.names, avg.values)}
        assert means["b"] == pytest.approx(1.0)
        assert means["a"] == pytest.approx(2.0)
        assert means["c"] == pytest.approx(2.0)
        assert means["d"] == pytest.approx(3.0)
        # stable tie: "a" precedes "c"
        assert list(avg.names) == ["b", "a", "c", "d"]

    def test_matches_direct_mean(self, rng):
        datasets = [Dataset(rng.normal(size=(10, 2))) for _ in range(4)]
        rm = rank_sources(datasets, 2, SPEC)
        avg = average_ranks(rm)
        for name, value in zip(avg.names, avg.values):
            j = rm.names.index(name)
            want = np.mean([rm.rank[i, j] for i in range(4) if i != j])
            assert value == pytest.approx(want)
        assert np.all(avg.values >= 1.0) and np.all(avg.values <= 3.0)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_means_equal_the_loop_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        rm = RankMatrix(names=tuple(map(str, range(k))), objective=rng.normal(size=(k, k)))
        loop = np.array([sum(rm.rank[i, j] for i in range(k) if i != j) / (k - 1)
                         for j in range(k)])
        avg = average_ranks(rm)
        order = np.argsort(loop, kind="stable")
        assert avg.names == tuple(rm.names[j] for j in order)
        assert avg.values.tobytes() == loop[order].tobytes()


class TestExportGraph:
    def test_full_graph_is_complete(self, rng):
        datasets = [Dataset(rng.normal(size=(8, 2))) for _ in range(3)]
        rm = rank_sources(datasets, 2, SPEC)
        g = export_graph(rm, 2)
        assert len(g.data["edges"]) == 3 * 2

    def test_top1_has_one_edge_per_target(self, rng):
        datasets = [Dataset(rng.normal(size=(8, 2))) for _ in range(4)]
        rm = rank_sources(datasets, 2, SPEC)
        g = export_graph(rm, 1)
        assert len(g.data["edges"]) == 4
        assert all(e["rank"] == 1 for e in g.data["edges"])

    def test_deterministic_serialization(self, rng):
        datasets = [Dataset(rng.normal(size=(8, 2))) for _ in range(3)]
        rm = rank_sources(datasets, 2, SPEC)
        a = export_graph(rm, 2)
        b = export_graph(rm, 2)
        assert a.dot == b.dot
        assert a.data == b.data

    def test_dot_text(self):
        rm = RankMatrix(names=("a", 'say "b"', "c"), objective=[[0, 2, 1], [1, 0, 1], [3, 2, 0]])
        g = export_graph(rm, 1)
        assert g.dot == ('digraph ranking {\n'
                         '  "a" [label="a"];\n'
                         '  "say \\"b\\"" [label="say \\"b\\""];\n'
                         '  "c" [label="c"];\n'
                         '  "say \\"b\\"" -> "a" [label="1"];\n'
                         '  "a" -> "say \\"b\\"" [label="1"];\n'
                         '  "a" -> "c" [label="1"];\n'
                         '}\n')
        assert g == GraphExport(data=g.data)

    def test_dot_structure(self, rng):
        datasets = [Dataset(rng.normal(size=(8, 2))) for _ in range(2)]
        rm = rank_sources(datasets, 2, SPEC, names=["left", "right"])
        g = export_graph(rm, 1)
        assert g.dot.startswith("digraph ranking {")
        assert g.dot.rstrip().endswith("}")
        assert '"left" [label="left"];' in g.dot
        assert '->' in g.dot
        # every edge line carries its rank label
        for e in g.data["edges"]:
            assert f'"{e["from"]}" -> "{e["to"]}" [label="{e["rank"]}"];' in g.dot

    def test_rejects_bad_top_t(self, rng):
        datasets = [Dataset(rng.normal(size=(8, 2))) for _ in range(3)]
        rm = rank_sources(datasets, 2, SPEC)
        with pytest.raises(InputError):
            export_graph(rm, 3)


def reference_ranks(objective):
    """Row i ranks every j != i by (-objective[i, j], j), 1 first; the diagonal is 0."""
    k = objective.shape[0]
    rank = np.zeros((k, k), dtype=int)
    for i in range(k):
        ordered = sorted((j for j in range(k) if j != i), key=lambda j: (-objective[i, j], j))
        for pos, j in enumerate(ordered, start=1):
            rank[i, j] = pos
    return rank


class TestRankMatrixValidation:
    def test_tied_objectives_rank_in_dataset_order(self):
        rm = RankMatrix(names=("a", "b", "c", "d"), objective=np.zeros((4, 4)))
        np.testing.assert_array_equal(rm.rank, [[0, 1, 2, 3], [1, 0, 2, 3], [1, 2, 0, 3],
                                                [1, 2, 3, 0]])
        # a tie between -0.0 and 0.0, and a tie below a larger score
        rm = RankMatrix(names=("a", "b", "c"), objective=[[9.0, -0.0, 0.0], [5.0, 0.0, 5.0],
                                                          [1.0, 2.0, -7.0]])
        np.testing.assert_array_equal(rm.rank, [[0, 1, 2], [1, 0, 2], [2, 1, 0]])

    @pytest.mark.parametrize("k", range(2, 7))  # a RankMatrix needs two names at least
    def test_ranks_follow_the_objective(self, k):
        rng = np.random.default_rng(k)
        for objective in (rng.integers(-2, 3, size=(k, k)).astype(float), rng.normal(size=(k, k))):
            rm = RankMatrix(names=tuple(map(str, range(k))), objective=objective)
            assert rm.rank.dtype == np.dtype(int)
            np.testing.assert_array_equal(rm.rank, reference_ranks(objective))

    def test_objective_is_a_read_only_copy(self):
        objective = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])
        rm = RankMatrix(names=("a", "b", "c"), objective=objective)
        objective[0, 1] = 5.0
        assert rm.objective[0, 1] == 1.0 and rm.rank[0, 1] == 2
        with pytest.raises(ValueError):
            rm.objective[0, 1] = 5.0


    def test_average_ranks_requires_sorted(self):
        with pytest.raises(InputError):
            AverageRanks(names=("a", "b"), values=np.array([2.0, 1.0]))
