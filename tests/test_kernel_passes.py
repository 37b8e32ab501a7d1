"""The chunked kernel passes give the bits of one unchunked kernel block.

`mean_map` sums the kernel a chunk of rows at a time. `rank_sources` takes
one such pass per dataset against itself, and one per ordered pair of
datasets at the source's prototypes alone. Every output must equal, byte for
byte, the mean of the whole block written out below, and none may hold the
whole n1 x n2 block on the gaussian path. `rank_sources` is checked on one
core and with its passes split over two.
"""

import itertools
import operator
import os
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from protoselect import Dataset, KernelSpec, MeanMap, kernel, kernel_matrix
from protoselect.kernel import _CHUNK_ROWS, mean_map
from protoselect.nnqp import objective, solve_restricted
from protoselect.ranking import rank_sources
from protoselect.selectors import SelectionConfig, proto_dash

SIGMA = 1.3
SPECS = {"gaussian": KernelSpec("gaussian", bandwidth=SIGMA), "linear": KernelSpec("linear")}
ROWS = [1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 7, 300]


def block_mean(A, B, family):
    """Column mean of the whole kernel block between the rows of A and B."""
    if family == "gaussian":
        return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * SIGMA * SIGMA)).mean(axis=0)
    return (A @ B.T).mean(axis=0)


def layout(x, order):
    if order == "F":
        return np.asfortranarray(x)
    if order == "strided":
        wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
        wide[::2, ::3] = x
        return wide[::2, ::3]
    return np.ascontiguousarray(x)


def draw(n1, n2, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    return 2.0 * rng.standard_normal((n1, d)), 2.0 * rng.standard_normal((n2, d)) + 0.3


# Every row count on one side against one row, two rows and a 37-row other side.
SHAPES = sorted({(n, o) for n in ROWS for o in (1, 2, 37)} | {(o, n) for n in ROWS for o in (1, 2, 37)})


@pytest.mark.parametrize("family", SPECS)
@pytest.mark.parametrize("n1,n2", SHAPES)
def test_mean_maps_equal_the_whole_block(family, n1, n2):
    A, B = draw(n1, n2, seed=n1 * 1000 + n2)
    spec = SPECS[family]
    for left, right in itertools.product(("C", "F", "strided"), repeat=2):
        a, b = Dataset(layout(A, left)), Dataset(layout(B, right))
        ab, ba = (block_mean(x.values, y.values, family).tobytes() for x, y in ((a, b), (b, a)))
        assert mean_map(a, b, spec).entries.tobytes() == ab
        assert mean_map(b, a, spec).entries.tobytes() == ba


@pytest.mark.parametrize("family", SPECS)
@pytest.mark.parametrize("n", [1, 2, _CHUNK_ROWS + 1])
def test_self_mean_map_comes_with_the_gram(family, n):
    # The mean map rank_sources selects each dataset's prototypes against.
    X = draw(n, 1, seed=n)[0]
    mu = mean_map(Dataset(X), Dataset(X), SPECS[family])
    assert mu.entries.tobytes() == block_mean(X, X, family).tobytes()


def reference_rank(datasets, m, spec, reweight):
    """rank_sources as one whole-block mean map per ordered pair and per dataset."""
    k = len(datasets)
    family = spec.family
    obj = np.zeros((k, k))
    for j, source in enumerate(datasets):
        K = kernel_matrix(source, spec)
        mu_self = MeanMap(block_mean(source.values, source.values, family), n1=source.n)
        res = proto_dash(K, mu_self, SelectionConfig(m=min(m, source.n)))
        obj[j, j] = res.final_objective
        for i, target in enumerate(datasets):
            if i != j:
                mu_i = MeanMap(block_mean(target.values, source.values, family), n1=target.n)
                w = solve_restricted(K, mu_i, res.indices) if reweight else res.weights
                obj[i, j] = objective(w, K, mu_i)
    rank = np.zeros((k, k), dtype=int)
    for i in range(k):
        for pos, j in enumerate(sorted((j for j in range(k) if j != i),
                                       key=lambda j: (-obj[i, j], j)), start=1):
            rank[i, j] = pos
    return obj, rank


@pytest.mark.parametrize("family", SPECS)
@pytest.mark.parametrize("reweight", [True, False])
@pytest.mark.parametrize("cores", [1, 2])
def test_rank_sources_equals_per_pair_mean_maps(monkeypatch, family, reweight, cores):
    # With slabs of 2 columns, each pass over 4 or more source rows splits on 2 cores.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(kernel, "_MIN_SLAB", 2)
    rng = np.random.default_rng(17)
    sizes = [_CHUNK_ROWS + 9, 1, 40, 2 * _CHUNK_ROWS, 2]
    datasets = [Dataset(rng.standard_normal((n, 3)) + 0.4 * i) for i, n in enumerate(sizes)]
    spec = SPECS[family]
    rm = rank_sources(datasets, 4, spec, reweight=reweight)
    obj, rank = reference_rank(datasets, 4, spec, reweight)
    assert rm.objective.tobytes() == obj.tobytes()
    assert rm.rank.tobytes() == rank.tobytes()


def shifted_datasets():
    """Five 3-feature datasets of 73, 1, 40, 128 and 2 rows, each shifted from the last."""
    rng = np.random.default_rng(17)
    sizes = [_CHUNK_ROWS + 9, 1, 40, 2 * _CHUNK_ROWS, 2]
    return [Dataset(rng.standard_normal((n, 3)) + 0.4 * i) for i, n in enumerate(sizes)]


@pytest.mark.parametrize("reweight", [True, False])
def test_rank_sources_at_the_smallest_selections(reweight):
    datasets = shifted_datasets()
    # No prototypes: every score is 0, so each target ranks its sources by index.
    rm = rank_sources(datasets, 0, SPECS["gaussian"], reweight=reweight)
    assert rm.objective.tobytes() == np.zeros((5, 5)).tobytes()
    assert rm.rank.tobytes() == reference_rank(datasets, 0, SPECS["gaussian"], reweight)[1].tobytes()
    # The mean map at one prototype is one column, which numpy sums pairwise, not in
    # row order as a column of the whole block: the scores agree to roundoff only.
    for spec in SPECS.values():
        rm = rank_sources(datasets, 1, spec, reweight=reweight)
        obj, rank = reference_rank(datasets, 1, spec, reweight)
        np.testing.assert_allclose(rm.objective, obj, rtol=1e-12, atol=0)
        assert rm.rank.tobytes() == rank.tobytes()
    # The mean map of [[1], [-1]] is 0 at both rows, so it selects nothing and scores 0.
    datasets = [Dataset([[1.0], [-1.0]]), Dataset([[0.5], [2.0], [1.0]]), Dataset([[3.0]])]
    rm = rank_sources(datasets, 2, SPECS["linear"], reweight=reweight)
    assert not rm.objective[:, 0].any()
    obj, rank = reference_rank(datasets, 2, SPECS["linear"], reweight)
    assert (rm.objective.tobytes(), rm.rank.tobytes()) == (obj.tobytes(), rank.tobytes())


@pytest.mark.parametrize("m", [0, 1, 4])
def test_rank_sources_computes_the_scored_kernel_values_only(monkeypatch, m):
    # Each self mean map is n_j x n_j, each Gram computes its t_j prototype rows, and each
    # ordered pair computes target i at source j's t_j prototypes alone.
    datasets = shifted_datasets()
    sizes = [ds.n for ds in datasets]
    spec = SPECS["gaussian"]
    t = [len(proto_dash(kernel_matrix(ds, spec), mean_map(ds, ds, spec),
                        SelectionConfig(m=min(m, ds.n))).indices) for ds in datasets]
    computed = []

    def counted(*args, **kwargs):
        values = cross_kernel(*args, **kwargs)
        computed.append(values.size)
        return values

    cross_kernel = kernel._cross_kernel
    monkeypatch.setattr(kernel, "_cross_kernel", counted)
    rank_sources(datasets, m, spec)
    pairs = sum(n_i * t_j for i, n_i in enumerate(sizes) for j, t_j in enumerate(t) if i != j)
    assert sum(computed) == sum(n * n for n in sizes) + sum(map(operator.mul, t, sizes)) + pairs


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mean_map_holds_no_cross_kernel():
    target, source = (Dataset(x) for x in draw(2000, 1000, seed=3))
    cross_bytes = 8 * target.n * source.n
    assert peak_bytes(lambda: mean_map(target, source, SPECS["gaussian"])) < cross_bytes / 4


def test_rank_sources_holds_no_cross_kernel():
    # Neither a whole Gram nor a whole cross kernel: the lazy Grams hold the
    # rows the selections read, and the mean-map passes one chunk at a time.
    rng = np.random.default_rng(5)
    datasets = [Dataset(rng.standard_normal((1000, 5)) + 0.3 * i) for i in range(2)]
    gram_bytes = 8 * datasets[0].n * datasets[0].n
    peak = peak_bytes(lambda: rank_sources(datasets, 3, SPECS["gaussian"]))
    assert peak < gram_bytes / 4
