"""The chunked kernel passes give the bits of one unchunked kernel block.

`mean_map` and the pair pass (`kernel._pair_mean_maps`) sum the kernel a
chunk of rows at a time, and `rank_sources` takes one such pass per
unordered pair of datasets. Every output must equal, byte for byte, the
mean of the whole block written out below, and none may hold the whole
n1 x n2 block on the gaussian path.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from protoselect import Dataset, KernelSpec, MeanMap, kernel_matrix
from protoselect.kernel import _CHUNK_ROWS, _gram_and_self_mean_map, _pair_mean_maps, mean_map
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
        pair = _pair_mean_maps(a, b, spec)
        assert (pair[0].entries.tobytes(), pair[1].entries.tobytes()) == (ab, ba)
        assert (pair[0].n1, pair[1].n1) == (n1, n2)


@pytest.mark.parametrize("family", SPECS)
@pytest.mark.parametrize("n", [1, 2, _CHUNK_ROWS + 1])
def test_self_mean_map_comes_with_the_gram(family, n):
    X = draw(n, 1, seed=n)[0]
    K, mu = _gram_and_self_mean_map(Dataset(X), SPECS[family])
    assert K.entries.tobytes() == kernel_matrix(Dataset(X), SPECS[family]).entries.tobytes()
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
@pytest.mark.parametrize("threads", [1, 2])
def test_rank_sources_equals_per_pair_mean_maps(family, reweight, threads):
    rng = np.random.default_rng(17)
    sizes = [_CHUNK_ROWS + 9, 1, 40, 2 * _CHUNK_ROWS, 2]
    datasets = [Dataset(rng.standard_normal((n, 3)) + 0.4 * i) for i, n in enumerate(sizes)]
    spec = SPECS[family]
    rm = rank_sources(datasets, 4, spec, reweight=reweight, threads=threads)
    obj, rank = reference_rank(datasets, 4, spec, reweight)
    assert rm.objective.tobytes() == obj.tobytes()
    assert rm.rank.tobytes() == rank.tobytes()


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
    # The two Grams are the only n x n arrays rank_sources needs to hold.
    rng = np.random.default_rng(5)
    datasets = [Dataset(rng.standard_normal((1000, 5)) + 0.3 * i) for i in range(2)]
    gram_bytes = sum(8 * ds.n * ds.n for ds in datasets)
    cross_bytes = 8 * datasets[0].n * datasets[1].n
    peak = peak_bytes(lambda: rank_sources(datasets, 3, SPECS["gaussian"]))
    assert peak < gram_bytes + cross_bytes / 2
