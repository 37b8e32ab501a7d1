"""The kernel passes agree with one unchunked kernel block to a stated bound.

`mean_map` computes the gaussian kernel a tile of rows at a time from one
GEMM of centred, augmented rows, and the linear kernel as the target's mean
row against each source row. `rank_sources` takes one such pass per
dataset against itself, which computes each gaussian pair once, and one per
ordered pair of datasets at the source's prototypes alone. Every output must
lie within `mean_map`'s stated rounding bound of the mean of the whole block
written out below, on rows near the origin and on rows shifted by 1e6, and
none may hold the whole n1 x n2 block. The C, F and
strided layouts of one input give the same bits. `rank_sources` is checked
on one core and with its passes split over two. Below
`kernel._GEMM_MIN_WORK` the mean map computes its tiles with cdist, so the
tests lower it to 0 where they check the GEMM.
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
SHIFTS = [0.0, 1e6]
U = np.finfo(float).eps / 2


def gamma(k):
    return k * U / (1 - k * U)


def block_mean(A, B, family):
    """Column mean of the whole kernel block between the rows of A and B."""
    if family == "gaussian":
        return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * SIGMA * SIGMA)).mean(axis=0)
    return (A @ B.T).mean(axis=0)


def gemm_bound(A, B, sigma=SIGMA):
    """How far each entry of the gaussian mean_map(A, B) may lie from block_mean(A, B).

    mean_map's docstring bounds its exponent's error by delta =
    4 gamma_(d+2) (|z| + |y|)^2 / (2 sigma^2) plus an underflow term, for the
    rows z of B and y of A centred at B's mean. cdist's exponent errs by at
    most gamma_(d+5) of itself, each np.exp by 4 ulp, and each sum of n1
    positive values by gamma_n1 of itself, plus the division by n1.
    """
    n1, d = A.shape
    centre = B.mean(axis=0)
    norms = np.add.outer(np.linalg.norm(A - centre, axis=1), np.linalg.norm(B - centre, axis=1))
    width = 2.0 * sigma * sigma
    exponent = cdist(A, B, "sqeuclidean") / width
    delta = 4 * gamma(d + 2) * (norms * (1 + 8 * U)) ** 2 / width + (2 * d + 2) * 2.0 ** -1073 / width
    k = np.exp(-exponent)
    apart = k * np.expm1(delta + 2 * gamma(d + 5) * exponent + 40 * U)
    return (1 + 8 * U) * (apart.mean(axis=0) + 4 * (gamma(n1) + 2 * U) * k.mean(axis=0)) + 2.0 ** -1060


def linear_bound(A, B):
    """How far each entry of the linear mean_map(A, B) may lie from block_mean(A, B).

    Each term a_ik b_jk / n1 passes through at most n1 + d roundings in either
    (`mean_map`'s docstring, and Higham 2002, §3.1 for the block's GEMM and
    mean), so each lies within gamma_(n1 + d) M_j of the exact mean, M_j the
    mean over the rows of A of sum_k |a_ik b_jk|; two more roundings cover
    the computed M_j.
    """
    n1, d = A.shape
    M = (np.abs(A) @ np.abs(B).T).mean(axis=0)
    return 2 * gamma(n1 + d + 2) * M + 2.0 ** -1060


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


@pytest.fixture
def gemm_tiles(monkeypatch):
    """Every gaussian mean map runs the GEMM, whatever its size; returns the list of
    (rows, columns) of each GEMM tile computed."""
    tiles = []
    gemm = kernel._gemm

    def counted(left, right, out):
        tiles.append(out.shape)
        return gemm(left, right, out)

    monkeypatch.setattr(kernel, "_GEMM_MIN_WORK", 0)
    monkeypatch.setattr(kernel, "_gemm", counted)
    return tiles


def assert_within_bound(target, source, family):
    """mean_map(target, source) against the whole block: within gemm_bound for the
    gaussian family, within linear_bound for the linear one."""
    got = mean_map(target, source, SPECS[family]).entries
    want = block_mean(target.values, source.values, family)
    bound = (gemm_bound if family == "gaussian" else linear_bound)(target.values, source.values)
    assert np.all(np.abs(got - want) <= bound)
    return got


def tiles(n1, n2):
    """The GEMM tiles of a mean map of n1 target rows at n2 source rows."""
    return -(-n2 // _CHUNK_ROWS) * -(-n1 // kernel._TILE_COLS)


def self_tiles(n):
    """The (rows, columns) of each tile of a self mean map of n rows: each chunk's tiles
    run from the chunk's own first row to the last row."""
    return [(min(_CHUNK_ROWS, n - start), min(kernel._TILE_COLS, n - col))
            for start in range(0, n, _CHUNK_ROWS) for col in range(start, n, kernel._TILE_COLS)]


# Every row count on one side against one row, two rows and a 37-row other side.
SHAPES = sorted({(n, o) for n in ROWS for o in (1, 2, 37)} | {(o, n) for n in ROWS for o in (1, 2, 37)})


@pytest.mark.parametrize("family", SPECS)
@pytest.mark.parametrize("n1,n2", SHAPES)
def test_mean_maps_equal_the_whole_block(gemm_tiles, family, n1, n2):
    for shift, left, right in itertools.product(SHIFTS, *[("C", "F", "strided")] * 2):
        A, B = (x + shift for x in draw(n1, n2, seed=n1 * 1000 + n2))
        a, b = Dataset(layout(A, left)), Dataset(layout(B, right))
        del gemm_tiles[:]
        ab, ba = assert_within_bound(a, b, family), assert_within_bound(b, a, family)
        if (left, right) == ("C", "C"):
            bits = ab.tobytes(), ba.tobytes()
        assert (ab.tobytes(), ba.tobytes()) == bits  # a layout changes no bit
        # Centred at the source's mean, rows shifted by 1e6 still take the GEMM.
        assert len(gemm_tiles) == (tiles(n1, n2) + tiles(n2, n1) if family == "gaussian" else 0)


@pytest.mark.parametrize("family", SPECS)
@pytest.mark.parametrize("n", [1, 2, _CHUNK_ROWS + 1, 2000])
def test_self_mean_map_comes_with_the_gram(gemm_tiles, family, n):
    # The mean map rank_sources selects each dataset's prototypes against. Each chunk
    # computes its tiles from its own first row on: its diagonal block whole, and every
    # other pair once, so a self map computes sum over its chunks of rows x (n - start)
    # kernel values, not n x n.
    for shift in SHIFTS:
        X = Dataset(draw(n, 1, seed=n)[0] + shift)
        assert_within_bound(X, X, family)
    assert sorted(gemm_tiles) == sorted(2 * self_tiles(n) if family == "gaussian" else [])
    if family == "gaussian":
        values = {1: 1, 2: 4, _CHUNK_ROWS + 1: 64 * 65 + 1, 2000: 2_063_616}[n]
        assert sum(r * c for r, c in gemm_tiles) == 2 * values


@pytest.mark.parametrize("family", SPECS)
@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("min_slab", [512, _CHUNK_ROWS, 100], ids=["default", "band64", "band128"])
def test_self_mean_maps_equal_the_whole_block(monkeypatch, gemm_tiles, family, n, min_slab):
    # A self map adds each tile's columns past its chunk's diagonal block into the
    # partial of the chunk's band, bands of _MIN_SLAB rows rounded up to whole chunks,
    # and adds the partials to the rows' own sums in band order. Lowered, _MIN_SLAB puts
    # band edges inside the larger inputs. Each layout gives the same bits.
    monkeypatch.setattr(kernel, "_MIN_SLAB", min_slab)
    for shift in SHIFTS:
        X = draw(n, 1, seed=n + 7)[0] + shift
        got = {}
        for order in ("C", "F", "strided"):
            del gemm_tiles[:]
            ds = Dataset(layout(X, order))
            got[order] = assert_within_bound(ds, ds, family).tobytes()
            assert sorted(gemm_tiles) == sorted(self_tiles(n) if family == "gaussian" else [])
        assert got["F"] == got["strided"] == got["C"]


@pytest.mark.parametrize("case", ["within", "past", "huge", "wide", "tiny", "far"])
def test_the_gemm_runs_only_where_its_bound_holds(gemm_tiles, case):
    # mean_map takes the GEMM only where 4 gamma_(d+2) (R_source + R_target)^2 / (2 sigma^2),
    # its bound on every exponent's error, is at most _GEMM_TOL, where no row's norm may
    # pass _NORM_CUT, and where 2 sigma^2 lies in [2^-1022, 2^1022], so that its reciprocal,
    # the GEMM's factor, is normal: at sigma = 2^511 it is 2^1023. Bandwidths at 0.75 and
    # 1.5 times the tolerance's edge fall on either side of it.
    rng = np.random.default_rng(11)
    source, target = rng.standard_normal((70, 3)), rng.standard_normal((50, 3)) + 0.5
    if case == "far":  # past 2^510, yet the exponents' bound holds at this width
        target[0, 0] = 2.0 ** 511
    centre = source.mean(axis=0)
    reach = sum(kernel._augmented(x, centre)[1].max() for x in (source, target))
    edge = np.sqrt(4 * gamma(5) * reach ** 2 / (2 * kernel._GEMM_TOL))  # sigma at the edge
    sigma = {"within": edge / np.sqrt(0.75), "past": edge / np.sqrt(1.5), "huge": 1e200,
             "wide": 2.0 ** 511, "tiny": 1e-200, "far": 2.0 ** 509}[case]
    got = mean_map(Dataset(target), Dataset(source), KernelSpec("gaussian", bandwidth=sigma))
    assert bool(gemm_tiles) == (case == "within")
    if case in ("huge", "tiny"):
        assert got.entries.tobytes() == np.full(70, 1.0 if case == "huge" else 0.0).tobytes()
    else:
        want = np.exp(-cdist(target, source, "sqeuclidean") / (2 * sigma * sigma)).mean(axis=0)
        assert np.all(np.abs(got.entries - want) <= gemm_bound(target, source, sigma))


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
def test_rank_sources_equals_per_pair_mean_maps(monkeypatch, gemm_tiles, family, reweight, cores):
    # With slabs of 2 rows, each pass over 4 or more source rows splits on 2 cores.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(kernel, "_MIN_SLAB", 2)
    spec = SPECS[family]
    # A linear Gram of rows shifted by 1e6 does not factor (ROADMAP item 4).
    for shift in SHIFTS if family == "gaussian" else SHIFTS[:1]:
        datasets = [Dataset(ds.values + shift) for ds in shifted_datasets()]
        rm = rank_sources(datasets, 4, spec, reweight=reweight)
        obj, rank = reference_rank(datasets, 4, spec, reweight)
        # The mean maps lie within their bound, about 1e-14 of an entry here.
        np.testing.assert_allclose(rm.objective, obj, rtol=1e-12, atol=0)
        assert rm.rank.tobytes() == rank.tobytes()
    assert bool(gemm_tiles) == (family == "gaussian")


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
    np.testing.assert_allclose(rm.objective, obj, rtol=1e-12, atol=0)
    assert rm.rank.tobytes() == rank.tobytes()


@pytest.mark.parametrize("m", [0, 1, 4])
def test_rank_sources_computes_the_scored_kernel_values_only(monkeypatch, m):
    # Each self mean map computes each chunk's rows from the chunk's first row on, each
    # Gram computes its t_j prototype rows, and each ordered pair computes target i at
    # source j's t_j prototypes alone.
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
    own = sum(r * c for n in sizes for r, c in self_tiles(n))
    assert own == 64 * 73 + 9 * 9 + 1 + 40 * 40 + 64 * 128 + 64 * 64 + 2 * 2
    assert sum(computed) == own + sum(map(operator.mul, t, sizes)) + pairs


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


def test_linear_mean_map_holds_no_cross_kernel():
    # The target's mean row against the source rows: one row of n2 values, for a cross
    # map and for a self map alike, where the whole block is 32 MB.
    target, source = (Dataset(x) for x in draw(2000, 2000, seed=4))
    for a, b in ((target, source), (source, source)):
        assert peak_bytes(lambda: mean_map(a, b, SPECS["linear"])) < 8 * a.n * b.n / 100


def test_self_mean_map_holds_one_partial_a_band():
    # Beyond the tile buffers a cross map of the same rows holds, a self map holds one
    # partial of at most n floats for each band of _MIN_SLAB rows: 4 at n = 2000.
    X = Dataset(draw(2000, 1, seed=3)[0])
    copy, bands = Dataset(X.values), -(-X.n // kernel._MIN_SLAB)
    cross = peak_bytes(lambda: mean_map(copy, X, SPECS["gaussian"]))
    own = peak_bytes(lambda: mean_map(X, X, SPECS["gaussian"]))
    assert bands == 4 and own <= cross + bands * 8 * X.n


def test_rank_sources_holds_no_cross_kernel():
    # Neither a whole Gram nor a whole cross kernel: the lazy Grams hold the
    # rows the selections read, and the mean-map passes one chunk at a time.
    rng = np.random.default_rng(5)
    datasets = [Dataset(rng.standard_normal((1000, 5)) + 0.3 * i) for i in range(2)]
    gram_bytes = 8 * datasets[0].n * datasets[0].n
    peak = peak_bytes(lambda: rank_sources(datasets, 3, SPECS["gaussian"]))
    assert peak < gram_bytes / 4
