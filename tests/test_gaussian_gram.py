"""The gaussian Gram computes a row when it is first read, with the bits of the whole Gram.

`kernel_matrix` returns a GaussianGram for the gaussian family. In whatever
order its rows are read, every read must equal, byte for byte, the same read
of the dense Gram built whole (`dense_gram`); each row is checked for
finiteness and symmetry once, when it is computed; and a selection holds only
the rows it reads.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from protoselect import Dataset, InputError, KernelSpec, NumericError, kernel_matrix, mean_map
from protoselect import kernel
from protoselect.kernel import GaussianGram, KernelMatrix, _cross_kernel
from protoselect.selectors import SelectionConfig, criticisms, l2c_equal, proto_dash, proto_greedy
from helpers import entries_of


def dense_gram(X, spec):
    """The gaussian Gram built whole, with 1 + jitter on the diagonal."""
    entries = _cross_kernel(X, X, spec)
    np.fill_diagonal(entries, 1.0 + spec.jitter)
    return KernelMatrix(entries=entries)


def source_rows(n, seed, duplicates=False):
    X = np.random.default_rng(seed).standard_normal((n, 3))
    if duplicates:
        X[n // 2] = X[0]
        X[n - 1] = X[0]
    return X


# (rows, jitter, duplicate rows)
FIXTURES = [(1, 1e-10, False), (2, 1e-10, False), (64, 1e-10, False), (65, 0.0, False),
            (300, 1e-10, False), (40, 1e-10, True), (40, 0.0, True)]


def read_orders(n, seed):
    """Index lists read one after another: scattered, repeated and reversed."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    scattered = [perm[i:i + 7] for i in range(0, n, 7)]
    repeated = [[0, 0], [n - 1, 0, n - 1], [n // 2, 0, n // 2, n // 2]]
    reversed_ = [np.arange(n)[::-1][i:i + 5] for i in range(0, n, 5)]
    return {"scattered": scattered, "repeated": repeated + scattered, "reversed": reversed_,
            "all_at_once": [perm]}


@pytest.mark.parametrize("n,jitter,duplicates", FIXTURES)
def test_reads_equal_the_dense_gram(n, jitter, duplicates):
    X = source_rows(n, seed=n, duplicates=duplicates)
    spec = KernelSpec("gaussian", bandwidth=1.1, jitter=jitter)
    dense = dense_gram(X, spec)
    for order, reads in read_orders(n, seed=n).items():
        K = kernel_matrix(Dataset(X), spec)
        assert isinstance(K, GaussianGram) and K.n2 == n
        assert K.diag().tobytes() == dense.diag().tobytes()
        for idx in reads:
            rows, block = K.rows(idx), K.block(idx)
            assert rows.flags.c_contiguous and block.flags.c_contiguous
            assert rows.tobytes() == dense.rows(idx).tobytes(), order
            assert block.tobytes() == dense.block(idx).tobytes(), order
        assert entries_of(K).tobytes() == dense.entries.tobytes(), order


def test_selections_equal_those_on_the_dense_gram():
    rng = np.random.default_rng(8)
    source = Dataset(rng.standard_normal((300, 4)))
    target = Dataset(rng.standard_normal((200, 4)) + 0.3)
    spec = KernelSpec("gaussian", bandwidth=2.0)
    mu = mean_map(target, source, spec)

    def run(K):
        dash = proto_dash(K, mu, SelectionConfig(m=30))
        crit = criticisms(dash, K, mu, 10)
        out = [crit.indices, crit.scores.tobytes()]
        for res in (dash, proto_greedy(K, mu, SelectionConfig(m=6)),
                    l2c_equal(K, mu, SelectionConfig(m=10))):
            out += [res.indices.indices, res.weights.weights.tobytes(),
                    res.objective_trace.tobytes(), res.gradient_trace.tobytes()]
        return out

    assert run(kernel_matrix(source, spec)) == run(dense_gram(source.values, spec))


def test_rows_read_in_pick_order_are_a_read_only_view():
    K = kernel_matrix(Dataset(source_rows(50, seed=3)), KernelSpec("gaussian", bandwidth=1.0))
    support = [7, 2, 41]
    for size in range(1, 4):
        K.rows(support[:size])
    view = K.rows(support)
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 2.0
    assert K.rows([2, 7]).flags.writeable  # not in pick order: a copy


def corrupt_once(monkeypatch, damage):
    """Make the next computed block of rows come out damaged."""
    original = kernel._cross_kernel

    def damaged(*args, **kwargs):
        out = original(*args, **kwargs)
        damage(out)
        monkeypatch.setattr(kernel, "_cross_kernel", original)
        return out

    monkeypatch.setattr(kernel, "_cross_kernel", damaged)


def test_checks_fire_on_a_corrupted_buffer(monkeypatch):
    X = source_rows(10, seed=4)
    spec = KernelSpec("gaussian", bandwidth=1.0)
    dense = dense_gram(X, spec)
    K = kernel_matrix(Dataset(X), spec)

    # a stored row changed after it was checked, seen by the next row computed
    K.rows([0, 1])
    K._buf[1, 4] += 1e-3
    with pytest.raises(InputError, match="exactly symmetric"):
        K.rows([4])
    K._buf[1, 4] -= 1e-3

    # two rows computed together that disagree with each other
    corrupt_once(monkeypatch, lambda rows: rows.__setitem__((0, 3), rows[0, 3] + 1e-3))
    with pytest.raises(InputError, match="exactly symmetric"):
        K.rows([2, 3])

    # a computed row that is not finite
    corrupt_once(monkeypatch, lambda rows: rows.__setitem__((0, 9), np.nan))
    with pytest.raises(NumericError, match="non-finite"):
        K.block([5, 6])

    # a refused row is never stored: the next read computes it afresh
    assert entries_of(K).tobytes() == dense.entries.tobytes()


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_proto_dash_holds_only_the_rows_it_reads():
    rng = np.random.default_rng(11)
    n2 = 2000
    source, target = Dataset(rng.standard_normal((n2, 5))), Dataset(rng.standard_normal((300, 5)))
    spec = KernelSpec("gaussian", bandwidth=float(np.sqrt(5)))
    mu = mean_map(target, source, spec)
    peak = peak_bytes(lambda: proto_dash(kernel_matrix(source, spec), mu, SelectionConfig(m=20)))
    assert peak < 8 * n2 * n2 / 10


def test_threads_share_one_gram():
    X = source_rows(120, seed=5, duplicates=True)
    spec = KernelSpec("gaussian", bandwidth=0.9)
    dense = dense_gram(X, spec)
    K = kernel_matrix(Dataset(X), spec)

    def reader(seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            idx = rng.choice(120, size=int(rng.integers(1, 6)), replace=False)
            assert K.rows(idx).tobytes() == dense.rows(idx).tobytes()
            assert K.block(idx).tobytes() == dense.block(idx).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(reader, seed) for seed in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    held = K._held[:K._filled]
    assert len(set(held.tolist())) == held.size  # no row was filled twice
    assert np.array_equal(K._slot[held], np.arange(held.size))


def test_only_the_gaussian_family_is_lazy():
    data = Dataset(source_rows(5, seed=6))
    assert isinstance(kernel_matrix(data, KernelSpec("linear")), KernelMatrix)
    with pytest.raises(InputError, match="gaussian"):
        GaussianGram(data, KernelSpec("linear"))
