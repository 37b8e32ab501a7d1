"""The lazy Gram computes a row when it is first read, with the bits of the whole Gram.

`kernel_matrix` returns a LazyGram for both kernel families, and each test
here runs on both. In whatever order its rows are read, every read must
equal, byte for byte, the same read of the dense Gram built whole
(`dense_gram`); each row is checked for finiteness and symmetry once, when
it is computed; and a selection holds only the rows it reads.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from protoselect import Dataset, InputError, KernelSpec, NumericError, kernel_eval, kernel_matrix
from protoselect import kernel, mean_map
from protoselect.kernel import KernelMatrix, LazyGram, _cross_kernel
from protoselect.selectors import SelectionConfig, criticisms, l2c_equal, proto_dash, proto_greedy
from helpers import entries_of


def dense_gram(X, spec):
    """The Gram built whole, with jitter added to its diagonal: 1 + jitter for the gaussian
    family."""
    entries = _cross_kernel(X, X, spec)
    np.fill_diagonal(entries, np.diagonal(entries) + spec.jitter)
    return KernelMatrix(entries=entries)


def specs(bandwidth, jitter=kernel.DEFAULT_JITTER):
    """One spec of each family."""
    return [KernelSpec("gaussian", bandwidth=bandwidth, jitter=jitter),
            KernelSpec("linear", jitter=jitter)]


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
    for spec in specs(1.1, jitter):
        dense = dense_gram(X, spec)
        for order, reads in read_orders(n, seed=n).items():
            K = kernel_matrix(Dataset(X), spec)
            assert isinstance(K, LazyGram) and K.n2 == n
            assert K.diag().tobytes() == dense.diag().tobytes()
            for idx in reads:
                rows, block = K.rows(idx), K.block(idx)
                assert rows.flags.c_contiguous and block.flags.c_contiguous
                assert rows.tobytes() == dense.rows(idx).tobytes(), (spec.family, order)
                assert block.tobytes() == dense.block(idx).tobytes(), (spec.family, order)
            assert entries_of(K).tobytes() == entries_of(dense).tobytes(), (spec.family, order)


def test_selections_equal_those_on_the_dense_gram():
    rng = np.random.default_rng(8)
    source = Dataset(rng.standard_normal((300, 4)))
    target = Dataset(rng.standard_normal((200, 4)) + 0.3)

    def run(K, mu):
        dash = proto_dash(K, mu, SelectionConfig(m=30))
        crit = criticisms(dash, K, mu, 10)
        out = [crit.indices, crit.scores.tobytes()]
        for res in (dash, proto_greedy(K, mu, SelectionConfig(m=6)),
                    l2c_equal(K, mu, SelectionConfig(m=10))):
            out += [res.indices.indices, res.weights.weights.tobytes(),
                    res.objective_trace.tobytes(), res.gradient_trace.tobytes()]
        return out

    for spec in specs(2.0):
        mu = mean_map(target, source, spec)
        assert run(kernel_matrix(source, spec), mu) == run(dense_gram(source.values, spec), mu)


def test_rows_read_in_pick_order_are_a_read_only_view():
    for spec in specs(1.0):
        K = kernel_matrix(Dataset(source_rows(50, seed=3)), spec)
        support = [7, 2, 41]
        for size in range(1, 4):
            K.rows(support[:size])
        view = K.rows(support)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 2.0
        assert K.rows([2, 7]).flags.writeable  # not in pick order: a copy


def test_only_a_run_of_held_rows_is_a_view():
    # Held in buffer rows 0..4. A read that starts and ends a run's length apart but
    # does not rise at every step, or repeats a row, is a copy; every read has the rows.
    X = source_rows(50, seed=3)
    for spec in specs(1.0):
        K, dense = kernel_matrix(Dataset(X), spec), entries_of(dense_gram(X, spec))
        held = [7, 2, 41, 9, 30]
        K.rows(held)
        for idx, view in [([41], True), ([2, 41], True), ([2, 41, 9], True), (held, True),
                          ([7, 9, 41], False), ([7, 30, 41, 9], False), ([2, 2], False),
                          ([41, 2], False), ([9, 9, 9], False)]:
            got = K.rows(idx)
            assert got.tobytes() == dense[idx].tobytes() and got.flags.c_contiguous
            assert got.flags.writeable != view


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
    for spec in specs(1.0):
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
        assert entries_of(K).tobytes() == entries_of(dense).tobytes()


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
    for spec in specs(float(np.sqrt(5))):
        mu = mean_map(target, source, spec)
        peak = peak_bytes(lambda: proto_dash(kernel_matrix(source, spec), mu,
                                             SelectionConfig(m=20)))
        assert peak < 8 * n2 * n2 / 10, spec.family


def test_threads_share_one_gram():
    X = source_rows(120, seed=5, duplicates=True)
    for spec in specs(0.9):
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


def test_both_families_are_lazy_and_equal_kernel_eval():
    # Off the diagonal every entry is kernel_eval's value, bit for bit; on it, the
    # row's kernel with itself plus the jitter.
    X = source_rows(30, seed=6, duplicates=True)
    for spec in specs(0.7, jitter=1e-6):
        K = kernel_matrix(Dataset(X), spec)
        assert type(K) is LazyGram and K._filled == 0
        entries = entries_of(K)
        for i in range(X.shape[0]):
            for j in range(X.shape[0]):
                want = kernel_eval(X[i], X[j], spec) + (spec.jitter if i == j else 0.0)
                assert entries[i, j] == want, (spec.family, i, j)


def layout(x, order):
    if order == "F":
        return np.asfortranarray(x)
    if order == "strided":
        wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
        wide[::2, ::3] = x
        return wide[::2, ::3]
    return np.ascontiguousarray(x)


# (rows, features), up to the paper's MNIST width of 784
FILL_SHAPES = [(300, 1), (300, 7), (500, 20), (200, 784), (257, 33), (1000, 3), (129, 64),
               (64, 100)]


@pytest.mark.parametrize("order", ["C", "F", "strided"])
@pytest.mark.parametrize("n,d", FILL_SHAPES)
def test_every_fill_order_gives_the_same_bits(n, d, order):
    # Rows filled in random groups of 1 to 70, read as rows or as blocks, make an
    # exactly symmetric Gram with the same bits in every order. A linear Gram lies
    # within gamma_d sum_k |x_ik x_jk| of BLAS's X @ X.T, as any sum of d products does
    # (Higham 2002, §3.1), and so within twice that of BLAS's value.
    rng = np.random.default_rng(n * 1000 + d)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, size=d)
    data = Dataset(layout(X, order))
    for spec in specs(float(np.sqrt(d))):
        got = []
        for _ in range(3):
            K, perm, start = kernel_matrix(data, spec), rng.permutation(n), 0
            while start < n:
                group = perm[start:start + int(rng.integers(1, 71))]
                (K.rows if rng.random() < 0.5 else K.block)(group)
                start += group.size
            entries = entries_of(K)
            assert K._filled == n and np.array_equal(entries, entries.T), spec.family
            got.append(entries.tobytes())
        assert got[1] == got[2] == got[0], spec.family
    U = np.finfo(float).eps / 2  # entries is the linear Gram's, the last spec's
    off = ~np.eye(n, dtype=bool)
    slack = 2 * d * U / (1 - d * U) * (np.abs(X) @ np.abs(X).T) + 2.0 ** -1060
    assert np.all(np.abs(entries - X @ X.T)[off] <= slack[off])
