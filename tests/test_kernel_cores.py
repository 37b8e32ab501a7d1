"""The kernel passes give the same bits on any number of cores.

`kernel._on_cores` splits the gaussian mean map's bands of source rows, whole
chunks of _CHUNK_ROWS, over w = min(usable cores, n // _MIN_SLAB) slabs. Here the usable cores are set to w and _MIN_SLAB is lowered to
2, so that small inputs take w = 2 or 3 slabs, or 64 in a stress test, and
every output must equal the serial one byte for byte, on the cdist tiles and
on the GEMM tiles, with one tile more a thread. A self map's bands are fixed
by n and _MIN_SLAB alone, so it is checked on 1, 2 and 3 usable cores at one
_MIN_SLAB. Below the width no thread starts at all. The median bandwidth's
filter runs on the calling thread, so it starts no thread under any of these
settings.
"""

import os
import sys
import threading

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from protoselect import Dataset, KernelSpec, ProtoSelectError, kernel, median_bandwidth
from protoselect.kernel import _CHUNK_ROWS, _MIN_SLAB, _on_cores, mean_map
from test_kernel_passes import SHAPES, draw, peak_bytes
from test_median_bandwidth import FIXTURES, median_and_passes, normal, reference

SPEC = KernelSpec("gaussian", bandwidth=1.3)


@pytest.fixture
def started(monkeypatch):
    """The list of threads started while the test runs."""
    threads = []
    start = threading.Thread.start

    def counted(self):
        threads.append(self)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return threads


def on_slabs(monkeypatch, w):
    """Run every pass of at least 2 w rows or columns on w slabs, or serially for w = 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))
    monkeypatch.setattr(kernel, "_MIN_SLAB", 2 if w > 1 else 10 ** 9)


@pytest.mark.parametrize("w", [2, 3])
def test_mean_maps_equal_the_serial_pass(monkeypatch, started, w):
    pairs = []
    for n1, n2 in SHAPES:
        a, b = (Dataset(x) for x in draw(n1, n2, seed=n1 * 1000 + n2))
        pairs += [(a, b), (b, a)]
    on_slabs(monkeypatch, 1)
    serial = [mean_map(t, s, SPEC).entries.tobytes() for t, s in pairs]
    assert not started
    on_slabs(monkeypatch, w)
    for (target, source), expected in zip(pairs, serial):
        del started[:]
        assert mean_map(target, source, SPEC).entries.tobytes() == expected
        assert len(started) == (w - 1 if source.n >= 2 * w else 0)


@pytest.mark.parametrize("gemm", [False, True], ids=["cdist", "gemm"])
@pytest.mark.parametrize("min_slab", [_CHUNK_ROWS, 2 * _CHUNK_ROWS])
def test_self_mean_maps_equal_on_any_number_of_slabs(monkeypatch, started, gemm, min_slab):
    # Each band of _MIN_SLAB rows adds its chunks' column sums into one partial, and the
    # partials are added in band order after the slabs, so 1, 2 and 3 slabs, which take
    # the bands in snake order, give the same bits; 200 and 300 rows end in part of a band.
    # Up to 8 slabs, more than the cores, switching every microsecond, lose no sum.
    monkeypatch.setattr(kernel, "_MIN_SLAB", min_slab)
    monkeypatch.setattr(kernel, "_GEMM_MIN_WORK", 0 if gemm else 10 ** 18)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (_CHUNK_ROWS, 200, 300, 520):
            X = Dataset(draw(n, 1, seed=n)[0])
            maps = set()
            for w in (1, 2, 3, 64):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))
                del started[:]
                maps.add(mean_map(X, X, SPEC).entries.tobytes())
                assert len(started) == max(1, min(w, n // min_slab)) - 1
            assert len(maps) == 1
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("name", ["ties", "ties_even", "duplicates", "n65_odd", "n300"])
def test_medians_equal_the_serial_pass(monkeypatch, started, w, name):
    X = FIXTURES[name]
    on_slabs(monkeypatch, w)
    got = median_bandwidth(Dataset(X))
    assert got.hex() == reference(X).hex()
    assert not started  # the filter's small numpy calls lose more to the GIL than threads win


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("sample", [np.zeros(200), np.full(200, 1e9), np.linspace(0, 0.1, 5000),
                                    np.linspace(10, 20, 5000), []],
                         ids=["all_zero", "all_far", "below", "above", "empty"])
@pytest.mark.parametrize("n", [40, 130])
def test_a_missed_bracket_gives_the_serial_median(monkeypatch, w, sample, n):
    X = normal(n, seed=n)
    on_slabs(monkeypatch, 1)
    serial, serial_passes = median_and_passes(X, sample)
    on_slabs(monkeypatch, w)
    got, passes = median_and_passes(X, sample)
    assert (got.hex(), passes) == (serial.hex(), serial_passes)
    assert got == reference(X)


def test_no_thread_starts_below_the_width(monkeypatch, started):
    asked = []
    affinity = os.sched_getaffinity
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: asked.append(pid) or affinity(pid))
    n = 2 * _MIN_SLAB - 1
    X = normal(n, d=2, seed=1)
    assert median_bandwidth(Dataset(X)) == reference(X)
    mean_map(Dataset(X[:5]), Dataset(X), SPEC)
    assert _on_cores(n, lambda part, parts: (part, parts)) == [(0, 1)]
    assert not started and not asked


def test_the_cores_are_the_affinity_set_or_else_the_cpu_count(monkeypatch, started):
    def slab(part, parts):
        return part, parts, threading.current_thread() is threading.main_thread()

    monkeypatch.setattr(kernel, "_MIN_SLAB", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 7})
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _on_cores(100, slab) == [(0, 2, True), (1, 2, False)]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _on_cores(100, slab) == [(0, 3, True), (1, 3, False), (2, 3, False)]
    assert _on_cores(5, slab) == [(0, 2, True), (1, 2, False)]  # 5 // 2 slabs
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count cannot be determined
    assert _on_cores(100, slab) == [(0, 1, True)]
    assert len(started) == 1 + 2 + 1
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_an_exception_reaches_the_caller_unchanged(monkeypatch, started, failing):
    monkeypatch.setattr(kernel, "_MIN_SLAB", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    raised = ProtoSelectError("slab failed")
    done = []

    def slab(part, parts):
        if part == failing:
            raise raised
        done.append(part)

    with pytest.raises(ProtoSelectError) as caught:
        _on_cores(6, slab)
    assert caught.value is raised
    assert sorted(done) == sorted({0, 1, 2} - {failing})  # every other slab ran to its end
    assert len(started) == 2 and not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("w", [2, 3])
def test_gemm_mean_maps_equal_the_serial_pass(monkeypatch, started, w):
    # The same passes through the GEMM, which the shapes above are too small to take.
    monkeypatch.setattr(kernel, "_GEMM_MIN_WORK", 0)
    test_mean_maps_equal_the_serial_pass(monkeypatch, started, w)


@pytest.mark.parametrize("w", [2, 3])
def test_threaded_passes_hold_one_chunk_in_all(monkeypatch, w):
    # Each thread of the mean map holds one _CHUNK_ROWS x _TILE_COLS tile, and nothing
    # more: a chunk of n rows a thread would raise the peak by far more than a tile and
    # a sixteenth. The median's filter starts no thread, so its peak does not move.
    target, source = (Dataset(x) for x in draw(2000, 1000, seed=3))
    X = Dataset(normal(3000, d=20, seed=3))
    peaks = {}
    for slabs in (1, w):
        on_slabs(monkeypatch, slabs)
        peaks[slabs] = (peak_bytes(lambda: mean_map(target, source, SPEC)),
                        peak_bytes(lambda: median_bandwidth(X)))
    tile, chunk = 8 * _CHUNK_ROWS * min(kernel._TILE_COLS, target.n), 8 * _CHUNK_ROWS * X.n
    assert peaks[w][0] < peaks[1][0] + (w - 1) * tile + tile / 16
    assert peaks[w][1] < peaks[1][1] + chunk / 8


@pytest.mark.parametrize("edges", [(0, -1), (13000, 26000)], ids=["all", "inner"])
def test_more_threads_than_cores_lose_no_distance(monkeypatch, started, edges):
    # 64 slabs on any machine, switching every microsecond, and chunks of 64, 1 or 5 rows
    # in GEMM blocks of 1024, 7 or 64 columns: the median's pass counts every distance
    # below lo that it does not keep, keeps every distance in [lo, hi] once, in one array,
    # and holds each kept estimate within its margin.
    on_slabs(monkeypatch, 64)
    n = 300
    X = np.round(normal(n, d=2, seed=9), 1)  # ties, some of them at the edges
    pairs = pdist(X)
    dist = np.sort(pairs)
    lo, hi = (-np.inf, np.inf) if edges == (0, -1) else dist[list(edges)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    passes = []
    try:
        for rows, cols in [(64, 1024), (1, 7), (5, 3)]:
            monkeypatch.setattr(kernel, "_CHUNK_ROWS", rows)
            monkeypatch.setattr(kernel, "_TILE_COLS", cols)
            passes.append(kernel._bracket_pass(X, lo, hi))
    finally:
        sys.setswitchinterval(interval)
    for below, kept, margin in passes:
        code = kept.imag.astype(np.int64)
        a, b = np.divmod(code, n)
        assert np.unique(code).size == code.size and np.all(a < b)  # no pair held twice
        exact = pairs[n * a - a * (a + 1) // 2 + b - a - 1]  # pdist's entry of the pair (a, b)
        assert below + np.sum(exact < lo) == np.sum(dist < lo)
        inside = exact[(exact >= lo) & (exact <= hi)]
        assert np.sort(inside).tobytes() == dist[(dist >= lo) & (dist <= hi)].tobytes()
        assert np.all(np.abs(kept.real - exact) <= margin)
    assert not started
