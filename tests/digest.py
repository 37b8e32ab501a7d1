"""Byte-identity digest of the package's outputs: one SHA-256 per named entry.

    python tests/digest.py > digest.json

prints `{entry: sha256}` as JSON. Each entry hashes the exact bytes of a
fixed list of seeded calls: indices, weights, traces, scores, the reason,
message, best iterate and residual of every error, ranks with their dtype and
DOT text. Wall times are left out. Run it in two trees on one machine and
compare entry by entry: a change that should keep every output leaves every
entry equal, and one that changes outputs on purpose names the entries it
changed. The hashes are not a golden file, because numpy's SIMD `exp` and
BLAS tiling can differ from one CPU to another.

The library is imported from this tree's `src/`, and the benchmark's
workloads from its `perfbench/`, which are only read.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from protoselect import (Dataset, KernelMatrix, KernelSpec, MeanMap, ProtoSelectError,  # noqa: E402
                         SolverConfig, SolverError, SupportSet, WeightVector, criticisms,
                         gradient, kernel_matrix, kkt_residual, l2c_equal, mean_map,
                         median_bandwidth, objective, proto_dash, proto_greedy, random_w,
                         rank_sources, solve_restricted, top_m_by_weight)
from protoselect.nnqp import gain_bounds  # noqa: E402
from protoselect.oracle import _lattice, verify_instance  # noqa: E402
from protoselect.ranking import (AverageRanks, GraphExport, RankMatrix,  # noqa: E402
                                 average_ranks, export_graph)
from protoselect.selectors import CriticismResult, SelectionConfig, SelectionResult  # noqa: E402


def _feed(h, x):
    """Write x's exact bytes, tagged by kind, into the hash h."""
    if x is None:
        h.update(b"N")
    elif isinstance(x, (bool, np.bool_)):
        h.update(b"B1" if x else b"B0")
    elif isinstance(x, (int, np.integer)):
        h.update(b"I%d;" % int(x))
    elif isinstance(x, (float, np.floating)):
        h.update(b"F" + float(x).hex().encode() + b";")
    elif isinstance(x, str):
        _feed(h, x.encode())
    elif isinstance(x, bytes):
        h.update(b"Y%d;" % len(x) + x)
    elif isinstance(x, np.ndarray):
        h.update(f"A{x.dtype.str}{x.shape};".encode() + np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(b"L%d;" % len(x))
        for item in x:
            _feed(h, item)
    elif isinstance(x, dict):
        _feed(h, list(x.items()))
    elif isinstance(x, SupportSet):
        _feed(h, x.indices)
    elif isinstance(x, WeightVector):
        _feed(h, (x.support, x.weights, x.dimension))
    elif isinstance(x, SelectionResult):  # wall times vary from run to run
        _feed(h, (x.method, x.indices, x.weights, x.objective_trace, x.gradient_trace,
                  x.early_stopped))
    elif isinstance(x, CriticismResult):
        _feed(h, (x.indices, x.scores))
    elif isinstance(x, RankMatrix):
        _feed(h, (x.names, x.objective, x.rank))
    elif isinstance(x, AverageRanks):
        _feed(h, (x.names, x.values))
    elif isinstance(x, GraphExport):
        _feed(h, (x.dot, x.data))
    elif isinstance(x, SolverError):
        _feed(h, ("SolverError", str(x), x.reason, x.best_iterate, x.residual, x.partial))
    elif isinstance(x, ProtoSelectError):
        _feed(h, (type(x).__name__, str(x)))
    else:
        raise TypeError(f"digest cannot hash a {type(x).__name__}")


def _outcome(call, *args, **kwargs):
    """What the call returns, or the ProtoSelectError it raises."""
    try:
        return call(*args, **kwargs)
    except ProtoSelectError as err:
        return err


def _instances():
    """Seeded selection instances on both kernel families: name -> (K, mu)."""
    rng = np.random.default_rng(20170704)
    source = Dataset(rng.normal(size=(80, 4)))
    target = Dataset(rng.normal(size=(90, 4)) + 0.3)
    gaussian = KernelSpec("gaussian", bandwidth=median_bandwidth(source))
    lin_source = Dataset(rng.normal(size=(60, 6)))
    lin_target = Dataset(rng.normal(size=(70, 6)) + 0.5)
    linear = KernelSpec("linear")
    return {
        "gaussian": (kernel_matrix(source, gaussian), mean_map(target, source, gaussian)),
        "linear": (kernel_matrix(lin_source, linear), mean_map(lin_target, lin_source, linear)),
    }


def _selector_entries(out):
    for family, (K, mu) in _instances().items():
        for name, select in (("proto_dash", proto_dash), ("proto_greedy", proto_greedy)):
            by_m = _outcome(select, K, mu, SelectionConfig(m=6))
            out[f"selectors.{family}.{name}"] = [
                by_m,
                _outcome(select, K, mu, SelectionConfig(epsilon=1e-3)),
                _outcome(select, K, mu, SelectionConfig(m=4, oversample_factor=3)),
            ]
            if isinstance(by_m, SelectionResult):
                out[f"selectors.{family}.{name}.criticisms"] = [
                    _outcome(criticisms, by_m, K, mu, c) for c in (1, 5)]
                out[f"selectors.{family}.{name}.top_m_by_weight"] = [
                    _outcome(top_m_by_weight, by_m, m, K, mu) for m in (0, 3)]
        out[f"selectors.{family}.l2c_equal"] = [
            _outcome(l2c_equal, K, mu, SelectionConfig(m=m)) for m in (0, 5)]
        out[f"selectors.{family}.random_w"] = [
            _outcome(random_w, K, mu, SelectionConfig(m=5, seed=4)),
            _outcome(random_w, K, mu, SelectionConfig(m=3, seed=9, oversample_factor=2)),
        ]
    # Rank-2 linear data at a large feature scale ends in a SolverError with a partial result.
    rng = np.random.default_rng(0)
    X = Dataset(1e4 * (rng.normal(size=(40, 2)) @ rng.normal(size=(2, 6))))
    spec = KernelSpec("linear")
    out["selectors.linear_rank_deficient.proto_dash"] = _outcome(
        proto_dash, kernel_matrix(X, spec), mean_map(X, X, spec), SelectionConfig(m=5))


def _solver_entries(out):
    K, mu = _instances()["gaussian"]
    order = proto_dash(K, mu, SelectionConfig(m=9)).indices.indices
    solves, residuals, bounds = [], [], []
    for size in (1, 3, 8):
        L = SupportSet(order[:size][::-1])
        cold = solve_restricted(K, mu, L)
        warm = solve_restricted(K, mu, SupportSet(order[:size + 1]), warm_start=cold)
        solves += [cold, warm]
        residuals += [kkt_residual(cold, K, mu, L), kkt_residual(warm, K, mu, warm.support)]
        bounds.append(gain_bounds(cold, gradient(cold, K, mu), K))
        solves += [_outcome(solve_restricted, K, mu, L, SolverConfig(max_iterations=cap))
                   for cap in (1, 3)]
    out["nnqp.solve_restricted"] = solves
    out["nnqp.kkt_residual"] = residuals
    out["nnqp.gain_bounds"] = bounds
    out["nnqp.objective"] = [objective(w, K, mu) for w in solves if isinstance(w, WeightVector)]
    singular = KernelMatrix([[1.0, 1.0], [1.0, 1.0]])
    out["nnqp.solver_error.not_positive_definite"] = _outcome(
        solve_restricted, singular, MeanMap([1.0, 0.9], n1=1), SupportSet((0, 1)),
        warm_start=WeightVector(SupportSet((0, 1)), [0.5, 0.5], 2))
    out["nnqp.solver_error.iteration_cap"] = _outcome(
        solve_restricted, K, mu, SupportSet(order), SolverConfig(max_iterations=1))
    # Every intermediate iterate: each cap up to the first that succeeds, on a support that
    # steps back, solved cold (17 iterations) and warm from half of it (11 iterations).
    L = SupportSet(range(0, 80, 4))
    sweep = []
    for warm_start in (None, solve_restricted(K, mu, SupportSet(range(0, 80, 8)))):
        for cap in range(1, 10 * len(L) + 101):
            sweep.append(_outcome(solve_restricted, K, mu, L, SolverConfig(max_iterations=cap),
                                  warm_start=warm_start))
            if isinstance(sweep[-1], WeightVector):
                break
    out["nnqp.solve_restricted.cap_sweep"] = sweep
    out["nnqp.warm_records"] = _warm_record_outputs(K, mu, order)


def _warm_record_outputs(K, mu, order):
    """Solves from warm starts that carry a solve's record and from plain copies of them,
    which gather: ProtoDash prefixes grown by one index and solved again as they are, a
    warm start recorded on another Gram and mean map, and objective and kkt_residual."""
    def plain(w):
        return WeightVector(w.support, w.weights, w.dimension)

    outputs, w = [], WeightVector.zeros(K.n2)
    for j in order[:-1]:
        L = w.support.extended(j)
        for warm_start in (w, plain(w)):
            outputs.append(solve_restricted(K, mu, L, warm_start=warm_start))
        w = outputs[-2]
        outputs += [solve_restricted(K, mu, L, warm_start=w), objective(w, K, mu),
                    kkt_residual(w, K, mu, L)]
    rng = np.random.default_rng(24)
    source = Dataset(rng.normal(size=(K.n2, 4)))
    spec = KernelSpec("gaussian", bandwidth=1.5)
    other = kernel_matrix(source, spec), mean_map(Dataset(rng.normal(size=(50, 4))), source, spec)
    for K2, mu2 in ((other[0], mu), (K, other[1]), other):
        outputs += [_outcome(solve_restricted, K2, mu2, L, warm_start=warm_start)
                    for warm_start in (w, plain(w)) for L in (w.support, SupportSet(order))]
        outputs += [objective(w, K2, mu2), kkt_residual(w, K2, mu2, w.support)]
    return outputs


def _kernel_entries(out):
    rng = np.random.default_rng(11)
    shapes = [(1, 1, 1), (3, 1, 2), (1, 5, 3), (70, 130, 3), (129, 64, 2), (65, 2, 5)]
    maps = []
    for n1, n2, d in shapes:
        target, source = Dataset(rng.normal(size=(n1, d))), Dataset(rng.normal(size=(n2, d)))
        for spec in (KernelSpec("gaussian", bandwidth=0.9), KernelSpec("linear")):
            maps.append(mean_map(target, source, spec).entries)
            maps.append(mean_map(target, Dataset(source.values[::-2]), spec).entries)
    out["kernel.mean_map"] = maps
    data = [rng.normal(size=(2, 3)), rng.normal(size=(3, 1)), rng.normal(size=(65, 4)),
            rng.integers(0, 4, size=(200, 2)).astype(float), np.repeat(rng.normal(size=(9, 2)), 7, 0)]
    out["kernel.median_bandwidth"] = [_outcome(median_bandwidth, Dataset(x)) for x in data]
    X = Dataset(rng.normal(size=(150, 3)))
    reads = []
    for spec in (KernelSpec("gaussian", bandwidth=1.3), KernelSpec("linear")):
        K = kernel_matrix(X, spec)
        reads += [K.diag(), K.rows([5, 3, 5, 140]), K.block([2, 9, 2, 70]), K.rows([3, 5]),
                  K.block(range(0, 150, 7)), K.rows(np.arange(150))]
    out["kernel.gram_reads"] = reads
    # Above the width of kernel._on_cores: two slabs or more wherever two cores are usable,
    # and the serial pass on one core, as under `taskset -c 0`.
    target, source = Dataset(rng.normal(size=(300, 4))), Dataset(rng.normal(size=(1200, 4)))
    out["kernel.threaded_passes"] = [
        mean_map(target, source, KernelSpec("gaussian", bandwidth=1.1)).entries,
        median_bandwidth(source)]
    # The median's filter: a row at 1e150 among 3000, rows shifted by 1e6, rows rounded
    # to 0.1 (ties at the bracket's edges), rows scaled by 1e-8 and by 1e8, and sorted
    # one-feature rows.
    rng = np.random.default_rng(13)
    far = rng.normal(size=(3001, 20))
    far[-1] = 1e150
    data = [far, rng.normal(size=(200, 4)) + 1e6, np.round(rng.normal(size=(300, 4)), 1),
            rng.normal(size=(150, 3)) * 1e-8, rng.normal(size=(150, 3)) * 1e8,
            np.sort(rng.normal(size=(400, 1)), axis=0)]
    out["kernel.median_filter"] = [_outcome(median_bandwidth, Dataset(x)) for x in data]


def _workload_entries(out):
    from perfbench.workloads import WORKLOADS

    for name, w in WORKLOADS.items():
        pool = w.make_pool(np.random.default_rng(3), w.small)
        checks = [w.check(w.run_item(inp, w.small)) for inp in pool]
        out[f"workload.{name}"] = [(c.problems, c.objective, c.fingerprint) for c in checks]
        if name == "oracle_sweep":
            out["oracle.verify_instance"] = [
                verify_instance(kernel_matrix(source, spec), mean_map(target, source, spec), m)
                for target, source, spec, m in pool]


def _oracle_entries(out):
    # Rows 0 and 1 of the first Gram coincide, so each block that holds both is singular and
    # takes its table value from the weight solver; on the second Gram, row 2's zero block
    # with a positive mean-map entry makes the table raise.
    rows = [0, 0, 1, 2]
    gram = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])[np.ix_(rows, rows)]
    out["oracle.set_function"] = [
        _lattice(KernelMatrix(gram), MeanMap([0.5, 0.5, 0.4, 0.3], n1=1), depth)
        for depth in (2, 4)
    ] + [_outcome(_lattice, KernelMatrix(np.diag([1.0, 1.0, 0.0])),
              MeanMap([0.5, 0.4, 0.1], n1=1), 2)]


def _ranking_entries(out):
    rng = np.random.default_rng(5)
    sets = {
        "shifted": [Dataset(rng.normal(size=(n, 3)) + 0.4 * i) for i, n in enumerate((12, 1, 20, 7))],
        "tied": [Dataset(np.eye(3)) for _ in range(3)],
    }
    for set_name, datasets in sets.items():
        specs = {"gaussian": KernelSpec("gaussian", bandwidth=1.2), "linear": KernelSpec("linear")}
        for family, spec in specs.items():
            for reweight in (True, False):
                key = f"ranking.{set_name}.{family}.{'reweight' if reweight else 'frozen'}"
                ranked = [_outcome(rank_sources, datasets, m, spec, reweight=reweight)
                          for m in (0, 1, 3)]
                out[f"{key}.rank_sources"] = ranked
                rms = [rm for rm in ranked if isinstance(rm, RankMatrix)]
                out[f"{key}.export_graph"] = [export_graph(rm, t) for rm in rms
                                              for t in range(1, rm.k)]
                out[f"{key}.average_ranks"] = [average_ranks(rm) for rm in rms]


def digest() -> dict[str, str]:
    """Every entry's name and the SHA-256 of its outputs, in a fixed order."""
    out: dict = {}
    for entries in (_selector_entries, _solver_entries, _kernel_entries, _oracle_entries,
                    _ranking_entries, _workload_entries):
        entries(out)
    hashes = {}
    for name, value in out.items():
        h = hashlib.sha256()
        _feed(h, value)
        hashes[name] = h.hexdigest()
    return hashes


if __name__ == "__main__":
    print(json.dumps(digest(), indent=1, sort_keys=True))
