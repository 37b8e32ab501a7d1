"""Cross-dataset representation ranking.

For k datasets over a shared feature space, each dataset selects its own
prototypes; those prototypes are then scored against every other dataset
by the selection objective, giving a directed "who represents whom"
structure exportable as a DOT graph with a JSON mirror.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_index, as_reals
from .kernel import Dataset, KernelSpec, _gram_and_self_mean_map, _pair_mean_maps
# Not called here; bound because perfbench's tracer test wraps and restores
# ranking.kernel_matrix and ranking.mean_map (perfbench/tests/test_perfbench.py).
from .kernel import kernel_matrix, mean_map  # noqa: F401
from .nnqp import SolverConfig, objective, solve_restricted
from .selectors import SelectionConfig, proto_dash


@dataclass(frozen=True)
class RankMatrix:
    """Pairwise representation scores and their per-target ranks.

    objective[i, j] is the objective value of dataset j's prototypes
    evaluated against target dataset i; the diagonal holds each dataset's
    self-fit, which never participates in ranking. rank[i, j] ranks j among
    the representers of i (1 is best); the diagonal is 0.
    """

    names: tuple[str, ...]
    objective: np.ndarray
    rank: np.ndarray

    def __post_init__(self):
        k = len(self.names)
        if not all(isinstance(name, str) for name in self.names):
            raise InputError("names must be strings")
        obj = as_reals(self.objective, "objective")
        rnk = np.asarray(self.rank, dtype=int)
        if obj.shape != (k, k) or rnk.shape != (k, k):
            raise InputError("objective and rank must be k x k")
        for i in range(k):
            row = sorted(rnk[i, j] for j in range(k) if j != i)
            if row != list(range(1, k)):
                raise InputError(f"rank row {i} is not a permutation of 1..{k - 1}")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rank", rnk)

    @property
    def k(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class AverageRanks:
    """Per-dataset mean rank (diagonal excluded), sorted ascending."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = as_reals(self.values, "values")
        if vals.shape != (len(self.names),):
            raise InputError("values must align with names")
        if np.any(np.diff(vals) < 0):
            raise InputError("values must be sorted ascending")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class GraphExport:
    """DOT text plus the equivalent JSON structure."""

    dot: str
    data: dict


def rank_sources(datasets: list[Dataset], m: int, spec: KernelSpec,
                 names: list[str] | None = None,
                 solver: SolverConfig | None = None,
                 reweight: bool = True,
                 threads: int = 1) -> RankMatrix:
    """Score how well each dataset's prototypes represent every other one.

    Each dataset j selects its own m prototypes (gradient-driven, against
    itself). For every target i != j the fixed support is scored against
    target i's mean map; by default the weights are re-solved for that
    target, `reweight=False` keeps the self-fit weights frozen instead.
    Ranks within each target row break ties by dataset order.

    The kernel is computed once per dataset, for its Gram matrix and its
    own mean map, and once per unordered pair {i, j}, for the mean maps of
    i at j's rows and of j at i's rows. With `threads` > 1, datasets and
    then pairs are spread over a thread pool.
    """
    k = len(datasets)
    if k < 2:
        raise InputError("ranking needs at least two datasets")
    m, threads = as_index(m, "m", least=0), as_index(threads, "threads", least=1)
    dims = {ds.d for ds in datasets}
    if len(dims) != 1:
        raise InputError("datasets must share a feature dimension")
    if names is None:
        names = [f"dataset_{i}" for i in range(k)]
    if len(names) != k or not all(isinstance(n, str) for n in names) or len(set(names)) != k:
        raise InputError("names must be unique strings and align with datasets")
    solver = solver or SolverConfig()

    def self_select(j: int):
        K, mu_self = _gram_and_self_mean_map(datasets[j], spec)
        res = proto_dash(K, mu_self, SelectionConfig(m=min(m, datasets[j].n), solver=solver))
        return K, res

    def score(i: int, j: int, mu_i) -> float:
        """Dataset j's prototypes against target i, whose mean map at j's rows is mu_i."""
        K, res = selections[j]
        w = solve_restricted(K, mu_i, res.indices, solver) if reweight else res.weights
        return objective(w, K, mu_i)

    def pair_scores(pair):
        i, j = pair
        mu_i, mu_j = _pair_mean_maps(datasets[i], datasets[j], spec)
        return score(i, j, mu_i), score(j, i, mu_j)

    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 else map
        selections = list(run(self_select, range(k)))
        scored = list(run(pair_scores, pairs))

    obj = np.zeros((k, k))
    for (i, j), (ij, ji) in zip(pairs, scored):
        obj[i, j], obj[j, i] = ij, ji
    for j in range(k):
        obj[j, j] = selections[j][1].final_objective

    rank = np.zeros((k, k), dtype=int)
    for i in range(k):
        others = [j for j in range(k) if j != i]
        ordered = sorted(others, key=lambda j: (-obj[i, j], j))
        for pos, j in enumerate(ordered, start=1):
            rank[i, j] = pos
    return RankMatrix(names=tuple(names), objective=obj, rank=rank)


def average_ranks(rm: RankMatrix) -> AverageRanks:
    """Column means of the rank matrix, diagonal excluded, sorted ascending.

    Ties keep dataset input order.
    """
    k = rm.k
    means = np.array(
        [sum(rm.rank[i, j] for i in range(k) if i != j) / (k - 1) for j in range(k)]
    )
    order = np.argsort(means, kind="stable")
    return AverageRanks(
        names=tuple(rm.names[j] for j in order),
        values=means[order],
    )


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(rm: RankMatrix, top_t: int) -> GraphExport:
    """Directed graph of the top-t representers of every dataset.

    Emits an edge j -> i whenever dataset j ranks within the top t
    representers of target i, labeled with the rank. Node and edge order
    is deterministic, so repeated exports are byte-identical.
    """
    k = rm.k
    top_t = as_index(top_t, "top_t", least=1, most=k - 1)
    edges = []
    for i in range(k):
        row = sorted(
            (int(rm.rank[i, j]), j) for j in range(k) if j != i and rm.rank[i, j] <= top_t
        )
        for rank_value, j in row:
            edges.append(
                {
                    "from": rm.names[j],
                    "to": rm.names[i],
                    "rank": rank_value,
                    "objective": float(rm.objective[i, j]),
                }
            )
    lines = ["digraph ranking {"]
    for name in rm.names:
        lines.append(f"  {_dot_quote(name)} [label={_dot_quote(name)}];")
    for e in edges:
        lines.append(
            f"  {_dot_quote(e['from'])} -> {_dot_quote(e['to'])} [label=\"{e['rank']}\"];"
        )
    lines.append("}")
    return GraphExport(
        dot="\n".join(lines) + "\n",
        data={"nodes": list(rm.names), "edges": edges},
    )
