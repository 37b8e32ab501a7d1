"""Cross-dataset representation ranking.

For k datasets over a shared feature space, each dataset selects its own
prototypes; those prototypes are then scored against every other dataset
by the selection objective, giving a directed "who represents whom"
structure. The ranks are derived from the objective matrix, and the
exported graph's DOT text from its JSON-ready data, so each fact is held
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, as_held, as_index, as_instance, as_names, read_only
from .kernel import Dataset, KernelMatrix, KernelSpec, kernel_matrix, mean_map
from .nnqp import SolverConfig, SupportSet, WeightVector, as_solver, objective, solve_restricted
from .selectors import SelectionConfig, proto_dash


@dataclass(frozen=True, eq=False)
class RankMatrix:
    """Pairwise representation scores and the per-target ranks they give.

    objective[i, j] is the objective value of dataset j's prototypes
    evaluated against target dataset i; the diagonal holds each dataset's
    self-fit, which never participates in ranking. rank[i, j] ranks j among
    the representers of i (1 is best) and is derived from the objective:
    row i orders the other datasets j by (-objective[i, j], j), so ties go
    to dataset order. The diagonal is 0. The objective is held as a
    read-only copy and must be finite, and the ranks are read-only, so
    they always match it.
    """

    names: tuple[str, ...]
    objective: np.ndarray
    rank: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "names", as_names(self.names, "names"))
        k = len(self.names)
        if k < 2:
            raise InputError("ranking needs at least two datasets")
        obj = as_held(self.objective, "objective", (k, k))
        # A stable sort keeps dataset order among ties; the diagonal sorts last.
        order = np.argsort(np.where(np.eye(k, dtype=bool), np.inf, -obj), axis=1, kind="stable")
        rank = np.zeros((k, k), dtype=int)
        np.put_along_axis(rank, order, np.arange(1, k + 1), axis=1)
        np.fill_diagonal(rank, 0)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rank", read_only(rank))

    @property
    def k(self) -> int:
        return len(self.names)


@dataclass(frozen=True, eq=False)
class AverageRanks:
    """Per-dataset mean rank (diagonal excluded), sorted ascending."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", as_names(self.names, "names"))
        vals = as_held(self.values, "values", (len(self.names),))
        if np.any(np.diff(vals) < 0):
            raise InputError("values must be sorted ascending")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, init=False)
class GraphExport:
    """The graph, made from JSON-ready data {"nodes": names, "edges": [...]}.

    Each edge is a dict with a rank whose ends are nodes. The graph holds a
    frozen copy of the data: `nodes`, a tuple of names, and `edges`, one tuple
    of (key, value) pairs per edge, so no later change to the caller's dict
    reaches it. `data` and the DOT text `dot` are rendered from them on each
    read: one DOT line per node, then one per edge `from -> to` labeled with
    its rank, in the order of the data.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[tuple[str, object], ...], ...]

    def __init__(self, data: dict):
        if not isinstance(data, dict) or not {"nodes", "edges"} <= data.keys():
            raise InputError("data must be a dict with nodes and edges")
        nodes = as_names(data["nodes"], "data nodes")
        edges = data["edges"]
        if not isinstance(edges, (list, tuple)) or not all(
                isinstance(e, dict) and "rank" in e and all(
                    isinstance(e.get(end), str) and e[end] in nodes for end in ("from", "to"))
                for e in edges):
            raise InputError("data edges must be dicts with a rank, and from and to among the nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(tuple(e.items()) for e in edges))

    @property
    def data(self) -> dict:
        return {"nodes": list(self.nodes), "edges": [dict(e) for e in self.edges]}

    @property
    def dot(self) -> str:
        q = _dot_quote
        lines = ["digraph ranking {"]
        lines += [f"  {q(name)} [label={q(name)}];" for name in self.nodes]
        lines += [f"  {q(e['from'])} -> {q(e['to'])} [label=\"{e['rank']}\"];"
                  for e in map(dict, self.edges)]
        return "\n".join(lines + ["}"]) + "\n"


def rank_sources(datasets: list[Dataset], m: int, spec: KernelSpec,
                 names: list[str] | None = None,
                 solver: SolverConfig | None = None,
                 reweight: bool = True) -> RankMatrix:
    """Score how well each dataset's prototypes represent every other one.

    Each dataset j selects its own m prototypes (gradient-driven, against
    itself). For every target i != j the fixed support is scored against
    target i's mean map; by default the weights are re-solved for that
    target, `reweight=False` keeps the self-fit weights frozen instead.
    The returned RankMatrix derives its ranks from these scores.

    Each dataset's Gram comes from `kernel_matrix`, so a gaussian Gram
    computes only the rows the selection reads; its own mean map comes from
    `mean_map(ds, ds)`, one Dataset on both sides, which computes each pair
    once from the tiles on and above the diagonal: about n_j^2 / 2 gaussian
    kernel values, a tile at a time. The objective on
    a fixed support reads the target's mean map only there, so each ordered
    pair takes one `mean_map` of target i at j's t prototypes: n_i x t
    kernel values, not n_i x n_j. Its solve and objective read the
    prototypes' block of j's Gram. The kernel passes use every usable core
    themselves (see `kernel._on_cores`), so datasets and pairs run in turn.
    """
    if not isinstance(datasets, (list, tuple)) or not all(isinstance(ds, Dataset)
                                                          for ds in datasets):
        raise InputError("datasets must be a list or tuple of Dataset")
    as_instance(spec, KernelSpec, "spec")
    k = len(datasets)
    if k < 2:
        raise InputError("ranking needs at least two datasets")
    m = as_index(m, "m", least=0)
    dims = {ds.d for ds in datasets}
    if len(dims) != 1:
        raise InputError("datasets must share a feature dimension")
    if names is None:
        names = [f"dataset_{i}" for i in range(k)]
    names = as_names(names, "names")
    if len(names) != k:
        raise InputError(f"names must align with datasets: {len(names)} names for {k} datasets")
    solver = as_solver(solver)

    def self_select(j: int):
        """Dataset j's prototypes as rows, their Gram, their self-fit weights and objective."""
        ds = datasets[j]
        K = kernel_matrix(ds, spec)
        res = proto_dash(K, mean_map(ds, ds, spec), SelectionConfig(m=min(m, ds.n), solver=solver))
        idx = res.indices.as_array()
        t = idx.size
        protos = Dataset(ds.values[idx]) if t else None
        weights = WeightVector(SupportSet(tuple(range(t))), res.weights.weights, t)
        return protos, KernelMatrix(K.block(idx)), weights, res.final_objective

    def score(i: int, j: int) -> float:
        """Dataset j's prototypes against target i: j's self-fit where i == j, else 0
        for an empty selection."""
        protos, K, w, self_fit = selections[j]
        if i == j:
            return self_fit
        if protos is None:
            return 0.0
        mu = mean_map(datasets[i], protos, spec)
        if reweight:
            w = solve_restricted(K, mu, w.support, solver)
        return objective(w, K, mu)

    selections = [self_select(j) for j in range(k)]
    obj = np.array([[score(i, j) for j in range(k)] for i in range(k)])
    return RankMatrix(names=names, objective=obj)


def average_ranks(rm: RankMatrix) -> AverageRanks:
    """Column means of the rank matrix, diagonal excluded, sorted ascending.

    The diagonal is 0, so the column sums over the other k - 1 targets are
    the sums of whole columns. Ties keep dataset input order.
    """
    as_instance(rm, RankMatrix, "rm")
    means = rm.rank.sum(axis=0) / (rm.k - 1)
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
    k = as_instance(rm, RankMatrix, "rm").k
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
    return GraphExport(data={"nodes": list(rm.names), "edges": edges})
