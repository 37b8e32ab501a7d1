"""The benchmark's workloads: seeded inputs, the timed call chain, and the gate.

Each workload turns a seed into a pool of raw numpy arrays wrapped in
`Dataset`s (the set-up), runs one item per pool entry through the public
protoselect API (the timed part), and checks the item's result (the gate,
run outside the timed part). The library only ever sees the arrays.

Library functions are looked up on their module at call time, so the traced
run's wrappers see the benchmark's own calls as well as the library's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from protoselect import kernel, nnqp, oracle, ranking, selectors

# Bound once at import, before any tracing starts, so the gate's own calls
# never show up as spans.
_kkt_residual = nnqp.kkt_residual
_objective = nnqp.objective
_KKT_TOLERANCE = nnqp.SolverConfig().kkt_tolerance
# `objective(weights)` must equal `final_objective` to roundoff.
_OBJECTIVE_RTOL = 1e-12


@dataclass
class Outcome:
    """What one item produced: the gate's findings, its objective, a fingerprint."""

    problems: list[str]
    objective: float
    fingerprint: tuple


@dataclass(frozen=True)
class Workload:
    """A named workload; BENCHMARK.json gives the reason for each."""

    name: str
    sizes: dict
    small: dict  # a desk-sized instance for warm-up and self-tests
    make_pool: Callable[[np.random.Generator, dict], list]
    run_item: Callable[[Any, dict], Any]
    check: Callable[[Any], Outcome]
    # The calibrate.py pieces that slow down as this workload's dominant
    # layer does: the Gram matrix and the streaming pass for kernel-bound
    # work, the interpreter loop and tiny solves for nnqp and the oracle.
    calibration: tuple[str, ...]
    # Inputs of one class are replicate draws of the same shape; timings are
    # summarised per class. None makes every input its own class.
    input_class: Callable[[Any], Any] | None = None


def selection_problems(res, K, mu) -> list[str]:
    """Gate for one SelectionResult: KKT, monotone trace, objective consistency."""
    problems = []
    residual = _kkt_residual(res.weights, K, mu, res.indices)
    if not residual <= _KKT_TOLERANCE:
        problems.append(f"KKT residual {residual:.3e} above {_KKT_TOLERANCE:.1e}")
    if np.any(np.diff(res.objective_trace) < 0.0):
        problems.append("objective trace decreases")
    value = _objective(res.weights, K, mu)
    if not math.isclose(value, res.final_objective, rel_tol=_OBJECTIVE_RTOL):
        problems.append(f"objective(weights) {value!r} != final_objective {res.final_objective!r}")
    return problems


def _selection_fingerprint(res) -> tuple:
    return (res.indices.indices, res.weights.weights.tobytes())


# -- dash_5k and greedy_1k: one source/target pair, median-bandwidth kernel --

def _pair_pool(rng, s):
    pool = []
    for _ in range(s["pool"]):
        source = kernel.Dataset(rng.standard_normal((s["n2"], s["d"])))
        target = kernel.Dataset(rng.standard_normal((s["n1"], s["d"])) + s["shift"])
        pool.append((target, source))
    return pool


def _gram_and_mean_map(target, source):
    spec = kernel.KernelSpec("gaussian", bandwidth=kernel.median_bandwidth(source))
    return kernel.kernel_matrix(source, spec), kernel.mean_map(target, source, spec)


def _dash_item(inp, s):
    K, mu = _gram_and_mean_map(*inp)
    res = selectors.proto_dash(K, mu, selectors.SelectionConfig(m=s["m"]))
    crit = selectors.criticisms(res, K, mu, s["c"])
    return K, mu, res, crit


def _dash_check(out) -> Outcome:
    K, mu, res, crit = out
    return Outcome(selection_problems(res, K, mu), res.final_objective,
                   _selection_fingerprint(res) + (crit.indices, crit.scores.tobytes()))


def _greedy_item(inp, s):
    K, mu = _gram_and_mean_map(*inp)
    return K, mu, selectors.proto_greedy(K, mu, selectors.SelectionConfig(m=s["m"]))


def _greedy_check(out) -> Outcome:
    K, mu, res = out
    return Outcome(selection_problems(res, K, mu), res.final_objective,
                   _selection_fingerprint(res))


# -- oracle_sweep: enumerable gaussian instances over a stratified size grid --

def _oracle_pool(rng, s):
    # Every (n2, m) pair of the ranges is drawn `draws` times, in seeded order,
    # so each run covers the same size mix and only the data varies with the
    # seed. The rest is drawn as in oracle.random_gaussian_instance. One draw
    # per pair is not enough: an instance's cost depends on its data, e.g. on
    # whether greedy retraces ProtoDash's prefixes, which the oracle memoizes.
    # Pairs with at most `cheap_subsets` candidate supports are drawn
    # `cheap_draws` times: they take under 50 ms each and hold the median
    # item, so more draws steady the median for about a second more a pass.
    grid = [(n2, m) for n2 in range(2, s["n2_max"] + 1) for m in range(1, min(s["m_max"], n2) + 1)]
    grid = [size for size in grid
            for _ in range(s["cheap_draws"] if math.comb(*size) <= s["cheap_subsets"] else s["draws"])]
    pool = []
    for g in rng.permutation(len(grid)):
        n2, m = grid[g]
        d = int(rng.choice(s["dims"]))
        n1 = int(rng.integers(2, s["n1_max"] + 1))
        spec = kernel.KernelSpec("gaussian", bandwidth=float(rng.uniform(*s["bandwidth"])))
        source = kernel.Dataset(rng.standard_normal((n2, d)))
        target = kernel.Dataset(rng.standard_normal((n1, d)))
        pool.append((target, source, spec, m))
    return pool


def _oracle_class(inp):
    target, source, spec, m = inp
    return source.n, m


def _oracle_item(inp, s):
    target, source, spec, m = inp
    K = kernel.kernel_matrix(source, spec)
    mu = kernel.mean_map(target, source, spec)
    return oracle.verify_instance(K, mu, m)


def _oracle_check(report) -> Outcome:
    problems = [f"{key} is false" for key in ("satisfied", "greedy_satisfied") if not report[key]]
    # Relative to the enumerated optimum: raw objectives of these tiny random
    # instances vary by about 20% between seeds, the ratios barely at all.
    return Outcome(problems, (report["f_dash"] + report["f_greedy"]) / report["f_opt"],
                   tuple(sorted(report.items())))


# -- rank_5x2k: k datasets with shifted means, gaussian kernel of width sqrt(d) --

def _rank_pool(rng, s):
    return [
        [kernel.Dataset(rng.standard_normal((s["n"], s["d"])) + s["shift_step"] * i)
         for i in range(s["k"])]
        for _ in range(s["pool"])
    ]


def _rank_item(datasets, s):
    spec = kernel.KernelSpec("gaussian", bandwidth=math.sqrt(s["d"]))
    return ranking.rank_sources(datasets, m=s["m"], spec=spec)


def _rank_check(rm) -> Outcome:
    problems = [] if np.all(np.isfinite(rm.objective)) else ["objective matrix is not finite"]
    return Outcome(problems, float(rm.objective.sum()),
                   (rm.objective.tobytes(), rm.rank.tobytes()))


# name -> unit of the end-to-end metrics every untraced run reports.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "peak_rss_mb": "MB",
    "objective_sum": "objective",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dash_5k",
            dict(n1=5000, n2=5000, d=20, shift=0.3, m=200, c=20, pool=3),
            dict(n1=60, n2=50, d=3, shift=0.3, m=8, c=3, pool=2),
            _pair_pool, _dash_item, _dash_check, ("gram", "streaming"),
        ),
        Workload(
            "greedy_1k",
            dict(n1=1000, n2=1000, d=20, shift=0.3, m=15, pool=3),
            dict(n1=40, n2=30, d=3, shift=0.3, m=4, pool=2),
            _pair_pool, _greedy_item, _greedy_check, ("interpreter", "small_solves"),
        ),
        Workload(
            "oracle_sweep",
            dict(n2_max=16, m_max=4, n1_max=20, dims=(2, 3), bandwidth=(0.5, 2.0), draws=3,
                 cheap_draws=9, cheap_subsets=50),
            dict(n2_max=5, m_max=2, n1_max=6, dims=(2, 3), bandwidth=(0.5, 2.0), draws=1,
                 cheap_draws=1, cheap_subsets=50),
            _oracle_pool, _oracle_item, _oracle_check, ("interpreter", "small_solves"),
            _oracle_class,
        ),
        Workload(
            "rank_5x2k",
            dict(k=5, n=2000, d=20, shift_step=0.25, m=50, pool=3),
            dict(k=3, n=40, d=3, shift_step=0.25, m=4, pool=2),
            _rank_pool, _rank_item, _rank_check, ("gram", "streaming"),
        ),
    )
}

