"""Brute-force and spectral checks of the selection guarantees.

Everything here is deliberately exhaustive: optimal subsets come from full
enumeration, curvature constants from principal-minor spectra, and the
submodularity ratio from enumerating candidate sets. One guard,
`_guard_subsets`, keeps every enumeration at desk scale, where exactness
is the point.

`verify_instance` is the one guarantee check: it scores ProtoDash and
ProtoGreedy against their bounds on the exhaustive optimum and returns one
verify-report row, or raises DegenerateDataError when a bound is vacuous.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DegenerateDataError, GuardError, as_index
from .kernel import KernelMatrix, MeanMap
from .nnqp import SolverConfig, SupportSet, as_solver, objective, solve_restricted
from .selectors import SelectionConfig, proto_dash, proto_greedy

ENUMERATION_CAP = 1_000_000
MAX_ENUMERABLE_ROWS = 20
_SLACK = 1e-9


def _guard_subsets(n2: int, count: int):
    """Refuse an enumeration over more than 20 rows or a million subsets."""
    if n2 > MAX_ENUMERABLE_ROWS:
        raise GuardError(f"instance too large to enumerate: n2={n2} > {MAX_ENUMERABLE_ROWS}")
    if count > ENUMERATION_CAP:
        raise GuardError(f"too many subsets to enumerate: {count} > {ENUMERATION_CAP}")


class _SetFunction:
    """Memoized evaluation of the restricted-optimum set function."""

    def __init__(self, K: KernelMatrix, mu: MeanMap, solver: SolverConfig | None):
        self.K = K
        self.mu = mu
        self.solver = as_solver(solver)
        self._cache: dict[tuple[int, ...], float] = {(): 0.0}

    def value(self, subset) -> float:
        key = tuple(sorted(int(j) for j in subset))
        got = self._cache.get(key)
        if got is None:
            w = solve_restricted(self.K, self.mu, SupportSet(key), self.solver)
            got = objective(w, self.K, self.mu)
            self._cache[key] = got
        return got


def exhaustive_optimal(K: KernelMatrix, mu: MeanMap, m: int,
                       solver: SolverConfig | None = None,
                       _fn: _SetFunction | None = None) -> tuple[SupportSet, float]:
    """Best support of size at most m by full enumeration.

    Ties keep the smaller, lexicographically earlier subset. Guarded to
    n2 <= 20 and at most one million subsets.
    """
    n2 = K.n2
    m = as_index(m, "m", least=1, most=n2)
    sizes = range(1, m + 1)
    _guard_subsets(n2, sum(math.comb(n2, s) for s in sizes))
    fn = _fn or _SetFunction(K, mu, solver)
    best_set: tuple[int, ...] = ()
    best_val = 0.0
    for size in sizes:
        for combo in itertools.combinations(range(n2), size):
            val = fn.value(combo)
            if val > best_val:
                best_set, best_val = combo, val
    return SupportSet(best_set), best_val


def submodularity_ratio(K: KernelMatrix, mu: MeanMap, L: SupportSet, r: int,
                        solver: SolverConfig | None = None,
                        _fn: _SetFunction | None = None) -> float:
    """Minimum over disjoint candidate sets S, |S| <= r, of the ratio of
    summed singleton gains over the joint gain at L.

    Candidate sets whose joint gain is at most 1e-12 are skipped; the
    ratio is only defined under a strict objective increase.
    """
    n2 = K.n2
    r = as_index(r, "r", least=1)
    rest = [j for j in range(n2) if j not in L]
    sizes = range(1, min(r, len(rest)) + 1)
    _guard_subsets(n2, sum(math.comb(len(rest), s) for s in sizes))
    fn = _fn or _SetFunction(K, mu, solver)
    base = fn.value(L)
    single_gain = {j: fn.value(tuple(L) + (j,)) - base for j in rest}
    best = None
    for size in sizes:
        for S in itertools.combinations(rest, size):
            denom = fn.value(tuple(L) + S) - base
            if denom <= 1e-12:
                continue
            ratio = sum(single_gain[j] for j in S) / denom
            if best is None or ratio < best:
                best = ratio
    if best is None:
        raise DegenerateDataError("no candidate set strictly increases the objective at L")
    return float(best)


def gamma_over_prefixes(K: KernelMatrix, mu: MeanMap, selection: SupportSet, r: int,
                        solver: SolverConfig | None = None,
                        _fn: _SetFunction | None = None) -> float:
    """Submodularity ratio minimized over all prefixes of a selection order.

    This is the quantity the selection guarantee consumes: the greedy
    recursion only ever conditions on the prefixes actually visited.
    Prefixes at which nothing can strictly increase the objective are
    skipped.
    """
    fn = _fn or _SetFunction(K, mu, solver)
    order = tuple(selection)
    best = None
    for cut in range(len(order) + 1):
        prefix = SupportSet(order[:cut])
        try:
            ratio = submodularity_ratio(K, mu, prefix, r, solver, _fn=fn)
        except DegenerateDataError:
            continue
        if best is None or ratio < best:
            best = ratio
    if best is None:
        raise DegenerateDataError("objective cannot be increased from any prefix")
    return float(best)


def rsc_rsm_bounds(K: KernelMatrix, k: int) -> tuple[float, float]:
    """Extreme eigenvalues over all size-k principal submatrices.

    Returns (c, C) where c is the smallest eigenvalue over the minors and C
    the largest; these bound the curvature of the objective between
    k-sparse vectors. k = n2 uses the full spectrum directly.
    """
    n2 = K.n2
    k = as_index(k, "k", least=1, most=n2)
    if k == n2:
        eig = np.linalg.eigvalsh(K.block(range(n2)))
        return float(eig[0]), float(eig[-1])
    _guard_subsets(n2, math.comb(n2, k))
    if k == 1:
        diag = K.diag()
        return float(diag.min()), float(diag.max())
    c = np.inf
    C = -np.inf
    for combo in itertools.combinations(range(n2), k):
        eig = np.linalg.eigvalsh(K.block(combo))
        c = min(c, float(eig[0]))
        C = max(C, float(eig[-1]))
    return c, C


def verify_instance(K: KernelMatrix, mu: MeanMap, m: int,
                    solver: SolverConfig | None = None) -> dict:
    """Check both selectors' guarantees on one enumerable instance.

    ProtoDash must clear (1 - exp(-3*c*gamma / (4*C_tilde))) * f_opt and
    ProtoGreedy (1 - exp(-gamma_greedy)) * f_opt, each within numerical
    slack; gamma and gamma_greedy are minimized over the prefixes of each
    selector's own order.

    Raises:
        DegenerateDataError: c, gamma or gamma_greedy is not positive, so a
            bound would be vacuous.
    """
    fn = _SetFunction(K, mu, solver)
    cfg = SelectionConfig(m=m, solver=fn.solver)
    dash = proto_dash(K, mu, cfg)
    f_dash = dash.final_objective
    _, f_opt = exhaustive_optimal(K, mu, m, solver, _fn=fn)
    gamma = gamma_over_prefixes(K, mu, dash.indices, m, solver, _fn=fn)
    c, _ = rsc_rsm_bounds(K, m)
    _, C_tilde = rsc_rsm_bounds(K, 1)
    greedy = proto_greedy(K, mu, cfg)
    f_greedy = greedy.final_objective
    gamma_greedy = gamma_over_prefixes(K, mu, greedy.indices, m, solver, _fn=fn)
    for name, value in (("c", c), ("gamma", gamma), ("gamma_greedy", gamma_greedy)):
        if value <= 0:
            raise DegenerateDataError(f"{name}={value:.3g} is not positive; the bound is vacuous")
    bound = (1.0 - math.exp(-3.0 * c * gamma / (4.0 * C_tilde))) * f_opt
    greedy_bound = (1.0 - math.exp(-gamma_greedy)) * f_opt
    return {
        "m": m,
        "f_dash": f_dash,
        "f_opt": f_opt,
        "gamma": gamma,
        "c": c,
        "C_tilde": C_tilde,
        "bound": bound,
        "satisfied": bool(f_dash >= bound - _SLACK),
        "f_greedy": f_greedy,
        "gamma_greedy": gamma_greedy,
        "greedy_bound": greedy_bound,
        "greedy_satisfied": bool(f_greedy >= greedy_bound - _SLACK),
    }
