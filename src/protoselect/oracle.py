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

from .errors import DegenerateDataError, GuardError, InputError, as_index, as_real
from .kernel import Dataset, KernelMatrix, KernelSpec, MeanMap, kernel_matrix, mean_map
from .nnqp import SolverConfig, SupportSet, WeightVector, gradient, objective, solve_restricted
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
        self.solver = solver or SolverConfig()
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


def finite_difference_check(K: KernelMatrix, mu: MeanMap, w: WeightVector,
                            step: float) -> float:
    """Largest disagreement between the gradient and central differences.

    Checks the support coordinates, or every coordinate when the support
    is empty. Coordinates whose gradient is within 1e-6 of zero report the
    absolute error; the rest report relative error.
    """
    step = as_real(step, "step")
    coords = list(w.support) if len(w.support) else list(range(K.n2))
    dense = w.dense()
    full, mu_entries = K.block(range(K.n2)), mu.entries

    def value(v: np.ndarray) -> float:
        return float(v @ mu_entries - 0.5 * v @ (full @ v))

    g = gradient(w, K, mu)
    worst = 0.0
    for j in coords:
        hi, lo = dense.copy(), dense.copy()
        hi[j] += step
        lo[j] -= step
        fd = (value(hi) - value(lo)) / (2.0 * step)
        err = abs(fd - g[j])
        if abs(g[j]) >= 1e-6:
            err /= abs(g[j])
        worst = max(worst, err)
    return worst


def random_gaussian_instance(rng: np.random.Generator,
                             max_n1: int = 15, max_n2: int = 10, max_m: int = 3,
                             sigma_range: tuple[float, float] = (0.5, 2.0),
                             dims: tuple[int, ...] = (2, 3)) -> tuple[KernelMatrix, MeanMap, int, dict]:
    """Seeded random instance for verification sweeps.

    Draws sizes, a bandwidth, standard-normal data, and builds the Gram
    matrix plus mean map; returns them with the drawn sparsity level and a
    metadata dict describing the draw.
    """
    max_n1, max_n2 = as_index(max_n1, "max_n1", least=2), as_index(max_n2, "max_n2", least=2)
    max_m = as_index(max_m, "max_m", least=1)
    try:
        low, high = sigma_range
        dims = tuple(as_index(d, "dims entries", least=1) for d in dims)
    except (TypeError, ValueError):
        raise InputError("sigma_range must be a (low, high) pair and dims a sequence") from None
    low, high = as_real(low, "sigma_range low"), as_real(high, "sigma_range high")
    if not dims:
        raise InputError("dims must name at least one feature dimension")
    d = int(rng.choice(dims))
    n1 = int(rng.integers(2, max_n1 + 1))
    n2 = int(rng.integers(2, max_n2 + 1))
    m = int(rng.integers(1, min(max_m, n2) + 1))
    sigma = float(rng.uniform(low, high))
    spec = KernelSpec("gaussian", bandwidth=sigma)
    source = Dataset(rng.normal(size=(n2, d)))
    target = Dataset(rng.normal(size=(n1, d)))
    K = kernel_matrix(source, spec)
    mu = mean_map(target, source, spec)
    return K, mu, m, {"n1": n1, "n2": n2, "d": d, "m": m, "sigma": sigma}


def identity_kernel_instance(rng: np.random.Generator, max_n2: int = 10,
                             max_m: int = 3) -> tuple[KernelMatrix, MeanMap, int, dict]:
    """Modular test instance: identity Gram matrix, positive mean map."""
    max_n2, max_m = as_index(max_n2, "max_n2", least=2), as_index(max_m, "max_m", least=1)
    n2 = int(rng.integers(2, max_n2 + 1))
    m = int(rng.integers(1, min(max_m, n2) + 1))
    K = KernelMatrix(entries=np.eye(n2), spec=KernelSpec("linear", jitter=0.0))
    mu = MeanMap(entries=rng.uniform(0.2, 1.0, size=n2), n1=1)
    return K, mu, m, {"n1": 1, "n2": n2, "m": m, "kernel": "identity"}
