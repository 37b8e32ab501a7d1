"""Brute-force and spectral checks of the selection guarantees.

Everything here is deliberately exhaustive: optimal subsets and the
submodularity ratio come from the restricted optimum tabulated on small
subsets, and curvature constants from principal-minor spectra. One guard,
`_guard_subsets`, keeps every enumeration at desk scale, where exactness is
the point.

The table does not run the weight solver it checks. Let f(S) be the largest
value of l(w) = w'mu - w'Kw/2 over w >= 0 supported on S, and T the positive
support of a maximizer; then w_T = K_TT^-1 mu_T. So, with f of the empty set
0 and U+(S) = mu_S' K_SS^-1 mu_S / 2 where K_SS^-1 mu_S is positive and -inf
otherwise, f(S) = max(U+(S), max over j in S of f(S - j)), which fills the
table one subset size at a time. The identity needs a positive definite
block; a block that is not clearly one takes its value from the weight
solver, `objective(solve_restricted(...))`, which raises SolverError when it
meets a block that does not factor.

The table holds only the subsets its readers read (`_lattice`): every subset
of at most `full` rows, which `exhaustive_optimal` scans, and, for each pick
set P, every A ∪ B with A ⊆ P and B a set of at most r rows outside P, which
holds each L ∪ S that `submodularity_ratio` reads at a prefix L of P's order.
Removing one row from A ∪ B leaves a subset of A with a subset of B, so the
set is closed under removing one element: the recursion only reads children
the table holds, and each entry has the bits a table of every subset gives
it. Each subset is keyed by its int64 bitmask, the sum of 2**j over its rows
j, so an instance may have up to 62 rows. Each size k has one sorted key
array and one value array beside it, and np.searchsorted finds a subset's k
children among the keys of size k - 1. The guard counts the subsets the
table will hold, exactly for one pick set and as a sum over the pick sets
for more, before any key is made.

Where K itself is clearly definite, with room for two eigvalsh errors, one
spectrum of K settles the question for every block (`_certified`): by Cauchy
interlacing each principal block's eigenvalues lie between K's smallest and
largest, so every block passes its own test, and no block's spectrum is
computed.

Each reader comes in two parts. A public one (`exhaustive_optimal`,
`submodularity_ratio`, `gamma_over_prefixes`) checks its arguments and builds
its own table; a private one (`_optimal`, `_ratio`, `_least_ratio`) reads a
table already built, with the same arithmetic in the same order. `_lattice`
is the one range check of a selection: an index at or past n2 raises
InputError before any key is made.

`verify_instance` is the one guarantee check: it runs ProtoDash and
ProtoGreedy, tabulates f on the union of the two sets their picks read,
reads the exhaustive optimum and both selectors' ratios from that one table
through the private readers, scores both against their bounds and returns
one verify-report row, or raises DegenerateDataError when a bound is vacuous.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DegenerateDataError, GuardError, InputError, as_index, as_instance
from .kernel import KernelMatrix, MeanMap
from .nnqp import SolverConfig, SupportSet, _check_sizes, objective, solve_restricted
from .selectors import SelectionConfig, proto_dash, proto_greedy

ENUMERATION_CAP = 1_000_000
MAX_ENUMERABLE_ROWS = 62  # a subset's key is an int64 bitmask
_CERTIFIED_ROWS = 20  # the rows up to which `_certified`'s error bound is stated
_SLACK = 1e-9
# Subsets per chunk of an enumeration: enough to batch LAPACK's small calls, and few
# enough that one chunk's blocks, never the blocks of every subset, are held at a time.
_CHUNK = 256
_EPS = float(np.finfo(float).eps)
_ONE = np.int64(1)


def _guard_subsets(n2: int, count: int):
    """Refuse an enumeration over more than 62 rows or a million subsets."""
    if n2 > MAX_ENUMERABLE_ROWS:
        raise GuardError(f"instance too large to enumerate: n2={n2} > {MAX_ENUMERABLE_ROWS}")
    if count > ENUMERATION_CAP:
        raise GuardError(f"too many subsets to enumerate: {count} > {ENUMERATION_CAP}")


def _every_subset(n2: int, full: int) -> int:
    """The number of subsets of 1 to `full` rows of n2."""
    return sum(math.comb(n2, k) for k in range(1, full + 1))


def _combinations(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) as the ascending int64 rows of an (N, k) array, in
    lexicographic order."""
    combos, count = itertools.combinations(range(n), k), math.comb(n, k)
    return np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64,
                       count=count * k).reshape(count, k)


def _masks(idx: np.ndarray) -> np.ndarray:
    """The int64 bitmask, the sum of 2**j over its indices j, of each row of an index array."""
    return (_ONE << idx).sum(axis=1, dtype=np.int64)


def _indices(masks: np.ndarray, k: int) -> np.ndarray:
    """The ascending int64 rows of the size-k subsets with these bitmasks: each column
    takes the lowest bit left, 2**j, whose exponent frexp reads exactly as j + 1."""
    idx, left = np.empty((len(masks), k), dtype=np.int64), masks.copy()
    for col in range(k):
        low = left & -left
        idx[:, col] = np.frexp(low)[1] - 1
        left ^= low
    return idx


def _split(P, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of range(n2) in P and those outside it, each ascending, as int64 arrays."""
    return (np.array(sorted(P), dtype=np.int64),
            np.array([j for j in range(n2) if j not in P], dtype=np.int64))


def _minors(rows: np.ndarray, idx: np.ndarray):
    """(indices, blocks) for each chunk of the subsets idx, where blocks[i] is the
    principal block of rows at indices[i]."""
    for start in range(0, len(idx), _CHUNK):
        chunk = idx[start:start + _CHUNK]
        yield chunk, rows[chunk[:, :, None], chunk[:, None, :]]


def _read(table: list, k: int, masks: np.ndarray) -> np.ndarray:
    """f on the size-k subsets with these bitmasks, each of which the table must hold."""
    keys, values = table[k]
    return values[keys.searchsorted(masks)]


def _lattice(K: KernelMatrix, mu: MeanMap, full: int, picks: tuple = (), r: int = 0) -> list:
    """The restricted optimum f on every subset of at most `full` rows and, for each
    selection P in `picks`, on every A ∪ B with A ⊆ P and B at most r rows outside P.

    Entry k of the list is (keys, values) for the subsets of k rows: their sorted int64
    bitmasks and f on each. Each size k is filled from the identity
    f(S) = max(U+(S), max over j in S of f(S - j)) of the module docstring, whose
    children the set holds: a block of k rows is clearly positive definite when its
    smallest eigenvalue is above k·eps times its largest, which `_certified` settles for
    every block at once where it can, and one batched eigvalsh a chunk decides where it
    cannot. One batched solve gives K_SS^-1 mu_S on the definite blocks. Each other
    block's U+ is replaced by the weight solver's optimum on S, which raises SolverError
    where a block on S does not factor. A selection with an index at or past n2 raises
    InputError, and the enumeration is guarded like every other, by its count of
    subsets; both before any key is made.
    """
    n2 = as_instance(K, KernelMatrix, "K").n2
    _check_sizes(K, as_instance(mu, MeanMap, "mu").entries)
    if any(j >= n2 for P in picks for j in P):
        raise InputError(f"a selection holds an index beyond the {n2} rows of K")
    splits = [_split(P, n2) for P in dict.fromkeys(map(frozenset, picks))]
    grown = [[(a, b) for a in range(len(P) + 1) for b in range(min(r, len(rest)) + 1)
              if a + b > full] for P, rest in splits]
    _guard_subsets(n2, _every_subset(n2, full)
                   + sum(math.comb(len(P), a) * math.comb(len(rest), b)
                         for (P, rest), sizes in zip(splits, grown) for a, b in sizes))
    depth = max([full] + [a + b for sizes in grown for a, b in sizes])
    certified = _certified(K, depth)
    rows = K.block(range(n2))
    table = [(np.zeros(1, dtype=np.int64), np.zeros(1))]
    for k in range(1, depth + 1):
        if k <= full:
            keys = np.sort(_masks(_combinations(n2, k)))
        else:
            keys = np.unique(np.concatenate([
                (_masks(P[_combinations(len(P), a)])[:, None]
                 + _masks(rest[_combinations(len(rest), k - a)])).ravel()
                for (P, rest), sizes in zip(splits, grown) for a, b in sizes if a + b == k]))
        values = [np.maximum(_peak(K, mu, idx, blocks, certified),
                             _read(table, k - 1, _masks(idx)[:, None] - (_ONE << idx)).max(axis=1))
                  for idx, blocks in _minors(rows, _indices(keys, k))]
        table.append((keys, np.concatenate(values)))
    return table


def _certified(K: KernelMatrix, depth: int) -> bool:
    """Whether every principal block of K of at most `depth` rows passes `_peak`'s test,
    its computed eigenvalues e_1 <= ... <= e_k having e_1 > k·eps·e_k, as shown by one
    spectrum of K.

    Let λ_1 <= ... <= λ_n be K's eigenvalues. By Cauchy interlacing, every principal
    block's eigenvalues lie in [λ_1, λ_n], and its 2-norm is at most K's. LAPACK's
    symmetric eigensolver returns each eigenvalue within p(n)·eps·‖A‖₂ of the true one
    (Anderson et al., LAPACK Users' Guide, §4.7), and the rule assumes p(n) < 1024 for
    n <= 20 rows; the computed spectrum λ̂ of K then gives the error bound
    δ = 1024·eps·max|λ̂| for K's eigenvalues and for any block's. So a block's computed
    e_1 >= λ̂_1 - 2δ and e_k <= λ̂_n + 2δ, and
        λ̂_1 - 2δ > depth·eps·(λ̂_n + 2δ)
    gives e_1 > k·eps·e_k for every k <= depth. The part of 1024 that p(n) leaves
    covers the gap between max|λ̂| and ‖K‖₂ and the roundings of the test itself. The
    assumption is not made past 20 rows: a K of more rows is not certified, and each of
    its blocks takes its own test.
    """
    if K.n2 > _CERTIFIED_ROWS:
        return False
    eig = np.linalg.eigvalsh(K.block(range(K.n2)))
    delta = 1024 * _EPS * np.abs(eig).max()
    return bool(eig[0] - 2 * delta > depth * _EPS * (eig[-1] + 2 * delta))


def _peak(K: KernelMatrix, mu: MeanMap, idx: np.ndarray, blocks: np.ndarray,
          certified: bool) -> np.ndarray:
    """U+ on each support idx[i], or the weight solver's optimum on it where its block
    is not clearly positive definite; with `certified`, every block is."""
    rhs = mu.entries[idx]
    if certified:
        definite = np.ones(len(idx), dtype=bool)
    else:
        eig = np.linalg.eigvalsh(blocks)
        definite = eig[:, 0] > idx.shape[1] * _EPS * eig[:, -1]
    A, b = blocks[definite], rhs[definite]
    x = np.linalg.solve(A, b[..., None])[..., 0]
    value = np.einsum("ij,ij->i", x, b) - 0.5 * np.einsum("ij,ijk,ik->i", x, A, x)
    peak = np.full(len(idx), -np.inf)
    peak[definite] = np.where((x > 0.0).all(axis=1), value, -np.inf)
    for i in np.flatnonzero(~definite):
        peak[i] = objective(solve_restricted(K, mu, SupportSet(idx[i])), K, mu)
    return peak


def _optimal(table: list, m: int) -> tuple[SupportSet, float]:
    """`exhaustive_optimal` read from a table of every subset of at most m rows."""
    best_set: tuple[int, ...] = ()
    best_val = 0.0
    for size in range(1, m + 1):
        keys, values = table[size]
        top = values.max()
        if top > best_val:
            tied = _indices(keys[values == top], size).tolist()
            best_set, best_val = tuple(min(tied)), float(top)
    return SupportSet(best_set), best_val


def _ratio(table: list, n2: int, L: tuple, r: int) -> float:
    """`submodularity_ratio` at L read from a table that holds L's sets, or math.inf
    where no set of at most r rows raises f by more than 1e-12."""
    _, rest = _split(L, n2)
    at_L = np.int64(sum(1 << j for j in L))
    base = _read(table, len(L), at_L)
    best = math.inf
    if len(rest):
        gain = _read(table, len(L) + 1, at_L | (_ONE << rest)) - base
    for size in range(1, min(r, len(rest)) + 1):
        S = _combinations(len(rest), size)  # positions in rest, so rows of gain
        denom = _read(table, len(L) + size, at_L | _masks(rest[S])) - base
        summed = gain[S[:, 0]]
        for col in range(1, size):  # in order, as the sum of a Python loop adds
            summed = summed + gain[S[:, col]]
        rising = denom > 1e-12
        if rising.any():
            best = min(best, float((summed[rising] / denom[rising]).min()))
    return best


def _least_ratio(table: list, n2: int, order: tuple, r: int) -> float:
    """`gamma_over_prefixes` read from a table that holds the sets of order's picks."""
    best = min(_ratio(table, n2, order[:cut], r) for cut in range(len(order) + 1))
    if best == math.inf:
        raise DegenerateDataError("objective cannot be increased from any prefix")
    return best


def exhaustive_optimal(K: KernelMatrix, mu: MeanMap, m: int) -> tuple[SupportSet, float]:
    """Best support of size at most m by full enumeration, and its value.

    The support is the optimum's positive support: ties keep the smaller,
    lexicographically earlier subset, and a superset that only adds zero
    weights holds the very same value in the table. Guarded to n2 <= 62 and
    at most one million subsets.
    """
    m = as_index(m, "m", least=1, most=as_instance(K, KernelMatrix, "K").n2)
    return _optimal(_lattice(K, mu, m), m)


def submodularity_ratio(K: KernelMatrix, mu: MeanMap, L: SupportSet, r: int) -> float:
    """Minimum over disjoint candidate sets S, |S| <= r, of the ratio of
    summed singleton gains over the joint gain at L.

    Candidate sets whose joint gain is at most 1e-12 are skipped; the
    ratio is only defined under a strict objective increase.
    """
    n2 = as_instance(K, KernelMatrix, "K").n2
    r = as_index(r, "r", least=1)
    L = as_instance(L, SupportSet, "L").indices
    ratio = _ratio(_lattice(K, mu, 0, (L,), r), n2, L, r)
    if ratio == math.inf:
        raise DegenerateDataError("no candidate set strictly increases the objective at L")
    return ratio


def gamma_over_prefixes(K: KernelMatrix, mu: MeanMap, selection: SupportSet, r: int) -> float:
    """Submodularity ratio minimized over all prefixes of a selection order.

    This is the quantity the selection guarantee consumes: the greedy
    recursion only ever conditions on the prefixes actually visited.
    Prefixes at which nothing can strictly increase the objective are
    skipped.
    """
    n2 = as_instance(K, KernelMatrix, "K").n2
    order = as_instance(selection, SupportSet, "selection").indices
    r = as_index(r, "r", least=1)
    return _least_ratio(_lattice(K, mu, 0, (order,), r), n2, order, r)


def rsc_rsm_bounds(K: KernelMatrix, k: int) -> tuple[float, float]:
    """Extreme eigenvalues over all size-k principal submatrices.

    Returns (c, C) where c is the smallest eigenvalue over the minors and C
    the largest; these bound the curvature of the objective between
    k-sparse vectors. k = n2 takes the one full spectrum, unguarded.
    """
    n2 = as_instance(K, KernelMatrix, "K").n2
    k = as_index(k, "k", least=1, most=n2)
    if k < n2:
        _guard_subsets(n2, math.comb(n2, k))
    c = np.inf
    C = -np.inf
    for _, blocks in _minors(K.block(range(n2)), _combinations(n2, k)):
        eig = np.linalg.eigvalsh(blocks)
        c = min(c, float(eig[:, 0].min()))
        C = max(C, float(eig[:, -1].max()))
    return c, C


def verify_instance(K: KernelMatrix, mu: MeanMap, m: int,
                    solver: SolverConfig | None = None) -> dict:
    """Check both selectors' guarantees on one enumerable instance.

    ProtoDash must clear (1 - exp(-3*c*gamma / (4*C_tilde))) * f_opt and
    ProtoGreedy (1 - exp(-gamma_greedy)) * f_opt, each within numerical
    slack; gamma and gamma_greedy are minimized over the prefixes of each
    selector's own order. m's range and the guard on the table's subsets of
    at most m rows are checked first; the selectors then solve with `solver`,
    and the oracle's values come from one table of every subset of at most
    m rows, for f_opt, and of each selector's subsets of its picks with at
    most m other rows, for its ratios.

    Raises:
        DegenerateDataError: c, gamma or gamma_greedy is not positive, so a
            bound would be vacuous.
    """
    m = as_index(m, "m", least=1, most=as_instance(K, KernelMatrix, "K").n2)
    _guard_subsets(K.n2, _every_subset(K.n2, m))  # before either selector runs
    cfg = SelectionConfig(m=m, solver=solver)
    dash = proto_dash(K, mu, cfg)
    greedy = proto_greedy(K, mu, cfg)
    f_dash = dash.final_objective
    f_greedy = greedy.final_objective
    table = _lattice(K, mu, m, (dash.indices, greedy.indices), m)
    _, f_opt = _optimal(table, m)
    gamma = _least_ratio(table, K.n2, dash.indices.indices, m)
    c, _ = rsc_rsm_bounds(K, m)
    C_tilde = float(K.diag().max())
    gamma_greedy = _least_ratio(table, K.n2, greedy.indices.indices, m)
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
