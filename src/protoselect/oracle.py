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

No block is solved for U+ either. Each subset S is grown from two of its
children, S less its lowest row and S less its second lowest, by one
bordering step of the factor of K_SS^-1 (`_border`): a fixed number of
vectorized operations a size, O(|S|) a subset. So each size holds the
borders of the size before, 2k + 3 numbers a subset of k rows, and only of
the subsets the next size grows from. Where a pivot of that recursion is not
positive though the block passes the definiteness test, the block is solved
by np.linalg.solve as it stands (`_peak`).

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
from typing import NamedTuple

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


def _blocks(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The principal block of rows at each row of idx, stacked."""
    return rows[idx[:, :, None], idx[:, None, :]]


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
    children the set holds, one chunk of `_CHUNK` subsets at a time: np.searchsorted
    finds a chunk's children, and `_border` grows each subset's `_Border` from those of
    two of them. A block of k rows is clearly positive definite when its smallest
    eigenvalue is above k·eps times its largest, which `_certified` settles for every
    block at once where it can, and one batched eigvalsh a chunk decides where it
    cannot; `_peak` then reads U+ from the border.

    Only what the next size reads is held: the borders of the size before, 2k + 3
    numbers a subset of k rows, and of those only the subsets that the next size grows
    from (`_read_next`); none of the last size. A selection with an index at or past n2
    raises InputError, and the enumeration is guarded like every other, by its count of
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
    levels = [np.sort(_masks(_combinations(n2, k))) if k <= full else np.unique(np.concatenate([
        (_masks(P[_combinations(len(P), a)])[:, None]
         + _masks(rest[_combinations(len(rest), k - a)])).ravel()
        for (P, rest), sizes in zip(splits, grown) for a, b in sizes if a + b == k]))
        for k in range(1, depth + 1)]
    table = [(np.zeros(1, dtype=np.int64), np.zeros(1))]
    held = None
    last = np.zeros(0, dtype=np.int64)  # the size after the last: it reads nothing
    for k, (keys, after) in enumerate(zip(levels, levels[1:] + [last]), 1):
        below, f_below = table[-1]
        values = np.empty(len(keys))
        read = _read_next(keys, after)
        n = np.count_nonzero(read)  # filled in place: no border is held twice
        held_next = _Border(keys[read], np.empty((n, k)), np.empty((n, k - 1)),
                            *(np.empty(n) for _ in range(3)))
        filled = 0
        for start in range(0, len(keys), _CHUNK):
            part = slice(start, start + _CHUNK)
            idx = _indices(keys[part], k)
            children = below.searchsorted(keys[part, None] - (_ONE << idx))
            border = _border(rows, mu.entries, keys[part], idx, held)
            values[part] = np.maximum(_peak(K, mu, rows, idx, border, certified),
                                      f_below[children].max(axis=1))
            count = np.count_nonzero(read[part])
            for whole, field in zip(held_next[1:], border[1:]):
                whole[filled:filled + count] = field[read[part]]
            filled += count
        table.append((keys, values))
        held = held_next
    return table


def _grown_from(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the two children each subset S of `keys` is grown from: S less its
    lowest row, and S less its second lowest."""
    parent = keys & (keys - 1)
    return parent, keys ^ (parent & -parent)


def _read_next(keys: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Whether the size after that of `keys`, whose keys are `after`, grows a subset
    from each subset of `keys`."""
    read = np.zeros(len(keys), dtype=bool)
    for children in _grown_from(after):
        read[keys.searchsorted(children)] = True
    return read


class _Border(NamedTuple):
    """What the bordering recursion knows of each subset S of one size, row i of each
    array for the i-th subset. S's rows are taken in ascending order, and its factor is
    bordered in the reverse one: j is S's lowest row, and P = S - j its parent.

    keys: S's bitmask;
    x: K_SS^-1 mu_S, in S's ascending order;
    v: K_PP^-1 K[P, j], in P's ascending order: the new column of the unit triangular
        factor of K_SS^-1;
    pivot: K_jj - K[j, P] v, the Schur complement of K_PP, which is the square of the
        last pivot of K_SS's Cholesky factor; NaN where it is not positive, or where a
        pivot it was grown from is NaN;
    g: mu_j - K[j, P] x_P, the gradient at j of P's unconstrained maximizer;
    U: mu_S' x_S / 2, the unconstrained maximum of l on S.
    """

    keys: np.ndarray
    x: np.ndarray
    v: np.ndarray
    pivot: np.ndarray
    g: np.ndarray
    U: np.ndarray


def _border(rows: np.ndarray, mu_entries: np.ndarray, keys: np.ndarray, idx: np.ndarray,
            held: _Border | None) -> _Border:
    """The `_Border` of each subset keys[i], whose ascending rows are idx[i], from the
    held borders of the size before.

    The recursion is Cholesky's bordering step (Golub & Van Loan §4.2) carried on the
    factor of the inverse, and it reads two children of S: its parent P = S - j and
    Q = S - p, p the second lowest row of S, whose parent P' = P - p is P's. With
    c = K_pj - K[p, P'] v_Q, the covariance of rows p and j once P' is regressed out,
    the new column's entry at p is s = c / pivot_P, and
        v_S = (s, v_Q - s v_P),   pivot_S = pivot_Q - c s,   g_S = g_Q - s g_P,
        x_S = (x_j, x_P - x_j v_S) with x_j = g_S / pivot_S,   U_S = U_P + g_S x_j / 2.
    So each size takes a fixed number of vectorized steps, none of them a triangular
    sweep, and U_S adds only terms of one sign. A subset of one row has P empty: pivot
    K_jj and g = mu_j.
    """
    j = idx[:, 0]
    if held is None:
        x_P = v = np.zeros((len(idx), 0))
        pivot, g, U_P = rows[j, j], mu_entries[j], 0.0
    else:
        P, Q = (held.keys.searchsorted(children) for children in _grown_from(keys))
        p, v_Q, v_P = idx[:, 1], held.v[Q], held.v[P]
        with np.errstate(over="ignore", invalid="ignore"):
            c = rows[p, j] - (rows[p[:, None], idx[:, 2:]] * v_Q).sum(axis=1)
            s = c / held.pivot[P]
            v = np.concatenate((s[:, None], v_Q - s[:, None] * v_P), axis=1)
            pivot = held.pivot[Q] - c * s
            g = held.g[Q] - s * held.g[P]
        x_P, U_P = held.x[P], held.U[P]
    pivot[~(pivot > 0.0)] = np.nan  # NaN stays NaN in every border grown from this one
    with np.errstate(over="ignore", invalid="ignore"):
        x_j = g / pivot
        x = np.concatenate((x_j[:, None], x_P - x_j[:, None] * v), axis=1)
        U = U_P + 0.5 * g * x_j
    return _Border(keys, x, v, pivot, g, U)


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


def _peak(K: KernelMatrix, mu: MeanMap, rows: np.ndarray, idx: np.ndarray, border: _Border,
          certified: bool) -> np.ndarray:
    """U+ on each support idx[i], or the weight solver's optimum on it where its block
    is not clearly positive definite; with `certified`, every block is.

    A definite block takes U+ from its border: U where every entry of x is positive.
    Where the border has no pivot, because a pivot met on the way is not positive, the
    block is solved by np.linalg.solve as it stands. This fallback exists because a
    factor needs a wider margin than the rule's k·eps: a Schur complement computed by
    subtractions can lose every digit of a smallest eigenvalue near that margin, or, as
    in `tests/helpers.unextendable_instance`, one a hundred times above it, while the LU
    solve of the definite block still answers; so the table answers wherever a solve of
    each block did.
    """
    if certified:
        definite = np.ones(len(idx), dtype=bool)
    else:
        eig = np.linalg.eigvalsh(_blocks(rows, idx))
        definite = eig[:, 0] > idx.shape[1] * _EPS * eig[:, -1]
    bordered = border.pivot > 0.0
    peak = np.where(definite & bordered & (border.x > 0.0).all(axis=1), border.U, -np.inf)
    unbordered = np.flatnonzero(definite & ~bordered)
    if unbordered.size:
        A, b = _blocks(rows, idx[unbordered]), mu.entries[idx[unbordered]]
        x = np.linalg.solve(A, b[..., None])[..., 0]
        value = np.einsum("ij,ij->i", x, b) - 0.5 * np.einsum("ij,ijk,ik->i", x, A, x)
        peak[unbordered] = np.where((x > 0.0).all(axis=1), value, -np.inf)
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
    rows, idx = K.block(range(n2)), _combinations(n2, k)
    for start in range(0, len(idx), _CHUNK):
        eig = np.linalg.eigvalsh(_blocks(rows, idx[start:start + _CHUNK]))
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
    # a pure function of the table and the order: the same order reads the same bits
    gamma_greedy = (gamma if greedy.indices == dash.indices
                    else _least_ratio(table, K.n2, greedy.indices.indices, m))
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
