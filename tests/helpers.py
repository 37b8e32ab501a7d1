"""Instance builders shared by the test modules."""

import numpy as np
from hypothesis import settings

from protoselect import (Dataset, KernelSpec, gradient, kernel_matrix, mean_map,
                         median_bandwidth, top_m_by_weight)
from protoselect.kernel import KernelMatrix, MeanMap
from protoselect.selectors import SelectionConfig

# Derandomized and capped, so a property test runs the same way, and quickly, every time.
RULES = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def gaussian_instance(rng, n1=8, n2=6, d=2, sigma=1.0, jitter=1e-10):
    """Random gaussian-kernel instance: (KernelMatrix, MeanMap)."""
    spec = KernelSpec("gaussian", bandwidth=sigma, jitter=jitter)
    source = Dataset(rng.normal(size=(n2, d)))
    target = Dataset(rng.normal(size=(n1, d)))
    return kernel_matrix(source, spec), mean_map(target, source, spec)


def random_gaussian_instance(rng, max_n1=15, max_n2=10, max_m=3):
    """Seeded enumerable instance: gaussian Gram, mean map over 2 to max_n2 rows, and an m.

    Draws the feature dimension (2 or 3), n1, n2, m and a bandwidth in [0.5, 2],
    then standard-normal source and target rows, in that order.
    """
    d = int(rng.choice((2, 3)))
    n1 = int(rng.integers(2, max_n1 + 1))
    n2 = int(rng.integers(2, max_n2 + 1))
    m = int(rng.integers(1, min(max_m, n2) + 1))
    spec = KernelSpec("gaussian", bandwidth=float(rng.uniform(0.5, 2.0)))
    source = Dataset(rng.normal(size=(n2, d)))
    target = Dataset(rng.normal(size=(n1, d)))
    return kernel_matrix(source, spec), mean_map(target, source, spec), m


def late_gains_instance():
    """n2 = 400, d = 5: by m = 100 ProtoGreedy's gains fall below 1e-6 of the objective, and
    step-backs leave support weights at zero with a negative gradient."""
    rng = np.random.default_rng(7)
    source = Dataset(rng.standard_normal((400, 5)))
    target = Dataset(rng.standard_normal((400, 5)) + 0.3)
    spec = KernelSpec("gaussian", bandwidth=median_bandwidth(source))
    return kernel_matrix(source, spec), mean_map(target, source, spec)


def margin_instances():
    """Two instances on K = diag(1, t), t either side of the oracle's certificate margin at
    depth 2, with mu = (0.6, t): {"below": ..., "above": ...}.

    eigvalsh returns (t, 1) exactly, so delta = 1024 eps = 2^-42, and the certificate needs
    t - 2^-41 > 2 eps (1 + 2^-41). Below, t - 2^-41 = 1.5 eps: certified with no slack, or
    with depth 1 in place of 2. Above, it is 2.5 eps. Every block of either passes its own
    test, so both tables come from the closed form.
    """
    eps = float(np.finfo(float).eps)
    return {side: (KernelMatrix(np.diag([1.0, t])), MeanMap(entries=[0.6, t], n1=1))
            for side, t in (("below", 2.0 ** -41 + 1.5 * eps), ("above", 2.0 ** -41 + 2.5 * eps))}


def dense(table, n2):
    """The oracle's keyed table as one array over every bitmask of n2 rows: entry mask holds
    f on the subset whose bitmask is mask, and NaN where the table holds no subset."""
    out = np.full(1 << n2, np.nan)
    for keys, values in table:
        out[keys] = values
    return out


def oversampled(select, K, mu, m, factor, seed=None, solver=None):
    """Select factor * m prototypes (at most n2), then keep the m of largest weight."""
    full = select(K, mu, SelectionConfig(m=min(factor * m, K.n2), seed=seed, solver=solver))
    return full if len(full.indices) <= m else top_m_by_weight(full, m, K, mu, solver)


def entries_of(K):
    """Every entry of the Gram K, read through its readers as one n2 x n2 array."""
    return K.block(np.arange(K.n2))


def synthetic_instance(entries, mu_values, n1=1):
    """Instance with hand-picked Gram entries and mean map."""
    K = KernelMatrix(entries=np.asarray(entries, dtype=float))
    mu = MeanMap(entries=np.asarray(mu_values, dtype=float), n1=n1)
    return K, mu


def identity_instance(mu_values, n1=1):
    n = len(mu_values)
    return synthetic_instance(np.eye(n), mu_values, n1=n1)


def identity_kernel_instance(rng, max_n2=10, max_m=3):
    """Modular instance of 2 to max_n2 rows: identity Gram, positive mean map, and an m."""
    n2 = int(rng.integers(2, max_n2 + 1))
    m = int(rng.integers(1, min(max_m, n2) + 1))
    return (*identity_instance(rng.uniform(0.2, 1.0, size=n2)), m)


def finite_difference_check(K, mu, w, step):
    """Largest disagreement between the gradient and central differences.

    Checks the support coordinates, or every coordinate when the support
    is empty. Coordinates whose gradient is within 1e-6 of zero report the
    absolute error; the rest report relative error.
    """
    coords = list(w.support) if len(w.support) else list(range(K.n2))
    dense = w.dense()
    full, mu_entries = K.block(range(K.n2)), mu.entries

    def value(v):
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
