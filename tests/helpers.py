"""Instance builders shared by the test modules."""

import numpy as np

from protoselect import Dataset, KernelSpec, kernel_matrix, mean_map
from protoselect.kernel import KernelMatrix, MeanMap


def gaussian_instance(rng, n1=8, n2=6, d=2, sigma=1.0, jitter=1e-10):
    """Random gaussian-kernel instance: (KernelMatrix, MeanMap)."""
    spec = KernelSpec("gaussian", bandwidth=sigma, jitter=jitter)
    source = Dataset(rng.normal(size=(n2, d)))
    target = Dataset(rng.normal(size=(n1, d)))
    return kernel_matrix(source, spec), mean_map(target, source, spec)


def synthetic_instance(entries, mu_values, n1=1):
    """Instance with hand-picked Gram entries and mean map."""
    K = KernelMatrix(entries=np.asarray(entries, dtype=float), spec=KernelSpec("linear", jitter=0.0))
    mu = MeanMap(entries=np.asarray(mu_values, dtype=float), n1=n1)
    return K, mu


def identity_instance(mu_values, n1=1):
    n = len(mu_values)
    return synthetic_instance(np.eye(n), mu_values, n1=n1)
