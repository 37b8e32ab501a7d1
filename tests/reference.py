"""A plain reference pipeline for differential tests; it imports nothing from `src/`.

The paper's ProtoDash written out the direct way: a dense gaussian Gram and
mean map from cdist, the gradient mu - K w, and the non-negative weights on
a support from scipy's Lawson-Hanson NNLS on the Cholesky form. It holds
every n x n array and solves every step from scratch. That is its point: it
shares no code with the package's lazy Gram, tiled GEMM mean map or
warm-started active-set solve, so a fault pinned into the package's own
digest still shows against it.
"""

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls
from scipy.spatial.distance import cdist, pdist


def median_bandwidth(X):
    return float(np.median(pdist(X)))


def gaussian(A, B, sigma):
    """exp(-|a - b|^2 / (2 sigma^2)) for every row a of A and b of B."""
    return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * sigma * sigma))


def mean_map(target, source, sigma):
    """Entry j: the mean over the target rows of their kernel with source row j."""
    return gaussian(target, source, sigma).mean(axis=0)


def gram(source, sigma, jitter=1e-10):
    """The dense Gram of the source rows, 1 + jitter on the diagonal."""
    K = gaussian(source, source, sigma)
    np.fill_diagonal(K, 1.0 + jitter)
    return K


def weights(K, mu, L):
    """The w >= 0 on the support L that maximizes w'mu_L - w'K_LL w / 2.

    With K_LL = R'R and R'y = mu_L, the objective is (|y|^2 - |Rw - y|^2) / 2,
    so its maximum over w >= 0 is NNLS on (R, y).
    """
    R = cholesky(K[np.ix_(L, L)])
    return nnls(R, solve_triangular(R, mu[L], trans="T"))[0]


def objective(K, mu, L, w):
    return float(w @ mu[L] - 0.5 * w @ K[np.ix_(L, L)] @ w)


def proto_dash(K, mu, m):
    """(indices, objectives, leads) of ProtoDash's first m steps.

    Each step takes the candidate with the largest gradient mu - K w, ties to
    the lowest index, and stops early once no gradient is positive. leads[s]
    holds step s's largest gradient and the next candidate's, -inf if there is
    none: how close the step came to another pick, or to stopping.
    """
    L, w = [], np.zeros(0)
    objectives, leads = [], []
    for _ in range(m):
        g = mu - K[:, L] @ w
        g[L] = -np.inf
        top = np.argsort(-g, kind="stable")[:2]
        leads.append((g[top[0]], g[top[1]] if top.size > 1 else -np.inf))
        if not g[top[0]] > 0.0:
            break
        L.append(int(top[0]))
        w = weights(K, mu, L)
        objectives.append(objective(K, mu, L, w))
    return L, objectives, leads
