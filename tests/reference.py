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


def proto_greedy(K, mu, m):
    """(indices, objectives, leads) of ProtoGreedy's first m steps.

    Each step solves every candidate with a positive gradient, with no bound
    to skip any, and takes the one that gains the most, ties to the lowest
    index; it stops early once no gradient is positive. A candidate whose
    gradient is not positive would gain nothing, so it scores 0. leads[s]
    holds step s's largest gain, the next candidate's (-inf if there is
    none) and the largest gradient.
    """
    L, w, f = [], np.zeros(0), 0.0
    objectives, leads = [], []
    for _ in range(m):
        g = mu - K[:, L] @ w
        gains, solved = np.full(len(mu), -np.inf), {}
        for j in range(len(mu)):
            if j in L:
                continue
            gains[j] = 0.0
            if g[j] > 0.0:
                solved[j] = weights(K, mu, L + [j])
                gains[j] = objective(K, mu, L + [j], solved[j]) - f
        top = np.argsort(-gains, kind="stable")[:2]
        leads.append((gains[top[0]], gains[top[1]] if top.size > 1 else -np.inf,
                      max(g[j] for j in range(len(mu)) if j not in L)))
        if not solved:
            break
        L.append(int(top[0]))
        w = solved[L[-1]]
        f = objective(K, mu, L, w)
        objectives.append(f)
    return L, objectives, leads


def l2c(K, mu, m):
    """(indices, objectives, leads) of L2C's m steps.

    Step t takes the candidate whose objective at the uniform weights 1/t on
    the support grown by it is largest, ties to the lowest index. leads[s]
    holds step s's largest objective and the next candidate's, -inf if there
    is none.
    """
    L, objectives, leads = [], [], []
    for t in range(1, m + 1):
        values = np.full(len(mu), -np.inf)
        for j in range(len(mu)):
            if j not in L:
                values[j] = objective(K, mu, L + [j], np.full(t, 1.0 / t))
        top = np.argsort(-values, kind="stable")[:2]
        leads.append((values[top[0]], values[top[1]] if top.size > 1 else -np.inf))
        L.append(int(top[0]))
        objectives.append(float(values[top[0]]))
    return L, objectives, leads


def criticisms(K, mu, L, w, c):
    """(indices, scores): the c largest witness deviations |mu_j - K_j w| off the
    support L, descending, ties to the lower index."""
    scores = np.abs(mu - K[:, L] @ w)
    kept = sorted((j for j in range(len(mu)) if j not in L), key=lambda j: (-scores[j], j))[:c]
    return kept, scores[kept]
