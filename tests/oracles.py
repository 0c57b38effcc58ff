"""Independent reference implementations used to pin expected test values.

Everything here is deliberately brute force: dense linear algebra, textbook
density formulas, central finite differences. Nothing imports the package's
own likelihood or gradient code, so agreement between the two is evidence,
not tautology.
"""

from __future__ import annotations

import numpy as np


def csr(W):
    """scipy's CSR form of W's triples: duplicates summed, stored zeros kept."""
    import scipy.sparse as sp
    return sp.coo_matrix((W.weights, (W.rows, W.cols)),
                         shape=(W.n, W.n)).tocsr()


def dense_A(W_dense: np.ndarray, rho: float) -> np.ndarray:
    n = W_dense.shape[0]
    return np.eye(n) - rho * W_dense


def dense_M(W_dense: np.ndarray, rho: float, tau: np.ndarray | None) -> np.ndarray:
    A = dense_A(W_dense, rho)
    if tau is None:
        return A.T @ A
    return A.T @ np.diag(1.0 / np.asarray(tau, dtype=float)) @ A


def mvn_logpdf(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Gaussian log density from an explicit dense covariance."""
    n = y.size
    diff = y - mean
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = diff @ np.linalg.solve(cov, diff)
    return float(-0.5 * (n * np.log(2.0 * np.pi) + logdet + quad))


def sem_cov(W_dense: np.ndarray, rho: float, sigma2: float,
            tau: np.ndarray | None) -> np.ndarray:
    """Covariance sigma^2 A^-1 Sigma_tau A^-T of the SAR error vector."""
    A = dense_A(W_dense, rho)
    Ainv = np.linalg.inv(A)
    mid = np.diag(np.asarray(tau, dtype=float)) if tau is not None else np.eye(A.shape[0])
    return sigma2 * Ainv @ mid @ Ainv.T


def schur_conditional(mean: np.ndarray, cov: np.ndarray, known_idx: np.ndarray,
                      unknown_idx: np.ndarray, y_known: np.ndarray):
    """Conditional mean and covariance of a Gaussian via the Schur complement."""
    kk = cov[np.ix_(known_idx, known_idx)]
    uk = cov[np.ix_(unknown_idx, known_idx)]
    uu = cov[np.ix_(unknown_idx, unknown_idx)]
    solve = np.linalg.solve(kk, y_known - mean[known_idx])
    cond_mean = mean[unknown_idx] + uk @ solve
    cond_cov = uu - uk @ np.linalg.solve(kk, uk.T)
    return cond_mean, cond_cov


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def fd_derivative(f, x: float, h: float = 1e-6) -> float:
    step = h * max(1.0, abs(x))
    return (f(x + step) - f(x - step)) / (2.0 * step)


def inverse_gamma_logpdf(x: float, shape: float, rate: float) -> float:
    """log density of IG(shape, rate) at x, from the textbook formula."""
    from scipy.special import gammaln
    return float(shape * np.log(rate) - gammaln(shape)
                 - (shape + 1.0) * np.log(x) - rate / x)


def mvt_logpdf(y: np.ndarray, mean: np.ndarray, scale: np.ndarray, df: float) -> float:
    """Multivariate Student-t log density with scale matrix `scale`."""
    from scipy.special import gammaln
    n = y.size
    diff = y - mean
    sign, logdet = np.linalg.slogdet(scale)
    assert sign > 0
    quad = diff @ np.linalg.solve(scale, diff)
    return float(gammaln((df + n) / 2.0) - gammaln(df / 2.0)
                 - 0.5 * n * np.log(df * np.pi) - 0.5 * logdet
                 - 0.5 * (df + n) * np.log1p(quad / df))


def discrete_mh_transition(weights_target: np.ndarray,
                           weights_proposal: np.ndarray) -> np.ndarray:
    """Transition matrix of an independence MH sampler on a finite state space.

    weights_target are unnormalized pi, weights_proposal unnormalized q.
    Acceptance from state i to proposed j uses the ratio
    (pi_j q_i) / (pi_i q_j).
    """
    pi = np.asarray(weights_target, dtype=float)
    q = np.asarray(weights_proposal, dtype=float)
    q = q / q.sum()
    k = pi.size
    T = np.zeros((k, k))
    for i in range(k):
        stay = 0.0
        for j in range(k):
            if j == i:
                continue
            a = min(1.0, (pi[j] * q[i]) / (pi[i] * q[j]))
            T[i, j] = q[j] * a
            stay += q[j] * (1.0 - a)
        T[i, i] = q[i] + stay
    return T
