"""Shared builders for randomized test instances.

The response is simulated with dense numpy linear algebra only, independent
of the package's own simulate module, so recovery of likelihood values and
gradients is checked against construction, not implementation.
"""

from __future__ import annotations

import numpy as np

from semvb.likelihoods import Dataset, layout_full, layout_missing
from semvb.models import (MissingnessParams, ModelKind, ModelParams, Priors,
                          link_forward)
from semvb.spatial import build_rook_lattice
from semvb.transforms import yj_inverse

from oracles import csr


def random_instance(kind: ModelKind, seed: int, lattice=(4, 4),
                    n_covariates: int = 2, missing_frac: float = 0.0):
    """Build a simulated dataset plus a theta perturbed around the truth.

    Returns a dict with data, layout, theta, y_u (true values at missing
    slots), params, tau, psi, priors.
    """
    rng = np.random.default_rng(seed)
    W = build_rook_lattice(*lattice)
    n = W.n
    X = np.column_stack([np.ones(n), rng.standard_normal((n, n_covariates))])
    beta = rng.uniform(-2.0, 2.0, size=n_covariates + 1)
    sigma2 = float(rng.uniform(0.5, 2.0))
    rho = float(rng.uniform(-0.6, 0.8))
    nu = float(rng.uniform(4.0, 12.0)) if kind.student_t else None
    gamma = float(rng.uniform(0.6, 1.5)) if kind.yeo_johnson else None
    params = ModelParams(beta=beta, sigma2=sigma2, rho=rho, nu=nu, gamma=gamma)

    tau = None
    scale = np.ones(n)
    if kind.student_t:
        tau = 1.0 / rng.gamma(nu / 2.0, 2.0 / nu, size=n)
        scale = tau
    e = rng.standard_normal(n) * np.sqrt(sigma2 * scale)
    A = np.eye(n) - rho * csr(W).toarray()
    y_star = X @ beta + np.linalg.solve(A, e)
    y = yj_inverse(y_star, gamma) if kind.yeo_johnson else y_star

    psi = None
    Xstar = None
    missing = np.zeros(n, dtype=bool)
    if missing_frac > 0:
        Xstar = np.column_stack([np.ones(n), rng.standard_normal(n)])
        psi = MissingnessParams(psi_x=rng.normal(0.0, 0.5, size=2),
                                psi_y=float(rng.normal(0.0, 0.3)))
        k = max(1, int(round(missing_frac * n)))
        missing[rng.choice(n, size=k, replace=False)] = True

    y_obs = y.copy()
    y_obs[missing] = np.nan
    data = Dataset(y=y_obs, X=X, W=W, Xstar=Xstar)

    if missing_frac > 0:
        layout = layout_missing(kind, data)
        theta_true = link_forward(kind, layout, params, tau=tau, psi=psi)
    else:
        layout = layout_full(kind, data)
        theta_true = link_forward(kind, layout, params, tau=tau)
    theta = theta_true + rng.normal(0.0, 0.25, size=layout.size)

    return {
        "data": data, "layout": layout, "theta": theta,
        "theta_true": theta_true, "y_u": y[missing], "y_full": y,
        "params": params, "tau": tau, "psi": psi, "priors": Priors(),
        "rng": rng,
    }


def with_spectrum(W):
    """W with its band spectrum computed, which then serves every log-det
    and trace on it (`spatial.plan_route`)."""
    assert W.eigenvalues is not None
    return W


ALL_KINDS = [ModelKind.SEM_GAU, ModelKind.SEM_T,
             ModelKind.YJ_SEM_GAU, ModelKind.YJ_SEM_T]
