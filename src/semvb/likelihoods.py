"""Residuals, log-likelihoods, priors, and the composite log h targets.

The four model kinds share one likelihood shell: with r the (possibly
transformed) residual and M = A^T A or A^T Sigma_tau^-1 A,

    loglik = -(n/2) log 2 pi - (n/2) log sigma^2 + (1/2) log|M|
             - (1/(2 sigma^2)) r^T M r  [+ sum log dt_gamma/dy for YJ kinds].

log h is the unnormalized posterior over the unconstrained parameter vector
theta: the likelihood plus Gaussian prior kernels on the link scale, plus the
inverse-gamma mixing density (with its log-Jacobian) for the Student-t scale
block, plus the logistic missingness term when responses are missing.

The shell and the YJ log-Jacobian are written once, in `_loglik_terms`:
`loglik` and `marginal_loglik_t` (which DIC evaluates per draw) are their
input checks plus that call, `log_h_full` and `log_h_missing` add the prior
(and the missingness pmf) to `loglik`, and the SGA's gradient pass
(`gradients.grad_log_h_full` and `gradients.grad_log_h_missing`) takes its
value and its residual terms from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import lgamma

import numpy as np

from .errors import DimensionError, DomainError
from .models import (MissingnessParams, ModelKind, ModelParams, Priors,
                     ThetaLayout, link_inverse)
from .spatial import SpatialWeights, _inv_tau, apply_A, logdet_A
from .transforms import yj_dlogdy_dgamma, yj_forward

__all__ = [
    "Dataset", "layout_full", "layout_missing",
    "residual_r", "loglik", "marginal_loglik_t", "log_p_m",
    "log_prior", "log_h_full", "log_h_missing",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Dataset:
    """Response vector, design matrices, and spatial weights.

    Missing responses are encoded as NaN in `y`; X and Xstar must be fully
    observed and carry a leading intercept column.
    """

    y: np.ndarray
    X: np.ndarray
    W: SpatialWeights
    Xstar: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if self.Xstar is not None:
            object.__setattr__(self, "Xstar", np.asarray(self.Xstar, dtype=float))
        n = self.W.n
        if y.ndim != 1 or y.shape[0] != n:
            raise DimensionError("y length must match the weight matrix")
        if X.ndim != 2 or X.shape[0] != n:
            raise DimensionError("X must have one row per site")
        if not np.all(np.isfinite(X)):
            raise DomainError("X must be fully observed")
        if not np.all(X[:, 0] == 1.0):
            raise DomainError("X must carry a leading intercept column")
        if self.Xstar is not None:
            if self.Xstar.ndim != 2 or self.Xstar.shape[0] != n:
                raise DimensionError("Xstar must have one row per site")
            if not np.all(np.isfinite(self.Xstar)):
                raise DomainError("Xstar must be fully observed")
            if not np.all(self.Xstar[:, 0] == 1.0):
                raise DomainError("Xstar must carry a leading intercept column")

    @property
    def n(self) -> int:
        return self.W.n

    @property
    def n_beta(self) -> int:
        return self.X.shape[1]

    @cached_property
    def missing(self) -> np.ndarray:
        m = np.isnan(self.y)
        m.setflags(write=False)
        return m

    @property
    def n_missing(self) -> int:
        return int(self.missing.sum())

    @cached_property
    def unobserved_idx(self) -> np.ndarray:
        """The missing sites, ascending."""
        idx = np.flatnonzero(self.missing)
        idx.setflags(write=False)
        return idx

    def require_complete(self) -> None:
        if self.n_missing:
            raise DomainError(f"{self.n_missing} response entries are missing")

    def complete(self, y_u: np.ndarray) -> np.ndarray:
        """Full response vector with y_u filled into the missing slots."""
        y_u = np.asarray(y_u, dtype=float)
        if y_u.shape != (self.n_missing,):
            raise DimensionError(
                f"y_u has length {y_u.shape[0]}, expected {self.n_missing}")
        out = self.y.copy()
        out[self.missing] = y_u
        return out

    def with_y(self, y_new: np.ndarray) -> "Dataset":
        return replace(self, y=np.asarray(y_new, dtype=float))


def layout_full(kind: ModelKind, data: Dataset) -> ThetaLayout:
    """Theta layout for the complete-data target (no psi block)."""
    return ThetaLayout(kind=kind, n_beta=data.n_beta, n_sites=data.n)


def layout_missing(kind: ModelKind, data: Dataset) -> ThetaLayout:
    """Theta layout for the missing-data target, including the psi block."""
    if data.Xstar is None:
        raise DomainError("missing-data target requires Xstar")
    return ThetaLayout(kind=kind, n_beta=data.n_beta, n_sites=data.n,
                       n_psi_x=data.Xstar.shape[1], with_psi=True)


def residual_r(kind: ModelKind, y_complete: np.ndarray, X: np.ndarray,
               beta: np.ndarray, gamma: float | None = None) -> np.ndarray:
    """r = y - X beta, with y first Yeo-Johnson transformed for YJ kinds."""
    y_complete = np.asarray(y_complete, dtype=float)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(np.isnan(y_complete)):
        raise DomainError("y_complete has missing entries")
    if X.shape != (y_complete.shape[0], beta.shape[0]):
        raise DimensionError("X, y, beta dimensions disagree")
    if kind.yeo_johnson:
        if gamma is None:
            raise DomainError("gamma is required for Yeo-Johnson kinds")
        return yj_forward(y_complete, gamma) - X @ beta
    return y_complete - X @ beta


def _loglik_terms(kind: ModelKind, data: Dataset, params: ModelParams,
                  s: np.ndarray | None, y: np.ndarray, marginal: bool = False):
    """The log-likelihood at the response y, with the terms the gradient
    reuses: (loglik, r, A r, s A r, r^T M r, the gamma-derivative of the YJ
    log-Jacobian).

    s is the diagonal of Sigma_tau^-1 (1/tau) for the complete-data density
    of Student-t kinds and None otherwise, so log|M| = 2 log det A +
    sum log s and r^T M r = (A r)^T (s A r). With marginal (and s None) the
    value is the multivariate t left by integrating tau out: scale matrix
    sigma^2 M^-1, nu degrees of freedom. log dt/dy is linear in gamma on
    each branch, so the YJ log-Jacobian sum log dt/dy is (gamma - 1) times
    its gamma-derivative. Neither s nor y is checked here.
    """
    n, W, sigma2 = data.n, data.W, params.sigma2
    r = residual_r(kind, y, data.X, params.beta, params.gamma)
    ar = apply_A(W, params.rho, r)
    s_ar = ar if s is None else s * ar
    quad = float(ar @ s_ar)
    logdet_m = 2.0 * logdet_A(W, params.rho)
    if s is not None:
        logdet_m += float(np.sum(np.log(s)))
    if marginal:
        nu = params.nu
        const = (lgamma(0.5 * (nu + n)) - lgamma(0.5 * nu)
                 - 0.5 * n * np.log(nu * np.pi))
        kernel = 0.5 * (nu + n) * np.log1p(quad / (nu * sigma2))
    else:
        const, kernel = -0.5 * n * _LOG_2PI, quad / (2.0 * sigma2)
    ll = const - 0.5 * n * np.log(sigma2) + 0.5 * logdet_m - kernel
    dlogjac = None
    if kind.yeo_johnson:
        dlogjac = float(np.sum(yj_dlogdy_dgamma(y)))
        ll += (params.gamma - 1.0) * dlogjac
    return float(ll), r, ar, s_ar, quad, dlogjac


def loglik(kind: ModelKind, data: Dataset, params: ModelParams,
           tau: np.ndarray | None = None) -> float:
    """Complete-data log-likelihood, additive constants included."""
    data.require_complete()
    params.require_kind(kind)
    s = _inv_tau(kind, data.W, tau)
    return _loglik_terms(kind, data, params, s, data.y)[0]


def marginal_loglik_t(kind: ModelKind, data: Dataset, params: ModelParams) -> float:
    """Closed-form multivariate-t log density used on the DIC path.

    Mean X beta (on the transformed scale for YJ kinds), scale matrix
    sigma^2 (A^T A)^-1, nu degrees of freedom; the YJ variant adds the
    transform's log-Jacobian.
    """
    if not kind.student_t:
        raise DomainError("marginal_loglik_t applies to Student-t kinds only")
    data.require_complete()
    params.require_kind(kind)
    return _loglik_terms(kind, data, params, None, data.y, marginal=True)[0]


def log_p_m(m: np.ndarray, y_complete: np.ndarray, Xstar: np.ndarray,
            psi: MissingnessParams) -> float:
    """Log pmf of the missingness indicators under the logistic model."""
    m = np.asarray(m, dtype=float)
    y_complete = np.asarray(y_complete, dtype=float)
    if np.any(np.isnan(y_complete)):
        raise DomainError("y_complete has missing entries")
    if m.shape != y_complete.shape or Xstar.shape[0] != m.shape[0]:
        raise DimensionError("m, y, Xstar dimensions disagree")
    eta = Xstar @ psi.psi_x + psi.psi_y * y_complete
    return float(_log_p_m_eta(m, eta))


def _log_p_m_eta(m: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """sum of m eta - log(1 + e^eta) over the last axis: log p(m | y) from
    the logistic predictor eta, one value per row of a stack of eta."""
    # log(1 + e^eta) via logaddexp keeps both tails exact
    return np.sum(m * eta - np.logaddexp(0.0, eta), axis=-1)


def _tau_prior_block(nu: float, tau_z: np.ndarray) -> float:
    """Sum of IG(nu/2, nu/2) log densities at tau = e^{tau'} plus the
    log-Jacobian of the log link, simplified on the unconstrained scale."""
    n = tau_z.size
    half_nu = 0.5 * nu
    return float(n * (half_nu * np.log(half_nu) - lgamma(half_nu))
                 - half_nu * np.sum(tau_z + np.exp(-tau_z)))


def log_prior(layout: ThetaLayout, theta: np.ndarray, priors: Priors) -> float:
    """Log prior over the unconstrained vector, up to additive constants.

    Gaussian kernels on beta, omega', rho', nu', gamma', psi; the Student-t
    tau block enters with its full inverse-gamma density and link Jacobian
    because it depends on nu.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (layout.size,):
        raise DimensionError(f"theta has length {theta.shape[0]}, "
                             f"expected {layout.size}")
    out = -0.5 * float(np.sum(theta[layout.beta] ** 2)) / priors.var_beta
    out -= 0.5 * theta[layout.omega] ** 2 / priors.var_omega
    out -= 0.5 * theta[layout.rho] ** 2 / priors.var_rho
    if layout.nu is not None:
        out -= 0.5 * theta[layout.nu] ** 2 / priors.var_nu
    if layout.gamma is not None:
        out -= 0.5 * theta[layout.gamma] ** 2 / priors.var_gamma
    if layout.tau is not None:
        nu = 3.0 + np.exp(theta[layout.nu])
        out += _tau_prior_block(nu, theta[layout.tau])
    if layout.psi is not None:
        out -= 0.5 * float(np.sum(theta[layout.psi] ** 2)) / priors.var_psi
    return float(out)


def log_h_full(kind: ModelKind, data: Dataset, theta: np.ndarray,
               priors: Priors) -> float:
    """Complete-data target: loglik + log prior at the unconstrained theta."""
    layout = layout_full(kind, data)
    params, tau, _ = link_inverse(kind, layout, theta)
    return loglik(kind, data, params, tau) + log_prior(layout, theta, priors)


def log_h_missing(kind: ModelKind, data: Dataset, theta: np.ndarray,
                  y_u: np.ndarray, priors: Priors) -> float:
    """Missing-data target: completed-data log h plus the missingness pmf.

    theta carries the psi block; y_u fills the unobserved response slots.
    """
    layout = layout_missing(kind, data)
    params, tau, psi = link_inverse(kind, layout, theta)
    y = data.complete(y_u)
    return (loglik(kind, data.with_y(y), params, tau)
            + log_p_m(data.missing, y, data.Xstar, psi)
            + log_prior(layout, theta, priors))
