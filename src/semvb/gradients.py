"""Analytic gradients of the log h targets and of the variational density.

`grad_log_h_full` and `grad_log_h_missing` return the gradient and the value
of log h from one pass: the link inverse, the missingness predictor eta and
the complete-data log-likelihood with its residual, A r and r^T M r
(`likelihoods._loglik_terms`) are computed once per draw and serve both.
`grad_log_q0` and `variational.log_q0` share one Woodbury core,
`_log_q0_and_grad`, which the SGA loop calls once a draw.

Every gradient here is the exact chain-rule derivative of the corresponding
implemented target over the unconstrained vector theta, and the test suite
certifies each block against central finite differences of that target. The
Jacobians of the constrained-to-unconstrained links are folded in, so the
vectors line up coordinate-for-coordinate with the theta layout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError
from .likelihoods import (Dataset, _Response, _log_p_m_eta, _log_prior,
                          _loglik_terms, _tau_sum, layout_full,
                          layout_missing)
from .models import ModelKind, ModelParams, Priors, ThetaLayout, link_inverse
from .spatial import apply_At, trace_AinvW
from .transforms import dtwo_expit, expit

__all__ = ["digamma", "grad_log_h_full", "grad_log_h_missing", "grad_log_q0"]

# Asymptotic series of psi(x) - log x + 1/(2x) in z = 1/x^2, highest power
# first: B_2k / (2k) for k = 7..1, as in cephes' psi.
_PSI_SERIES = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
               7.57575757575757575758e-3, -4.16666666666666666667e-3,
               3.96825396825396825397e-3, -8.33333333333333333333e-3,
               8.33333333333333333333e-2)


def digamma(x: float) -> float:
    """The digamma function psi(x) = d log Gamma(x) / dx for real x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x moves x to 10 or above, where
    cephes' asymptotic series log x - 1/(2x) - sum_k B_2k / (2k x^2k) takes
    over. On x in [1e-3, 1e6], and densely around the positive root
    1.4616..., |error| <= 16 eps max(1, |psi(x)|) against
    `scipy.special.digamma`; the tests enforce that bound.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"digamma is defined here for x > 0; got {x!r}")
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    poly = 0.0
    for c in _PSI_SERIES:
        poly = poly * z + c
    return math.log(x) - 0.5 / x - z * poly - shift


def _grad_core(kind: ModelKind, data: Dataset, layout: ThetaLayout,
               theta: np.ndarray, params: ModelParams,
               tau: np.ndarray | None, priors: Priors,
               resp: _Response, grad: np.ndarray
               ) -> tuple[float, float | None]:
    """Fill the likelihood + prior gradient blocks shared by both targets.

    Returns the complete-data log-likelihood at resp.y and, for Student-t
    kinds, the draw's sum of tau' + e^{-tau'}, which the log prior reuses
    (None otherwise).
    """
    W = data.W
    n = data.n
    inv_sig2 = 1.0 / params.sigma2
    s = 1.0 / tau if tau is not None else None
    ll, r, wr, ar, s_ar, quad, dt_dgamma = _loglik_terms(
        kind, data, params, s, resp, dgamma=True)
    mr = apply_At(W, params.rho, s_ar)          # M r

    grad[layout.beta] = inv_sig2 * (data.X.T @ mr) \
        - theta[layout.beta] / priors.var_beta
    grad[layout.omega] = (-0.5 * n + 0.5 * inv_sig2 * quad
                          - theta[layout.omega] / priors.var_omega)

    s_wr = s * wr if s is not None else wr
    dll_drho = -trace_AinvW(W, params.rho) + inv_sig2 * float(ar @ s_wr)
    grad[layout.rho] = (dll_drho * dtwo_expit(theta[layout.rho])
                        - theta[layout.rho] / priors.var_rho)

    tau_sum = None
    if kind.student_t:
        nu = params.nu
        tau_z = theta[layout.tau]
        exp_neg = np.exp(-tau_z)
        half_nu = 0.5 * nu
        tau_sum = _tau_sum(tau_z, exp_neg)
        dnu = 0.5 * (n * np.log(half_nu) + n - n * digamma(half_nu)
                     - tau_sum)
        # d nu / d nu' = e^{nu'}
        grad[layout.nu] = (dnu * np.exp(theta[layout.nu])
                           - theta[layout.nu] / priors.var_nu)
        grad[layout.tau] = (-0.5 + 0.5 * inv_sig2 * ar * ar * exp_neg
                            + half_nu * (exp_neg - 1.0))

    if kind.yeo_johnson:
        dll_dgamma = -inv_sig2 * float(mr @ dt_dgamma) + resp.dlogjac
        grad[layout.gamma] = (dll_dgamma * dtwo_expit(theta[layout.gamma])
                              - theta[layout.gamma] / priors.var_gamma)
    return ll, tau_sum


def grad_log_h_full(kind: ModelKind, data: Dataset, theta: np.ndarray,
                    priors: Priors) -> tuple[np.ndarray, float]:
    """Gradient of the complete-data log h with respect to theta, and log h
    (loglik + log prior) from the same pass."""
    resp = data.response   # per fit: raises on missing responses
    layout = layout_full(kind, data)
    theta = np.asarray(theta, dtype=float)
    params, tau, _ = link_inverse(kind, layout, theta)
    grad = np.empty(layout.size)
    ll, tau_sum = _grad_core(kind, data, layout, theta, params, tau, priors,
                             resp, grad)
    return grad, ll + _log_prior(layout, theta, priors, tau_sum)


def grad_log_h_missing(kind: ModelKind, data: Dataset, theta: np.ndarray,
                       y_u: np.ndarray, priors: Priors
                       ) -> tuple[np.ndarray, float]:
    """Gradient of the missing-data log h with respect to theta, and log h
    (completed-data loglik + log p(m | y, psi) + log prior) from the same
    pass.

    The likelihood blocks are the complete-data gradients evaluated at the
    completed response; the psi block is sum_i (m_i - p_i) z_i minus the
    prior pull, with z_i = (x*_i, y_i) and p_i the logistic missingness
    probability. The missingness pmf reuses that block's predictor eta.
    """
    layout = layout_missing(kind, data)
    theta = np.asarray(theta, dtype=float)
    resp = _Response(data, y_u)
    y_complete = resp.y
    params, tau, psi = link_inverse(kind, layout, theta)
    grad = np.empty(layout.size)
    ll, tau_sum = _grad_core(kind, data, layout, theta, params, tau, priors,
                             resp, grad)

    m = data.missing_float
    eta = data.Xstar @ psi.psi_x + psi.psi_y * y_complete
    resid = m - expit(eta)
    grad[layout.psi] = np.concatenate([
        data.Xstar.T @ resid, [float(resid @ y_complete)]
    ]) - theta[layout.psi] / priors.var_psi
    log_h = (ll + float(_log_p_m_eta(m, eta))
             + _log_prior(layout, theta, priors, tau_sum))
    return grad, log_h


def _log_q0_and_grad(lam, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """log q_lambda(theta) and its gradient from one Woodbury core.

    With Sigma = B B^T + D^2 and core = I + B^T D^-2 B,
    Sigma^-1 v = u - D^-2 B core^-1 B^T u for u = D^-2 v, and
    log|Sigma| = sum log d^2 + log|core|, so the cost is O(s p^2) rather
    than O(s^3).
    """
    theta = np.asarray(theta, dtype=float)
    d2 = lam.d * lam.d
    if np.any(d2 == 0.0):
        raise SingularityError("variational d contains zeros")
    v = theta - lam.mu
    u = v / d2
    BtU = lam.B.T @ u
    p = lam.B.shape[1]
    core = np.eye(p) + lam.B.T @ (lam.B / d2[:, None])
    x = np.linalg.solve(core, BtU)
    grad = -(u - (lam.B @ x) / d2)
    sign, logdet_core = np.linalg.slogdet(core)
    if sign <= 0:
        raise SingularityError("variational covariance is not positive definite")
    logdet = float(np.sum(np.log(d2)) + logdet_core)
    quad = float(-v @ grad)
    return -0.5 * (v.size * np.log(2.0 * np.pi) + logdet + quad), grad


def grad_log_q0(lam, theta: np.ndarray) -> np.ndarray:
    """Gradient of log q_lambda at theta: -(B B^T + D^2)^{-1} (theta - mu)."""
    return _log_q0_and_grad(lam, theta)[1]
