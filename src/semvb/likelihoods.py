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

Work that depends on the data alone is done once per `Dataset` and cached
on it: the missingness mask as 0/1 floats and its complement, the theta
layouts (one per shape), and the Yeo-Johnson parts of the observed
responses that do not depend on gamma (`Dataset.yj_observed`: the bases
1 + y and 1 - y with their logs, and d log(dt/dy)/dgamma, summed once for
complete data). Per draw, a `_Response` holds the complete response (the
data's own, or one completed by the draw's y_u, whose parts and NaN check
are the draw's; `loglik` and `marginal_loglik_t` take that y_u, so DIC5
and `log_h_missing` build no new Dataset per draw); one pair of powers
then gives t_gamma(y) and its gamma-derivative, and the rest of
`_loglik_terms` (residual, W r, A r, log det A, the quadratic form) is per
draw. The prior's tau block shares
the draw's sum of tau' + e^{-tau'} with the nu gradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from functools import cached_property
from math import lgamma

import numpy as np

from .errors import DimensionError, DomainError
from .models import (MissingnessParams, ModelKind, ModelParams, Priors,
                     ThetaLayout, link_inverse)
from .spatial import SpatialWeights, _inv_tau, logdet_A
from .transforms import YJBases

__all__ = [
    "Dataset", "layout_full", "layout_missing",
    "loglik", "marginal_loglik_t", "log_p_m",
    "log_prior", "log_h_full", "log_h_missing",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Dataset:
    """Response vector, design matrices, and spatial weights.

    Missing responses are encoded as NaN in `y`; X and Xstar must be fully
    observed and carry a leading intercept column. `y` is held as a
    read-only copy, since the per-fit caches below are built from it.
    """

    y: np.ndarray
    X: np.ndarray
    W: SpatialWeights
    Xstar: np.ndarray | None = None

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        y.setflags(write=False)
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

    @cached_property
    def n_missing(self) -> int:
        return int(self.missing.sum())

    @cached_property
    def observed(self) -> np.ndarray:
        """The complement of `missing`."""
        obs = ~self.missing
        obs.setflags(write=False)
        return obs

    @cached_property
    def missing_float(self) -> np.ndarray:
        """`missing` as 0.0/1.0: the indicators m of the missingness model."""
        m = self.missing.astype(float)
        m.setflags(write=False)
        return m

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
        out[self.unobserved_idx] = y_u
        return out

    @cached_property
    def yj_observed(self) -> YJBases:
        """The gamma-free Yeo-Johnson parts of the observed responses."""
        return YJBases(self.y[self.observed], np.flatnonzero(self.observed))

    @cached_property
    def _dlogdy_observed(self) -> np.ndarray:
        """d log(dt/dy)/dgamma at each observed site, 0 at the missing ones."""
        d = np.zeros(self.n)
        d[self.yj_observed.sites] = self.yj_observed.dlogdy
        return d

    @cached_property
    def response(self) -> "_Response":
        """The complete response with its per-fit terms; see `_Response`."""
        self.require_complete()
        return _Response(self)

    def with_y(self, y_new: np.ndarray) -> "Dataset":
        return replace(self, y=y_new)


class _Response:
    """A complete response vector y and the Yeo-Johnson terms of one
    evaluation at it: the data's own y, or y completed by a draw's y_u.

    The observed sites' gamma-free parts are computed once per Dataset
    (`Dataset.yj_observed`), so a draw computes only those of its y_u, and
    only when a YJ kind asks for them. A completed y is checked for NaN
    here, on every draw.
    """

    def __init__(self, data: Dataset, y_u: np.ndarray | None = None):
        self.data = data
        if y_u is None:
            self.y_u, self.y = None, data.y
        else:
            self.y = data.complete(y_u)
            self.y_u = np.asarray(y_u, dtype=float)
            if np.isnan(self.y_u).any():
                raise DomainError("y_complete has missing entries")

    @cached_property
    def _parts(self) -> tuple[YJBases, ...]:
        data = self.data
        if self.y_u is None:
            return (data.yj_observed,)
        return (data.yj_observed, YJBases(self.y_u, data.unobserved_idx))

    def transform(self, gamma: float, dgamma: bool = False
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """t_gamma(y) and, with dgamma, dt_gamma(y)/dgamma (else None)."""
        t = np.empty(self.data.n)
        dt = np.empty(self.data.n) if dgamma else None
        for part in self._parts:
            part.forward(gamma, t, dt)
        return t, dt

    @cached_property
    def dlogjac(self) -> float:
        """sum over sites of d log(dt/dy)/dgamma, the YJ log-Jacobian's
        gamma-derivative; per fit for the data's own y."""
        d = self.data._dlogdy_observed
        if self.y_u is not None:
            d = d.copy()
            d[self.data.unobserved_idx] = self._parts[1].dlogdy
        return float(np.sum(d))


@functools.cache
def _layout(kind: ModelKind, n_beta: int, n_sites: int, n_psi_x: int = 0,
            with_psi: bool = False) -> ThetaLayout:
    """One shared ThetaLayout per shape: a fit asks for it on every draw."""
    return ThetaLayout(kind=kind, n_beta=n_beta, n_sites=n_sites,
                       n_psi_x=n_psi_x, with_psi=with_psi)


def layout_full(kind: ModelKind, data: Dataset) -> ThetaLayout:
    """Theta layout for the complete-data target (no psi block)."""
    return _layout(kind, data.n_beta, data.n)


def layout_missing(kind: ModelKind, data: Dataset) -> ThetaLayout:
    """Theta layout for the missing-data target, including the psi block."""
    if data.Xstar is None:
        raise DomainError("missing-data target requires Xstar")
    return _layout(kind, data.n_beta, data.n, data.Xstar.shape[1], True)


def _loglik_terms(kind: ModelKind, data: Dataset, params: ModelParams,
                  s: np.ndarray | None, resp: _Response,
                  marginal: bool = False, dgamma: bool = False):
    """The log-likelihood at the response resp.y, with the terms the
    gradient reuses: (loglik, r, W r, A r, s A r, r^T M r, dt_gamma/dgamma).

    s is the diagonal of Sigma_tau^-1 (1/tau) for the complete-data density
    of Student-t kinds and None otherwise, so log|M| = 2 log det A +
    sum log s and r^T M r = (A r)^T (s A r). With marginal (and s None) the
    value is the multivariate t left by integrating tau out: scale matrix
    sigma^2 M^-1, nu degrees of freedom. log dt/dy is linear in gamma on
    each branch, so the YJ log-Jacobian sum log dt/dy is (gamma - 1) times
    its gamma-derivative, `resp.dlogjac`. dt_gamma/dgamma comes from the
    same powers as t_gamma(y) when dgamma is set and a YJ kind asks; it is
    None otherwise. Neither s nor the response is checked here.
    """
    n, W, sigma2, rho = data.n, data.W, params.sigma2, params.rho
    if kind.yeo_johnson:
        t, dt = resp.transform(params.gamma, dgamma)
    else:
        t, dt = resp.y, None
    r = t - data.X @ params.beta
    wr = W.matvec(r)
    ar = r - rho * wr
    s_ar = ar if s is None else s * ar
    quad = float(ar @ s_ar)
    logdet_m = 2.0 * logdet_A(W, rho)
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
    if kind.yeo_johnson:
        ll += (params.gamma - 1.0) * resp.dlogjac
    return float(ll), r, wr, ar, s_ar, quad, dt


def _check_beta(data: Dataset, params: ModelParams) -> None:
    if params.beta.shape != (data.n_beta,):
        raise DimensionError("X, y, beta dimensions disagree")


def loglik(kind: ModelKind, data: Dataset, params: ModelParams,
           tau: np.ndarray | None = None,
           y_u: np.ndarray | None = None) -> float:
    """Complete-data log-likelihood, additive constants included, at data's
    response, completed by y_u when given."""
    resp = data.response if y_u is None else _Response(data, y_u)
    params.require_kind(kind)
    _check_beta(data, params)
    s = _inv_tau(kind, data.W, tau)
    return _loglik_terms(kind, data, params, s, resp)[0]


def marginal_loglik_t(kind: ModelKind, data: Dataset, params: ModelParams,
                      y_u: np.ndarray | None = None) -> float:
    """Closed-form multivariate-t log density used on the DIC path, at
    data's response, completed by y_u when given.

    Mean X beta (on the transformed scale for YJ kinds), scale matrix
    sigma^2 (A^T A)^-1, nu degrees of freedom; the YJ variant adds the
    transform's log-Jacobian.
    """
    if not kind.student_t:
        raise DomainError("marginal_loglik_t applies to Student-t kinds only")
    resp = data.response if y_u is None else _Response(data, y_u)
    params.require_kind(kind)
    _check_beta(data, params)
    return _loglik_terms(kind, data, params, None, resp, marginal=True)[0]


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


def _tau_sum(tau_z: np.ndarray, exp_neg: np.ndarray) -> float:
    """sum of tau' + e^{-tau'}, given exp_neg = e^{-tau'}: the tau block's
    share of the nu gradient and of the log prior, computed once per draw
    for both."""
    return float(np.sum(tau_z + exp_neg))


def _tau_prior_block(nu: float, n: int, tau_sum: float) -> float:
    """Sum of IG(nu/2, nu/2) log densities at tau = e^{tau'} plus the
    log-Jacobian of the log link, simplified on the unconstrained scale,
    from the n sites' `_tau_sum`."""
    half_nu = 0.5 * nu
    return float(n * (half_nu * np.log(half_nu) - lgamma(half_nu))
                 - half_nu * tau_sum)


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
    tau_sum = None
    if layout.tau is not None:
        tau_z = theta[layout.tau]
        tau_sum = _tau_sum(tau_z, np.exp(-tau_z))
    return _log_prior(layout, theta, priors, tau_sum)


def _log_prior(layout: ThetaLayout, theta: np.ndarray, priors: Priors,
               tau_sum: float | None) -> float:
    """`log_prior` at a checked theta, with the draw's `_tau_sum` (None
    without a tau block)."""
    out = -0.5 * float(np.sum(theta[layout.beta] ** 2)) / priors.var_beta
    out -= 0.5 * theta[layout.omega] ** 2 / priors.var_omega
    out -= 0.5 * theta[layout.rho] ** 2 / priors.var_rho
    if layout.nu is not None:
        out -= 0.5 * theta[layout.nu] ** 2 / priors.var_nu
    if layout.gamma is not None:
        out -= 0.5 * theta[layout.gamma] ** 2 / priors.var_gamma
    if layout.tau is not None:
        nu = 3.0 + np.exp(theta[layout.nu])
        out += _tau_prior_block(nu, layout.n_sites, tau_sum)
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
    return (loglik(kind, data, params, tau, y_u)
            + log_p_m(data.missing, data.complete(y_u), data.Xstar, psi)
            + log_prior(layout, theta, priors))
