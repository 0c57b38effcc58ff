"""DIC model comparison from posterior samples.

DIC1 plugs in the posterior mean of the constrained parameters; DIC2 plugs
in the drawn sample maximizing likelihood times prior; DIC5 extends the
deviance to the joint response-missingness likelihood for models fitted to
incomplete data. Per-draw log-likelihoods stream; a non-finite value aborts
with the offending draw index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from .likelihoods import Dataset, log_p_m, loglik, marginal_loglik_t
from .models import MissingnessParams, ModelKind, ModelParams, Priors
from . import transforms as tr

__all__ = ["PosteriorSamples", "dic1", "dic2", "dic5",
           "phi_loglik_fn", "phi_logprior_fn", "joint_loglik_fn",
           "joint_logprior_fn",
           "phi_names_for", "phi_row", "params_from_row"]


def phi_names_for(kind: ModelKind, n_beta: int) -> tuple[str, ...]:
    names = [f"beta{j}" for j in range(n_beta)] + ["sigma2", "rho"]
    if kind.student_t:
        names.append("nu")
    if kind.yeo_johnson:
        names.append("gamma")
    return tuple(names)


def phi_row(params: ModelParams) -> np.ndarray:
    """One constrained sample row (beta, sigma2, rho[, nu][, gamma]); the
    inverse of params_from_row."""
    row = list(params.beta) + [params.sigma2, params.rho]
    if params.nu is not None:
        row.append(params.nu)
    if params.gamma is not None:
        row.append(params.gamma)
    return np.array(row)


def params_from_row(kind: ModelKind, names: tuple[str, ...],
                    row: np.ndarray) -> ModelParams:
    """Build ModelParams from one constrained sample row."""
    pos = {name: i for i, name in enumerate(names)}
    n_beta = sum(1 for n in names if n.startswith("beta"))
    beta = np.array([row[pos[f"beta{j}"]] for j in range(n_beta)])
    return ModelParams(
        beta=beta, sigma2=float(row[pos["sigma2"]]), rho=float(row[pos["rho"]]),
        nu=float(row[pos["nu"]]) if kind.student_t else None,
        gamma=float(row[pos["gamma"]]) if kind.yeo_johnson else None)


@dataclass(frozen=True)
class PosteriorSamples:
    """Row-aligned posterior draws on the constrained scale."""

    phi: np.ndarray
    phi_names: tuple[str, ...]
    psi: np.ndarray | None = None
    y_u: np.ndarray | None = None

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_names", tuple(self.phi_names))
        if phi.shape[1] != len(self.phi_names):
            raise DimensionError("phi_names do not match phi columns")
        for attr in ("psi", "y_u"):
            block = getattr(self, attr)
            if block is None:
                continue
            block = np.atleast_2d(np.asarray(block, dtype=float))
            object.__setattr__(self, attr, block)
            if block.shape[0] != phi.shape[0]:
                raise DimensionError(f"{attr} rows do not match phi rows")

    @property
    def n_draws(self) -> int:
        return self.phi.shape[0]


def _per_draw(values_fn, n_draws: int) -> np.ndarray:
    out = np.empty(n_draws)
    for i in range(n_draws):
        v = float(values_fn(i))
        if not np.isfinite(v):
            raise NumericalError("non-finite log-likelihood in DIC pass",
                                 iteration=i)
        out[i] = v
    return out


def dic1(samples: PosteriorSamples, loglik_fn) -> float:
    """-4 E[log p(y|phi)] + 2 log p(y|phi_bar), phi_bar the posterior mean."""
    if samples.n_draws < 1:
        raise DimensionError("DIC needs at least one posterior draw")
    lls = _per_draw(lambda i: loglik_fn(samples.phi[i]), samples.n_draws)
    phi_bar = samples.phi.mean(axis=0)
    return float(-4.0 * lls.mean() + 2.0 * loglik_fn(phi_bar))


def _plug_in_dic(n_draws: int, loglik_at, prior_at=None) -> float:
    """-4 mean(lls) + 2 lls[best], where lls[i] = loglik_at(i) and draw best
    maximizes lls + prior_at (a flat prior when prior_at is None)."""
    if n_draws < 1:
        raise DimensionError("DIC needs at least one posterior draw")
    lls = _per_draw(loglik_at, n_draws)
    scores = (lls if prior_at is None
              else lls + np.array([prior_at(i) for i in range(n_draws)]))
    best = int(np.argmax(scores))
    return float(-4.0 * lls.mean() + 2.0 * lls[best])


def dic2(samples: PosteriorSamples, loglik_fn, prior_fn) -> float:
    """As dic1, but plugging in the drawn sample maximizing loglik + logprior."""
    return _plug_in_dic(samples.n_draws, lambda i: loglik_fn(samples.phi[i]),
                        lambda i: prior_fn(samples.phi[i]))


def dic5(samples: PosteriorSamples, joint_loglik_fn, prior_fn=None) -> float:
    """Missing-data DIC over the joint likelihood p(y, m | phi, psi): DIC2
    on the completed data.

    joint_loglik_fn(phi_row, psi_row, y_u_row) evaluates the completed-data
    likelihood plus the missingness pmf. The plug-in draw maximizes the
    joint log-likelihood plus prior_fn(phi_row, psi_row) (flat when omitted).
    """
    if samples.psi is None or samples.y_u is None:
        raise DomainError("dic5 needs psi and y_u sample blocks")
    return _plug_in_dic(
        samples.n_draws,
        lambda i: joint_loglik_fn(samples.phi[i], samples.psi[i],
                                  samples.y_u[i]),
        None if prior_fn is None
        else lambda i: prior_fn(samples.phi[i], samples.psi[i]))


def phi_loglik_fn(kind: ModelKind, data: Dataset):
    """Per-draw log-likelihood for DIC1/DIC2: the scale-mixture-marginalized
    multivariate-t form for Student-t kinds, the Gaussian form otherwise."""
    names = phi_names_for(kind, data.n_beta)

    def fn(row: np.ndarray) -> float:
        params = params_from_row(kind, names, row)
        if kind.student_t:
            return marginal_loglik_t(kind, data, params)
        return loglik(kind, data, params)

    return fn


def phi_logprior_fn(kind: ModelKind, n_beta: int, priors: Priors):
    """Log prior density of the constrained phi (links changed-of-variable)."""
    names = phi_names_for(kind, n_beta)

    def fn(row: np.ndarray) -> float:
        params = params_from_row(kind, names, row)
        out = -0.5 * float(np.sum(params.beta ** 2)) / priors.var_beta
        omega = tr.omega_from_sigma2(params.sigma2)
        out += -0.5 * omega ** 2 / priors.var_omega - omega
        rho_z = tr.rho_link(params.rho)
        out += (-0.5 * rho_z ** 2 / priors.var_rho
                - np.log(tr.dtwo_expit(rho_z)))
        if kind.student_t:
            nu_z = tr.nu_link(params.nu)
            out += -0.5 * nu_z ** 2 / priors.var_nu - nu_z
        if kind.yeo_johnson:
            g_z = tr.gamma_link(params.gamma)
            out += (-0.5 * g_z ** 2 / priors.var_gamma
                    - np.log(tr.dtwo_expit(g_z)))
        return float(out)

    return fn


def joint_logprior_fn(kind: ModelKind, n_beta: int, priors: Priors):
    """Log prior density of (phi, psi) for DIC5's plug-in draw: the phi
    prior plus the normal prior on the missingness coefficients."""
    phi_prior = phi_logprior_fn(kind, n_beta, priors)

    def fn(phi_row: np.ndarray, psi_row: np.ndarray) -> float:
        return phi_prior(phi_row) \
            - 0.5 * float(np.sum(psi_row ** 2)) / priors.var_psi

    return fn


def joint_loglik_fn(kind: ModelKind, data: Dataset):
    """Per-draw joint log-likelihood for DIC5: completed-data likelihood of
    the model plus the logistic missingness pmf."""
    def fn(phi_row: np.ndarray, psi_row: np.ndarray,
           y_u_row: np.ndarray) -> float:
        psi = MissingnessParams(psi_x=np.asarray(psi_row[:-1], dtype=float),
                                psi_y=float(psi_row[-1]))
        y_complete = data.complete(y_u_row)
        return (phi_loglik_fn(kind, data.with_y(y_complete))(phi_row)
                + log_p_m(data.missing, y_complete, data.Xstar, psi))

    return fn
