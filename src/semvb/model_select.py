"""DIC model comparison from posterior samples.

DIC1 plugs in the posterior mean of the constrained parameters; DIC2 plugs
in the drawn sample maximizing likelihood times prior; DIC5 extends the
deviance to the joint response-missingness likelihood for models fitted to
incomplete data. The three are formulas over per-draw values: one pass,
`per_draw_logliks`, scores each draw once, and a non-finite value aborts
with the offending draw index. DIC1 and DIC2 share that array, so a
complete-data model costs n_draws + 1 log-likelihoods (the one extra at the
posterior mean) and a DIC5 model n_draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from .likelihoods import Dataset, log_p_m, loglik, marginal_loglik_t
from .models import MissingnessParams, ModelKind, ModelParams, Priors
from . import transforms as tr

__all__ = ["PosteriorSamples", "per_draw_logliks", "dic1", "dic2", "dic5",
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


def per_draw_logliks(loglik_fn, *blocks) -> np.ndarray:
    """loglik_fn(phi_i[, psi_i, y_u_i]) at every draw i of the row-aligned
    blocks, as one array: dic1 and dic2 share it. A missing (None) block or
    blocks of different lengths raise DimensionError; a non-finite value
    raises NumericalError naming its draw."""
    if any(block is None for block in blocks):
        raise DimensionError("every sample block must be present")
    if len({len(block) for block in blocks}) > 1:
        raise DimensionError("sample blocks must have one row per draw")
    out = np.empty(len(blocks[0]))
    for i, rows in enumerate(zip(*blocks)):
        v = float(loglik_fn(*rows))
        if not np.isfinite(v):
            raise NumericalError(
                f"non-finite log-likelihood at posterior draw {i}", iteration=i)
        out[i] = v
    return out


def _draws(lls) -> np.ndarray:
    lls = np.asarray(lls, dtype=float)
    if lls.size < 1:
        raise DimensionError("DIC needs at least one posterior draw")
    return lls


def dic1(lls, ll_at_mean: float) -> float:
    """-4 mean(lls) + 2 ll_at_mean, from the per-draw log-likelihoods
    log p(y|phi_i) and log p(y|phi_bar) at the posterior mean phi_bar."""
    return float(-4.0 * _draws(lls).mean() + 2.0 * ll_at_mean)


def dic2(lls, log_priors=0.0) -> float:
    """-4 mean(lls) + 2 lls[best], where draw best maximizes lls + log_priors,
    the per-draw log prior densities (a flat prior by default)."""
    lls = _draws(lls)
    if np.shape(log_priors) not in ((), lls.shape):
        raise DimensionError("log_priors must hold one value per draw")
    best = int(np.argmax(lls + log_priors))
    return float(-4.0 * lls.mean() + 2.0 * lls[best])


def dic5(samples: PosteriorSamples, joint_lls, log_priors=0.0) -> float:
    """Missing-data DIC over the joint likelihood p(y, m | phi, psi): dic2
    on the per-draw joint log-likelihoods of the completed data (see
    joint_loglik_fn), with the log priors of (phi, psi) choosing the
    plug-in draw."""
    if samples.psi is None or samples.y_u is None:
        raise DomainError("dic5 needs psi and y_u sample blocks")
    return dic2(joint_lls, log_priors)


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
