"""DIC model comparison from posterior samples.

DIC1 plugs in the posterior mean of the constrained parameters; DIC2 plugs
in the drawn sample maximizing likelihood times prior; DIC5 extends the
deviance to the joint response-missingness likelihood for models fitted to
incomplete data. The three are formulas over the per-draw values of one
scorer: `per_draw_logliks` scores each draw of a `PosteriorSamples` once
(jointly when it carries y_u), naming any non-finite draw, and
`per_draw_logpriors` gives each draw's log prior. A complete-data model
costs n_draws + 1 log-likelihoods (`phi_loglik` at the posterior mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from .likelihoods import Dataset, log_p_m, loglik, marginal_loglik_t
from .models import MissingnessParams, ModelKind, ModelParams, Priors
from . import transforms as tr

__all__ = ["PosteriorSamples", "phi_loglik", "per_draw_logliks",
           "per_draw_logpriors", "dic1", "dic2", "dic5",
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


def phi_loglik(kind: ModelKind, data: Dataset, row: np.ndarray,
               y_u: np.ndarray | None = None) -> float:
    """log p(y | phi) at one constrained phi row: the scale-mixture-
    marginalized multivariate-t form for Student-t kinds, the Gaussian form
    otherwise. y is data's response, completed by y_u when given."""
    params = params_from_row(kind, phi_names_for(kind, data.n_beta), row)
    if kind.student_t:
        return marginal_loglik_t(kind, data, params, y_u)
    return loglik(kind, data, params, None, y_u)


def _kind_columns(kind: ModelKind, n_beta: int,
                  samples: PosteriorSamples) -> np.ndarray:
    """The draws' phi columns in the kind's order (`phi_names_for`), taken
    by name; a column the kind needs that the samples lack raises
    DomainError naming it."""
    pos = {name: j for j, name in enumerate(samples.phi_names)}
    names = phi_names_for(kind, n_beta)
    for name in names:
        if name not in pos:
            raise DomainError(f"the samples have no {name} column, which "
                              f"{kind.value} needs")
    return samples.phi[:, [pos[name] for name in names]]


def per_draw_logliks(kind: ModelKind, data: Dataset,
                     samples: PosteriorSamples) -> np.ndarray:
    """The log-likelihood of every draw, as one array: dic1 and dic2 share it.

    The kind's phi columns are taken from the samples by name. For samples
    with a y_u block it is DIC5's joint log-likelihood: phi_loglik of the
    response completed by the draw's y_u, plus the logistic missingness log
    pmf at the draw's psi. y_u without psi, or a phi column the kind needs
    that the samples lack, raises DomainError; a non-finite value raises
    NumericalError naming its draw.
    """
    if samples.y_u is not None and samples.psi is None:
        raise DomainError("scoring a y_u block needs its psi block")
    out = np.empty(samples.n_draws)
    for i, row in enumerate(_kind_columns(kind, data.n_beta, samples)):
        if samples.y_u is None:
            out[i] = phi_loglik(kind, data, row)
        else:
            psi, y_u = samples.psi[i], samples.y_u[i]
            y = data.complete(y_u)   # a y_u of the wrong length is not scored
            out[i] = phi_loglik(kind, data, row, y_u) + log_p_m(
                data.missing_float, y, data.Xstar,
                MissingnessParams(psi_x=psi[:-1], psi_y=float(psi[-1])))
        if not np.isfinite(out[i]):
            raise NumericalError(
                f"non-finite log-likelihood at posterior draw {i}", iteration=i)
    return out


def per_draw_logpriors(kind: ModelKind, priors: Priors,
                       samples: PosteriorSamples) -> np.ndarray:
    """The log prior density of every draw on the constrained scale (the
    links' changes of variable included): phi's, plus the normal prior on
    the missingness coefficients when the samples carry psi. dic2 and dic5
    take it to choose their plug-in draw. The kind's phi columns are taken
    by name, as `per_draw_logliks` takes them; a missing one raises
    DomainError naming it."""
    n_beta = sum(1 for name in samples.phi_names if name.startswith("beta"))
    names = phi_names_for(kind, n_beta)
    out = np.empty(samples.n_draws)
    for i, row in enumerate(_kind_columns(kind, n_beta, samples)):
        params = params_from_row(kind, names, row)
        v = -0.5 * float(np.sum(params.beta ** 2)) / priors.var_beta
        omega = tr.omega_from_sigma2(params.sigma2)
        v += -0.5 * omega ** 2 / priors.var_omega - omega
        rho_z = tr.rho_link(params.rho)
        v += -0.5 * rho_z ** 2 / priors.var_rho - np.log(tr.dtwo_expit(rho_z))
        if kind.student_t:
            nu_z = tr.nu_link(params.nu)
            v += -0.5 * nu_z ** 2 / priors.var_nu - nu_z
        if kind.yeo_johnson:
            g_z = tr.gamma_link(params.gamma)
            v += (-0.5 * g_z ** 2 / priors.var_gamma
                  - np.log(tr.dtwo_expit(g_z)))
        if samples.psi is not None:
            v -= 0.5 * float(np.sum(samples.psi[i] ** 2)) / priors.var_psi
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


def dic5(joint_lls, log_priors=0.0) -> float:
    """Missing-data DIC over the joint likelihood p(y, m | phi, psi): dic2's
    rule on the per-draw joint log-likelihoods of the completed data
    (per_draw_logliks of samples with psi and y_u), with the log priors of
    (phi, psi) choosing the plug-in draw."""
    return dic2(joint_lls, log_priors)
