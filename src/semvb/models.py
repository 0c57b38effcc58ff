"""Model kinds, parameter containers, priors, and the stacked parameter layout.

Four spatial error model kinds are supported, the cross of two error families
(Gaussian, Student-t via a scale mixture of normals) and two response
transforms (identity, Yeo-Johnson):

    SEM-Gau, SEM-t, YJ-SEM-Gau, YJ-SEM-t

Estimation works on an unconstrained parameter vector theta whose fixed layout
is the single source of truth for every consumer (gradients, variational
parameters, traces):

    [beta_0 .. beta_r, omega', rho', nu'?, gamma'?, tau'_0 .. tau'_{n-1}?,
     psi_0 .. psi_q, psi_y?]

where omega' = log sigma^2, rho'/nu'/gamma'/tau' are the link-transformed
parameters, the nu'/tau' blocks exist only for Student-t kinds, gamma' only
for Yeo-Johnson kinds, and the psi block only when the missingness model is
part of the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import transforms as tr
from .errors import DimensionError, DomainError

__all__ = [
    "ModelKind", "ModelParams", "MissingnessParams", "Priors",
    "ThetaLayout", "link_forward", "link_inverse",
]


class ModelKind(Enum):
    """One of the four model kinds: error family x response transform."""

    SEM_GAU = "sem-gau"
    SEM_T = "sem-t"
    YJ_SEM_GAU = "yj-sem-gau"
    YJ_SEM_T = "yj-sem-t"

    def __init__(self, value: str):
        # plain attributes, set once per member: the per-draw code reads them
        self.student_t: bool = value.endswith("-t")
        self.yeo_johnson: bool = value.startswith("yj-")

    @classmethod
    def from_string(cls, name: str) -> "ModelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown model kind {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class ModelParams:
    """Constrained model parameters phi = (beta, sigma^2, rho [, nu][, gamma]).

    nu is present iff the error family is Student-t; gamma iff the response
    transform is Yeo-Johnson. Latent scales tau are carried separately.
    """

    beta: np.ndarray
    sigma2: float
    rho: float
    nu: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.beta.ndim != 1:
            raise DimensionError("beta must be a vector")
        if self.sigma2 <= 0:
            raise DomainError(f"sigma2 must be positive; got {self.sigma2!r}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1); got {self.rho!r}")
        if self.nu is not None and self.nu <= 3.0:
            raise DomainError(f"nu must exceed 3; got {self.nu!r}")
        if self.gamma is not None and not 0.0 < self.gamma < 2.0:
            raise DomainError(f"gamma must lie in (0, 2); got {self.gamma!r}")

    def require_kind(self, kind: ModelKind) -> None:
        """Check optional fields match the kind (nu iff t, gamma iff YJ)."""
        if kind.student_t != (self.nu is not None):
            raise DomainError(f"nu must be present iff the kind has Student-t errors ({kind.value})")
        if kind.yeo_johnson != (self.gamma is not None):
            raise DomainError(f"gamma must be present iff the kind uses Yeo-Johnson ({kind.value})")


@dataclass(frozen=True)
class MissingnessParams:
    """Logistic missingness coefficients psi = (psi_x, psi_y)."""

    psi_x: np.ndarray
    psi_y: float

    def __post_init__(self):
        object.__setattr__(self, "psi_x", np.asarray(self.psi_x, dtype=float))
        if self.psi_x.ndim != 1:
            raise DimensionError("psi_x must be a vector")
        if not (np.all(np.isfinite(self.psi_x)) and np.isfinite(self.psi_y)):
            raise DomainError("psi must be finite")

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.psi_x, [self.psi_y]])


@dataclass(frozen=True)
class Priors:
    """Variances of the independent zero-mean normal priors.

    Priors act on the unconstrained scale (beta, omega', rho', nu', gamma',
    psi); defaults are 10^2 everywhere.
    """

    var_beta: float = 100.0
    var_omega: float = 100.0
    var_rho: float = 100.0
    var_nu: float = 100.0
    var_gamma: float = 100.0
    var_psi: float = 100.0

    def __post_init__(self):
        for name in ("var_beta", "var_omega", "var_rho", "var_nu", "var_gamma", "var_psi"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


@dataclass(frozen=True)
class ThetaLayout:
    """Index layout of the stacked unconstrained parameter vector.

    Built from the model kind and problem dimensions; exposes a slice or an
    index per block as a plain attribute, computed once. tau' spans all n
    sites for Student-t kinds. The psi block (q+1 covariate coefficients
    plus psi_y) exists iff with_psi; absent blocks are None.
    """

    kind: ModelKind
    n_beta: int
    n_sites: int
    n_psi_x: int = 0       # q+1 when with_psi, else 0
    with_psi: bool = False

    def __post_init__(self):
        t, yj = self.kind.student_t, self.kind.yeo_johnson
        k = self.n_beta
        tau_start = k + 3 + yj
        psi_start = k + 2 + (1 + self.n_sites if t else 0) + yj
        blocks = {
            "beta": slice(0, k), "omega": k, "rho": k + 1,
            "nu": k + 2 if t else None,
            "gamma": k + 2 + t if yj else None,
            "tau": slice(tau_start, tau_start + self.n_sites) if t else None,
            # the whole psi block: psi_x then psi_y
            "psi": (slice(psi_start, psi_start + self.n_psi_x + 1)
                    if self.with_psi else None),
            "psi_y": psi_start + self.n_psi_x if self.with_psi else None,
            "size": psi_start + (self.n_psi_x + 1 if self.with_psi else 0),
        }
        for name, value in blocks.items():
            object.__setattr__(self, name, value)

    def names(self) -> list[str]:
        """Coordinate names aligned with the theta vector."""
        out = [f"beta{j}" for j in range(self.n_beta)]
        out += ["omega", "rho_z"]
        if self.kind.student_t:
            out.append("nu_z")
        if self.kind.yeo_johnson:
            out.append("gamma_z")
        if self.kind.student_t:
            out += [f"tau_z_{i}" for i in range(self.n_sites)]
        if self.with_psi:
            out += [f"psi_{j}" for j in range(self.n_psi_x)]
            out.append("psi_y")
        if len(out) != self.size:
            raise DimensionError("layout bookkeeping mismatch")
        return out


def link_forward(kind: ModelKind, layout: ThetaLayout, params: ModelParams,
                 tau: np.ndarray | None = None,
                 psi: MissingnessParams | None = None) -> np.ndarray:
    """Stack constrained parameters into the unconstrained theta vector."""
    params.require_kind(kind)
    theta = np.empty(layout.size)
    theta[layout.beta] = params.beta
    theta[layout.omega] = tr.omega_from_sigma2(params.sigma2)
    theta[layout.rho] = tr.rho_link(params.rho)
    if kind.student_t:
        if tau is None:
            raise DomainError("tau required for Student-t kinds")
        tau = np.asarray(tau, dtype=float)
        if tau.shape != (layout.n_sites,):
            raise DimensionError("tau must have one entry per site")
        if np.any(tau <= 0):
            raise DomainError("tau must be strictly positive")
        theta[layout.nu] = tr.nu_link(params.nu)
        theta[layout.tau] = np.log(tau)
    if kind.yeo_johnson:
        theta[layout.gamma] = tr.gamma_link(params.gamma)
    if layout.with_psi:
        if psi is None:
            raise DomainError("psi required for a layout with a missingness block")
        if psi.psi_x.shape != (layout.n_psi_x,):
            raise DimensionError("psi_x length does not match the layout")
        theta[layout.psi] = psi.stacked
    return theta


def link_inverse(kind: ModelKind, layout: ThetaLayout, theta: np.ndarray
                 ) -> tuple[ModelParams, np.ndarray | None, MissingnessParams | None]:
    """Map theta back to (ModelParams, tau, MissingnessParams)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (layout.size,):
        raise DimensionError(f"theta has length {theta.shape}, layout expects {layout.size}")
    params = ModelParams(
        beta=theta[layout.beta].copy(),
        sigma2=tr.sigma2_from_omega(theta[layout.omega]),
        rho=tr.rho_unlink(theta[layout.rho]),
        nu=tr.nu_unlink(theta[layout.nu]) if kind.student_t else None,
        gamma=tr.gamma_unlink(theta[layout.gamma]) if kind.yeo_johnson else None,
    )
    tau = np.exp(theta[layout.tau]) if kind.student_t else None
    psi = None
    if layout.with_psi:
        block = theta[layout.psi]
        psi = MissingnessParams(psi_x=block[:-1].copy(), psi_y=float(block[-1]))
    return params, tau, psi
