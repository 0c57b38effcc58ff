"""Synthetic data generation for all four model kinds.

The generative recipe: draw per-site scale mixing values for Student-t
kinds, draw the error vector, propagate it through (I - rho W)^{-1}, add the
regression mean, and map through the inverse Yeo-Johnson transform for YJ
kinds. Presets mirror the simulation designs used in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError
from .models import ModelKind, ModelParams
from .spatial import SpatialWeights, _superlu, a_matrix
from .transforms import yj_inverse

__all__ = ["make_design", "simulate_sem", "draw_inverse_gamma",
           "draw_beta_preset"]


def make_design(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Design matrix: intercept column followed by r standard-normal columns."""
    return np.column_stack([np.ones(n), rng.standard_normal((n, r))])


def draw_inverse_gamma(shape: float, rate: float, rng: np.random.Generator,
                       size=None):
    """Inverse-gamma draw(s) with mean rate/(shape-1) for shape > 1."""
    return 1.0 / rng.gamma(shape, 1.0 / rate, size=size)


def draw_beta_preset(n_beta: int, rng: np.random.Generator) -> np.ndarray:
    """Coefficients from the discrete uniform on -3..3 excluding 0."""
    values = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    return rng.choice(values, size=n_beta)


def simulate_sem(kind: ModelKind, X: np.ndarray, W: SpatialWeights,
                 params: ModelParams, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw one response vector; returns (y, tau_used) with tau None for
    Gaussian kinds.

    u = (I - rho W)^-1 e comes from SuperLU's gssv, called as scipy's
    spsolve calls it where scikits.umfpack is not installed, so the draw is
    spsolve's bit for bit; no module of the scipy package is imported.
    """
    params.require_kind(kind)
    X = np.asarray(X, dtype=float)
    n = W.n
    tau = None
    scale = np.ones(n)
    if kind.student_t:
        tau = draw_inverse_gamma(params.nu / 2.0, params.nu / 2.0, rng, size=n)
        scale = tau
    e = rng.standard_normal(n) * np.sqrt(params.sigma2 * scale)
    data, indices, indptr = a_matrix(W, params.rho)
    u, info = _superlu().gssv(n, int(indptr[-1]), data, indices, indptr, e, 1,
                              options=dict(ColPerm=None))
    if info or not np.all(np.isfinite(u)):
        raise SingularityError(f"A = I - rho W is singular at rho = {params.rho}")
    y_star = X @ params.beta + u
    y = yj_inverse(y_star, params.gamma) if kind.yeo_johnson else y_star
    return np.asarray(y, dtype=float), tau
