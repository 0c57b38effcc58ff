"""Logistic missing-not-at-random mechanism.

The probability that site i's response is missing is
logistic(x*_i^T psi_x + y_i psi_y); psi_y = 0 recovers missing-at-random
and psi = (psi_0,) alone recovers missing-completely-at-random. The
covariates x* come from `make_missingness_design` when a dataset has none.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .models import MissingnessParams
from .transforms import expit

__all__ = ["make_missingness_design", "missing_prob", "simulate_missing"]


def _probs(eta: np.ndarray) -> np.ndarray:
    # keep strictly inside (0, 1) even when exp underflows
    return np.clip(expit(eta), 1e-300, 1.0 - 1e-16)


def make_missingness_design(n: int, rng: np.random.Generator,
                            q: int = 1) -> np.ndarray:
    """Missingness design: intercept plus q standard-lognormal columns."""
    return np.column_stack([np.ones(n), rng.lognormal(0.0, 1.0, size=(n, q))])


def missing_prob(y_i: float, xstar_i: np.ndarray,
                 psi: MissingnessParams) -> float:
    """P(m_i = 1 | y_i, x*_i, psi), strictly inside (0, 1)."""
    xstar_i = np.asarray(xstar_i, dtype=float)
    if xstar_i.shape != psi.psi_x.shape:
        raise DimensionError("xstar_i length does not match psi_x")
    eta = float(xstar_i @ psi.psi_x + psi.psi_y * y_i)
    return float(_probs(np.array([eta]))[0])


def simulate_missing(y: np.ndarray, Xstar: np.ndarray,
                     psi: MissingnessParams,
                     rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli missingness indicators (True = missing)."""
    y = np.asarray(y, dtype=float)
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.shape != (y.shape[0], psi.psi_x.shape[0]):
        raise DimensionError("y, Xstar, psi dimensions disagree")
    probs = _probs(Xstar @ psi.psi_x + psi.psi_y * y)
    return rng.random(y.shape[0]) < probs
