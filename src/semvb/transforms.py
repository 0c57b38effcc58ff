"""Yeo-Johnson transform family and real-line link transformations.

The Yeo-Johnson (YJ) transform t_gamma is a one-parameter monotone power
transform defined on the whole real line; for gamma in (0, 2) it is a
bijection of R onto R, which is the regime used by the YJ model kinds.
Alongside the transform itself this module provides every derivative the
gradient code needs (d/dy, d/dgamma, and d log(dt/dy)/dgamma) plus the link
functions that map the constrained model parameters (sigma^2, rho, nu, gamma,
tau) onto the real line and back.

All YJ functions accept scalars or arrays and broadcast like numpy ufuncs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "yj_forward", "yj_inverse", "yj_dy", "yj_dgamma", "yj_dlogdy_dgamma",
    "omega_from_sigma2", "sigma2_from_omega",
    "rho_link", "rho_unlink", "drho_dlink",
    "nu_link", "nu_unlink",
    "gamma_link", "gamma_unlink", "dgamma_dlink",
]

def _check_gamma(gamma, y_or_z) -> None:
    """Validate gamma for the branch that will actually be evaluated.

    gamma must lie in (0, 2); gamma = 2 is additionally accepted when only
    the nonnegative branch is exercised (that branch is continuous there,
    while the negative branch would divide by 2 - gamma = 0).
    """
    g = float(gamma)
    if not np.isfinite(g) or g <= 0.0 or g > 2.0:
        raise DomainError(f"gamma must lie in (0, 2); got {gamma!r}")
    if g == 2.0 and np.any(np.asarray(y_or_z) < 0):
        raise DomainError("gamma = 2 is only defined on the nonnegative branch")


def _sides(x: np.ndarray):
    """The mask x >= 0 and x's elements on each side of it.

    For 0-d x the element is a numpy scalar, whose power can differ from
    the array loop's in the last bit, and the other side is empty.
    """
    pos = x >= 0
    if x.ndim:
        return pos, x[pos], x[~pos]
    none = np.empty(0)
    return (pos, x[()], none) if pos else (pos, none, x[()])


def yj_forward(y, gamma):
    """Yeo-Johnson transform t_gamma(y).

    ((y+1)^gamma - 1)/gamma for y >= 0 and
    -((-y+1)^(2-gamma) - 1)/(2-gamma) for y < 0.
    """
    _check_gamma(gamma, y)
    y = np.asarray(y, dtype=float)
    g = float(gamma)
    pos, y_pos, y_neg = _sides(y)
    out = np.empty_like(y)
    out[pos] = ((1.0 + y_pos) ** g - 1.0) / g
    # 2 - g > 0 whenever a negative y passed _check_gamma; a NaN maps to 0
    # at g = 2, where no branch holds it
    out[~pos] = (-(((1.0 - y_neg) ** (2.0 - g) - 1.0) / (2.0 - g))
                 if g < 2.0 else 0.0)
    return out if out.ndim else float(out)


def yj_inverse(z, gamma):
    """Inverse of yj_forward; exact on the forward image.

    (z*gamma + 1)^(1/gamma) - 1 for z >= 0 and
    1 - (-(2-gamma)*z + 1)^(1/(2-gamma)) for z < 0.
    """
    _check_gamma(gamma, z)
    z = np.asarray(z, dtype=float)
    g = float(gamma)
    pos, z_pos, z_neg = _sides(z)
    out = np.empty_like(z)
    # both bases are at least 1 for g in (0, 2], so the powers are real
    if g < 2.0:
        out[~pos] = 1.0 - (-(2.0 - g) * z_neg + 1.0) ** (1.0 / (2.0 - g))
    else:
        out[~pos] = 0.0
    out[pos] = (z_pos * g + 1.0) ** (1.0 / g) - 1.0
    return out if out.ndim else float(out)


def yj_dy(y, gamma):
    """Derivative dt_gamma(y)/dy; strictly positive.

    (y+1)^(gamma-1) for y >= 0 and (-y+1)^(1-gamma) for y < 0.
    """
    _check_gamma(gamma, y)
    y = np.asarray(y, dtype=float)
    g = float(gamma)
    pos = (1.0 + np.maximum(y, 0.0)) ** (g - 1.0)
    neg = (1.0 - np.minimum(y, 0.0)) ** (1.0 - g)
    out = np.where(y >= 0, pos, neg)
    return out if out.ndim else float(out)


def yj_dgamma(y, gamma):
    """Derivative dt_gamma(y)/dgamma at fixed y.

    For y >= 0: ((y+1)^g (g log(y+1) - 1) + 1) / g^2.
    For y < 0, with c = 2 - g and u = 1 - y:
    (c u^c log(u) - u^c + 1) / c^2.
    """
    _check_gamma(gamma, y)
    y = np.asarray(y, dtype=float)
    g = float(gamma)
    yp = 1.0 + np.maximum(y, 0.0)
    pos = (yp ** g * (g * np.log(yp) - 1.0) + 1.0) / g ** 2
    if g < 2.0:
        c = 2.0 - g
        u = 1.0 - np.minimum(y, 0.0)
        uc = u ** c
        neg = (c * uc * np.log(u) - uc + 1.0) / c ** 2
    else:
        neg = np.zeros_like(y)
    out = np.where(y >= 0, pos, neg)
    return out if out.ndim else float(out)


def yj_dlogdy_dgamma(y):
    """Derivative of log(dt_gamma(y)/dy) with respect to gamma.

    log(y+1) for y >= 0 and -log(-y+1) for y < 0; independent of gamma
    because log(dt/dy) is linear in gamma on each branch.
    """
    y = np.asarray(y, dtype=float)
    out = np.where(y >= 0, np.log1p(np.maximum(y, 0.0)),
                   -np.log1p(-np.minimum(y, 0.0)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Link transformations onto the real line.
#
# omega' = log sigma^2          sigma^2 = exp(omega')
# rho'   = log(1+rho)-log(1-rho)   rho  = tanh(rho'/2)
# nu'    = log(nu - 3)             nu   = 3 + exp(nu')
# gamma' = log gamma - log(2-gamma) gamma = 2/(1 + exp(-gamma'))
# tau'   = log tau                 tau  = exp(tau')
# ---------------------------------------------------------------------------


def omega_from_sigma2(sigma2: float) -> float:
    if sigma2 <= 0:
        raise DomainError(f"sigma2 must be positive; got {sigma2!r}")
    return float(np.log(sigma2))


def sigma2_from_omega(omega: float) -> float:
    return float(np.exp(omega))


def rho_link(rho: float) -> float:
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1); got {rho!r}")
    return float(np.log1p(rho) - np.log1p(-rho))


def rho_unlink(rho_z: float) -> float:
    # clamped inside the open interval: tanh saturates to exactly 1.0 in
    # floats once |rho_z| exceeds about 38
    r = np.tanh(0.5 * rho_z)
    return float(min(max(r, -1.0 + 1e-12), 1.0 - 1e-12))


def drho_dlink(rho_z: float) -> float:
    """d rho / d rho' = 2 e^{rho'} / (1 + e^{rho'})^2, evaluated stably."""
    # equals 0.5 * sech^2(rho'/2); underflows to 0 on both tails
    if abs(rho_z) > 700.0:
        return 0.0
    c = np.cosh(0.5 * rho_z)
    return float(0.5 / (c * c))


def nu_link(nu: float) -> float:
    if nu <= 3.0:
        raise DomainError(f"nu must exceed 3; got {nu!r}")
    return float(np.log(nu - 3.0))


def nu_unlink(nu_z: float) -> float:
    # the floor keeps nu strictly above 3 even when exp underflows past
    # float resolution around 3.0
    return float(3.0 + max(np.exp(nu_z), 1e-12))


def gamma_link(gamma: float) -> float:
    if not 0.0 < gamma < 2.0:
        raise DomainError(f"gamma must lie in (0, 2); got {gamma!r}")
    return float(np.log(gamma) - np.log(2.0 - gamma))


def gamma_unlink(gamma_z: float) -> float:
    # 2 * logistic(gamma_z), evaluated without overflow on either tail and
    # clamped so float saturation cannot escape the open interval (0, 2)
    if gamma_z >= 0:
        g = 2.0 / (1.0 + np.exp(-gamma_z))
    else:
        e = np.exp(gamma_z)
        g = 2.0 * e / (1.0 + e)
    return float(min(max(g, 1e-12), 2.0 - 1e-12))


def dgamma_dlink(gamma_z: float) -> float:
    """d gamma / d gamma' = 2 e^{gamma'} / (1 + e^{gamma'})^2."""
    if abs(gamma_z) > 700.0:
        return 0.0
    c = np.cosh(0.5 * gamma_z)
    return float(0.5 / (c * c))
