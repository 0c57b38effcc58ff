"""Hybrid VB for responses missing not at random.

The outer loop is the complete-data routine's SGA driver
(`variational._sga`), run on a target that first imputes the unobserved
responses with a short Metropolis-Hastings run. The independence proposal
is the exact conditional Gaussian of the spatial model given everything
conditioned on, so the model likelihood cancels from the acceptance ratio
and only the missingness likelihood remains. That likelihood factorizes over
sites, so a step's ratio is taken over the sites it updates.

Both inner kernels are one engine, `_mh_sweep`: n1 sweeps of steps over
blocks of unobserved sites. The blocked kernel, which keeps acceptance
rates workable when many responses are missing, has several blocks: the
ascending unobserved sites cut into ceil(1/block_fraction) contiguous
chunks, a tuple of index arrays that `HvbConfig.block_scheme` builds once
per fit and every chain of the fit reuses. The whole-vector kernel is the
one-block case. The engine draws every step's random numbers before the
first step, in step order. It factors each block's conditional precision
once per chain, at the drawn parameters, by a banded Cholesky in the
block's site order, from a band map that `spatial` caches per block; no
sparse matrix is built per chain. One banded solve then gives all of the
block's noise vectors. A block's mean offset changes only after another
block moves, so the block's proposals are drawn, transformed and scored as
one batch for every step at which its offset holds: the whole chain for
one block (the independence-sampler scheme of Jacob, Robert & Smith 2011),
one step at a time for several. Only the re-conditioning, the
accept/reject decisions and their bookkeeping run step by step; a block's
missingness log-pmf is replaced only when it accepts.

Per fit, a chain reads the observed responses' Yeo-Johnson bases and the
0/1 missingness mask from their caches on the `Dataset`, so the observed
residual costs one pair of powers per draw. Everything else a chain does
depends on the draw (xi, psi) and is per draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .gradients import grad_log_h_missing
from .likelihoods import Dataset, _log_p_m_eta, layout_missing, log_p_m
from .models import ModelKind, ModelParams, Priors, link_inverse
from .model_select import PosteriorSamples, phi_names_for, phi_row
from .spatial import ConditionalGaussian, conditional_gaussian, plan_route
from .transforms import yj_forward, yj_inverse
from .variational import (FitConfig, FitResult, VariationalParams,
                          _fit_layout, _sga, init_lambda, sample_q)

__all__ = ["HvbConfig", "mcmc_nob", "mcmc_allb", "hvb_fit",
           "draw_posterior_missing"]

# Unobserved-block size above which the blocked kernel is the default.
_NOB_MAX_NU = 500


@dataclass(frozen=True)
class HvbConfig(FitConfig):
    """Hybrid-fit knobs on top of the SGA configuration.

    n1 inner MH steps run per outer iteration; the kernel is the whole-vector
    one for small unobserved blocks and the blocked sweep otherwise unless
    chosen explicitly. The blocked kernel's blocks are block_fraction's
    contiguous chunks of the unobserved sites (`block_scheme`), fixed for a
    fit. warm_start keeps the previous iteration's imputation as the chain
    start instead of redrawing from the conditional.
    """

    n1: int = 10
    kernel: str = "auto"   # auto | nob | allb
    block_fraction: float = 0.1
    warm_start: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.n1 < 1:
            raise DomainError("n1 must be at least 1")
        if self.kernel not in ("auto", "nob", "allb"):
            raise DomainError("kernel must be one of auto, nob, allb")
        if not 0.0 < self.block_fraction <= 1.0:
            raise DomainError("block_fraction must lie in (0, 1]")

    def resolve_kernel(self, n_unobserved: int) -> str:
        if self.kernel != "auto":
            return self.kernel
        return "nob" if n_unobserved <= _NOB_MAX_NU else "allb"

    def block_scheme(self, data: Dataset) -> tuple[np.ndarray, ...] | None:
        """The blocks of the resolved kernel, built once per fit: None for
        the whole-vector kernel, else the ascending unobserved sites split
        into ceil(1/block_fraction) contiguous chunks of near-equal size,
        or one per site when there are fewer sites, and none without any."""
        if self.resolve_kernel(data.n_missing) == "nob":
            return None
        k = min(math.ceil(1.0 / self.block_fraction), data.n_missing)
        return tuple(np.array_split(data.unobserved_idx, k)) if k else ()


def _ystar(kind: ModelKind, y: np.ndarray, params: ModelParams) -> np.ndarray:
    """Responses on the model's scale: Yeo-Johnson transformed for YJ kinds."""
    return yj_forward(y, params.gamma) if kind.yeo_johnson else y


def _response(kind: ModelKind, params: ModelParams,
              ystar: np.ndarray) -> np.ndarray:
    """Responses from values on the model's scale: the inverse of `_ystar`."""
    if not kind.yeo_johnson:
        return ystar
    with np.errstate(over="ignore"):
        # overflow in the inverse transform surfaces as a non-finite
        # proposal, which the MH kernel rejects outright
        return yj_inverse(ystar, params.gamma)


def _accept_prob(delta: float) -> float:
    """min(1, exp(delta)) for a log ratio delta, without overflow."""
    return min(1.0, float(np.exp(min(delta, 0.0))))


def _mh_sweep(kind: ModelKind, data: Dataset, theta: np.ndarray,
              blocks: tuple[np.ndarray, ...], y_u_init: np.ndarray | None,
              n1: int, rng: np.random.Generator
              ) -> tuple[np.ndarray, np.ndarray]:
    """n1 sweeps of independence MH steps, one per block in order.

    blocks partition the unobserved sites: `conditional_gaussian` checks
    each block's order and range, and `mcmc_allb` the covering. The chain
    starts from a draw of the whole unobserved vector's conditional unless
    y_u_init is given; a single block is that vector, so it keeps the
    start's conditional. Every step's (z, u) pair is drawn before the first
    step, in step order. Each block's M_uu is factored once per call and its
    n1 noise vectors come from one banded solve. A block's mean offset
    changes only when another block moves, so its proposals and their
    missingness scores are computed as one batch for every step at which
    the offset holds: all n1 for a single block, the current step
    otherwise. The acceptance ratio is taken over the block's own sites:
    every other factor of p(m | y, psi) cancels, and a non-finite proposal
    is rejected after its uniform. Returns the final imputation and
    per-block acceptance counts.
    """
    params, tau, psi = link_inverse(kind, layout_missing(kind, data), theta)
    u_idx = data.unobserved_idx
    mean = data.X @ params.beta
    y = data.y.copy()
    # residual on the model's scale, from the observed responses' cached
    # Yeo-Johnson bases; 0 at the unobserved sites
    if kind.yeo_johnson:
        r = np.zeros(data.n)
        data.yj_observed.forward(params.gamma, r)
        r -= mean
    else:
        r = y - mean
    r[u_idx] = 0.0
    start = None
    if y_u_init is None:
        start = conditional_gaussian(kind, data.W, params.rho, tau, u_idx, r)
        z = rng.standard_normal(u_idx.size)
        y[u_idx] = _response(kind, params,
                             mean[u_idx] + start.sample(params.sigma2, z))
    else:
        y_u_init = np.asarray(y_u_init, dtype=float)
        if y_u_init.shape != (u_idx.size,):
            raise DimensionError("y_u_init must match the unobserved count")
        y[u_idx] = y_u_init
    zs = [np.empty((n1, b.size)) for b in blocks]
    us = np.empty((n1, len(blocks)))
    for i in range(n1):
        for j in range(len(blocks)):
            rng.standard_normal(out=zs[j][i])
            us[i, j] = rng.random()   # uniform() on [0, 1), bit for bit
    # with several blocks, each conditions on the residual at the others
    several = len(blocks) > 1
    if several:
        r[u_idx] = _ystar(kind, y[u_idx], params) - mean[u_idx]
    conds = [start if start is not None and not several
             else conditional_gaussian(kind, data.W, params.rho, tau, b, r)
             for b in blocks]
    noise = [c.noise(params.sigma2, z_b) for c, z_b in zip(conds, zs)]
    means = [mean[b] for b in blocks]
    m = [data.missing_float[b] for b in blocks]
    Xstar = [data.Xstar[b] for b in blocks]
    eta_x = [x_b @ psi.psi_x for x_b in Xstar]
    log_pm = [log_p_m(m_b, y[b], x_b, psi)
              for m_b, b, x_b in zip(m, blocks, Xstar)]
    # steps one batch of proposals serves; with several blocks a batch is
    # made at every step, so the batch in hand is always the block's own
    span = 1 if several else n1
    stale = np.zeros(len(blocks), dtype=bool)
    accepts = np.zeros(len(blocks), dtype=int)
    for i in range(n1):
        for j, b in enumerate(blocks):
            if stale[j]:
                conds[j] = conds[j].given(r)
                stale[j] = False
            k = i % span
            if k == 0:
                props = _response(kind, params, means[j] + (
                    conds[j].mean_offset + noise[j][i:i + span]))
                finite = np.all(np.isfinite(props), axis=1)
                scores = np.empty(span)
                # a row that is not finite gets no score
                scores[finite] = _log_p_m_eta(
                    m[j], eta_x[j] + psi.psi_y * props[finite])
            if finite[k] and _accept_prob(scores[k] - log_pm[j]) > us[i, j]:
                log_pm[j] = scores[k]
                y[b] = props[k]
                if several:
                    r[b] = _ystar(kind, y[b], params) - means[j]
                stale[:] = True
                stale[j] = False
                accepts[j] += 1
    return y[u_idx], accepts


def mcmc_nob(kind: ModelKind, data: Dataset, theta: np.ndarray,
             y_u_init: np.ndarray | None, n1: int,
             rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Whole-vector MH pass: n1 independence-proposal steps.

    `_mh_sweep` with the whole unobserved vector as its one block: the
    conditional is factored once, its mean offset never changes, and the n1
    proposals are drawn, solved and scored as one batch before the
    accept/reject decisions run in order. The chain starts from a fresh
    conditional draw, whose conditional it keeps, unless y_u_init is given.
    Returns the final imputation and the acceptance count.
    """
    y_u, accepts = _mh_sweep(kind, data, theta,
                             (data.unobserved_idx,), y_u_init, n1,
                             rng)
    return y_u, int(accepts[0])


def mcmc_allb(kind: ModelKind, data: Dataset, theta: np.ndarray,
              blocks: tuple[np.ndarray, ...], y_u_init: np.ndarray | None,
              n1: int, rng: np.random.Generator
              ) -> tuple[np.ndarray, np.ndarray]:
    """Blocked MH pass: n1 sweeps, each updating the blocks in order.

    blocks are nonempty index arrays whose concatenation is
    data.unobserved_idx, as `HvbConfig.block_scheme` builds them; any other
    tuple raises DomainError. Block proposals condition on the observed
    responses and the current values of every other block. The acceptance
    ratio is that of the full missingness likelihood of the completed
    vectors, computed over the block's sites, where the two vectors differ.
    Each block's factor is built once per call and its mean offset
    refreshed only after another block has moved. Returns the final
    imputation and per-block acceptance counts.
    """
    if (not blocks or min(b.size for b in blocks) == 0 or not np.array_equal(
            np.concatenate(blocks), data.unobserved_idx)):
        raise DomainError("blocks must split the unobserved sites, in "
                          "order, into nonempty chunks")
    return _mh_sweep(kind, data, theta, blocks, y_u_init, n1, rng)


def _impute(kind: ModelKind, data: Dataset, theta: np.ndarray,
            blocks: tuple[np.ndarray, ...] | None,
            y_u_init: np.ndarray | None, n1: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One MH pass by mcmc_nob (blocks None) or mcmc_allb; returns the
    imputation and the accept counts per block."""
    if blocks is None:
        y_u, accepts = mcmc_nob(kind, data, theta, y_u_init, n1, rng)
        return y_u, np.array([accepts])
    return mcmc_allb(kind, data, theta, blocks, y_u_init, n1, rng)


def hvb_fit(kind: ModelKind, data: Dataset, priors: Priors,
            config: HvbConfig, rng: np.random.Generator | None = None
            ) -> FitResult:
    """Hybrid fit for data with missing-not-at-random responses.

    The SGA loop on the completed-data target: each iteration imputes y_u
    with the configured MH kernel at the drawn (xi, psi) before the
    gradient and value of log h are taken in one pass. Acceptance
    statistics are collected as rows (iteration, block, accepts,
    proposals).
    """
    t_start = time.perf_counter()
    layout = _fit_layout(kind, data, config, with_psi=True)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    plan_route(data.W, config.max_iters, config.max_iters)
    lam = init_lambda(kind, data, config, rng=rng, with_psi=True)
    blocks = config.block_scheme(data)
    acc_rows: list[tuple[int, int, int, int]] = []
    y_u = np.empty(0)   # the last imputation: a warm start's chain start

    def target(theta, t):
        nonlocal y_u
        if data.n_missing:
            init = y_u if config.warm_start and t > 1 else None
            y_u, accs = _impute(kind, data, theta, blocks, init, config.n1,
                                rng)
            acc_rows.extend((t, j, int(a), config.n1)
                            for j, a in enumerate(accs))
        return grad_log_h_missing(kind, data, theta, y_u, priors)

    return _sga(lam, layout, config, rng, target, t_start, acc_rows)


def draw_posterior_missing(kind: ModelKind, data: Dataset,
                           lam: VariationalParams, n_draws: int,
                           rng: np.random.Generator,
                           config: HvbConfig | None = None
                           ) -> PosteriorSamples:
    """Posterior draws of (phi, psi) plus one y_u imputation per draw.

    Each parameter draw runs a fresh config.n1-step MH chain, with config's
    kernel, started from the conditional, so the y_u rows are draws given
    that parameter sample. config defaults to HvbConfig().
    """
    layout = layout_missing(kind, data)
    if lam.s != layout.size:
        raise DimensionError("lambda size does not match the layout")
    config = HvbConfig() if config is None else config
    blocks = config.block_scheme(data)
    names = phi_names_for(kind, layout.n_beta)
    phi = np.empty((n_draws, len(names)))
    psi_rows = np.empty((n_draws, layout.n_psi_x + 1))
    y_u_rows = np.empty((n_draws, data.n_missing))
    for i in range(n_draws):
        theta, _, _ = sample_q(lam, rng)
        params, _, psi = link_inverse(kind, layout, theta)
        if data.n_missing:
            y_u_rows[i], _ = _impute(kind, data, theta, blocks, None,
                                     config.n1, rng)
        phi[i] = phi_row(params)
        psi_rows[i] = psi.stacked
    return PosteriorSamples(phi=phi, phi_names=names, psi=psi_rows,
                            y_u=y_u_rows)
