"""Hybrid VB for responses missing not at random.

The outer loop is the complete-data routine's SGA driver
(`variational._sga`), run on a target that first imputes the unobserved
responses with a short Metropolis-Hastings run. The independence proposal
is the exact conditional Gaussian of the spatial model given everything
conditioned on, so the model likelihood cancels from the acceptance ratio
and only the missingness likelihood remains. That likelihood factorizes over
sites, so a step's ratio is taken over the sites it updates.

Both inner kernels run one sweep (`_mh_sweep`) over blocks of unobserved
sites: the blocked kernel, which keeps acceptance rates workable when many
responses are missing, and the whole-vector kernel as its one-block case.
A sweep factors each block's conditional precision once per chain, at the
drawn parameters, by a banded Cholesky in the block's site order, from a
band map that `spatial` caches per block; no sparse matrix is built per
chain. A block's mean offset is recomputed only after another block has
moved, and its missingness log-pmf only when it accepts a proposal.

A chain of one block has a conditional that no step changes, so its
proposals do not depend on the chain state. It draws, transforms and scores
all n1 proposals in one batch, and only the accept/reject decisions run
step by step (the independence-sampler scheme of Jacob, Robert & Smith
2011), with the random numbers drawn in the step-by-step order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .gradients import grad_log_h_missing
from .likelihoods import Dataset, _log_p_m_eta, layout_missing, log_p_m
from .models import MissingnessParams, ModelKind, ModelParams, Priors, link_inverse
from .model_select import PosteriorSamples, phi_names_for, phi_row
from .spatial import ConditionalGaussian, conditional_gaussian, plan_route
from .transforms import yj_forward, yj_inverse
from .variational import (FitConfig, FitResult, VariationalParams, _sga,
                          init_lambda, sample_q)

__all__ = ["BlockScheme", "HvbConfig", "mcmc_nob", "mcmc_allb", "hvb_fit",
           "draw_posterior_missing"]

# Unobserved-block size above which the blocked kernel is the default.
_NOB_MAX_NU = 500


@dataclass(frozen=True)
class BlockScheme:
    """Ordered disjoint nonempty index blocks over the unobserved sites."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=np.int64) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if b.size == 0:
                raise DomainError("blocks must be nonempty")
            if np.any(np.diff(b) <= 0):
                raise DomainError("block indices must be strictly ascending")
            ids = set(int(i) for i in b)
            if seen & ids:
                raise DomainError("blocks must be disjoint")
            seen |= ids

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_fraction(cls, unobserved_idx: np.ndarray,
                      block_fraction: float) -> "BlockScheme":
        """Slice the ascending unobserved indices into ceil(1/fraction)
        contiguous chunks of near-equal size."""
        if not 0.0 < block_fraction <= 1.0:
            raise DomainError("block_fraction must lie in (0, 1]")
        idx = np.asarray(unobserved_idx, dtype=np.int64)
        if idx.size == 0:
            return cls(blocks=())
        k = math.ceil(1.0 / block_fraction)
        chunks = [c for c in np.array_split(idx, min(k, idx.size))
                  if c.size]
        return cls(blocks=tuple(chunks))

    def validate_covering(self, unobserved_idx: np.ndarray) -> None:
        flat = (np.concatenate(self.blocks) if self.blocks
                else np.empty(0, dtype=np.int64))
        if not np.array_equal(np.sort(flat),
                              np.asarray(unobserved_idx, dtype=np.int64)):
            raise DomainError("blocks do not partition the unobserved sites")


@dataclass(frozen=True)
class HvbConfig(FitConfig):
    """Hybrid-fit knobs on top of the SGA configuration.

    n1 inner MH steps run per outer iteration; the kernel is the whole-vector
    one for small unobserved blocks and the blocked sweep otherwise unless
    chosen explicitly. warm_start keeps the previous iteration's imputation
    as the chain start instead of redrawing from the conditional.
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

    def block_scheme(self, data: Dataset) -> BlockScheme | None:
        """The blocks of the resolved kernel over data's unobserved sites;
        None for the whole-vector kernel."""
        if self.resolve_kernel(data.n_missing) == "nob":
            return None
        return BlockScheme.from_fraction(data.unobserved_idx,
                                         self.block_fraction)


def _ystar(kind: ModelKind, y: np.ndarray, params: ModelParams) -> np.ndarray:
    """Responses on the model's scale: Yeo-Johnson transformed for YJ kinds."""
    return yj_forward(y, params.gamma) if kind.yeo_johnson else y


def _draw_proposal(kind: ModelKind, params: ModelParams,
                   cond: ConditionalGaussian, mean_u: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    return _proposal(kind, params, cond, mean_u,
                     rng.standard_normal(mean_u.size))


def _proposal(kind: ModelKind, params: ModelParams, cond: ConditionalGaussian,
              mean_u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The proposal for standard normals z; one proposal per row when z
    stacks them as rows."""
    ystar_u = mean_u + cond.sample(params.sigma2, z)
    if not kind.yeo_johnson:
        return ystar_u
    with np.errstate(over="ignore"):
        # overflow in the inverse transform surfaces as a non-finite
        # proposal, which the MH kernels reject outright
        return yj_inverse(ystar_u, params.gamma)


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
    y_u_init is given. Each block's M_uu is factored once per call; its mean
    offset is recomputed only after another block has moved. The acceptance
    ratio is taken over the block's own sites: every other factor of
    p(m | y, psi) cancels. Each block's current log p(m_b | y_b, psi) is
    kept and replaced on acceptance, so a step evaluates the missingness pmf
    once, at its proposal. A single block's chain runs as one batch
    (`_one_block_chain`), with the same draws, decisions and result as the
    step-by-step sweep. Returns the final imputation and per-block
    acceptance counts.
    """
    params, tau, psi = link_inverse(kind, layout_missing(kind, data), theta)
    obs, u_idx = ~data.missing, data.unobserved_idx
    mean = data.X @ params.beta
    y = data.y.copy()
    r = np.zeros(data.n)   # residual on the model's scale
    r[obs] = _ystar(kind, y[obs], params) - mean[obs]
    start = None
    if y_u_init is None:
        start = conditional_gaussian(kind, data.W, params.rho, tau, u_idx, r)
        y[u_idx] = _draw_proposal(kind, params, start, mean[u_idx], rng)
    else:
        y_u_init = np.asarray(y_u_init, dtype=float)
        if y_u_init.shape != (u_idx.size,):
            raise DimensionError("y_u_init must match the unobserved count")
        y[u_idx] = y_u_init
    if len(blocks) == 1:
        # the one block is the whole unobserved vector, and its conditional
        # reads no unobserved residual
        if start is None:
            start = conditional_gaussian(kind, data.W, params.rho, tau,
                                         blocks[0], r)
        y_u, accepts = _one_block_chain(
            kind, params, psi, start, mean[u_idx], data.missing[u_idx],
            data.Xstar[u_idx], y[u_idx], n1, rng)
        return y_u, np.array([accepts])
    r[u_idx] = _ystar(kind, y[u_idx], params) - mean[u_idx]
    conds = [conditional_gaussian(kind, data.W, params.rho, tau, b, r)
             for b in blocks]
    means = [mean[b] for b in blocks]
    m = [data.missing[b] for b in blocks]
    Xstar = [data.Xstar[b] for b in blocks]
    log_pm = [log_p_m(m_b, y[b], x_b, psi)
              for m_b, b, x_b in zip(m, blocks, Xstar)]
    stale = np.zeros(len(blocks), dtype=bool)
    accepts = np.zeros(len(blocks), dtype=int)
    for _ in range(n1):
        for j, b in enumerate(blocks):
            if stale[j]:
                conds[j] = conds[j].given(r)
                stale[j] = False
            y_prop = _draw_proposal(kind, params, conds[j], means[j], rng)
            u = rng.uniform()
            a = 0.0
            if np.all(np.isfinite(y_prop)):
                log_pm_prop = log_p_m(m[j], y_prop, Xstar[j], psi)
                a = _accept_prob(log_pm_prop - log_pm[j])
            if a > u:
                log_pm[j] = log_pm_prop
                y[b] = y_prop
                r[b] = _ystar(kind, y_prop, params) - means[j]
                stale[:] = True
                stale[j] = False
                accepts[j] += 1
    return y[u_idx], accepts


def _one_block_chain(kind: ModelKind, params: ModelParams,
                     psi: MissingnessParams, cond: ConditionalGaussian,
                     mean_u: np.ndarray, m: np.ndarray, Xstar: np.ndarray,
                     y_u: np.ndarray, n1: int, rng: np.random.Generator
                     ) -> tuple[np.ndarray, int]:
    """n1 independence MH steps on one block whose conditional is fixed.

    The n1 (z, u) pairs are drawn in the step-by-step order. One banded
    solve with n1 right-hand sides, one inverse transform and one pass of
    log p(m | y, psi) then give every proposal and its score; a row that is
    not finite gets no score and is rejected after its uniform. Only the
    accept/reject decisions run as a loop. Returns the final imputation,
    starting from y_u, and the acceptance count.
    """
    z = np.empty((n1, mean_u.size))
    u = np.empty(n1)
    for i in range(n1):
        z[i] = rng.standard_normal(mean_u.size)
        u[i] = rng.uniform()
    props = _proposal(kind, params, cond, mean_u, z)
    finite = np.all(np.isfinite(props), axis=1)
    scores = np.empty(n1)
    scores[finite] = _log_p_m_eta(
        m, Xstar @ psi.psi_x + psi.psi_y * props[finite])
    log_pm = log_p_m(m, y_u, Xstar, psi)
    current, accepts = None, 0
    for i in range(n1):
        if finite[i] and _accept_prob(scores[i] - log_pm) > u[i]:
            log_pm, current = scores[i], i
            accepts += 1
    return (y_u if current is None else props[current].copy()), accepts


def mcmc_nob(kind: ModelKind, data: Dataset, theta: np.ndarray,
             y_u_init: np.ndarray | None, n1: int,
             rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Whole-vector MH pass: n1 independence-proposal steps.

    The one-block case of the blocked sweep: the conditional is factored
    and its mean offset computed once, and the n1 proposals are drawn and
    scored as one batch before the accept/reject decisions run in order.
    The chain starts from a fresh conditional draw unless y_u_init is
    given. Returns the final imputation and the acceptance count.
    """
    y_u, accepts = _mh_sweep(kind, data, theta,
                             (data.unobserved_idx,), y_u_init, n1,
                             rng)
    return y_u, int(accepts[0])


def mcmc_allb(kind: ModelKind, data: Dataset, theta: np.ndarray,
              blocks: BlockScheme, y_u_init: np.ndarray | None, n1: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Blocked MH pass: n1 sweeps, each updating the blocks in order.

    Block proposals condition on the observed responses and the current
    values of every other block. The acceptance ratio is that of the full
    missingness likelihood of the completed vectors, computed over the
    block's sites, where the two vectors differ. Each block's factor is
    built once per call and its mean offset refreshed only after another
    block has moved. Returns the final imputation and per-block acceptance
    counts.
    """
    blocks.validate_covering(data.unobserved_idx)
    return _mh_sweep(kind, data, theta, blocks.blocks, y_u_init, n1, rng)


def _impute(kind: ModelKind, data: Dataset, theta: np.ndarray,
            scheme: BlockScheme | None, y_u_init: np.ndarray | None, n1: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One MH pass by mcmc_nob (scheme None) or mcmc_allb; returns the
    imputation and the accept counts per block."""
    if scheme is None:
        y_u, accepts = mcmc_nob(kind, data, theta, y_u_init, n1, rng)
        return y_u, np.array([accepts])
    return mcmc_allb(kind, data, theta, scheme, y_u_init, n1, rng)


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
    layout = layout_missing(kind, data)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    plan_route(data.W, config.max_iters, config.max_iters)
    lam = init_lambda(kind, data, config, rng=rng, with_psi=True)
    scheme = config.block_scheme(data)
    acc_rows: list[tuple[int, int, int, int]] = []
    y_u = np.empty(0)   # the last imputation: a warm start's chain start

    def target(theta, t):
        nonlocal y_u
        if data.n_missing:
            init = y_u if config.warm_start and t > 1 else None
            y_u, accs = _impute(kind, data, theta, scheme, init, config.n1,
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
    scheme = config.block_scheme(data)
    names = phi_names_for(kind, layout.n_beta)
    phi = np.empty((n_draws, len(names)))
    psi_rows = np.empty((n_draws, layout.n_psi_x + 1))
    y_u_rows = np.empty((n_draws, data.n_missing))
    for i in range(n_draws):
        theta, _, _ = sample_q(lam, rng)
        params, _, psi = link_inverse(kind, layout, theta)
        if data.n_missing:
            y_u_rows[i], _ = _impute(kind, data, theta, scheme, None,
                                     config.n1, rng)
        phi[i] = phi_row(params)
        psi_rows[i] = psi.stacked
    return PosteriorSamples(phi=phi, phi_names=names, psi=psi_rows,
                            y_u=y_u_rows)
