"""Hybrid VB for responses missing not at random.

The outer loop is the complete-data routine's SGA driver
(`variational._sga`), run on a target that first imputes the unobserved
responses with a short Metropolis-Hastings run. The independence proposal
is the exact conditional Gaussian of the spatial model given everything
conditioned on, so the model likelihood cancels from the acceptance ratio
and only the missingness likelihood remains. Two inner kernels exist: one
updating the whole unobserved vector at once, and a blocked sweep that keeps
acceptance rates workable when many responses are missing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .gradients import grad_log_h_missing
from .likelihoods import Dataset, layout_missing, log_h_missing, log_p_m
from .models import MissingnessParams, ModelKind, ModelParams, Priors, link_inverse
from .model_select import PosteriorSamples, phi_names_for, phi_row
from .spatial import ConditionalGaussian, Partition, conditional_gaussian
from .transforms import yj_forward, yj_inverse
from .variational import (FitConfig, FitResult, VariationalParams, _sga,
                          init_lambda, sample_q)

__all__ = ["BlockScheme", "HvbConfig", "propose_yu", "mh_accept_ratio",
           "mcmc_nob", "mcmc_allb", "hvb_fit", "draw_posterior_missing"]

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
        return BlockScheme.from_fraction(data.partition.unobserved_idx,
                                         self.block_fraction)


def _build_conditional(kind: ModelKind, data: Dataset, params: ModelParams,
                       tau: np.ndarray | None, partition: Partition,
                       y_known: np.ndarray
                       ) -> tuple[ConditionalGaussian, np.ndarray]:
    """Conditional of the unknown block's transformed responses.

    Returns the residual-scale conditional and the regression mean X_u beta;
    y_known holds untransformed responses over partition.observed_idx.
    """
    y_known = np.asarray(y_known, dtype=float)
    if y_known.shape != (partition.observed_idx.size,):
        raise DimensionError("y_known must match the known block size")
    ystar = (yj_forward(y_known, params.gamma) if kind.yeo_johnson
             else y_known)
    r_known = ystar - data.X[partition.observed_idx] @ params.beta
    cond = conditional_gaussian(kind, data.W, params.rho, tau, partition,
                                r_known)
    mean_u = data.X[partition.unobserved_idx] @ params.beta
    return cond, mean_u


def _draw_proposal(kind: ModelKind, params: ModelParams,
                   cond: ConditionalGaussian, mean_u: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(mean_u.size)
    ystar_u = mean_u + cond.sample(params.sigma2, z)
    if not kind.yeo_johnson:
        return ystar_u
    with np.errstate(over="ignore"):
        # overflow in the inverse transform surfaces as a non-finite
        # proposal, which the MH kernels reject outright
        return yj_inverse(ystar_u, params.gamma)


def propose_yu(kind: ModelKind, data: Dataset, params: ModelParams,
               tau: np.ndarray | None, partition: Partition,
               current_known_values: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """One independence-proposal draw for the unknown block.

    partition may be the full observed/unobserved split or a single block's
    split (everything else conditioned on). Identity kinds draw from
    N(X_u beta + offset, sigma2 M_uu^-1); YJ kinds draw on the transformed
    scale and map back through the inverse transform.
    """
    cond, mean_u = _build_conditional(kind, data, params, tau, partition,
                                      current_known_values)
    return _draw_proposal(kind, params, cond, mean_u, rng)


def mh_accept_ratio(m: np.ndarray, y_proposed_complete: np.ndarray,
                    y_current_complete: np.ndarray, Xstar: np.ndarray,
                    psi: MissingnessParams) -> float:
    """min(1, p(m | y_proposed, psi) / p(m | y_current, psi)), in log space.

    The conditional-Gaussian proposal equals the response model's own
    conditional, so it cancels and only the missingness pmf remains.
    """
    delta = (log_p_m(m, y_proposed_complete, Xstar, psi)
             - log_p_m(m, y_current_complete, Xstar, psi))
    return min(1.0, float(np.exp(min(delta, 0.0))))


def _split_theta(kind: ModelKind, data: Dataset, theta: np.ndarray):
    layout = layout_missing(kind, data)
    params, tau, psi = link_inverse(kind, layout, theta)
    return params, tau, psi


def mcmc_nob(kind: ModelKind, data: Dataset, theta: np.ndarray,
             y_u_init: np.ndarray | None, n1: int,
             rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Whole-vector MH pass: n1 independence-proposal steps.

    The chain starts from a fresh conditional draw unless y_u_init is given.
    Returns the final imputation and the acceptance count.
    """
    params, tau, psi = _split_theta(kind, data, theta)
    part = data.partition
    cond, mean_u = _build_conditional(kind, data, params, tau, part,
                                      data.y[part.observed_idx])
    if y_u_init is None:
        y_curr = _draw_proposal(kind, params, cond, mean_u, rng)
    else:
        y_curr = np.asarray(y_u_init, dtype=float)
        if y_curr.shape != (part.unobserved_idx.size,):
            raise DimensionError("y_u_init must match the unobserved count")
    m = data.missing
    accepts = 0
    for _ in range(n1):
        y_prop = _draw_proposal(kind, params, cond, mean_u, rng)
        u = rng.uniform()
        if np.all(np.isfinite(y_prop)):
            a = mh_accept_ratio(m, data.complete(y_prop),
                                data.complete(y_curr), data.Xstar, psi)
        else:
            a = 0.0
        if a > u:
            y_curr = y_prop
            accepts += 1
    return y_curr, accepts


def mcmc_allb(kind: ModelKind, data: Dataset, theta: np.ndarray,
              blocks: BlockScheme, y_u_init: np.ndarray | None, n1: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Blocked MH pass: n1 sweeps, each updating the blocks in order.

    Block proposals condition on the observed responses and the current
    values of every other block; acceptance compares the full missingness
    likelihood of the completed vectors. Returns the final imputation and
    per-block acceptance counts.
    """
    params, tau, psi = _split_theta(kind, data, theta)
    part = data.partition
    u_idx = part.unobserved_idx
    blocks.validate_covering(u_idx)
    if y_u_init is None:
        cond, mean_u = _build_conditional(kind, data, params, tau, part,
                                          data.y[part.observed_idx])
        y_curr = _draw_proposal(kind, params, cond, mean_u, rng)
    else:
        y_curr = np.asarray(y_u_init, dtype=float)
        if y_curr.shape != (u_idx.size,):
            raise DimensionError("y_u_init must match the unobserved count")
    # map a site index to its slot in y_u
    slot = {int(site): k for k, site in enumerate(u_idx)}
    all_idx = np.arange(data.n)
    m = data.missing
    accepts = np.zeros(blocks.n_blocks, dtype=int)
    for _ in range(n1):
        for j, block in enumerate(blocks.blocks):
            known_idx = np.setdiff1d(all_idx, block, assume_unique=True)
            part_j = Partition(observed_idx=known_idx, unobserved_idx=block)
            y_full = data.complete(y_curr)
            prop_block = propose_yu(kind, data, params, tau, part_j,
                                    y_full[known_idx], rng)
            u = rng.uniform()
            if np.all(np.isfinite(prop_block)):
                y_prop = y_curr.copy()
                y_prop[[slot[int(s)] for s in block]] = prop_block
                a = mh_accept_ratio(m, data.complete(y_prop), y_full,
                                    data.Xstar, psi)
            else:
                a = 0.0
            if a > u:
                y_curr = y_prop
                accepts[j] += 1
    return y_curr, accepts


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
    gradient of log h is taken. Acceptance statistics are collected as rows
    (iteration, block, accepts, proposals).
    """
    t_start = time.perf_counter()
    layout = layout_missing(kind, data)
    rng = np.random.default_rng(config.seed) if rng is None else rng
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
        return (grad_log_h_missing(kind, data, theta, y_u, priors),
                log_h_missing(kind, data, theta, y_u, priors))

    return _sga(lam, layout, config, rng, target, t_start, acc_rows)


def draw_posterior_missing(kind: ModelKind, data: Dataset,
                           lam: VariationalParams, n_draws: int, n1: int,
                           rng: np.random.Generator,
                           config: HvbConfig | None = None
                           ) -> PosteriorSamples:
    """Posterior draws of (phi, psi) plus one y_u imputation per draw.

    Each parameter draw runs a fresh n1-step MH chain started from the
    conditional, so the y_u rows are draws given that parameter sample.
    """
    layout = layout_missing(kind, data)
    if lam.s != layout.size:
        raise DimensionError("lambda size does not match the layout")
    config = HvbConfig(n1=max(n1, 1)) if config is None else config
    scheme = config.block_scheme(data)
    names = phi_names_for(kind, layout.n_beta)
    phi = np.empty((n_draws, len(names)))
    psi_rows = np.empty((n_draws, layout.n_psi_x + 1))
    y_u_rows = np.empty((n_draws, data.n_missing))
    for i in range(n_draws):
        theta, _, _ = sample_q(lam, rng)
        params, _, psi = link_inverse(kind, layout, theta)
        if data.n_missing:
            y_u_rows[i], _ = _impute(kind, data, theta, scheme, None, n1, rng)
        phi[i] = phi_row(params)
        psi_rows[i] = psi.stacked
    return PosteriorSamples(phi=phi, phi_names=names, psi=psi_rows,
                            y_u=y_u_rows)
