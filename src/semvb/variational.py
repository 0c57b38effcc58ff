"""Factor-covariance Gaussian variational approximation and the SGA driver.

The variational family is N(mu, B B^T + D^2) with B an s x p
lower-triangular factor loading matrix and D = diag(d). One reparameterised
draw theta = mu + B eta + d * eps per iteration yields unbiased ELBO
gradients, stepped through ADADELTA learning rates. `_sga` is the one
stochastic-gradient ascent: `vb_fit` runs it on the complete-data target,
and `hvb.hvb_fit` on a target that first imputes the missing responses.

Each iteration takes one pass per density: the target returns the gradient
and the value of log h together, and one Woodbury core of q gives log q and
its gradient (`gradients._log_q0_and_grad`). The value feeds only the ELBO
trace.

Per fit, the targets read what depends on the data alone from caches on the
`Dataset` (see `likelihoods`), and the layout is built once. Per draw, the
step works on lambda = (mu, B, d) in its stored shape, B whole and row by
row: ADADELTA acts on each entry on its own, and the gradient of B's strict
upper triangle is +0.0, so B's step there is +0.0 and B stays
lower-triangular. vech(B) exists only in `lambda.csv` (`io.write_lambda`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, SingularityError
from .gradients import _log_q0_and_grad, grad_log_h_full
from .likelihoods import Dataset, layout_full, layout_missing
from .models import (MissingnessParams, ModelKind, ModelParams, Priors,
                     ThetaLayout, link_forward, link_inverse)
from .model_select import PosteriorSamples, phi_names_for, phi_row
from .simulate import draw_inverse_gamma
from .spatial import logdet_A, plan_route

__all__ = [
    "VariationalParams", "AdadeltaState", "FitConfig", "FitResult",
    "sample_q", "log_q0", "reparam_grads", "adadelta_step",
    "init_lambda", "vb_fit", "draw_posterior",
]

_ADADELTA_ALPHA, _ADADELTA_UPSILON = 1e-6, 0.95  # ADADELTA offset and decay
_GAMMA_INIT = 1.001  # just off the identity transform at gamma = 1


@dataclass(frozen=True)
class VariationalParams:
    """mu, lower-triangular factor matrix B (s x p), and diagonal d."""

    mu: np.ndarray
    B: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        B = np.asarray(self.B, dtype=float)
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "d", d)
        s = mu.shape[0]
        if B.ndim != 2 or B.shape[0] != s or d.shape != (s,):
            raise DimensionError("mu, B, d dimensions disagree")
        if not 1 <= B.shape[1] <= s:
            raise DimensionError("factor count must lie in 1..s")
        _require_finite(mu, B, d)
        if np.any(np.triu(B, 1)):
            raise DomainError("B must have a zero strict upper triangle")

    @property
    def s(self) -> int:
        return self.mu.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    def covariance(self) -> np.ndarray:
        """Dense B B^T + D^2 (tests and summaries; O(s^2) memory)."""
        return self.B @ self.B.T + np.diag(self.d * self.d)

    def flat(self) -> np.ndarray:
        """Stack (mu, B row by row, d) into the lambda vector ADADELTA steps.

        B enters whole, its strict upper triangle included; see
        `reparam_grads`, which keeps that triangle's gradient at +0.0.
        """
        return np.concatenate([self.mu, self.B.ravel(), self.d])

    def with_step(self, step: np.ndarray) -> "VariationalParams":
        """Add a step laid out as `flat`: three slice adds.

        The step must be +0.0 on B's strict upper triangle, as every
        ADADELTA step from a `reparam_grads` gradient is, for B to stay
        lower-triangular; the shapes are this lambda's, so of
        __post_init__'s checks only finiteness is repeated.
        """
        s, p = self.s, self.p
        if step.shape != ((p + 2) * s,):
            raise DimensionError("step length does not match lambda")
        mu, d = self.mu + step[:s], self.d + step[-s:]
        B = self.B + step[s:-s].reshape(s, p)
        _require_finite(mu, B, d)
        out = object.__new__(VariationalParams)
        for name, value in (("mu", mu), ("B", B), ("d", d)):
            object.__setattr__(out, name, value)
        return out


def _require_finite(mu: np.ndarray, B: np.ndarray, d: np.ndarray) -> None:
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(B))
            and np.all(np.isfinite(d))):
        raise DomainError("variational parameters must be finite")


def sample_q(lam: VariationalParams, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One reparameterised draw: theta = mu + B eta + d * eps."""
    eta = rng.standard_normal(lam.p)
    eps = rng.standard_normal(lam.s)
    theta = lam.mu + lam.B @ eta + lam.d * eps
    return theta, eta, eps


def log_q0(lam: VariationalParams, theta: np.ndarray) -> float:
    """Log density of the variational Gaussian at theta."""
    return _log_q0_and_grad(lam, theta)[0]


def reparam_grads(lam: VariationalParams, eta: np.ndarray, eps: np.ndarray,
                  g: np.ndarray) -> np.ndarray:
    """The ELBO gradient over the flat lambda (mu, B, d) from a composed g,
    laid out as `VariationalParams.flat`.

    g must be the draw's total gradient grad log h(theta) - grad log
    q(theta); the chain rule through theta = mu + B eta + d * eps gives
    d_mu = g, d_B = g eta^T on B's lower triangle, d_d = g * eps. B's
    strict upper triangle, which lies in its top p rows, gets +0.0, so
    ADADELTA's step there is +0.0 too.
    """
    s, p = lam.s, lam.p
    if g.shape != (s,) or eps.shape != (s,) or eta.shape != (p,):
        raise DimensionError("gradient or noise dimensions disagree")
    out = np.empty((p + 2) * s)
    out[:s] = g
    d_B = out[s:-s].reshape(s, p)
    np.multiply(g[:, None], eta, out=d_B)
    for k in range(p - 1):
        d_B[k, k + 1:] = 0.0
    np.multiply(g, eps, out=out[-s:])
    return out


@dataclass(frozen=True)
class AdadeltaState:
    """Decayed accumulators of squared gradients and squared steps."""

    e_grad2: np.ndarray
    e_dx2: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdadeltaState":
        return cls(e_grad2=np.zeros(size), e_dx2=np.zeros(size))


def adadelta_step(state: AdadeltaState, grad: np.ndarray
                  ) -> tuple[np.ndarray, AdadeltaState]:
    """One ADADELTA update; returns (step, new state) for an ascent move.

    The given state is left as it is; the new accumulators and the step
    are built with one scratch vector and no other temporaries.
    """
    if grad.shape != state.e_grad2.shape:
        raise DimensionError("gradient length does not match the state")
    up, al = _ADADELTA_UPSILON, _ADADELTA_ALPHA
    tmp = (1.0 - up) * grad
    tmp *= grad
    e_g2 = up * state.e_grad2
    e_g2 += tmp                    # up E[g^2] + (1 - up) g^2
    step = state.e_dx2 + al
    np.add(e_g2, al, out=tmp)
    step /= tmp
    np.sqrt(step, out=step)
    step *= grad                   # sqrt((E[dx^2] + al) / (E[g^2] + al)) g
    np.multiply(step, 1.0 - up, out=tmp)
    tmp *= step
    e_dx2 = up * state.e_dx2
    e_dx2 += tmp                   # up E[dx^2] + (1 - up) dx^2
    return step, AdadeltaState(e_grad2=e_g2, e_dx2=e_dx2)


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the SGA loop; defaults match the reference experiments."""

    n_factors: int = 4
    max_iters: int = 10000
    seed: int = 0
    trace_every: int = 100
    stop_window: int = 0      # 0 disables the plateau rule
    stop_tol: float = 0.0

    def __post_init__(self):
        if self.n_factors < 1:
            raise DomainError("n_factors must be at least 1")
        if self.max_iters < 0:
            raise DomainError("max_iters must be nonnegative")
        if self.trace_every < 1:
            raise DomainError("trace_every must be at least 1")
        if self.stop_window < 0:
            raise DomainError("stop_window must be nonnegative")
        if not self.stop_tol >= 0.0:
            raise DomainError("stop_tol must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    """Fitted variational parameters plus optimization telemetry."""

    lam: VariationalParams
    layout: ThetaLayout
    mu_trace: np.ndarray
    trace_iters: np.ndarray
    elbo_trace: np.ndarray
    n_iters: int
    wall_time: float
    seed: int
    # rows (iteration, block, accepts, proposals); None for full-data fits
    acceptance: np.ndarray | None = None


def _ml_init(data: Dataset) -> tuple[np.ndarray, float, float]:
    """Profile-likelihood fit of the Gaussian identity kind on a rho grid.

    Missing responses are handled by restricting the system to observed
    sites. Returns (beta_hat, sigma2_hat, rho_hat): the fit at the first
    grid point, of the 199 in [-0.99, 0.99] (the log-det grid of LeSage &
    Pace 2009), with the highest score ld(rho) - (n/2) log sigma2_hat(rho),
    where ld(rho) = log det(I - rho W) and sigma2_hat(rho) is the residual
    mean square of the least-squares fit of (I - rho W) y on (I - rho W) X.
    The result is that of a full scan that runs ld and that least-squares
    fit at every point, bit for bit, but each runs only where it can still
    change the pick.

    The profile term comes first from Gram matrices, at every point
    (`_gram_half`). With Z = [X, y], the Gram matrix of (I - rho W) Z is
    Z^T Z - rho (Z^T W Z + its transpose) + rho^2 (WZ)^T WZ, so three
    (p + 1) x (p + 1) products, built once, give it on the whole grid, and
    its Schur complement is the residual sum of squares. That value comes
    with a bound on its distance from the least-squares one, so each score
    is known within a bracket. The least-squares fit then runs only at the
    points whose bracket reaches the best lower end, usually the pick
    alone, and those exact scores decide the pick.

    ld runs at the first point, at every point outside the region R
    below, and lazily inside it. R holds the points with |rho| r < 1, r the largest row sum
    of W, when W has a symmetrizer. The eigenvalues of W are then real and,
    by Gershgorin, lie in [-r, r], so every factor 1 - rho lambda is positive
    on R and ld'' = -sum lambda^2 / (1 - rho lambda)^2 <= 0: ld is concave on
    R. A concave function lies below its tangent at 0, which is ld = 0
    since ld(0) = 0 and ld'(0) = -tr W = 0 (W has no diagonal), and below
    the extension of every chord between two points where it is known, on
    either side of the pair. So at each unevaluated point of R the least of
    0 and the extended chords through the two nearest known points on
    either side (0 counts as known) bounds ld from above. The loop computes
    ld at the point whose bound plus its profile term is highest, and stops
    once none reaches the best score so far minus a margin delta; no
    unevaluated point can then beat that score. Here a candidate's score
    takes the upper end of its bracket and the best score is the largest
    lower end, so the brackets need no margin of their own. Without a
    symmetrizer R is empty and every point is evaluated.

    delta covers the rounding of the computed ld. Every log-det route for
    symmetrizable W is backward stable: the band eigenvalues (`dsbevd`
    reduces the band to tridiagonal form by orthogonal rotations, whose
    computed result is that of an exact similarity of a nearby matrix), or
    the banded Cholesky factor, are exact for some A + Delta A with
    ||Delta A|| <= eta ||A||, taken as eta = n eps, and
    |log det(A + Delta A) - log det A| <= n ||A^-1 Delta A|| <= n kappa eta
    with kappa = (1 + |rho| r) / (1 - |rho| r) >= cond(A) on R. So each
    computed ld is within e = n^2 kappa eps of ld, for the largest kappa on
    R. A chord extended from two points d apart to a point t d beyond the
    nearer one carries their errors with weight 1 + 2t <= 2 * 197 + 1 on
    the grid's 199 points, and the point's own ld adds one more e, so
    delta = (2 * 198 + 1) e covers both; the few roundings of the bound's
    own arithmetic are far below e. At n = 2116 and r = 1 (|rho| <= 0.99,
    kappa = 199) e is 2e-7 and delta 8e-5, while the banded-Cholesky and
    eigenvalue log-dets of the 46 x 46 rook lattice differ by at most
    4.3e-13 over the grid. A W whose spectrum a fit asked for scores the
    grid from it, and one without, as a probe's, from the banded Cholesky
    factors.

    Measured on row-standardized 30 x 30 and 46 x 46 rook lattices (true
    rho in {-0.5, 0, 0.8, 0.95}, seeds 0-5, sem-gau and yj-sem-t data) this
    takes 2-10 log-dets instead of 199, and 9-10 with 30% of the responses
    missing; binary 20 x 20 weights take 151-156, since only the 49 points
    with |rho| < 1/4 lie in R.
    """
    obs = data.observed
    if obs.all():
        W, y, X = data.W, data.y, data.X
    else:
        keep = np.flatnonzero(obs)
        W = data.W.restrict(keep)
        y, X = data.y[keep], data.X[keep]
    n = y.size
    if n <= X.shape[1]:
        raise DomainError("too few observed responses to initialize")
    Wy, WX = W.matvec(y), W.matvec(X)

    def profile(rho):
        ay = y - rho * Wy
        ax = X - rho * WX
        beta, *_ = np.linalg.lstsq(ax, ay, rcond=None)
        resid = ay - ax @ beta
        return beta, max(float(resid @ resid) / n, 1e-12)

    grid = np.linspace(-0.99, 0.99, 199)
    ld = np.zeros(grid.size)
    done = np.zeros(grid.size, dtype=bool)
    ok = np.zeros(grid.size, dtype=bool)   # evaluated and not singular

    def evaluate(k):
        done[k] = True
        try:
            ld[k] = logdet_A(W, grid[k])
            ok[k] = True
        except SingularityError:
            pass

    evaluate(0)
    half, err = _gram_half(np.column_stack([X, y]), np.column_stack([WX, Wy]),
                           grid)
    # each score ld - half lies in [ld - half_hi, ld - half_lo]; NaN
    # brackets (a non-finite response) prune nothing
    half_lo, half_hi = half - err, half + err
    r = np.bincount(W.rows, weights=W.weights, minlength=W.n).max()
    concave = (np.abs(grid) * r < 1.0) & (W.symmetrizer is not None)
    for k in np.flatnonzero(~concave & ~done):
        evaluate(k)
    span = np.abs(grid[concave]).max(initial=0.0) * r   # largest |rho| r
    delta = ((2 * 198 + 1) * n * n * np.finfo(float).eps
             * (1.0 + span) / (1.0 - span))
    todo = concave & ~done
    while todo.any():
        known = concave & ok
        # 0 is known exactly: np.unique keeps it, not a computed ld(0)
        xs, first = np.unique(np.concatenate([[0.0], grid[known]]),
                              return_index=True)
        fs = np.concatenate([[0.0], ld[known]])[first]
        reach = np.where(todo, _concave_bound(xs, fs, grid) - half_lo,
                         -np.inf)
        top = np.max(np.where(ok, ld - half_hi, -np.inf))
        j = int(np.argmax(reach))
        if reach[j] < top - delta:
            break
        evaluate(j)
        todo[j] = False
    if not ok.any():
        raise NumericalError("profile likelihood failed on the whole rho grid")
    # the exact score wherever the bracket reaches the best lower end
    floor = np.max(np.where(ok, ld - half_hi, -np.inf))
    fits = {k: profile(grid[k])
            for k in np.flatnonzero(ok & ~(ld - half_lo < floor))}
    score = {k: ld[k] - 0.5 * n * np.log(fit[1]) for k, fit in fits.items()}
    best = max(score, key=score.get)   # the first in grid order on a tie
    return *fits[best], grid[best]


def _gram_half(Z: np.ndarray, WZ: np.ndarray, grid: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """(n/2) log sigma2_hat(rho) at every rho of the grid from Gram
    matrices, and a bound on its distance from the least-squares value.

    Z = [X, y] and WZ = W Z. With v = [-beta_hat, 1] the residual sum of
    squares is v^T G v for G the Gram matrix of Z - rho WZ, and it is
    stationary in beta_hat, so the solve's error enters only to second
    order. Let s_j = ||Z_j|| + |rho| ||WZ_j|| and t = sum_j |v_j| s_j; by
    Cauchy-Schwarz |G_jk| <= s_j s_k. To first order, the rounding of G's
    inner products and of the quadratic form moves v^T G v by at most
    (n + 2 p + 5) eps t^2, and the least-squares residual, a sum of n
    squares of entries computed from p + 1 terms each, is off by at most
    (n + 2 p + 4) eps t^2 (its rss is at most t^2). So their distance is
    within e = 4 (n + 2 p + 5) eps t^2, twice the first-order sum to cover
    the second-order terms. The log then moves by at most e / (rss - e):
    the bound is infinite where rss <= e, and NaN where the Gram system
    cannot be solved, so that such points are scored by least squares.
    """
    n, q = Z.shape
    p = q - 1
    # einsum rather than BLAS products: those would touch OpenBLAS's
    # packing buffer, which raised a probe's peak memory by 0.5 MB at
    # n = 2116
    G0, G1, G2 = (np.einsum("ij,ik->jk", a, b)
                  for a, b in ((Z, Z), (Z, WZ), (WZ, WZ)))
    rho = grid[:, None, None]
    G = G0 - rho * (G1 + G1.T) + (rho * rho) * G2
    v = np.ones((grid.size, q))
    try:
        v[:, :p] = -np.linalg.solve(G[:, :p, :p], G[:, :p, p:])[:, :, 0]
    except np.linalg.LinAlgError:  # a rank-deficient design somewhere
        v[:, :p] = np.nan
    rss = np.einsum("ki,kij,kj->k", v, G, v)
    s = (np.sqrt(np.diagonal(G0))
         + np.abs(grid)[:, None] * np.sqrt(np.diagonal(G2)))
    t = np.sum(np.abs(v) * s, axis=1)
    e = 4.0 * (n + 2 * p + 5) * np.finfo(float).eps * t * t
    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * n * np.log(np.maximum(rss / n, 1e-12))
        err = np.where(rss > e, 0.5 * n * e / (rss - e), np.inf)
    return half, np.where(np.isnan(rss), np.nan, err)


def _concave_bound(xs: np.ndarray, fs: np.ndarray, x: np.ndarray
                   ) -> np.ndarray:
    """Upper bound at each x on a concave f with known values fs at the
    ascending xs, f(0) = 0 and f'(0) = 0: the least of 0 and the chords
    through the two nearest xs on each side of x, extended to x.

    Chord c joins xs[c] and xs[c + 1]. Every array here has x's length,
    whatever the number of known points: arrays of a new small size on
    each iteration of the calling loop would each stay in numpy's cache of
    small buffers and raise the process's peak memory.
    """
    out = np.zeros(x.size)
    if xs.size < 2:
        return out
    i = np.searchsorted(xs, x)
    for c, valid in ((i - 2, i >= 2), (i, i + 2 <= xs.size)):
        c = np.clip(c, 0, xs.size - 2)
        slope = (fs[c + 1] - fs[c]) / (xs[c + 1] - xs[c])
        out = np.where(valid, np.minimum(out, fs[c] + slope * (x - xs[c])),
                       out)
    return out


def _fit_layout(kind: ModelKind, data: Dataset, config: FitConfig,
                with_psi: bool = False) -> ThetaLayout:
    """The fit's theta layout (with the psi block for a hybrid fit), after
    refusing more factors than parameters: the one check of n_factors
    against s, which each fit makes before any set-up."""
    layout = (layout_missing(kind, data) if with_psi
              else layout_full(kind, data))
    if config.n_factors > layout.size:
        raise DomainError(f"n_factors = {config.n_factors} exceeds "
                          f"parameter count {layout.size}")
    return layout


def init_lambda(kind: ModelKind, data: Dataset, config: FitConfig,
                rng: np.random.Generator | None = None,
                with_psi: bool = False) -> VariationalParams:
    """Initial variational parameters.

    mu is `link_forward` of the profile-likelihood fit's beta, sigma2 and
    rho, with nu = 4, gamma just off 1, tau from inverse-gamma(2, 2) draws
    and every psi entry at 0.1. All of B's lower triangle and all of d
    start at 0.01.
    """
    if np.linalg.matrix_rank(data.X) < data.n_beta:
        raise DomainError("design matrix is rank-deficient")
    layout = _fit_layout(kind, data, config, with_psi)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    beta, sigma2, rho = _ml_init(data)
    params = ModelParams(beta=beta, sigma2=sigma2, rho=rho,
                         nu=4.0 if kind.student_t else None,
                         gamma=_GAMMA_INIT if kind.yeo_johnson else None)
    tau = (draw_inverse_gamma(2.0, 2.0, rng, size=layout.n_sites)
           if kind.student_t else None)
    psi = (MissingnessParams(psi_x=np.full(layout.n_psi_x, 0.1), psi_y=0.1)
           if with_psi else None)
    mu = link_forward(kind, layout, params, tau, psi)
    B = np.tril(np.full((layout.size, config.n_factors), 0.01))
    return VariationalParams(mu=mu, B=B, d=np.full(layout.size, 0.01))


def _sga(lam: VariationalParams, layout: ThetaLayout, config: FitConfig,
         rng: np.random.Generator, target, t_start: float,
         acceptance: list | None = None) -> FitResult:
    """The SGA loop shared by vb_fit and hvb_fit.

    Per iteration: one reparameterised draw theta, target(theta, t) ->
    (grad log h, log h), log q and its gradient from one Woodbury core,
    ELBO gradient assembly, ADADELTA step. Runs to
    max_iters or until the optional plateau rule fires. acceptance holds the
    (iteration, block, accepts, proposals) rows a hybrid target appends.
    """
    state = AdadeltaState.zeros(lam.flat().size)
    trace_rows, trace_iters = [], []
    elbo = np.empty(config.max_iters)
    recent_moves: list[float] = []
    t = 0
    for t in range(1, config.max_iters + 1):
        theta, eta, eps = sample_q(lam, rng)
        try:
            g_h, log_h = target(theta, t)
            log_q, g_q = _log_q0_and_grad(lam, theta)
        except (DomainError, SingularityError) as exc:
            raise NumericalError(f"target evaluation failed: {exc}",
                                 iteration=t) from exc
        elbo[t - 1] = log_h - log_q
        g = g_h - g_q
        if not np.isfinite(g).all():
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            raise NumericalError(
                f"non-finite gradient in coordinate {layout.names()[bad]}",
                iteration=t, coordinate=bad)
        step, state = adadelta_step(state, reparam_grads(lam, eta, eps, g))
        lam = lam.with_step(step)
        if t % config.trace_every == 0:
            trace_rows.append(lam.mu.copy())
            trace_iters.append(t)
        if config.stop_window > 0:
            recent_moves.append(float(np.max(np.abs(step[:lam.s]))))
            if len(recent_moves) > config.stop_window:
                recent_moves.pop(0)
            if (len(recent_moves) == config.stop_window
                    and max(recent_moves) < config.stop_tol):
                break
    if t and (not trace_iters or trace_iters[-1] != t):
        trace_rows.append(lam.mu.copy())
        trace_iters.append(t)
    return FitResult(
        lam=lam, layout=layout,
        mu_trace=(np.asarray(trace_rows) if trace_rows
                  else np.empty((0, lam.s))),
        trace_iters=np.asarray(trace_iters, dtype=int),
        elbo_trace=elbo[:t], n_iters=t,
        wall_time=time.perf_counter() - t_start, seed=config.seed,
        acceptance=(None if acceptance is None
                    else np.asarray(acceptance, dtype=int).reshape(-1, 4)))


def vb_fit(kind: ModelKind, data: Dataset, priors: Priors, config: FitConfig,
           rng: np.random.Generator | None = None) -> FitResult:
    """Stochastic-gradient VB on complete data: the SGA loop on log h_full."""
    t_start = time.perf_counter()
    data.require_complete()
    layout = _fit_layout(kind, data, config)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    # before the rho grid, which then reuses a spectrum it asks for
    plan_route(data.W, config.max_iters, config.max_iters)
    lam = init_lambda(kind, data, config, rng=rng)

    def target(theta, t):
        return grad_log_h_full(kind, data, theta, priors)

    return _sga(lam, layout, config, rng, target, t_start)


def draw_posterior(lam: VariationalParams, layout: ThetaLayout, n_draws: int,
                   rng: np.random.Generator) -> PosteriorSamples:
    """n_draws from q_lambda mapped to the constrained scale.

    Returns phi rows (beta, sigma2, rho[, nu][, gamma]) and, when the layout
    carries a missingness block, psi rows.
    """
    kind = layout.kind
    names = phi_names_for(kind, layout.n_beta)
    phi = np.empty((n_draws, len(names)))
    psi = (np.empty((n_draws, layout.n_psi_x + 1))
           if layout.with_psi else None)
    for i in range(n_draws):
        theta, _, _ = sample_q(lam, rng)
        params, _, psi_i = link_inverse(kind, layout, theta)
        phi[i] = phi_row(params)
        if psi is not None:
            psi[i] = psi_i.stacked
    return PosteriorSamples(phi=phi, phi_names=names, psi=psi)
