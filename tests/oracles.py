"""Independent reference implementations used to pin expected test values.

Most of this is deliberately brute force: dense linear algebra, textbook
density formulas, central finite differences. None of those import the
package's own likelihood or gradient code, so agreement between the two is
evidence, not tautology.

Five references are simple compositions of the package's own pieces instead,
and pin the faster code that replaced them: `ml_init_full_grid`, the rho-grid
initialization as a full scan of 199 log-dets; `propose_yu` and
`mh_accept_ratio`, one independence-MH step for one block at a time, and
`step_by_step_sweep`, the blocked sweep built from such steps as the package
ran it before its MH engine drew and scored proposals in batches, against
which that engine is checked bit for bit; `sym_band_scipy`, the
reverse Cuthill-McKee band of S built with scipy's ordering; and
`eigenvalues_eigvalsh`, the eigenvalues of symmetrizable W as they were
computed before the band route, from a dense S, against which the band
eigenvalues are checked within a stated bound.

The sparse LU pieces, `a_matrix_scipy`, `perm_sign_csgraph`, `lu_route_splu`
and `simulate_sem_spsolve`, are the package's code as it was on
scipy.sparse, kept verbatim: the calls into SuperLU's compiled extension
that replaced them are checked against them bit for bit.

`gamma_unlink_branches`, `dlink_cosh` and `expit_masked` are the logistic
formulas that `transforms.gamma_unlink` (now 2 expit(z), clamped),
`transforms.dtwo_expit` and `transforms.expit` replaced, kept verbatim and
checked bit for bit.

`dic1_two_pass`, `dic2_two_pass` and `dic5_two_pass` are the DIC functions
as they were when each took the log-likelihood as a callable and scored
every draw itself, so that DIC1 and DIC2 each made their own pass over the
draws. They are kept verbatim, and the one-pass formulas over per-draw
arrays that replaced them are checked against them bit for bit. Their
reference callables, `phi_loglik_fn`, `phi_logprior_fn`, `joint_loglik_fn`
and `joint_logprior_fn`, are the closure factories `semvb.model_select`
scored draws with before its one scorer over `PosteriorSamples`
(`per_draw_logliks`, `per_draw_logpriors`), kept verbatim and checked
against it bit for bit.

`write_table_whole`, `read_rows_whole`, `parse_whole` and
`parse_column_whole` are the CSV codec of `semvb.io` as it was when it held
a whole table as Python objects, kept verbatim: the codec that streams
tables in fixed-size row chunks is checked against them, byte for byte on
write and bit for bit on read.

`with_step_fancy`, `reparam_grads_outer`, `adadelta_step_allocating` and
`sga_loop` are the SGA step as it was before it worked on contiguous
slices of lambda, on lambda = (mu, vech(B), d): a copy of B stepped through
a fancy index, the lower triangle gathered from an s x p outer product,
ADADELTA allocating its state anew, and the loop that concatenated the
three gradient blocks. They size vech(B) with `np.tril_indices`, which the
package keeps only for `lambda.csv`.
`ResponseFromScratch` computes a response's Yeo-Johnson terms as the
package did before they were split into per-fit bases and per-draw powers:
`yj_forward`, `yj_dgamma` and `yj_dlogdy_dgamma` of the whole completed y
at every call. All are kept verbatim, and the new pieces and whole fits are
checked against them bit for bit.

`rook_lattice_loop` is `spatial.build_rook_lattice` as it was, with a
Python loop over the sites, and `params_from_row_by_name` is
`model_select.params_from_row` as it was, reading a sample row by column
name. Both are kept verbatim: the lattice built by index arithmetic is
checked against the first byte for byte, and the positional row reader
against the second, which also keeps the DIC oracles independent of it.
`csr_of_triples` is scipy's CSR form of triples in any order, so that the
products of a W built from unsorted, duplicated triples are checked against
the triples as given rather than W's own canonical ones.

`write_summary_joined` is `io.write_summary` as it was when it summarized
one table of the draws joined as phi | psi | y_u, and
`draw_posterior_missing_loop` is `hvb.draw_posterior_missing` as it was
with a draw loop of its own. Both are kept verbatim: the summary taken
block by block and chunk by chunk is checked against the first byte for
byte, and the hybrid draws through `variational.draw_posterior`'s one loop
against the second bit for bit.
"""

from __future__ import annotations

import numpy as np


def csr(W):
    """scipy's CSR form of W's triples: duplicates summed, stored zeros kept."""
    return csr_of_triples(W.n, W.rows, W.cols, W.weights)


def csr_of_triples(n, rows, cols, weights):
    """scipy's CSR form of n x n triples in any order: duplicates summed in
    their input order, stored zeros kept."""
    import scipy.sparse as sp
    return sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()


def rook_lattice_loop(rows: int, cols: int, row_standardize: bool = True):
    """`spatial.build_rook_lattice` as it was, with its per-site loop: each
    site's pairs with its right neighbour and the one below, in site order."""
    from semvb.errors import DimensionError
    from semvb.spatial import SpatialWeights
    if rows < 1 or cols < 1:
        raise DimensionError("lattice dimensions must be at least 1x1")
    n = rows * cols
    src, dst = [], []
    for i in range(rows):
        for j in range(cols):
            site = i * cols + j
            if j + 1 < cols:
                src += [site, site + 1]
                dst += [site + 1, site]
            if i + 1 < rows:
                below = site + cols
                src += [site, below]
                dst += [below, site]
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.ones(src.size)
    if row_standardize and src.size:
        degree = np.bincount(src, minlength=n).astype(float)
        w = 1.0 / degree[src]
    return SpatialWeights(n=n, rows=src, cols=dst, weights=w,
                          row_standardized=bool(row_standardize and src.size))


def eigenvalues_eigvalsh(W):
    """`SpatialWeights.eigenvalues` as it was for W with a symmetrizer:
    numpy's `eigvalsh` of a dense S with S_ij = sqrt(W_ij W_ji)."""
    dense = np.zeros((W.n, W.n))
    dense[W.rows, W.cols] = np.sqrt(W.weights * W._reverse)
    return np.linalg.eigvalsh(dense)


def sym_band_scipy(W):
    """`SpatialWeights.sym_band` as it was built on scipy: the lower band of
    S permuted by scipy's reverse_cuthill_mckee(symmetric_mode=True)."""
    if W.symmetrizer is None:
        return None
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    rows, cols = W.rows, W.cols
    data = np.sqrt(W.weights * W._reverse)
    keep = data > 0
    s = sp.csr_matrix((data[keep], (rows[keep], cols[keep])),
                      shape=(W.n, W.n))
    perm = reverse_cuthill_mckee(s, symmetric_mode=True)
    s = s[perm][:, perm].tocoo()
    low = s.row > s.col
    k = s.row[low] - s.col[low]
    band = np.zeros((int(k.max(initial=0)) + 1, W.n))
    band[k, s.col[low]] = s.data[low]
    return band


def a_matrix_scipy(W, c):
    """I - c W in CSC form for real c = rho or complex c = rho + ih: the
    arrays of scipy's `identity - c * W`, which stores no zero term."""
    import scipy.sparse as sp
    from semvb.spatial import _check_rho
    _check_rho(c.real)
    rows, cols = W.rows, W.cols
    off = 0.0 - c * W.weights
    keep = off != 0
    diag = np.arange(W.n)
    data = np.concatenate([np.ones(W.n, off.dtype), off[keep]])
    ij = np.concatenate([diag, rows[keep]]), np.concatenate([diag, cols[keep]])
    return sp.csc_matrix((data, ij), shape=(W.n, W.n))


def perm_sign_csgraph(perm):
    """Sign of a permutation, (-1)^(n - c) for its c cycles.

    The cycles are the weakly connected components of the graph i -> perm[i].
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    perm = np.asarray(perm)
    n = perm.size
    graph = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    cycles, _ = connected_components(graph, directed=True, connection="weak")
    return -1 if (n - cycles) % 2 else 1


def lu_route_splu(W, rho):
    """`spatial._lu_route` on scipy's splu: log|det A|, the sign of det A
    and tr(A^-1 W) from one complex-step sparse LU."""
    import scipy.sparse.linalg as spla
    from semvb.errors import SingularityError
    from semvb.spatial import _COMPLEX_STEP, _SINGULAR_TOL
    try:
        lu = spla.splu(a_matrix_scipy(W, rho + 1j * _COMPLEX_STEP))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularityError(f"A = I - rho W is singular at rho = {rho}") from exc
    diag = lu.U.diagonal()
    re = diag.real
    if np.any(np.abs(re) < _SINGULAR_TOL):
        raise SingularityError(f"A = I - rho W is singular at rho = {rho}")
    sign = perm_sign_csgraph(lu.perm_r) * perm_sign_csgraph(lu.perm_c) * int(np.prod(np.sign(re)))
    trace = -float(np.sum(diag.imag / re)) / _COMPLEX_STEP
    return float(np.sum(np.log(np.abs(re)))), sign, trace


def simulate_sem_spsolve(kind, X, W, params, rng):
    """`simulate.simulate_sem` on scipy's spsolve."""
    import warnings
    import scipy.sparse.linalg as spla
    from semvb.errors import SingularityError
    from semvb.simulate import draw_inverse_gamma
    from semvb.transforms import yj_inverse
    params.require_kind(kind)
    X = np.asarray(X, dtype=float)
    n = W.n
    tau = None
    scale = np.ones(n)
    if kind.student_t:
        tau = draw_inverse_gamma(params.nu / 2.0, params.nu / 2.0, rng, size=n)
        scale = tau
    e = rng.standard_normal(n) * np.sqrt(params.sigma2 * scale)
    with warnings.catch_warnings():
        # singularity is detected below and raised as a typed error
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        u = spla.spsolve(a_matrix_scipy(W, params.rho), e)
    if not np.all(np.isfinite(u)):
        raise SingularityError(f"A = I - rho W is singular at rho = {params.rho}")
    y_star = X @ params.beta + u
    y = yj_inverse(y_star, params.gamma) if kind.yeo_johnson else y_star
    return np.asarray(y, dtype=float), tau


def ml_init_full_grid(data):
    """The profile-likelihood initialization as a full scan of the rho grid:
    one log-det at each of the 199 points, the first best score kept."""
    from semvb.errors import DomainError, NumericalError, SingularityError
    from semvb.spatial import logdet_A
    obs = ~data.missing
    if obs.all():
        W, y, X = data.W, data.y, data.X
    else:
        keep = np.flatnonzero(obs)
        W = data.W.restrict(keep)
        y, X = data.y[keep], data.X[keep]
    n = y.size
    if n <= X.shape[1]:
        raise DomainError("too few observed responses to initialize")
    best = None
    Wy, WX = W.matvec(y), W.matvec(X)
    for rho in np.linspace(-0.99, 0.99, 199):
        try:
            ld = logdet_A(W, rho)
        except SingularityError:
            continue
        ay = y - rho * Wy
        ax = X - rho * WX
        beta, *_ = np.linalg.lstsq(ax, ay, rcond=None)
        resid = ay - ax @ beta
        sigma2 = max(float(resid @ resid) / n, 1e-12)
        score = ld - 0.5 * n * np.log(sigma2)
        if best is None or score > best[0]:
            best = (score, beta, sigma2, rho)
    if best is None:
        raise NumericalError("profile likelihood failed on the whole rho grid")
    return best[1], best[2], best[3]


def draw_conditional(kind, params, cond, mean_u, rng):
    """One proposal from the conditional cond of a block whose sites have
    mean mean_u: standard normals of the block's size through
    `ConditionalGaussian.sample`, then the inverse transform for YJ kinds.
    """
    from semvb.transforms import yj_inverse
    z = rng.standard_normal(mean_u.size)
    ystar_u = mean_u + cond.sample(params.sigma2, z)
    if not kind.yeo_johnson:
        return ystar_u
    with np.errstate(over="ignore"):
        return yj_inverse(ystar_u, params.gamma)


def propose_yu(kind, data, params, tau, block, y, rng):
    """One independence-proposal draw for the sites in block.

    block may be the whole unobserved set or one block of it; y holds the
    current responses at all n sites, and everything outside block is
    conditioned on (the block's own entries are not read). Identity kinds
    draw from N(X_u beta + offset, sigma2 M_uu^-1); YJ kinds draw on the
    transformed scale and map back through the inverse transform.
    """
    from semvb.errors import DimensionError
    from semvb.spatial import conditional_gaussian
    from semvb.transforms import yj_forward
    y = np.asarray(y, dtype=float)
    if y.shape != (data.n,):
        raise DimensionError("y must have one entry per site")
    known = np.setdiff1d(np.arange(data.n), block)
    y_known = y[known]
    if kind.yeo_johnson:
        y_known = yj_forward(y_known, params.gamma)
    r = np.zeros(data.n)
    r[known] = y_known - data.X[known] @ params.beta
    cond = conditional_gaussian(kind, data.W, params.rho, tau, block, r)
    mean_u = data.X[block] @ params.beta
    return draw_conditional(kind, params, cond, mean_u, rng)


def step_by_step_sweep(kind, data, theta, blocks, y_u_init, n1, rng):
    """The blocked MH sweep one step at a time, as the package ran it
    before its proposals were drawn and scored in batches: n1 sweeps, each
    drawing, scoring and deciding one block's proposal at a time, with a
    block's mean offset refreshed by `given` after another block moved.
    Returns the final imputation and the per-block accept counts."""
    from semvb.errors import DimensionError
    from semvb.likelihoods import layout_missing, log_p_m
    from semvb.models import link_inverse
    from semvb.spatial import conditional_gaussian
    from semvb.transforms import yj_forward

    def _ystar(kind, y, params):
        return yj_forward(y, params.gamma) if kind.yeo_johnson else y

    def _accept_prob(delta):
        return min(1.0, float(np.exp(min(delta, 0.0))))

    params, tau, psi = link_inverse(kind, layout_missing(kind, data), theta)
    obs, u_idx = ~data.missing, data.unobserved_idx
    mean = data.X @ params.beta
    y = data.y.copy()
    r = np.zeros(data.n)   # residual on the model's scale
    r[obs] = _ystar(kind, y[obs], params) - mean[obs]
    if y_u_init is None:
        start = conditional_gaussian(kind, data.W, params.rho, tau, u_idx, r)
        y[u_idx] = draw_conditional(kind, params, start, mean[u_idx], rng)
    else:
        y_u_init = np.asarray(y_u_init, dtype=float)
        if y_u_init.shape != (u_idx.size,):
            raise DimensionError("y_u_init must match the unobserved count")
        y[u_idx] = y_u_init
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
            y_prop = draw_conditional(kind, params, conds[j], means[j], rng)
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


def mh_accept_ratio(m, y_proposed_complete, y_current_complete, Xstar, psi):
    """min(1, p(m | y_proposed, psi) / p(m | y_current, psi)), in log space.

    The conditional-Gaussian proposal equals the response model's own
    conditional, so it cancels and only the missingness pmf remains. The pmf
    factorizes over sites, so the arguments may be restricted to the sites
    where the two vectors differ.
    """
    from semvb.hvb import _accept_prob
    from semvb.likelihoods import log_p_m
    return _accept_prob(log_p_m(m, y_proposed_complete, Xstar, psi)
                        - log_p_m(m, y_current_complete, Xstar, psi))


def gamma_unlink_branches(gamma_z: float) -> float:
    """2 / (1 + e^-z) for z >= 0 and 2 e^z / (1 + e^z) below, clamped to
    [1e-12, 2 - 1e-12]."""
    if gamma_z >= 0:
        g = 2.0 / (1.0 + np.exp(-gamma_z))
    else:
        e = np.exp(gamma_z)
        g = 2.0 * e / (1.0 + e)
    return float(min(max(g, 1e-12), 2.0 - 1e-12))


def dlink_cosh(z: float) -> float:
    """The body drho_dlink and dgamma_dlink shared: 0.5 sech^2(z/2), 0 past
    |z| = 700."""
    if abs(z) > 700.0:
        return 0.0
    c = np.cosh(0.5 * z)
    return float(0.5 / (c * c))


def expit_masked(eta: np.ndarray) -> np.ndarray:
    """The logistic function, each side of 0 evaluated on its own mask."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _per_draw_two_pass(values_fn, n_draws: int) -> np.ndarray:
    from semvb.errors import NumericalError
    out = np.empty(n_draws)
    for i in range(n_draws):
        v = float(values_fn(i))
        if not np.isfinite(v):
            raise NumericalError("non-finite log-likelihood in DIC pass",
                                 iteration=i)
        out[i] = v
    return out


def dic1_two_pass(samples, loglik_fn) -> float:
    """-4 E[log p(y|phi)] + 2 log p(y|phi_bar), phi_bar the posterior mean."""
    from semvb.errors import DimensionError
    if samples.n_draws < 1:
        raise DimensionError("DIC needs at least one posterior draw")
    lls = _per_draw_two_pass(lambda i: loglik_fn(samples.phi[i]),
                             samples.n_draws)
    phi_bar = samples.phi.mean(axis=0)
    return float(-4.0 * lls.mean() + 2.0 * loglik_fn(phi_bar))


def _plug_in_dic_two_pass(n_draws: int, loglik_at, prior_at=None) -> float:
    """-4 mean(lls) + 2 lls[best], where lls[i] = loglik_at(i) and draw best
    maximizes lls + prior_at (a flat prior when prior_at is None)."""
    from semvb.errors import DimensionError
    if n_draws < 1:
        raise DimensionError("DIC needs at least one posterior draw")
    lls = _per_draw_two_pass(loglik_at, n_draws)
    scores = (lls if prior_at is None
              else lls + np.array([prior_at(i) for i in range(n_draws)]))
    best = int(np.argmax(scores))
    return float(-4.0 * lls.mean() + 2.0 * lls[best])


def dic2_two_pass(samples, loglik_fn, prior_fn) -> float:
    """As dic1, but plugging in the drawn sample maximizing loglik + logprior."""
    return _plug_in_dic_two_pass(samples.n_draws,
                                 lambda i: loglik_fn(samples.phi[i]),
                                 lambda i: prior_fn(samples.phi[i]))


def dic5_two_pass(samples, joint_loglik_fn, prior_fn=None) -> float:
    """Missing-data DIC over the joint likelihood p(y, m | phi, psi): DIC2
    on the completed data."""
    from semvb.errors import DomainError
    if samples.psi is None or samples.y_u is None:
        raise DomainError("dic5 needs psi and y_u sample blocks")
    return _plug_in_dic_two_pass(
        samples.n_draws,
        lambda i: joint_loglik_fn(samples.phi[i], samples.psi[i],
                                  samples.y_u[i]),
        None if prior_fn is None
        else lambda i: prior_fn(samples.phi[i], samples.psi[i]))


def params_from_row_by_name(kind, names, row):
    """`model_select.params_from_row` as it was, reading each parameter of
    one constrained sample row by its name in `names`."""
    from semvb.models import ModelParams
    pos = {name: i for i, name in enumerate(names)}
    n_beta = sum(1 for n in names if n.startswith("beta"))
    beta = np.array([row[pos[f"beta{j}"]] for j in range(n_beta)])
    return ModelParams(
        beta=beta, sigma2=float(row[pos["sigma2"]]), rho=float(row[pos["rho"]]),
        nu=float(row[pos["nu"]]) if kind.student_t else None,
        gamma=float(row[pos["gamma"]]) if kind.yeo_johnson else None)


def phi_loglik_fn(kind, data):
    """Per-draw log-likelihood for DIC1/DIC2: the scale-mixture-marginalized
    multivariate-t form for Student-t kinds, the Gaussian form otherwise."""
    from semvb.likelihoods import loglik, marginal_loglik_t
    from semvb.model_select import phi_names_for
    names = phi_names_for(kind, data.n_beta)

    def fn(row: np.ndarray) -> float:
        params = params_from_row_by_name(kind, names, row)
        if kind.student_t:
            return marginal_loglik_t(kind, data, params)
        return loglik(kind, data, params)

    return fn


def phi_logprior_fn(kind, n_beta: int, priors):
    """Log prior density of the constrained phi (links changed-of-variable)."""
    from semvb import transforms as tr
    from semvb.model_select import phi_names_for
    names = phi_names_for(kind, n_beta)

    def fn(row: np.ndarray) -> float:
        params = params_from_row_by_name(kind, names, row)
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


def joint_logprior_fn(kind, n_beta: int, priors):
    """Log prior density of (phi, psi) for DIC5's plug-in draw: the phi
    prior plus the normal prior on the missingness coefficients."""
    phi_prior = phi_logprior_fn(kind, n_beta, priors)

    def fn(phi_row: np.ndarray, psi_row: np.ndarray) -> float:
        return phi_prior(phi_row) \
            - 0.5 * float(np.sum(psi_row ** 2)) / priors.var_psi

    return fn


def joint_loglik_fn(kind, data):
    """Per-draw joint log-likelihood for DIC5: completed-data likelihood of
    the model plus the logistic missingness pmf."""
    from semvb.likelihoods import log_p_m
    from semvb.models import MissingnessParams

    def fn(phi_row: np.ndarray, psi_row: np.ndarray,
           y_u_row: np.ndarray) -> float:
        psi = MissingnessParams(psi_x=np.asarray(psi_row[:-1], dtype=float),
                                psi_y=float(psi_row[-1]))
        y_complete = data.complete(y_u_row)
        return (phi_loglik_fn(kind, data.with_y(y_complete))(phi_row)
                + log_p_m(data.missing, y_complete, data.Xstar, psi))

    return fn


def dense_A(W_dense: np.ndarray, rho: float) -> np.ndarray:
    n = W_dense.shape[0]
    return np.eye(n) - rho * W_dense


def dense_M(W_dense: np.ndarray, rho: float, tau: np.ndarray | None) -> np.ndarray:
    A = dense_A(W_dense, rho)
    if tau is None:
        return A.T @ A
    return A.T @ np.diag(1.0 / np.asarray(tau, dtype=float)) @ A


def mvn_logpdf(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Gaussian log density from an explicit dense covariance."""
    n = y.size
    diff = y - mean
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = diff @ np.linalg.solve(cov, diff)
    return float(-0.5 * (n * np.log(2.0 * np.pi) + logdet + quad))


def sem_cov(W_dense: np.ndarray, rho: float, sigma2: float,
            tau: np.ndarray | None) -> np.ndarray:
    """Covariance sigma^2 A^-1 Sigma_tau A^-T of the SAR error vector."""
    A = dense_A(W_dense, rho)
    Ainv = np.linalg.inv(A)
    mid = np.diag(np.asarray(tau, dtype=float)) if tau is not None else np.eye(A.shape[0])
    return sigma2 * Ainv @ mid @ Ainv.T


def schur_conditional(mean: np.ndarray, cov: np.ndarray, known_idx: np.ndarray,
                      unknown_idx: np.ndarray, y_known: np.ndarray):
    """Conditional mean and covariance of a Gaussian via the Schur complement."""
    kk = cov[np.ix_(known_idx, known_idx)]
    uk = cov[np.ix_(unknown_idx, known_idx)]
    uu = cov[np.ix_(unknown_idx, unknown_idx)]
    solve = np.linalg.solve(kk, y_known - mean[known_idx])
    cond_mean = mean[unknown_idx] + uk @ solve
    cond_cov = uu - uk @ np.linalg.solve(kk, uk.T)
    return cond_mean, cond_cov


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def fd_derivative(f, x: float, h: float = 1e-6) -> float:
    step = h * max(1.0, abs(x))
    return (f(x + step) - f(x - step)) / (2.0 * step)


def inverse_gamma_logpdf(x: float, shape: float, rate: float) -> float:
    """log density of IG(shape, rate) at x, from the textbook formula."""
    from scipy.special import gammaln
    return float(shape * np.log(rate) - gammaln(shape)
                 - (shape + 1.0) * np.log(x) - rate / x)


def mvt_logpdf(y: np.ndarray, mean: np.ndarray, scale: np.ndarray, df: float) -> float:
    """Multivariate Student-t log density with scale matrix `scale`."""
    from scipy.special import gammaln
    n = y.size
    diff = y - mean
    sign, logdet = np.linalg.slogdet(scale)
    assert sign > 0
    quad = diff @ np.linalg.solve(scale, diff)
    return float(gammaln((df + n) / 2.0) - gammaln(df / 2.0)
                 - 0.5 * n * np.log(df * np.pi) - 0.5 * logdet
                 - 0.5 * (df + n) * np.log1p(quad / df))


def discrete_mh_transition(weights_target: np.ndarray,
                           weights_proposal: np.ndarray) -> np.ndarray:
    """Transition matrix of an independence MH sampler on a finite state space.

    weights_target are unnormalized pi, weights_proposal unnormalized q.
    Acceptance from state i to proposed j uses the ratio
    (pi_j q_i) / (pi_i q_j).
    """
    pi = np.asarray(weights_target, dtype=float)
    q = np.asarray(weights_proposal, dtype=float)
    q = q / q.sum()
    k = pi.size
    T = np.zeros((k, k))
    for i in range(k):
        stay = 0.0
        for j in range(k):
            if j == i:
                continue
            a = min(1.0, (pi[j] * q[i]) / (pi[i] * q[j]))
            T[i, j] = q[j] * a
            stay += q[j] * (1.0 - a)
        T[i, i] = q[i] + stay
    return T


def write_table_whole(path, columns, data, head: str = "") -> None:
    """Write one sequence of values per (name, type) column, after head."""
    import csv

    from semvb.io import _column_cells
    cells = [_column_cells(t, values) for (_, t), values in zip(columns, data)]
    with open(path, "w", newline="") as f:
        f.write(head)
        w = csv.writer(f, lineterminator="\n")
        w.writerow([name for name, _ in columns])
        w.writerows(zip(*cells))


def parse_column_whole(path, name: str, column_type, cells, line: int | None
                       ) -> list:
    """The values of one column's cells, the first of which is on `line`.

    A refused cell raises DataFormatError naming path, the row and the
    column; with line None (a cell outside the table) it names `name` only.
    """
    from semvb.errors import DataFormatError
    from semvb.io import _cell_type
    base, optional = _cell_type(column_type)
    if base is str:
        return list(cells)
    try:
        if optional:
            return [None if c == "" else base(c) for c in cells]
        return list(map(base, cells))
    except ValueError:
        for k, c in enumerate(cells):
            try:
                if c or not optional:
                    base(c)
            except ValueError:
                where = (f"row {line + k}, column {name}: bad"
                         if line is not None else f"bad {name}")
                raise DataFormatError(f"{path}: {where} value {c!r}") from None
        raise


def read_rows_whole(path) -> list[list[str]]:
    import csv

    from semvb.errors import DataFormatError
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    return rows


def parse_whole(path, columns, rows, line: int = 1) -> list[list]:
    """One list of values per column of a table whose header is on `line`.

    rows[0] must be the columns' header and every later row must have one
    cell per column.
    """
    from semvb.errors import DataFormatError
    names = [name for name, _ in columns]
    if not rows or rows[0] != names:
        got = ",".join(rows[0]) if rows else ""
        raise DataFormatError(f"{path}: expected header {','.join(names)!r}, "
                              f"got {got!r}")
    body = rows[1:]
    for k, row in enumerate(body):
        if len(row) != len(names):
            raise DataFormatError(f"{path}: row {line + 1 + k} has "
                                  f"{len(row)} cells, expected {len(names)}")
    cells = list(zip(*body)) if body else [()] * len(names)
    return [parse_column_whole(path, name, t, col, line + 1)
            for (name, t), col in zip(columns, cells)]


def with_step_fancy(lam, step):
    """lam + step on (mu, vech(B), d): a copy of B with its lower triangle
    stepped through the fancy index of `np.tril_indices`."""
    from semvb.errors import DimensionError
    from semvb.variational import VariationalParams, _require_finite
    s = lam.s
    i, j = np.tril_indices(s, 0, lam.p)
    nv = i.size
    if step.shape != (2 * s + nv,):
        raise DimensionError("step length does not match lambda")
    mu, B, d = lam.mu + step[:s], lam.B.copy(), lam.d + step[s + nv:]
    B[i, j] += step[s:s + nv]
    _require_finite(mu, B, d)
    out = object.__new__(VariationalParams)
    for name, value in (("mu", mu), ("B", B), ("d", d)):
        object.__setattr__(out, name, value)
    return out


def reparam_grads_outer(lam, eta, eps, g):
    """(d_mu, d_vechB, d_d): d_vechB gathered from the outer product g eta^T."""
    from semvb.errors import DimensionError
    if g.shape != (lam.s,) or eps.shape != (lam.s,) or eta.shape != (lam.p,):
        raise DimensionError("gradient or noise dimensions disagree")
    i, j = np.tril_indices(lam.s, 0, lam.p)
    d_vech = (np.outer(g, eta))[i, j]
    return g.copy(), d_vech, g * eps


def adadelta_step_allocating(state, grad):
    """One ADADELTA update returning (step, a new AdadeltaState)."""
    from semvb.errors import DimensionError
    from semvb.variational import (_ADADELTA_ALPHA, _ADADELTA_UPSILON,
                                   AdadeltaState)
    if grad.shape != state.e_grad2.shape:
        raise DimensionError("gradient length does not match the state")
    up, al = _ADADELTA_UPSILON, _ADADELTA_ALPHA
    e_g2 = up * state.e_grad2 + (1.0 - up) * grad * grad
    a = np.sqrt((state.e_dx2 + al) / (e_g2 + al))
    step = a * grad
    e_dx2 = up * state.e_dx2 + (1.0 - up) * step * step
    return step, AdadeltaState(e_grad2=e_g2, e_dx2=e_dx2)


def sga_loop(lam, layout, config, rng, target, t_start, acceptance=None):
    """`variational._sga` on the three pieces above, which it stepped
    lambda with before they worked on slices."""
    import time

    from semvb.errors import DomainError, NumericalError, SingularityError
    from semvb.gradients import _log_q0_and_grad
    from semvb.variational import AdadeltaState, FitResult, sample_q
    state = AdadeltaState.zeros(
        2 * lam.s + np.tril_indices(lam.s, 0, lam.p)[0].size)
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
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            raise NumericalError(
                f"non-finite gradient in coordinate {layout.names()[bad[0]]}",
                iteration=t, coordinate=int(bad[0]))
        d_mu, d_vech, d_d = reparam_grads_outer(lam, eta, eps, g)
        step, state = adadelta_step_allocating(
            state, np.concatenate([d_mu, d_vech, d_d]))
        lam = with_step_fancy(lam, step)
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


class ResponseFromScratch:
    """`likelihoods._Response` with its Yeo-Johnson terms computed from the
    whole completed y at every call by `yj_forward`, `yj_dgamma` and
    `yj_dlogdy_dgamma`, and its NaN check on the whole y."""

    def __init__(self, data, y_u=None):
        from semvb.errors import DomainError
        self.y = data.y if y_u is None else data.complete(y_u)
        if np.any(np.isnan(self.y)):
            raise DomainError("y_complete has missing entries")

    def transform(self, gamma, dgamma=False):
        from semvb.transforms import yj_dgamma, yj_forward
        return (yj_forward(self.y, gamma),
                yj_dgamma(self.y, gamma) if dgamma else None)

    @property
    def dlogjac(self):
        from semvb.transforms import yj_dlogdy_dgamma
        return float(np.sum(yj_dlogdy_dgamma(self.y)))


def write_summary_joined(path, samples, unobserved_idx=None) -> None:
    """`io.write_summary` as it was when it summarized the draws joined into
    one table phi | psi | y_u (the removed `io.samples_table`)."""
    from semvb import io
    from semvb.errors import DataFormatError

    header, blocks = io._samples_blocks(samples, unobserved_idx)
    names, draws = header, np.hstack(blocks)
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[1] != len(names):
        raise DataFormatError("summary names do not match draw columns")
    if draws.shape[0] == 0:
        raise DataFormatError("a summary needs at least one draw")
    lo, hi = io._quantiles(draws, np.array([0.025, 0.975]))
    io._write_table(path, io._SUMMARY, [names, draws.mean(axis=0), lo, hi])


def draw_posterior_missing_loop(kind, data, lam, n_draws, rng, config=None):
    """`hvb.draw_posterior_missing` as it was with its own draw loop, beside
    `variational.draw_posterior`'s."""
    from semvb.errors import DimensionError
    from semvb.hvb import HvbConfig, _impute
    from semvb.likelihoods import layout_missing
    from semvb.model_select import PosteriorSamples, phi_names_for, phi_row
    from semvb.models import link_inverse
    from semvb.variational import sample_q

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
