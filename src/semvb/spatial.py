"""Spatial weight matrices and the operator A = I - rho W.

Everything the model family needs from the spatial side lives here: rook
lattice construction, matrix-vector products with A and A^T, log-determinants
and quadratic forms in M (A^T A for Gaussian error kinds, A^T Sigma_tau^-1 A
for Student-t kinds), and the conditional-Gaussian partitioning used both by
oracle tests and by the missing-data samplers. The samplers take one
conditional per block (`block_conditionals`), factored once, and re-condition
it on the other blocks' new values with `ConditionalGaussian.given`.

A block's precision M_uu = A_u^T diag(s) A_u is a banded GMRF precision
(Rue & Held 2005, ch. 2). Its lower band, in the block's own ascending site
order, is linear in the site weights s (1, or 1/tau for Student-t kinds), so
a sparse map from s to the band is built once per weight matrix and block and
cached on `SpatialWeights`. Each conditional then costs one sparse product
and one LAPACK banded Cholesky (`pbtrf`), O(k b^2) for k sites and site-order
bandwidth b; b is k - 1 when the block's sites follow no spatial order. The
mean offset needs only products with W and W^T, so A is never formed there.

log|det A| and tr(A^-1 W) are computed exactly. The route depends on n and
on whether W is diagonally similar to a symmetric matrix, that is whether
some positive h satisfies h_i W_ij = h_j W_ji
(`SpatialWeights.symmetrizer`). Symmetric W and row-standardized
W = D^-1 C with symmetric C both are. For such W, S = H^1/2 W H^-1/2 is
symmetric with det(I - rho W) = det(I - rho S) and
tr(A^-1 W) = tr((I - rho S)^-1 S).

- n <= _EIGEN_MAX_N: the eigenvalues of W, once per weight matrix, make
  both quantities O(n) per rho. They are real (`eigvalsh` of S) for
  symmetrizable W and the general complex `eigvals` otherwise.
- n > _EIGEN_MAX_N, log-det: a reverse Cuthill-McKee ordering and the band
  of S are cached once, and each rho runs one banded Cholesky of
  I - rho S, O(n b^2) for bandwidth b; the log-det is read off its
  diagonal.
- n > _EIGEN_MAX_N, everything else: one sparse LU of I - (rho + ih) W in
  complex arithmetic (`_lu_route`) gives the log-det, the sign of the
  determinant and, by the complex step, the trace. It serves the trace for
  every W, and the log-det where W has no symmetrizer or I - rho S is not
  safely positive definite, which keeps the SingularityError semantics
  there.

The cap stays at 2048 although the banded route is exact at any n: at
n = 2116 one eigvalsh takes about 1 s at one thread, the cost of several
hundred banded log-dets of about 2 ms, so a process that evaluates only a
few dozen log-dets (a DIC run) is faster on the banded route.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import DimensionError, DomainError, SingularityError
from .models import ModelKind

__all__ = [
    "SpatialWeights", "Partition", "ConditionalGaussian",
    "build_rook_lattice", "apply_A", "apply_At",
    "logdet_A", "trace_AinvW", "logdet_M", "quad_form_M",
    "conditional_gaussian", "block_conditionals",
]

# Largest n for which the eigenvalues of W are precomputed densely.
_EIGEN_MAX_N = 2048
# |1 - rho*lambda| below this is treated as a singular A.
_SINGULAR_TOL = 1e-10
# Imaginary step h of the complex-step LU: far below the rounding of rho, so
# the real part of the factor is that of I - rho W, yet far above underflow.
_COMPLEX_STEP = 1e-30
# Relative tolerance of h_i W_ij = h_j W_ji in the symmetrizer check.
_SYM_TOL = 1e-12
# LAPACK banded Cholesky, its solve, and the banded triangular solve.
_pbtrf, _pbtrs, _tbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs", "tbtrs"),
                                               (np.empty(0),))


@dataclass(frozen=True)
class SpatialWeights:
    """Sparse n x n spatial weight matrix with zero diagonal.

    Entries are stored in coordinate form; `row_standardized` asserts that
    every nonempty row sums to one.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    row_standardized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.int64))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=np.int64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.n < 1:
            raise DimensionError("n must be at least 1")
        if not (self.rows.shape == self.cols.shape == self.weights.shape):
            raise DimensionError("rows, cols, weights must have equal length")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.n:
                raise DimensionError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.n:
                raise DimensionError("col index out of range")
        if np.any(self.rows == self.cols):
            raise DomainError("diagonal entries are not allowed in W")
        if np.any(self.weights < 0):
            raise DomainError("weights must be nonnegative")
        if self.row_standardized:
            sums = np.bincount(self.rows, weights=self.weights, minlength=self.n)
            nonempty = np.bincount(self.rows, minlength=self.n) > 0
            if np.any(np.abs(sums[nonempty] - 1.0) > 1e-12):
                raise DomainError("row_standardized is set but some row sum deviates from 1")

    @cached_property
    def csr(self) -> sp.csr_matrix:
        return sp.coo_matrix(
            (self.weights, (self.rows, self.cols)), shape=(self.n, self.n)
        ).tocsr()

    @cached_property
    def csr_t(self) -> sp.csr_matrix:
        return self.csr.T.tocsr()

    @cached_property
    def symmetrizer(self) -> np.ndarray | None:
        """Positive h with h_i W_ij = h_j W_ji for all i, j; None if none exists.

        With H = diag(h), H^1/2 W H^-1/2 is then symmetric. Symmetric W has
        h = 1 and row-standardized D^-1 C with symmetric C has h = D, up to a
        scale per connected component. The edge ratios W_ij / W_ji are
        propagated along a breadth-first spanning forest of the graph of W,
        then every stored entry is checked to a relative _SYM_TOL.
        """
        n = self.n
        coo = self.csr.tocoo()
        pos = coo.data > 0
        i, j, w = coo.row[pos], coo.col[pos], coo.data[pos]
        if not i.size:
            return np.ones(n)
        w_rev = np.asarray(self.csr[j, i]).ravel()
        if np.any(w_rev <= 0):
            return None
        log_ratio = np.log(w / w_rev)  # log h_j - log h_i
        graph = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
        _, labels = csgraph.connected_components(graph, directed=False)
        _, roots = np.unique(labels, return_index=True)
        # one search from a virtual node n joined to a root of each component
        forest = sp.csr_matrix(
            (np.ones(i.size + roots.size),
             (np.concatenate([i, np.full(roots.size, n)]),
              np.concatenate([j, roots]))), shape=(n + 1, n + 1))
        order, pred = csgraph.breadth_first_order(
            forest, n, directed=False, return_predecessors=True)
        order = order[1:]
        parent = pred[order]
        step = np.zeros(order.size)
        tree = parent < n
        ratios = sp.csr_matrix((log_ratio, (i, j)), shape=(n, n))
        step[tree] = np.asarray(ratios[parent[tree], order[tree]]).ravel()
        log_h = [0.0] * (n + 1)
        for v, u, dv in zip(order.tolist(), parent.tolist(), step.tolist()):
            log_h[v] = log_h[u] + dv
        log_h = np.array(log_h[:n])
        if np.any(np.abs(log_h[j] - log_h[i] - log_ratio) > _SYM_TOL):
            return None
        return np.exp(log_h)

    def _symmetric_form(self) -> sp.csr_matrix:
        """S = H^1/2 W H^-1/2, formed as sqrt(W_ij W_ji) so that it is exactly
        symmetric; valid only when `symmetrizer` is not None."""
        s = self.csr.multiply(self.csr_t).sqrt().tocsr()
        s.eliminate_zeros()
        return s

    @cached_property
    def eigenvalues(self) -> np.ndarray | None:
        """Eigenvalues of W, or None when n exceeds the dense-eigen cap.

        Real (from `eigvalsh` of S) when W has a symmetrizer, otherwise the
        general, possibly complex, eigenvalues of W.
        """
        if self.n > _EIGEN_MAX_N:
            return None
        if self.symmetrizer is not None:
            return np.linalg.eigvalsh(self._symmetric_form().toarray())
        return np.linalg.eigvals(self.csr.toarray())

    @cached_property
    def sym_band(self) -> np.ndarray | None:
        """Lower band of S in reverse Cuthill-McKee order; None without a
        symmetrizer.

        Row k holds the k-th subdiagonal, band[k, j] = S[j + k, j] (the
        `scipy.linalg.cholesky_banded` layout). A symmetric permutation
        does not change det(I - rho S).
        """
        if self.symmetrizer is None:
            return None
        s = self._symmetric_form()
        perm = csgraph.reverse_cuthill_mckee(s, symmetric_mode=True)
        s = s[perm][:, perm].tocoo()
        low = s.row > s.col
        k = s.row[low] - s.col[low]
        band = np.zeros((int(k.max(initial=0)) + 1, self.n))
        band[k, s.col[low]] = s.data[low]
        return band

    @cached_property
    def _block_plans(self) -> dict[bytes, "_BlockPlan"]:
        """`_BlockPlan` memo keyed by the block's int64 bytes; one entry per
        distinct block conditioned on, for the life of the weights."""
        return {}

    def _block_plan(self, block: np.ndarray) -> "_BlockPlan":
        """The cached map from site weights to the band of this block's M_uu."""
        block = np.asarray(block, dtype=np.int64)
        key = block.tobytes()
        plan = self._block_plans.get(key)
        if plan is None:
            plan = self._block_plans[key] = _build_block_plan(self, block)
        return plan

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.csr @ v

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self.csr_t @ v


@dataclass(frozen=True)
class Partition:
    """Split of site indices into a known ('observed') and an unknown block.

    Both index lists are sorted ascending, disjoint, and jointly cover
    0..n-1. The same type also represents a block sub-partition where the
    'observed' side holds every site outside the block being updated.
    """

    observed_idx: np.ndarray
    unobserved_idx: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed_idx, dtype=np.int64)
        uno = np.asarray(self.unobserved_idx, dtype=np.int64)
        object.__setattr__(self, "observed_idx", obs)
        object.__setattr__(self, "unobserved_idx", uno)
        if np.any(np.diff(obs) <= 0) or np.any(np.diff(uno) <= 0):
            raise DomainError("partition index lists must be strictly ascending")
        n = obs.size + uno.size
        union = np.concatenate([obs, uno])
        if np.intersect1d(obs, uno).size:
            raise DomainError("partition blocks must be disjoint")
        if not np.array_equal(np.sort(union), np.arange(n)):
            raise DomainError("partition blocks must cover 0..n-1")

    @property
    def n(self) -> int:
        return self.observed_idx.size + self.unobserved_idx.size

    @classmethod
    def from_missing_mask(cls, missing: np.ndarray) -> "Partition":
        missing = np.asarray(missing, dtype=bool)
        idx = np.arange(missing.size)
        return cls(observed_idx=idx[~missing], unobserved_idx=idx[missing])


def build_rook_lattice(rows: int, cols: int, row_standardize: bool = True) -> SpatialWeights:
    """Rook-neighbourhood weights on a rows x cols lattice.

    Cell (i, j) neighbours its up/down/left/right cells; weights are 1, or
    1/degree when row-standardized. Site index is i*cols + j.
    """
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


def _check_rho(rho: float) -> None:
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1); got {rho!r}")


def apply_A(W: SpatialWeights, rho: float, v: np.ndarray) -> np.ndarray:
    """(I - rho W) v without forming A."""
    _check_rho(rho)
    v = np.asarray(v, dtype=float)
    if v.shape[0] != W.n:
        raise DimensionError(f"vector length {v.shape[0]} does not match n = {W.n}")
    return v - rho * (W.csr @ v)


def apply_At(W: SpatialWeights, rho: float, v: np.ndarray) -> np.ndarray:
    """(I - rho W)^T v without forming A."""
    _check_rho(rho)
    v = np.asarray(v, dtype=float)
    if v.shape[0] != W.n:
        raise DimensionError(f"vector length {v.shape[0]} does not match n = {W.n}")
    return v - rho * (W.csr_t @ v)


def a_matrix(W: SpatialWeights, rho: float) -> sp.csr_matrix:
    """A = I - rho W as a sparse matrix."""
    _check_rho(rho)
    return (sp.identity(W.n, format="csr") - rho * W.csr).tocsr()


def _perm_sign(perm: np.ndarray) -> int:
    """Sign of a permutation, (-1)^(n - c) for its c cycles.

    The cycles are the weakly connected components of the graph i -> perm[i].
    """
    perm = np.asarray(perm)
    n = perm.size
    graph = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    cycles, _ = csgraph.connected_components(graph, directed=True,
                                             connection="weak")
    return -1 if (n - cycles) % 2 else 1


def _lu_route(W: SpatialWeights, rho: float) -> tuple[float, int, float]:
    """log|det A|, the sign of det A and tr(A^-1 W) from one sparse LU.

    The LU runs in complex arithmetic on I - (rho + ih) W with
    h = _COMPLEX_STEP. By the complex-step derivative (Squire & Trapp 1998;
    Martins, Sturdza & Alonso 2003),
    log det A(rho + ih) = log det A(rho) - ih tr(A^-1 W) + O(h^2),
    so with u the diagonal of U, log|det A| = sum log|Re u_j| and
    tr(A^-1 W) = -sum Im u_j / (h Re u_j). No difference is taken, so both
    are exact to the LU's own rounding. Complex SuperLU does not flag an
    exactly singular A (its pivot keeps an imaginary part of order h),
    hence the check on Re u_j.
    """
    a = sp.identity(W.n, format="csr") - (rho + 1j * _COMPLEX_STEP) * W.csr
    try:
        lu = spla.splu(a.tocsc())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularityError(f"A = I - rho W is singular at rho = {rho}") from exc
    diag = lu.U.diagonal()
    re = diag.real
    if np.any(np.abs(re) < _SINGULAR_TOL):
        raise SingularityError(f"A = I - rho W is singular at rho = {rho}")
    sign = _perm_sign(lu.perm_r) * _perm_sign(lu.perm_c) * int(np.prod(np.sign(re)))
    trace = -float(np.sum(diag.imag / re)) / _COMPLEX_STEP
    return float(np.sum(np.log(np.abs(re)))), sign, trace


def _banded_cholesky(W: SpatialWeights, rho: float) -> np.ndarray | None:
    """Banded lower Cholesky factor of I - rho S (layout of `sym_band`).

    None when W has no symmetrizer, when I - rho S is not positive definite
    or when a pivot L_jj^2 falls below _SINGULAR_TOL; the caller then takes
    the sparse-LU route, which decides between a value and SingularityError.
    """
    band = W.sym_band
    if band is None:
        return None
    ab = -rho * band
    ab[0] += 1.0
    try:
        chol = sla.cholesky_banded(ab, lower=True, overwrite_ab=True,
                                   check_finite=False)
    except sla.LinAlgError:
        return None
    if np.any(chol[0] ** 2 < _SINGULAR_TOL):
        return None
    return chol


def logdet_A(W: SpatialWeights, rho: float) -> float:
    """log det(I - rho W); raises SingularityError on a nonpositive determinant."""
    _check_rho(rho)
    lam = W.eigenvalues
    if lam is None:
        chol = _banded_cholesky(W, rho)
        if chol is not None:
            return 2.0 * float(np.sum(np.log(chol[0])))
        logdet, sign, _ = _lu_route(W, rho)
        if sign <= 0:
            raise SingularityError(f"det(I - rho W) is not positive at rho = {rho}")
        return logdet
    factors = 1.0 - rho * lam
    if np.any(np.abs(factors) < _SINGULAR_TOL):
        raise SingularityError(f"A = I - rho W is singular at rho = {rho}")
    real = factors
    if np.iscomplexobj(factors):
        # complex pairs conjugate; the product is real
        real = factors.real[np.abs(factors.imag) < 1e-14]
    if np.prod(np.sign(real)) <= 0:
        raise SingularityError(f"det(I - rho W) is not positive at rho = {rho}")
    return float(np.sum(np.log(np.abs(factors))))


def trace_AinvW(W: SpatialWeights, rho: float) -> float:
    """tr(A^-1 W), the derivative -d log det(I - rho W)/d rho."""
    _check_rho(rho)
    lam = W.eigenvalues
    if lam is not None:
        factors = 1.0 - rho * lam
        if np.any(np.abs(factors) < _SINGULAR_TOL):
            raise SingularityError(f"A = I - rho W is singular at rho = {rho}")
        return float(np.real(np.sum(lam / factors)))
    return _lu_route(W, rho)[2]


def _inv_tau(kind: ModelKind, W: SpatialWeights, tau: np.ndarray | None) -> np.ndarray | None:
    if not kind.student_t:
        return None
    if tau is None:
        raise DomainError("tau is required for Student-t kinds")
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (W.n,):
        raise DimensionError("tau must have one entry per site")
    if np.any(tau <= 0):
        raise DomainError("tau must be strictly positive")
    return 1.0 / tau


def logdet_M(kind: ModelKind, W: SpatialWeights, rho: float,
             tau: np.ndarray | None = None) -> float:
    """log|M|: 2 log det A for Gaussian kinds, minus sum(log tau) for t kinds."""
    inv_tau = _inv_tau(kind, W, tau)
    out = 2.0 * logdet_A(W, rho)
    if inv_tau is not None:
        out += float(np.sum(np.log(inv_tau)))
    return out


def quad_form_M(kind: ModelKind, W: SpatialWeights, rho: float,
                tau: np.ndarray | None, r: np.ndarray) -> float:
    """r^T M r computed from matrix-vector products, never forming M."""
    inv_tau = _inv_tau(kind, W, tau)
    ar = apply_A(W, rho, r)
    if inv_tau is None:
        return float(ar @ ar)
    return float(ar @ (inv_tau * ar))


@dataclass(frozen=True)
class _BlockPlan:
    """Sparse map from the site weights to the lower band of a block's M_uu.

    For A_u = E_u - rho W_u (the block's columns of A) and S = diag(s),
    M_uu = E_u^T S E_u - rho (E_u^T S W_u + W_u^T S E_u) + rho^2 W_u^T S W_u
    is linear in s at fixed rho. `G` stacks the three maps side by side, so
    G @ [s, -rho s, rho^2 s] is the band, stored so that its reshape to
    (k, width + 1) and transpose is the Fortran-ordered LAPACK lower band
    (row d holds the d-th subdiagonal) in the block's site order.
    """

    width: int
    G: sp.csr_matrix


def _build_block_plan(W: SpatialWeights, block: np.ndarray) -> _BlockPlan:
    n, k = W.n, block.size
    slot = np.full(n, -1, dtype=np.int64)
    slot[block] = np.arange(k)
    # E_u^T S E_u: s at the diagonal. Entry e of the map puts
    # vals[e] * (its column's weight) at M_uu[lo_a[e], lo_c[e]], lo_a >= lo_c
    lo_a, lo_c = [np.arange(k)], [np.arange(k)]
    cols, vals = [block], [np.ones(k)]
    # E_u^T S W_u + W_u^T S E_u: a stored W_ij with i, j in the block adds
    # s_i W_ij at (slot i, slot j) and at its mirror
    coo = W.csr.tocoo()
    inner = (slot[coo.row] >= 0) & (slot[coo.col] >= 0)
    a, c = slot[coo.row[inner]], slot[coo.col[inner]]
    lo_a.append(np.maximum(a, c))
    lo_c.append(np.minimum(a, c))
    cols.append(n + coo.row[inner])
    vals.append(coo.data[inner])
    # W_u^T S W_u: every pair of block columns stored in one row i of W
    # adds s_i W_ia W_ic. `left` repeats each stored entry once per entry
    # of its row, and `right` runs over those row partners.
    wu = W.csr[:, block].tocsr()
    counts = np.diff(wu.indptr)
    row_of = np.repeat(np.arange(n), counts)
    reps = counts[row_of]
    left = np.repeat(np.arange(wu.nnz), reps)
    right = (np.repeat(wu.indptr[row_of], reps) + np.arange(left.size)
             - np.repeat(np.cumsum(reps) - reps, reps))
    a, c = wu.indices[left], wu.indices[right]
    keep = a >= c
    lo_a.append(a[keep])
    lo_c.append(c[keep])
    cols.append(2 * n + row_of[left[keep]])
    vals.append(wu.data[left[keep]] * wu.data[right[keep]])
    lo_a, lo_c = np.concatenate(lo_a), np.concatenate(lo_c)
    width = int(np.max(lo_a - lo_c, initial=0))
    G = sp.csr_matrix((np.concatenate(vals),
                       (lo_c * (width + 1) + lo_a - lo_c, np.concatenate(cols))),
                      shape=(k * (width + 1), 3 * n))
    return _BlockPlan(width=width, G=G)


@dataclass(frozen=True)
class ConditionalGaussian:
    """Conditional distribution of the unknown block given the known block.

    For the joint N(mu, sigma^2 M^-1) the unknown block u given the known
    block o is N(mu_u + mean_offset, sigma^2 M_uu^-1), with mean_offset =
    -M_uu^-1 M_uo r_known. `chol_lower` is the lower Cholesky factor of M_uu
    in LAPACK band storage (row d holds the d-th subdiagonal, in the order
    of `unknown_idx`). The remaining fields (the unknown sites, W, rho and
    the diagonal s of Sigma_tau^-1) let `given` re-condition on a new known
    residual with the same factor.
    """

    mean_offset: np.ndarray
    chol_lower: np.ndarray
    unknown_idx: np.ndarray = field(repr=False)
    W: SpatialWeights = field(repr=False)
    rho: float = field(repr=False)
    s: np.ndarray = field(repr=False)

    def covariance(self, sigma2: float) -> np.ndarray:
        """Dense sigma^2 M_uu^-1 (intended for tests and small blocks)."""
        k = self.chol_lower.shape[1]
        inv, _ = _pbtrs(self.chol_lower, np.eye(k), lower=1)
        return sigma2 * inv

    def sample(self, sigma2: float, z: np.ndarray) -> np.ndarray:
        """mean_offset + sigma L^-T z, a draw with covariance sigma^2 M_uu^-1."""
        x, _ = _tbtrs(self.chol_lower, z, uplo="L", trans="T")
        return self.mean_offset + np.sqrt(sigma2) * x

    def given(self, r: np.ndarray) -> "ConditionalGaussian":
        """The same block conditioned on the residual r over all n sites.

        r's entries at the unknown sites are not read; the factor is reused.
        """
        u, rho = self.unknown_idx, self.rho
        r_known = np.array(r, dtype=float)
        r_known[u] = 0.0
        # M_uo r_known = A_u^T diag(s) A r_known = t_u - rho (W^T t)_u for
        # t = s * (A r_known)
        t = self.s * (r_known - rho * (self.W.csr @ r_known))
        m_uo_r = t[u] - rho * (self.W.csr_t @ t)[u]
        x, _ = _pbtrs(self.chol_lower, m_uo_r, lower=1)
        return replace(self, mean_offset=-x)


def block_conditionals(kind: ModelKind, W: SpatialWeights, rho: float,
                       tau: np.ndarray | None,
                       blocks: tuple[np.ndarray, ...], r: np.ndarray
                       ) -> list[ConditionalGaussian]:
    """The conditional of each block of sites given all the other sites.

    blocks are disjoint ascending index arrays and r the residual over all n
    sites; a block's own entries of r are not read for its conditional. Each
    block's M_uu is assembled from its cached `_BlockPlan` and factored
    once by a banded Cholesky in site order, O(k b^2) for k sites and
    bandwidth b (full, b = k - 1, for sites in no spatial order), so a
    sampler that moves one block re-conditions the others with
    `ConditionalGaussian.given`.
    """
    _check_rho(rho)
    r = np.asarray(r, dtype=float)
    if r.shape != (W.n,):
        raise DimensionError("r must have one entry per site")
    inv_tau = _inv_tau(kind, W, tau)
    s = inv_tau if inv_tau is not None else np.ones(W.n)
    weights = np.concatenate([s, -rho * s, (rho * rho) * s])
    out = []
    for block in blocks:
        plan = W._block_plan(block)
        band = (plan.G @ weights).reshape(block.size, plan.width + 1).T
        chol, info = _pbtrf(band, lower=1, overwrite_ab=1)
        # a NaN pivot passes pbtrf's test, so check the diagonal as well
        if info or not np.all(chol[0] > 0.0):
            raise SingularityError("M_uu is not positive definite")
        cond = ConditionalGaussian(mean_offset=np.empty(0), chol_lower=chol,
                                   unknown_idx=block, W=W, rho=rho, s=s)
        out.append(cond.given(r))
    return out


def conditional_gaussian(kind: ModelKind, W: SpatialWeights, rho: float,
                         tau: np.ndarray | None, partition: Partition,
                         r_known: np.ndarray) -> ConditionalGaussian:
    """Partition M = A^T Sigma_tau^-1 A and condition on the known block.

    r_known is the residual over partition.observed_idx (in that order).
    Returns the mean offset -M_uu^-1 M_uo r_known and the banded Cholesky
    factor of M_uu; the caller adds X_u beta and scales by sigma^2.
    """
    if partition.n != W.n:
        raise DimensionError("partition does not cover this weight matrix")
    r_known = np.asarray(r_known, dtype=float)
    if r_known.shape != (partition.observed_idx.size,):
        raise DimensionError("r_known must match the observed block size")
    r_full = np.zeros(W.n)
    r_full[partition.observed_idx] = r_known
    return block_conditionals(kind, W, rho, tau, (partition.unobserved_idx,),
                              r_full)[0]
