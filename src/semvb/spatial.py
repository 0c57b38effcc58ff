"""Spatial weight matrices and the operator A = I - rho W.

Everything the model family needs from the spatial side lives here: rook
lattice construction, matrix-vector products with A and A^T, log det A and
tr(A^-1 W), and the conditional Gaussian of a block of sites given all the
others (`conditional_gaussian`), used both by oracle tests and by the
missing-data samplers. The likelihood assembles log|M| and r^T M r, for
M = A^T A or A^T Sigma_tau^-1 A, from these (`likelihoods._loglik_terms`).
The samplers build one conditional per block, factored once, and
re-condition it on the other blocks' new values with
`ConditionalGaussian.given`.

A block's precision M_uu = A_u^T diag(s) A_u is a banded GMRF precision
(Rue & Held 2005, ch. 2). Its lower band, in the block's own ascending site
order, is linear in the site weights s (1, or 1/tau for Student-t kinds), so
the terms of a map from s to the band are built once per weight matrix and
block and cached on `SpatialWeights`. Each conditional then costs one
np.bincount over those terms and one LAPACK banded Cholesky (`pbtrf`),
O(k b^2) for k sites and site-order bandwidth b; b is k - 1 when the
block's sites follow no spatial order. The mean offset needs only products
with W and W^T, so A is never formed there.

log|det A| and tr(A^-1 W) are computed exactly. The route depends on
whether W is diagonally similar to a symmetric matrix, that is whether some
positive h satisfies h_i W_ij = h_j W_ji (`SpatialWeights.symmetrizer`),
and, for such W, on how many of them a caller plans (`plan_route`).
Symmetric W and row-standardized W = D^-1 C with symmetric C both are
symmetrizable. For such W, S = H^1/2 W H^-1/2 is symmetric with
det(I - rho W) = det(I - rho S) and tr(A^-1 W) = tr((I - rho S)^-1 S).

- Symmetrizable W whose spectrum a caller asked for ("band-eigen"): the
  eigenvalues of S, once per weight matrix, from LAPACK's banded `dsbevd`
  on the reverse Cuthill-McKee band of S (`sym_band`), at any n and with no
  n x n matrix; both quantities are then O(n) per rho.
- Symmetrizable W otherwise ("cholesky+lu"): the log-det from one banded
  Cholesky of I - rho S per rho, O(n b^2) for bandwidth b, read off its
  diagonal; the trace, and the log-det where I - rho S is not safely
  positive definite, from the complex-step LU below.
- W without a symmetrizer, n <= _EIGEN_MAX_N ("dense-eigen"): the general,
  possibly complex, eigenvalues of a dense W, once per weight matrix.
- W without a symmetrizer past the cap ("lu"): one sparse LU of
  I - (rho + ih) W in complex arithmetic (`_lu_route`) gives the log-det,
  the sign of the determinant and, by the complex step, the trace, and
  keeps the SingularityError semantics.

A caller that knows how many log-dets and traces it will take asks for the
spectrum through `plan_route`, which computes it when those evaluations
would cost more on the factorizations (`_spectrum_pays`); once computed, it
serves every later log-det and trace on that W. A fit plans its SGA
iterations and `semvb dic` its posterior draws, so a long fit takes the
spectrum and a probe, a short fit or a short DIC run the factorizations.
The cap bounds only the dense eigenvalues of W without a symmetrizer.

W is stored once, as its canonical triples: the `rows`, `cols` and
`weights` fields of `SpatialWeights`, in scipy's CSR order. Products with W
and W^T, the block plans, the symmetrizer, the dense eigen route, the RCM
ordering of `sym_band` and the CSC arrays of the sparse LU (`a_matrix`) run
on numpy. No stage imports the scipy package: scipy supplies only two compiled
extensions, which `_scipy_extension` loads by file on first use. The band
eigenvalues (`dsbevd`) and the banded Cholesky factors and solves (`_pbtrf`,
`_pbtrs`, `_tbtrs`) call the float64 routines of its LAPACK wrapper
(`_flapack`), and the complex-step LU (`_lu_route`) and `simulate`'s solve
call SuperLU's `gstrf` and `gssv` (`_superlu`) as scipy's splu and spsolve
do, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, SingularityError
from .models import ModelKind

__all__ = [
    "SpatialWeights", "ConditionalGaussian",
    "build_rook_lattice", "apply_At",
    "plan_route", "logdet_A", "trace_AinvW", "conditional_gaussian",
]

# Largest n for which the eigenvalues of W without a symmetrizer are
# computed densely.
_EIGEN_MAX_N = 2048
# The cost model of `_spectrum_pays`, in seconds: dsbevd per n^2 b, one
# banded Cholesky log-det per n b^2, one complex-step LU trace per n, and
# the fixed cost of either call.
_DSBEVD_S = 1.4e-9
_CHOLESKY_S = 1.6e-10
_LU_S = 3.5e-6
_CALL_S = 2e-5
# |1 - rho*lambda| below this is treated as a singular A.
_SINGULAR_TOL = 1e-10
# Imaginary step h of the complex-step LU: far below the rounding of rho, so
# the real part of the factor is that of I - rho W, yet far above underflow.
_COMPLEX_STEP = 1e-30
# Relative tolerance of h_i W_ij = h_j W_ji in the symmetrizer check.
_SYM_TOL = 1e-12


def _scipy_extension(package: str, name: str):
    """scipy's compiled extension module scipy.<package>.<name>.

    It is loaded from its file under the private name semvb.<name>, so none
    of scipy's package __init__ modules run: the extensions used here need
    only numpy, while importing scipy.linalg or scipy.sparse.linalg (scipy
    1.17) costs a process about 0.3 s on a 2-vCPU Xeon. Where the load by
    file fails, as on Windows wheels, whose scipy/__init__ puts the OpenBLAS
    DLL directory on the search path, the same module comes through the
    package import.
    """
    import importlib
    import importlib.machinery
    import importlib.util
    import os
    import sys
    private = "semvb." + name  # its last part names the PyInit_<name> symbol
    try:
        scipy = importlib.util.find_spec("scipy")  # runs no scipy code
        if scipy is None:
            raise ImportError("scipy is not installed")
        folder = os.path.join(scipy.submodule_search_locations[0],
                              *package.split("."))
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, name + suffix)
            if os.path.isfile(path):
                break
        else:
            raise ImportError(f"no {name} extension in {folder}")
        loader = importlib.machinery.ExtensionFileLoader(private, path)
        spec = importlib.util.spec_from_file_location(private, path,
                                                      loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except (ImportError, OSError):
        return importlib.import_module(f"scipy.{package}.{name}")
    sys.modules[private] = module
    return module


@cache
def _flapack():
    """scipy.linalg._flapack, scipy's compiled LAPACK wrapper."""
    return _scipy_extension("linalg", "_flapack")


@cache
def _superlu():
    """scipy.sparse.linalg._dsolve._superlu, scipy's compiled SuperLU wrapper
    behind splu and spsolve."""
    return _scipy_extension("sparse.linalg._dsolve", "_superlu")


def _lapack(name: str):
    """The float64 LAPACK routine `name`: scipy's get_lapack_funcs(name) for
    float64 arrays is this same d<name> of scipy.linalg._flapack."""
    return getattr(_flapack(), "d" + name)


# LAPACK banded Cholesky, its solve, and the banded triangular solve.
def _pbtrf(ab, **kwargs):
    return _lapack("pbtrf")(ab, **kwargs)


def _pbtrs(ab, b, **kwargs):
    return _lapack("pbtrs")(ab, b, **kwargs)


def _tbtrs(ab, b, **kwargs):
    return _lapack("tbtrs")(ab, b, **kwargs)


@dataclass(frozen=True)
class SpatialWeights:
    """Sparse n x n spatial weight matrix with zero diagonal.

    The input triples are checked, then stored once, in canonical form:
    sorted by (row, col), with duplicate triples summed once in their input
    order and stored zeros kept, as scipy's CSR form holds them. So the
    fields do not echo the input order, and any order of the same triples
    stores the same bytes wherever the sums cannot depend on it (at most
    two triples per coordinate, or exact sums). `row_standardized` asserts
    that every nonempty row sums to one.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    row_standardized: bool = False

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        if self.n < 1:
            raise DimensionError("n must be at least 1")
        if not (rows.ndim == 1 and rows.shape == cols.shape == w.shape):
            raise DimensionError("rows, cols, weights must be 1-D and of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n:
                raise DimensionError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise DimensionError("col index out of range")
        if np.any(rows == cols):
            raise DomainError("diagonal entries are not allowed in W")
        if not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        key = rows * self.n + cols
        order = np.argsort(key, kind="stable")
        key, w = key[order], w[order]
        first = np.concatenate([[True], key[1:] != key[:-1]])
        if not first.all():
            w = np.bincount(np.cumsum(first) - 1, weights=w)
            key = key[first]
        object.__setattr__(self, "rows", key // self.n)
        object.__setattr__(self, "cols", key % self.n)
        object.__setattr__(self, "weights", w)
        if self.row_standardized:
            sums = np.bincount(self.rows, weights=w, minlength=self.n)
            nonempty = np.bincount(self.rows, minlength=self.n) > 0
            if np.any(np.abs(sums[nonempty] - 1.0) > 1e-12):
                raise DomainError("row_standardized is set but some row sum deviates from 1")

    @cached_property
    def _reverse(self) -> np.ndarray:
        """W_ji for each stored entry (i, j); 0 where none is stored."""
        rows, cols, w = self.rows, self.cols, self.weights
        if not w.size:
            return w
        key = rows * self.n + cols
        rev = cols * self.n + rows
        at = np.minimum(np.searchsorted(key, rev), key.size - 1)
        return np.where(key[at] == rev, w[at], 0.0)

    @cached_property
    def symmetrizer(self) -> np.ndarray | None:
        """Positive h with h_i W_ij = h_j W_ji for all i, j; None if none exists.

        With H = diag(h), H^1/2 W H^-1/2 is then symmetric. Symmetric W has
        h = 1 and row-standardized D^-1 C with symmetric C has h = D, up to a
        scale per connected component. The edge ratios W_ij / W_ji are
        propagated along a breadth-first spanning forest of the graph of W,
        searched from the lowest site of each component over the sorted
        entries, then every stored entry is checked to a relative _SYM_TOL.
        """
        n = self.n
        pos = self.weights > 0
        i, j, w = self.rows[pos], self.cols[pos], self.weights[pos]
        if not i.size:
            return np.ones(n)
        w_rev = self._reverse[pos]
        if np.any(w_rev <= 0):
            return None
        log_ratio = np.log(w / w_rev)  # log h_j - log h_i
        # every edge now has its reverse, so the rows are the adjacency lists
        start = np.searchsorted(i, np.arange(n + 1)).tolist()
        nbr, step = j.tolist(), log_ratio.tolist()
        log_h = [None] * n
        for root in range(n):
            if log_h[root] is not None:
                continue
            log_h[root] = 0.0
            queue = [root]
            for u in queue:  # grows while read: breadth-first order
                for e in range(start[u], start[u + 1]):
                    v = nbr[e]
                    if log_h[v] is None:
                        log_h[v] = log_h[u] + step[e]
                        queue.append(v)
        log_h = np.array(log_h)
        if np.any(np.abs(log_h[j] - log_h[i] - log_ratio) > _SYM_TOL):
            return None
        return np.exp(log_h)

    @cached_property
    def eigenvalues(self) -> np.ndarray | None:
        """Eigenvalues of W; None for W without a symmetrizer past
        _EIGEN_MAX_N.

        With a symmetrizer they are the real eigenvalues of S, ascending,
        from LAPACK's `dsbevd` on `sym_band`, at any n: the band is reduced
        to tridiagonal form by orthogonal rotations, so no n x n matrix is
        formed. Otherwise they are the general, possibly complex, eigenvalues
        of a dense W.
        """
        if self.symmetrizer is not None:
            lam, _, info = _flapack().dsbevd(self.sym_band, compute_v=0,
                                             lower=1, overwrite_ab=0)
            if info:
                raise NumericalError(f"dsbevd failed with info = {info}")
            return lam
        if self.n > _EIGEN_MAX_N:
            return None
        dense = np.zeros((self.n, self.n))
        dense[self.rows, self.cols] = self.weights
        return np.linalg.eigvals(dense)

    @cached_property
    def sym_band(self) -> np.ndarray | None:
        """Lower band of S in reverse Cuthill-McKee order; None without a
        symmetrizer.

        Row k holds the k-th subdiagonal, band[k, j] = S[j + k, j] (the
        lower layout of LAPACK `pbtrf`). A symmetric permutation does not
        change det(I - rho S).
        """
        if self.symmetrizer is None:
            return None
        data = np.sqrt(self.weights * self._reverse)  # S_ij, exactly symmetric
        keep = data > 0
        rows, cols, data = self.rows[keep], self.cols[keep], data[keep]
        at = _slots(self.n, _reverse_cuthill_mckee(self.n, rows, cols))
        a, c = at[rows], at[cols]
        low = a > c
        k = a[low] - c[low]
        band = np.zeros((int(k.max(initial=0)) + 1, self.n))
        band[k, c[low]] = data[low]
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
        """W v for v of shape (n,) or (n, p), bit for bit scipy's CSR product."""
        return _sum_terms(self.n, self.rows, self.weights, self.cols, v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """W^T v for v of shape (n,) or (n, p), bit for bit scipy's CSR W^T v."""
        return _sum_terms(self.n, self.cols, self.weights, self.rows, v)

    def restrict(self, sites: np.ndarray) -> "SpatialWeights":
        """The entries between the ascending `sites`, stored zeros included,
        re-indexed to 0..k-1 and not marked row-standardized."""
        rows, cols, w = self.rows, self.cols, self.weights
        slot = _slots(self.n, sites)
        inner = (slot[rows] >= 0) & (slot[cols] >= 0)
        return SpatialWeights(n=len(sites), rows=slot[rows[inner]],
                              cols=slot[cols[inner]], weights=w[inner])


def _reverse_cuthill_mckee(n: int, rows: np.ndarray,
                           cols: np.ndarray) -> np.ndarray:
    """Reverse Cuthill-McKee order of the symmetric graph with the edges
    (rows, cols), sorted by (row, col) and without self-loops.

    A port of scipy's reverse_cuthill_mckee(symmetric_mode=True) that gives
    its permutation (Cuthill & McKee 1969). Searches are seeded in the order
    of np.argsort of the int32 degrees; a site's unvisited neighbours join
    in ascending site order, each site's new children are sorted stably by
    degree, and the finished order is reversed.
    """
    start = np.searchsorted(rows, np.arange(n + 1))
    degree = np.diff(start).astype(np.int32)
    start, nbr, deg = start.tolist(), cols.tolist(), degree.tolist()
    seen = [False] * n
    order = []
    for seed in np.argsort(degree).tolist():
        if seen[seed]:
            continue
        seen[seed] = True
        queue = [seed]
        for u in queue:  # grows while read: breadth-first order
            kids = [v for v in nbr[start[u]:start[u + 1]] if not seen[v]]
            for v in kids:
                seen[v] = True
            kids.sort(key=deg.__getitem__)
            queue += kids
        order += queue
    return np.array(order[::-1], dtype=np.int64)


def _slots(n: int, sites: np.ndarray) -> np.ndarray:
    """Each site's position in `sites`, -1 for the sites not in it."""
    slot = np.full(n, -1, dtype=np.int64)
    slot[sites] = np.arange(len(sites))
    return slot


def _sum_terms(n: int, out: np.ndarray, w: np.ndarray, src: np.ndarray,
               v: np.ndarray) -> np.ndarray:
    """y with y[out_e] += w_e v[src_e] over the entries e in order, from 0.

    np.bincount adds in input order, so with the entries sorted by (row, col)
    each output sums its terms in the order scipy's CSR product does, for W
    (out = rows) and for W^T (out = cols) alike.
    """
    v = np.asarray(v)
    if v.ndim == 1:
        return np.bincount(out, weights=w * v[src], minlength=n)
    p = v.shape[1]
    slots = (out[:, None] * p + np.arange(p)).ravel()
    terms = (w[:, None] * v[src]).ravel()
    return np.bincount(slots, weights=terms, minlength=n * p).reshape(n, p)


def build_rook_lattice(rows: int, cols: int, row_standardize: bool = True) -> SpatialWeights:
    """Rook-neighbourhood weights on a rows x cols lattice.

    Cell (i, j) neighbours its up/down/left/right cells; weights are 1, or
    1/degree when row-standardized. Site index is i*cols + j. The pairs are
    built in any order: the constructor sorts them.
    """
    if rows < 1 or cols < 1:
        raise DimensionError("lattice dimensions must be at least 1x1")
    n = rows * cols
    site = np.arange(n).reshape(rows, cols)
    # each site with its right neighbour, then with the one below it
    a = np.concatenate([site[:, :-1].ravel(), site[:-1].ravel()])
    b = np.concatenate([site[:, 1:].ravel(), site[1:].ravel()])
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    w = np.ones(src.size)
    if row_standardize and src.size:
        degree = np.bincount(src, minlength=n).astype(float)
        w = 1.0 / degree[src]
    return SpatialWeights(n=n, rows=src, cols=dst, weights=w,
                          row_standardized=bool(row_standardize and src.size))


def _check_rho(rho: float) -> None:
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1); got {rho!r}")


def apply_At(W: SpatialWeights, rho: float, v: np.ndarray) -> np.ndarray:
    """(I - rho W)^T v without forming A."""
    _check_rho(rho)
    v = np.asarray(v, dtype=float)
    if v.shape[0] != W.n:
        raise DimensionError(f"vector length {v.shape[0]} does not match n = {W.n}")
    return v - rho * W.rmatvec(v)


def a_matrix(W: SpatialWeights, c: complex
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I - c W in CSC form for real c = rho or complex c = rho + ih.

    Returns (data, indices, indptr), the arrays of scipy's
    (identity - c * W).tocsc(): each column's rows ascending, no zero term
    stored, intc indices.
    """
    _check_rho(c.real)
    n = W.n
    off = 0.0 - c * W.weights
    keep = off != 0
    diag = np.arange(n)
    rows = np.concatenate([diag, W.rows[keep]])
    cols = np.concatenate([diag, W.cols[keep]])
    data = np.concatenate([np.ones(n, off.dtype), off[keep]])
    order = np.argsort(cols * n + rows)
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return data[order], rows[order].astype(np.intc), indptr


def _perm_sign(perm: np.ndarray) -> int:
    """Sign of a permutation, (-1)^(n - c) for its c cycles.

    Pointer doubling gives each site the lowest site of its cycle: after k
    rounds `low` covers the 2^k sites that follow each site on its cycle.
    A cycle is counted at its lowest site.
    """
    perm = np.asarray(perm)
    n = perm.size
    low, step = np.arange(n), perm
    for _ in range(n.bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    cycles = np.count_nonzero(low == np.arange(n))
    return -1 if (n - cycles) % 2 else 1


# splu's defaults: None leaves each choice to SuperLU's own default.
_SPLU_OPTIONS = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None,
                     Relax=None)


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

    SuperLU's gstrf is called as scipy's splu calls it. Its U comes back as
    the CSC arrays handed to `csc_construct_func`, whose data and indices
    hold spare capacity past indptr[-1].
    """
    n = W.n
    data, indices, indptr = a_matrix(W, rho + 1j * _COMPLEX_STEP)
    try:
        lu = _superlu().gstrf(n, int(indptr[-1]), data, indices, indptr,
                              csc_construct_func=lambda arrays, shape: arrays,
                              ilu=False, options=_SPLU_OPTIONS)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularityError(f"A = I - rho W is singular at rho = {rho}") from exc
    u, rows, indptr = lu.U
    nnz = indptr[-1]
    cols = np.repeat(np.arange(n), np.diff(indptr))
    on = rows[:nnz] == cols
    # summed from zero, as scipy's csc diagonal() is
    diag = np.zeros(n, dtype=u.dtype)
    np.add.at(diag, cols[on], u[:nnz][on])
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
    chol, info = _pbtrf(ab, lower=1, overwrite_ab=1)
    if info or np.any(chol[0] ** 2 < _SINGULAR_TOL):
        return None
    return chol


def _spectrum_pays(n: int, b: int, n_logdets: int, n_traces: int) -> bool:
    """Whether one band spectrum of S costs less than n_logdets banded
    Cholesky log-dets plus n_traces complex-step LU traces.

    n is the order of W and b the bandwidth of `sym_band`. The constants
    are fixed, so a rerun takes the same route and writes the same bits;
    they were fitted to these timings, taken on a 2-vCPU Xeon at one BLAS
    thread, on row-standardized rook lattices at rho = 0.8:

        n (b)          banded Cholesky  complex LU  dsbevd   dense eigvalsh
        625 (25)       0.10 ms          2.0 ms      12.9 ms  21 ms
        900 (30)       0.18 ms          3.0 ms      33.5 ms  63 ms
        2116 (46)      0.72 ms          7.4 ms      290 ms   786 ms
        4900 (70)      4.3 ms           21.7 ms     2.3 s    -
        10 000 (100)   8.0 ms           48 ms       15 s     -

    dsbevd fits about _DSBEVD_S n^2 b. The band itself (1.4-4.7 ms at these
    n) and the load of the LAPACK wrapper (3.2 ms) serve every route, so
    they are left out. With these constants a 600-iteration fit at n = 900
    takes the spectrum (33.5 ms against about 2 s of factorizations), and
    so does a 5-iteration fit at n = 25; a 5-iteration fit at n = 625 and
    101 log-dets at n = 900 take the factorizations.
    """
    spectrum = _DSBEVD_S * n * n * b
    factored = (n_logdets * (_CHOLESKY_S * n * b * b + _CALL_S)
                + n_traces * (_LU_S * n + _CALL_S))
    return factored > spectrum


def plan_route(W: SpatialWeights, n_logdets: int = 0,
               n_traces: int = 0) -> str:
    """Plan n_logdets log-dets and n_traces traces on W, and name the route
    that serves them.

    For symmetrizable W the band spectrum is computed here when the planned
    work would cost more on the factorizations (`_spectrum_pays`); once
    computed, it serves every later log-det and trace on W, whoever planned
    it. With no planned work nothing is computed. The route is one of
    "band-eigen", "cholesky+lu" (symmetrizable W without its spectrum),
    "dense-eigen" or "lu" (W without a symmetrizer, within or past
    _EIGEN_MAX_N).
    """
    if W.symmetrizer is None:
        return "dense-eigen" if W.n <= _EIGEN_MAX_N else "lu"
    if "eigenvalues" not in vars(W):
        b = W.sym_band.shape[0] - 1
        if not _spectrum_pays(W.n, b, n_logdets, n_traces):
            return "cholesky+lu"
        W.eigenvalues  # computed once, then cached on W
    return "band-eigen"


def _spectrum(W: SpatialWeights) -> np.ndarray | None:
    """The eigenvalues that serve log-dets and traces on W; None where the
    factorizations do (see `plan_route`)."""
    if W.symmetrizer is None:
        return W.eigenvalues
    return vars(W).get("eigenvalues")  # set only once a caller asked


def logdet_A(W: SpatialWeights, rho: float) -> float:
    """log det(I - rho W); raises SingularityError on a nonpositive determinant."""
    _check_rho(rho)
    lam = _spectrum(W)
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
    lam = _spectrum(W)
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


@dataclass(frozen=True)
class _BlockPlan:
    """Linear map from the site weights to the lower band of a block's M_uu.

    For A_u = E_u - rho W_u (the block's columns of A) and S = diag(s),
    M_uu = E_u^T S E_u - rho (E_u^T S W_u + W_u^T S E_u) + rho^2 W_u^T S W_u
    is linear in s at fixed rho. With x = [s, -rho s, rho^2 s], term e adds
    val[e] * x[col[e]] to band slot slot[e]. The slots are laid out so that
    the band's reshape to (k, width + 1) and transpose is the
    Fortran-ordered LAPACK lower band (row d holds the d-th subdiagonal) in
    the block's site order. The terms are sorted by (slot, col), so
    np.bincount adds each slot's terms in the order of a CSR product of
    the same map.
    """

    width: int
    slot: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def band(self, x: np.ndarray, k: int) -> np.ndarray:
        """The (width + 1, k) lower band of M_uu for x = [s, -rho s, rho^2 s]."""
        m = self.width + 1
        return _sum_terms(k * m, self.slot, self.val, self.col, x).reshape(k, m).T


def _build_block_plan(W: SpatialWeights, block: np.ndarray) -> _BlockPlan:
    n, k = W.n, block.size
    at = _slots(n, block)
    rows, cols, w = W.rows, W.cols, W.weights
    # E_u^T S E_u: s at the diagonal. Entry e of the map puts
    # val[e] * x[col[e]] at M_uu[lo_a[e], lo_c[e]], lo_a >= lo_c
    lo_a, lo_c = [np.arange(k)], [np.arange(k)]
    col, val = [block], [np.ones(k)]
    # E_u^T S W_u + W_u^T S E_u: a stored W_ij with i, j in the block adds
    # s_i W_ij at (slot i, slot j) and at its mirror
    ar, ac = at[rows], at[cols]
    inner = (ar >= 0) & (ac >= 0)
    a, c = ar[inner], ac[inner]
    lo_a.append(np.maximum(a, c))
    lo_c.append(np.minimum(a, c))
    col.append(n + rows[inner])
    val.append(w[inner])
    # W_u^T S W_u: every pair of block columns stored in one row i of W
    # adds s_i W_ia W_ic. `left` repeats each entry in a block column once
    # per such entry of its row, and `right` runs over those row partners.
    in_block = ac >= 0
    row_of, wu_col, wu = rows[in_block], ac[in_block], w[in_block]
    counts = np.bincount(row_of, minlength=n)
    starts = np.cumsum(counts) - counts
    reps = counts[row_of]
    left = np.repeat(np.arange(row_of.size), reps)
    right = (np.repeat(starts[row_of], reps) + np.arange(left.size)
             - np.repeat(np.cumsum(reps) - reps, reps))
    a, c = wu_col[left], wu_col[right]
    keep = a >= c
    lo_a.append(a[keep])
    lo_c.append(c[keep])
    col.append(2 * n + row_of[left[keep]])
    val.append(wu[left[keep]] * wu[right[keep]])
    lo_a, lo_c = np.concatenate(lo_a), np.concatenate(lo_c)
    col, val = np.concatenate(col), np.concatenate(val)
    width = int(np.max(lo_a - lo_c, initial=0))
    slot = lo_c * (width + 1) + lo_a - lo_c
    order = np.lexsort((col, slot))
    return _BlockPlan(width=width, slot=slot[order], col=col[order],
                      val=val[order])


@dataclass(frozen=True)
class ConditionalGaussian:
    """Conditional distribution of a block of sites given all the others.

    Built by `conditional_gaussian`. For the joint N(mu, sigma^2 M^-1) the
    block u given the other sites o is N(mu_u + mean_offset, sigma^2 M_uu^-1),
    with mean_offset = -M_uu^-1 M_uo r_o. `chol_lower` is the lower Cholesky
    factor of M_uu in LAPACK band storage (row d holds the d-th subdiagonal,
    in the order of `unknown_idx`). The remaining fields (the block's sites,
    W, rho and the diagonal s of Sigma_tau^-1) let `given` re-condition on a
    new residual with the same factor.
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
        if not k:
            # pbtrs rejects an empty right-hand side (LDB < 1)
            return np.empty((0, 0))
        inv, info = _pbtrs(self.chol_lower, np.eye(k), lower=1)
        if info:
            raise SingularityError(f"pbtrs failed with info = {info}")
        return sigma2 * inv

    def noise(self, sigma2: float, z: np.ndarray) -> np.ndarray:
        """sigma L^-T z, a zero-mean draw with covariance sigma^2 M_uu^-1.

        z may stack standard-normal vectors as rows; the draws then come
        back as rows from one banded solve with a right-hand side per row,
        each bit for bit the draw of its row alone.
        """
        if not z.size:
            # tbtrs corrupts the heap when it is given no right-hand side
            return np.empty(z.shape)
        x, _ = _tbtrs(self.chol_lower, z.T, uplo="L", trans="T")
        return np.sqrt(sigma2) * x.T

    def sample(self, sigma2: float, z: np.ndarray) -> np.ndarray:
        """mean_offset + `noise`: a draw of the block given the others, one
        per row when z stacks standard normals as rows."""
        return self.mean_offset + self.noise(sigma2, z)

    def given(self, r: np.ndarray) -> "ConditionalGaussian":
        """The same block conditioned on the residual r over all n sites.

        r's entries at the unknown sites are not read; the factor is reused.
        """
        u, rho = self.unknown_idx, self.rho
        r_known = np.array(r, dtype=float)
        r_known[u] = 0.0
        # M_uo r_known = A_u^T diag(s) A r_known = t_u - rho (W^T t)_u for
        # t = s * (A r_known)
        t = self.s * (r_known - rho * self.W.matvec(r_known))
        m_uo_r = t[u] - rho * self.W.rmatvec(t)[u]
        x, info = _pbtrs(self.chol_lower, m_uo_r, lower=1)
        if info:
            raise SingularityError(f"pbtrs failed with info = {info}")
        return replace(self, mean_offset=-x)


def conditional_gaussian(kind: ModelKind, W: SpatialWeights, rho: float,
                         tau: np.ndarray | None, block: np.ndarray,
                         r: np.ndarray) -> ConditionalGaussian:
    """The conditional of the sites in block given all the other sites.

    block holds strictly ascending site indices (it may be empty) and r is
    the residual over all n sites; the block's own entries of r are not
    read. M_uu is assembled from the block's cached `_BlockPlan` and factored
    once by a banded Cholesky in site order, O(k b^2) for k sites and
    bandwidth b (full, b = k - 1, for sites in no spatial order). Returns the
    mean offset -M_uu^-1 M_uo r_o and that factor; the caller adds X_u beta
    and scales by sigma^2, and a sampler that moves other sites
    re-conditions with `ConditionalGaussian.given`.
    """
    _check_rho(rho)
    r = np.asarray(r, dtype=float)
    if r.shape != (W.n,):
        raise DimensionError("r must have one entry per site")
    block = np.asarray(block, dtype=np.int64)
    if block.ndim != 1:
        raise DomainError("block must be a 1-D index array")
    if block.size and (np.any(np.diff(block) <= 0) or block[0] < 0
                       or block[-1] >= W.n):
        raise DomainError("block must be strictly ascending sites in 0..n-1")
    inv_tau = _inv_tau(kind, W, tau)
    s = inv_tau if inv_tau is not None else np.ones(W.n)
    x = np.concatenate([s, -rho * s, (rho * rho) * s])
    band = W._block_plan(block).band(x, block.size)
    chol, info = _pbtrf(band, lower=1, overwrite_ab=1)
    # a NaN pivot passes pbtrf's test, so check the diagonal as well
    if info or not np.all(chol[0] > 0.0):
        raise SingularityError("M_uu is not positive definite")
    cond = ConditionalGaussian(mean_offset=np.empty(0), chol_lower=chol,
                               unknown_idx=block, W=W, rho=rho, s=s)
    return cond.given(r)
