"""Spatial operator algebra against dense linear-algebra oracles."""

import numpy as np
import pytest

from semvb.errors import (DimensionError, DomainError, NumericalError,
                          SingularityError)
from semvb.likelihoods import Dataset, loglik
from semvb.models import ModelKind, ModelParams
from semvb import spatial

from hypothesis import given, settings, strategies as st

from oracles import (csr, csr_of_triples, dense_M, eigenvalues_eigvalsh,
                     fd_derivative, lu_route_splu, perm_sign_csgraph,
                     rook_lattice_loop, schur_conditional,
                     simulate_sem_spsolve, sym_band_scipy)
from util import with_spectrum


def two_node_raw() -> spatial.SpatialWeights:
    return spatial.SpatialWeights(
        n=2, rows=[0, 1], cols=[1, 0], weights=[1.0, 1.0])


class TestRookLattice:
    def test_degrees_and_row_sums(self):
        W = spatial.build_rook_lattice(3, 4)
        assert W.n == 12
        sums = np.bincount(W.rows, weights=W.weights, minlength=12)
        np.testing.assert_allclose(sums, 1.0, atol=1e-14)
        counts = np.bincount(W.rows, minlength=12)
        # corners touch 2 neighbours, edges 3, interior 4
        assert counts[0] == 2 and counts[3] == 2
        assert counts[1] == 3 and counts[4] == 3
        assert counts[5] == 4 and counts[6] == 4

    def test_adjacency_is_symmetric(self):
        W = spatial.build_rook_lattice(4, 4, row_standardize=False)
        dense = csr(W).toarray()
        np.testing.assert_array_equal(dense, dense.T)

    def test_raw_option(self):
        W = spatial.build_rook_lattice(2, 2, row_standardize=False)
        assert not W.row_standardized
        assert set(np.unique(W.weights)) == {1.0}

    def test_bad_dimensions(self):
        with pytest.raises(DimensionError):
            spatial.build_rook_lattice(0, 5)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (6, 5),
                                       (46, 46)])
    @pytest.mark.parametrize("standardize", [True, False])
    def test_matches_per_site_loop(self, shape, standardize):
        W = spatial.build_rook_lattice(*shape, row_standardize=standardize)
        ref = rook_lattice_loop(*shape, row_standardize=standardize)
        assert (W.n, W.row_standardized) == (ref.n, ref.row_standardized)
        for name in ("rows", "cols", "weights"):
            got, want = getattr(W, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestWeightsValidation:
    def test_diagonal_rejected(self):
        with pytest.raises(DomainError):
            spatial.SpatialWeights(n=2, rows=[0], cols=[0], weights=[1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            spatial.SpatialWeights(n=2, rows=[0], cols=[1], weights=[-0.5])

    def test_row_standardized_flag_checked(self):
        with pytest.raises(DomainError):
            spatial.SpatialWeights(n=2, rows=[0, 1], cols=[1, 0],
                                   weights=[0.5, 1.0], row_standardized=True)

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            spatial.SpatialWeights(n=2, rows=[0], cols=[2], weights=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            spatial.SpatialWeights(n=2, rows=[0, 1], cols=[1, 0],
                                   weights=[1.0, bad])

    @pytest.mark.parametrize("shape", [(2, 2), (1, 4)])
    def test_triples_must_be_1d(self, shape):
        rows = np.array([0, 1, 1, 2]).reshape(shape)
        cols = np.array([1, 0, 2, 1]).reshape(shape)
        with pytest.raises(DimensionError, match="1-D"):
            spatial.SpatialWeights(n=3, rows=rows, cols=cols,
                                   weights=np.ones(shape))


class TestCanonicalTriples:
    def test_sorted_and_summed_in_input_order(self):
        W = spatial.SpatialWeights(n=3, rows=[2, 0, 1, 0, 0],
                                   cols=[1, 2, 0, 2, 2],
                                   weights=[0.5, 0.1, 0.0, 0.2, 0.3])
        np.testing.assert_array_equal(W.rows, [0, 1, 2])
        np.testing.assert_array_equal(W.cols, [2, 0, 1])
        # the stored zero is kept, and 0.1, 0.2, 0.3 are summed in order
        assert W.weights.tolist() == [(0.1 + 0.2) + 0.3, 0.0, 0.5]
        assert W.rows.dtype == W.cols.dtype == np.int64

    # Weights are multiples of 1/8, so that any order of summing duplicates
    # gives the same sums; zero weights are stored zeros, and the 4 sites
    # make duplicate coordinates common.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 16)), max_size=30),
           st.randoms(use_true_random=False))
    def test_any_order_stores_the_same_bytes(self, triples, random):
        triples = [(i, j, k / 8) for i, j, k in triples if i != j]
        shuffled = random.sample(triples, len(triples))
        Ws = [spatial.SpatialWeights(
            n=4, rows=np.array([t[0] for t in ts], dtype=np.int64),
            cols=np.array([t[1] for t in ts], dtype=np.int64),
            weights=np.array([t[2] for t in ts], dtype=float))
            for ts in (triples, shuffled)]
        for name in ("rows", "cols", "weights"):
            assert getattr(Ws[0], name).tobytes() == getattr(Ws[1], name).tobytes()
        dense = np.zeros((4, 4))
        for i, j, w in triples:
            dense[i, j] += w
        assert Ws[0].weights.tolist() == dense[Ws[0].rows, Ws[0].cols].tolist()
        # one entry per distinct coordinate, zero sums included
        assert (list(zip(Ws[0].rows.tolist(), Ws[0].cols.tolist()))
                == sorted({(i, j) for i, j, _ in triples}))


def weighted_nonsymmetric_triples():
    """Random weights on random pairs, some repeated; sites 40-44 have no
    entries. (n, rows, cols, weights) as given to the constructor."""
    rng = np.random.default_rng(5)
    r, c = rng.integers(0, 40, (2, 200))
    keep = r != c
    return 45, r[keep], c[keep], rng.uniform(0.1, 2.0, keep.sum())


def weighted_nonsymmetric() -> spatial.SpatialWeights:
    return spatial.SpatialWeights(*weighted_nonsymmetric_triples())


def lattice_with_stored_zeros() -> spatial.SpatialWeights:
    W = spatial.build_rook_lattice(6, 5, False)
    w = W.weights.copy()
    w[::7] = 0.0
    return spatial.SpatialWeights(n=W.n, rows=W.rows, cols=W.cols, weights=w)


def duplicate_triples():
    """Every entry of a 6 x 5 lattice split over three triples, unsorted:
    (n, rows, cols, weights) as given to the constructor. With three parts
    the order in which they are summed changes some sums' last bits."""
    W = spatial.build_rook_lattice(6, 5)
    cut = np.sort(np.random.default_rng(2).uniform(
        0.0, 1.0, (2, W.weights.size)), axis=0)
    parts = np.concatenate([cut[0], cut[1] - cut[0], 1.0 - cut[1]])
    order = np.random.default_rng(3).permutation(3 * W.weights.size)
    return (W.n, np.tile(W.rows, 3)[order], np.tile(W.cols, 3)[order],
            (parts * np.tile(W.weights, 3))[order])


def lattice_with_duplicates() -> spatial.SpatialWeights:
    return spatial.SpatialWeights(*duplicate_triples())


PRODUCT_CASES = {
    "row-standardized lattice": lambda: spatial.build_rook_lattice(9, 11),
    "weighted non-symmetric, empty rows": weighted_nonsymmetric,
    "stored zeros": lattice_with_stored_zeros,
    "duplicate triples": lattice_with_duplicates,
}
# the cases built from triples that are not in canonical form
INPUT_TRIPLES = {
    "weighted non-symmetric, empty rows": weighted_nonsymmetric_triples,
    "duplicate triples": duplicate_triples,
}


def scipy_reference(name, W):
    """scipy's CSR form of the triples the case gave the constructor."""
    triples = INPUT_TRIPLES.get(name)
    return csr(W) if triples is None else csr_of_triples(*triples())


class TestProducts:
    @pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
    @pytest.mark.parametrize("shape", [(), (6,)])
    def test_bit_for_bit_scipy(self, name, shape):
        W = PRODUCT_CASES[name]()
        ref = scipy_reference(name, W)
        v = np.random.default_rng(1).standard_normal((W.n, *shape))
        assert W.matvec(v).tobytes() == (ref @ v).tobytes()
        assert W.rmatvec(v).tobytes() == (ref.T.tocsr() @ v).tobytes()

    @pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
    @pytest.mark.parametrize("c", [0.6, -0.95, 0.0, 0.3 + 1e-30j, 1e-30j])
    def test_a_matrix_is_scipy_difference(self, name, c):
        import scipy.sparse as sp
        W = PRODUCT_CASES[name]()
        arrays = spatial.a_matrix(W, c)
        want = (sp.identity(W.n, format="csr")
                - c * scipy_reference(name, W)).tocsc()
        for got, ref in zip(arrays, (want.data, want.indices, want.indptr)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
    def test_restrict_is_csr_submatrix(self, name):
        W = PRODUCT_CASES[name]()
        keep = np.flatnonzero(np.random.default_rng(6).random(W.n) < 0.6)
        sub = scipy_reference(name, W)[keep][:, keep].tocoo()
        R = W.restrict(keep)
        assert R.n == keep.size and not R.row_standardized
        np.testing.assert_array_equal(R.rows, sub.row)
        np.testing.assert_array_equal(R.cols, sub.col)
        assert R.weights.tobytes() == sub.data.tobytes()

    @pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
    def test_block_band_is_csr_product(self, name):
        import scipy.sparse as sp
        W = PRODUCT_CASES[name]()
        rng = np.random.default_rng(8)
        x = rng.standard_normal(3 * W.n)
        for block in (np.flatnonzero(rng.random(W.n) < 0.5),
                      np.arange(W.n // 3, W.n), np.arange(W.n)):
            plan = W._block_plan(block)
            k, m = block.size, plan.width + 1
            G = sp.csr_matrix((plan.val, (plan.slot, plan.col)),
                              shape=(k * m, 3 * W.n))
            want = (G @ x).reshape(k, m).T
            assert plan.band(x, k).tobytes() == want.tobytes()


class TestApplyA:
    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        W = spatial.build_rook_lattice(4, 5)
        dense = csr(W).toarray()
        v = rng.standard_normal(20)
        A = np.eye(20) - 0.6 * dense
        np.testing.assert_allclose(spatial.apply_At(W, 0.6, v), A.T @ v, atol=1e-12)

    def test_rho_domain(self):
        W = two_node_raw()
        with pytest.raises(DomainError):
            spatial.apply_At(W, 1.0, np.zeros(2))
        for c in (1.0, -1.0 + 1e-30j):
            with pytest.raises(DomainError):
                spatial.a_matrix(W, c)

    def test_length_mismatch(self):
        W = two_node_raw()
        with pytest.raises(DimensionError):
            spatial.apply_At(W, 0.3, np.zeros(3))


def loglik_at(kind, W, rho, y, tau=None, sigma2=1.0):
    """The likelihood's loglik of response y under an intercept-only X with
    beta = 0, so that r = y."""
    data = Dataset(y=y, X=np.ones((W.n, 1)), W=W)
    params = ModelParams(beta=[0.0], sigma2=sigma2, rho=rho,
                         nu=5.0 if kind.student_t else None)
    return loglik(kind, data, params, tau)


def logdet_M_at(kind, W, rho, tau=None):
    """log|M| read off loglik at r = 0 and sigma^2 = 1, where loglik is
    -(n/2) log 2 pi + log|M| / 2."""
    ll = loglik_at(kind, W, rho, np.zeros(W.n), tau)
    return 2.0 * ll + W.n * np.log(2.0 * np.pi)


class TestLogdet:
    def test_two_node_hand_value(self):
        # det(A^T A) = det(A)^2 = (1 - 0.25)^2
        W = two_node_raw()
        assert 2.0 * spatial.logdet_A(W, 0.5) == pytest.approx(
            2.0 * np.log(0.75), abs=1e-12)
        got = logdet_M_at(ModelKind.SEM_GAU, W, 0.5)
        assert got == pytest.approx(2.0 * np.log(0.75), abs=1e-12)

    def test_t_kind_tau_contribution(self):
        # rho = 0 makes A the identity; only the tau determinant remains
        W = spatial.SpatialWeights(n=3, rows=[0, 1, 2], cols=[1, 2, 0],
                                   weights=[1.0, 1.0, 1.0])
        tau = np.full(3, np.e)
        got = logdet_M_at(ModelKind.SEM_T, W, 0.0, tau)
        assert got == pytest.approx(-3.0, abs=1e-12)

    def test_matches_slogdet_on_lattice(self):
        W = spatial.build_rook_lattice(5, 5)
        dense = csr(W).toarray()
        for rho in (-0.9, -0.3, 0.0, 0.4, 0.85):
            sign, ld = np.linalg.slogdet(np.eye(25) - rho * dense)
            assert sign > 0
            assert spatial.logdet_A(W, rho) == pytest.approx(ld, abs=1e-10)

    def test_splu_path_matches_eigen_path(self):
        W = with_spectrum(spatial.build_rook_lattice(6, 7))
        for rho in (-0.7, 0.2, 0.9):
            logdet, sign, trace = spatial._lu_route(W, rho)
            assert sign == 1
            assert logdet == pytest.approx(spatial.logdet_A(W, rho), abs=1e-9)
            assert trace == pytest.approx(spatial.trace_AinvW(W, rho), abs=1e-9)

    def test_singular_a_raises(self):
        # doubled weights push an eigenvalue to 2, so A is singular at 0.5
        W = spatial.SpatialWeights(n=2, rows=[0, 1], cols=[1, 0],
                                   weights=[2.0, 2.0])
        with pytest.raises(SingularityError):
            spatial.logdet_A(W, 0.5)
        with pytest.raises(SingularityError):
            spatial.logdet_A(W, 0.6)  # determinant has gone negative
        with pytest.raises(SingularityError):
            spatial._lu_route(W, 0.5)
        assert spatial._lu_route(W, 0.6)[1] == -1  # logdet_A rejects it

    def test_indefinite_past_cap_takes_lu_value(self):
        # two disjoint pairs with weight 2: eigenvalues 2, 2, -2, -2, so
        # I - 0.6 S is indefinite but det(A) = 0.04 * 4.84 > 0
        def make():
            return spatial.SpatialWeights(n=4, rows=[0, 1, 2, 3],
                                          cols=[1, 0, 3, 2],
                                          weights=[2.0, 2.0, 2.0, 2.0])
        W_eig, rho = with_spectrum(make()), 0.6
        dense = csr(W_eig).toarray()
        A = np.eye(4) - rho * dense
        sign, ld = np.linalg.slogdet(A)
        assert sign > 0 and ld == pytest.approx(np.log(0.1936), abs=1e-12)
        W = make()
        assert spatial.plan_route(W) == "cholesky+lu"
        assert spatial._banded_cholesky(W, rho) is None
        assert spatial.logdet_A(W, rho) == pytest.approx(ld, abs=1e-12)
        assert spatial.logdet_A(W, rho) == pytest.approx(
            spatial.logdet_A(W_eig, rho), abs=1e-12)
        assert spatial.trace_AinvW(W, rho) == pytest.approx(
            np.trace(np.linalg.solve(A, dense)), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50])
    def test_perm_sign_matches_det(self, n):
        rng = np.random.default_rng(n)
        perms = [np.arange(n)] + [rng.permutation(n) for _ in range(20)]
        for perm in perms:
            expected = np.linalg.det(np.eye(n)[perm])
            assert spatial._perm_sign(perm) == round(expected)

    def test_tau_required_and_positive(self):
        W = two_node_raw()
        with pytest.raises(DomainError, match="tau is required"):
            logdet_M_at(ModelKind.SEM_T, W, 0.2, None)
        with pytest.raises(DomainError, match="strictly positive"):
            logdet_M_at(ModelKind.SEM_T, W, 0.2, np.array([1.0, -1.0]))


class TestTrace:
    def test_matches_dense_inverse(self):
        W = spatial.build_rook_lattice(4, 6)
        dense = csr(W).toarray()
        for rho in (-0.8, 0.1, 0.75):
            expected = np.trace(np.linalg.solve(np.eye(24) - rho * dense, dense))
            assert spatial.trace_AinvW(W, rho) == pytest.approx(expected, abs=1e-10)

    def test_is_derivative_of_logdet(self):
        W = spatial.build_rook_lattice(5, 4)
        for rho in (-0.5, 0.3, 0.8):
            fd = fd_derivative(lambda r: spatial.logdet_A(W, r), rho, h=1e-6)
            assert -fd == pytest.approx(spatial.trace_AinvW(W, rho), rel=1e-6)


def weighted_symmetric_c() -> spatial.SpatialWeights:
    """Row-standardized D^-1 C for a random sparse symmetric C."""
    rng = np.random.default_rng(11)
    n = 30
    c = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.15), 1)
    c += c.T
    c[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # no empty rows
    c[(np.arange(n) + 1) % n, np.arange(n)] += 0.5
    w = c / c.sum(axis=1, keepdims=True)
    r, k = np.nonzero(w)
    return spatial.SpatialWeights(n=n, rows=r, cols=k, weights=w[r, k],
                                  row_standardized=True)


def lattice_restriction() -> spatial.SpatialWeights:
    keep = np.flatnonzero(np.random.default_rng(4).random(49) < 0.6)
    return spatial.build_rook_lattice(7, 7).restrict(keep)


def reversed_ratio_lattice() -> spatial.SpatialWeights:
    """5x5 row-standardized lattice with W_01 and W_10 swapped.

    The swap inverts one edge ratio on the 4-cycle 0-1-6-5, so no positive h
    with h_i W_ij = h_j W_ji exists; row sums stay within 7/6.
    """
    W = spatial.build_rook_lattice(5, 5)
    w = W.weights.copy()
    a = np.flatnonzero((W.rows == 0) & (W.cols == 1))[0]
    b = np.flatnonzero((W.rows == 1) & (W.cols == 0))[0]
    w[a], w[b] = w[b], w[a]
    return spatial.SpatialWeights(n=W.n, rows=W.rows, cols=W.cols, weights=w)


SYMMETRIZABLE = {
    "row-standardized lattice": (lambda: spatial.build_rook_lattice(6, 7),
                                 (-0.9, -0.3, 0.4, 0.95)),
    "binary lattice": (lambda: spatial.build_rook_lattice(5, 6, False),
                       (-0.2, 0.05, 0.2)),
    "lattice restriction": (lattice_restriction, (-0.8, 0.3, 0.9)),
    "weighted symmetric C": (weighted_symmetric_c, (-0.95, -0.2, 0.6, 0.9)),
}


class TestSymmetrizer:
    @pytest.mark.parametrize("name", sorted(SYMMETRIZABLE))
    def test_balances_every_entry(self, name):
        W = SYMMETRIZABLE[name][0]()
        h = W.symmetrizer
        assert h is not None and np.all(h > 0)
        hw = h[:, None] * csr(W).toarray()
        np.testing.assert_allclose(hw, hw.T, rtol=1e-12, atol=0.0)
        assert W.eigenvalues.dtype == np.float64

    def test_row_standardized_lattice_is_degree(self):
        W = spatial.build_rook_lattice(4, 5)
        degree = np.bincount(W.rows, minlength=W.n)
        np.testing.assert_allclose(W.symmetrizer / W.symmetrizer[0],
                                   degree / degree[0], rtol=1e-14)

    def test_eigenvalues_match_general_route(self):
        W = weighted_symmetric_c()
        general = np.sort(np.linalg.eigvals(csr(W).toarray()).real)
        np.testing.assert_allclose(np.sort(W.eigenvalues), general, atol=1e-12)

    def test_none_without_balance(self):
        cycle = spatial.SpatialWeights(n=3, rows=[0, 1, 2], cols=[1, 2, 0],
                                       weights=[1.0, 1.0, 1.0])
        assert cycle.symmetrizer is None
        assert np.iscomplexobj(cycle.eigenvalues)
        assert reversed_ratio_lattice().symmetrizer is None

    @pytest.mark.parametrize("reverse", [[], [(1, 0, 0.0)]])
    def test_none_without_reverse_entry(self, reverse):
        # W_01 > 0 with W_10 not stored, or stored as zero
        rows, cols, w = zip(*[(0, 1, 0.5), (1, 2, 1.0), (2, 1, 2.0), *reverse])
        W = spatial.SpatialWeights(n=3, rows=rows, cols=cols, weights=w)
        assert W.symmetrizer is None

    def test_components_and_isolated_sites(self):
        # a row-standardized 3 x 3 lattice, a weighted pair and a path of
        # three, scattered over 20 sites; the other 6 sites have no entries
        lattice = spatial.build_rook_lattice(3, 3)
        parts = [(lattice.rows, lattice.cols, lattice.weights),
                 ([9, 10], [10, 9], [2.0, 0.5]),
                 ([11, 12, 12, 13], [12, 11, 13, 12], [1.0, 0.5, 0.5, 1.0])]
        site = np.random.default_rng(6).permutation(20)
        rows = site[np.concatenate([p[0] for p in parts])]
        cols = site[np.concatenate([p[1] for p in parts])]
        weights = np.concatenate([p[2] for p in parts])
        W = spatial.SpatialWeights(n=20, rows=rows, cols=cols, weights=weights)
        h = W.symmetrizer
        assert h is not None and np.all(h > 0)
        hw = h[:, None] * csr(W).toarray()
        np.testing.assert_allclose(hw, hw.T, rtol=1e-12, atol=0.0)
        # the search starts each component at its lowest site, with h = 1
        for comp in (site[:9], site[9:11], site[11:14]):
            assert h[comp.min()] == 1.0
        np.testing.assert_array_equal(h[site[14:]], 1.0)
        general = np.sort(np.linalg.eigvals(csr(W).toarray()).real)
        np.testing.assert_allclose(np.sort(W.eigenvalues), general, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(SYMMETRIZABLE))
    def test_eigenvalues_match_eigvalsh_oracle(self, name):
        # the band and dense reductions round differently; measured on
        # row-standardized lattices up to n = 2116 they differ by 5.1e-15
        W = SYMMETRIZABLE[name][0]()
        want = eigenvalues_eigvalsh(W)
        s = csr(W).multiply(csr(W).T.tocsr()).sqrt().toarray()
        assert want.tobytes() == np.linalg.eigvalsh(s).tobytes()
        assert W.eigenvalues.shape == want.shape
        assert np.max(np.abs(W.eigenvalues - want)) <= 1e-13


class TestBandedRoute:
    """Symmetrizable W without its spectrum: the banded Cholesky log-det
    and the complex-step LU trace."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIZABLE))
    def test_matches_eigen_route(self, name):
        make, rhos = SYMMETRIZABLE[name]
        W_eig = with_spectrum(make())
        expected = [(spatial.logdet_A(W_eig, r), spatial.trace_AinvW(W_eig, r))
                    for r in rhos]
        W = make()
        assert spatial.plan_route(W) == "cholesky+lu"
        for rho, (ld, tr) in zip(rhos, expected):
            assert spatial._banded_cholesky(W, rho) is not None
            assert spatial.logdet_A(W, rho) == pytest.approx(ld, abs=1e-10)
            assert spatial.trace_AinvW(W, rho) == pytest.approx(tr, abs=1e-10)

    def test_factor_is_cholesky_banded(self):
        import scipy.linalg as sla
        W = spatial.build_rook_lattice(7, 6)
        for rho in (-0.95, -0.3, 0.0, 0.5, 0.99):
            ab = -rho * W.sym_band
            ab[0] += 1.0
            want = sla.cholesky_banded(ab, lower=True)
            assert spatial._banded_cholesky(W, rho).tobytes() == want.tobytes()
        # binary weights: the largest eigenvalue of S is near 4, so
        # I - 0.5 S is not positive definite
        B = spatial.build_rook_lattice(7, 6, False)
        ab = -0.5 * B.sym_band
        ab[0] += 1.0
        with pytest.raises(sla.LinAlgError):
            sla.cholesky_banded(ab, lower=True)
        assert spatial._banded_cholesky(B, 0.5) is None
        assert spatial._banded_cholesky(B, 0.2) is not None

    def test_trace_is_derivative_of_logdet(self):
        W = spatial.build_rook_lattice(6, 5)
        assert spatial.plan_route(W) == "cholesky+lu"
        for rho in (-0.6, 0.3, 0.85):
            fd = fd_derivative(lambda r: spatial.logdet_A(W, r), rho, h=1e-6)
            assert -fd == pytest.approx(spatial.trace_AinvW(W, rho), rel=1e-6)

    def test_not_positive_definite_falls_back(self):
        # eigenvalues of W are +-2: I - 0.6 S is indefinite and det < 0
        W = spatial.SpatialWeights(n=2, rows=[0, 1], cols=[1, 0],
                                   weights=[2.0, 2.0])
        assert spatial._banded_cholesky(W, 0.6) is None
        with pytest.raises(SingularityError):
            spatial.logdet_A(W, 0.6)
        with pytest.raises(SingularityError):
            spatial.logdet_A(W, 0.5)  # exactly singular
        with pytest.raises(SingularityError):
            spatial.trace_AinvW(W, 0.5)


def route_cases(monkeypatch):
    """A weight matrix on each route, named by `plan_route`."""
    yield "band-eigen", with_spectrum(spatial.build_rook_lattice(5, 4))
    yield "cholesky+lu", spatial.build_rook_lattice(5, 4)
    yield "dense-eigen", reversed_ratio_lattice()
    monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 4)
    yield "lu", reversed_ratio_lattice()


# (lattice side, planned log-dets, planned traces, whether the spectrum
# pays) for the stages of the benchmark and for a long fit
STAGE_PLANS = {
    "t900 fit, 600 iterations": (30, 600, 600, True),
    "nob fit, 200 iterations": (25, 200, 200, True),
    "probe": (30, 0, 0, False),
    "t900 dic, 100 draws": (30, 101, 0, False),
    "nob dic, 50 draws": (25, 50, 0, False),
    "allb dic, 5 draws": (25, 5, 0, False),
    "allb fit, 5 iterations": (25, 5, 5, False),
    "gau2116 fit, 2 iterations": (46, 2, 2, False),
    "100 x 100 fit at the CLI defaults": (100, 10000, 10000, True),
    "5 x 5 allb fit, 15 iterations": (5, 15, 15, True),
}


class TestRoutes:
    """Each log-det and trace route, and the budget rule that picks one."""

    def test_names(self, monkeypatch):
        for name, W in route_cases(monkeypatch):
            assert spatial.plan_route(W) == name

    def test_trace_is_derivative_of_logdet_on_each_route(self, monkeypatch):
        for name, W in route_cases(monkeypatch):
            for rho in (-0.6, 0.3, 0.85):
                fd = fd_derivative(lambda r: spatial.logdet_A(W, r), rho,
                                   h=1e-6)
                tr = spatial.trace_AinvW(W, rho)
                assert -fd == pytest.approx(tr, rel=1e-6), name
            assert spatial.plan_route(W) == name

    @pytest.mark.parametrize("stage", sorted(STAGE_PLANS))
    def test_stage_plans(self, stage):
        side, n_logdets, n_traces, pays = STAGE_PLANS[stage]
        W = spatial.build_rook_lattice(side, side)
        b = W.sym_band.shape[0] - 1
        assert spatial._spectrum_pays(W.n, b, n_logdets, n_traces) == pays

    def test_plan_computes_the_spectrum_only_when_it_pays(self):
        W = spatial.build_rook_lattice(25, 25)
        assert spatial.plan_route(W, 5, 5) == "cholesky+lu"
        assert spatial.plan_route(W, 51) == "cholesky+lu"
        assert "eigenvalues" not in vars(W)
        assert spatial.plan_route(W, 200, 200) == "band-eigen"
        lam = vars(W)["eigenvalues"]
        # once computed the spectrum serves every later plan
        assert spatial.plan_route(W) == "band-eigen"
        assert W.eigenvalues is lam

    def test_rule_constants(self, monkeypatch):
        monkeypatch.setattr(spatial, "_DSBEVD_S", 0.0)
        assert spatial.plan_route(spatial.build_rook_lattice(9, 9), 1) \
            == "band-eigen"
        monkeypatch.setattr(spatial, "_DSBEVD_S", np.inf)
        assert spatial.plan_route(spatial.build_rook_lattice(5, 5),
                                  10 ** 9, 10 ** 9) == "cholesky+lu"

    def test_band_eigen_past_the_cap(self, monkeypatch):
        # the cap bounds only the dense eigenvalues of W without a
        # symmetrizer
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 4)
        W = spatial.build_rook_lattice(6, 7)
        assert W.eigenvalues.shape == (42,)
        assert spatial.plan_route(W) == "band-eigen"
        np.testing.assert_allclose(W.eigenvalues, eigenvalues_eigvalsh(W),
                                   rtol=0, atol=1e-13)

    def test_band_eigen_forms_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigen solver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        W = spatial.build_rook_lattice(8, 9)
        band = W.sym_band.copy()
        assert spatial.plan_route(W, 10 ** 6) == "band-eigen"
        assert spatial.logdet_A(W, 0.5) < 0.0
        # dsbevd destroys its input unless told not to; the cached band
        # stays as it was
        assert W.sym_band.tobytes() == band.tobytes()

    def test_dsbevd_failure_raises(self, monkeypatch):
        class Failing:
            @staticmethod
            def dsbevd(ab, **kwargs):
                return np.zeros(ab.shape[1]), np.zeros((1, 1)), 3

        monkeypatch.setattr(spatial, "_flapack", lambda: Failing)
        with pytest.raises(NumericalError, match="info = 3"):
            spatial.build_rook_lattice(3, 3).eigenvalues


def random_components(seed: int) -> spatial.SpatialWeights:
    """Random symmetric graphs on a few groups of sites, with isolated sites
    and row-standardized or symmetric random weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    site = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=4, replace=False))
    rows, cols = [], []
    for group in np.split(site, cuts)[:-1]:  # the last group stays isolated
        m = int(rng.integers(0, 3 * group.size))
        i, j = rng.choice(group, m), rng.choice(group, m)
        rows.append(i[i != j])
        cols.append(j[i != j])
    i, j = np.concatenate(rows), np.concatenate(cols)
    c = np.zeros((n, n))
    c[i, j] = rng.uniform(0.5, 2.0, i.size)
    c = np.maximum(c, c.T)
    if seed % 2:
        nonempty = c.sum(axis=1) > 0
        c[nonempty] /= c[nonempty].sum(axis=1, keepdims=True)
    r, k = np.nonzero(c)
    return spatial.SpatialWeights(n=n, rows=r, cols=k, weights=c[r, k])


def stored_zeros() -> spatial.SpatialWeights:
    """A 5 x 6 binary lattice with some edges stored as zero weights, in
    both directions (a zero facing a positive weight has no symmetrizer)."""
    W = spatial.build_rook_lattice(5, 6, False)
    w = np.where((W.rows + W.cols) % 5 == 0, 0.0, W.weights)
    return spatial.SpatialWeights(n=W.n, rows=W.rows, cols=W.cols, weights=w)


RCM_CASES = {
    **{f"rook 1x{k}": (lambda k=k: spatial.build_rook_lattice(1, k))
       for k in (1, 2, 3, 17)},
    **{f"rook {r}x{c}": (lambda r=r, c=c: spatial.build_rook_lattice(r, c))
       for r, c in ((2, 9), (7, 3), (9, 13), (46, 46))},
    "binary 8x5": lambda: spatial.build_rook_lattice(8, 5, False),
    "binary 46x46": lambda: spatial.build_rook_lattice(46, 46, False),
    **{f"components {seed}": (lambda seed=seed: random_components(seed))
       for seed in range(8)},
    "stored zeros": stored_zeros,
    "lattice restriction": lattice_restriction,
    "weighted symmetric C": weighted_symmetric_c,
}


class TestRcmBand:
    """`sym_band` against the band built with scipy's RCM ordering."""

    @pytest.mark.parametrize("name", sorted(RCM_CASES))
    def test_bit_for_bit_scipy(self, name):
        W = RCM_CASES[name]()
        want = sym_band_scipy(W)
        assert want is not None
        got = W.sym_band
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_components_cases_are_disconnected(self, seed):
        from scipy.sparse.csgraph import connected_components
        W = random_components(seed)
        isolated = np.sum(np.bincount(W.rows, minlength=W.n) == 0)
        components, _ = connected_components(csr(W), directed=False)
        assert isolated > 0 and components - isolated > 1

    def test_none_without_symmetrizer(self):
        assert reversed_ratio_lattice().sym_band is None


def random_spd_band(rng, n: int, width: int) -> np.ndarray:
    """Lower band (LAPACK layout) of a random diagonally dominant SPD matrix."""
    ab = rng.uniform(-1.0, 1.0, (width + 1, n))
    ab[0] = 2.0 * width + rng.uniform(0.5, 1.5, n)
    for d in range(1, width + 1):
        ab[d, n - d:] = 0.0
    return ab


class TestLapack:
    """The routines of scipy's LAPACK wrapper loaded by file, against
    scipy.linalg.get_lapack_funcs on the same inputs."""

    @pytest.fixture(autouse=True)
    def fresh_loader(self):
        spatial._flapack.cache_clear()
        yield
        spatial._flapack.cache_clear()

    @staticmethod
    def check_bits():
        from scipy.linalg import get_lapack_funcs
        rng = np.random.default_rng(5)

        def ref(name):
            return get_lapack_funcs(name, (np.empty(0),))

        for n, width in ((1, 0), (7, 2), (40, 5), (60, 59)):
            ab = random_spd_band(rng, n, width)
            got = spatial._pbtrf(ab.copy(), lower=1)
            want = ref("pbtrf")(ab.copy(), lower=1)
            assert got[1] == want[1] == 0
            assert got[0].tobytes() == want[0].tobytes()
            chol = want[0]
            b = rng.standard_normal((n, 3))
            got, want = (spatial._pbtrs(chol, b, lower=1),
                         ref("pbtrs")(chol, b, lower=1))
            assert got[1] == want[1] == 0
            assert got[0].tobytes() == want[0].tobytes()
            z = rng.standard_normal((n, 4))
            got, want = (spatial._tbtrs(chol, z, uplo="L", trans="T"),
                         ref("tbtrs")(chol, z, uplo="L", trans="T"))
            assert got[1] == want[1] == 0
            assert got[0].tobytes() == want[0].tobytes()
        # not positive definite: the pivot of the fifth site fails
        ab = random_spd_band(rng, 9, 2)
        ab[0, 4] = -1.0
        got = spatial._pbtrf(ab.copy(), lower=1)
        want = ref("pbtrf")(ab.copy(), lower=1)
        assert got[1] == want[1] == 5
        assert got[0].tobytes() == want[0].tobytes()

    def test_loaded_by_file(self):
        import sys
        module = spatial._flapack()
        # not __name__: CPython re-creates a single-phase extension module
        # from the dict of its latest load, which is the package's once a
        # test in this process has imported scipy.linalg
        assert module.__spec__.name == "semvb._flapack"
        assert sys.modules["semvb._flapack"] is module
        assert module is not sys.modules.get("scipy.linalg._flapack")
        self.check_bits()

    def test_package_import_fallback(self, monkeypatch):
        import importlib.machinery
        import sys
        import scipy.linalg  # noqa: F401

        def no_file_load(name, path):
            raise ImportError(f"DLL load failed while importing {name}")

        monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader",
                            no_file_load)
        assert spatial._flapack() is sys.modules["scipy.linalg._flapack"]
        self.check_bits()


def singular_pair() -> spatial.SpatialWeights:
    """Doubled weights push an eigenvalue to 2: A is singular at rho = 0.5
    and its determinant negative at rho = 0.6."""
    return spatial.SpatialWeights(n=2, rows=[0, 1], cols=[1, 0],
                                  weights=[2.0, 2.0])


def outcome(f, *args):
    """repr of f(*args), exact for floats, or the SingularityError raised."""
    try:
        return repr(f(*args))
    except SingularityError as exc:
        return f"SingularityError: {exc}"


SUPERLU_CASES = {**PRODUCT_CASES, "singular pair": singular_pair}
SUPERLU_RHOS = (-0.95, -0.3, 0.0, 0.5, 0.6, 0.9)


class TestSuperLu:
    """SuperLU's compiled extension called directly, against scipy's splu
    and spsolve on the same matrices (oracles.py), bit for bit."""

    @pytest.fixture(autouse=True)
    def fresh_loader(self):
        spatial._superlu.cache_clear()
        yield
        spatial._superlu.cache_clear()

    @staticmethod
    def check_bits(name):
        from semvb.simulate import simulate_sem
        W = SUPERLU_CASES[name]()
        X = np.random.default_rng(2).standard_normal((W.n, 2))
        for rho in SUPERLU_RHOS:
            assert (outcome(spatial._lu_route, W, rho)
                    == outcome(lu_route_splu, W, rho))
            for kind, extra in ((ModelKind.SEM_GAU, {}),
                                (ModelKind.YJ_SEM_T, dict(nu=4.0, gamma=1.2))):
                params = ModelParams(beta=np.array([0.5, -1.0]), sigma2=0.7,
                                     rho=rho, **extra)
                got, want = (outcome(f, kind, X, W, params,
                                     np.random.default_rng(3))
                             for f in (simulate_sem, simulate_sem_spsolve))
                assert got == want

    @pytest.mark.parametrize("name", sorted(SUPERLU_CASES))
    def test_bit_for_bit_scipy(self, name):
        self.check_bits(name)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50, 1000])
    def test_perm_sign_is_csgraph(self, n):
        rng = np.random.default_rng(n)
        perms = [np.arange(n), np.roll(np.arange(n), 1)]
        perms += [rng.permutation(n) for _ in range(30)]
        for perm in perms:
            assert spatial._perm_sign(perm) == perm_sign_csgraph(perm)

    def test_loaded_by_file(self):
        import sys
        module = spatial._superlu()
        # not __name__: CPython re-creates a single-phase extension module
        # from the dict of its latest load, which is the package's once an
        # oracle in this process has imported scipy.sparse.linalg
        assert module.__spec__.name == "semvb._superlu"
        assert sys.modules["semvb._superlu"] is module
        assert module is not sys.modules.get(
            "scipy.sparse.linalg._dsolve._superlu")
        self.check_bits("weighted non-symmetric, empty rows")

    def test_package_import_fallback(self, monkeypatch):
        import importlib.machinery
        import sys
        import scipy.sparse.linalg  # noqa: F401

        def no_file_load(name, path):
            raise ImportError(f"DLL load failed while importing {name}")

        monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader",
                            no_file_load)
        assert (spatial._superlu()
                is sys.modules["scipy.sparse.linalg._dsolve._superlu"])
        for name in sorted(SUPERLU_CASES):
            self.check_bits(name)


class TestSparseLuRoute:
    """Past the eigen cap for W without a symmetrizer."""

    def test_directed_cycle_hand_values(self, monkeypatch):
        # det(I - rho P) = 1 - rho^3 for the 3-cycle permutation P
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 2)
        W = spatial.SpatialWeights(n=3, rows=[0, 1, 2], cols=[1, 2, 0],
                                   weights=[1.0, 1.0, 1.0])
        assert W.eigenvalues is None and W.sym_band is None
        for rho in (-0.7, 0.4):
            assert spatial.logdet_A(W, rho) == pytest.approx(
                np.log(1.0 - rho ** 3), abs=1e-12)
            assert spatial.trace_AinvW(W, rho) == pytest.approx(
                3.0 * rho ** 2 / (1.0 - rho ** 3), abs=1e-12)

    def test_matches_dense(self, monkeypatch):
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 4)
        W = reversed_ratio_lattice()
        assert W.eigenvalues is None and W.sym_band is None
        dense = csr(W).toarray()
        for rho in (-0.7, 0.2, 0.8):
            A = np.eye(W.n) - rho * dense
            sign, ld = np.linalg.slogdet(A)
            assert sign > 0
            assert spatial.logdet_A(W, rho) == pytest.approx(ld, abs=1e-10)
            tr = spatial.trace_AinvW(W, rho)
            assert tr == pytest.approx(np.trace(np.linalg.solve(A, dense)),
                                       abs=1e-10)
            fd = fd_derivative(lambda r: spatial.logdet_A(W, r), rho, h=1e-6)
            assert -fd == pytest.approx(tr, rel=1e-6)


class TestQuadForm:
    def test_matches_dense(self):
        # at sigma^2 = 1/2, loglik falls by exactly r^T M r from r = 0 to r
        rng = np.random.default_rng(3)
        W = spatial.build_rook_lattice(4, 4)
        dense = csr(W).toarray()
        r = rng.standard_normal(16)
        tau = rng.gamma(3.0, 1.0, size=16)
        for kind, rho, t in ((ModelKind.SEM_GAU, 0.55, None),
                             (ModelKind.SEM_T, -0.4, tau)):
            got = (loglik_at(kind, W, rho, np.zeros(16), t, sigma2=0.5)
                   - loglik_at(kind, W, rho, r, t, sigma2=0.5))
            assert got == pytest.approx(r @ dense_M(dense, rho, t) @ r,
                                        rel=1e-12)


def _over_all(n: int, known: np.ndarray, r_known: np.ndarray) -> np.ndarray:
    """The residual over all n sites: r_known at the known sites and NaN,
    which the conditional must not read, elsewhere."""
    r = np.full(n, np.nan)
    r[known] = r_known
    return r


class TestConditionalGaussian:
    @pytest.mark.parametrize("kind,seed", [(ModelKind.SEM_GAU, 0),
                                           (ModelKind.SEM_T, 1)])
    def test_against_schur_oracle(self, kind, seed):
        rng = np.random.default_rng(seed)
        W = spatial.build_rook_lattice(3, 4)
        dense = csr(W).toarray()
        n = 12
        tau = rng.gamma(2.0, 1.0, size=n) if kind.student_t else None
        sigma2 = 0.7
        unknown = np.array([2, 5, 6, 10])
        known = np.setdiff1d(np.arange(n), unknown)
        r_known = rng.standard_normal(known.size)

        cond = spatial.conditional_gaussian(kind, W, 0.6, tau, unknown,
                                            _over_all(n, known, r_known))

        cov = sigma2 * np.linalg.inv(dense_M(dense, 0.6, tau))
        mean0 = np.zeros(n)
        om, oc = schur_conditional(mean0, cov, known, unknown, r_known)
        np.testing.assert_allclose(cond.mean_offset, om, atol=1e-10)
        np.testing.assert_allclose(cond.covariance(sigma2), oc, atol=1e-10)

    def test_sample_moments(self):
        rng = np.random.default_rng(7)
        W = spatial.build_rook_lattice(3, 3)
        unknown = np.array([1, 4])
        r_known = rng.standard_normal(7)
        r = _over_all(9, np.setdiff1d(np.arange(9), unknown), r_known)
        cond = spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.5, None,
                                            unknown, r)
        draws = np.stack([cond.sample(2.0, rng.standard_normal(2))
                          for _ in range(40000)])
        np.testing.assert_allclose(draws.mean(axis=0), cond.mean_offset, atol=0.03)
        np.testing.assert_allclose(np.cov(draws.T), cond.covariance(2.0), atol=0.05)

    def test_all_observed_block_is_empty(self, capfd):
        # LAPACK's xerbla prints an illegal-argument line for an empty solve
        W = spatial.build_rook_lattice(3, 3)
        cond = spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.5, None,
                                            np.empty(0, dtype=np.int64),
                                            np.ones(9))
        assert cond.covariance(1.0).shape == (0, 0)
        assert cond.given(np.ones(9)).mean_offset.shape == (0,)
        assert cond.sample(1.0, np.empty(0)).shape == (0,)
        assert capfd.readouterr() == ("", "")

    def test_solve_failure_raises(self, monkeypatch):
        W = spatial.build_rook_lattice(2, 2)
        cond = spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.2, None,
                                            [3], np.ones(4))
        monkeypatch.setattr(spatial, "_pbtrs",
                            lambda ab, b, lower: (np.zeros_like(b), -8))
        with pytest.raises(SingularityError):
            cond.covariance(1.0)
        with pytest.raises(SingularityError):
            cond.given(np.ones(4))

    def test_shape_errors(self):
        # r must span all n sites, not only those outside the block
        W = spatial.build_rook_lattice(2, 2)
        for length in (3, 5):
            with pytest.raises(DimensionError):
                spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.2, None,
                                             [3], np.zeros(length))

    @pytest.mark.parametrize("block", [[2, 1], [1, 1], [-1, 2], [2, 4],
                                       [[1, 2]]],
                             ids=["unsorted", "duplicated", "negative",
                                  "past-n", "2-D"])
    def test_block_errors(self, block):
        W = spatial.build_rook_lattice(2, 2)
        with pytest.raises(DomainError):
            spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.2, None,
                                         np.array(block), np.zeros(4))

    @pytest.mark.parametrize("fill", [np.nan, 1e300])
    def test_block_residuals_not_read(self, fill):
        rng = np.random.default_rng(5)
        W = spatial.build_rook_lattice(4, 4)
        block = np.array([5, 6, 9])
        r = rng.standard_normal(16)
        want = spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.6, None,
                                            block, r)
        r[block] = fill
        got = spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.6, None,
                                           block, r)
        assert got.mean_offset.tobytes() == want.mean_offset.tobytes()


def _relabelled(W: spatial.SpatialWeights, perm: np.ndarray
                ) -> spatial.SpatialWeights:
    """W with site i renamed perm[i]."""
    return spatial.SpatialWeights(n=W.n, rows=perm[W.rows], cols=perm[W.cols],
                                  weights=W.weights,
                                  row_standardized=W.row_standardized)


def _weighted(W: spatial.SpatialWeights, seed: int) -> spatial.SpatialWeights:
    """D^-1 C for a random symmetric C on W's edges: unequal row entries."""
    c = np.random.default_rng(seed).uniform(0.5, 2.0, size=(W.n, W.n))
    c = (c + c.T)[W.rows, W.cols]
    w = c / np.bincount(W.rows, weights=c, minlength=W.n)[W.rows]
    return spatial.SpatialWeights(n=W.n, rows=W.rows, cols=W.cols, weights=w,
                                  row_standardized=True)


class TestBandedConditional:
    """The banded block conditional against the dense Schur complement."""

    LATTICE = spatial.build_rook_lattice(6, 6)
    PERM = np.random.default_rng(0).permutation(36)
    ROWS = np.array([7, 8, 9, 10, 13, 14, 16, 19, 20, 21, 22, 26])
    # (weights, unknown block, bandwidth of its M_uu in site order)
    CASES = {
        "row-major": (LATTICE, ROWS, 7),
        "weighted": (_weighted(LATTICE, 4), ROWS, 7),
        # sites in no spatial order: a full band
        "shuffled": (_relabelled(LATTICE, PERM), np.sort(PERM[ROWS]), 11),
        # sites three steps apart share no neighbour
        "isolated": (LATTICE, np.array([0, 3, 18, 21]), 0),
        "one-site": (LATTICE, np.array([14]), 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("rho", [0.6, -0.4])
    def test_against_schur_oracle(self, case, kind, rho):
        W, unknown, width = self.CASES[case]
        rng = np.random.default_rng(11)
        n = W.n
        tau = rng.gamma(2.0, 1.0, size=n) if kind.student_t else None
        known = np.setdiff1d(np.arange(n), unknown)
        r_known = rng.standard_normal(known.size)

        cond = spatial.conditional_gaussian(kind, W, rho, tau, unknown,
                                            _over_all(n, known, r_known))

        assert W._block_plan(unknown).width == width
        cov = 0.7 * np.linalg.inv(dense_M(csr(W).toarray(), rho, tau))
        om, oc = schur_conditional(np.zeros(n), cov, known, unknown, r_known)
        np.testing.assert_allclose(cond.mean_offset, om, atol=1e-10)
        np.testing.assert_allclose(cond.covariance(0.7), oc, atol=1e-10)
        # sample is mean_offset + sigma L^-T z: its columns over unit z
        # carry the covariance
        cols = np.stack([cond.sample(0.7, e) - cond.mean_offset
                         for e in np.eye(unknown.size)], axis=1)
        np.testing.assert_allclose(cols @ cols.T, oc, atol=1e-10)

    def test_plan_memoized_per_block(self):
        W, unknown, _ = self.CASES["row-major"]
        plan = W._block_plan(unknown)
        assert W._block_plan(unknown.copy()) is plan
        assert W._block_plan(unknown[:-1]) is not plan

    def test_not_positive_definite_raises(self):
        # without neighbours M_uu = 1 / tau_u, which tau_u = inf zeroes
        W = spatial.SpatialWeights(n=3, rows=[], cols=[], weights=[])
        with pytest.raises(SingularityError):
            spatial.conditional_gaussian(ModelKind.SEM_T, W, 0.3,
                                         np.array([1.0, np.inf, 1.0]), [1],
                                         np.zeros(3))
