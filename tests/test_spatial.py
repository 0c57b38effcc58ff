"""Spatial operator algebra against dense linear-algebra oracles."""

import numpy as np
import pytest

from semvb.errors import DimensionError, DomainError, SingularityError
from semvb.models import ModelKind
from semvb import spatial
from semvb.variational import _submatrix_weights

from oracles import dense_M, fd_derivative, schur_conditional


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
        dense = W.csr.toarray()
        np.testing.assert_array_equal(dense, dense.T)

    def test_raw_option(self):
        W = spatial.build_rook_lattice(2, 2, row_standardize=False)
        assert not W.row_standardized
        assert set(np.unique(W.weights)) == {1.0}

    def test_bad_dimensions(self):
        with pytest.raises(DimensionError):
            spatial.build_rook_lattice(0, 5)


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


class TestApplyA:
    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        W = spatial.build_rook_lattice(4, 5)
        dense = W.csr.toarray()
        v = rng.standard_normal(20)
        A = np.eye(20) - 0.6 * dense
        np.testing.assert_allclose(spatial.apply_A(W, 0.6, v), A @ v, atol=1e-12)
        np.testing.assert_allclose(spatial.apply_At(W, 0.6, v), A.T @ v, atol=1e-12)

    def test_rho_domain(self):
        W = two_node_raw()
        with pytest.raises(DomainError):
            spatial.apply_A(W, 1.0, np.zeros(2))

    def test_length_mismatch(self):
        W = two_node_raw()
        with pytest.raises(DimensionError):
            spatial.apply_A(W, 0.3, np.zeros(3))


class TestLogdet:
    def test_two_node_hand_value(self):
        # det(A^T A) = det(A)^2 = (1 - 0.25)^2
        W = two_node_raw()
        got = spatial.logdet_M(ModelKind.SEM_GAU, W, 0.5)
        assert got == pytest.approx(2.0 * np.log(0.75), abs=1e-12)

    def test_t_kind_tau_contribution(self):
        # rho = 0 makes A the identity; only the tau determinant remains
        W = spatial.SpatialWeights(n=3, rows=[0, 1, 2], cols=[1, 2, 0],
                                   weights=[1.0, 1.0, 1.0])
        tau = np.full(3, np.e)
        got = spatial.logdet_M(ModelKind.SEM_T, W, 0.0, tau)
        assert got == pytest.approx(-3.0, abs=1e-12)

    def test_matches_slogdet_on_lattice(self):
        W = spatial.build_rook_lattice(5, 5)
        dense = W.csr.toarray()
        for rho in (-0.9, -0.3, 0.0, 0.4, 0.85):
            sign, ld = np.linalg.slogdet(np.eye(25) - rho * dense)
            assert sign > 0
            assert spatial.logdet_A(W, rho) == pytest.approx(ld, abs=1e-10)

    def test_splu_path_matches_eigen_path(self):
        W = spatial.build_rook_lattice(6, 7)
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

    def test_indefinite_past_cap_takes_lu_value(self, monkeypatch):
        # two disjoint pairs with weight 2: eigenvalues 2, 2, -2, -2, so
        # I - 0.6 S is indefinite but det(A) = 0.04 * 4.84 > 0
        def make():
            return spatial.SpatialWeights(n=4, rows=[0, 1, 2, 3],
                                          cols=[1, 0, 3, 2],
                                          weights=[2.0, 2.0, 2.0, 2.0])
        W_eig, rho = make(), 0.6
        dense = W_eig.csr.toarray()
        A = np.eye(4) - rho * dense
        sign, ld = np.linalg.slogdet(A)
        assert sign > 0 and ld == pytest.approx(np.log(0.1936), abs=1e-12)
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 1)
        W = make()
        assert W.eigenvalues is None and W.sym_band is not None
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
        with pytest.raises(DomainError):
            spatial.logdet_M(ModelKind.SEM_T, W, 0.2, None)
        with pytest.raises(DomainError):
            spatial.logdet_M(ModelKind.SEM_T, W, 0.2, np.array([1.0, -1.0]))


class TestTrace:
    def test_matches_dense_inverse(self):
        W = spatial.build_rook_lattice(4, 6)
        dense = W.csr.toarray()
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
    return _submatrix_weights(spatial.build_rook_lattice(7, 7), keep)


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
        hw = h[:, None] * W.csr.toarray()
        np.testing.assert_allclose(hw, hw.T, rtol=1e-12, atol=0.0)
        assert W.eigenvalues.dtype == np.float64

    def test_row_standardized_lattice_is_degree(self):
        W = spatial.build_rook_lattice(4, 5)
        degree = np.bincount(W.rows, minlength=W.n)
        np.testing.assert_allclose(W.symmetrizer / W.symmetrizer[0],
                                   degree / degree[0], rtol=1e-14)

    def test_eigenvalues_match_general_route(self):
        W = weighted_symmetric_c()
        general = np.sort(np.linalg.eigvals(W.csr.toarray()).real)
        np.testing.assert_allclose(np.sort(W.eigenvalues), general, atol=1e-12)

    def test_none_without_balance(self):
        cycle = spatial.SpatialWeights(n=3, rows=[0, 1, 2], cols=[1, 2, 0],
                                       weights=[1.0, 1.0, 1.0])
        assert cycle.symmetrizer is None
        assert np.iscomplexobj(cycle.eigenvalues)
        assert reversed_ratio_lattice().symmetrizer is None


class TestBandedRoute:
    """Past the eigen cap, lowered here below n, for symmetrizable W."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIZABLE))
    def test_matches_eigen_route(self, name, monkeypatch):
        make, rhos = SYMMETRIZABLE[name]
        W_eig = make()
        expected = [(spatial.logdet_A(W_eig, r), spatial.trace_AinvW(W_eig, r))
                    for r in rhos]
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 4)
        W = make()
        assert W.eigenvalues is None and W.sym_band is not None
        for rho, (ld, tr) in zip(rhos, expected):
            assert spatial._banded_cholesky(W, rho) is not None
            assert spatial.logdet_A(W, rho) == pytest.approx(ld, abs=1e-10)
            assert spatial.trace_AinvW(W, rho) == pytest.approx(tr, abs=1e-10)

    def test_trace_is_derivative_of_logdet(self, monkeypatch):
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 4)
        W = spatial.build_rook_lattice(6, 5)
        for rho in (-0.6, 0.3, 0.85):
            fd = fd_derivative(lambda r: spatial.logdet_A(W, r), rho, h=1e-6)
            assert -fd == pytest.approx(spatial.trace_AinvW(W, rho), rel=1e-6)

    def test_not_positive_definite_falls_back(self, monkeypatch):
        # eigenvalues of W are +-2: I - 0.6 S is indefinite and det < 0
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 1)
        W = spatial.SpatialWeights(n=2, rows=[0, 1], cols=[1, 0],
                                   weights=[2.0, 2.0])
        assert spatial._banded_cholesky(W, 0.6) is None
        with pytest.raises(SingularityError):
            spatial.logdet_A(W, 0.6)
        with pytest.raises(SingularityError):
            spatial.logdet_A(W, 0.5)  # exactly singular
        with pytest.raises(SingularityError):
            spatial.trace_AinvW(W, 0.5)


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
        dense = W.csr.toarray()
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
        rng = np.random.default_rng(3)
        W = spatial.build_rook_lattice(4, 4)
        dense = W.csr.toarray()
        r = rng.standard_normal(16)
        tau = rng.gamma(3.0, 1.0, size=16)
        got = spatial.quad_form_M(ModelKind.SEM_GAU, W, 0.55, None, r)
        assert got == pytest.approx(r @ dense_M(dense, 0.55, None) @ r, rel=1e-12)
        got_t = spatial.quad_form_M(ModelKind.YJ_SEM_T, W, -0.4, tau, r)
        assert got_t == pytest.approx(r @ dense_M(dense, -0.4, tau) @ r, rel=1e-12)


class TestPartition:
    def test_from_mask(self):
        mask = np.array([False, True, True, False, True])
        p = spatial.Partition.from_missing_mask(mask)
        np.testing.assert_array_equal(p.observed_idx, [0, 3])
        np.testing.assert_array_equal(p.unobserved_idx, [1, 2, 4])
        assert p.n == 5

    def test_validation(self):
        with pytest.raises(DomainError):
            spatial.Partition(observed_idx=[0, 1], unobserved_idx=[1, 2])
        with pytest.raises(DomainError):
            spatial.Partition(observed_idx=[0, 2], unobserved_idx=[3])
        with pytest.raises(DomainError):
            spatial.Partition(observed_idx=[2, 0], unobserved_idx=[1])


class TestConditionalGaussian:
    @pytest.mark.parametrize("kind,seed", [(ModelKind.SEM_GAU, 0),
                                           (ModelKind.SEM_T, 1)])
    def test_against_schur_oracle(self, kind, seed):
        rng = np.random.default_rng(seed)
        W = spatial.build_rook_lattice(3, 4)
        dense = W.csr.toarray()
        n = 12
        tau = rng.gamma(2.0, 1.0, size=n) if kind.student_t else None
        sigma2 = 0.7
        unknown = np.array([2, 5, 6, 10])
        known = np.setdiff1d(np.arange(n), unknown)
        part = spatial.Partition(observed_idx=known, unobserved_idx=unknown)
        r_known = rng.standard_normal(known.size)

        cond = spatial.conditional_gaussian(kind, W, 0.6, tau, part, r_known)

        cov = sigma2 * np.linalg.inv(dense_M(dense, 0.6, tau))
        mean0 = np.zeros(n)
        om, oc = schur_conditional(mean0, cov, known, unknown, r_known)
        np.testing.assert_allclose(cond.mean_offset, om, atol=1e-10)
        np.testing.assert_allclose(cond.covariance(sigma2), oc, atol=1e-10)

    def test_sample_moments(self):
        rng = np.random.default_rng(7)
        W = spatial.build_rook_lattice(3, 3)
        part = spatial.Partition.from_missing_mask(
            np.array([0, 1, 0, 0, 1, 0, 0, 0, 0], dtype=bool))
        r_known = rng.standard_normal(7)
        cond = spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.5, None,
                                            part, r_known)
        draws = np.stack([cond.sample(2.0, rng.standard_normal(2))
                          for _ in range(40000)])
        np.testing.assert_allclose(draws.mean(axis=0), cond.mean_offset, atol=0.03)
        np.testing.assert_allclose(np.cov(draws.T), cond.covariance(2.0), atol=0.05)

    def test_shape_errors(self):
        W = spatial.build_rook_lattice(2, 2)
        part = spatial.Partition(observed_idx=[0, 1, 2], unobserved_idx=[3])
        with pytest.raises(DimensionError):
            spatial.conditional_gaussian(ModelKind.SEM_GAU, W, 0.2, None, part,
                                         np.zeros(2))


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
        part = spatial.Partition(observed_idx=known, unobserved_idx=unknown)
        r_known = rng.standard_normal(known.size)

        cond = spatial.conditional_gaussian(kind, W, rho, tau, part, r_known)

        assert W._block_plan(unknown).width == width
        cov = 0.7 * np.linalg.inv(dense_M(W.csr.toarray(), rho, tau))
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
        part = spatial.Partition(observed_idx=[0, 2], unobserved_idx=[1])
        with pytest.raises(SingularityError):
            spatial.conditional_gaussian(ModelKind.SEM_T, W, 0.3,
                                         np.array([1.0, np.inf, 1.0]), part,
                                         np.zeros(2))
