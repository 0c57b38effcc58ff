"""Data generation: designs, inverse-gamma draws, and model simulation."""

import numpy as np
import pytest
import scipy.stats as st

from semvb.errors import SingularityError
from semvb.missingness import make_missingness_design
from semvb.models import ModelKind, ModelParams
from semvb.simulate import (draw_beta_preset, draw_inverse_gamma,
                            make_design, simulate_sem)
from semvb.spatial import SpatialWeights, build_rook_lattice

from oracles import csr, dense_A, sem_cov


class TestDesigns:
    def test_intercept_only(self):
        X = make_design(7, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(X, np.ones((7, 1)))

    def test_covariate_moments(self):
        X = make_design(20000, 3, np.random.default_rng(1))
        assert X.shape == (20000, 4)
        np.testing.assert_array_equal(X[:, 0], 1.0)
        se = 1.0 / np.sqrt(X.shape[0])
        assert np.all(np.abs(X[:, 1:].mean(axis=0)) < 3.5 * se)
        assert np.all(np.abs(X[:, 1:].std(axis=0) - 1.0) < 0.05)

    def test_missingness_design_lognormal(self):
        Xs = make_missingness_design(50000, np.random.default_rng(2))
        assert Xs.shape == (50000, 2)
        np.testing.assert_array_equal(Xs[:, 0], 1.0)
        assert np.all(Xs[:, 1] > 0)
        logs = np.log(Xs[:, 1])
        assert abs(logs.mean()) < 3.5 / np.sqrt(logs.size)
        assert abs(logs.std() - 1.0) < 0.05

    def test_beta_preset_support(self):
        beta = draw_beta_preset(200, np.random.default_rng(3))
        assert set(np.abs(beta)).issubset({1.0, 2.0, 3.0})

    def test_zero_pivot_reported_by_gssv_raises(self):
        # the directed 3-cycle with weight 2 at rho = 0.5: det A = 1 - 1 = 0
        # and SuperLU meets an exactly zero pivot. gssv reports it through
        # info and hands back the right-hand side, finite, unsolved
        from semvb.spatial import _superlu, a_matrix
        W = SpatialWeights(n=3, rows=[0, 1, 2], cols=[1, 2, 0],
                           weights=[2.0, 2.0, 2.0])
        data, indices, indptr = a_matrix(W, 0.5)
        x, info = _superlu().gssv(3, int(indptr[-1]), data, indices, indptr,
                                  np.ones(3), 1, options=dict(ColPerm=None))
        assert info != 0 and np.all(np.isfinite(x))
        params = ModelParams(beta=np.array([0.0]), sigma2=1.0, rho=0.5)
        with pytest.raises(SingularityError):
            simulate_sem(ModelKind.SEM_GAU, np.ones((3, 1)), W, params,
                         np.random.default_rng(8))

    def test_determinism(self):
        a = make_design(10, 2, np.random.default_rng(4))
        b = make_design(10, 2, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)


class TestInverseGamma:
    def test_positive(self):
        draws = draw_inverse_gamma(2.0, 2.0, np.random.default_rng(0),
                                   size=1000)
        assert np.all(draws > 0)

    def test_sample_mean(self):
        draws = draw_inverse_gamma(3.0, 6.0, np.random.default_rng(1),
                                   size=200000)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 6.0 / 2.0) < 3.5 * se

    def test_matches_scipy_distribution(self):
        draws = draw_inverse_gamma(2.5, 4.0, np.random.default_rng(2),
                                   size=50000)
        ref = st.invgamma(a=2.5, scale=4.0)
        ks = st.kstest(draws, ref.cdf)
        assert ks.pvalue > 1e-4

    def test_scalar_draw(self):
        x = draw_inverse_gamma(2.0, 2.0, np.random.default_rng(3))
        assert np.ndim(x) == 0 and x > 0


class TestSimulateSem:
    def test_iid_case_moments(self):
        # empty W makes A the identity: y = X beta + N(0, sigma2)
        n = 40000
        W = SpatialWeights(n=n, rows=[], cols=[], weights=[])
        X = np.ones((n, 1))
        params = ModelParams(beta=np.array([2.0]), sigma2=4.0, rho=0.3)
        y, tau = simulate_sem(ModelKind.SEM_GAU, X, W, params,
                              np.random.default_rng(0))
        assert tau is None
        assert abs(y.mean() - 2.0) < 3.5 * 2.0 / np.sqrt(n)
        assert abs(y.var(ddof=1) - 4.0) < 0.15

    def test_two_site_covariance(self):
        W = SpatialWeights(n=2, rows=[0, 1], cols=[1, 0], weights=[1.0, 1.0],
                           row_standardized=True)
        params = ModelParams(beta=np.array([0.0]), sigma2=1.5, rho=0.6)
        X = np.ones((2, 1))
        rng = np.random.default_rng(1)
        reps = np.stack([
            simulate_sem(ModelKind.SEM_GAU, X, W, params, rng)[0]
            for _ in range(8000)])
        cov_hat = np.cov(reps.T)
        cov = sem_cov(csr(W).toarray(), 0.6, 1.5, None)
        n = reps.shape[0]
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        assert np.all(np.abs(cov_hat - cov) < 3.5 * se)

    def test_student_t_tau_scales(self):
        W = build_rook_lattice(3, 3)
        X = make_design(9, 1, np.random.default_rng(2))
        params = ModelParams(beta=np.array([1.0, 0.5]), sigma2=1.0, rho=0.4,
                             nu=4.0)
        y, tau = simulate_sem(ModelKind.SEM_T, X, W, params,
                              np.random.default_rng(3))
        assert tau.shape == (9,) and np.all(tau > 0)
        assert np.all(np.isfinite(y))

    def test_large_nu_approaches_gaussian(self):
        n = 2500
        W = SpatialWeights(n=n, rows=[], cols=[], weights=[])
        X = np.ones((n, 1))
        params = ModelParams(beta=np.array([0.0]), sigma2=2.0, rho=0.0,
                             nu=1e6)
        y, _ = simulate_sem(ModelKind.SEM_T, X, W, params,
                            np.random.default_rng(4))
        assert abs(y.var(ddof=1) - 2.0) < 3.5 * 2.0 * np.sqrt(2.0 / n)
        assert abs(st.skew(y)) < 0.2

    def test_gamma_one_matches_identity_kind(self):
        W = build_rook_lattice(4, 4)
        X = make_design(16, 2, np.random.default_rng(5))
        base = dict(beta=np.array([1.0, -1.0, 0.5]), sigma2=1.0, rho=0.5)
        y_id, _ = simulate_sem(ModelKind.SEM_GAU, X, W,
                               ModelParams(**base), np.random.default_rng(6))
        y_yj, _ = simulate_sem(ModelKind.YJ_SEM_GAU, X, W,
                               ModelParams(**base, gamma=1.0),
                               np.random.default_rng(6))
        np.testing.assert_allclose(y_yj, y_id, atol=1e-12)

    def test_reference_design_left_skew(self):
        # gamma = 1.25 compresses the upper tail, so skewness is negative
        rng = np.random.default_rng(7)
        W = build_rook_lattice(25, 25)
        X = make_design(625, 5, rng)
        params = ModelParams(beta=draw_beta_preset(6, rng), sigma2=1.0,
                             rho=0.8, gamma=1.25)
        y, _ = simulate_sem(ModelKind.YJ_SEM_GAU, X, W, params, rng)
        assert st.skew(y) < 0

    def test_singular_A_raises(self):
        W = SpatialWeights(n=2, rows=[0, 1], cols=[1, 0], weights=[2.0, 2.0])
        params = ModelParams(beta=np.array([0.0]), sigma2=1.0, rho=0.5)
        with pytest.raises(SingularityError):
            simulate_sem(ModelKind.SEM_GAU, np.ones((2, 1)), W, params,
                         np.random.default_rng(8))

    def test_determinism(self):
        W = build_rook_lattice(3, 3)
        X = make_design(9, 1, np.random.default_rng(9))
        params = ModelParams(beta=np.array([1.0, 2.0]), sigma2=0.5, rho=-0.3,
                             nu=5.0, gamma=0.8)
        a, ta = simulate_sem(ModelKind.YJ_SEM_T, X, W, params,
                             np.random.default_rng(10))
        b, tb = simulate_sem(ModelKind.YJ_SEM_T, X, W, params,
                             np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ta, tb)
