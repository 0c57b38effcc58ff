"""Likelihoods, priors, and log h assembly against dense oracles."""

import numpy as np
import pytest
import scipy.stats as st

from semvb.errors import DimensionError, DomainError
from semvb import likelihoods as lk
from semvb.models import (MissingnessParams, ModelKind, ModelParams, Priors,
                          link_forward)
from semvb.spatial import SpatialWeights, build_rook_lattice
from semvb.transforms import yj_forward

from oracles import csr, mvn_logpdf, mvt_logpdf, sem_cov
from util import ALL_KINDS, random_instance


def empty_W(n: int) -> SpatialWeights:
    return SpatialWeights(n=n, rows=[], cols=[], weights=[])


def single_site_dataset(y_val: float) -> lk.Dataset:
    return lk.Dataset(y=[y_val], X=[[1.0]], W=empty_W(1))


class TestDataset:
    def test_missing_mask_and_complete(self):
        W = empty_W(3)
        d = lk.Dataset(y=[1.0, np.nan, 2.0], X=np.ones((3, 1)), W=W)
        np.testing.assert_array_equal(d.missing, [False, True, False])
        assert d.n_missing == 1
        filled = d.complete([5.0])
        np.testing.assert_array_equal(filled, [1.0, 5.0, 2.0])
        with pytest.raises(DimensionError):
            d.complete([1.0, 2.0])
        with pytest.raises(DomainError):
            d.require_complete()

    def test_y_is_a_read_only_copy(self):
        # the YJ caches are built from y, so y must not change under them
        y = np.array([0.5, np.nan, -1.0])
        d = lk.Dataset(y=y, X=np.ones((3, 1)), W=empty_W(3))
        y[0] = 9.0
        assert d.y[0] == 0.5
        with pytest.raises(ValueError):
            d.y[0] = 2.0

    def test_intercept_required(self):
        with pytest.raises(DomainError):
            lk.Dataset(y=[0.0], X=[[2.0]], W=empty_W(1))

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            lk.Dataset(y=[0.0, 1.0], X=[[1.0]], W=empty_W(1))

    def test_layout_sizes_match_parameter_counts(self):
        # full data: r+3, r+4+n, r+4, r+5+n; missing adds q+2
        W = build_rook_lattice(2, 3)
        r, q, n = 2, 1, 6
        X = np.column_stack([np.ones(n), np.zeros((n, r))])
        Xs = np.column_stack([np.ones(n), np.zeros((n, q))])
        y = np.zeros(n)
        y[0] = np.nan
        full = lk.Dataset(y=np.zeros(n), X=X, W=W)
        miss = lk.Dataset(y=y, X=X, W=W, Xstar=Xs)
        expected_full = {ModelKind.SEM_GAU: r + 3, ModelKind.SEM_T: r + 4 + n,
                         ModelKind.YJ_SEM_GAU: r + 4, ModelKind.YJ_SEM_T: r + 5 + n}
        for kind, size in expected_full.items():
            assert lk.layout_full(kind, full).size == size
            assert lk.layout_missing(kind, miss).size == size + q + 2
            assert len(lk.layout_full(kind, full).names()) == size


def terms(kind, y, X, beta, gamma=None, W=None, rho=0.0):
    """`_loglik_terms` at the data's own y: (loglik, r, W r, A r, ...)."""
    data = lk.Dataset(y=y, X=X, W=empty_W(len(y)) if W is None else W)
    params = ModelParams(beta=beta, sigma2=1.0, rho=rho,
                         nu=5.0 if kind.student_t else None, gamma=gamma)
    return lk._loglik_terms(kind, data, params, None, data.response)


class TestResidual:
    def test_zero_beta_identity(self):
        y = np.array([0.3, -1.0, 2.0])
        X = np.column_stack([np.ones(3), np.arange(3.0)])
        r = terms(ModelKind.SEM_GAU, y, X, np.zeros(2))[1]
        np.testing.assert_array_equal(r, y)

    def test_gamma_one_matches_identity(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(5)
        X = np.column_stack([np.ones(5), rng.standard_normal(5)])
        beta = np.array([0.5, -1.2])
        a = terms(ModelKind.SEM_GAU, y, X, beta)[1]
        b = terms(ModelKind.YJ_SEM_GAU, y, X, beta, gamma=1.0)[1]
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_hand_case_composes_forward_transform(self):
        y = np.array([1.0, -0.5, 0.0])
        X = np.ones((3, 1))
        beta = np.array([0.25])
        got = terms(ModelKind.YJ_SEM_T, y, X, beta, gamma=0.5)[1]
        np.testing.assert_allclose(got, yj_forward(y, 0.5) - 0.25, atol=1e-14)

    def test_a_r_matches_dense(self):
        rng = np.random.default_rng(0)
        W = build_rook_lattice(4, 5)
        y = rng.standard_normal(20)
        X = np.column_stack([np.ones(20), rng.standard_normal(20)])
        beta = np.array([0.3, -0.7])
        _, r, _, ar, *_ = terms(ModelKind.SEM_GAU, y, X, beta, W=W, rho=0.6)
        A = np.eye(20) - 0.6 * csr(W).toarray()
        np.testing.assert_allclose(r, y - X @ beta, atol=1e-14)
        np.testing.assert_allclose(ar, A @ r, atol=1e-12)

    def test_missing_entries_rejected(self):
        data = lk.Dataset(y=[np.nan], X=np.ones((1, 1)), W=empty_W(1))
        with pytest.raises(DomainError):
            data.response
        with pytest.raises(DomainError):
            lk._Response(data, np.array([np.nan]))


class TestLoglik:
    def test_standard_normal_single_site(self):
        d = single_site_dataset(0.0)
        p = ModelParams(beta=np.zeros(1), sigma2=1.0, rho=0.0)
        assert lk.loglik(ModelKind.SEM_GAU, d, p) == pytest.approx(
            -0.5 * np.log(2.0 * np.pi), abs=1e-12)

    def test_yj_at_gamma_one_equals_identity_kind(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=5)
        d, p = inst["data"], inst["params"]
        p_yj = ModelParams(beta=p.beta, sigma2=p.sigma2, rho=p.rho, gamma=1.0)
        assert lk.loglik(ModelKind.YJ_SEM_GAU, d, p_yj) == pytest.approx(
            lk.loglik(ModelKind.SEM_GAU, d, p), abs=1e-10)

    def test_t_kind_at_unit_tau_equals_gaussian(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=6)
        d, p = inst["data"], inst["params"]
        p_t = ModelParams(beta=p.beta, sigma2=p.sigma2, rho=p.rho, nu=5.0)
        got = lk.loglik(ModelKind.SEM_T, d, p_t, tau=np.ones(d.n))
        assert got == pytest.approx(lk.loglik(ModelKind.SEM_GAU, d, p), abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dense_mvn_oracle(self, kind):
        # transformed response is multivariate normal with SAR covariance;
        # YJ kinds add the change-of-variables Jacobian
        for seed in range(6):
            inst = random_instance(kind, seed=seed, lattice=(2, 3))
            d, p, tau = inst["data"], inst["params"], inst["tau"]
            W_dense = csr(d.W).toarray()
            cov = sem_cov(W_dense, p.rho, p.sigma2, tau)
            z = yj_forward(d.y, p.gamma) if kind.yeo_johnson else d.y
            expected = mvn_logpdf(z, d.X @ p.beta, cov)
            if kind.yeo_johnson:
                from semvb.transforms import yj_dy
                expected += float(np.sum(np.log(yj_dy(d.y, p.gamma))))
            assert lk.loglik(kind, d, p, tau) == pytest.approx(expected, abs=1e-9)

    def test_missing_data_rejected(self):
        W = empty_W(2)
        d = lk.Dataset(y=[0.0, np.nan], X=np.ones((2, 1)), W=W)
        p = ModelParams(beta=np.zeros(1), sigma2=1.0, rho=0.0)
        with pytest.raises(DomainError):
            lk.loglik(ModelKind.SEM_GAU, d, p)


class TestMarginalT:
    def test_large_nu_approaches_gaussian(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=7, lattice=(2, 2))
        d, p = inst["data"], inst["params"]
        p_t = ModelParams(beta=p.beta, sigma2=p.sigma2, rho=p.rho, nu=1e6)
        got = lk.marginal_loglik_t(ModelKind.SEM_T, d, p_t)
        assert got == pytest.approx(lk.loglik(ModelKind.SEM_GAU, d, p), abs=1e-3)

    def test_yj_variant_at_gamma_one(self):
        inst = random_instance(ModelKind.SEM_T, seed=8, lattice=(2, 3))
        d, p = inst["data"], inst["params"]
        p_yj = ModelParams(beta=p.beta, sigma2=p.sigma2, rho=p.rho,
                           nu=p.nu, gamma=1.0)
        assert lk.marginal_loglik_t(ModelKind.YJ_SEM_T, d, p_yj) == pytest.approx(
            lk.marginal_loglik_t(ModelKind.SEM_T, d, p), abs=1e-10)

    def test_single_site_scaled_t(self):
        d = single_site_dataset(1.3)
        p = ModelParams(beta=np.array([0.2]), sigma2=0.8, rho=0.0, nu=5.0)
        got = lk.marginal_loglik_t(ModelKind.SEM_T, d, p)
        expected = st.t.logpdf(1.3, df=5.0, loc=0.2, scale=np.sqrt(0.8))
        assert got == pytest.approx(float(expected), abs=1e-10)

    def test_dense_mvt_oracle(self):
        for seed in (0, 1, 2):
            inst = random_instance(ModelKind.SEM_T, seed=seed, lattice=(2, 3))
            d, p = inst["data"], inst["params"]
            W_dense = csr(d.W).toarray()
            A = np.eye(d.n) - p.rho * W_dense
            scale = p.sigma2 * np.linalg.inv(A.T @ A)
            expected = mvt_logpdf(d.y, d.X @ p.beta, scale, p.nu)
            assert lk.marginal_loglik_t(ModelKind.SEM_T, d, p) == pytest.approx(
                expected, abs=1e-9)

    def test_gaussian_kind_rejected(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=0, lattice=(2, 2))
        with pytest.raises(DomainError):
            lk.marginal_loglik_t(ModelKind.SEM_GAU, inst["data"], inst["params"])


class TestLogPm:
    def test_psi_zero(self):
        psi = MissingnessParams(psi_x=np.zeros(2), psi_y=0.0)
        y = np.array([1.0, -2.0, 0.5])
        Xs = np.column_stack([np.ones(3), np.arange(3.0)])
        m = np.array([1.0, 0.0, 1.0])
        assert lk.log_p_m(m, y, Xs, psi) == pytest.approx(3.0 * np.log(0.5),
                                                          abs=1e-12)

    def test_hand_logistic(self):
        # predictor log 2 -> p = 2/3; observed m = 1 contributes log(2/3)
        psi = MissingnessParams(psi_x=np.array([np.log(2.0)]), psi_y=0.0)
        got = lk.log_p_m(np.array([1.0]), np.array([0.0]), np.ones((1, 1)), psi)
        assert got == pytest.approx(np.log(2.0 / 3.0), abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(6)
        Xs = np.column_stack([np.ones(6), rng.standard_normal(6)])
        psi = MissingnessParams(psi_x=np.array([0.4, -0.7]), psi_y=0.3)
        m = (rng.random(6) < 0.5).astype(float)
        eta = Xs @ psi.psi_x + psi.psi_y * y
        p = 1.0 / (1.0 + np.exp(-eta))
        total = lk.log_p_m(m, y, Xs, psi) + lk.log_p_m(1.0 - m, y, Xs, psi)
        assert total == pytest.approx(float(np.sum(np.log(p) + np.log1p(-p))),
                                      abs=1e-10)

    def test_extreme_predictors_finite(self):
        psi = MissingnessParams(psi_x=np.array([500.0]), psi_y=0.0)
        got = lk.log_p_m(np.array([0.0]), np.array([0.0]), np.ones((1, 1)), psi)
        assert got == pytest.approx(-500.0)


class TestLogPrior:
    def test_zero_theta_gaussian_kernels(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=0, lattice=(2, 2))
        layout = inst["layout"]
        assert lk.log_prior(layout, np.zeros(layout.size), Priors()) == 0.0

    def test_doubling_variance_halves_penalty(self):
        inst = random_instance(ModelKind.YJ_SEM_GAU, seed=1, lattice=(2, 2))
        layout, theta = inst["layout"], inst["theta"]
        base = lk.log_prior(layout, theta, Priors())
        wide = lk.log_prior(layout, theta, Priors(
            var_beta=200.0, var_omega=200.0, var_rho=200.0,
            var_nu=200.0, var_gamma=200.0, var_psi=200.0))
        assert wide == pytest.approx(base / 2.0, rel=1e-12)

    def test_tau_block_matches_inverse_gamma_oracle(self):
        # theta = 0 gives nu = 4 and tau = 1 at every site; per site the
        # block is the IG(2,2) log density at 1 plus a zero log-Jacobian
        inst = random_instance(ModelKind.SEM_T, seed=2, lattice=(2, 2))
        layout = inst["layout"]
        got = lk.log_prior(layout, np.zeros(layout.size), Priors())
        per_site = st.invgamma.logpdf(1.0, a=2.0, scale=2.0)
        assert got == pytest.approx(4 * float(per_site), abs=1e-12)
        assert got == pytest.approx(4 * (2.0 * np.log(2.0) - 2.0), abs=1e-12)

    def test_tau_block_random_theta(self):
        inst = random_instance(ModelKind.YJ_SEM_T, seed=3, lattice=(2, 2))
        layout, theta = inst["layout"], inst["theta"]
        nu = 3.0 + np.exp(theta[layout.nu])
        tau = np.exp(theta[layout.tau])
        expected = float(np.sum(st.invgamma.logpdf(tau, a=nu / 2.0, scale=nu / 2.0)
                                + np.log(tau)))
        gauss = 0.0
        for block in (theta[layout.beta],):
            gauss -= 0.5 * np.sum(block ** 2) / 100.0
        for idx in (layout.omega, layout.rho, layout.nu, layout.gamma):
            gauss -= 0.5 * theta[idx] ** 2 / 100.0
        assert lk.log_prior(layout, theta, Priors()) == pytest.approx(
            gauss + expected, abs=1e-10)


class TestLogH:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_full_is_loglik_plus_prior(self, kind):
        inst = random_instance(kind, seed=11)
        d, layout, theta = inst["data"], inst["layout"], inst["theta"]
        from semvb.models import link_inverse
        params, tau, _ = link_inverse(kind, layout, theta)
        expected = lk.loglik(kind, d, params, tau) + lk.log_prior(
            layout, theta, Priors())
        assert lk.log_h_full(kind, d, theta, Priors()) == pytest.approx(
            expected, abs=1e-12)

    def test_shift_in_y_moves_only_likelihood(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=12)
        d, theta = inst["data"], inst["theta"]
        pri = Priors()
        base = lk.log_h_full(ModelKind.SEM_GAU, d, theta, pri)
        shifted = lk.log_h_full(ModelKind.SEM_GAU, d.with_y(d.y + 1.0), theta, pri)
        from semvb.models import link_inverse
        params, _, _ = link_inverse(ModelKind.SEM_GAU, inst["layout"], theta)
        dl = (lk.loglik(ModelKind.SEM_GAU, d.with_y(d.y + 1.0), params)
              - lk.loglik(ModelKind.SEM_GAU, d, params))
        assert shifted - base == pytest.approx(dl, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_missing_psi_zero_decomposition(self, kind):
        inst = random_instance(kind, seed=13, missing_frac=0.25)
        d, layout, theta = inst["data"], inst["layout"], inst["theta"]
        theta = theta.copy()
        theta[layout.psi] = 0.0
        y_u = inst["y_u"]
        completed = d.with_y(d.complete(y_u))
        full = lk.log_h_full(kind, completed, theta[:layout.psi.start], Priors())
        got = lk.log_h_missing(kind, d, theta, y_u, Priors())
        assert got == pytest.approx(full + d.n * np.log(0.5), abs=1e-10)

    def test_hand_assembly_one_missing(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=14, lattice=(2, 2),
                               missing_frac=0.25)
        d, layout, theta = inst["data"], inst["layout"], inst["theta"]
        y_u = inst["y_u"]
        from semvb.models import link_inverse
        params, tau, psi = link_inverse(ModelKind.SEM_GAU, layout, theta)
        yc = d.complete(y_u)
        expected = (lk.loglik(ModelKind.SEM_GAU, d.with_y(yc), params, tau)
                    + lk.log_p_m(d.missing, yc, d.Xstar, psi)
                    + lk.log_prior(layout, theta, Priors()))
        assert lk.log_h_missing(ModelKind.SEM_GAU, d, theta, y_u,
                                Priors()) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_a_rebuilt_dataset_bit_for_bit(self, kind):
        # the completed response is scored without a new Dataset; a
        # Dataset rebuilt around it gives the same bits
        inst = random_instance(kind, seed=16, missing_frac=0.3)
        d, layout, theta = inst["data"], inst["layout"], inst["theta"]
        y_u = inst["y_u"] + 0.3
        from semvb.models import link_inverse
        params, tau, psi = link_inverse(kind, layout, theta)
        yc = d.complete(y_u)
        expected = (lk.loglik(kind, d.with_y(yc), params, tau)
                    + lk.log_p_m(d.missing, yc, d.Xstar, psi)
                    + lk.log_prior(layout, theta, Priors()))
        assert lk.log_h_missing(kind, d, theta, y_u, Priors()) == expected

    def test_wrong_yu_length(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=15, missing_frac=0.25)
        with pytest.raises(DimensionError):
            lk.log_h_missing(ModelKind.SEM_GAU, inst["data"], inst["theta"],
                             np.zeros(1), Priors())
