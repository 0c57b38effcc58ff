"""Analytic gradients against central finite differences of the targets."""

import math

import numpy as np
import pytest
import scipy.special as sc

from semvb import gradients as gr
from semvb import likelihoods as lk
from semvb import spatial
from semvb.errors import DomainError, SingularityError
from semvb.models import ModelKind, Priors, link_inverse
from semvb.transforms import gamma_link

from oracles import fd_derivative, fd_gradient
from util import ALL_KINDS, random_instance, with_spectrum


class TestFullDataFD:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_fd(self, kind):
        pri = Priors()
        for seed in range(5):
            inst = random_instance(kind, seed=seed)
            d, theta = inst["data"], inst["theta"]
            analytic, _ = gr.grad_log_h_full(kind, d, theta, pri)
            fd = fd_gradient(lambda t: lk.log_h_full(kind, d, t, pri),
                             theta, h=1e-5)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-6)

    def test_beta_gradient_at_gls_optimum(self):
        # at rho = 0 with beta the least-squares solution the data term of
        # the beta block vanishes, leaving only the prior pull
        inst = random_instance(ModelKind.SEM_GAU, seed=9)
        d, layout = inst["data"], inst["layout"]
        beta_hat, *_ = np.linalg.lstsq(d.X, d.y, rcond=None)
        theta = np.zeros(layout.size)
        theta[layout.beta] = beta_hat
        g, _ = gr.grad_log_h_full(ModelKind.SEM_GAU, d, theta, Priors())
        np.testing.assert_allclose(g[layout.beta], -beta_hat / 100.0, atol=1e-9)

    def test_zero_beta_has_no_prior_pull(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=10)
        d, layout, theta = inst["data"], inst["layout"], inst["theta"].copy()
        theta[layout.beta] = 0.0
        g, _ = gr.grad_log_h_full(ModelKind.SEM_GAU, d, theta, Priors())
        wide = Priors(var_beta=1e12)
        g_wide, _ = gr.grad_log_h_full(ModelKind.SEM_GAU, d, theta, wide)
        np.testing.assert_allclose(g[layout.beta], g_wide[layout.beta],
                                   atol=1e-12)

    @pytest.mark.parametrize("kind,base", [
        (ModelKind.YJ_SEM_GAU, ModelKind.SEM_GAU),
        (ModelKind.YJ_SEM_T, ModelKind.SEM_T),
    ])
    def test_gamma_one_reduces_to_identity_kind(self, kind, base):
        inst = random_instance(base, seed=21)
        d = inst["data"]
        theta_base = inst["theta"]
        lay_base = inst["layout"]
        lay_yj = lk.layout_full(kind, d)
        theta_yj = np.zeros(lay_yj.size)
        theta_yj[lay_yj.beta] = theta_base[lay_base.beta]
        theta_yj[lay_yj.omega] = theta_base[lay_base.omega]
        theta_yj[lay_yj.rho] = theta_base[lay_base.rho]
        theta_yj[lay_yj.gamma] = gamma_link(1.0)
        if kind.student_t:
            theta_yj[lay_yj.nu] = theta_base[lay_base.nu]
            theta_yj[lay_yj.tau] = theta_base[lay_base.tau]
        g_yj, _ = gr.grad_log_h_full(kind, d, theta_yj, Priors())
        g_base, _ = gr.grad_log_h_full(base, d, theta_base, Priors())
        np.testing.assert_allclose(g_yj[lay_yj.beta], g_base[lay_base.beta],
                                   atol=1e-10)
        assert g_yj[lay_yj.omega] == pytest.approx(g_base[lay_base.omega],
                                                   abs=1e-10)
        assert g_yj[lay_yj.rho] == pytest.approx(g_base[lay_base.rho], abs=1e-10)
        if kind.student_t:
            assert g_yj[lay_yj.nu] == pytest.approx(g_base[lay_base.nu], abs=1e-10)
            np.testing.assert_allclose(g_yj[lay_yj.tau], g_base[lay_base.tau],
                                       atol=1e-10)


class TestMissingDataFD:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_fd(self, kind):
        pri = Priors()
        for seed in range(5):
            inst = random_instance(kind, seed=seed, missing_frac=0.25)
            d, theta, y_u = inst["data"], inst["theta"], inst["y_u"]
            analytic, _ = gr.grad_log_h_missing(kind, d, theta, y_u, pri)
            fd = fd_gradient(
                lambda t: lk.log_h_missing(kind, d, t, y_u, pri), theta, h=1e-5)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-6)

    def test_psi_gradient_at_zero(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=30, missing_frac=0.5)
        d, layout, y_u = inst["data"], inst["layout"], inst["y_u"]
        theta = inst["theta"].copy()
        theta[layout.psi] = 0.0
        g, _ = gr.grad_log_h_missing(ModelKind.SEM_GAU, d, theta, y_u, Priors())
        yc = d.complete(y_u)
        Z = np.column_stack([d.Xstar, yc])
        expected = Z.T @ (d.missing.astype(float) - 0.5)
        np.testing.assert_allclose(g[layout.psi], expected, atol=1e-10)

    def test_psi_y_sign_two_site_case(self):
        # site with larger y is missing, the other observed: pushing psi_y
        # up raises the probability of the observed pattern
        W = lk.SpatialWeights(n=2, rows=[0, 1], cols=[1, 0], weights=[1.0, 1.0])
        d = lk.Dataset(y=[np.nan, -1.0], X=np.ones((2, 1)), W=W,
                       Xstar=np.ones((2, 1)))
        layout = lk.layout_missing(ModelKind.SEM_GAU, d)
        theta = np.zeros(layout.size)
        g, _ = gr.grad_log_h_missing(ModelKind.SEM_GAU, d, theta,
                                  np.array([3.0]), Priors())
        assert g[layout.psi_y] > 0


def on_route(W, factored: bool):
    """W on the factorization route, or with its spectrum computed."""
    if not factored:
        with_spectrum(W)
    assert spatial.plan_route(W) == ("cholesky+lu" if factored
                                     else "band-eigen")


class TestFusedValue:
    """The value half of the fused pass is log h as the likelihood module
    assembles it, from W's spectrum and from its factorizations."""

    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_full_value_is_loglik_plus_prior(self, kind, factored):
        pri = Priors()
        for seed in range(3):
            inst = random_instance(kind, seed=40 + seed)
            d, layout, theta = inst["data"], inst["layout"], inst["theta"]
            on_route(d.W, factored)
            params, tau, _ = link_inverse(kind, layout, theta)
            want = (lk.loglik(kind, d, params, tau)
                    + lk.log_prior(layout, theta, pri))
            g, got = gr.grad_log_h_full(kind, d, theta, pri)
            assert got == want
            assert lk.log_h_full(kind, d, theta, pri) == got
            np.testing.assert_array_equal(
                g, gr.grad_log_h_full(kind, d, theta, pri)[0])

    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_missing_value_adds_log_p_m(self, kind, factored):
        pri = Priors()
        for seed in range(3):
            inst = random_instance(kind, seed=50 + seed, missing_frac=0.25)
            d, layout, theta = inst["data"], inst["layout"], inst["theta"]
            on_route(d.W, factored)
            y_u = inst["y_u"]
            params, tau, psi = link_inverse(kind, layout, theta)
            yc = d.complete(y_u)
            want = (lk.loglik(kind, d.with_y(yc), params, tau)
                    + lk.log_p_m(d.missing, yc, d.Xstar, psi)
                    + lk.log_prior(layout, theta, pri))
            _, got = gr.grad_log_h_missing(kind, d, theta, y_u, pri)
            assert got == want
            assert lk.log_h_missing(kind, d, theta, y_u, pri) == got


class TestGradLogQ0:
    class Lam:
        def __init__(self, mu, B, d):
            self.mu, self.B, self.d = mu, B, d

    def test_zero_at_mean(self):
        lam = self.Lam(np.arange(4.0), np.ones((4, 2)), np.ones(4))
        np.testing.assert_array_equal(gr.grad_log_q0(lam, np.arange(4.0)),
                                      np.zeros(4))

    def test_diagonal_case(self):
        d = np.array([0.5, 2.0, 1.0])
        lam = self.Lam(np.zeros(3), np.zeros((3, 1)), d)
        theta = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(gr.grad_log_q0(lam, theta),
                                   -theta / d ** 2, atol=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(4)
        s, p = 5, 2
        B = np.tril(rng.standard_normal((s, p)), k=0) if p <= s else None
        B = rng.standard_normal((s, p))
        B[0, 1] = 0.0  # lower-triangular profile
        d = rng.uniform(0.5, 2.0, size=s)
        mu = rng.standard_normal(s)
        theta = rng.standard_normal(s)
        lam = self.Lam(mu, B, d)
        cov = B @ B.T + np.diag(d ** 2)
        expected = -np.linalg.solve(cov, theta - mu)
        np.testing.assert_allclose(gr.grad_log_q0(lam, theta), expected,
                                   atol=1e-10)

    def test_zero_d_rejected(self):
        lam = self.Lam(np.zeros(2), np.zeros((2, 1)), np.array([1.0, 0.0]))
        with pytest.raises(SingularityError):
            gr.grad_log_q0(lam, np.ones(2))

    def test_matches_fd_of_log_density(self):
        rng = np.random.default_rng(5)
        s, p = 4, 2
        B = np.tril(rng.standard_normal((s, p)))
        d = rng.uniform(0.5, 1.5, size=s)
        mu = rng.standard_normal(s)
        lam = self.Lam(mu, B, d)
        cov = B @ B.T + np.diag(d ** 2)

        def logq(t):
            diff = t - mu
            return float(-0.5 * diff @ np.linalg.solve(cov, diff))

        theta = rng.standard_normal(s)
        fd = fd_gradient(logq, theta)
        np.testing.assert_allclose(gr.grad_log_q0(lam, theta), fd,
                                   rtol=1e-5, atol=1e-7)


class TestDigamma:
    def test_matches_fd_of_log_gamma(self):
        for x in (0.3, 1.0, 2.5, 10.0, 123.4):
            fd = fd_derivative(lambda v: float(sc.gammaln(v)), x, h=1e-6)
            assert gr.digamma(x) == pytest.approx(fd, abs=1e-8)

    def test_functional_identities(self):
        # recurrence, known value at 1, and duplication pin the function far
        # below what finite differences can resolve
        psi = gr.digamma
        for x in (0.17, 0.5, 1.0, 3.3, 40.0):
            assert psi(x + 1.0) - psi(x) == pytest.approx(1.0 / x, abs=1e-12)
            assert psi(2 * x) == pytest.approx(
                0.5 * psi(x) + 0.5 * psi(x + 0.5) + np.log(2.0), abs=1e-12)
        assert psi(1.0) == pytest.approx(-np.euler_gamma, abs=1e-14)

    # a log grid over [1e-3, 1e6] plus a dense grid around the positive root
    # 1.4616... of digamma, where only the absolute error is bounded
    GRID = np.concatenate([np.logspace(-3.0, 6.0, 4001),
                           np.linspace(1.36, 1.56, 2001)])

    @pytest.mark.parametrize("name,ours,ref", [
        ("digamma", gr.digamma, sc.digamma),
        ("lgamma", math.lgamma, sc.gammaln)])
    def test_within_16_eps_of_scipy(self, name, ours, ref):
        # the bound stated in gradients.digamma's docstring; the likelihoods
        # take log Gamma from math.lgamma
        expected = ref(self.GRID)
        got = np.array([ours(float(x)) for x in self.GRID])
        err = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
        assert err.max() <= 16 * np.finfo(float).eps, name

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            gr.digamma(0.0)
        assert gr.digamma(np.inf) == np.inf
