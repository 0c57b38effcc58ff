"""Logistic missingness model: probabilities and amputation."""

import numpy as np
import pytest

from semvb.missingness import (make_missingness_design, missing_prob,
                               simulate_missing)
from semvb.models import MissingnessParams, ModelKind, ModelParams
from semvb.simulate import draw_beta_preset, make_design, simulate_sem
from semvb.spatial import build_rook_lattice


PSI_REF = MissingnessParams(psi_x=np.array([-1.0, 0.5]), psi_y=-0.1)


class TestMissingProb:
    def test_zero_coefficients(self):
        psi = MissingnessParams(psi_x=np.array([0.0, 0.0]), psi_y=0.0)
        assert missing_prob(3.7, np.array([1.0, 9.9]), psi) == 0.5

    def test_hand_value_two_thirds(self):
        # eta = log 2 gives probability 2/3
        psi = MissingnessParams(psi_x=np.array([np.log(2.0)]), psi_y=0.0)
        p = missing_prob(0.0, np.array([1.0]), psi)
        assert p == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_monotone_in_y(self):
        psi = MissingnessParams(psi_x=np.array([0.0]), psi_y=0.8)
        ys = np.linspace(-4, 4, 30)
        ps = [missing_prob(y, np.array([1.0]), psi) for y in ys]
        assert np.all(np.diff(ps) > 0)

    def test_sign_flip_complement(self):
        x = np.array([1.0, 2.0])
        psi = MissingnessParams(psi_x=np.array([-0.4, 0.7]), psi_y=0.3)
        flipped = MissingnessParams(psi_x=-psi.psi_x, psi_y=-psi.psi_y)
        p = missing_prob(1.3, x, psi)
        q = missing_prob(1.3, x, flipped)
        assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_extreme_logits_stay_inside_unit_interval(self):
        psi_hi = MissingnessParams(psi_x=np.array([800.0]), psi_y=0.0)
        psi_lo = MissingnessParams(psi_x=np.array([-800.0]), psi_y=0.0)
        hi = missing_prob(0.0, np.array([1.0]), psi_hi)
        lo = missing_prob(0.0, np.array([1.0]), psi_lo)
        assert 0.0 < lo < hi < 1.0


class TestSimulateMissing:
    def test_shape_and_dtype(self):
        rng = np.random.default_rng(0)
        Xs = make_missingness_design(50, rng)
        m = simulate_missing(np.zeros(50), Xs, PSI_REF, rng)
        assert m.shape == (50,) and m.dtype == bool

    def test_strongly_negative_intercept_keeps_all(self):
        rng = np.random.default_rng(1)
        psi = MissingnessParams(psi_x=np.array([-30.0, 0.0]), psi_y=0.0)
        Xs = make_missingness_design(2000, rng)
        m = simulate_missing(rng.standard_normal(2000), Xs, psi, rng)
        assert not m.any()

    def test_empirical_rate_matches_mean_probability(self):
        rng = np.random.default_rng(2)
        n = 40000
        Xs = make_missingness_design(n, rng)
        y = rng.standard_normal(n)
        m = simulate_missing(y, Xs, PSI_REF, rng)
        probs = np.array([missing_prob(y[i], Xs[i], PSI_REF)
                          for i in range(n)])
        se = np.sqrt(probs.mean() * (1 - probs.mean()) / n)
        assert abs(m.mean() - probs.mean()) < 3.5 * se

    def test_reference_design_rate_near_half(self):
        # the lognormal design with psi = (-1, 0.5, -0.1) loses about half
        # the responses
        for seed in (3, 4, 5):
            rng = np.random.default_rng(seed)
            W = build_rook_lattice(25, 25)
            X = make_design(W.n, 5, rng)
            params = ModelParams(beta=draw_beta_preset(6, rng), sigma2=1.0,
                                 rho=0.8, gamma=1.25)
            y, _ = simulate_sem(ModelKind.YJ_SEM_GAU, X, W, params, rng)
            Xs = make_missingness_design(W.n, rng)
            m = simulate_missing(y, Xs, PSI_REF, rng)
            assert 0.35 < m.mean() < 0.65

    def test_determinism(self):
        Xs = make_missingness_design(100, np.random.default_rng(6))
        y = np.linspace(-2, 2, 100)
        a = simulate_missing(y, Xs, PSI_REF, np.random.default_rng(7))
        b = simulate_missing(y, Xs, PSI_REF, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
