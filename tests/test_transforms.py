"""Yeo-Johnson transform family and reparameterisation links.

Closed-form derivative implementations are checked against central finite
differences of the forward maps, and a handful of hand-computed values are
frozen to guard against silent sign or branch regressions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvb import transforms as tf
from semvb.errors import DomainError

from oracles import (dlink_cosh, expit_masked, fd_derivative,
                     gamma_unlink_branches)

GAMMAS = st.floats(min_value=0.05, max_value=1.95)
YS = st.floats(min_value=-20.0, max_value=20.0)


class TestForward:
    def test_identity_at_gamma_one(self):
        y = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(tf.yj_forward(y, 1.0), y, atol=1e-14)

    def test_hand_values(self):
        # ((1+1)^2 - 1)/2; the y >= 0 branch also accepts gamma = 2
        assert tf.yj_forward(1.0, 2.0) == pytest.approx(1.5, abs=1e-12)
        # -((1.5)^0.5 - 1)/0.5 for y = -0.5, gamma = 1.5
        assert tf.yj_forward(-0.5, 1.5) == pytest.approx(
            -2.0 * (np.sqrt(1.5) - 1.0), abs=1e-12)

    def test_monotone_increasing(self):
        y = np.linspace(-8, 8, 201)
        for g in (0.25, 0.5, 1.25, 1.75):
            z = tf.yj_forward(y, g)
            assert np.all(np.diff(z) > 0)

    def test_gamma_two_rejected_for_negative_y(self):
        with pytest.raises(DomainError):
            tf.yj_forward(-0.5, 2.0)

    def test_gamma_out_of_range(self):
        for g in (0.0, -0.3, 2.5, np.nan):
            with pytest.raises(DomainError):
                tf.yj_forward(1.0, g)


class TestNanInput:
    # NaN lies on neither branch; at gamma = 2, where the negative branch
    # is refused, it must stay NaN as at every other gamma
    @pytest.mark.parametrize("g", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("f", [tf.yj_forward, tf.yj_inverse,
                                   tf.yj_dgamma])
    def test_nan_stays_nan(self, f, g):
        out = f(np.array([np.nan, 1.0]), g)
        assert np.isnan(out[0]) and out[1] == f(1.0, g)
        assert np.isnan(f(np.nan, g)) and isinstance(f(np.nan, g), float)

    def test_bases_agree_at_gamma_two(self):
        out = np.empty(2)
        with np.errstate(invalid="ignore"):
            tf.YJBases(np.array([np.nan, 1.0])).forward(2.0, out)
        np.testing.assert_array_equal(
            out, tf.yj_forward(np.array([np.nan, 1.0]), 2.0))


class TestInverse:
    def test_round_trip_grid(self):
        y = np.linspace(-10, 10, 401)
        for g in np.linspace(0.1, 1.9, 19):
            back = tf.yj_inverse(tf.yj_forward(y, g), g)
            np.testing.assert_allclose(back, y, atol=1e-10, rtol=0)

    @given(y=YS, g=GAMMAS)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, y, g):
        z = float(tf.yj_forward(y, g))
        assert float(tf.yj_inverse(z, g)) == pytest.approx(y, abs=1e-8, rel=1e-8)


class TestDerivatives:
    def test_dy_hand_values(self):
        assert tf.yj_dy(1.0, 0.5) == pytest.approx(2.0 ** -0.5, abs=1e-12)
        assert tf.yj_dy(-1.0, 0.5) == pytest.approx(2.0 ** 0.5, abs=1e-12)

    def test_dgamma_hand_value(self):
        # (2 (log 2 - 1) + 1) / 1 = 2 log 2 - 1
        assert tf.yj_dgamma(1.0, 1.0) == pytest.approx(2.0 * np.log(2.0) - 1.0,
                                                       abs=1e-12)

    def test_dlogdy_dgamma_hand_values(self):
        assert tf.yj_dlogdy_dgamma(1.0) == pytest.approx(np.log(2.0), abs=1e-12)
        assert tf.yj_dlogdy_dgamma(-0.5) == pytest.approx(-np.log(1.5), abs=1e-12)

    @given(y=YS, g=GAMMAS)
    @settings(max_examples=200, deadline=None)
    def test_dy_matches_fd(self, y, g):
        fd = fd_derivative(lambda v: float(tf.yj_forward(v, g)), y)
        assert float(tf.yj_dy(y, g)) == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @given(y=YS, g=GAMMAS)
    @settings(max_examples=200, deadline=None)
    def test_dgamma_matches_fd(self, y, g):
        fd = fd_derivative(lambda v: float(tf.yj_forward(y, v)), g, h=1e-5)
        assert float(tf.yj_dgamma(y, g)) == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @given(y=YS, g=GAMMAS)
    @settings(max_examples=200, deadline=None)
    def test_dlogdy_dgamma_matches_fd(self, y, g):
        fd = fd_derivative(lambda v: float(np.log(tf.yj_dy(y, v))), g, h=1e-5)
        assert float(tf.yj_dlogdy_dgamma(y)) == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_dgamma_near_gamma_one_is_smooth(self):
        # the y >= 0 formula has a removable 0/0 at gamma -> 0 only; around
        # gamma = 1 values must agree with FD tightly
        for y in (0.0, 0.3, 2.0, -0.7, -3.0):
            for g in (1.0 - 1e-4, 1.0, 1.0 + 1e-4):
                fd = fd_derivative(lambda v: float(tf.yj_forward(y, v)), g, h=1e-5)
                assert float(tf.yj_dgamma(y, g)) == pytest.approx(fd, abs=1e-6)


class TestLinks:
    def test_rho_link_hand_value(self):
        assert tf.rho_link(0.8) == pytest.approx(np.log(9.0), abs=1e-12)

    def test_rho_round_trip(self):
        for rho in np.linspace(-0.95, 0.95, 39):
            assert tf.rho_unlink(tf.rho_link(rho)) == pytest.approx(rho, abs=1e-12)

    def test_rho_jacobian(self):
        assert tf.dtwo_expit(0.0) == pytest.approx(0.5, abs=1e-14)
        for z in (-3.0, -0.5, 0.2, 4.0):
            fd = fd_derivative(tf.rho_unlink, z)
            assert tf.dtwo_expit(z) == pytest.approx(fd, rel=1e-6)
        assert tf.dtwo_expit(1e4) == 0.0

    def test_sigma2_round_trip(self):
        for s2 in (1e-4, 0.5, 1.0, 37.0):
            assert tf.sigma2_from_omega(tf.omega_from_sigma2(s2)) == pytest.approx(s2)
        with pytest.raises(DomainError):
            tf.omega_from_sigma2(0.0)

    def test_nu_round_trip(self):
        for nu in (3.001, 4.0, 30.0):
            assert tf.nu_unlink(tf.nu_link(nu)) == pytest.approx(nu)
        with pytest.raises(DomainError):
            tf.nu_link(3.0)
        assert tf.nu_unlink(-50.0) > 3.0

    def test_gamma_round_trip(self):
        assert tf.gamma_unlink(0.0) == pytest.approx(1.0, abs=1e-14)
        assert tf.gamma_link(1.0) == pytest.approx(0.0, abs=1e-14)
        for g in (0.01, 0.5, 1.25, 1.99):
            assert tf.gamma_unlink(tf.gamma_link(g)) == pytest.approx(g, abs=1e-12)
        # tails stay inside (0, 2)
        assert 0.0 < tf.gamma_unlink(-800.0) < 2.0
        assert 0.0 < tf.gamma_unlink(800.0) <= 2.0

    def test_gamma_jacobian(self):
        for z in (-2.0, 0.0, 1.3):
            fd = fd_derivative(tf.gamma_unlink, z)
            assert tf.dtwo_expit(z) == pytest.approx(fd, rel=1e-6)


class TestLogisticLinks:
    """gamma_unlink (2 expit(z), clamped), dtwo_expit and expit keep the
    bits of the formulas they replaced, in tests/oracles.py."""

    @staticmethod
    def grid():
        rng = np.random.default_rng(0)
        tiny, big = np.finfo(float).tiny, np.finfo(float).max
        extremes = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, big, -big,
                    700.0, -700.0, np.nextafter(700.0, 800.0)]
        # the clamps bind past |z| of about 28.3
        tails = np.concatenate([np.linspace(-34.0, -24.0, 50_000),
                                np.linspace(24.0, 34.0, 50_000)])
        return np.concatenate([extremes, np.linspace(-800.0, 800.0, 400_000),
                               30.0 * rng.standard_normal(100_000),
                               tails]).tolist()

    def test_bit_equal_to_replaced_formulas(self):
        z = self.grid()
        assert len(z) == 600_011
        got = np.array(list(map(tf.gamma_unlink, z)))
        want = np.array(list(map(gamma_unlink_branches, z)))
        assert got.tobytes() == want.tobytes()
        got = np.array(list(map(tf.dtwo_expit, z)))
        want = np.array(list(map(dlink_cosh, z)))
        assert got.tobytes() == want.tobytes()
        assert tf.expit(np.array(z)).tobytes() == expit_masked(
            np.array(z)).tobytes()
