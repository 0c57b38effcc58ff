"""Posterior containers and deviance information criteria."""

import numpy as np
import pytest

from semvb import model_select
from semvb.errors import DimensionError, DomainError, NumericalError
from semvb.likelihoods import log_p_m, loglik, marginal_loglik_t
from semvb.models import ModelKind, Priors
from semvb.model_select import (PosteriorSamples, dic1, dic2, dic5,
                                params_from_row, per_draw_logliks,
                                per_draw_logpriors, phi_loglik,
                                phi_names_for)

from oracles import (dic1_two_pass, dic2_two_pass, dic5_two_pass,
                     joint_loglik_fn, joint_logprior_fn, phi_loglik_fn,
                     phi_logprior_fn)
from util import random_instance

KINDS = [ModelKind.SEM_GAU, ModelKind.SEM_T, ModelKind.YJ_SEM_GAU,
         ModelKind.YJ_SEM_T]


def quad_loglik(phi_row):
    return float(-np.sum((phi_row - 1.0) ** 2))


# The DIC functions are formulas over per-draw values; these score the
# draws of a PosteriorSamples with a test's own functions and apply them.
def scores(fn, *blocks):
    """fn at every row of the row-aligned blocks, as one array."""
    return np.array([fn(*rows) for rows in zip(*blocks)])


def dic1_of(s, loglik_fn):
    return dic1(scores(loglik_fn, s.phi), loglik_fn(s.phi.mean(axis=0)))


def dic2_of(s, loglik_fn, prior_fn):
    return dic2(scores(loglik_fn, s.phi), scores(prior_fn, s.phi))


def dic5_of(s, joint_fn, prior_fn=None):
    return dic5(scores(joint_fn, s.phi, s.psi, s.y_u),
                0.0 if prior_fn is None else scores(prior_fn, s.phi, s.psi))


def jittered_samples(inst, kind, n_draws, seed):
    """Draws scattered about a random instance's parameters, with psi and
    y_u blocks when the instance has missing responses."""
    from semvb.model_select import phi_row
    rng = np.random.default_rng(seed)
    base = phi_row(inst["params"])
    phi = base + 0.02 * rng.standard_normal((n_draws, base.size))
    names = phi_names_for(kind, inst["data"].n_beta)
    if inst["psi"] is None:
        return PosteriorSamples(phi=phi, phi_names=names)
    psi = inst["psi"].stacked + 0.1 * rng.standard_normal(
        (n_draws, inst["psi"].stacked.size))
    y_u = inst["y_u"] + 0.3 * rng.standard_normal((n_draws,
                                                   inst["y_u"].size))
    return PosteriorSamples(phi=phi, phi_names=names, psi=psi, y_u=y_u)


def draw(s, i):
    """Draw i of s alone, as one-draw samples."""
    return PosteriorSamples(
        phi=s.phi[i:i + 1], phi_names=s.phi_names,
        psi=None if s.psi is None else s.psi[i:i + 1],
        y_u=None if s.y_u is None else s.y_u[i:i + 1])


class TestContainers:
    def test_phi_names(self):
        assert phi_names_for(ModelKind.SEM_GAU, 2) == ("beta0", "beta1",
                                                       "sigma2", "rho")
        assert phi_names_for(ModelKind.YJ_SEM_T, 1)[-2:] == ("nu", "gamma")

    def test_params_from_row(self):
        names = phi_names_for(ModelKind.YJ_SEM_T, 2)
        row = np.array([1.0, -1.0, 0.5, 0.3, 4.5, 1.2])
        p = params_from_row(ModelKind.YJ_SEM_T, names, row)
        np.testing.assert_array_equal(p.beta, [1.0, -1.0])
        assert (p.sigma2, p.rho, p.nu, p.gamma) == (0.5, 0.3, 4.5, 1.2)

    def test_row_alignment_enforced(self):
        with pytest.raises(DimensionError):
            PosteriorSamples(phi=np.zeros((3, 2)), phi_names=("a", "b"),
                             psi=np.zeros((2, 2)))

    def test_names_must_match_columns(self):
        with pytest.raises(DimensionError):
            PosteriorSamples(phi=np.zeros((3, 2)), phi_names=("a",))


class TestPerDrawLogliks:
    def test_one_value_per_draw_from_aligned_rows(self, monkeypatch):
        kind = ModelKind.SEM_GAU
        calls = []
        monkeypatch.setattr(model_select, "loglik",
                            lambda *a: calls.append(a) or loglik(*a))
        for missing_frac in (0.0, 0.25):  # complete, then joint, values
            inst = random_instance(kind, seed=3, missing_frac=missing_frac)
            s = jittered_samples(inst, kind, 4, seed=1)
            calls.clear()
            out = per_draw_logliks(kind, inst["data"], s)
            assert out.shape == (4,) and len(calls) == 4
            for i in range(4):  # draw i is scored from row i of each block
                assert out[i] == per_draw_logliks(kind, inst["data"],
                                                  draw(s, i))[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_draw(self, monkeypatch, bad):
        values = iter([0.0, -1.0, bad, 2.0])
        monkeypatch.setattr(model_select, "loglik", lambda *a: next(values))
        inst = random_instance(ModelKind.SEM_GAU, seed=0)
        s = jittered_samples(inst, ModelKind.SEM_GAU, 4, seed=1)
        with pytest.raises(NumericalError, match="posterior draw 2") as err:
            per_draw_logliks(ModelKind.SEM_GAU, inst["data"], s)
        assert err.value.iteration == 2

    def test_missing_or_ragged_block_is_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no draw is scored")

        monkeypatch.setattr(model_select, "loglik", refuse)
        inst = random_instance(ModelKind.SEM_GAU, seed=3, missing_frac=0.25)
        data, s = inst["data"], jittered_samples(inst, ModelKind.SEM_GAU, 3,
                                                 seed=1)
        no_psi = PosteriorSamples(phi=s.phi, phi_names=s.phi_names, y_u=s.y_u)
        with pytest.raises(DomainError, match="psi"):
            per_draw_logliks(ModelKind.SEM_GAU, data, no_psi)
        for short in (np.zeros((2, 1)), np.zeros((4, 1))):
            with pytest.raises(DimensionError, match="rows do not match"):
                PosteriorSamples(phi=s.phi, phi_names=s.phi_names, psi=s.psi,
                                 y_u=short)
        wide = PosteriorSamples(phi=s.phi, phi_names=s.phi_names, psi=s.psi,
                                y_u=np.zeros((3, data.n_missing + 1)))
        with pytest.raises(DimensionError, match="y_u has length"):
            per_draw_logliks(ModelKind.SEM_GAU, data, wide)


    @pytest.mark.parametrize("missing_frac", [0.0, 0.25])
    @pytest.mark.parametrize("kind", KINDS)
    def test_columns_are_read_by_name(self, kind, missing_frac):
        inst = random_instance(kind, seed=5, missing_frac=missing_frac)
        s = jittered_samples(inst, kind, 4, seed=2)
        reversed_ = PosteriorSamples(phi=s.phi[:, ::-1],
                                     phi_names=s.phi_names[::-1],
                                     psi=s.psi, y_u=s.y_u)
        np.testing.assert_array_equal(
            per_draw_logliks(kind, inst["data"], reversed_),
            per_draw_logliks(kind, inst["data"], s))

    def test_sample_without_a_kind_column_is_refused(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=3)
        s = jittered_samples(inst, ModelKind.SEM_GAU, 3, seed=1)
        keep = [j for j, name in enumerate(s.phi_names) if name != "rho"]
        no_rho = PosteriorSamples(phi=s.phi[:, keep],
                                  phi_names=[s.phi_names[j] for j in keep])
        with pytest.raises(DomainError, match="no rho column"):
            per_draw_logliks(ModelKind.SEM_GAU, inst["data"], no_rho)

    @pytest.mark.parametrize("kind", KINDS)
    def test_logpriors_refuse_a_missing_kind_column(self, kind):
        inst = random_instance(kind, seed=3)
        s = jittered_samples(inst, kind, 3, seed=1)
        # without beta0 the betas that remain are counted, and beta0 is
        # the first of them that is missing
        for missing in ["beta0"] + [name for name in s.phi_names
                                    if not name.startswith("beta")]:
            keep = [j for j, name in enumerate(s.phi_names)
                    if name != missing]
            short = PosteriorSamples(phi=s.phi[:, keep],
                                     phi_names=[s.phi_names[j] for j in keep])
            with pytest.raises(DomainError, match=f"no {missing} column"):
                per_draw_logpriors(kind, Priors(), short)

    def test_logpriors_read_columns_by_name(self):
        inst = random_instance(ModelKind.YJ_SEM_T, seed=4)
        s = jittered_samples(inst, ModelKind.YJ_SEM_T, 3, seed=2)
        reversed_ = PosteriorSamples(phi=s.phi[:, ::-1],
                                     phi_names=s.phi_names[::-1])
        np.testing.assert_array_equal(
            per_draw_logpriors(ModelKind.YJ_SEM_T, Priors(), reversed_),
            per_draw_logpriors(ModelKind.YJ_SEM_T, Priors(), s))


class TestDic1:
    def test_point_mass(self):
        phi = np.tile([2.0, 0.5], (5, 1))
        s = PosteriorSamples(phi=phi, phi_names=("a", "b"))
        ll = quad_loglik(phi[0])
        assert dic1_of(s, quad_loglik) == pytest.approx(-2.0 * ll, abs=1e-12)

    def test_two_draw_hand_case(self):
        phi = np.array([[0.0], [2.0]])
        s = PosteriorSamples(phi=phi, phi_names=("a",))
        # loglik values -1 and -1; plug-in at the mean phi = 1 gives 0
        expected = -4.0 * (-1.0) + 2.0 * 0.0
        assert dic1_of(s, quad_loglik) == pytest.approx(expected, abs=1e-12)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((20, 3))
        s1 = PosteriorSamples(phi=phi, phi_names=("a", "b", "c"))
        s2 = PosteriorSamples(phi=phi[::-1], phi_names=("a", "b", "c"))
        assert dic1_of(s1, quad_loglik) == pytest.approx(
            dic1_of(s2, quad_loglik), abs=1e-10)

    def test_additive_constant_shifts_by_minus_2c(self):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal((15, 2))
        s = PosteriorSamples(phi=phi, phi_names=("a", "b"))
        base = dic1_of(s, quad_loglik)
        shifted = dic1_of(s, lambda row: quad_loglik(row) + 7.0)
        assert shifted == pytest.approx(base - 14.0, abs=1e-10)

    def test_non_finite_draw_aborts(self):
        kind = ModelKind.SEM_GAU
        inst = random_instance(kind, seed=0)
        s = jittered_samples(inst, kind, 3, seed=1)
        s.phi[1, s.phi_names.index("sigma2")] = 1e-320
        with pytest.raises(NumericalError) as err:
            dic1(per_draw_logliks(kind, inst["data"], s),
                 phi_loglik(kind, inst["data"], s.phi.mean(axis=0)))
        assert err.value.iteration == 1

    def test_no_draws_rejected(self):
        with pytest.raises(DimensionError):
            dic1(np.empty(0), 0.0)


class TestDic2:
    def test_point_mass_equals_dic1(self):
        phi = np.tile([0.3, -0.2], (4, 1))
        s = PosteriorSamples(phi=phi, phi_names=("a", "b"))
        d1 = dic1_of(s, quad_loglik)
        d2 = dic2_of(s, quad_loglik, lambda row: 0.0)
        assert d2 == pytest.approx(d1, abs=1e-12)

    def test_flat_prior_picks_max_loglik(self):
        phi = np.array([[0.0], [0.9], [2.0]])
        s = PosteriorSamples(phi=phi, phi_names=("a",))
        lls = [quad_loglik(r) for r in phi]
        expected = -4.0 * np.mean(lls) + 2.0 * max(lls)
        assert dic2_of(s, quad_loglik, lambda row: 0.0) == pytest.approx(
            expected, abs=1e-12)

    def test_prior_moves_plugin(self):
        phi = np.array([[0.9], [1.5]])
        s = PosteriorSamples(phi=phi, phi_names=("a",))
        # heavy prior mass at 1.5 overrides the higher likelihood of 0.9
        prior = lambda row: 0.0 if row[0] > 1.0 else -100.0
        lls = [quad_loglik(r) for r in phi]
        expected = -4.0 * np.mean(lls) + 2.0 * lls[1]
        assert dic2_of(s, quad_loglik, prior) == pytest.approx(expected,
                                                               abs=1e-12)

    def test_default_prior_is_flat(self):
        lls = np.array([-3.0, -1.0, -2.0])
        assert dic2(lls) == dic2(lls, np.zeros(3)) == dic2(lls, [5.0] * 3)

    @pytest.mark.parametrize("log_priors", [[0.0, 0.0], [[0.0], [0.0],
                                                         [0.0]]])
    def test_one_prior_per_draw(self, log_priors):
        with pytest.raises(DimensionError):
            dic2(np.array([-3.0, -1.0, -2.0]), log_priors)


class TestDic5:
    def joint(self, phi_row, psi_row, y_u_row):
        return quad_loglik(phi_row) - float(np.sum(psi_row ** 2)) \
            - float(np.sum((y_u_row - 2.0) ** 2))

    def make(self, rng, n=12):
        phi = rng.standard_normal((n, 2))
        psi = rng.standard_normal((n, 2))
        y_u = rng.standard_normal((n, 3))
        return PosteriorSamples(phi=phi, phi_names=("a", "b"), psi=psi,
                                y_u=y_u)

    def test_point_mass(self):
        phi = np.tile([1.0, 1.0], (3, 1))
        psi = np.tile([0.5, -0.5], (3, 1))
        y_u = np.tile([2.0], (3, 1))
        s = PosteriorSamples(phi=phi, phi_names=("a", "b"), psi=psi, y_u=y_u)
        j = self.joint(phi[0], psi[0], y_u[0])
        assert dic5_of(s, self.joint) == pytest.approx(-2.0 * j, abs=1e-12)

    def test_mean_and_plugin_assembly(self):
        s = self.make(np.random.default_rng(2))
        js = [self.joint(s.phi[i], s.psi[i], s.y_u[i])
              for i in range(s.n_draws)]
        expected = -4.0 * np.mean(js) + 2.0 * max(js)
        assert dic5_of(s, self.joint) == pytest.approx(expected, abs=1e-10)

    def test_requires_psi_and_yu(self):
        # the joint log-likelihoods of y_u draws need their psi draws
        kind = ModelKind.SEM_GAU
        inst = random_instance(kind, seed=3, missing_frac=0.25)
        s = jittered_samples(inst, kind, 2, seed=1)
        with pytest.raises(DomainError):
            dic5(per_draw_logliks(kind, inst["data"], PosteriorSamples(
                phi=s.phi, phi_names=s.phi_names, y_u=s.y_u)))

    def test_is_dic2_on_joint_values(self):
        s = self.make(np.random.default_rng(4))
        js = scores(self.joint, s.phi, s.psi, s.y_u)
        priors = -np.arange(float(s.n_draws))
        assert dic5(js) == dic2(js) and dic5(js, priors) == dic2(js, priors)

    def test_constant_shift(self):
        s = self.make(np.random.default_rng(3))
        base = dic5_of(s, self.joint)
        shifted = dic5_of(s, lambda p, q, y: self.joint(p, q, y) + 3.0)
        assert shifted == pytest.approx(base - 6.0, abs=1e-10)


class TestModelBoundFns:
    def test_gaussian_loglik_fn(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=0)
        p = inst["params"]
        row = np.concatenate([p.beta, [p.sigma2, p.rho]])
        assert phi_loglik(ModelKind.SEM_GAU, inst["data"], row) == loglik(
            ModelKind.SEM_GAU, inst["data"], p)

    def test_t_kind_uses_marginal(self):
        inst = random_instance(ModelKind.SEM_T, seed=1)
        p = inst["params"]
        row = np.concatenate([p.beta, [p.sigma2, p.rho, p.nu]])
        assert phi_loglik(ModelKind.SEM_T, inst["data"], row) == \
            marginal_loglik_t(ModelKind.SEM_T, inst["data"], p)

    def test_logprior_sigma2_change_of_variables(self):
        import scipy.stats as st
        inst = random_instance(ModelKind.SEM_GAU, seed=2)
        n_beta = inst["data"].n_beta
        rows = [np.concatenate([np.zeros(n_beta), [sigma2, 0.0]])
                for sigma2 in (0.5, 2.5)]
        lp = per_draw_logpriors(ModelKind.SEM_GAU, Priors(), PosteriorSamples(
            phi=rows, phi_names=phi_names_for(ModelKind.SEM_GAU, n_beta)))
        # log sigma2 ~ N(0, 100): density ratios follow the lognormal law
        ref = st.lognorm(s=10.0)
        want = ref.logpdf(0.5) - ref.logpdf(2.5)
        assert lp[0] - lp[1] == pytest.approx(float(want), abs=1e-10)

    def test_logprior_beta_kernel(self):
        lp = per_draw_logpriors(ModelKind.SEM_GAU, Priors(), PosteriorSamples(
            phi=[[0.0, 1.0, 0.0], [10.0, 1.0, 0.0]],
            phi_names=phi_names_for(ModelKind.SEM_GAU, 1)))
        assert lp[0] - lp[1] == pytest.approx(100.0 / 200.0, abs=1e-10)

    def test_joint_fn_matches_manual_assembly(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=3, missing_frac=0.25)
        data, p = inst["data"], inst["params"]
        y_full = data.complete(inst["y_u"])
        want = loglik(ModelKind.SEM_GAU, data.with_y(y_full), p) \
            + log_p_m(data.missing.astype(float), y_full, data.Xstar,
                      inst["psi"])
        s = PosteriorSamples(
            phi=np.concatenate([p.beta, [p.sigma2, p.rho]]),
            phi_names=phi_names_for(ModelKind.SEM_GAU, data.n_beta),
            psi=inst["psi"].stacked, y_u=inst["y_u"])
        assert per_draw_logliks(ModelKind.SEM_GAU, data, s)[0] == \
            pytest.approx(want, abs=1e-10)

    def test_joint_logprior_adds_the_psi_prior(self):
        priors = Priors()
        psi = np.random.default_rng(5).standard_normal((4, 3))
        s = PosteriorSamples(phi=np.tile([0.3, 1.5, 0.2], (4, 1)),
                             phi_names=phi_names_for(ModelKind.SEM_GAU, 1),
                             psi=psi)
        phi_only = per_draw_logpriors(ModelKind.SEM_GAU, priors,
                                      PosteriorSamples(s.phi, s.phi_names))
        want = phi_only - 0.5 * np.sum(psi ** 2, axis=1) / priors.var_psi
        np.testing.assert_allclose(
            per_draw_logpriors(ModelKind.SEM_GAU, priors, s), want,
            rtol=0, atol=1e-12)


class TestTwoPassOracle:
    """The one-pass formulas give the two-pass functions' values bit for
    bit: the same per-draw values in the same arithmetic."""

    def test_quadratic_fixtures(self):
        prior = lambda row: -0.5 * float(np.sum(row ** 2))
        for seed, shape in ((0, (20, 3)), (1, (15, 2))):
            phi = np.random.default_rng(seed).standard_normal(shape)
            s = PosteriorSamples(phi=phi, phi_names=("a", "b", "c")[:shape[1]])
            assert dic1_of(s, quad_loglik) == dic1_two_pass(s, quad_loglik)
            assert dic2_of(s, quad_loglik, prior) == dic2_two_pass(
                s, quad_loglik, prior)
        s = TestDic5().make(np.random.default_rng(2))
        joint = TestDic5().joint
        assert dic5_of(s, joint) == dic5_two_pass(s, joint)

    @pytest.mark.parametrize("kind", KINDS)
    def test_model_fixtures(self, kind):
        inst = random_instance(kind, seed=4)
        data, n_beta = inst["data"], inst["data"].n_beta
        s = jittered_samples(inst, kind, 25, seed=5)
        lls = per_draw_logliks(kind, data, s)
        loglik_fn = phi_loglik_fn(kind, data)
        assert dic1(lls, phi_loglik(kind, data, s.phi.mean(axis=0))) == \
            dic1_two_pass(s, loglik_fn)
        assert dic2(lls, per_draw_logpriors(kind, Priors(), s)) == \
            dic2_two_pass(s, loglik_fn, phi_logprior_fn(kind, n_beta,
                                                        Priors()))

        inst = random_instance(kind, seed=6, missing_frac=0.25)
        s = jittered_samples(inst, kind, 25, seed=7)
        lls = per_draw_logliks(kind, inst["data"], s)
        joint = joint_loglik_fn(kind, inst["data"])
        assert dic5(lls, per_draw_logpriors(kind, Priors(), s)) == \
            dic5_two_pass(s, joint, joint_logprior_fn(kind, n_beta, Priors()))
        assert dic5(lls) == dic5_two_pass(s, joint)

    @pytest.mark.parametrize("samples", ["complete", "missing"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_scorer_matches_oracle_callables(self, kind, samples):
        """Each per-draw value is the closure factories' value, bit for bit."""
        inst = random_instance(kind, seed=8,
                               missing_frac=0.25 * (samples == "missing"))
        data, n_beta = inst["data"], inst["data"].n_beta
        s = jittered_samples(inst, kind, 12, seed=9)
        lls = per_draw_logliks(kind, data, s)
        log_priors = per_draw_logpriors(kind, Priors(), s)
        if samples == "complete":
            loglik_fn = phi_loglik_fn(kind, data)
            prior_fn = phi_logprior_fn(kind, n_beta, Priors())
            assert list(lls) == [loglik_fn(row) for row in s.phi]
            assert list(log_priors) == [prior_fn(row) for row in s.phi]
            mean = s.phi.mean(axis=0)
            assert phi_loglik(kind, data, mean) == loglik_fn(mean)
        else:
            joint = joint_loglik_fn(kind, data)
            prior_fn = joint_logprior_fn(kind, n_beta, Priors())
            assert list(lls) == [joint(*rows)
                                 for rows in zip(s.phi, s.psi, s.y_u)]
            assert list(log_priors) == [prior_fn(*rows)
                                        for rows in zip(s.phi, s.psi)]
