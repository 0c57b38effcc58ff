"""Each fit's set-up against the oracles of the code it replaced.

The SGA step works on lambda = (mu, B, d) in its stored shape, the
oracles on (mu, vech(B), d): the two agree at B's lower triangle, and B's
strict upper triangle stays +0.0. The Yeo-Johnson terms
of a response come from bases computed once per Dataset, and the MH sweep
reads the observed residual from those bases. Each piece, and whole vb and
hvb fits built on them, must give the replaced code's values bit for bit
(`oracles.with_step_fancy`, `reparam_grads_outer`,
`adadelta_step_allocating`, `sga_loop`, `ResponseFromScratch` and
`step_by_step_sweep`).
"""

import numpy as np
import pytest

from semvb import gradients, hvb
from semvb import variational as vb
from semvb.errors import DomainError
from semvb.likelihoods import Dataset, _Response, layout_full, layout_missing
from semvb.models import ModelKind

import oracles
from util import ALL_KINDS, random_instance


def random_lam(size: int, seed: int, p: int = 4) -> vb.VariationalParams:
    rng = np.random.default_rng(seed)
    return vb.VariationalParams(mu=rng.standard_normal(size),
                                B=np.tril(rng.standard_normal((size, p))),
                                d=rng.uniform(0.1, 1.0, size=size))


def assert_same_lam(got, want):
    for name in ("mu", "B", "d"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def kind_lam(kind, seed):
    inst = random_instance(kind, seed, lattice=(5, 6))
    return random_lam(layout_full(kind, inst["data"]).size, seed)


def assert_upper_positive_zero(B):
    """B's strict upper triangle is +0.0, bit for bit."""
    upper = B[np.triu_indices(B.shape[0], 1, B.shape[1])]
    assert not upper.any() and not np.signbit(upper).any()


def vech_layout(lam, flat):
    """A vector laid out as `VariationalParams.flat`, at (mu, vech(B), d)."""
    s = lam.s
    i, j = np.tril_indices(s, 0, lam.p)
    return np.concatenate([flat[:s], flat[s:-s].reshape(s, lam.p)[i, j],
                           flat[-s:]])


def flat_layout(lam, vech):
    """A (mu, vech(B), d) vector laid out as `VariationalParams.flat`, with
    +0.0 on B's strict upper triangle."""
    s = lam.s
    i, j = np.tril_indices(s, 0, lam.p)
    B = np.zeros((s, lam.p))
    B[i, j] = vech[s:s + i.size]
    return np.concatenate([vech[:s], B.ravel(), vech[s + i.size:]])


class TestSgaStep:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_with_step(self, kind):
        lam = kind_lam(kind, 1)
        rng = np.random.default_rng(2)
        size = 2 * lam.s + np.tril_indices(lam.s, 0, lam.p)[0].size
        for scale in (1e-3, 1.0, 1e3):
            step = scale * rng.standard_normal(size)
            got = lam.with_step(flat_layout(lam, step))
            assert_same_lam(got, oracles.with_step_fancy(lam, step))
            assert_upper_positive_zero(got.B)

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_reparam_grads(self, kind, p):
        inst = random_instance(kind, 3, lattice=(5, 6))
        lam = random_lam(layout_full(kind, inst["data"]).size, 3, p=p)
        rng = np.random.default_rng(4)
        g, eps = rng.standard_normal((2, lam.s))
        eta = rng.standard_normal(p)
        got = vb.reparam_grads(lam, eta, eps, g)
        want = np.concatenate(oracles.reparam_grads_outer(lam, eta, eps, g))
        assert np.array_equal(vech_layout(lam, got), want)
        assert_upper_positive_zero(got[lam.s:-lam.s].reshape(lam.s, p))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_adadelta_step(self, kind):
        size = kind_lam(kind, 5).flat().size
        rng = np.random.default_rng(6)
        state = vb.AdadeltaState.zeros(size)
        ref = vb.AdadeltaState.zeros(size)
        for scale in (1.0, 1e-4, 1e4, 0.0, 1.0):
            grad = scale * rng.standard_normal(size)
            before = state.e_grad2.copy(), state.e_dx2.copy()
            old = state
            step, state = vb.adadelta_step(state, grad)
            assert np.array_equal(old.e_grad2, before[0])
            assert np.array_equal(old.e_dx2, before[1])
            want, ref = oracles.adadelta_step_allocating(ref, grad)
            assert np.array_equal(step, want)
            assert np.array_equal(state.e_grad2, ref.e_grad2)
            assert np.array_equal(state.e_dx2, ref.e_dx2)


def assert_same_terms(resp, ref, gamma):
    t, dt = resp.transform(gamma, dgamma=True)
    want_t, want_dt = ref.transform(gamma, dgamma=True)
    assert np.array_equal(resp.y, ref.y)
    assert np.array_equal(t, want_t) and np.array_equal(dt, want_dt)
    assert np.array_equal(resp.transform(gamma)[0], want_t)
    assert resp.transform(gamma)[1] is None
    assert resp.dlogjac == ref.dlogjac


GAMMAS = [1e-3, 0.37, 1.0, 1.0000001, 1.63, 2.0 - 1e-12]


class TestYeoJohnsonTerms:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_complete_response(self, kind):
        data = random_instance(kind, 7, lattice=(6, 6))["data"]
        y = data.y.copy()
        y[:4] = [0.0, -0.0, 1e-300, -1e-300]   # both signs of zero
        data = data.with_y(y)
        for gamma in GAMMAS:
            assert_same_terms(data.response, oracles.ResponseFromScratch(data),
                              gamma)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_completed_response(self, kind):
        inst = random_instance(kind, 8, lattice=(6, 6), missing_frac=0.4)
        data = inst["data"]
        rng = np.random.default_rng(9)
        for _ in range(3):
            y_u = rng.normal(0.0, 2.0, size=data.n_missing)
            y_u[:2] = [0.0, -0.0]
            for gamma in GAMMAS:
                assert_same_terms(_Response(data, y_u),
                                  oracles.ResponseFromScratch(data, y_u),
                                  gamma)

    def test_nan_in_completed_response_is_refused(self):
        kind = ModelKind.YJ_SEM_T
        inst = random_instance(kind, 10, missing_frac=0.3)
        y_u = inst["y_u"].copy()
        y_u[-1] = np.nan
        with pytest.raises(DomainError, match="missing entries"):
            gradients.grad_log_h_missing(kind, inst["data"], inst["theta"],
                                         y_u, inst["priors"])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_targets(self, kind, monkeypatch):
        full = random_instance(kind, 11, lattice=(6, 6))
        miss = random_instance(kind, 12, lattice=(6, 6), missing_frac=0.3)
        y_u = miss["y_u"] + 0.5

        def both():
            return (gradients.grad_log_h_full(kind, full["data"],
                                              full["theta"], full["priors"]),
                    gradients.grad_log_h_missing(kind, miss["data"],
                                                 miss["theta"], y_u,
                                                 miss["priors"]))

        got = both()
        scratch_terms(monkeypatch)
        want = both()
        for (g, h), (g_ref, h_ref) in zip(got, want):
            assert np.array_equal(g, g_ref) and h == h_ref


def scratch_terms(monkeypatch):
    """Route both targets through ResponseFromScratch."""
    monkeypatch.setattr(gradients, "_Response", oracles.ResponseFromScratch)
    monkeypatch.setattr(Dataset, "response", property(
        lambda data: oracles.ResponseFromScratch(data)))


def replaced_fit(monkeypatch):
    """Run fits on the replaced code: the old SGA loop and step, the YJ
    terms from scratch, and the MH sweep one step at a time."""
    scratch_terms(monkeypatch)
    monkeypatch.setattr(vb, "_sga", oracles.sga_loop)
    monkeypatch.setattr(hvb, "_sga", oracles.sga_loop)
    monkeypatch.setattr(hvb, "_mh_sweep", oracles.step_by_step_sweep)


def assert_same_fit(got, want):
    assert_same_lam(got.lam, want.lam)
    assert np.array_equal(got.elbo_trace, want.elbo_trace)
    assert np.array_equal(got.mu_trace, want.mu_trace)
    if want.acceptance is not None:
        assert np.array_equal(got.acceptance, want.acceptance)


class TestFits:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vb_fit(self, kind, monkeypatch):
        inst = random_instance(kind, 13, lattice=(6, 6))
        config = vb.FitConfig(max_iters=50, seed=14, trace_every=7)

        def fit():
            data = inst["data"].with_y(inst["data"].y)   # fresh caches
            return vb.vb_fit(kind, data, inst["priors"], config)

        got = fit()
        replaced_fit(monkeypatch)
        assert_same_fit(got, fit())

    @pytest.mark.parametrize("kernel", ["nob", "allb"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hvb_fit(self, kind, kernel, monkeypatch):
        inst = random_instance(kind, 15, lattice=(6, 6), missing_frac=0.35)
        config = hvb.HvbConfig(max_iters=50, seed=16, trace_every=9,
                               kernel=kernel, block_fraction=0.3,
                               warm_start=kernel == "allb")

        def fit():
            data = inst["data"].with_y(inst["data"].y)
            return hvb.hvb_fit(kind, data, inst["priors"], config)

        got = fit()
        assert np.any((got.acceptance[:, 2] > 0)
                      & (got.acceptance[:, 2] < config.n1))
        replaced_fit(monkeypatch)
        assert_same_fit(got, fit())

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("method", ["vb", "hvb"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_b_upper_triangle_stays_positive_zero(self, kind, method, p):
        if method == "vb":
            inst = random_instance(kind, 17, lattice=(6, 6))
            res = vb.vb_fit(kind, inst["data"], inst["priors"],
                            vb.FitConfig(n_factors=p, max_iters=30, seed=18))
        else:
            inst = random_instance(kind, 19, lattice=(6, 6),
                                   missing_frac=0.3)
            res = hvb.hvb_fit(kind, inst["data"], inst["priors"],
                              hvb.HvbConfig(n_factors=p, max_iters=30,
                                            seed=20, kernel="nob"))
        assert res.lam.B.shape == (res.lam.s, p)
        assert_upper_positive_zero(res.lam.B)


def count_set_up(monkeypatch) -> list:
    """Record each call of plan_route, as vb_fit and hvb_fit bind it, and of
    the rho-grid initialization."""
    calls = []
    for module, name in ((vb, "plan_route"), (hvb, "plan_route"),
                         (vb, "_ml_init")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestFactorCount:
    @pytest.mark.parametrize("method", ["vb", "hvb", "init_lambda"])
    def test_refused_before_any_set_up(self, method, monkeypatch):
        inst = random_instance(ModelKind.SEM_T, 23, lattice=(5, 5),
                               missing_frac=0.0 if method == "vb" else 0.3)
        data = inst["data"]
        layout = (layout_full(ModelKind.SEM_T, data) if method == "vb"
                  else layout_missing(ModelKind.SEM_T, data))
        calls = count_set_up(monkeypatch)
        config = hvb.HvbConfig(n_factors=layout.size + 1, max_iters=3)
        with pytest.raises(DomainError, match="exceeds parameter count"):
            if method == "vb":
                vb.vb_fit(ModelKind.SEM_T, data, inst["priors"], config)
            elif method == "hvb":
                hvb.hvb_fit(ModelKind.SEM_T, data, inst["priors"], config)
            else:
                vb.init_lambda(ModelKind.SEM_T, data, config,
                               with_psi=True)
        assert calls == []
        # one factor per parameter is allowed
        config = hvb.HvbConfig(n_factors=layout.size, max_iters=1)
        if method == "init_lambda":
            lam = vb.init_lambda(ModelKind.SEM_T, data, config,
                                 with_psi=True)
        else:
            fit = vb.vb_fit if method == "vb" else hvb.hvb_fit
            lam = fit(ModelKind.SEM_T, data, inst["priors"], config).lam
        assert lam.p == lam.s == layout.size
        assert "_ml_init" in calls

