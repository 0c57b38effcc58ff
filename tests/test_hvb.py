"""Hybrid fit: proposals, MH kernels, and the outer loop."""

import numpy as np
import pytest
from scipy.special import expit

from semvb.errors import DimensionError, DomainError, NumericalError
from semvb import hvb, spatial
from semvb.likelihoods import Dataset, layout_missing, log_p_m
from semvb.models import (MissingnessParams, ModelKind, ModelParams, Priors,
                          link_forward, link_inverse)
from semvb.spatial import build_rook_lattice, conditional_gaussian
from semvb.transforms import yj_forward
from semvb.variational import FitConfig, VariationalParams, init_lambda

from oracles import (csr, dense_M, discrete_mh_transition, draw_conditional,
                     mh_accept_ratio, propose_yu, schur_conditional, sem_cov,
                     step_by_step_sweep)
from util import ALL_KINDS, random_instance


def theta_for(inst, psi_zero=False):
    """Link-scale parameter vector of an instance's true values."""
    layout = inst["layout"]
    psi = inst["psi"]
    if psi_zero:
        psi = MissingnessParams(psi_x=np.zeros_like(psi.psi_x), psi_y=0.0)
    return link_forward(layout.kind, layout, inst["params"],
                        tau=inst["tau"], psi=psi)


def allb_blocks(data, fraction):
    """The blocked kernel's blocks over data at block_fraction fraction."""
    return hvb.HvbConfig(kernel="allb",
                         block_fraction=fraction).block_scheme(data)


def with_missing(sites, n=25):
    """A 5 x 5 sem-gau dataset whose responses are missing at sites."""
    y = np.arange(n, dtype=float)
    y[sites] = np.nan
    X = np.ones((n, 1))
    return Dataset(y=y, X=X, W=build_rook_lattice(5, 5), Xstar=X)


class TestBlockScheme:
    def test_from_fraction_chunking(self):
        idx = np.arange(0, 20, 2)
        blocks = allb_blocks(with_missing(idx), 0.25)
        assert isinstance(blocks, tuple)
        assert [b.size for b in blocks] == [3, 3, 2, 2]
        assert all(b.dtype == np.int64 for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), idx)

    def test_single_block(self):
        blocks = allb_blocks(with_missing([1, 4, 7]), 1.0)
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0], [1, 4, 7])

    def test_more_blocks_than_sites(self):
        blocks = allb_blocks(with_missing([3, 5]), 0.1)
        assert [b.tolist() for b in blocks] == [[3], [5]]

    def test_empty_unobserved(self):
        assert allb_blocks(with_missing([]), 0.5) == ()

    def test_validation(self):
        with pytest.raises(DomainError):
            hvb.HvbConfig(block_fraction=0.0)

    def test_covering_check(self):
        data = with_missing([1, 2, 5])
        layout = layout_missing(ModelKind.SEM_GAU, data)
        params = ModelParams(beta=np.array([1.0]), sigma2=0.5, rho=0.3)
        psi = MissingnessParams(psi_x=np.array([0.2]), psi_y=0.4)
        theta = link_forward(ModelKind.SEM_GAU, layout, params, psi=psi)
        with pytest.raises(DomainError):
            hvb.mcmc_allb(ModelKind.SEM_GAU, data, theta, (np.array([1, 2]),),
                          None, 1, np.random.default_rng(0))
        y_u, accs = hvb.mcmc_allb(ModelKind.SEM_GAU, data, theta,
                                  (np.array([1, 2]), np.array([5])), None, 1,
                                  np.random.default_rng(0))
        assert y_u.shape == (3,) and accs.shape == (2,)


class TestHvbConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            hvb.HvbConfig(n1=0)
        with pytest.raises(DomainError):
            hvb.HvbConfig(kernel="gibbs")
        with pytest.raises(DomainError):
            hvb.HvbConfig(block_fraction=1.5)

    def test_kernel_resolution(self):
        cfg = hvb.HvbConfig()
        assert cfg.resolve_kernel(500) == "nob"
        assert cfg.resolve_kernel(501) == "allb"
        assert hvb.HvbConfig(kernel="allb").resolve_kernel(3) == "allb"

    def test_auto_block_scheme_follows_the_cap(self, monkeypatch):
        inst = random_instance(ModelKind.SEM_GAU, seed=21, missing_frac=0.4)
        data = inst["data"]
        cfg = hvb.HvbConfig(block_fraction=0.5)
        monkeypatch.setattr(hvb, "_NOB_MAX_NU", data.n_missing)
        assert cfg.block_scheme(data) is None
        monkeypatch.setattr(hvb, "_NOB_MAX_NU", data.n_missing - 1)
        blocks = cfg.block_scheme(data)
        want = np.array_split(data.unobserved_idx, 2)
        assert len(blocks) == 2
        for got, block in zip(blocks, want):
            np.testing.assert_array_equal(got, block)


class TestProposeYu:
    def test_rho_zero_independent_sites(self):
        # at rho = 0, M is diagonal, so each site draws N(x_i beta, s2 tau_i)
        inst = random_instance(ModelKind.SEM_T, seed=0, missing_frac=0.25)
        data, params, tau = inst["data"], inst["params"], inst["tau"]
        params = ModelParams(beta=params.beta, sigma2=params.sigma2, rho=0.0,
                             nu=params.nu)
        u_idx = data.unobserved_idx
        draw = propose_yu(ModelKind.SEM_T, data, params, tau, u_idx, data.y,
                          np.random.default_rng(5))
        z = np.random.default_rng(5).standard_normal(u_idx.size)
        want = data.X[u_idx] @ params.beta \
            + np.sqrt(params.sigma2 * tau[u_idx]) * z
        np.testing.assert_allclose(draw, want, atol=1e-12)

    def test_gamma_one_matches_identity_kind(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=1, missing_frac=0.25)
        data = inst["data"]
        u_idx = data.unobserved_idx
        base = inst["params"]
        p_id = ModelParams(beta=base.beta, sigma2=base.sigma2, rho=base.rho)
        p_yj = ModelParams(beta=base.beta, sigma2=base.sigma2, rho=base.rho,
                           gamma=1.0)
        a = propose_yu(ModelKind.SEM_GAU, data, p_id, None, u_idx, data.y,
                       np.random.default_rng(6))
        b = propose_yu(ModelKind.YJ_SEM_GAU, data, p_yj, None, u_idx, data.y,
                       np.random.default_rng(6))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_moments_match_schur_oracle(self):
        rng = np.random.default_rng(2)
        W = build_rook_lattice(2, 2)
        data_y = np.array([0.7, np.nan, -0.4, np.nan])
        X = np.column_stack([np.ones(4), [0.5, -1.0, 0.2, 1.4]])
        data = Dataset(y=data_y, X=X, W=W,
                       Xstar=np.column_stack([np.ones(4), np.zeros(4)]))
        params = ModelParams(beta=np.array([0.3, 1.1]), sigma2=0.8, rho=0.5)
        obs, u_idx = np.flatnonzero(~data.missing), data.unobserved_idx
        draws = np.stack([
            propose_yu(ModelKind.SEM_GAU, data, params, None, u_idx, data_y,
                       rng)
            for _ in range(6000)])
        mean_full = X @ params.beta
        cov = sem_cov(csr(W).toarray(), 0.5, 0.8, None)
        om, oc = schur_conditional(mean_full, cov, obs, u_idx, data_y[obs])
        se_m = np.sqrt(np.diag(oc) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - om) < 4 * se_m)
        np.testing.assert_allclose(np.cov(draws.T), oc, atol=0.06)


class TestMhAcceptRatio:
    def test_identical_vectors(self):
        m = np.array([0.0, 1.0])
        Xs = np.ones((2, 1))
        psi = MissingnessParams(psi_x=np.array([0.4]), psi_y=-0.6)
        y = np.array([1.0, 2.0])
        assert mh_accept_ratio(m, y, y, Xs, psi) == 1.0

    def test_psi_zero(self):
        m = np.array([1.0, 0.0, 1.0])
        Xs = np.ones((3, 1))
        psi = MissingnessParams(psi_x=np.array([0.0]), psi_y=0.0)
        a = mh_accept_ratio(m, np.array([5.0, 1.0, -2.0]),
                            np.array([0.0, 1.0, 3.0]), Xs, psi)
        assert a == 1.0

    def test_two_site_hand_case(self):
        m = np.array([0.0, 1.0])
        Xs = np.column_stack([np.ones(2), [0.5, -0.2]])
        psi = MissingnessParams(psi_x=np.array([0.3, 0.9]), psi_y=0.7)

        def pm(y):
            eta = Xs @ psi.psi_x + psi.psi_y * y
            return (1.0 - expit(eta[0])) * expit(eta[1])

        y_curr = np.array([0.4, -1.0])
        y_prop = np.array([0.4, 2.0])
        want = min(1.0, pm(y_prop) / pm(y_curr))
        got = mh_accept_ratio(m, y_prop, y_curr, Xs, psi)
        assert got == pytest.approx(want, abs=1e-12)


class TestMcmcNob:
    def test_n1_zero_identity(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=3, missing_frac=0.25)
        init = np.full(inst["data"].n_missing, 0.123)
        y_u, acc = hvb.mcmc_nob(ModelKind.SEM_GAU, inst["data"],
                                theta_for(inst), init, 0,
                                np.random.default_rng(0))
        np.testing.assert_array_equal(y_u, init)
        assert acc == 0

    def test_psi_zero_accepts_everything(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=4, missing_frac=0.25)
        _, acc = hvb.mcmc_nob(ModelKind.SEM_GAU, inst["data"],
                              theta_for(inst, psi_zero=True), None, 50,
                              np.random.default_rng(1))
        assert acc == 50

    def test_psi_zero_is_exact_conditional(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=5, missing_frac=0.25)
        data = inst["data"]
        obs, u_idx = np.flatnonzero(~data.missing), data.unobserved_idx
        theta = theta_for(inst, psi_zero=True)
        rng = np.random.default_rng(2)
        draws = np.stack([
            hvb.mcmc_nob(ModelKind.SEM_GAU, data, theta, None, 2, rng)[0]
            for _ in range(4000)])
        params = inst["params"]
        mean_full = data.X @ params.beta
        cov = sem_cov(csr(data.W).toarray(), params.rho, params.sigma2, None)
        om, oc = schur_conditional(mean_full, cov, obs, u_idx, data.y[obs])
        se = np.sqrt(np.diag(oc) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - om) < 4 * se)
        np.testing.assert_allclose(np.cov(draws.T), oc, atol=0.08)

    def test_wrong_init_length(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=6, missing_frac=0.25)
        with pytest.raises(DimensionError):
            hvb.mcmc_nob(ModelKind.SEM_GAU, inst["data"], theta_for(inst),
                         np.zeros(1 + inst["data"].n_missing), 1,
                         np.random.default_rng(0))

    def test_observed_entries_preserved(self):
        inst = random_instance(ModelKind.YJ_SEM_GAU, seed=7,
                               missing_frac=0.25)
        data = inst["data"]
        before = data.y.copy()
        y_u, _ = hvb.mcmc_nob(ModelKind.YJ_SEM_GAU, data, theta_for(inst),
                              None, 5, np.random.default_rng(3))
        completed = data.complete(y_u)
        obs = ~data.missing
        assert np.array_equal(completed[obs], before[obs])
        assert np.array_equal(data.y, before, equal_nan=True)

    def test_long_run_matches_importance_sampling_oracle(self):
        # one missing site: the chain's marginal must match the weighted
        # conditional p(y_u | y_o, m, xi, psi)
        rng = np.random.default_rng(8)
        W = build_rook_lattice(1, 3)
        y = np.array([0.8, np.nan, -0.3])
        X = np.column_stack([np.ones(3), [0.2, -0.5, 1.0]])
        Xs = np.column_stack([np.ones(3), [0.1, 0.4, -0.2]])
        data = Dataset(y=y, X=X, W=W, Xstar=Xs)
        params = ModelParams(beta=np.array([0.5, 1.0]), sigma2=0.7, rho=0.4)
        psi = MissingnessParams(psi_x=np.array([-0.3, 0.6]), psi_y=0.9)
        layout = layout_missing(ModelKind.SEM_GAU, data)
        theta = link_forward(ModelKind.SEM_GAU, layout, params, psi=psi)

        chain = np.empty(15000)
        y_curr, _ = hvb.mcmc_nob(ModelKind.SEM_GAU, data, theta, None, 1,
                                 rng)
        for k in range(chain.size):
            y_curr, _ = hvb.mcmc_nob(ModelKind.SEM_GAU, data, theta, y_curr,
                                     1, rng)
            chain[k] = y_curr[0]

        # the missing site's NaN residual is not read
        cond = conditional_gaussian(ModelKind.SEM_GAU, W, params.rho, None,
                                    data.unobserved_idx, y - X @ params.beta)
        mean = X[1] @ params.beta + cond.mean_offset[0]
        sd = np.sqrt(cond.covariance(params.sigma2)[0, 0])
        ref = mean + sd * np.random.default_rng(9).standard_normal(200000)
        # observed-site terms are constant in y_u, so the importance weight
        # is just the missing site's own probability
        w = expit(Xs[1] @ psi.psi_x + psi.psi_y * ref)
        order = np.argsort(ref)
        cdf_ref = np.cumsum(w[order]) / w.sum()
        # sup distance between the chain's empirical CDF and the IS CDF
        pos = np.searchsorted(np.sort(chain), ref[order], side="right")
        ks = np.max(np.abs(pos / chain.size - cdf_ref))
        assert ks < 0.05


def step_by_step_nob(kind, data, theta, y_u_init, n1, rng):
    """The whole-vector chain one step at a time, from the proposal and
    ratio helpers; returns the imputation, the accept count and the
    proposals."""
    params, tau, psi = link_inverse(kind, layout_missing(kind, data), theta)
    obs, u_idx = ~data.missing, data.unobserved_idx
    mean = data.X @ params.beta
    y_obs = data.y[obs]
    if kind.yeo_johnson:
        y_obs = yj_forward(y_obs, params.gamma)
    r = np.zeros(data.n)
    r[obs] = y_obs - mean[obs]
    cond = conditional_gaussian(kind, data.W, params.rho, tau, u_idx, r)
    y_u = (draw_conditional(kind, params, cond, mean[u_idx], rng)
           if y_u_init is None else y_u_init.copy())
    accepts, proposals = 0, []
    for _ in range(n1):
        prop = draw_conditional(kind, params, cond, mean[u_idx], rng)
        uniform = rng.uniform()
        proposals.append(prop)
        a = 0.0
        if np.all(np.isfinite(prop)):
            a = mh_accept_ratio(data.missing[u_idx], prop, y_u,
                                data.Xstar[u_idx], psi)
        if a > uniform:
            y_u = prop
            accepts += 1
    return y_u, accepts, proposals


class TestOneBlockBatch:
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_step_by_step_reference(self, kind, warm):
        inst = random_instance(kind, seed=21, lattice=(5, 5),
                               missing_frac=0.4)
        data = inst["data"]
        theta = theta_for(inst)
        layout = inst["layout"]
        # a steep psi_y keeps the acceptance rate away from 0 and 1
        theta[layout.psi_y] = 1.5
        init = inst["y_u"] + 0.25 if warm else None
        rng = np.random.default_rng(22)
        got, acc = hvb.mcmc_nob(kind, data, theta, init, 12, rng)
        ref = np.random.default_rng(22)
        want, want_acc, _ = step_by_step_nob(kind, data, theta, init, 12, ref)
        np.testing.assert_array_equal(got, want)
        assert acc == want_acc
        assert 0 < acc < 12
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("kind", [ModelKind.YJ_SEM_GAU,
                                      ModelKind.YJ_SEM_T])
    def test_nonfinite_row_rejected_after_its_uniform(self, kind,
                                                      monkeypatch):
        inst = random_instance(kind, seed=23, lattice=(5, 5),
                               missing_frac=0.3)
        data = inst["data"]
        # psi = 0 accepts every finite proposal
        theta = theta_for(inst, psi_zero=True)
        init = inst["y_u"].copy()
        ref = np.random.default_rng(24)
        _, _, proposals = step_by_step_nob(kind, data, theta, init, 4, ref)
        real = hvb.yj_inverse

        def inf_in_last_row(z, gamma):
            out = real(z, gamma)
            if out.ndim == 2:
                out[-1, 0] = np.inf
            return out

        monkeypatch.setattr(hvb, "yj_inverse", inf_in_last_row)
        rng = np.random.default_rng(24)
        y_u, acc = hvb.mcmc_nob(kind, data, theta, init, 4, rng)
        np.testing.assert_array_equal(y_u, proposals[2])
        assert acc == 3
        assert rng.bit_generator.state == ref.bit_generator.state


class TestMcmcAllb:
    def test_single_block_matches_nob(self):
        inst = random_instance(ModelKind.YJ_SEM_GAU, seed=9,
                               missing_frac=0.25)
        data = inst["data"]
        theta = theta_for(inst)
        blocks = allb_blocks(data, 1.0)
        a, acc_a = hvb.mcmc_nob(ModelKind.YJ_SEM_GAU, data, theta, None, 8,
                                np.random.default_rng(4))
        b, acc_b = hvb.mcmc_allb(ModelKind.YJ_SEM_GAU, data, theta, blocks,
                                 None, 8, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)
        assert acc_a == acc_b[0]

    def test_psi_zero_stationary_moments(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=10, missing_frac=0.3)
        data = inst["data"]
        obs, u_idx = np.flatnonzero(~data.missing), data.unobserved_idx
        theta = theta_for(inst, psi_zero=True)
        blocks = allb_blocks(data, 0.5)
        assert len(blocks) == 2
        rng = np.random.default_rng(5)
        draws = np.stack([
            hvb.mcmc_allb(ModelKind.SEM_GAU, data, theta, blocks, None, 2,
                          rng)[0]
            for _ in range(2500)])
        params = inst["params"]
        mean_full = data.X @ params.beta
        cov = sem_cov(csr(data.W).toarray(), params.rho, params.sigma2, None)
        om, oc = schur_conditional(mean_full, cov, obs, u_idx, data.y[obs])
        se = np.sqrt(np.diag(oc) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - om) < 4 * se)
        np.testing.assert_allclose(np.cov(draws.T), oc, atol=0.08)

    def test_acceptance_counts_bounded(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=11, missing_frac=0.4)
        data = inst["data"]
        blocks = allb_blocks(data, 0.34)
        _, accs = hvb.mcmc_allb(ModelKind.SEM_GAU, data, theta_for(inst),
                                blocks, None, 6, np.random.default_rng(6))
        assert accs.shape == (len(blocks),)
        assert np.all((accs >= 0) & (accs <= 6))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_hand_built_reference_sweep(self, kind):
        # with psi = 0 every finite proposal is accepted, so each block must
        # condition on the values the blocks before it just took; a stale
        # mean offset breaks the match
        inst = random_instance(kind, seed=13, lattice=(5, 5),
                               missing_frac=0.4)
        data = inst["data"]
        u_idx = data.unobserved_idx
        theta = theta_for(inst, psi_zero=True)
        params, tau, _ = link_inverse(kind, inst["layout"], theta)
        blocks = allb_blocks(data, 0.34)
        assert len(blocks) == 3
        y_u_init = inst["y_u"] + 0.25
        got, accs = hvb.mcmc_allb(kind, data, theta, blocks, y_u_init, 2,
                                  np.random.default_rng(14))

        rng = np.random.default_rng(14)
        want = y_u_init.copy()
        for _ in range(2):
            for block in blocks:
                prop = propose_yu(kind, data, params, tau, block,
                                  data.complete(want), rng)
                rng.uniform()
                assert np.all(np.isfinite(prop))
                want[np.searchsorted(u_idx, block)] = prop
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(accs, [2, 2, 2])

    @pytest.mark.parametrize("fraction", [1.0, 0.34, None],
                             ids=["one-block", "three-blocks", "site-blocks"])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_step_by_step_sweep(self, kind, warm, fraction):
        inst = random_instance(kind, seed=21, lattice=(5, 5),
                               missing_frac=0.4)
        data = inst["data"]
        u_idx = data.unobserved_idx
        theta = theta_for(inst)
        # a steep psi_y keeps some block's acceptance rate away from 0 and 1
        theta[inst["layout"].psi_y] = 1.5
        blocks = (tuple(u_idx[:, None]) if fraction is None
                  else allb_blocks(data, fraction))
        init = inst["y_u"] + 0.25 if warm else None
        rng = np.random.default_rng(22)
        got, accs = hvb.mcmc_allb(kind, data, theta, blocks, init, 12, rng)
        ref = np.random.default_rng(22)
        want, want_accs = step_by_step_sweep(kind, data, theta,
                                             blocks, init, 12, ref)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(accs, want_accs)
        assert np.any((accs > 0) & (accs < 12))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("warm", [False, True])
    def test_one_factorization_per_block(self, warm, monkeypatch):
        inst = random_instance(ModelKind.SEM_T, seed=19, lattice=(5, 5),
                               missing_frac=0.4)
        data = inst["data"]
        theta = theta_for(inst)
        init = inst["y_u"] if warm else None
        blocks = allb_blocks(data, 0.34)
        assert len(blocks) == 3
        factored = []
        real = spatial._pbtrf

        def counted(*args, **kwargs):
            factored.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spatial, "_pbtrf", counted)
        rng = np.random.default_rng(20)
        # the whole-vector chain keeps its start's conditional
        hvb.mcmc_nob(ModelKind.SEM_T, data, theta, init, 4, rng)
        assert len(factored) == 1
        factored.clear()
        hvb.mcmc_allb(ModelKind.SEM_T, data, theta, blocks, init, 4, rng)
        assert len(factored) == len(blocks) + (not warm)

    def test_block_plans_built_once_per_block(self, monkeypatch):
        inst = random_instance(ModelKind.SEM_T, seed=19, lattice=(5, 5),
                               missing_frac=0.4)
        data = inst["data"]
        blocks = allb_blocks(data, 0.34)
        built = []
        make = spatial._build_block_plan

        def counted(W, block):
            built.append(block.tobytes())
            return make(W, block)

        monkeypatch.setattr(spatial, "_build_block_plan", counted)
        rng = np.random.default_rng(20)
        for _ in range(3):
            hvb.mcmc_allb(ModelKind.SEM_T, data, theta_for(inst), blocks,
                          None, 2, rng)
        # each block, plus the whole unobserved set for the chain start
        want = [data.unobserved_idx.tobytes()]
        want += [b.tobytes() for b in blocks]
        assert sorted(built) == sorted(want)

    def test_blocks_must_cover(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=12, missing_frac=0.25)
        data = inst["data"]
        u_idx = data.unobserved_idx
        assert u_idx.size >= 4
        bad = {
            "not covering": (u_idx[:1],),
            "no blocks": (),
            "empty block": (u_idx[:2], u_idx[:0], u_idx[2:]),
            "overlapping": (u_idx[:3], u_idx[2:]),
            "out of site order": (u_idx[2:], u_idx[:2]),
        }
        for name, blocks in bad.items():
            with pytest.raises(DomainError):
                hvb.mcmc_allb(ModelKind.SEM_GAU, data, theta_for(inst),
                              blocks, None, 1, np.random.default_rng(0))
                pytest.fail(f"{name} blocks were accepted")


class TestBlockRatio:
    def test_block_sites_give_the_full_vector_ratio(self):
        # p(m | y, psi) factorizes over sites, so the sites outside the
        # updated block cancel from the ratio
        inst = random_instance(ModelKind.YJ_SEM_GAU, seed=15, lattice=(5, 5),
                               missing_frac=0.4)
        data = inst["data"]
        u_idx = data.unobserved_idx
        psi = MissingnessParams(psi_x=inst["psi"].psi_x, psi_y=-0.8)
        slots = np.arange(2, 6)
        block = u_idx[slots]
        rng = np.random.default_rng(16)
        y_curr = 2.0 * rng.standard_normal(u_idx.size)
        ratios = []
        for _ in range(20):
            y_prop = y_curr.copy()
            y_prop[slots] = 2.0 * rng.standard_normal(slots.size)
            # both directions, so that half the ratios fall below one
            for new, old in ((y_prop, y_curr), (y_curr, y_prop)):
                full = mh_accept_ratio(data.missing, data.complete(new),
                                       data.complete(old), data.Xstar,
                                       psi)
                sliced = mh_accept_ratio(data.missing[block], new[slots],
                                         old[slots], data.Xstar[block],
                                         psi)
                assert np.log(sliced) == pytest.approx(np.log(full),
                                                       abs=1e-12)
                ratios.append(full)
        assert min(ratios) < 0.1 and max(ratios) == 1.0

    def test_nonfinite_proposal_rejected_after_its_uniform(self, monkeypatch):
        inst = random_instance(ModelKind.YJ_SEM_GAU, seed=17, lattice=(5, 5),
                               missing_frac=0.3)
        data = inst["data"]
        blocks = allb_blocks(data, 0.5)
        real = hvb.yj_inverse

        def with_inf(z, gamma):
            out = real(z, gamma)
            out[..., 0] = np.inf
            return out

        monkeypatch.setattr(hvb, "yj_inverse", with_inf)
        init = inst["y_u"].copy()
        rng = np.random.default_rng(18)
        # psi = 0 would accept any finite proposal
        y_u, accs = hvb.mcmc_allb(ModelKind.YJ_SEM_GAU, data,
                                  theta_for(inst, psi_zero=True), blocks,
                                  init, 1, rng)
        np.testing.assert_array_equal(y_u, init)
        np.testing.assert_array_equal(accs, [0, 0])
        ref = np.random.default_rng(18)
        for block in blocks:
            ref.standard_normal(block.size)
            ref.uniform()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestStationarity:
    def test_discretized_single_site_detailed_balance(self):
        # acceptance ratios from the package kernel drive an enumerated
        # transition matrix; the target must be its stationary vector
        grid = np.linspace(-4.0, 4.0, 81)
        mean, sd = 0.3, 0.9
        Xs = np.array([[1.0, 0.5]])
        psi = MissingnessParams(psi_x=np.array([-0.2, 0.4]), psi_y=0.8)
        m = np.array([1.0])
        q = np.exp(-0.5 * ((grid - mean) / sd) ** 2)
        pm = np.array([
            np.exp(log_p_m(m, np.array([v]), Xs, psi)) for v in grid])
        target = q * pm

        k = grid.size
        T = np.zeros((k, k))
        qn = q / q.sum()
        for i in range(k):
            for j in range(k):
                if j == i:
                    continue
                a = mh_accept_ratio(m, np.array([grid[j]]),
                                    np.array([grid[i]]), Xs, psi)
                T[i, j] = qn[j] * a
            T[i, i] = 1.0 - T[i].sum()
        pi = target / target.sum()
        resid = np.max(np.abs(pi @ T - pi))
        assert resid < 1e-10
        np.testing.assert_allclose(T, discrete_mh_transition(target, q),
                                   atol=1e-12)


class TestHvbFit:
    def test_seed_reproducibility(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=13, missing_frac=0.25)
        cfg = hvb.HvbConfig(max_iters=30, seed=2, n1=3, trace_every=10)
        a = hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        b = hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        np.testing.assert_array_equal(a.mu_trace, b.mu_trace)
        np.testing.assert_array_equal(a.elbo_trace, b.elbo_trace)
        np.testing.assert_array_equal(a.acceptance, b.acceptance)

    def test_acceptance_log_shape(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=14, missing_frac=0.25)
        cfg = hvb.HvbConfig(max_iters=12, seed=0, n1=4)
        res = hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        assert res.acceptance.shape == (12, 4)
        assert np.all(res.acceptance[:, 0] == np.arange(1, 13))
        assert np.all(res.acceptance[:, 1] == 0)
        assert np.all(res.acceptance[:, 3] == 4)
        assert np.all((res.acceptance[:, 2] >= 0)
                      & (res.acceptance[:, 2] <= 4))

    def test_plateau_rule_stops_early(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=13, missing_frac=0.25)
        cfg = hvb.HvbConfig(max_iters=5000, seed=2, n1=2, stop_window=20,
                            stop_tol=1e30)  # absurd tol fires immediately
        res = hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        assert res.n_iters == 20
        assert res.trace_iters[-1] == 20
        assert res.acceptance[:, 0].max() == 20

    def test_trace_row_count(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=7, missing_frac=0.25)
        cfg = hvb.HvbConfig(max_iters=45, seed=0, n1=2, trace_every=20)
        res = hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        np.testing.assert_array_equal(res.trace_iters, [20, 40, 45])
        assert res.mu_trace.shape == (3, res.lam.s)
        assert res.elbo_trace.shape == (45,)

    def test_allb_acceptance_rows_per_block(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=15, missing_frac=0.4)
        cfg = hvb.HvbConfig(max_iters=5, seed=1, n1=2, kernel="allb",
                            block_fraction=0.5)
        res = hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        assert res.acceptance.shape == (10, 4)
        assert set(res.acceptance[:, 1]) == {0, 1}

    def test_allb_blocks_built_once_per_fit(self, monkeypatch):
        inst = random_instance(ModelKind.SEM_GAU, seed=15, missing_frac=0.4)
        built, passed = [], []
        real_scheme, real_allb = hvb.HvbConfig.block_scheme, hvb.mcmc_allb

        def scheme(self, data):
            built.append(real_scheme(self, data))
            return built[-1]

        def allb(kind, data, theta, blocks, *args):
            passed.append(blocks)
            return real_allb(kind, data, theta, blocks, *args)

        monkeypatch.setattr(hvb.HvbConfig, "block_scheme", scheme)
        monkeypatch.setattr(hvb, "mcmc_allb", allb)
        cfg = hvb.HvbConfig(max_iters=5, seed=1, n1=2, kernel="allb",
                            block_fraction=0.5)
        hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        assert len(built) == 1 and len(built[0]) == 2
        assert len(passed) == 5
        assert all(blocks is built[0] for blocks in passed)

    def test_no_missing_degenerates(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=16, missing_frac=0.0)
        base = inst["data"]
        Xs = np.column_stack([np.ones(base.n),
                              np.random.default_rng(0).lognormal(size=base.n)])
        data = Dataset(y=base.y, X=base.X, W=base.W, Xstar=Xs)
        assert data.n_missing == 0
        cfg = hvb.HvbConfig(max_iters=25, seed=3)
        res = hvb.hvb_fit(ModelKind.SEM_GAU, data, Priors(), cfg)
        assert res.layout.with_psi
        assert res.acceptance.shape == (0, 4)
        assert res.n_iters == 25

    def test_nonfinite_gradient_names_coordinate(self, monkeypatch):
        inst = random_instance(ModelKind.SEM_GAU, seed=19, missing_frac=0.25)
        idx = inst["layout"].names().index("rho_z")
        real_grad = hvb.grad_log_h_missing

        def nan_in_rho(*args):
            g, log_h = real_grad(*args)
            g[idx] = np.nan
            return g, log_h

        monkeypatch.setattr(hvb, "grad_log_h_missing", nan_in_rho)
        with pytest.raises(NumericalError) as err:
            hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(),
                        hvb.HvbConfig(max_iters=5, seed=0, n1=2))
        assert str(err.value) == "non-finite gradient in coordinate rho_z"
        assert err.value.iteration == 1 and err.value.coordinate == idx

    def test_requires_missingness_design(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=17)
        with pytest.raises(DomainError):
            hvb.hvb_fit(ModelKind.SEM_GAU, inst["data"], Priors(),
                        hvb.HvbConfig(max_iters=1))

    def test_warm_start_runs(self):
        inst = random_instance(ModelKind.SEM_T, seed=18, missing_frac=0.25)
        cfg = hvb.HvbConfig(max_iters=15, seed=4, n1=2, warm_start=True)
        res = hvb.hvb_fit(ModelKind.SEM_T, inst["data"], Priors(), cfg)
        assert res.n_iters == 15


class TestDrawPosteriorMissing:
    def degenerate_lam(self, kind, data, psi_zero=True):
        cfg = FitConfig()
        lam = init_lambda(kind, data, cfg, rng=np.random.default_rng(0),
                          with_psi=True)
        mu = lam.mu.copy()
        layout = layout_missing(kind, data)
        if psi_zero:
            mu[layout.psi] = 0.0
        return VariationalParams(mu=mu, B=np.zeros_like(lam.B),
                                 d=np.zeros_like(lam.d))

    def test_psi_zero_draws_exact_conditional(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=19, missing_frac=0.25)
        data = inst["data"]
        lam = self.degenerate_lam(ModelKind.SEM_GAU, data)
        layout = layout_missing(ModelKind.SEM_GAU, data)
        from semvb.models import link_inverse
        params, _, _ = link_inverse(ModelKind.SEM_GAU, layout, lam.mu)
        samples = hvb.draw_posterior_missing(
            ModelKind.SEM_GAU, data, lam, 3000, np.random.default_rng(7),
            config=hvb.HvbConfig(n1=2))
        obs, u_idx = np.flatnonzero(~data.missing), data.unobserved_idx
        mean_full = data.X @ params.beta
        cov = sem_cov(csr(data.W).toarray(), params.rho, params.sigma2, None)
        om, oc = schur_conditional(mean_full, cov, obs, u_idx, data.y[obs])
        se = np.sqrt(np.diag(oc) / samples.y_u.shape[0])
        assert np.all(np.abs(samples.y_u.mean(axis=0) - om) < 4 * se)
        # posterior-mean imputation tracks the analytic conditional mean
        assert np.corrcoef(samples.y_u.mean(axis=0), om)[0, 1] > 0.99

    def test_single_draw_shapes(self):
        inst = random_instance(ModelKind.YJ_SEM_T, seed=20,
                               missing_frac=0.25)
        data = inst["data"]
        lam = init_lambda(ModelKind.YJ_SEM_T, data, FitConfig(),
                          rng=np.random.default_rng(1), with_psi=True)
        s = hvb.draw_posterior_missing(ModelKind.YJ_SEM_T, data, lam, 1,
                                       np.random.default_rng(2),
                                       config=hvb.HvbConfig(n1=2))
        assert s.phi.shape == (1, data.n_beta + 4)
        assert s.psi.shape == (1, 3)
        assert s.y_u.shape == (1, data.n_missing)
        assert s.phi_names[-2:] == ("nu", "gamma")
