"""Variational family, gradient assembly, ADADELTA, and the SGA loop."""

import numpy as np
import pytest
import scipy.stats as st

from semvb.errors import (DimensionError, DomainError, NumericalError,
                          SingularityError)
from semvb import spatial
from semvb import variational as vb
from semvb.likelihoods import Dataset
from semvb.models import ModelKind, ModelParams, Priors
from semvb.simulate import make_design, simulate_sem
from semvb.spatial import SpatialWeights, build_rook_lattice

from oracles import ml_init_full_grid
from util import random_instance, with_spectrum


def small_lam(seed=0, s=4, p=2) -> vb.VariationalParams:
    rng = np.random.default_rng(seed)
    B = np.tril(rng.standard_normal((s, p)))
    return vb.VariationalParams(mu=rng.standard_normal(s), B=B,
                                d=rng.uniform(0.5, 1.5, size=s))


class TestVariationalParams:
    def test_upper_triangle_enforced(self):
        B = np.ones((3, 2))
        with pytest.raises(DomainError):
            vb.VariationalParams(mu=np.zeros(3), B=B, d=np.ones(3))

    def test_factor_count_bounds(self):
        with pytest.raises(DimensionError):
            vb.VariationalParams(mu=np.zeros(2), B=np.zeros((2, 3)),
                                 d=np.ones(2))

    def test_flat_round_trip(self):
        lam = small_lam()
        step = np.zeros(lam.flat().size)
        same = lam.with_step(step)
        np.testing.assert_array_equal(same.mu, lam.mu)
        np.testing.assert_array_equal(same.B, lam.B)
        np.testing.assert_array_equal(same.d, lam.d)

    def test_flat_lays_out_b_row_by_row(self):
        lam = small_lam(s=5, p=3)
        flat = lam.flat()
        assert flat.shape == ((lam.p + 2) * lam.s,)
        np.testing.assert_array_equal(
            flat, np.concatenate([lam.mu, lam.B.ravel(), lam.d]))
        step = np.arange(flat.size, dtype=float)
        step[lam.s:-lam.s].reshape(lam.s, lam.p)[np.triu_indices(
            lam.s, 1, lam.p)] = 0.0
        np.testing.assert_array_equal(lam.with_step(step).flat(), flat + step)

    def test_step_to_nonfinite_rejected(self):
        lam = small_lam()
        step = np.zeros(lam.flat().size)
        for k in (0, lam.s, step.size - 1):   # mu, B, d
            bad = step.copy()
            bad[k] = np.inf
            with pytest.raises(DomainError):
                lam.with_step(bad)

    def test_step_keeps_mask(self):
        # every ADADELTA step from a reparam_grads gradient is +0.0 on B's
        # strict upper triangle, so B keeps its +0.0 entries there
        lam = small_lam(s=5, p=3)
        rng = np.random.default_rng(1)
        state = vb.AdadeltaState.zeros(lam.flat().size)
        for _ in range(5):
            g, eps = rng.standard_normal((2, lam.s))
            step, state = vb.adadelta_step(state, vb.reparam_grads(
                lam, rng.standard_normal(lam.p), eps, g))
            lam = lam.with_step(step)
        upper = lam.B[np.triu_indices(lam.s, 1, lam.p)]
        np.testing.assert_array_equal(upper, 0.0)
        assert not np.signbit(upper).any()


class TestSampleQ:
    def test_degenerate_family(self):
        mu = np.array([1.0, -2.0, 0.5])
        lam = vb.VariationalParams(mu=mu, B=np.zeros((3, 1)), d=np.zeros(3))
        theta, _, _ = vb.sample_q(lam, np.random.default_rng(0))
        np.testing.assert_array_equal(theta, mu)

    def test_seed_determinism(self):
        lam = small_lam()
        a = vb.sample_q(lam, np.random.default_rng(42))[0]
        b = vb.sample_q(lam, np.random.default_rng(42))[0]
        np.testing.assert_array_equal(a, b)

    def test_empirical_covariance(self):
        lam = small_lam(seed=3)
        rng = np.random.default_rng(7)
        draws = np.stack([vb.sample_q(lam, rng)[0] for _ in range(100000)])
        cov_hat = np.cov(draws.T)
        cov = lam.covariance()
        # 3 standard errors of a sample covariance entry
        n = draws.shape[0]
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        assert np.all(np.abs(cov_hat - cov) < 3.5 * se + 1e-3)

    def test_log_q0_matches_scipy(self):
        lam = small_lam(seed=5)
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(lam.s)
        expected = st.multivariate_normal(mean=lam.mu,
                                          cov=lam.covariance()).logpdf(theta)
        assert vb.log_q0(lam, theta) == pytest.approx(float(expected), abs=1e-10)


def split_grads(lam, flat):
    """(d_mu, d_B, d_d) from the flat lambda gradient of reparam_grads."""
    assert flat.shape == lam.flat().shape
    d_mu, d_B, d_d = np.split(flat, [lam.s, flat.size - lam.s])
    return d_mu, d_B.reshape(lam.s, lam.p), d_d


class TestReparamGrads:
    def test_zero_gradient(self):
        lam = small_lam()
        d_mu, d_B, d_d = split_grads(lam, vb.reparam_grads(
            lam, np.zeros(lam.p), np.zeros(lam.s), np.zeros(lam.s)))
        assert not d_mu.any() and not d_B.any() and not d_d.any()

    def test_hand_case_s3_p1(self):
        lam = vb.VariationalParams(mu=np.zeros(3), B=np.ones((3, 1)),
                                   d=np.ones(3))
        g = np.array([1.0, -2.0, 3.0])
        eta = np.array([0.5])
        eps = np.array([1.0, 0.0, -1.0])
        d_mu, d_B, d_d = split_grads(lam, vb.reparam_grads(lam, eta, eps, g))
        np.testing.assert_array_equal(d_mu, g)
        np.testing.assert_array_equal(d_B[:, 0], g * 0.5)
        np.testing.assert_array_equal(d_d, g * eps)

    def test_vech_length(self):
        # the gradient reaches exactly vech(B)'s 5 * 3 - 3 * 2 / 2 entries;
        # the rest of B's block is +0.0
        lam = small_lam(s=5, p=3)
        _, d_B, _ = split_grads(lam, vb.reparam_grads(
            lam, np.ones(3), np.ones(5), -np.ones(5)))
        np.testing.assert_array_equal(d_B != 0.0, np.tri(5, 3, dtype=bool))
        assert not np.signbit(d_B[np.triu_indices(5, 1, 3)]).any()
        assert np.count_nonzero(d_B) == 5 * 3 - 3 * 2 // 2

    def test_unbiased_mu_gradient_quadratic_target(self):
        # synthetic quadratic log h makes the exact ELBO mu-gradient
        # -P (mu - a); the single-draw estimator must average to it
        rng = np.random.default_rng(11)
        s, p = 4, 2
        P = np.diag([1.0, 2.0, 0.5, 1.5])
        a = np.array([0.3, -0.7, 1.1, 0.0])
        lam = vb.VariationalParams(
            mu=np.array([0.0, 0.5, -0.5, 1.0]),
            B=np.tril(0.3 * np.ones((s, p))), d=np.full(s, 0.4))
        from semvb.gradients import grad_log_q0
        est = np.zeros((10000, s))
        for k in range(est.shape[0]):
            theta, eta, eps = vb.sample_q(lam, rng)
            g = -P @ (theta - a) - grad_log_q0(lam, theta)
            est[k] = vb.reparam_grads(lam, eta, eps, g)[:s]
        exact = -P @ (lam.mu - a)
        se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
        assert np.all(np.abs(est.mean(axis=0) - exact) < 3.5 * se + 1e-12)


class TestAdadelta:
    def test_first_step_hand_value(self):
        state = vb.AdadeltaState.zeros(3)
        step, new = vb.adadelta_step(state, np.ones(3))
        np.testing.assert_allclose(step, 4.4721e-3, atol=1e-7)
        np.testing.assert_allclose(new.e_grad2, 0.05, atol=1e-15)

    def test_zero_gradient_decays(self):
        state = vb.AdadeltaState(e_grad2=np.full(2, 0.4),
                                 e_dx2=np.full(2, 0.2))
        step, new = vb.adadelta_step(state, np.zeros(2))
        np.testing.assert_array_equal(step, 0.0)
        np.testing.assert_allclose(new.e_grad2, 0.95 * 0.4, atol=1e-15)
        np.testing.assert_allclose(new.e_dx2, 0.95 * 0.2, atol=1e-15)

    def test_sign_alignment(self):
        rng = np.random.default_rng(2)
        state = vb.AdadeltaState.zeros(10)
        for _ in range(5):
            g = rng.standard_normal(10)
            step, state = vb.adadelta_step(state, g)
            assert np.all(np.sign(step) == np.sign(g))


class TestInitLambda:
    def test_b_and_d_filled(self):
        inst = random_instance(ModelKind.YJ_SEM_T, seed=0)
        lam = vb.init_lambda(ModelKind.YJ_SEM_T, inst["data"], vb.FitConfig())
        i, j = np.tril_indices(lam.s, 0, lam.p)
        assert np.all(lam.B[i, j] == 0.01)
        assert np.all(lam.d == 0.01)
        iu, ju = np.triu_indices(lam.s, 1, lam.p)
        assert np.all(lam.B[iu, ju] == 0.0)

    def test_gamma_init_offset(self):
        inst = random_instance(ModelKind.YJ_SEM_GAU, seed=1)
        lam = vb.init_lambda(ModelKind.YJ_SEM_GAU, inst["data"], vb.FitConfig())
        layout = inst["layout"]
        assert lam.mu[layout.gamma] == pytest.approx(2e-3, abs=1e-5)

    def test_nu_starts_at_four(self):
        inst = random_instance(ModelKind.SEM_T, seed=2)
        lam = vb.init_lambda(ModelKind.SEM_T, inst["data"], vb.FitConfig())
        assert lam.mu[inst["layout"].nu] == 0.0

    def test_ols_when_spatially_flat(self):
        # an empty weight matrix makes the GLS fit identical at every rho
        from semvb.spatial import SpatialWeights
        rng = np.random.default_rng(3)
        n = 40
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = X @ np.array([1.0, -2.0]) + rng.standard_normal(n)
        data = Dataset(y=y, X=X, W=SpatialWeights(n=n, rows=[], cols=[],
                                                  weights=[]))
        lam = vb.init_lambda(ModelKind.SEM_GAU, data, vb.FitConfig())
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(lam.mu[:2], ols, atol=1e-8)

    def test_rank_deficient_rejected(self):
        W = build_rook_lattice(2, 2)
        X = np.ones((4, 2))  # duplicated intercept
        data = Dataset(y=np.zeros(4), X=X, W=W)
        with pytest.raises(DomainError):
            vb.init_lambda(ModelKind.SEM_GAU, data, vb.FitConfig())

    def test_psi_block(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=4, missing_frac=0.25)
        lam = vb.init_lambda(ModelKind.SEM_GAU, inst["data"], vb.FitConfig(),
                             with_psi=True)
        layout = inst["layout"]
        np.testing.assert_array_equal(lam.mu[layout.psi], 0.1)


def sem_data(kind, side, rho, seed, row_standardize=True, missing=0.0,
             W=None):
    """A simulated SEM dataset on a side x side rook lattice (or on W), with
    a fraction `missing` of the responses set to NaN."""
    rng = np.random.default_rng(seed)
    W = build_rook_lattice(side, side, row_standardize) if W is None else W
    X = make_design(W.n, 2, rng)
    truth = ModelParams(beta=np.array([1.0, -2.0, 0.5]), sigma2=1.0, rho=rho,
                        nu=5.0 if kind.student_t else None,
                        gamma=0.8 if kind.yeo_johnson else None)
    y, _ = simulate_sem(kind, X, W, truth, rng)
    if missing:
        y = y.copy()
        y[rng.random(W.n) < missing] = np.nan
    return Dataset(y=y, X=X, W=W)


def fresh(data):
    """data with a new, uncached copy of its weights."""
    W = data.W
    return Dataset(y=data.y, X=data.X, W=SpatialWeights(
        n=W.n, rows=W.rows, cols=W.cols, weights=W.weights,
        row_standardized=W.row_standardized))


def assert_same_init(got, want):
    """Equal (beta_hat, sigma2_hat, rho_hat), bit for bit and type for type."""
    assert got[0].tobytes() == want[0].tobytes()
    for a, b in zip(got[1:], want[1:]):
        assert type(a) is type(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def count_logdets(monkeypatch):
    calls = []
    real = vb.logdet_A

    def counting(W, rho):
        calls.append(rho)
        return real(W, rho)

    monkeypatch.setattr(vb, "logdet_A", counting)
    return calls


ROW_STANDARDIZED = [(kind, side, rho, seed)
                    for kind in (ModelKind.SEM_GAU, ModelKind.YJ_SEM_T)
                    for side in (8, 12)
                    for rho in (-0.5, 0.0, 0.8, 0.95)
                    for seed in (0, 1)]


class TestMlInit:
    """The pruned rho grid against the full scan of 199 log-dets."""

    @pytest.mark.parametrize("capped", [False, True])
    def test_row_standardized_small(self, capped, monkeypatch):
        # capped: the log-dets from banded Cholesky factors, else from the
        # spectrum
        calls = count_logdets(monkeypatch)
        for kind, side, rho, seed in ROW_STANDARDIZED:
            data = sem_data(kind, side, rho, seed)
            if not capped:
                with_spectrum(data.W)
            assert spatial.plan_route(data.W) == ("cholesky+lu" if capped
                                                  else "band-eigen")
            del calls[:]
            got = vb._ml_init(data)
            assert 1 <= len(calls) <= 15
            assert_same_init(got, ml_init_full_grid(data))

    @pytest.mark.parametrize("kind, rho", [(ModelKind.SEM_GAU, 0.95),
                                           (ModelKind.YJ_SEM_T, -0.5)])
    def test_row_standardized_past_cap(self, kind, rho, monkeypatch):
        data = sem_data(kind, 46, rho, 3)
        assert data.W.n > spatial._EIGEN_MAX_N
        calls = count_logdets(monkeypatch)
        got = vb._ml_init(data)
        assert 1 <= len(calls) <= 15
        assert_same_init(got, ml_init_full_grid(data))

    def test_binary_weights(self, monkeypatch):
        # only the 49 grid points with |rho| < 1/4 are provably concave
        calls = count_logdets(monkeypatch)
        for rho in (-0.2, 0.0, 0.2):
            data = sem_data(ModelKind.SEM_GAU, 12, rho, 4,
                            row_standardize=False)
            del calls[:]
            got = vb._ml_init(data)
            assert 150 <= len(calls) < 199
            assert_same_init(got, ml_init_full_grid(data))

    def test_no_symmetrizer(self, monkeypatch):
        lattice = build_rook_lattice(9, 9)
        w = lattice.weights.copy()
        a = np.flatnonzero((lattice.rows == 0) & (lattice.cols == 1))[0]
        b = np.flatnonzero((lattice.rows == 1) & (lattice.cols == 0))[0]
        w[a], w[b] = w[b], w[a]
        W = SpatialWeights(n=lattice.n, rows=lattice.rows, cols=lattice.cols,
                           weights=w)
        assert W.symmetrizer is None
        data = sem_data(ModelKind.SEM_GAU, 9, 0.5, 5, W=W)
        calls = count_logdets(monkeypatch)
        got = vb._ml_init(data)
        assert len(calls) == 199
        assert_same_init(got, ml_init_full_grid(data))

    @pytest.mark.parametrize("capped", [False, True])
    def test_missing_responses(self, capped, monkeypatch):
        # the grid runs on the observed sites' W; unless capped, each
        # restriction comes with its spectrum
        if not capped:
            restrict = SpatialWeights.restrict
            monkeypatch.setattr(SpatialWeights, "restrict",
                                lambda W, sites: with_spectrum(
                                    restrict(W, sites)))
        calls = count_logdets(monkeypatch)
        for seed in range(3):
            data = sem_data(ModelKind.YJ_SEM_GAU, 12, 0.6, seed, missing=0.3)
            del calls[:]
            got = vb._ml_init(data)
            assert 1 <= len(calls) <= 15
            assert_same_init(got, ml_init_full_grid(data))

    def test_near_tie(self):
        # along y(t) = (1 - t) y_a + t y_b the pick moves from one grid point
        # to another; bisection on t ends where two points' scores agree to
        # rounding, and the pruned grid must break that tie as the full one
        a = sem_data(ModelKind.SEM_GAU, 8, 0.2, 6)
        b = sem_data(ModelKind.SEM_GAU, 8, 0.7, 7)

        def at(t):
            return Dataset(y=(1.0 - t) * a.y + t * b.y, X=a.X, W=a.W)

        lo, hi = 0.0, 1.0
        rho_lo = ml_init_full_grid(at(lo))[2]
        assert ml_init_full_grid(at(hi))[2] != rho_lo
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if ml_init_full_grid(at(mid))[2] == rho_lo:
                lo = mid
            else:
                hi = mid
        assert hi - lo < 1e-15
        picks = set()
        for t in (lo, hi):
            want = ml_init_full_grid(at(t))
            assert_same_init(vb._ml_init(at(t)), want)
            picks.add(want[2])
        assert len(picks) == 2

    def test_gram_scores_bracket_least_squares(self, monkeypatch):
        # at every grid point the Gram profile term lies within its bound
        # of the least-squares one, so least squares runs near the pick only
        lstsq = np.linalg.lstsq
        grid = np.linspace(-0.99, 0.99, 199)
        fits = []

        def counting(*args, **kwargs):
            fits.append(args)
            return lstsq(*args, **kwargs)

        for kind, side, rho, seed in ROW_STANDARDIZED:
            data = sem_data(kind, side, rho, seed)
            y, X, n = data.y, data.X, data.y.size
            Wy, WX = data.W.matvec(y), data.W.matvec(X)
            half, err = vb._gram_half(np.column_stack([X, y]),
                                      np.column_stack([WX, Wy]), grid)
            assert np.all(err < 1e-6)
            for k, r in enumerate(grid):
                ay, ax = y - r * Wy, X - r * WX
                resid = ay - ax @ lstsq(ax, ay, rcond=None)[0]
                want = 0.5 * n * np.log(max(float(resid @ resid) / n, 1e-12))
                assert abs(half[k] - want) <= err[k]
            want = ml_init_full_grid(fresh(data))
            monkeypatch.setattr(np.linalg, "lstsq", counting)
            del fits[:]
            got = vb._ml_init(data)
            monkeypatch.setattr(np.linalg, "lstsq", lstsq)
            assert_same_init(got, want)
            assert 1 <= len(fits) <= 2

    def test_singular_gram_scores_by_least_squares(self):
        # a zero column makes every Gram system singular: the scan falls
        # back to least squares at every point, which copes with it
        data = sem_data(ModelKind.SEM_GAU, 6, 0.4, 12)
        X = np.column_stack([data.X, np.zeros(data.n)])
        data = Dataset(y=data.y, X=X, W=data.W)
        got = vb._ml_init(data)
        assert_same_init(got, ml_init_full_grid(data))

    def test_exact_tie_keeps_first_point(self):
        # with no weights every grid point has the same score, bit for bit
        data = sem_data(ModelKind.SEM_GAU, 5, 0.0, 10,
                        W=SpatialWeights(n=25, rows=[], cols=[], weights=[]))
        got = vb._ml_init(data)
        assert_same_init(got, ml_init_full_grid(data))
        assert got[2] == -0.99

    def test_non_finite_response(self):
        # every profile fit is NaN, so the full scan keeps its first point
        data = sem_data(ModelKind.SEM_GAU, 6, 0.3, 9)
        y = data.y.copy()
        y[4] = np.inf
        data = Dataset(y=y, X=data.X, W=data.W)
        with np.errstate(invalid="ignore"):
            got = vb._ml_init(data)
            assert_same_init(got, ml_init_full_grid(data))
        assert np.isnan(got[1]) and got[2] == -0.99

    def test_all_singular_raises(self, monkeypatch):
        def singular(W, rho):
            raise SingularityError("singular")

        monkeypatch.setattr(vb, "logdet_A", singular)
        with pytest.raises(NumericalError):
            vb._ml_init(sem_data(ModelKind.SEM_GAU, 6, 0.3, 8))


class TestFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("n_factors", 0), ("max_iters", -1), ("trace_every", 0),
        ("stop_window", -1), ("stop_window", -3), ("stop_tol", -1.0),
        ("stop_tol", -1e-300), ("stop_tol", np.nan)])
    def test_refuses_out_of_range(self, field, value):
        with pytest.raises(DomainError, match=field):
            vb.FitConfig(**{field: value})

    def test_accepts_zero_plateau_rule(self):
        cfg = vb.FitConfig(stop_window=0, stop_tol=0.0)
        assert (cfg.stop_window, cfg.stop_tol) == (0, 0.0)


class TestVbFit:
    def test_zero_iterations_returns_init(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=5)
        cfg = vb.FitConfig(max_iters=0, seed=9)
        res = vb.vb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        init = vb.init_lambda(ModelKind.SEM_GAU, inst["data"], cfg,
                              rng=np.random.default_rng(9))
        np.testing.assert_array_equal(res.lam.mu, init.mu)
        assert res.n_iters == 0
        assert res.mu_trace.shape[0] == 0

    def test_seed_reproducibility(self):
        inst = random_instance(ModelKind.YJ_SEM_GAU, seed=6)
        cfg = vb.FitConfig(max_iters=40, seed=3, trace_every=10)
        a = vb.vb_fit(ModelKind.YJ_SEM_GAU, inst["data"], Priors(), cfg)
        b = vb.vb_fit(ModelKind.YJ_SEM_GAU, inst["data"], Priors(), cfg)
        np.testing.assert_array_equal(a.mu_trace, b.mu_trace)
        np.testing.assert_array_equal(a.elbo_trace, b.elbo_trace)

    def test_trace_row_count(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=7)
        cfg = vb.FitConfig(max_iters=105, seed=0, trace_every=20)
        res = vb.vb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        np.testing.assert_array_equal(res.trace_iters,
                                      [20, 40, 60, 80, 100, 105])
        assert res.mu_trace.shape == (6, res.lam.s)

    def test_upper_triangle_stays_zero(self):
        inst = random_instance(ModelKind.SEM_T, seed=8)
        cfg = vb.FitConfig(max_iters=60, seed=1)
        res = vb.vb_fit(ModelKind.SEM_T, inst["data"], Priors(), cfg)
        i, j = np.triu_indices(res.lam.s, 1, res.lam.p)
        np.testing.assert_array_equal(res.lam.B[i, j], 0.0)

    def test_elbo_improves_and_recovers(self):
        # light recovery run: iid Gaussian data on a 6x6 lattice
        rng = np.random.default_rng(12)
        W = build_rook_lattice(6, 6)
        n = W.n
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        from semvb.models import ModelParams
        from semvb.simulate import simulate_sem
        truth = ModelParams(beta=np.array([1.0, -1.5]), sigma2=1.0, rho=0.6)
        y, _ = simulate_sem(ModelKind.SEM_GAU, X, W, truth, rng)
        data = Dataset(y=y, X=X, W=W)
        cfg = vb.FitConfig(max_iters=2000, seed=4)
        res = vb.vb_fit(ModelKind.SEM_GAU, data, Priors(), cfg)
        q = res.elbo_trace.size // 4
        assert res.elbo_trace[-q:].mean() > res.elbo_trace[:q].mean()
        from semvb.transforms import rho_unlink
        layout = res.layout
        assert abs(rho_unlink(res.lam.mu[layout.rho]) - 0.6) < 0.35
        np.testing.assert_allclose(res.lam.mu[layout.beta], truth.beta,
                                   atol=0.8)

    def test_plateau_rule_stops_early(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=13)
        cfg = vb.FitConfig(max_iters=5000, seed=2, stop_window=20,
                           stop_tol=1e30)  # absurd tol fires immediately
        res = vb.vb_fit(ModelKind.SEM_GAU, inst["data"], Priors(), cfg)
        assert res.n_iters == 20
        assert res.trace_iters[-1] == 20

    @pytest.mark.parametrize("kind", [ModelKind.SEM_GAU, ModelKind.YJ_SEM_T])
    def test_banded_route_fit_matches_eigen_route(self, kind, monkeypatch):
        # the whole fit with the spectrum kept off: the log-det runs on the
        # banded Cholesky and the trace on the complex-step LU.
        # Measured max |mu_band - mu_eigen| over fit seeds 0-2, both kinds:
        # 2.0e-15 at 300 iterations and 6.1e-13 at 1000, against entries of
        # size about 2. The routes differ only in rounding, about 1e-15
        # relative, and the ADADELTA steps carry it without amplifying it
        # much in 300 steps; 1e-12 leaves a 500-fold margin there.
        data = sem_data(kind, 8, 0.6, 2)
        cfg = vb.FitConfig(max_iters=300, seed=2)
        init = vb._ml_init(data)
        eig = vb.vb_fit(kind, data, Priors(), cfg)
        assert spatial.plan_route(data.W) == "band-eigen"
        # a spectrum that never pays keeps the fit on the factorizations
        monkeypatch.setattr(spatial, "_DSBEVD_S", np.inf)
        banded = fresh(data)
        assert_same_init(vb._ml_init(banded), init)
        band = vb.vb_fit(kind, banded, Priors(), cfg)
        assert spatial.plan_route(banded.W) == "cholesky+lu"
        np.testing.assert_allclose(band.lam.mu, eig.lam.mu, rtol=0, atol=1e-12)

    def test_missing_data_rejected(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=14, missing_frac=0.25)
        with pytest.raises(DomainError):
            vb.vb_fit(ModelKind.SEM_GAU, inst["data"], Priors(),
                      vb.FitConfig(max_iters=1))


class TestDrawPosterior:
    def test_constrained_domains_and_mean(self):
        inst = random_instance(ModelKind.YJ_SEM_T, seed=15)
        layout = inst["layout"]
        lam = vb.init_lambda(ModelKind.YJ_SEM_T, inst["data"], vb.FitConfig())
        samples = vb.draw_posterior(lam, layout, 4000,
                                    np.random.default_rng(0))
        names = samples.phi_names
        assert names[-2:] == ("nu", "gamma")
        k = {n: i for i, n in enumerate(names)}
        assert np.all(samples.phi[:, k["sigma2"]] > 0)
        assert np.all(np.abs(samples.phi[:, k["rho"]]) < 1)
        assert np.all(samples.phi[:, k["nu"]] > 3)
        assert np.all((samples.phi[:, k["gamma"]] > 0)
                      & (samples.phi[:, k["gamma"]] < 2))
        # beta columns are linear in theta, so their mean matches mu
        se = samples.phi[:, 0].std() / np.sqrt(samples.n_draws)
        assert abs(samples.phi[:, 0].mean() - lam.mu[0]) < 4 * se + 1e-6

    def test_zero_draws(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=16)
        lam = vb.init_lambda(ModelKind.SEM_GAU, inst["data"], vb.FitConfig())
        samples = vb.draw_posterior(lam, inst["layout"], 0,
                                    np.random.default_rng(0))
        assert samples.phi.shape == (0, len(samples.phi_names))

    def test_psi_block_emitted(self):
        inst = random_instance(ModelKind.SEM_GAU, seed=17, missing_frac=0.25)
        lam = vb.init_lambda(ModelKind.SEM_GAU, inst["data"], vb.FitConfig(),
                             with_psi=True)
        samples = vb.draw_posterior(lam, inst["layout"], 10,
                                    np.random.default_rng(1))
        assert samples.psi.shape == (10, 3)
