"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
pytest -s to see them all) and enforces its tolerance and runtime budget.
The recovery tests are the slow ones; the whole module stays well under
the sum of the stated budgets on a desktop core.
"""

import filecmp
import itertools
import os
import time

import numpy as np

from semvb import gradients as gr
from semvb import hvb
from semvb import likelihoods as lk
from semvb.cli import main as cli_main
from semvb.missingness import make_missingness_design, simulate_missing
from semvb.model_select import dic1, per_draw_logliks, phi_loglik
from semvb.models import (MissingnessParams, ModelKind, ModelParams, Priors,
                          link_forward)
from semvb.simulate import draw_beta_preset, make_design, simulate_sem
from semvb.spatial import build_rook_lattice, conditional_gaussian
from semvb.transforms import yj_dy, yj_forward, yj_inverse
from semvb.variational import (AdadeltaState, FitConfig, adadelta_step,
                               draw_posterior, vb_fit)

from oracles import (csr, fd_gradient, mh_accept_ratio, mvn_logpdf,
                     schur_conditional, sem_cov)
from util import ALL_KINDS, random_instance


def report(num: int, ok: bool, elapsed: float, label: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:2d}] {status} ({elapsed:.1f}s) {label}",
          flush=True)
    assert ok, f"criterion {num}: {label}"


def section6_dataset(seed: int, kind=ModelKind.YJ_SEM_GAU, sigma2=1.0,
                     rho=0.8, nu=None, gamma=1.25):
    """20x20 rook lattice, 5 covariates, preset beta, the recovery design."""
    W = build_rook_lattice(20, 20)
    rng = np.random.default_rng(seed)
    X = make_design(W.n, 5, rng)
    beta = draw_beta_preset(6, rng)
    params = ModelParams(beta=beta, sigma2=sigma2, rho=rho, nu=nu,
                         gamma=gamma)
    y, tau = simulate_sem(kind, X, W, params, rng)
    return W, X, beta, params, y, rng


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    pri = Priors()
    checked = 0
    worst = 0.0
    for kind, frac in itertools.product(ALL_KINDS, (0.0, 0.25)):
        for seed in range(3):
            inst = random_instance(kind, seed=100 * seed + 7,
                                   lattice=(4, 4), missing_frac=frac)
            d, theta = inst["data"], inst["theta"]
            if frac:
                y_u = inst["y_u"]
                analytic, _ = gr.grad_log_h_missing(kind, d, theta, y_u, pri)
                fd = fd_gradient(
                    lambda t: lk.log_h_missing(kind, d, t, y_u, pri),
                    theta, h=1e-5)
            else:
                analytic, _ = gr.grad_log_h_full(kind, d, theta, pri)
                fd = fd_gradient(
                    lambda t: lk.log_h_full(kind, d, t, pri), theta, h=1e-5)
            err = np.abs(analytic - fd) - (1e-6 + 1e-4 * np.abs(fd))
            worst = max(worst, float(err.max()))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and checked >= 20 and elapsed < 30
    report(1, ok, elapsed,
           f"gradient oracle: {checked} instances, worst tolerance "
           f"slack {worst:.2e}")


def test_criterion_2_dense_likelihood_oracle():
    t0 = time.perf_counter()
    lattices = [(1, 2), (1, 3), (2, 2), (1, 5), (2, 3)]
    worst = 0.0
    cases = 0
    for seed in range(25):
        for k, kind in enumerate(ALL_KINDS):
            lattice = lattices[(seed + k) % len(lattices)]
            inst = random_instance(kind, seed=seed, lattice=lattice)
            d, p, tau = inst["data"], inst["params"], inst["tau"]
            cov = sem_cov(csr(d.W).toarray(), p.rho, p.sigma2, tau)
            z = yj_forward(d.y, p.gamma) if kind.yeo_johnson else d.y
            expected = mvn_logpdf(z, d.X @ p.beta, cov)
            if kind.yeo_johnson:
                expected += float(np.sum(np.log(yj_dy(d.y, p.gamma))))
            got = lk.loglik(kind, d, p, tau)
            worst = max(worst, abs(got - expected))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and cases == 100 and elapsed < 5
    report(2, ok, elapsed,
           f"dense likelihood oracle: {cases} cases, max abs err "
           f"{worst:.2e}")


def test_criterion_3_conditional_gaussian_oracle():
    t0 = time.perf_counter()
    worst_mean = worst_cov = 0.0
    patterns = [np.array(c) for k in (1, 2, 3)
                for c in itertools.combinations(range(8), k)]
    for kind in ALL_KINDS:
        inst = random_instance(kind, seed=31, lattice=(2, 4))
        d, p, tau = inst["data"], inst["params"], inst["tau"]
        M = np.asarray(
            sem_cov(csr(d.W).toarray(), p.rho, 1.0, tau))
        cov = p.sigma2 * M
        rng = np.random.default_rng(5)
        r = rng.normal(size=8)
        for unknown in patterns:
            known = np.setdiff1d(np.arange(8), unknown)
            cond = conditional_gaussian(kind, d.W, p.rho, tau, unknown, r)
            mean_o, cov_o = schur_conditional(np.zeros(8), cov, known,
                                              unknown, r[known])
            worst_mean = max(worst_mean, float(np.max(np.abs(
                cond.mean_offset - mean_o))))
            worst_cov = max(worst_cov, float(np.max(np.abs(
                cond.covariance(p.sigma2) - cov_o))))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1e-10 and worst_cov < 1e-10 and elapsed < 5
    report(3, ok, elapsed,
           f"conditional-Gaussian oracle: {4 * len(patterns)} patterns, "
           f"max mean err {worst_mean:.2e}, max cov err {worst_cov:.2e}")


def test_criterion_4_yj_round_trip():
    t0 = time.perf_counter()
    ys = np.linspace(-10.0, 10.0, 401)
    worst = 0.0
    for g in np.linspace(0.1, 1.9, 19):
        back = yj_inverse(yj_forward(ys, g), g)
        worst = max(worst, float(np.max(np.abs(back - ys))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1
    report(4, ok, elapsed,
           f"transform round trip: 401x19 grid, max abs err {worst:.2e}")


def test_criterion_5_full_data_recovery():
    t0 = time.perf_counter()
    kind = ModelKind.YJ_SEM_GAU
    hits = 0
    details = []
    for seed in range(10):
        W, X, beta, params, y, rng = section6_dataset(seed)
        data = lk.Dataset(y=y, X=X, W=W)
        cfg = FitConfig(max_iters=10000, seed=seed, trace_every=2000)
        res = vb_fit(kind, data, Priors(), cfg, rng=rng)
        samples = draw_posterior(res.lam, res.layout, 2000, rng)
        means = dict(zip(samples.phi_names, samples.phi.mean(axis=0)))
        lo, hi = np.quantile(samples.phi[:, :6], [0.025, 0.975], axis=0)
        covered = bool(np.all((lo <= beta) & (beta <= hi)))
        ok_seed = (abs(means["rho"] - 0.8) <= 0.1
                   and abs(means["gamma"] - 1.25) <= 0.1 and covered)
        hits += ok_seed
        details.append(f"{means['rho']:.2f}/{means['gamma']:.2f}")
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 600
    report(5, ok, elapsed,
           f"full-data recovery: {hits}/10 seeds within tolerance "
           f"(rho/gamma means {' '.join(details)})")


def test_criterion_6_missing_data_recovery():
    t0 = time.perf_counter()
    kind = ModelKind.YJ_SEM_GAU
    psi_true = MissingnessParams(psi_x=np.array([-1.0, 0.5]), psi_y=-0.1)
    hits = 0
    pooled_est, pooled_true = [], []
    for seed in range(10):
        W, X, beta, params, y, rng = section6_dataset(seed)
        Xstar = make_missingness_design(W.n, rng)
        missing = simulate_missing(y, Xstar, psi_true, rng)
        y_amp = y.copy()
        y_amp[missing] = np.nan
        data = lk.Dataset(y=y_amp, X=X, W=W, Xstar=Xstar)
        cfg = hvb.HvbConfig(max_iters=4000, seed=seed, trace_every=2000,
                            n1=10, kernel="nob")
        res = hvb.hvb_fit(kind, data, Priors(), cfg, rng=rng)
        samples = hvb.draw_posterior_missing(kind, data, res.lam, 200, rng,
                                             config=cfg)
        means = dict(zip(samples.phi_names, samples.phi.mean(axis=0)))
        psi_y_hat = float(samples.psi[:, -1].mean())
        yu_mean = samples.y_u.mean(axis=0)
        corr = float(np.corrcoef(yu_mean, y[missing])[0, 1])
        pooled_est.append(yu_mean)
        pooled_true.append(y[missing])
        hits += (psi_y_hat < 0 and abs(means["rho"] - 0.8) <= 0.12
                 and corr >= 0.7)
    pooled = float(np.corrcoef(np.concatenate(pooled_est),
                               np.concatenate(pooled_true))[0, 1])
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and pooled >= 0.7 and elapsed < 1200
    report(6, ok, elapsed,
           f"missing-data recovery: {hits}/10 seeds, pooled imputation "
           f"correlation {pooled:.3f}")


def test_criterion_7_dic_ordering():
    t0 = time.perf_counter()
    W, X, beta, params, y, _ = section6_dataset(
        0, kind=ModelKind.YJ_SEM_T, sigma2=0.5, nu=4.0, gamma=0.5)
    data = lk.Dataset(y=y, X=X, W=W)
    dics = {}
    for kind, iters in ((ModelKind.SEM_GAU, 10000),
                        (ModelKind.YJ_SEM_GAU, 10000),
                        (ModelKind.YJ_SEM_T, 15000)):
        cfg = FitConfig(max_iters=iters, seed=0, trace_every=5000)
        rng = np.random.default_rng(1000)
        res = vb_fit(kind, data, Priors(), cfg, rng=rng)
        samples = draw_posterior(res.lam, res.layout, 1000, rng)
        dics[kind.value] = dic1(per_draw_logliks(kind, data, samples),
                                phi_loglik(kind, data,
                                           samples.phi.mean(axis=0)))
    elapsed = time.perf_counter() - t0
    ok = (dics["yj-sem-gau"] < dics["sem-gau"]
          and dics["yj-sem-t"] < dics["sem-gau"] and elapsed < 900)
    report(7, ok, elapsed,
           "DIC ordering: " + " ".join(f"{k}={v:.1f}"
                                       for k, v in dics.items()))


def test_criterion_8_mh_correctness():
    t0 = time.perf_counter()
    # enumerated single-site chain: the proposal is the model conditional,
    # so the invariant density is proposal x missingness probability
    grid = np.linspace(-4.0, 4.0, 81)
    mean, sd = 0.3, 0.9
    Xs = np.array([[1.0, 0.5]])
    psi = MissingnessParams(psi_x=np.array([-0.2, 0.4]), psi_y=0.8)
    m = np.array([1.0])
    q = np.exp(-0.5 * ((grid - mean) / sd) ** 2)
    pm = np.array([np.exp(lk.log_p_m(m, np.array([v]), Xs, psi))
                   for v in grid])
    target = q * pm
    k = grid.size
    T = np.zeros((k, k))
    qn = q / q.sum()
    for i in range(k):
        for j in range(k):
            if j != i:
                a = mh_accept_ratio(m, np.array([grid[j]]),
                                    np.array([grid[i]]), Xs, psi)
                T[i, j] = qn[j] * a
        T[i, i] = 1.0 - T[i].sum()
    pi = target / target.sum()
    resid = float(np.max(np.abs(pi @ T - pi)))

    # a flat missingness model accepts every proposal
    inst = random_instance(ModelKind.SEM_GAU, seed=3, lattice=(3, 3),
                           missing_frac=0.12)
    theta = inst["theta"].copy()
    theta[inst["layout"].psi] = 0.0
    _, accepts = hvb.mcmc_nob(ModelKind.SEM_GAU, inst["data"], theta,
                              None, 10000, np.random.default_rng(0))
    elapsed = time.perf_counter() - t0
    ok = resid < 1e-10 and accepts == 10000 and elapsed < 10
    report(8, ok, elapsed,
           f"MH kernel: stationarity residual {resid:.2e}, flat-psi "
           f"acceptance {accepts}/10000")


def test_criterion_9_adadelta_first_step():
    t0 = time.perf_counter()
    step, _ = adadelta_step(AdadeltaState.zeros(4), np.ones(4))
    worst = float(np.max(np.abs(step - 4.4721e-3)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 1
    report(9, ok, elapsed,
           f"first adaptive step: max deviation {worst:.2e}")


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()

    def pipeline(root):
        # identical relative arguments from each run's own directory, so
        # manifests recording the inputs agree byte for byte
        prev = os.getcwd()
        os.chdir(root)
        try:
            cli_main(["simulate", "--kind", "yj-sem-gau",
                      "--lattice-rows", "4", "--lattice-cols", "5",
                      "--n-covariates", "2", "--seed", "3",
                      "--out-dir", "sim"])
            cli_main(["amputate", "--data", "sim/dataset.csv",
                      "--seed", "4", "--out-dir", "amp"])
            cli_main(["fit", "--data", "sim/dataset.csv",
                      "--weights", "sim/weights.csv", "--kind", "sem-gau",
                      "--max-iters", "40", "--n-draws", "60", "--seed", "5",
                      "--out-dir", "fit_vb"])
            cli_main(["fit", "--data", "amp/amputated.csv",
                      "--weights", "sim/weights.csv", "--kind", "sem-gau",
                      "--method", "hvb", "--max-iters", "30", "--n1", "3",
                      "--n-draws", "40", "--seed", "5",
                      "--out-dir", "fit_hvb"])
            cli_main(["dic", "--data", "sim/dataset.csv",
                      "--weights", "sim/weights.csv",
                      "--models", "sem-gau=fit_vb/samples.csv",
                      "--out-dir", "dic"])
            cli_main(["summarize", "--samples", "fit_hvb/samples.csv",
                      "--out-dir", "summ"])
        finally:
            os.chdir(prev)

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    pipeline(a)
    pipeline(b)
    mismatches = []
    for sub in ("sim", "amp", "fit_vb", "fit_hvb", "dic", "summ"):
        for name in sorted(os.listdir(a / sub)):
            if not filecmp.cmp(a / sub / name, b / sub / name,
                               shallow=False):
                mismatches.append(f"{sub}/{name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report(10, ok, elapsed,
           "byte-identical pipeline reruns"
           + (f" (mismatches: {', '.join(mismatches)})" if mismatches
              else ""))
