"""Missing-data workflow: amputate under an informative mechanism, then fit.

Responses are removed with probability that depends on the response itself
(missing not at random), so a complete-case analysis would be biased. The
hybrid fit treats the missing responses as latent variables, alternating
variational parameter updates with Metropolis-Hastings imputation. Runs in
about a minute; `python3 demos/missing_data_workflow.py`.
"""

import numpy as np

from semvb import (Dataset, HvbConfig, MissingnessParams, ModelKind,
                   ModelParams, Priors, build_rook_lattice, draw_beta_preset,
                   draw_posterior_missing, hvb_fit, make_design,
                   make_missingness_design, simulate_missing, simulate_sem)

SEED = 11

rng = np.random.default_rng(SEED)
W = build_rook_lattice(15, 15)
X = make_design(W.n, 5, rng)
beta = draw_beta_preset(6, rng)
truth = ModelParams(beta=beta, sigma2=1.0, rho=0.8, gamma=1.25)
y, _ = simulate_sem(ModelKind.YJ_SEM_GAU, X, W, truth, rng)

# psi_y < 0: smaller responses are more likely to go missing
psi_true = MissingnessParams(psi_x=np.array([-1.0, 0.5]), psi_y=-0.1)
Xstar = make_missingness_design(W.n, rng)
missing = simulate_missing(y, Xstar, psi_true, rng)
y_obs = y.copy()
y_obs[missing] = np.nan
data = Dataset(y=y_obs, X=X, W=W, Xstar=Xstar)
print(f"amputated {missing.sum()}/{W.n} responses "
      f"({100 * missing.mean():.0f}%)")

config = HvbConfig(max_iters=4000, seed=SEED, n1=10, trace_every=1000)
result = hvb_fit(ModelKind.YJ_SEM_GAU, data, Priors(), config, rng=rng)
acc = result.acceptance
print(f"fit finished in {result.wall_time:.1f}s; MH acceptance rate "
      f"{acc[:, 2].sum() / acc[:, 3].sum():.2f}")

samples = draw_posterior_missing(ModelKind.YJ_SEM_GAU, data, result.lam,
                                 200, rng, config=config)
means = dict(zip(samples.phi_names, samples.phi.mean(axis=0)))
psi_mean = samples.psi.mean(axis=0)
print(f"\nrho:   true {truth.rho:5.2f}  estimate {means['rho']:5.2f}")
print(f"gamma: true {truth.gamma:5.2f}  estimate {means['gamma']:5.2f}")
print(f"psi_y: true {psi_true.psi_y:5.2f}  estimate {psi_mean[-1]:5.2f} "
      "(negative sign identifies the informative mechanism)")

yu_mean = samples.y_u.mean(axis=0)
corr = np.corrcoef(yu_mean, y[missing])[0, 1]
err = np.sqrt(np.mean((yu_mean - y[missing]) ** 2))
print(f"\nimputation vs held-back truth: correlation {corr:.3f}, "
      f"rmse {err:.2f}")
