"""Spatial error models with non-Gaussian errors.

Four model kinds (Gaussian or Student-t errors, each optionally through a
Yeo-Johnson transformed response) estimated by stochastic-gradient
variational Bayes, with an MCMC-within-VB scheme when responses are missing
not at random. Attributes resolve lazily so importing the package does not
load the numerical stack; the command-line entry point relies on that to pin
BLAS thread counts before numpy comes in.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "DataFormatError": "errors",
    "DimensionError": "errors",
    "DomainError": "errors",
    "NumericalError": "errors",
    "SemvbError": "errors",
    "SingularityError": "errors",
    "MissingnessParams": "models",
    "ModelKind": "models",
    "ModelParams": "models",
    "Priors": "models",
    "link_forward": "models",
    "link_inverse": "models",
    "yj_forward": "transforms",
    "yj_inverse": "transforms",
    "SpatialWeights": "spatial",
    "build_rook_lattice": "spatial",
    "conditional_gaussian": "spatial",
    "Dataset": "likelihoods",
    "log_p_m": "likelihoods",
    "loglik": "likelihoods",
    "marginal_loglik_t": "likelihoods",
    "make_missingness_design": "missingness",
    "missing_prob": "missingness",
    "simulate_missing": "missingness",
    "draw_beta_preset": "simulate",
    "make_design": "simulate",
    "simulate_sem": "simulate",
    "FitConfig": "variational",
    "FitResult": "variational",
    "VariationalParams": "variational",
    "draw_posterior": "variational",
    "vb_fit": "variational",
    "HvbConfig": "hvb",
    "draw_posterior_missing": "hvb",
    "hvb_fit": "hvb",
    "PosteriorSamples": "model_select",
    "dic1": "model_select",
    "dic2": "model_select",
    "dic5": "model_select",
    "per_draw_logliks": "model_select",
    "per_draw_logpriors": "model_select",
    "phi_loglik": "model_select",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
