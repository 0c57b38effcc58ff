"""Command-line pipeline: simulate | amputate | fit | dic | summarize.

Every command takes --seed, --config, --out-dir, and --threads; flag values
override config-file values, which override the documented defaults.

Each command loads only the modules it runs: this module imports the
numerical stack inside the command functions, so --threads can pin BLAS
thread counts before numpy loads. scipy is imported only by the sparse
solves: `simulate`'s `spsolve` and, past the eigen cap, the complex-step
sparse LU that gives the trace of a fit that iterates and the log-det of W
without a symmetrizer. The banded Cholesky factors, of the `hvb`
conditionals and of the log-det past the cap, come from scipy's compiled
LAPACK wrapper loaded by file, which runs no scipy package code. So
`amputate`, `summarize`, `vb` and `hvb` fits and `dic` runs below the cap,
and past the cap on W with a symmetrizer a `dic` run or a fit with
--max-iters 0, load numpy and no scipy module. A process start is a large
share of a short pipeline stage, and `tests/test_cli.py::TestImports` holds
the commands to this rule.
"""

from __future__ import annotations

import argparse
import os
import sys

_KINDS = ["sem-gau", "sem-t", "yj-sem-gau", "yj-sem-t"]

# (key, default, help) triples behind the config file and config.reference.
_CONFIG_KEYS = [
    ("seed", "0", "master RNG seed used by every command"),
    ("out_dir", ".", "directory artifacts are written into"),
    ("threads", "", "BLAS/OpenMP thread cap; empty leaves the default"),
    ("kind", "yj-sem-gau", "model kind: " + " | ".join(_KINDS)),
    ("lattice_rows", "25", "simulate: lattice height"),
    ("lattice_cols", "25", "simulate: lattice width"),
    ("n_covariates", "5", "simulate: standard-normal covariate count"),
    ("beta", "preset", "simulate: comma floats, or 'preset' for +-{1,2,3}"),
    ("sigma2", "1.0", "simulate: error variance"),
    ("rho", "0.8", "simulate: spatial autocorrelation"),
    ("nu", "4.0", "simulate: degrees of freedom (t kinds)"),
    ("gamma", "1.25", "simulate: transform parameter (YJ kinds)"),
    ("row_standardize", "1", "simulate: row-standardize the lattice weights"),
    ("psi", "-1.0,0.5,-0.1", "amputate: logistic coefficients, psi_y last"),
    ("method", "vb", "fit: vb (complete data) or hvb (missing data)"),
    ("max_iters", "10000", "fit: SGA iterations"),
    ("n_factors", "4", "fit: variational factor count"),
    ("trace_every", "100", "fit: iterations between trace rows"),
    ("n_draws", "10000", "fit: posterior draws for samples/summary"),
    ("n1", "10", "fit: inner MH steps per HVB iteration"),
    ("kernel", "auto", "fit: HVB kernel: auto | nob | allb"),
    ("block_fraction", "0.1", "fit: blocked-kernel block size fraction"),
    ("warm_start", "0", "fit: start MH chains from the previous imputation"),
    ("stop_window", "0", "fit: plateau window; 0 disables early stop"),
    ("stop_tol", "0.0", "fit: plateau threshold on mu steps"),
]


def _pin_threads(argv: list[str]) -> None:
    """Apply --threads to the BLAS environment before numpy is imported."""
    value = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS"):
            os.environ[var] = value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master RNG seed (default 0)")
    common.add_argument("--config", default=None,
                        help="flat key=value config file")
    common.add_argument("--out-dir", default=None,
                        help="output directory (default .)")
    common.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP threads for this process")

    p = argparse.ArgumentParser(
        prog="semvb",
        description="Spatial error models with non-Gaussian errors: "
                    "simulation, MNAR amputation, variational fits, DIC.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", parents=[common],
                        help="draw a synthetic dataset and weight matrix")
    ps.add_argument("--kind", choices=_KINDS, default=None)
    ps.add_argument("--lattice-rows", type=int, default=None)
    ps.add_argument("--lattice-cols", type=int, default=None)
    ps.add_argument("--n-covariates", type=int, default=None)
    ps.add_argument("--beta", default=None,
                    help="comma floats (intercept first) or 'preset'")
    ps.add_argument("--sigma2", type=float, default=None)
    ps.add_argument("--rho", type=float, default=None)
    ps.add_argument("--nu", type=float, default=None)
    ps.add_argument("--gamma", type=float, default=None)
    ps.add_argument("--row-standardize", type=int, default=None)
    ps.set_defaults(func=cmd_simulate)

    pa = sub.add_parser("amputate", parents=[common],
                        help="impose MNAR missingness on a complete dataset")
    pa.add_argument("--data", required=True, help="complete dataset CSV")
    pa.add_argument("--psi", default=None,
                    help="comma floats; intercept first, psi_y last")
    pa.set_defaults(func=cmd_amputate)

    pf = sub.add_parser("fit", parents=[common],
                        help="variational fit plus posterior draws")
    pf.add_argument("--data", required=True, help="dataset CSV")
    pf.add_argument("--weights", required=True, help="weight matrix CSV")
    pf.add_argument("--kind", choices=_KINDS, default=None)
    pf.add_argument("--method", choices=["vb", "hvb"], default=None)
    pf.add_argument("--max-iters", type=int, default=None)
    pf.add_argument("--n-factors", type=int, default=None)
    pf.add_argument("--trace-every", type=int, default=None)
    pf.add_argument("--n-draws", type=int, default=None)
    pf.add_argument("--n1", type=int, default=None)
    pf.add_argument("--kernel", choices=["auto", "nob", "allb"], default=None)
    pf.add_argument("--block-fraction", type=float, default=None)
    pf.add_argument("--warm-start", type=int, default=None)
    pf.add_argument("--stop-window", type=int, default=None)
    pf.add_argument("--stop-tol", type=float, default=None)
    pf.set_defaults(func=cmd_fit)

    pd = sub.add_parser("dic", parents=[common],
                        help="DIC comparison across fitted models")
    pd.add_argument("--data", required=True, help="dataset CSV the fits used")
    pd.add_argument("--weights", required=True, help="weight matrix CSV")
    pd.add_argument("--models", required=True,
                    help="comma list of kind=samples.csv entries")
    pd.set_defaults(func=cmd_dic)

    pz = sub.add_parser("summarize", parents=[common],
                        help="posterior means and 95%% intervals from samples")
    pz.add_argument("--samples", required=True, help="posterior samples CSV")
    pz.set_defaults(func=cmd_summarize)
    return p


class _Settings:
    """Flag > config file > default resolution for one command run."""

    def __init__(self, args):
        from .io import read_keyvalues
        self.args = args
        self.cfg = read_keyvalues(args.config) if args.config else {}
        unknown = set(self.cfg) - {k for k, _, _ in _CONFIG_KEYS}
        if unknown:
            from .errors import DataFormatError
            raise DataFormatError(
                f"unknown config keys: {', '.join(sorted(unknown))}")

    def get(self, key: str, cast):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.cfg:
            try:
                return cast(self.cfg[key])
            except ValueError as exc:
                from .errors import DataFormatError
                raise DataFormatError(
                    f"config key {key}: cannot parse {self.cfg[key]!r}"
                ) from exc
        default = next(d for k, d, _ in _CONFIG_KEYS if k == key)
        return cast(default)

    @property
    def seed(self) -> int:
        return self.get("seed", int)

    @property
    def out_dir(self) -> str:
        return self.get("out_dir", str)

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)


def _write_config_reference(settings: _Settings) -> None:
    # the file doubles as a valid config that reproduces the defaults
    lines = ["# every key accepted in --config files, at its default value"]
    for key, default, help_ in _CONFIG_KEYS:
        lines += ["", f"# {help_}", f"{key}={default}"]
    with open(settings.path("config.reference"), "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_floats(text: str, what: str):
    from .errors import DataFormatError
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise DataFormatError(f"{what}: cannot parse {text!r}") from exc


def _note(path: str) -> None:
    print(f"wrote {path}")


def cmd_simulate(args) -> int:
    import numpy as np

    from . import io
    from .models import ModelKind, ModelParams
    from .simulate import draw_beta_preset, make_design, simulate_sem
    from .spatial import build_rook_lattice

    settings = _Settings(args)
    _write_config_reference(settings)
    kind = ModelKind.from_string(settings.get("kind", str))
    rows = settings.get("lattice_rows", int)
    cols = settings.get("lattice_cols", int)
    r = settings.get("n_covariates", int)
    standardize = bool(settings.get("row_standardize", int))
    rng = np.random.default_rng(settings.seed)

    W = build_rook_lattice(rows, cols, row_standardize=standardize)
    X = make_design(W.n, r, rng)
    beta_text = settings.get("beta", str)
    beta = (draw_beta_preset(r + 1, rng) if beta_text == "preset"
            else np.asarray(_parse_floats(beta_text, "beta")))
    params = ModelParams(
        beta=beta, sigma2=settings.get("sigma2", float),
        rho=settings.get("rho", float),
        nu=settings.get("nu", float) if kind.student_t else None,
        gamma=settings.get("gamma", float) if kind.yeo_johnson else None)
    y, _ = simulate_sem(kind, X, W, params, rng)

    data_path = settings.path("dataset.csv")
    weights_path = settings.path("weights.csv")
    manifest_path = settings.path("manifest.txt")
    io.write_dataset(data_path, y, X)
    io.write_weights(weights_path, W)
    manifest = {
        "command": "simulate", "kind": kind.value,
        "seed": settings.seed, "lattice_rows": rows, "lattice_cols": cols,
        "n": W.n, "n_covariates": r,
        "beta": ",".join(repr(float(b)) for b in beta),
        "sigma2": repr(params.sigma2), "rho": repr(params.rho),
        "row_standardize": int(standardize),
    }
    if kind.student_t:
        manifest["nu"] = repr(params.nu)
    if kind.yeo_johnson:
        manifest["gamma"] = repr(params.gamma)
    io.write_manifest(manifest_path, manifest)
    for p in (data_path, weights_path, manifest_path):
        _note(p)
    return 0


def cmd_amputate(args) -> int:
    import numpy as np

    from . import io
    from .errors import DataFormatError
    from .missingness import make_missingness_design, simulate_missing
    from .models import MissingnessParams

    settings = _Settings(args)
    _write_config_reference(settings)
    y, X, Xstar = io.read_dataset(args.data)
    if np.isnan(y).any():
        raise DataFormatError(
            f"{args.data}: dataset already contains missing responses")
    psi_values = _parse_floats(settings.get("psi", str), "psi")
    rng = np.random.default_rng(settings.seed)
    if Xstar is None:
        Xstar = make_missingness_design(y.size, rng)
    if len(psi_values) != Xstar.shape[1] + 1:
        raise DataFormatError(
            f"psi needs {Xstar.shape[1] + 1} values for this design, "
            f"got {len(psi_values)}")
    psi = MissingnessParams(psi_x=np.asarray(psi_values[:-1]),
                            psi_y=psi_values[-1])
    missing = simulate_missing(y, Xstar, psi, rng)

    y_amp = y.copy()
    y_amp[missing] = np.nan
    data_path = settings.path("amputated.csv")
    sidecar_path = settings.path("sidecar.csv")
    manifest_path = settings.path("manifest.txt")
    io.write_dataset(data_path, y_amp, X, Xstar)
    io.write_sidecar(sidecar_path, missing, y)
    io.write_manifest(manifest_path, {
        "command": "amputate", "source": args.data, "seed": settings.seed,
        "psi": ",".join(repr(v) for v in psi_values),
        "n": y.size, "n_missing": int(missing.sum()),
        "missing_rate": repr(float(missing.mean())),
    })
    for p in (data_path, sidecar_path, manifest_path):
        _note(p)
    return 0


def _load_dataset(data_path: str, weights_path: str):
    from . import io
    from .likelihoods import Dataset

    y, X, Xstar = io.read_dataset(data_path)
    W = io.read_weights(weights_path)
    return Dataset(y=y, X=X, W=W, Xstar=Xstar)


def cmd_fit(args) -> int:
    import numpy as np

    from . import io
    from .errors import DataFormatError, DomainError
    from .hvb import HvbConfig, draw_posterior_missing, hvb_fit
    from .models import ModelKind, Priors
    from .variational import FitConfig, draw_posterior, vb_fit

    settings = _Settings(args)
    _write_config_reference(settings)
    kind = ModelKind.from_string(settings.get("kind", str))
    method = settings.get("method", str)
    if method not in ("vb", "hvb"):
        raise DataFormatError(f"method must be vb or hvb, got {method!r}")
    data = _load_dataset(args.data, args.weights)
    if method == "vb" and data.n_missing:
        raise DataFormatError(
            f"{args.data} has {data.n_missing} missing responses; "
            "rerun with method=hvb")
    n_draws = settings.get("n_draws", int)
    if n_draws < 1:
        raise DomainError(f"n_draws must be at least 1, got {n_draws}")
    fit_kwargs = dict(
        n_factors=settings.get("n_factors", int),
        max_iters=settings.get("max_iters", int), seed=settings.seed,
        trace_every=settings.get("trace_every", int),
        stop_window=settings.get("stop_window", int),
        stop_tol=settings.get("stop_tol", float))
    rng = np.random.default_rng(settings.seed)
    priors = Priors()

    if method == "vb":
        result = vb_fit(kind, data, priors, FitConfig(**fit_kwargs), rng=rng)
        samples = draw_posterior(result.lam, result.layout, n_draws, rng)
        unobserved_idx = None
    else:
        config = HvbConfig(
            **fit_kwargs, n1=settings.get("n1", int),
            kernel=settings.get("kernel", str),
            block_fraction=settings.get("block_fraction", float),
            warm_start=bool(settings.get("warm_start", int)))
        result = hvb_fit(kind, data, priors, config, rng=rng)
        samples = draw_posterior_missing(kind, data, result.lam, n_draws,
                                         config.n1, rng, config=config)
        unobserved_idx = data.partition.unobserved_idx

    written = []
    trace_path = settings.path("trace.csv")
    io.write_trace(trace_path, result.trace_iters, result.mu_trace,
                   result.layout.names())
    written.append(trace_path)
    lambda_path = settings.path("lambda.csv")
    io.write_lambda(lambda_path, result.lam)
    written.append(lambda_path)
    samples_path = settings.path("samples.csv")
    io.write_samples(samples_path, samples, unobserved_idx=unobserved_idx)
    written.append(samples_path)
    summary_path = settings.path("summary.csv")
    io.write_summary(summary_path, *io.samples_table(samples, unobserved_idx))
    written.append(summary_path)
    if result.acceptance is not None:
        acceptance_path = settings.path("acceptance.csv")
        io.write_acceptance(acceptance_path, result.acceptance)
        written.append(acceptance_path)
    manifest_path = settings.path("manifest.txt")
    io.write_manifest(manifest_path, {
        "command": "fit", "kind": kind.value, "method": method,
        "data": args.data, "weights": args.weights, "seed": settings.seed,
        "max_iters": fit_kwargs["max_iters"], "n_iters": result.n_iters,
        "n_factors": fit_kwargs["n_factors"], "n_draws": n_draws,
    })
    written.append(manifest_path)
    for p in written:
        _note(p)
    return 0


def cmd_dic(args) -> int:
    from . import io
    from .errors import DataFormatError
    from .model_select import (dic1, dic2, dic5, joint_loglik_fn,
                               phi_loglik_fn, phi_logprior_fn)
    from .models import ModelKind, Priors

    settings = _Settings(args)
    _write_config_reference(settings)
    data = _load_dataset(args.data, args.weights)
    priors = Priors()
    entries = []
    for item in args.models.split(","):
        if "=" not in item:
            raise DataFormatError(
                f"--models entries must be kind=path, got {item!r}")
        kind_text, path = item.split("=", 1)
        kind = ModelKind.from_string(kind_text.strip())
        samples, _ = io.read_samples(path.strip())
        entries.append((kind, path.strip(), samples))

    missing_fit = [s.y_u is not None for _, _, s in entries]
    if any(missing_fit) and not all(missing_fit):
        raise DataFormatError(
            "cannot mix full-data and missing-data fits in one comparison")

    rows = []
    for kind, _, samples in entries:
        loglik_fn = phi_loglik_fn(kind, data)
        prior_fn = phi_logprior_fn(kind, data.n_beta, priors)
        if samples.y_u is None:
            d1 = dic1(samples, loglik_fn)
            d2 = dic2(samples, loglik_fn, prior_fn)
            rows.append((kind.value, d1, d2, None, samples.n_draws))
        else:
            joint_fn = joint_loglik_fn(kind, data)

            def joint_prior(phi_row, psi_row, _prior=prior_fn):
                import numpy as np
                return _prior(phi_row) \
                    - 0.5 * float(np.sum(psi_row ** 2)) / priors.var_psi

            d5 = dic5(samples, joint_fn, prior_fn=joint_prior)
            rows.append((kind.value, None, None, d5, samples.n_draws))

    report_path = settings.path("dic.csv")
    io.write_dic_report(report_path, rows)
    _note(report_path)
    return 0


def cmd_summarize(args) -> int:
    from . import io

    settings = _Settings(args)
    _write_config_reference(settings)
    samples, unobserved_idx = io.read_samples(args.samples)
    summary_path = settings.path("summary.csv")
    io.write_summary(summary_path, *io.samples_table(samples, unobserved_idx))
    _note(summary_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _pin_threads(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2

    from .errors import (DataFormatError, DimensionError, DomainError,
                         NumericalError, SingularityError)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
