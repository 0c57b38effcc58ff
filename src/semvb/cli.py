"""Command-line pipeline: simulate | amputate | fit | dic | summarize.

Each option is one row of `_OPTIONS`: its config key, default, type,
choices, the commands that take it, and its help. The parser, the
flag > config file > default resolution, `config.reference` and the fit
configurations all come from that table. Every command takes --seed,
--config, --out-dir and --threads.

Each command loads only the modules it runs. The table and the config
reader need no numpy, so `_pin_threads` applies --threads, or a config
file's threads=, to the BLAS environment before numpy loads; the command
functions import the numerical stack. No command imports the scipy
package. `simulate`'s sparse solve and the complex-step LU of the log-det
and trace routes (`spatial.plan_route`) call SuperLU's compiled extension,
and the band eigenvalues of W and the banded Cholesky factors, of the
`hvb` conditionals and of the log-dets, call scipy's compiled LAPACK
wrapper; both are loaded by file, which runs no scipy package code. So
every command loads numpy and no scipy module. A process start is a large
share of a short pipeline stage, and `tests/test_cli.py::TestImports`
holds the commands to this rule.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (DataFormatError, DimensionError, DomainError,
                     NumericalError, SingularityError)
from .keyvalues import read_keyvalues

_KINDS = ["sem-gau", "sem-t", "yj-sem-gau", "yj-sem-t"]
_EVERY = ("simulate", "amputate", "fit", "dic", "summarize")
_SIMULATE, _FIT = ("simulate",), ("fit",)


def _switch(text: str) -> bool:
    """An integer option read as off (0) or on (any other value)."""
    return bool(int(text))


def _int_at_least(low: int, name: str):
    """The type of an integer option of at least low, which argparse's
    usage errors call name."""
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise ValueError(f"{text} is below {low}")
        return value
    parse.__name__ = name
    return parse


# (key, default, type, choices, commands, help), in config.reference order.
# An empty default leaves the option unset (None). In config.reference the
# help of a one-command option is prefixed with that command's name.
_OPTIONS = (
    ("seed", "0", _int_at_least(0, "nonnegative int"), None, _EVERY,
     "master RNG seed used by every command"),
    ("out_dir", ".", str, None, _EVERY, "directory artifacts are written into"),
    ("threads", "", _int_at_least(1, "positive int"), None, _EVERY,
     "BLAS/OpenMP thread cap; empty leaves the default"),
    ("kind", "yj-sem-gau", str, _KINDS, ("simulate", "fit"),
     "model kind: " + " | ".join(_KINDS)),
    ("lattice_rows", "25", int, None, _SIMULATE, "lattice height"),
    ("lattice_cols", "25", int, None, _SIMULATE, "lattice width"),
    ("n_covariates", "5", int, None, _SIMULATE,
     "standard-normal covariate count"),
    ("beta", "preset", str, None, _SIMULATE,
     "comma floats, or 'preset' for +-{1,2,3}"),
    ("sigma2", "1.0", float, None, _SIMULATE, "error variance"),
    ("rho", "0.8", float, None, _SIMULATE, "spatial autocorrelation"),
    ("nu", "4.0", float, None, _SIMULATE, "degrees of freedom (t kinds)"),
    ("gamma", "1.25", float, None, _SIMULATE,
     "transform parameter (YJ kinds)"),
    ("row_standardize", "1", _switch, None, _SIMULATE,
     "row-standardize the lattice weights"),
    ("psi", "-1.0,0.5,-0.1", str, None, ("amputate",),
     "logistic coefficients, psi_y last"),
    ("method", "vb", str, ("vb", "hvb"), _FIT,
     "vb (complete data) or hvb (missing data)"),
    ("max_iters", "10000", int, None, _FIT, "SGA iterations"),
    ("n_factors", "4", int, None, _FIT, "variational factor count"),
    ("trace_every", "100", int, None, _FIT, "iterations between trace rows"),
    ("n_draws", "10000", int, None, _FIT,
     "posterior draws for samples/summary"),
    ("n1", "10", int, None, _FIT, "inner MH steps per HVB iteration"),
    ("kernel", "auto", str, ("auto", "nob", "allb"), _FIT,
     "HVB kernel: auto | nob | allb"),
    ("block_fraction", "0.1", float, None, _FIT,
     "blocked-kernel block size fraction"),
    ("warm_start", "0", _switch, None, _FIT,
     "start MH chains from the previous imputation"),
    ("stop_window", "0", int, None, _FIT,
     "plateau window; 0 disables early stop"),
    ("stop_tol", "0.0", float, None, _FIT, "plateau threshold on mu steps"),
)

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _resolve(args) -> None:
    """Set each option of args.command: its flag, else its value in the
    --config file, else its default. A config value is parsed by the
    option's type, and matched to its choices in lower case."""
    config = read_keyvalues(args.config) if args.config else {}
    unknown = set(config) - {row[0] for row in _OPTIONS}
    if unknown:
        raise DataFormatError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, default, type_, choices, commands, _ in _OPTIONS:
        if args.command not in commands or getattr(args, key) is not None:
            continue
        text = config.get(key, default)
        try:
            value = (None if text == default == "" else
                     type_(text.lower() if choices else text))
            if choices and value not in choices:
                raise ValueError(text)
        except ValueError as exc:
            raise DataFormatError(
                f"config key {key}: cannot parse {text!r}") from exc
        setattr(args, key, value)


def _pin_threads(argv: list[str]) -> argparse.Namespace:
    """Parse and resolve argv, and cap the BLAS/OpenMP threads at the
    resolved threads option, before numpy is imported.

    A usage error raises SystemExit, and a bad config file DataFormatError.
    """
    args = _build_parser().parse_args(argv)
    _resolve(args)
    if args.threads is not None:
        os.environ.update(dict.fromkeys(_THREAD_VARS, str(args.threads)))
    return args


def _path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write(args, name: str, writer, *contents) -> None:
    path = _path(args, name)
    writer(path, *contents)
    print(f"wrote {path}")


def _write_config_reference(args) -> None:
    # the file doubles as a valid config that reproduces the defaults
    lines = ["# every key accepted in --config files, at its default value"]
    for key, default, _, _, commands, help_ in _OPTIONS:
        prefix = f"{commands[0]}: " if len(commands) == 1 else ""
        lines += ["", f"# {prefix}{help_}", f"{key}={default}"]
    with open(_path(args, "config.reference"), "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise DataFormatError(f"{what}: cannot parse {text!r}") from exc


def cmd_simulate(args) -> int:
    import numpy as np

    from . import io
    from .models import ModelKind, ModelParams
    from .simulate import draw_beta_preset, make_design, simulate_sem
    from .spatial import build_rook_lattice

    kind = ModelKind.from_string(args.kind)
    r = args.n_covariates
    if r < 0:
        raise DomainError(f"n_covariates must be at least 0, got {r}")
    beta = None if args.beta == "preset" else _parse_floats(args.beta, "beta")
    if beta is not None and len(beta) != r + 1:
        raise DataFormatError(
            f"beta needs n_covariates + 1 = {r + 1} values, got {len(beta)}")
    rng = np.random.default_rng(args.seed)

    W = build_rook_lattice(args.lattice_rows, args.lattice_cols,
                           row_standardize=args.row_standardize)
    X = make_design(W.n, r, rng)
    beta = draw_beta_preset(r + 1, rng) if beta is None else np.asarray(beta)
    params = ModelParams(
        beta=beta, sigma2=args.sigma2, rho=args.rho,
        nu=args.nu if kind.student_t else None,
        gamma=args.gamma if kind.yeo_johnson else None)
    y, _ = simulate_sem(kind, X, W, params, rng)

    _write(args, "dataset.csv", io.write_dataset, y, X)
    _write(args, "weights.csv", io.write_weights, W)
    manifest = {
        "command": "simulate", "kind": kind.value, "seed": args.seed,
        "lattice_rows": args.lattice_rows, "lattice_cols": args.lattice_cols,
        "n": W.n, "n_covariates": r,
        "beta": ",".join(repr(float(b)) for b in beta),
        "sigma2": repr(params.sigma2), "rho": repr(params.rho),
        "row_standardize": int(args.row_standardize),
    }
    if kind.student_t:
        manifest["nu"] = repr(params.nu)
    if kind.yeo_johnson:
        manifest["gamma"] = repr(params.gamma)
    _write(args, "manifest.txt", io.write_manifest, manifest)
    return 0


def cmd_amputate(args) -> int:
    import numpy as np

    from . import io
    from .missingness import make_missingness_design, simulate_missing
    from .models import MissingnessParams

    y, X, Xstar = io.read_dataset(args.data)
    if np.isnan(y).any():
        raise DataFormatError(
            f"{args.data}: dataset already contains missing responses")
    psi_values = _parse_floats(args.psi, "psi")
    rng = np.random.default_rng(args.seed)
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
    _write(args, "amputated.csv", io.write_dataset, y_amp, X, Xstar)
    _write(args, "sidecar.csv", io.write_sidecar, missing, y)
    _write(args, "manifest.txt", io.write_manifest, {
        "command": "amputate", "source": args.data, "seed": args.seed,
        "psi": ",".join(repr(v) for v in psi_values),
        "n": y.size, "n_missing": int(missing.sum()),
        "missing_rate": repr(float(missing.mean())),
    })
    return 0


def _load_dataset(data_path: str, weights_path: str):
    from . import io
    from .likelihoods import Dataset

    y, X, Xstar = io.read_dataset(data_path)
    W = io.read_weights(weights_path)
    return Dataset(y=y, X=X, W=W, Xstar=Xstar)


def cmd_fit(args) -> int:
    from dataclasses import fields

    import numpy as np

    from . import io
    from .hvb import HvbConfig, draw_posterior_missing, hvb_fit
    from .models import ModelKind, Priors
    from .spatial import plan_route
    from .variational import FitConfig, draw_posterior, vb_fit

    kind = ModelKind.from_string(args.kind)
    data = _load_dataset(args.data, args.weights)
    if args.method == "vb" and data.n_missing:
        raise DataFormatError(
            f"{args.data} has {data.n_missing} missing responses; "
            "rerun with method=hvb")
    if args.n_draws < 1:
        raise DomainError(f"n_draws must be at least 1, got {args.n_draws}")
    config_type = FitConfig if args.method == "vb" else HvbConfig
    config = config_type(**{f.name: getattr(args, f.name)
                            for f in fields(config_type)})
    rng = np.random.default_rng(args.seed)

    if args.method == "vb":
        result = vb_fit(kind, data, Priors(), config, rng=rng)
        samples = draw_posterior(result.lam, result.layout, args.n_draws, rng)
    else:
        result = hvb_fit(kind, data, Priors(), config, rng=rng)
        samples = draw_posterior_missing(kind, data, result.lam, args.n_draws,
                                         rng, config=config)

    _write(args, "trace.csv", io.write_trace, result.trace_iters,
           result.mu_trace, result.layout.names())
    _write(args, "lambda.csv", io.write_lambda, result.lam)
    # the y_u columns, which only hvb draws have, are the unobserved sites
    _write(args, "samples.csv", io.write_samples, samples, data.unobserved_idx)
    _write(args, "summary.csv", io.write_summary, samples, data.unobserved_idx)
    if result.acceptance is not None:
        _write(args, "acceptance.csv", io.write_acceptance, result.acceptance)
    manifest = {
        "command": "fit", "kind": kind.value, "method": args.method,
        "data": args.data, "weights": args.weights, "seed": args.seed,
        "max_iters": args.max_iters, "n_iters": result.n_iters,
        "n_factors": args.n_factors, "n_draws": args.n_draws,
        "spectral_route": plan_route(data.W),
    }
    if args.method == "hvb":  # how the imputations were made
        manifest.update(kernel=config.resolve_kernel(data.n_missing),
                        n1=config.n1, block_fraction=config.block_fraction,
                        warm_start=int(config.warm_start))
    _write(args, "manifest.txt", io.write_manifest, manifest)
    return 0


def _sample_mismatch(kind, data, samples, sites) -> str | None:
    """Why a samples file cannot be scored as `kind` on `data`, if it
    cannot: its phi columns, its yu_ sites or its psi column count."""
    import numpy as np

    from .model_select import phi_names_for

    names = phi_names_for(kind, data.n_beta)
    if samples.phi_names != names:
        return (f"phi columns {','.join(samples.phi_names)} are not the "
                f"{kind.value} columns {','.join(names)}")
    if sites is not None and not np.array_equal(sites, data.unobserved_idx):
        return "yu_ columns do not name the dataset's missing sites"
    # psi weighs an intercept and the xs columns; no xs columns, no design
    n_psi = 0 if data.Xstar is None else 1 + data.Xstar.shape[1]
    if samples.psi is not None and samples.psi.shape[1] != n_psi:
        return (f"{samples.psi.shape[1]} psi columns, but the dataset's "
                f"missingness design takes {n_psi}")
    return None


def cmd_dic(args) -> int:
    from . import io
    from .model_select import (dic1, dic2, dic5, per_draw_logliks,
                               per_draw_logpriors, phi_loglik)
    from .models import ModelKind, Priors
    from .spatial import plan_route

    data = _load_dataset(args.data, args.weights)
    priors = Priors()
    entries = []
    for item in args.models.split(","):
        if "=" not in item:
            raise DataFormatError(
                f"--models entries must be kind=path, got {item!r}")
        kind_text, path = (part.strip() for part in item.split("=", 1))
        kind = ModelKind.from_string(kind_text)
        samples, sites = io.read_samples(path)
        problem = _sample_mismatch(kind, data, samples, sites)
        if problem:
            raise DataFormatError(f"{path}: {problem}")
        entries.append((kind, samples))

    if len({s.y_u is None for _, s in entries}) > 1:
        raise DataFormatError(
            "cannot mix full-data and missing-data fits in one comparison")

    # every model scores its draws, and a complete-data one its posterior
    # mean, on the one W
    plan_route(data.W, sum(s.n_draws + (s.y_u is None) for _, s in entries))
    rows = []
    for kind, s in entries:
        lls = per_draw_logliks(kind, data, s)
        log_priors = per_draw_logpriors(kind, priors, s)
        if s.y_u is None:  # one pass over the draws feeds DIC1 and DIC2
            dics = (dic1(lls, phi_loglik(kind, data, s.phi.mean(axis=0))),
                    dic2(lls, log_priors), None)
        else:
            dics = (None, None, dic5(lls, log_priors))
        rows.append((kind.value, *dics, s.n_draws))
    _write(args, "dic.csv", io.write_dic_report, rows)
    return 0


def cmd_summarize(args) -> int:
    from . import io

    _write(args, "summary.csv", io.write_summary,
           *io.read_samples(args.samples))
    return 0


# (command, help, required input flags as (name, help) pairs, function)
_COMMANDS = (
    ("simulate", "draw a synthetic dataset and weight matrix", (),
     cmd_simulate),
    ("amputate", "impose MNAR missingness on a complete dataset",
     (("data", "complete dataset CSV"),), cmd_amputate),
    ("fit", "variational fit plus posterior draws",
     (("data", "dataset CSV"), ("weights", "weight matrix CSV")), cmd_fit),
    ("dic", "DIC comparison across fitted models",
     (("data", "dataset CSV the fits used"), ("weights", "weight matrix CSV"),
      ("models", "comma list of kind=samples.csv entries")), cmd_dic),
    ("summarize", "posterior means and 95%% intervals from samples",
     (("samples", "posterior samples CSV"),), cmd_summarize),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semvb",
        description="Spatial error models with non-Gaussian errors: "
                    "simulation, MNAR amputation, variational fits, DIC.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, help_, inputs, func in _COMMANDS:
        ps = sub.add_parser(command, help=help_)
        for name, text in inputs:
            ps.add_argument(f"--{name}", required=True, help=text)
        for key, default, type_, choices, commands, text in _OPTIONS:
            if command in commands:
                ps.add_argument(f"--{key.replace('_', '-')}", type=type_,
                                choices=choices, help=text + (
                                    f" (default: {default})" if default
                                    else ""))
        ps.add_argument("--config", help="flat key=value config file; "
                        "its values fill in any flag not given")
        ps.set_defaults(func=func)
    return p


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _pin_threads(argv)
    except SystemExit as exc:  # from argparse: --help, or a usage error
        return 0 if exc.code in (0, None) else 2
    except DataFormatError as exc:  # from the config file
        return _error(exc, 3)
    try:
        _write_config_reference(args)
        return args.func(args)
    except (DataFormatError, DomainError, DimensionError, OSError) as exc:
        return _error(exc, 3)
    except (NumericalError, SingularityError) as exc:
        return _error(exc, 4)


if __name__ == "__main__":
    sys.exit(main())
