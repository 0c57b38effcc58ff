"""Command-line pipeline: artifacts, determinism, and exit codes."""

import argparse
import dataclasses
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from semvb import cli, io
from semvb.cli import main
from semvb.hvb import HvbConfig
from semvb.models import ModelKind
from semvb.variational import FitConfig


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    return env


def run_simulate(out_dir, seed=3, extra=()):
    return main(["simulate", "--kind", "yj-sem-gau", "--lattice-rows", "4",
                 "--lattice-cols", "5", "--n-covariates", "2",
                 "--seed", str(seed), "--out-dir", str(out_dir), *extra])


def dir_files(path):
    return sorted(os.listdir(path))


class TestSimulate:
    def test_artifacts_and_manifest(self, tmp_path):
        assert run_simulate(tmp_path) == 0
        assert dir_files(tmp_path) == [
            "config.reference", "dataset.csv", "manifest.txt", "weights.csv"]
        manifest = io.read_keyvalues(tmp_path / "manifest.txt")
        assert manifest["kind"] == "yj-sem-gau"
        assert manifest["n"] == "20"
        y, X, Xs = io.read_dataset(tmp_path / "dataset.csv")
        assert y.shape == (20,) and X.shape == (20, 3) and Xs is None
        W = io.read_weights(tmp_path / "weights.csv")
        assert W.n == 20 and W.row_standardized

    def test_seed_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_simulate(a)
        run_simulate(b)
        for name in dir_files(a):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_simulate(a, seed=3)
        run_simulate(b, seed=4)
        assert not filecmp.cmp(a / "dataset.csv", b / "dataset.csv",
                               shallow=False)

    def test_explicit_beta(self, tmp_path):
        run_simulate(tmp_path, extra=("--beta", "0.5,1.0,-1.5"))
        manifest = io.read_keyvalues(tmp_path / "manifest.txt")
        assert manifest["beta"] == "0.5,1.0,-1.5"


class TestAmputate:
    def test_artifacts(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        amp = tmp_path / "amp"
        rc = main(["amputate", "--data", str(sim / "dataset.csv"),
                   "--seed", "5", "--out-dir", str(amp)])
        assert rc == 0
        y, X, Xs = io.read_dataset(amp / "amputated.csv")
        missing, true_y = io.read_sidecar(amp / "sidecar.csv")
        assert Xs is not None and Xs.shape == (20, 2)
        np.testing.assert_array_equal(np.isnan(y), missing)
        y_sim, _, _ = io.read_dataset(sim / "dataset.csv")
        np.testing.assert_array_equal(true_y, y_sim)
        manifest = io.read_keyvalues(amp / "manifest.txt")
        assert manifest["n_missing"] == str(int(missing.sum()))

    def test_rejects_already_missing(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        amp1 = tmp_path / "a1"
        main(["amputate", "--data", str(sim / "dataset.csv"),
              "--seed", "5", "--out-dir", str(amp1)])
        rc = main(["amputate", "--data", str(amp1 / "amputated.csv"),
                   "--seed", "5", "--out-dir", str(tmp_path / "a2")])
        assert rc == 3

    def test_wrong_psi_length(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        rc = main(["amputate", "--data", str(sim / "dataset.csv"),
                   "--psi=-1.0,0.5", "--out-dir", str(tmp_path / "amp")])
        assert rc == 3


class TestFit:
    def fit_args(self, sim, out, method="vb", data=None, extra=()):
        return ["fit", "--data", str(data or sim / "dataset.csv"),
                "--weights", str(sim / "weights.csv"),
                "--kind", "sem-gau", "--method", method,
                "--max-iters", "30", "--trace-every", "10",
                "--n-draws", "50", "--seed", "7",
                "--out-dir", str(out), *extra]

    def test_vb_artifacts(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        out = tmp_path / "fit"
        assert main(self.fit_args(sim, out)) == 0
        iters, names, values = io.read_trace(out / "trace.csv")
        np.testing.assert_array_equal(iters, [10, 20, 30])
        assert names == ["beta0", "beta1", "beta2", "omega", "rho_z"]
        samples, idx = io.read_samples(out / "samples.csv")
        assert samples.phi.shape == (50, 5) and idx is None
        assert samples.psi is None and samples.y_u is None
        rows = io.read_summary(out / "summary.csv")
        assert [r[0] for r in rows] == ["beta0", "beta1", "beta2",
                                        "sigma2", "rho"]
        lam = io.read_lambda(out / "lambda.csv")
        assert lam.s == 5
        assert not (out / "acceptance.csv").exists()

    def test_vb_rejects_missing_data(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_simulate(sim)
        amp = tmp_path / "amp"
        main(["amputate", "--data", str(sim / "dataset.csv"),
              "--seed", "5", "--out-dir", str(amp)])
        rc = main(self.fit_args(sim, tmp_path / "fit",
                                data=amp / "amputated.csv"))
        assert rc == 3
        assert "method=hvb" in capsys.readouterr().err

    def test_rejects_non_finite_weight(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_simulate(sim)
        lines = (sim / "weights.csv").read_text().splitlines()
        i, j, _ = lines[2].split(",")
        lines[2] = f"{i},{j},nan"
        (sim / "weights.csv").write_text("\n".join(lines) + "\n")
        assert main(self.fit_args(sim, tmp_path / "fit")) == 3
        assert "weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n_draws", ["0", "-1"])
    def test_rejects_nonpositive_n_draws(self, tmp_path, capsys, n_draws):
        sim = tmp_path / "sim"
        run_simulate(sim)
        out = tmp_path / "fit"
        args = self.fit_args(sim, out)
        args[args.index("--n-draws") + 1] = n_draws
        assert main(args) == 3
        assert "n_draws must be at least 1" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("method", ["vb", "hvb"])
    def test_rejects_too_many_factors_before_set_up(self, tmp_path, capsys,
                                                    monkeypatch, method):
        from semvb import hvb, variational
        sim = tmp_path / "sim"
        run_simulate(sim)
        data = None
        if method == "hvb":
            main(["amputate", "--data", str(sim / "dataset.csv"),
                  "--seed", "5", "--out-dir", str(tmp_path / "amp")])
            data = tmp_path / "amp" / "amputated.csv"
        routed = []
        for module in (variational, hvb):
            monkeypatch.setattr(module, "plan_route",
                                lambda *args: routed.append(args))
        out = tmp_path / "fit"
        assert main(self.fit_args(sim, out, method=method, data=data,
                                  extra=("--n-factors", "100000"))) == 3
        assert "n_factors = 100000 exceeds" in capsys.readouterr().err
        assert routed == []
        assert not (out / "trace.csv").exists()

    def test_hvb_artifacts(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        amp = tmp_path / "amp"
        main(["amputate", "--data", str(sim / "dataset.csv"),
              "--seed", "5", "--out-dir", str(amp)])
        out = tmp_path / "fit"
        rc = main(self.fit_args(sim, out, method="hvb",
                                data=amp / "amputated.csv",
                                extra=("--n1", "2")))
        assert rc == 0
        samples, idx = io.read_samples(out / "samples.csv")
        missing, _ = io.read_sidecar(amp / "sidecar.csv")
        np.testing.assert_array_equal(idx, np.flatnonzero(missing))
        assert samples.psi.shape == (50, 3)
        assert samples.y_u.shape == (50, missing.sum())
        acc = io.read_acceptance(out / "acceptance.csv")
        assert acc.shape == (30, 4)
        assert np.all(acc[:, 3] == 2)
        rows = io.read_summary(out / "summary.csv")
        assert rows[-1][0] == f"yu_{np.flatnonzero(missing)[-1]}"

    def test_manifest_records_the_spectral_route(self, tmp_path,
                                                 monkeypatch):
        sim = tmp_path / "sim"
        run_simulate(sim)
        n = 20
        ring = tmp_path / "ring.csv"   # a directed ring has no symmetrizer
        ring.write_text(f"# n={n} row_standardized=1\ni,j,w\n" + "".join(
            f"{i},{(i + 1) % n},1\n" for i in range(n)))

        def route(name, weights=None, iters="30"):
            args = self.fit_args(sim, tmp_path / name)
            args[args.index("--max-iters") + 1] = iters
            if weights is not None:
                args[args.index("--weights") + 1] = str(weights)
            assert main(args) == 0
            manifest = io.read_keyvalues(tmp_path / name / "manifest.txt")
            return manifest["spectral_route"]

        assert route("spectrum") == "band-eigen"
        assert route("probe", iters="0") == "cholesky+lu"
        assert route("dense", weights=ring) == "dense-eigen"
        from semvb import spatial
        monkeypatch.setattr(spatial, "_EIGEN_MAX_N", 4)
        assert route("lu", weights=ring) == "lu"
        monkeypatch.setattr(spatial, "_DSBEVD_S", float("inf"))
        assert route("factored") == "cholesky+lu"

    def test_hvb_manifest_records_the_imputation(self, tmp_path):
        sim, amp = tmp_path / "sim", tmp_path / "amp"
        run_simulate(sim)
        assert main(["amputate", "--data", str(sim / "dataset.csv"),
                     "--seed", "5", "--out-dir", str(amp)]) == 0

        def manifest(name, *extra):
            out = tmp_path / name
            assert main(self.fit_args(sim, out, method="hvb",
                                      data=amp / "amputated.csv",
                                      extra=("--n1", "2", *extra))) == 0
            return (out / "manifest.txt").read_text()

        cold = manifest("cold", "--kernel", "nob").splitlines()
        warm = manifest("warm", "--kernel", "nob", "--warm-start", "1")
        # a cold and a warm-start fit at one seed draw different imputations
        assert cold[-4:] == ["kernel=nob", "n1=2", "block_fraction=0.1",
                             "warm_start=0"]
        assert warm.splitlines() == cold[:-1] + ["warm_start=1"]
        # auto is recorded as the kernel it resolved to
        from semvb.hvb import HvbConfig
        n_missing = int(io.read_sidecar(amp / "sidecar.csv")[0].sum())
        assert f"kernel={HvbConfig().resolve_kernel(n_missing)}" in \
            manifest("auto").splitlines()
        vb = tmp_path / "vb"
        assert main(self.fit_args(sim, vb)) == 0
        assert "kernel" not in io.read_keyvalues(vb / "manifest.txt")

    def test_no_stage_forms_a_dense_eigenproblem(self, tmp_path,
                                                 monkeypatch):
        # every stage on symmetrizable W, with numpy's dense eigensolvers
        # refused: the spectrum comes from the band
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        sim, amp = tmp_path / "sim", tmp_path / "amp"
        run_simulate(sim)
        assert main(["amputate", "--data", str(sim / "dataset.csv"),
                     "--seed", "5", "--out-dir", str(amp)]) == 0
        fits = {"vb": (sim / "dataset.csv", ()),
                "hvb": (amp / "amputated.csv", ("--n1", "2"))}
        for method, (data, extra) in fits.items():
            for iters in ("0", "30"):
                out = tmp_path / f"{method}{iters}"
                args = self.fit_args(sim, out, method=method, data=data,
                                     extra=extra)
                args[args.index("--max-iters") + 1] = iters
                assert main(args) == 0
                manifest = io.read_keyvalues(out / "manifest.txt")
                assert manifest["spectral_route"] == (
                    "band-eigen" if iters == "30" else "cholesky+lu")
                assert main(["dic", "--data", str(data),
                             "--weights", str(sim / "weights.csv"),
                             "--models", f"sem-gau={out / 'samples.csv'}",
                             "--out-dir", str(tmp_path / f"dic{method}"
                                              f"{iters}")]) == 0
        assert main(["summarize", "--samples", str(out / "samples.csv"),
                     "--out-dir", str(tmp_path / "sum")]) == 0

    def test_fit_reproducible_bytes(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        outs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            main(self.fit_args(sim, out))
            outs.append(out)
        for name in dir_files(outs[0]):
            assert filecmp.cmp(outs[0] / name, outs[1] / name,
                               shallow=False), name

    def test_summarize_matches_fit_summary(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        out = tmp_path / "fit"
        main(self.fit_args(sim, out))
        summ = tmp_path / "summ"
        rc = main(["summarize", "--samples", str(out / "samples.csv"),
                   "--out-dir", str(summ)])
        assert rc == 0
        assert filecmp.cmp(out / "summary.csv", summ / "summary.csv",
                           shallow=False)

    def test_nonfinite_draw_exits_4(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        out = tmp_path / "fit"
        main(self.fit_args(sim, out))
        text = (out / "samples.csv").read_text().splitlines()
        cells = text[1].split(",")
        cells[3] = "nan"
        text[1] = ",".join(cells)
        bad = tmp_path / "bad_samples.csv"
        bad.write_text("\n".join(text) + "\n")
        rc = main(["dic", "--data", str(sim / "dataset.csv"),
                   "--weights", str(sim / "weights.csv"),
                   "--models", f"sem-gau={bad}",
                   "--out-dir", str(tmp_path / "dic")])
        assert rc == 4


# config.reference as written before the options moved into one table.
_CONFIG_REFERENCE = """\
# every key accepted in --config files, at its default value

# master RNG seed used by every command
seed=0

# directory artifacts are written into
out_dir=.

# BLAS/OpenMP thread cap; empty leaves the default
threads=

# model kind: sem-gau | sem-t | yj-sem-gau | yj-sem-t
kind=yj-sem-gau

# simulate: lattice height
lattice_rows=25

# simulate: lattice width
lattice_cols=25

# simulate: standard-normal covariate count
n_covariates=5

# simulate: comma floats, or 'preset' for +-{1,2,3}
beta=preset

# simulate: error variance
sigma2=1.0

# simulate: spatial autocorrelation
rho=0.8

# simulate: degrees of freedom (t kinds)
nu=4.0

# simulate: transform parameter (YJ kinds)
gamma=1.25

# simulate: row-standardize the lattice weights
row_standardize=1

# amputate: logistic coefficients, psi_y last
psi=-1.0,0.5,-0.1

# fit: vb (complete data) or hvb (missing data)
method=vb

# fit: SGA iterations
max_iters=10000

# fit: variational factor count
n_factors=4

# fit: iterations between trace rows
trace_every=100

# fit: posterior draws for samples/summary
n_draws=10000

# fit: inner MH steps per HVB iteration
n1=10

# fit: HVB kernel: auto | nob | allb
kernel=auto

# fit: blocked-kernel block size fraction
block_fraction=0.1

# fit: start MH chains from the previous imputation
warm_start=0

# fit: plateau window; 0 disables early stop
stop_window=0

# fit: plateau threshold on mu steps
stop_tol=0.0
"""

# The flags each command accepted before the options moved into one table.
_FLAGS = {
    "simulate": ["--beta", "--config", "--gamma", "--kind", "--lattice-cols",
                 "--lattice-rows", "--n-covariates", "--nu", "--out-dir",
                 "--rho", "--row-standardize", "--seed", "--sigma2",
                 "--threads"],
    "amputate": ["--config", "--data", "--out-dir", "--psi", "--seed",
                 "--threads"],
    "fit": ["--block-fraction", "--config", "--data", "--kernel", "--kind",
            "--max-iters", "--method", "--n-draws", "--n-factors", "--n1",
            "--out-dir", "--seed", "--stop-tol", "--stop-window", "--threads",
            "--trace-every", "--warm-start", "--weights"],
    "dic": ["--config", "--data", "--models", "--out-dir", "--seed",
            "--threads", "--weights"],
    "summarize": ["--config", "--out-dir", "--samples", "--seed", "--threads"],
}


def _subparsers():
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestConfig:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lattice_rows=3\nlattice_cols=3\nn_covariates=1\n"
                       "kind=sem-gau\nseed=9\n")
        a = tmp_path / "a"
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(a)])
        assert rc == 0
        manifest = io.read_keyvalues(a / "manifest.txt")
        assert manifest["n"] == "9" and manifest["seed"] == "9"
        b = tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--lattice-rows", "2",
              "--out-dir", str(b)])
        assert io.read_keyvalues(b / "manifest.txt")["n"] == "6"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("latice_rows=3\n")
        rc = main(["simulate", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3

    def test_config_reference_is_valid_config(self, tmp_path):
        run_simulate(tmp_path)
        ref = io.read_keyvalues(tmp_path / "config.reference")
        assert ref["kind"] == "yj-sem-gau"
        assert ref["n_draws"] == "10000"
        assert ref["psi"] == "-1.0,0.5,-0.1"

    def test_config_reference_bytes(self, tmp_path):
        run_simulate(tmp_path)
        data = (tmp_path / "config.reference").read_bytes()
        assert data == _CONFIG_REFERENCE.encode()

    def test_each_key_in_one_row(self):
        keys = [row[0] for row in cli._OPTIONS]
        assert len(keys) == len(set(keys)) == 25
        assert keys == [ln.split("=")[0]
                        for ln in _CONFIG_REFERENCE.splitlines()
                        if ln and not ln.startswith("#")]

    def test_defaults_match_fit_configs(self):
        fit, hvb = FitConfig(), HvbConfig()
        checked = set()
        for key, default, type_, _, _, _ in cli._OPTIONS:
            for config in (fit, hvb):
                if hasattr(config, key):
                    assert type_(default) == getattr(config, key), key
                    checked.add(key)
        assert checked == {f.name for f in dataclasses.fields(HvbConfig)}
        assert cli._KINDS == [k.value for k in ModelKind]

    def test_flags_per_command(self):
        subparsers = _subparsers()
        assert sorted(subparsers) == sorted(_FLAGS)
        for command, parser in subparsers.items():
            flags = sorted(s for a in parser._actions
                           for s in a.option_strings
                           if s not in ("-h", "--help"))
            assert flags == _FLAGS[command], command

    def test_help_names_every_option(self, capsys):
        for command in _FLAGS:
            assert main([command, "--help"]) == 0
            out = " ".join(capsys.readouterr().out.split())
            for key, default, _, _, commands, text in cli._OPTIONS:
                if command in commands:
                    assert text in out, (command, key)
                    if default:
                        assert f"(default: {default})" in out, (command, key)

    def test_config_values_parsed_and_matched(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=SEM-GAU\nlattice_rows=2\nlattice_cols=2\n"
                       "n_covariates=1\nrow_standardize=0\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "a")]) == 0
        manifest = io.read_keyvalues(tmp_path / "a" / "manifest.txt")
        assert manifest["kind"] == "sem-gau"
        assert manifest["row_standardize"] == "0"
        for bad in ("lattice_rows=2.5", "kind=sar", "row_standardize=yes",
                    "sigma2=one"):
            cfg.write_text(bad + "\n")
            rc = main(["simulate", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "b")])
            assert rc == 3, bad

    def test_config_threads_pins_before_numpy(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=1\n")
        env = _src_env()
        for var in cli._THREAD_VARS:
            env.pop(var, None)
        code = ("import json, os, sys\n"
                "from semvb import cli\n"
                "cli._pin_threads(sys.argv[1:])\n"
                "print(json.dumps([os.environ.get('OMP_NUM_THREADS'), "
                "os.environ.get('OPENBLAS_NUM_THREADS'), "
                "'numpy' in sys.modules]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "simulate", "--config", str(cfg)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["1", "1", False]

    def test_config_threads_flag_wins(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=1\n")
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        args = cli._pin_threads(["summarize", "--samples", "s.csv",
                                 "--config", str(cfg), "--threads", "2"])
        assert args.threads == 2
        assert os.environ["OMP_NUM_THREADS"] == "2"
        cfg.write_text("threads=\n")
        assert cli._pin_threads(["summarize", "--samples", "s.csv",
                                 "--config", str(cfg)]).threads is None

    def test_config_threads_rejects_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=abc\n")
        rc = main(["simulate", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("key, flag, config, code", [
        ("seed", ["--seed=-1"], None, 2), ("seed", ["--seed", "-1"], None, 2),
        ("threads", ["--threads", "0"], None, 2),
        ("threads", ["--threads=-1"], None, 2),
        ("seed", [], "seed=-1", 3), ("threads", [], "threads=0", 3),
        ("threads", [], "threads=-1", 3)])
    def test_bad_seed_and_threads_refused_before_numpy(self, tmp_path, key,
                                                       flag, config, code):
        # a usage error (2) for a flag, a config error (3) for a config
        # value; no traceback, no thread cap exported, and numpy never loads
        args = ["simulate", "--lattice-rows", "3", "--lattice-cols", "3",
                "--out-dir", str(tmp_path / "out"), *flag]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            args += ["--config", str(tmp_path / "run.cfg")]
        env = _src_env()
        for var in cli._THREAD_VARS:
            env.pop(var, None)
        run = ("import os, sys\n"
               "from semvb import cli\n"
               "rc = cli.main(sys.argv[1:])\n"
               "print('numpy' in sys.modules, "
               "os.environ.get('OMP_NUM_THREADS'))\n"
               "sys.exit(rc)\n")
        proc = subprocess.run([sys.executable, "-c", run, *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.split() == ["False", "None"]
        assert "Traceback" not in proc.stderr
        assert key in proc.stderr
        assert not (tmp_path / "out").exists()


class TestDic:
    def make_fits(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        amp = tmp_path / "amp"
        main(["amputate", "--data", str(sim / "dataset.csv"),
              "--seed", "5", "--out-dir", str(amp)])
        full = tmp_path / "full"
        main(["fit", "--data", str(sim / "dataset.csv"),
              "--weights", str(sim / "weights.csv"), "--kind", "sem-gau",
              "--max-iters", "20", "--n-draws", "30", "--seed", "7",
              "--out-dir", str(full)])
        miss = tmp_path / "miss"
        main(["fit", "--data", str(amp / "amputated.csv"),
              "--weights", str(sim / "weights.csv"), "--kind", "sem-gau",
              "--method", "hvb", "--max-iters", "20", "--n1", "2",
              "--n-draws", "30", "--seed", "7", "--out-dir", str(miss)])
        return sim, amp, full, miss

    def test_full_data_report(self, tmp_path):
        sim, _, full, _ = self.make_fits(tmp_path)
        out = tmp_path / "dic"
        rc = main(["dic", "--data", str(sim / "dataset.csv"),
                   "--weights", str(sim / "weights.csv"),
                   "--models", f"sem-gau={full / 'samples.csv'}",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = io.read_dic_report(out / "dic.csv")
        assert len(rows) == 1
        model, d1, d2, d5, nd = rows[0]
        assert model == "sem-gau" and d5 is None and nd == 30
        assert np.isfinite(d1) and np.isfinite(d2)

    def test_missing_data_report(self, tmp_path):
        sim, amp, _, miss = self.make_fits(tmp_path)
        out = tmp_path / "dic"
        rc = main(["dic", "--data", str(amp / "amputated.csv"),
                   "--weights", str(sim / "weights.csv"),
                   "--models", f"sem-gau={miss / 'samples.csv'}",
                   "--out-dir", str(out)])
        assert rc == 0
        model, d1, d2, d5, nd = io.read_dic_report(out / "dic.csv")[0]
        assert d1 is None and d2 is None and np.isfinite(d5)

    def test_mixed_fits_rejected(self, tmp_path, capsys):
        sim, amp, full, miss = self.make_fits(tmp_path)
        rc = main(["dic", "--data", str(amp / "amputated.csv"),
                   "--weights", str(sim / "weights.csv"),
                   "--models", (f"sem-gau={full / 'samples.csv'},"
                                f"sem-gau={miss / 'samples.csv'}"),
                   "--out-dir", str(tmp_path / "dic")])
        assert rc == 3
        assert "mix" in capsys.readouterr().err

    def dic_rc(self, data, sim, models, out):
        return main(["dic", "--data", str(data),
                     "--weights", str(sim / "weights.csv"),
                     "--models", models, "--out-dir", str(out)])

    def test_kind_must_match_phi_columns(self, tmp_path, capsys):
        sim, _, full, _ = self.make_fits(tmp_path)
        gau = full / "samples.csv"
        rc = self.dic_rc(sim / "dataset.csv", sim, f"yj-sem-t={gau}",
                         tmp_path / "dic")
        assert rc == 3
        err = capsys.readouterr().err
        assert str(gau) in err and "yj-sem-t columns" in err
        yjt = tmp_path / "yjt"
        main(["fit", "--data", str(sim / "dataset.csv"),
              "--weights", str(sim / "weights.csv"), "--kind", "yj-sem-t",
              "--max-iters", "5", "--n-draws", "5", "--out-dir", str(yjt)])
        capsys.readouterr()
        rc = self.dic_rc(sim / "dataset.csv", sim,
                         f"sem-gau={yjt / 'samples.csv'}", tmp_path / "dic")
        assert rc == 3
        assert "sem-gau columns" in capsys.readouterr().err
        assert not (tmp_path / "dic" / "dic.csv").exists()

    def test_yu_sites_must_match_dataset(self, tmp_path, capsys):
        # same yu_ column count, other sites
        sim, amp, _, miss = self.make_fits(tmp_path)
        missing, _ = io.read_sidecar(amp / "sidecar.csv")
        sites = np.flatnonzero(missing)
        other = np.flatnonzero(~missing)[:sites.size]
        assert other.size == sites.size
        lines = (miss / "samples.csv").read_text().splitlines(keepends=True)
        head = lines[0].split(",")
        k = head.index(f"yu_{sites[0]}")
        lines[0] = ",".join(head[:k] + [f"yu_{i}" for i in other]) + "\n"
        bad = tmp_path / "moved.csv"
        bad.write_text("".join(lines))
        rc = self.dic_rc(amp / "amputated.csv", sim, f"sem-gau={bad}",
                         tmp_path / "dic")
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "missing sites" in err

    def test_psi_columns_must_match_design(self, tmp_path, capsys):
        sim, amp, _, miss = self.make_fits(tmp_path)
        lines = (miss / "samples.csv").read_text().splitlines()
        head = lines[0].split(",")
        k = head.index("psi1")
        bad = tmp_path / "short_psi.csv"
        bad.write_text("".join(
            ",".join(cells[:k] + cells[k + 1:]) + "\n"
            for cells in (ln.split(",") for ln in lines)))
        rc = self.dic_rc(amp / "amputated.csv", sim, f"sem-gau={bad}",
                         tmp_path / "dic")
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "2 psi columns" in err
        assert "takes 3" in err

    def test_psi_columns_need_a_missingness_design(self, tmp_path, capsys):
        # a dataset with missing responses but no xs columns
        sim = tmp_path / "sim"
        assert main(["simulate", "--kind", "sem-gau", "--lattice-rows", "4",
                     "--lattice-cols", "4", "--n-covariates", "1",
                     "--out-dir", str(sim)]) == 0
        y, X, _ = io.read_dataset(sim / "dataset.csv")
        y[[0, 3]] = np.nan
        io.write_dataset(sim / "dataset.csv", y, X)
        bad = tmp_path / "samples.csv"
        bad.write_text("beta0,beta1,sigma2,rho,psi_y,yu_0,yu_3\n"
                       "0.5,1.0,1.0,0.3,-0.1,0.2,0.4\n")
        rc = self.dic_rc(sim / "dataset.csv", sim, f"sem-gau={bad}",
                         tmp_path / "dic")
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "1 psi columns" in err
        assert "takes 0" in err
        assert not (tmp_path / "dic" / "dic.csv").exists()

    @pytest.mark.parametrize("kind", ["sem-gau", "sem-t"])
    def test_each_draw_scored_once(self, tmp_path, monkeypatch, kind):
        """n_draws + 1 log-likelihoods for DIC1 and DIC2 together (the one
        extra at the posterior mean), n_draws for DIC5."""
        from semvb import model_select
        sim, amp, full, miss = self.make_fits(tmp_path)
        if kind == "sem-t":
            for out, data, method in ((full, sim / "dataset.csv", "vb"),
                                      (miss, amp / "amputated.csv", "hvb")):
                assert main(["fit", "--data", str(data),
                             "--weights", str(sim / "weights.csv"),
                             "--kind", kind, "--method", method,
                             "--max-iters", "5", "--n1", "2",
                             "--n-draws", "30", "--out-dir", str(out)]) == 0
        calls = []
        for name in ("loglik", "marginal_loglik_t"):
            original = getattr(model_select, name)
            monkeypatch.setattr(
                model_select, name,
                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        for data, fit, want in ((sim / "dataset.csv", full, 31),
                                (amp / "amputated.csv", miss, 30)):
            calls.clear()
            assert self.dic_rc(data, sim, f"{kind}={fit / 'samples.csv'}",
                               tmp_path / "dic") == 0
            assert len(calls) == want
            assert set(calls) == {"marginal_loglik_t" if kind == "sem-t"
                                  else "loglik"}

    def test_report_matches_two_pass_oracle(self, tmp_path):
        """dic.csv holds the two-pass functions' values bit for bit."""
        from oracles import (dic1_two_pass, dic2_two_pass, dic5_two_pass,
                             joint_loglik_fn, joint_logprior_fn,
                             phi_loglik_fn, phi_logprior_fn)
        from semvb.likelihoods import Dataset
        from semvb.models import Priors
        from semvb.spatial import plan_route
        sim, amp, full, miss = self.make_fits(tmp_path)
        W = io.read_weights(sim / "weights.csv")
        kind = ModelKind.SEM_GAU
        for data_path, fit in ((sim / "dataset.csv", full),
                               (amp / "amputated.csv", miss)):
            y, X, Xstar = io.read_dataset(data_path)
            data = Dataset(y=y, X=X, W=W, Xstar=Xstar)
            samples, _ = io.read_samples(fit / "samples.csv")
            # the log-det route that `semvb dic` plans for these draws
            plan_route(W, samples.n_draws + (samples.y_u is None))
            out = tmp_path / "dic" / fit.name
            assert self.dic_rc(data_path, sim,
                               f"sem-gau={fit / 'samples.csv'}", out) == 0
            _, d1, d2, d5, _ = io.read_dic_report(out / "dic.csv")[0]
            if samples.y_u is None:
                loglik_fn = phi_loglik_fn(kind, data)
                assert d1 == dic1_two_pass(samples, loglik_fn)
                assert d2 == dic2_two_pass(samples, loglik_fn, phi_logprior_fn(
                    kind, data.n_beta, Priors()))
            else:
                assert d5 == dic5_two_pass(
                    samples, joint_loglik_fn(kind, data),
                    joint_logprior_fn(kind, data.n_beta, Priors()))

    def test_non_finite_draw_exits_4(self, tmp_path, capsys):
        sim, _, full, _ = self.make_fits(tmp_path)
        lines = (full / "samples.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("sigma2")] = "1e-320"
        lines[2] = ",".join(cells)
        bad = tmp_path / "tiny_sigma2.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = self.dic_rc(sim / "dataset.csv", sim, f"sem-gau={bad}",
                         tmp_path / "dic")
        assert rc == 4
        assert "posterior draw 1" in capsys.readouterr().err
        assert not (tmp_path / "dic" / "dic.csv").exists()


class TestExitCodes:
    def test_usage_errors(self, tmp_path, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["simulate", "--kind", "sar"]) == 2
        assert main(["fit", "--data", "x.csv"]) == 2
        capsys.readouterr()

    def test_simulate_beta_count(self, tmp_path, capsys):
        rc = main(["simulate", "--n-covariates", "2", "--beta", "1,2",
                   "--out-dir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "n_covariates + 1 = 3" in err and "got 2" in err
        assert not (tmp_path / "dataset.csv").exists()

    def test_simulate_negative_covariates(self, tmp_path, capsys):
        rc = main(["simulate", "--n-covariates", "-1",
                   "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "n_covariates must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("head", ["# n=abc row_standardized=1",
                                      "# n=20 row_standardized=yes",
                                      "# n=20 row_standardized=7",
                                      "# n=20 row_standardized=-1",
                                      "# n=20 rowstandardized=1"])
    def test_bad_weights_size_line(self, tmp_path, capsys, head):
        sim = tmp_path / "sim"
        run_simulate(sim)
        weights = sim / "weights.csv"
        lines = weights.read_text().splitlines(keepends=True)
        weights.write_text(head + "\n" + "".join(lines[1:]))
        inputs = ["--data", str(sim / "dataset.csv"),
                  "--weights", str(weights)]
        capsys.readouterr()
        for args in (["fit", *inputs, "--max-iters", "2", "--n-draws", "2"],
                     ["dic", *inputs, "--models", "sem-gau=none.csv"]):
            assert main([*args, "--out-dir", str(tmp_path / "out")]) == 3
            assert str(weights) in capsys.readouterr().err

    def test_bad_yu_column(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_simulate(sim)
        bad = tmp_path / "samples.csv"
        bad.write_text("beta0,psi_y,yu_x\n1.0,2.0,3.0\n")
        capsys.readouterr()
        for args in (["summarize", "--samples", str(bad)],
                     ["dic", "--data", str(sim / "dataset.csv"),
                      "--weights", str(sim / "weights.csv"),
                      "--models", f"sem-gau={bad}"]):
            assert main([*args, "--out-dir", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert str(bad) in err and "bad yu_ site value 'x'" in err

    def test_weights_index_outside_int64(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_simulate(sim)
        weights = sim / "weights.csv"
        lines = weights.read_text().splitlines(keepends=True)
        lines[2] = "0,99999999999999999999,1.0\n"
        weights.write_text("".join(lines))
        capsys.readouterr()
        rc = main(["fit", "--data", str(sim / "dataset.csv"),
                   "--weights", str(weights), "--max-iters", "2",
                   "--n-draws", "2", "--out-dir", str(tmp_path / "fit")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(weights) in err
        assert "row 3, column j: bad value '99999999999999999999'" in err

    def test_yu_site_outside_int64(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_simulate(sim)
        bad = tmp_path / "samples.csv"
        bad.write_text("beta0,psi_y,yu_99999999999999999999\n1.0,2.0,3.0\n")
        capsys.readouterr()
        rc = main(["dic", "--data", str(sim / "dataset.csv"),
                   "--weights", str(sim / "weights.csv"),
                   "--models", f"sem-gau={bad}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "bad yu_ site value '99999999999999999999'" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("simulate", "amputate", "fit", "dic", "summarize"):
            assert cmd in out

    @pytest.mark.parametrize("flag, value", [("--stop-window", "-1"),
                                             ("--stop-tol", "-0.5")])
    def test_negative_plateau_rule(self, tmp_path, capsys, flag, value):
        sim = tmp_path / "sim"
        run_simulate(sim)
        out = tmp_path / "fit"
        capsys.readouterr()
        rc = main(["fit", "--data", str(sim / "dataset.csv"),
                   "--weights", str(sim / "weights.csv"), "--max-iters", "2",
                   "--n-draws", "2", flag, value, "--out-dir", str(out)])
        assert rc == 3
        assert (f"{flag[2:].replace('-', '_')} must be nonnegative"
                in capsys.readouterr().err)
        assert not (out / "trace.csv").exists()

    def test_missing_input_file(self, tmp_path):
        rc = main(["fit", "--data", str(tmp_path / "no.csv"),
                   "--weights", str(tmp_path / "no2.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_nonfinite_response_named(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "yj-sem-gau", "--lattice-rows", "5",
              "--lattice-cols", "5", "--n-covariates", "2",
              "--out-dir", str(sim)])
        data = sim / "dataset.csv"
        lines = data.read_text().splitlines(keepends=True)
        lines[1] = "inf" + lines[1][lines[1].index(","):]
        data.write_text("".join(lines))
        capsys.readouterr()
        rc = main(["fit", "--data", str(data),
                   "--weights", str(sim / "weights.csv"),
                   "--max-iters", "2", "--n-draws", "5",
                   "--out-dir", str(tmp_path / "fit")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(data) in err and "row 2, column y" in err
        assert "'inf'" in err

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "semvb.cli", "simulate", "--kind",
             "sem-gau", "--lattice-rows", "2", "--lattice-cols", "2",
             "--n-covariates", "1", "--threads", "1",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0
        assert (tmp_path / "dataset.csv").exists()


# Runs each argv list through cli.main in a fresh interpreter and prints, as
# one JSON line after each, the watched modules loaded so far: those named,
# and their submodules. The given constants of spatial (the eigen cap, the
# budget rule's costs) are set before the first command runs.
_MODULES_AFTER_EACH = """
import json, sys
argvs, watched, constants = json.loads(sys.argv[1])
if constants:
    import semvb.spatial
    for name, value in constants.items():
        setattr(semvb.spatial, name, value)
from semvb.cli import main
for argv in argvs:
    assert main(argv) == 0, argv
    print(json.dumps(sorted(m for m in sys.modules if any(
        m == w or m.startswith(w + ".") for w in watched))))
"""


_FIT_MODULES = ("semvb.variational", "semvb.hvb")


def _modules_after_each(argvs, watched=("scipy",), constants=None):
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_EACH,
         json.dumps([argvs, watched, constants])],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("[")]


class TestImports:
    """Each command loads only the modules it runs.

    These run in a subprocess, because the test process has scipy loaded.
    """

    def test_simulate_loads_no_fitting_module(self, tmp_path):
        (loaded,) = _modules_after_each([
            ["simulate", "--lattice-rows", "3", "--lattice-cols", "3",
             "--out-dir", str(tmp_path / "sim")]], watched=_FIT_MODULES)
        assert loaded == []

    def test_simulate_loads_no_scipy(self, tmp_path):
        # the draw's sparse solve is SuperLU's extension, loaded by file
        (loaded,) = _modules_after_each([
            ["simulate", "--lattice-rows", "3", "--lattice-cols", "3",
             "--out-dir", str(tmp_path / "sim")]],
            watched=("scipy", "semvb._superlu"))
        assert loaded == ["semvb._superlu"]

    def test_amputate_loads_no_scipy(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        (loaded,) = _modules_after_each([
            ["amputate", "--data", str(sim / "dataset.csv"),
             "--out-dir", str(tmp_path / "amp")]],
            watched=("scipy", *_FIT_MODULES))
        assert loaded == []

    def test_fit_and_dic_skip_scipy_special(self, tmp_path):
        # on this small W the spectrum pays for a fit's two iterations and
        # for the DIC's six log-dets: band eigenvalues from the LAPACK
        # wrapper, loaded by file, and no scipy module at all
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "yj-sem-t", "--lattice-rows", "4",
              "--lattice-cols", "5", "--n-covariates", "2",
              "--out-dir", str(sim)])
        fit = tmp_path / "fit"
        after = _modules_after_each([
            ["fit", "--data", str(sim / "dataset.csv"),
             "--weights", str(sim / "weights.csv"), "--kind", "yj-sem-t",
             "--max-iters", "2", "--n-draws", "5", "--out-dir", str(fit)],
            ["dic", "--data", str(sim / "dataset.csv"),
             "--weights", str(sim / "weights.csv"),
             "--models", f"yj-sem-t={fit / 'samples.csv'}",
             "--out-dir", str(tmp_path / "dic")]],
            watched=("scipy", "semvb._flapack", "semvb._superlu"))
        assert after == [["semvb._flapack"], ["semvb._flapack"]]

    def test_past_cap_probe_and_dic_load_no_scipy(self, tmp_path):
        # with the spectrum kept off, on W with a symmetrizer, the log-dets
        # of the rho-grid initialization and of DIC are banded Cholesky
        # factors of an RCM band; only a fit that iterates needs the sparse
        # LU of the trace
        sim = tmp_path / "sim"
        run_simulate(sim)
        data = ["--data", str(sim / "dataset.csv"),
                "--weights", str(sim / "weights.csv")]
        probe = tmp_path / "probe"
        after = _modules_after_each([
            ["fit", *data, "--kind", "yj-sem-gau", "--max-iters", "0",
             "--n-draws", "5", "--out-dir", str(probe)],
            ["dic", *data, "--models", f"yj-sem-gau={probe / 'samples.csv'}",
             "--out-dir", str(tmp_path / "dic")],
            ["fit", *data, "--kind", "yj-sem-gau", "--max-iters", "2",
             "--n-draws", "5", "--out-dir", str(tmp_path / "fit")]],
            watched=("scipy", "semvb._flapack", "semvb._superlu"),
            constants={"_EIGEN_MAX_N": 0, "_DSBEVD_S": float("inf")})
        assert after[0] == after[1] == ["semvb._flapack"]
        assert after[2] == ["semvb._flapack", "semvb._superlu"]

    def test_past_cap_without_symmetrizer_loads_no_scipy(self, tmp_path):
        # a directed ring has no symmetrizer, so past the cap every log-det
        # and trace is a sparse LU, from SuperLU's extension loaded by file
        sim = tmp_path / "sim"
        run_simulate(sim)
        n = 20
        ring = tmp_path / "ring.csv"
        ring.write_text(f"# n={n} row_standardized=1\ni,j,w\n" + "".join(
            f"{i},{(i + 1) % n},1\n" for i in range(n)))
        data = ["--data", str(sim / "dataset.csv"), "--weights", str(ring)]
        probe = tmp_path / "probe"
        after = _modules_after_each([
            ["fit", *data, "--kind", "yj-sem-gau", "--max-iters", "0",
             "--n-draws", "5", "--out-dir", str(probe)],
            ["fit", *data, "--kind", "yj-sem-gau", "--max-iters", "2",
             "--n-draws", "5", "--out-dir", str(tmp_path / "fit")],
            ["dic", *data, "--models", f"yj-sem-gau={probe / 'samples.csv'}",
             "--out-dir", str(tmp_path / "dic")]],
            watched=("scipy", "semvb._flapack", "semvb._superlu"),
            constants={"_EIGEN_MAX_N": 0})
        assert after == [["semvb._superlu"]] * 3

    def test_summarize_loads_no_scipy(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        fit = tmp_path / "fit"
        assert main(["fit", "--data", str(sim / "dataset.csv"),
                     "--weights", str(sim / "weights.csv"),
                     "--kind", "yj-sem-gau", "--max-iters", "2",
                     "--n-draws", "5", "--out-dir", str(fit)]) == 0
        (loaded,) = _modules_after_each([
            ["summarize", "--samples", str(fit / "samples.csv"),
             "--out-dir", str(tmp_path / "sum")]],
            watched=("scipy", *_FIT_MODULES))
        assert loaded == []

    def test_fit_and_summarize_load_no_numpy_ma(self, tmp_path):
        # np.quantile imports numpy.ma through np.unique; the summary's
        # quantiles are numpy's linear method without that call
        sim = tmp_path / "sim"
        run_simulate(sim)
        main(["amputate", "--data", str(sim / "dataset.csv"),
              "--seed", "5", "--out-dir", str(tmp_path / "amp")])
        weights = ["--weights", str(sim / "weights.csv")]
        fit = tmp_path / "fit"
        after = _modules_after_each([
            ["fit", "--data", str(sim / "dataset.csv"), *weights,
             "--kind", "yj-sem-gau", "--max-iters", "2", "--n-draws", "5",
             "--out-dir", str(fit)],
            ["fit", "--data", str(tmp_path / "amp" / "amputated.csv"),
             *weights, "--kind", "yj-sem-gau", "--method", "hvb",
             "--max-iters", "2", "--n-draws", "5",
             "--out-dir", str(tmp_path / "hvb")],
            ["summarize", "--samples", str(fit / "samples.csv"),
             "--out-dir", str(tmp_path / "sum")]],
            watched=("numpy.ma",))
        assert after == [[], [], []]

    def test_hvb_fit_loads_no_scipy(self, tmp_path):
        # the MH conditionals are banded Cholesky factors from scipy's LAPACK
        # wrapper, loaded by file; their band maps and the initial fit's
        # restricted W are built on numpy
        sim = tmp_path / "sim"
        run_simulate(sim)
        amp = tmp_path / "amp"
        main(["amputate", "--data", str(sim / "dataset.csv"),
              "--seed", "5", "--out-dir", str(amp)])
        (loaded,) = _modules_after_each([
            ["fit", "--data", str(amp / "amputated.csv"),
             "--weights", str(sim / "weights.csv"), "--kind", "yj-sem-gau",
             "--method", "hvb", "--kernel", "nob", "--max-iters", "2",
             "--n-draws", "5", "--out-dir", str(tmp_path / "fit")]])
        assert loaded == []

    def test_every_export_resolves_lazily(self):
        import semvb
        for name in semvb.__all__:
            if name == "__version__":
                continue
            obj = getattr(semvb, name)
            assert obj.__module__ == f"semvb.{semvb._EXPORTS[name]}", name
