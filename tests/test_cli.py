"""Command-line pipeline: artifacts, determinism, and exit codes."""

import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from semvb import io
from semvb.cli import main


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


class TestExitCodes:
    def test_usage_errors(self, tmp_path, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["simulate", "--kind", "sar"]) == 2
        assert main(["fit", "--data", "x.csv"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("simulate", "amputate", "fit", "dic", "summarize"):
            assert cmd in out

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
# and their submodules. A cap, when given, replaces spatial._EIGEN_MAX_N
# before the first command runs.
_MODULES_AFTER_EACH = """
import json, sys
argvs, watched, cap = json.loads(sys.argv[1])
if cap is not None:
    import semvb.spatial
    semvb.spatial._EIGEN_MAX_N = cap
from semvb.cli import main
for argv in argvs:
    assert main(argv) == 0, argv
    print(json.dumps(sorted(m for m in sys.modules if any(
        m == w or m.startswith(w + ".") for w in watched))))
"""


def _modules_after_each(argvs, watched=("scipy",), cap=None):
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_EACH,
         json.dumps([argvs, watched, cap])],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("[")]


class TestImports:
    """Each command loads only the modules it runs.

    These run in a subprocess, because the test process has scipy loaded.
    """

    def test_amputate_loads_no_scipy(self, tmp_path):
        sim = tmp_path / "sim"
        run_simulate(sim)
        (loaded,) = _modules_after_each([
            ["amputate", "--data", str(sim / "dataset.csv"),
             "--out-dir", str(tmp_path / "amp")]])
        assert loaded == []

    def test_fit_and_dic_skip_scipy_special(self, tmp_path):
        # below the eigen cap a vb fit and its DIC factor nothing, so they
        # load no scipy module at all, nor the LAPACK wrapper
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
            watched=("scipy", "semvb._flapack"))
        assert after == [[], []]

    def test_past_cap_probe_and_dic_load_no_scipy(self, tmp_path):
        # past the cap, on W with a symmetrizer, the log-dets of the rho-grid
        # initialization and of DIC are banded Cholesky factors of an RCM
        # band; only a fit that iterates needs the sparse LU of the trace
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
            watched=("scipy", "semvb._flapack"), cap=0)
        assert after[0] == after[1] == ["semvb._flapack"]
        assert "scipy.sparse.linalg" in after[2]

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
             "--out-dir", str(tmp_path / "sum")]])
        assert loaded == []

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
