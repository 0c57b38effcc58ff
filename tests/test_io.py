"""Artifact serialization: byte-identical round trips and format errors."""

import dataclasses
import filecmp
import tracemalloc

import numpy as np
import pytest

from semvb import io
from semvb.errors import DataFormatError
from semvb.model_select import PosteriorSamples
from semvb.spatial import SpatialWeights, build_rook_lattice
from semvb.variational import VariationalParams

import oracles
from oracles import csr


def roundtrip_bytes(tmp_path, write_fn, read_fn, rebuild_fn):
    """write -> read -> write must reproduce the first file exactly."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_fn(a)
    loaded = read_fn(a)
    rebuild_fn(b, loaded)
    assert filecmp.cmp(a, b, shallow=False)
    return loaded


class TestDataset:
    def test_roundtrip_complete(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 12
        y = rng.normal(size=n)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        loaded = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_dataset(p, y, X),
            io.read_dataset,
            lambda p, t: io.write_dataset(p, t[0], t[1], t[2]))
        y2, X2, Xs2 = loaded
        np.testing.assert_array_equal(y2, y)
        np.testing.assert_array_equal(X2, X)
        assert Xs2 is None

    def test_roundtrip_missing_and_xstar(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 9
        y = rng.normal(size=n)
        y[[2, 5]] = np.nan
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        Xs = np.column_stack([np.ones(n), rng.lognormal(size=n)])
        loaded = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_dataset(p, y, X, Xs),
            io.read_dataset,
            lambda p, t: io.write_dataset(p, t[0], t[1], t[2]))
        y2, X2, Xs2 = loaded
        assert np.isnan(y2[2]) and np.isnan(y2[5])
        np.testing.assert_array_equal(y2[[0, 1, 3, 4, 6, 7, 8]],
                                      y[[0, 1, 3, 4, 6, 7, 8]])
        np.testing.assert_array_equal(Xs2, Xs)

    def test_intercept_only_design(self, tmp_path):
        y = np.array([1.0, 2.0])
        X = np.ones((2, 1))
        p = tmp_path / "d.csv"
        io.write_dataset(p, y, X)
        assert p.read_text() == "y\n1.0\n2.0\n"
        y2, X2, Xs2 = io.read_dataset(p)
        np.testing.assert_array_equal(X2, X)
        assert Xs2 is None

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("z,x1\n1.0,2.0\n")
        with pytest.raises(DataFormatError):
            io.read_dataset(p)

    def test_shuffled_columns_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,xs1,x1\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError):
            io.read_dataset(p)

    def test_bad_float(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,x1\n1.0,oops\n")
        with pytest.raises(DataFormatError):
            io.read_dataset(p)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "NaN", "1e999"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_nonfinite_cell_rejected(self, tmp_path, text, column):
        cells = ["1.0", "2.0", "3.0"]
        cells[column] = text
        p = tmp_path / "d.csv"
        p.write_text("y,x1,xs1\n0.5,1.5,2.5\n" + ",".join(cells) + "\n")
        name = ["y", "x1", "xs1"][column]
        with pytest.raises(DataFormatError,
                           match=f"row 3, column {name}: non-finite"):
            io.read_dataset(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,x1\n1.0\n")
        with pytest.raises(DataFormatError):
            io.read_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            io.read_dataset(p)


class TestWeights:
    def test_roundtrip_lattice(self, tmp_path):
        W = build_rook_lattice(3, 4, row_standardize=True)
        W2 = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_weights(p, W),
            io.read_weights,
            io.write_weights)
        assert W2.n == W.n and W2.row_standardized
        np.testing.assert_allclose(csr(W2).toarray(), csr(W).toarray())

    def test_roundtrip_raw_weights(self, tmp_path):
        W = build_rook_lattice(2, 3, row_standardize=False)
        W2 = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_weights(p, W),
            io.read_weights,
            io.write_weights)
        assert not W2.row_standardized
        np.testing.assert_array_equal(csr(W2).toarray(), csr(W).toarray())

    def test_canonical_entry_order(self, tmp_path):
        # writer sorts by (i, j) regardless of construction order
        W = SpatialWeights(n=3, rows=np.array([2, 0, 1]),
                           cols=np.array([1, 1, 0]),
                           weights=np.array([1.0, 1.0, 1.0]))
        p = tmp_path / "w.csv"
        io.write_weights(p, W)
        lines = p.read_text().splitlines()
        assert lines[2:] == ["0,1,1.0", "1,0,1.0", "2,1,1.0"]

    def test_missing_size_line(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("i,j,w\n0,1,1.0\n")
        with pytest.raises(DataFormatError):
            io.read_weights(p)

    def test_bad_index(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("# n=2 row_standardized=0\ni,j,w\na,1,1.0\n")
        with pytest.raises(DataFormatError):
            io.read_weights(p)

    @pytest.mark.parametrize("head", ["# n=abc row_standardized=0",
                                      "# n=2 row_standardized=yes"])
    def test_bad_size_line_field(self, tmp_path, head):
        p = tmp_path / "w.csv"
        p.write_text(f"{head}\ni,j,w\n0,1,1.0\n")
        with pytest.raises(DataFormatError, match="w.csv: bad"):
            io.read_weights(p)


class TestTrace:
    def test_roundtrip(self, tmp_path):
        iters = np.array([0, 100, 250])
        names = ["beta0", "omega", "rho_z"]
        values = np.arange(9, dtype=float).reshape(3, 3) / 7.0
        it2, names2, values2 = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_trace(p, iters, values, names),
            io.read_trace,
            lambda p, t: io.write_trace(p, t[0], t[2], t[1]))
        np.testing.assert_array_equal(it2, iters)
        assert names2 == names
        np.testing.assert_array_equal(values2, values)

    def test_bad_iter(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("iter,param_name,value\nx,beta0,1.0\n")
        with pytest.raises(DataFormatError):
            io.read_trace(p)

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("iter,param_name,value\n0,a,1.0\n0,b,2.0\n1,a,3.0\n")
        with pytest.raises(DataFormatError, match="t.csv: no value"):
            io.read_trace(p)


class TestAcceptance:
    def test_roundtrip(self, tmp_path):
        acc = np.array([[1, 0, 3, 10], [2, 0, 10, 10], [3, 1, 0, 10]])
        acc2 = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_acceptance(p, acc),
            io.read_acceptance,
            io.write_acceptance)
        np.testing.assert_array_equal(acc2, acc)

    def test_non_integer_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("iter,block,accepts,proposals\n1,0,2.5,10\n")
        with pytest.raises(DataFormatError):
            io.read_acceptance(p)


class TestDicReport:
    def test_roundtrip_with_none_cells(self, tmp_path):
        rows = [("sem-gau", 101.5, 99.25, None, 500),
                ("yj-sem-t", None, None, 88.125, 500)]
        rows2 = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_dic_report(p, rows),
            io.read_dic_report,
            io.write_dic_report)
        assert rows2 == rows

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("model,dic1\nsem-gau,1.0\n")
        with pytest.raises(DataFormatError):
            io.read_dic_report(p)


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        missing = np.array([False, True, True, False])
        true_y = np.array([0.5, -1.25, 3.0, 0.0])
        m2, y2 = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_sidecar(p, missing, true_y),
            io.read_sidecar,
            lambda p, t: io.write_sidecar(p, t[0], t[1]))
        np.testing.assert_array_equal(m2, missing)
        np.testing.assert_array_equal(y2, true_y)

    def test_gap_in_sites_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("i,m,true_y\n0,0,1.0\n2,1,2.0\n")
        with pytest.raises(DataFormatError):
            io.read_sidecar(p)

    @pytest.mark.parametrize("flag", ["2", "-1"])
    def test_flag_other_than_0_or_1_rejected(self, tmp_path, flag):
        # such flags loaded as missing before
        p = tmp_path / "s.csv"
        p.write_text(f"i,m,true_y\n0,0,0.5\n1,{flag},0.25\n")
        with pytest.raises(DataFormatError,
                           match=f"s.csv: row 3, column m: {flag} is not"):
            io.read_sidecar(p)


class TestKeyValues:
    def test_manifest_roundtrip(self, tmp_path):
        entries = {"command": "simulate", "seed": 7, "rho": repr(0.8)}
        p = tmp_path / "m.txt"
        io.write_manifest(p, entries)
        assert io.read_keyvalues(p) == {
            "command": "simulate", "seed": "7", "rho": "0.8"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\n\nseed=3\n  kind = sem-t \n")
        assert io.read_keyvalues(p) == {"seed": "3", "kind": "sem-t"}

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("seed\n")
        with pytest.raises(DataFormatError):
            io.read_keyvalues(p)


class TestSamples:
    def make(self, with_psi, with_yu, n_draws=6, seed=0):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(n_draws, 4))
        names = ("beta0", "beta1", "sigma2", "rho")
        psi = rng.normal(size=(n_draws, 3)) if with_psi else None
        y_u = rng.normal(size=(n_draws, 2)) if with_yu else None
        return PosteriorSamples(phi=phi, phi_names=names, psi=psi, y_u=y_u)

    def test_roundtrip_phi_only(self, tmp_path):
        samples = self.make(False, False)
        loaded, idx = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_samples(p, samples),
            io.read_samples,
            lambda p, t: io.write_samples(p, t[0], unobserved_idx=t[1]))
        np.testing.assert_array_equal(loaded.phi, samples.phi)
        assert loaded.phi_names == samples.phi_names
        assert loaded.psi is None and loaded.y_u is None and idx is None

    def test_roundtrip_full_blocks(self, tmp_path):
        samples = self.make(True, True)
        unobserved = np.array([3, 11], dtype=np.int64)
        loaded, idx = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_samples(p, samples, unobserved_idx=unobserved),
            io.read_samples,
            lambda p, t: io.write_samples(p, t[0], unobserved_idx=t[1]))
        np.testing.assert_array_equal(loaded.psi, samples.psi)
        np.testing.assert_array_equal(loaded.y_u, samples.y_u)
        np.testing.assert_array_equal(idx, unobserved)

    def test_yu_requires_site_indices(self, tmp_path):
        samples = self.make(True, True)
        with pytest.raises(DataFormatError):
            io.write_samples(tmp_path / "s.csv", samples)
        with pytest.raises(DataFormatError):
            io.write_samples(tmp_path / "s.csv", samples,
                             unobserved_idx=np.array([1]))

    def test_yu_before_psi_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("beta0,yu_2,psi_y\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError):
            io.read_samples(p)

    def test_no_rows_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("beta0,sigma2\n")
        with pytest.raises(DataFormatError):
            io.read_samples(p)

    def test_yu_column_without_site_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("beta0,psi_y,yu_x\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError, match="s.csv: bad yu_ site"):
            io.read_samples(p)


class TestLambda:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        s, p_fac = 6, 3
        B = np.zeros((s, p_fac))
        ti, tj = np.tril_indices(s, 0, p_fac)
        B[ti, tj] = rng.normal(size=ti.size)
        lam = VariationalParams(mu=rng.normal(size=s), B=B,
                                d=rng.normal(size=s))
        lam2 = roundtrip_bytes(
            tmp_path,
            lambda p: io.write_lambda(p, lam),
            io.read_lambda,
            io.write_lambda)
        np.testing.assert_array_equal(lam2.mu, lam.mu)
        np.testing.assert_array_equal(lam2.B, lam.B)
        np.testing.assert_array_equal(lam2.d, lam.d)
        assert lam2.p == p_fac

    def test_unknown_part_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("part,i,j,value\nQ,0,,1.0\n")
        with pytest.raises(DataFormatError):
            io.read_lambda(p)

    def test_length_mismatch_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("part,i,j,value\nmu,0,,1.0\nd,0,,1.0\nd,1,,2.0\n")
        with pytest.raises(DataFormatError):
            io.read_lambda(p)

    @pytest.mark.parametrize("row", [
        "B,x,0,0.5",      # a malformed index (a bare ValueError before)
        "B,2,0,0.5",      # i past the last row of B (an IndexError before)
        "B,-1,0,0.5",     # i = -1 (silently loaded into B's last row before)
        "B,1,-1,0.5",
        "B,0,1,0.5",      # j > i: the strict upper triangle
        "B,1,,0.5",       # a B row needs j
        "mu,1,0,0.5",     # mu and d rows leave j empty
    ])
    def test_bad_b_cell_rejected(self, tmp_path, row):
        p = tmp_path / "l.csv"
        p.write_text("part,i,j,value\nmu,0,,1.0\nB,0,0,0.5\n" + row
                     + "\nd,0,,1.0\nd,1,,1.0\n" + ("" if row.startswith(
                         "mu") else "mu,1,,2.0\n"))
        with pytest.raises(DataFormatError, match="l.csv: row 4"):
            io.read_lambda(p)

    @pytest.mark.parametrize("rows, bad_row", [
        # mu[7], mu[3] loaded as mu[0], mu[1] before
        (["mu,7,,1.0", "mu,3,,2.0", "d,0,,1.0", "d,1,,1.0"], 2),
        (["mu,1,,1.0", "mu,0,,2.0", "d,0,,1.0", "d,1,,1.0"], 2),
        (["mu,0,,1.0", "mu,1,,2.0", "d,9,,1.0", "d,9,,1.0"], 4),
        (["mu,0,,1.0", "mu,1,,2.0", "d,0,,1.0", "d,0,,1.0"], 5),
        (["mu,0,,1.0", "mu,0,,2.0", "d,0,,1.0", "d,1,,1.0"], 3),
    ])
    def test_mu_and_d_indices_must_run_in_order(self, tmp_path, rows,
                                                bad_row):
        p = tmp_path / "l.csv"
        p.write_text("part,i,j,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=f"l.csv: row {bad_row}: "):
            io.read_lambda(p)

    def test_interleaved_parts_read(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("part,i,j,value\nd,0,,3.0\nmu,0,,1.0\nB,1,0,0.5\n"
                     "d,1,,4.0\nmu,1,,2.0\n")
        lam = io.read_lambda(p)
        np.testing.assert_array_equal(lam.mu, [1.0, 2.0])
        np.testing.assert_array_equal(lam.d, [3.0, 4.0])
        np.testing.assert_array_equal(lam.B, [[0.0], [0.5]])


# One valid file per CSV reader, with the (line, cell) of an int cell and of
# a float cell; None where the artifact has no column of that type.
READERS = {
    "dataset": (io.read_dataset, "y,x1,xs1\n1.0,2.0,3.0\n", None, (1, 1)),
    "weights": (io.read_weights,
                "# n=2 row_standardized=0\ni,j,w\n0,1,1.0\n", (2, 1), (2, 2)),
    "trace": (io.read_trace, "iter,param_name,value\n0,beta0,1.0\n",
              (1, 0), (1, 2)),
    "acceptance": (io.read_acceptance,
                   "iter,block,accepts,proposals\n1,0,2,10\n", (1, 2), None),
    "dic": (io.read_dic_report,
            "model,dic1,dic2,dic5,n_draws\nsem-gau,1.0,2.0,,5\n",
            (1, 4), (1, 2)),
    "sidecar": (io.read_sidecar, "i,m,true_y\n0,1,0.5\n", (1, 1), (1, 2)),
    "samples": (io.read_samples, "beta0,psi_y,yu_3\n1.0,2.0,3.0\n",
                None, (1, 1)),
    "lambda": (io.read_lambda,
               "part,i,j,value\nmu,0,,1.0\nB,0,0,0.5\nd,0,,1.0\n",
               (2, 2), (3, 3)),
    "summary": (io.read_summary, "param,mean,q025,q975\nrho,0.5,0.1,0.9\n",
                None, (1, 3)),
}
# A case ending in -past-chunk puts a chunk's worth of valid rows before the
# faulty one, so that the fault lies past the first chunk.
CODEC_CASES = [(name, case) for name, (_, _, at_int, at_float)
               in READERS.items()
               for case, at in (("int", at_int), ("float", at_float),
                                ("overflow", at_int), ("ragged", 1),
                                ("header", 1), ("int-past-chunk", at_int),
                                ("float-past-chunk", at_float),
                                ("ragged-past-chunk", 1))
               if at is not None]
BAD_CELL = {"int": "1.5", "float": "oops", "overflow": "99999999999999999999"}


class TestCodec:
    @pytest.mark.parametrize("name", READERS)
    def test_valid_file_reads(self, tmp_path, name):
        read, text, _, _ = READERS[name]
        p = tmp_path / f"{name}.csv"
        p.write_text(text)
        read(p)

    @pytest.mark.parametrize("name,case", CODEC_CASES)
    def test_malformed_file_named(self, tmp_path, name, case):
        read, text, at_int, at_float = READERS[name]
        lines = [line.split(",") for line in text.splitlines()]
        header_line = 1 if name == "weights" else 0
        case, past_chunk, _ = case.partition("-past-chunk")
        pad = io._CHUNK_CELLS if past_chunk else 0
        lines[header_line + 1:header_line + 1] = [
            list(lines[header_line + 1]) for _ in range(pad)]
        at_int, at_float = (at and (at[0] + pad, at[1])
                            for at in (at_int, at_float))
        if case in BAD_CELL:
            k, j = at_float if case == "float" else at_int
            lines[k][j] = BAD_CELL[case]
            column = lines[header_line][j]
            message = (f"row {k + 1}, column {column}: bad value "
                       f"{lines[k][j]!r}")
        elif case == "ragged":
            lines[-1].append("9")
            message = f"row {len(lines)} has"
        else:
            lines[header_line].reverse()
            message = "expected header" if name not in (
                "dataset", "samples") else ""
        p = tmp_path / f"{name}.csv"
        p.write_text("\n".join(",".join(cells) for cells in lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read(p)
        assert str(p) in str(err.value) and message in str(err.value)

    def test_returned_arrays_are_c_contiguous(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 7
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        Xs = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        io.write_dataset(tmp_path / "d.csv", rng.normal(size=n), X, Xs)
        _, X2, Xs2 = io.read_dataset(tmp_path / "d.csv")
        samples = PosteriorSamples(
            phi=rng.normal(size=(5, 2)), phi_names=("sigma2", "rho"),
            psi=rng.normal(size=(5, 2)), y_u=rng.normal(size=(5, 3)))
        io.write_samples(tmp_path / "s.csv", samples,
                         unobserved_idx=np.array([1, 4, 6]))
        loaded, _ = io.read_samples(tmp_path / "s.csv")
        for a in (X2, Xs2, loaded.phi, loaded.psi, loaded.y_u):
            assert a.flags.c_contiguous


def _artifact(name, m, rng):
    """(write(path), read) for a table of m rows of the named artifact."""
    if name in ("dataset", "dataset-y"):
        y = rng.normal(size=m)
        y[::3] = np.nan
        X = np.column_stack([np.ones(m), rng.normal(size=m)])
        Xs = np.column_stack([np.ones(m), rng.lognormal(size=m)])
        if name == "dataset-y":
            return (lambda p: io.write_dataset(p, y, X[:, :1]),
                    io.read_dataset)
        return lambda p: io.write_dataset(p, y, X, Xs), io.read_dataset
    if name == "weights":
        W = SpatialWeights(n=m + 1, rows=np.arange(m), cols=np.arange(m) + 1,
                           weights=rng.uniform(0.1, 1.0, size=m))
        return lambda p: io.write_weights(p, W), io.read_weights
    if name == "trace":
        values = rng.normal(size=(m, 1))
        return (lambda p: io.write_trace(p, 10 * np.arange(m), values,
                                         ["rho_z"]), io.read_trace)
    if name == "acceptance":
        acc = rng.integers(0, 50, size=(m, 4))
        return lambda p: io.write_acceptance(p, acc), io.read_acceptance
    if name == "dic":
        rows = [(f"m{k}", *(None if (k + c) % 3 == 0 else float(v)
                            for c, v in enumerate(rng.normal(size=3))), k)
                for k in range(m)]
        return lambda p: io.write_dic_report(p, rows), io.read_dic_report
    if name == "sidecar":
        missing, true_y = rng.random(m) < 0.4, rng.normal(size=m)
        return (lambda p: io.write_sidecar(p, missing, true_y),
                io.read_sidecar)
    if name == "samples":
        samples = PosteriorSamples(
            phi=rng.normal(size=(m, 2)), phi_names=("sigma2", "rho"),
            psi=rng.normal(size=(m, 2)), y_u=rng.normal(size=(m, 3)))
        return (lambda p: io.write_samples(p, samples, np.array([1, 4, 6])),
                io.read_samples)
    if name == "lambda":  # 3 max(m, 1) rows, with one factor
        s = max(m, 1)
        lam = VariationalParams(mu=rng.normal(size=s),
                                B=rng.normal(size=(s, 1)),
                                d=rng.normal(size=s))
        return lambda p: io.write_lambda(p, lam), io.read_lambda
    names = [f"p{k}" for k in range(m)]
    draws = rng.normal(size=(5, m))
    return lambda p: io.write_summary(p, names, draws), io.read_summary


ARTIFACTS = ["dataset", "dataset-y", "weights", "trace", "acceptance", "dic",
             "sidecar", "samples", "lambda", "summary"]
# 0 rows, 1 row, and one row less than, as many as and one more than a chunk
# holds at every chunk size and column count below, and many rows
ROW_COUNTS = [0, 1, 2, 3, 6, 7, 8, 50]


def _outcome(read, path):
    try:
        return read(path)
    except DataFormatError as exc:
        return exc


def _assert_same(new, old):
    """Equal values: arrays of one dtype and shape with equal bytes, the new
    ones C-ordered; floats with equal bits; None where old has None."""
    assert type(new) is type(old)
    if isinstance(new, np.ndarray):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.flags.c_contiguous
        assert new.tobytes() == old.tobytes()
    elif isinstance(new, (list, tuple)):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            _assert_same(a, b)
    elif dataclasses.is_dataclass(new):
        for f in dataclasses.fields(new):
            _assert_same(getattr(new, f.name), getattr(old, f.name))
    elif isinstance(new, float):
        assert new.hex() == old.hex()
    elif isinstance(new, Exception):
        assert str(new) == str(old)
    else:
        assert new == old


def _whole_table_codec(monkeypatch):
    """Route io through the codec that held whole tables (oracles), with
    its lists of float and int values as the arrays today's codec gives."""
    def parse(path, columns, rows, line=1):
        values = oracles.parse_whole(path, columns, list(rows), line)
        kinds = (io._cell_type(t) for _, t in columns)
        return [v if base is str or optional
                else np.array(v, dtype=io._dtype(base))
                for (base, optional), v in zip(kinds, values)]

    def write_table(path, columns, data, head=""):
        columns_data = [column for values in data for column in (
            values.T if isinstance(values, np.ndarray) and values.ndim == 2
            else [values])]
        oracles.write_table_whole(path, columns, columns_data, head)

    monkeypatch.setattr(io, "_read_rows",
                        lambda path: iter(oracles.read_rows_whole(path)))
    monkeypatch.setattr(io, "_parse", parse)
    monkeypatch.setattr(io, "_write_table", write_table)


class TestChunks:
    """The chunked codec against the whole-table one, at chunks of 1, 2 and
    7 cells: one or two rows of each table at a time."""

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_writers_match_whole_table_codec(self, tmp_path, monkeypatch,
                                             name, chunk):
        monkeypatch.setattr(io, "_CHUNK_CELLS", chunk)
        for m in ROW_COUNTS:
            write, _ = _artifact(name, m, np.random.default_rng(m))
            write(tmp_path / "chunked.csv")
            with monkeypatch.context() as whole:
                _whole_table_codec(whole)
                write(tmp_path / "whole.csv")
            assert filecmp.cmp(tmp_path / "chunked.csv",
                               tmp_path / "whole.csv", shallow=False), m

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_readers_match_whole_table_codec(self, tmp_path, monkeypatch,
                                             name, chunk):
        monkeypatch.setattr(io, "_CHUNK_CELLS", chunk)
        p = tmp_path / f"{name}.csv"
        for m in ROW_COUNTS:
            write, read = _artifact(name, m, np.random.default_rng(m))
            write(p)
            chunked = _outcome(read, p)
            with monkeypatch.context() as whole:
                _whole_table_codec(whole)
                _assert_same(chunked, _outcome(read, p))


    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_numeric_table_matches_csv_text(self, tmp_path, monkeypatch,
                                            chunk):
        # float and int cells skip csv; the text is csv's, edge values too
        monkeypatch.setattr(io, "_CHUNK_CELLS", chunk)
        floats = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320,
                           -5e-324, 1.7976931348623157e308, 0.1, -2.5e-7,
                           1e16, 123456789.125, 3.0, -1.0])
        ints = np.array([0, -1, 2**63 - 1, -2**63, 7, 10**15, -42, 1, 2, 3,
                         4, 5, 6, 8])
        mixed = np.column_stack([floats[::-1], -floats])
        columns = [("f", float), ("i", int), ("a", float), ("b", float)]
        for m in ROW_COUNTS:
            k = np.arange(m) % floats.size
            data = [floats[k], ints[k], mixed[k]]
            io._write_table(tmp_path / "fast.csv", columns, data, head="#h\n")
            oracles.write_table_whole(
                tmp_path / "csv.csv", columns,
                [floats[k], ints[k], mixed[k, 0], mixed[k, 1]], head="#h\n")
            assert filecmp.cmp(tmp_path / "fast.csv", tmp_path / "csv.csv",
                               shallow=False), m


class TestMemory:
    """A draws table of many chunks is streamed: reading it holds the result
    and about one copy of it, and writing it holds no copy at all."""

    N_DRAWS, N_COLUMNS = 2000, 300

    @pytest.mark.parametrize("direction", ["write", "read"])
    def test_samples_peak_is_bounded_by_the_matrix(self, tmp_path,
                                                   direction):
        rng = np.random.default_rng(0)
        n_yu = self.N_COLUMNS - 4 - 3
        samples = PosteriorSamples(
            phi=rng.normal(size=(self.N_DRAWS, 4)),
            phi_names=("beta0", "beta1", "sigma2", "rho"),
            psi=rng.normal(size=(self.N_DRAWS, 3)),
            y_u=rng.normal(size=(self.N_DRAWS, n_yu)))
        p = tmp_path / "samples.csv"
        if direction == "read":
            io.write_samples(p, samples, np.arange(n_yu))
        tracemalloc.start()
        try:
            if direction == "read":
                loaded, _ = io.read_samples(p)
            else:
                io.write_samples(p, samples, np.arange(n_yu))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = self.N_DRAWS * self.N_COLUMNS * 8
        assert peak <= 2.5 * matrix + 2**20, peak / matrix
        if direction == "read":
            for block in ("phi", "psi", "y_u"):
                np.testing.assert_array_equal(getattr(loaded, block),
                                              getattr(samples, block))


class TestSummary:
    def test_quantiles_match_numpy(self, tmp_path):
        rng = np.random.default_rng(11)
        draws = rng.normal(size=(500, 2))
        p = tmp_path / "s.csv"
        io.write_summary(p, ["a", "b"], draws)
        rows = io.read_summary(p)
        lo, hi = np.quantile(draws, [0.025, 0.975], axis=0)
        means = draws.mean(axis=0)
        for j, (name, mean, q025, q975) in enumerate(rows):
            assert mean == means[j]
            assert q025 == lo[j] and q975 == hi[j]

    def test_quantiles_are_numpys_bit_for_bit(self):
        # ties, signed zeros, infinities and a NaN column, at every small
        # draw count and two large ones
        rng = np.random.default_rng(5)
        q = np.array([0.025, 0.975])
        for n in [*range(1, 65), 1000, 10000]:
            draws = np.column_stack([
                rng.normal(size=n),
                rng.choice([-1.5, -0.0, 0.0, 2.0], size=n),
                rng.choice([-0.0, 0.0], size=n),
                rng.choice([-np.inf, 0.5, np.inf], size=n),
                np.where(np.arange(n) == n // 2, np.nan, rng.normal(size=n)),
                np.full(n, 3.25)])
            with np.errstate(invalid="ignore"):
                want = np.quantile(draws, q, axis=0)
                got = io._quantiles(draws, q)
            assert got.tobytes() == want.tobytes(), n

    def test_roundtrip(self, tmp_path):
        draws = np.arange(12, dtype=float).reshape(4, 3)
        names = ["u", "v", "w"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_summary(a, names, draws)
        rows = io.read_summary(a)
        with open(b, "w", newline="") as f:
            import csv
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["param", "mean", "q025", "q975"])
            for row in rows:
                w.writerow([row[0]] + [repr(v) for v in row[1:]])
        assert filecmp.cmp(a, b, shallow=False)

    def test_name_count_mismatch(self, tmp_path):
        with pytest.raises(DataFormatError):
            io.write_summary(tmp_path / "s.csv", ["a"], np.ones((3, 2)))

    def test_zero_draws_rejected_before_writing(self, tmp_path):
        p = tmp_path / "s.csv"
        with pytest.raises(DataFormatError):
            io.write_summary(p, ["a", "b"], np.empty((0, 2)))
        assert not p.exists()
