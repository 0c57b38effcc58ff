"""CSV and key=value serialization for the pipeline artifacts.

Writers emit canonical text: shortest round-tripping float representations,
LF line endings, weight entries sorted by coordinate. Identical inputs
therefore produce byte-identical files, and write -> read -> write is a
fixed point. The readers import the class they build when they run, so a
command that reads and writes datasets only loads numpy. The key=value
reader and writer come from `keyvalues`, which needs no numpy.
"""

from __future__ import annotations

import csv
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataFormatError
from .keyvalues import read_keyvalues, write_manifest

if TYPE_CHECKING:
    from .model_select import PosteriorSamples
    from .spatial import SpatialWeights
    from .variational import VariationalParams

__all__ = [
    "write_dataset", "read_dataset", "write_weights", "read_weights",
    "write_trace", "read_trace", "write_acceptance", "read_acceptance",
    "write_dic_report", "read_dic_report", "write_sidecar", "read_sidecar",
    "write_manifest", "read_keyvalues", "samples_table", "write_samples",
    "read_samples",
    "write_lambda", "read_lambda", "write_summary", "read_summary",
]


def _fmt(x) -> str:
    return repr(float(x))


def _parse_number(text: str, path, what: str, number=float):
    """number(text); a cell it refuses is a DataFormatError naming path."""
    try:
        return number(text)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad {what} value {text!r}") from exc


def _open_writer(path):
    f = open(path, "w", newline="")
    return f, csv.writer(f, lineterminator="\n")


def _read_rows(path, expected_header: list[str] | None = None):
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    if expected_header is not None and rows[0] != expected_header:
        raise DataFormatError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"got {','.join(rows[0])!r}")
    return rows


def write_dataset(path, y: np.ndarray, X: np.ndarray,
                  Xstar: np.ndarray | None = None) -> None:
    """Rows y,x1..xr[,xs1..xsq]; missing responses become empty cells.

    X and Xstar carry leading intercept columns, which are dropped on write
    and restored on read.
    """
    y = np.asarray(y, dtype=float)
    covs = np.asarray(X, dtype=float)[:, 1:]
    star = (np.asarray(Xstar, dtype=float)[:, 1:]
            if Xstar is not None else None)
    f, w = _open_writer(path)
    with f:
        header = ["y"] + [f"x{j + 1}" for j in range(covs.shape[1])]
        if star is not None:
            header += [f"xs{j + 1}" for j in range(star.shape[1])]
        w.writerow(header)
        for i in range(y.size):
            row = ["" if np.isnan(y[i]) else _fmt(y[i])]
            row += [_fmt(v) for v in covs[i]]
            if star is not None:
                row += [_fmt(v) for v in star[i]]
            w.writerow(row)


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (y, X, Xstar) with intercept columns prepended.

    An empty y cell is a missing response (NaN in y); every other cell must
    hold a finite number, so `inf`, `-inf` and `nan` raise DataFormatError.
    """
    rows = _read_rows(path)
    header = rows[0]
    if not header or header[0] != "y":
        raise DataFormatError(f"{path}: first column must be y")
    n_x = sum(1 for h in header if h.startswith("x") and not h.startswith("xs"))
    n_s = sum(1 for h in header if h.startswith("xs"))
    want = ["y"] + [f"x{j + 1}" for j in range(n_x)] \
        + [f"xs{j + 1}" for j in range(n_s)]
    if header != want:
        raise DataFormatError(f"{path}: unexpected columns {header!r}")
    body = rows[1:]
    n = len(body)
    y = np.empty(n)
    X = np.ones((n, n_x + 1))
    Xs = np.ones((n, n_s + 1)) if n_s else None
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {i + 2} has {len(row)} cells")
        y[i] = np.nan if row[0] == "" else _parse_number(row[0], path, "y")
        for j in range(n_x):
            X[i, j + 1] = _parse_number(row[1 + j], path, f"x{j + 1}")
        for j in range(n_s):
            Xs[i, j + 1] = _parse_number(row[1 + n_x + j], path, f"xs{j + 1}")
    given = np.array([row[0] != "" for row in body], dtype=bool)
    cells = [np.where(given, y, 0.0)[:, None], X[:, 1:]]
    if n_s:
        cells.append(Xs[:, 1:])
    bad = np.argwhere(~np.isfinite(np.hstack(cells)))
    if bad.size:
        i, j = bad[0]
        raise DataFormatError(f"{path}: row {i + 2}, column {header[j]}: "
                              f"non-finite value {body[i][j]!r}")
    return y, X, Xs


def write_weights(path, W: SpatialWeights) -> None:
    """Coordinate triples i,j,w sorted by (i, j), preceded by a size line."""
    order = np.lexsort((W.cols, W.rows))
    with open(path, "w", newline="") as f:
        f.write(f"# n={W.n} row_standardized={int(W.row_standardized)}\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["i", "j", "w"])
        for k in order:
            w.writerow([int(W.rows[k]), int(W.cols[k]), _fmt(W.weights[k])])


def read_weights(path) -> SpatialWeights:
    from .spatial import SpatialWeights

    try:
        with open(path, newline="") as f:
            head = f.readline().strip()
            rows = list(csv.reader(f))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    fields = dict(part.split("=", 1) for part in head.lstrip("# ").split()
                  if "=" in part)
    if not head.startswith("#") or "n" not in fields:
        raise DataFormatError(f"{path}: missing '# n=...' size line")
    if not rows or rows[0] != ["i", "j", "w"]:
        raise DataFormatError(f"{path}: expected header i,j,w")
    body = rows[1:]
    ii = np.empty(len(body), dtype=np.int64)
    jj = np.empty(len(body), dtype=np.int64)
    ww = np.empty(len(body))
    for k, row in enumerate(body):
        if len(row) != 3:
            raise DataFormatError(f"{path}: row {k + 3} is not a triple")
        try:
            ii[k], jj[k] = int(row[0]), int(row[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad index in row {k + 3}") from exc
        ww[k] = _parse_number(row[2], path, "weight")
    return SpatialWeights(
        n=_parse_number(fields["n"], path, "n", int), rows=ii, cols=jj,
        weights=ww, row_standardized=bool(_parse_number(
            fields.get("row_standardized", "0"), path, "row_standardized",
            int)))


def write_trace(path, trace_iters: np.ndarray, mu_trace: np.ndarray,
                names: list[str]) -> None:
    """Long-format rows iter,param_name,value."""
    f, w = _open_writer(path)
    with f:
        w.writerow(["iter", "param_name", "value"])
        for k, it in enumerate(trace_iters):
            for j, name in enumerate(names):
                w.writerow([int(it), name, _fmt(mu_trace[k, j])])


def read_trace(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Returns (iters, names, values) with values shaped (len(iters), len(names))."""
    rows = _read_rows(path, ["iter", "param_name", "value"])
    iters: list[int] = []
    names: list[str] = []
    cells: dict[tuple[int, str], float] = {}
    for k, row in enumerate(rows[1:]):
        if len(row) != 3:
            raise DataFormatError(f"{path}: row {k + 2} is not a triple")
        try:
            it = int(row[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad iter in row {k + 2}") from exc
        if not iters or it != iters[-1]:
            iters.append(it)
        if row[1] not in names:
            names.append(row[1])
        cells[(it, row[1])] = _parse_number(row[2], path, "trace")
    values = np.array([[cells[(it, nm)] for nm in names] for it in iters])
    return np.asarray(iters, dtype=int), names, values


def write_acceptance(path, acceptance: np.ndarray) -> None:
    f, w = _open_writer(path)
    with f:
        w.writerow(["iter", "block", "accepts", "proposals"])
        for row in np.asarray(acceptance, dtype=int):
            w.writerow([int(v) for v in row])


def read_acceptance(path) -> np.ndarray:
    rows = _read_rows(path, ["iter", "block", "accepts", "proposals"])
    out = np.empty((len(rows) - 1, 4), dtype=int)
    for k, row in enumerate(rows[1:]):
        try:
            out[k] = [int(v) for v in row]
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad count in row {k + 2}") from exc
    return out


def write_dic_report(path, rows) -> None:
    """rows of (model, dic1, dic2, dic5, n_draws); None prints empty."""
    f, w = _open_writer(path)
    with f:
        w.writerow(["model", "dic1", "dic2", "dic5", "n_draws"])
        for model, d1, d2, d5, nd in rows:
            w.writerow([model,
                        "" if d1 is None else _fmt(d1),
                        "" if d2 is None else _fmt(d2),
                        "" if d5 is None else _fmt(d5),
                        int(nd)])


def read_dic_report(path):
    rows = _read_rows(path, ["model", "dic1", "dic2", "dic5", "n_draws"])
    out = []
    for row in rows[1:]:
        if len(row) != 5:
            raise DataFormatError(f"{path}: malformed report row {row!r}")
        d = [None if c == "" else _parse_number(c, path, "dic")
             for c in row[1:4]]
        out.append((row[0], d[0], d[1], d[2], int(row[4])))
    return out


def write_sidecar(path, missing: np.ndarray, true_y: np.ndarray) -> None:
    """Ground-truth record i,m,true_y for every site of an amputated set."""
    missing = np.asarray(missing, dtype=bool)
    f, w = _open_writer(path)
    with f:
        w.writerow(["i", "m", "true_y"])
        for i in range(missing.size):
            w.writerow([i, int(missing[i]), _fmt(true_y[i])])


def read_sidecar(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_rows(path, ["i", "m", "true_y"])
    n = len(rows) - 1
    missing = np.empty(n, dtype=bool)
    true_y = np.empty(n)
    for k, row in enumerate(rows[1:]):
        if len(row) != 3 or int(row[0]) != k:
            raise DataFormatError(f"{path}: sidecar rows must cover 0..n-1")
        missing[k] = bool(int(row[1]))
        true_y[k] = _parse_number(row[2], path, "true_y")
    return missing, true_y


def samples_table(samples: PosteriorSamples,
                  unobserved_idx: np.ndarray | None = None
                  ) -> tuple[list[str], np.ndarray]:
    """Column names and the draws as columns phi | psi | y_u, one row per
    draw; unobserved_idx names the y_u columns yu_<site>."""
    header = list(samples.phi_names)
    blocks = [samples.phi]
    if samples.psi is not None:
        q = samples.psi.shape[1] - 1
        header += [f"psi{j}" for j in range(q)] + ["psi_y"]
        blocks.append(samples.psi)
    if samples.y_u is not None:
        if unobserved_idx is None or len(unobserved_idx) != samples.y_u.shape[1]:
            raise DataFormatError(
                "unobserved_idx must name every y_u column")
        header += [f"yu_{int(i)}" for i in unobserved_idx]
        blocks.append(samples.y_u)
    return header, np.hstack(blocks)


def write_samples(path, samples: PosteriorSamples,
                  unobserved_idx: np.ndarray | None = None) -> None:
    """Posterior draws, one row per draw; y_u columns keyed by site index."""
    header, mat = samples_table(samples, unobserved_idx)
    f, w = _open_writer(path)
    with f:
        w.writerow(header)
        for row in mat:
            w.writerow([_fmt(v) for v in row])


def read_samples(path) -> tuple[PosteriorSamples, np.ndarray | None]:
    from .model_select import PosteriorSamples

    rows = _read_rows(path)
    header = rows[0]
    i_psi = next((k for k, h in enumerate(header)
                  if h.startswith("psi")), len(header))
    i_yu = next((k for k, h in enumerate(header)
                 if h.startswith("yu_")), len(header))
    if i_yu < i_psi:
        raise DataFormatError(f"{path}: psi columns must precede y_u columns")
    mat = np.empty((len(rows) - 1, len(header)))
    for k, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {k + 2} has {len(row)} cells")
        for j, cell in enumerate(row):
            mat[k, j] = _parse_number(cell, path, header[j])
    phi = mat[:, :i_psi]
    psi = mat[:, i_psi:i_yu] if i_psi < i_yu else None
    y_u = mat[:, i_yu:] if i_yu < len(header) else None
    if mat.shape[0] == 0:
        raise DataFormatError(f"{path}: no sample rows")
    idx = (np.array([_parse_number(h[3:], path, "yu_ site", int)
                     for h in header[i_yu:]], dtype=np.int64)
           if y_u is not None else None)
    return PosteriorSamples(phi=phi, phi_names=tuple(header[:i_psi]),
                            psi=psi, y_u=y_u), idx


def write_lambda(path, lam: VariationalParams) -> None:
    """Rows part,i,j,value for mu (j empty), B lower triangle, and d."""
    f, w = _open_writer(path)
    with f:
        w.writerow(["part", "i", "j", "value"])
        for i, v in enumerate(lam.mu):
            w.writerow(["mu", i, "", _fmt(v)])
        ti, tj = lam.tril()
        for i, j in zip(ti, tj):
            w.writerow(["B", int(i), int(j), _fmt(lam.B[i, j])])
        for i, v in enumerate(lam.d):
            w.writerow(["d", i, "", _fmt(v)])


def read_lambda(path) -> VariationalParams:
    from .variational import VariationalParams

    rows = _read_rows(path, ["part", "i", "j", "value"])
    mu, d = [], []
    b_cells: dict[tuple[int, int], float] = {}
    for row in rows[1:]:
        if len(row) != 4:
            raise DataFormatError(f"{path}: malformed lambda row {row!r}")
        part, i, j, val = row
        value = _parse_number(val, path, "lambda")
        if part == "mu":
            mu.append(value)
        elif part == "d":
            d.append(value)
        elif part == "B":
            b_cells[(int(i), int(j))] = value
        else:
            raise DataFormatError(f"{path}: unknown part {part!r}")
    s = len(mu)
    if s == 0 or len(d) != s:
        raise DataFormatError(f"{path}: mu and d lengths disagree")
    p = 1 + max(j for _, j in b_cells) if b_cells else 1
    B = np.zeros((s, p))
    for (i, j), value in b_cells.items():
        B[i, j] = value
    return VariationalParams(mu=np.asarray(mu), B=B, d=np.asarray(d))


def write_summary(path, names: list[str], draws: np.ndarray) -> None:
    """Rows param,mean,q025,q975 from column-aligned posterior draws."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[1] != len(names):
        raise DataFormatError("summary names do not match draw columns")
    if draws.shape[0] == 0:
        raise DataFormatError("a summary needs at least one draw")
    f, w = _open_writer(path)
    with f:
        w.writerow(["param", "mean", "q025", "q975"])
        lo, hi = np.quantile(draws, [0.025, 0.975], axis=0)
        means = draws.mean(axis=0)
        for j, name in enumerate(names):
            w.writerow([name, _fmt(means[j]), _fmt(lo[j]), _fmt(hi[j])])


def read_summary(path):
    rows = _read_rows(path, ["param", "mean", "q025", "q975"])
    out = []
    for row in rows[1:]:
        if len(row) != 4:
            raise DataFormatError(f"{path}: malformed summary row {row!r}")
        out.append((row[0], *(_parse_number(c, path, "summary")
                              for c in row[1:])))
    return out
