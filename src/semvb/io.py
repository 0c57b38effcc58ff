"""CSV and key=value serialization for the pipeline artifacts.

Writers emit canonical text: shortest round-tripping float representations,
LF line endings, weight entries sorted by coordinate. Identical inputs
therefore produce byte-identical files, and write -> read -> write is a
fixed point. The readers import the class they build when they run, so a
command that reads and writes datasets only loads numpy. The key=value
reader and writer come from `keyvalues`, which needs no numpy.

Each CSV artifact declares its columns once, as (name, type) pairs. A type
is float, int or str, or `float | None` / `int | None`, whose empty cell is
None. One codec formats and parses every cell a whole column at a time.
"""

from __future__ import annotations

import csv
from types import UnionType
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

_WEIGHTS = (("i", int), ("j", int), ("w", float))
_TRACE = (("iter", int), ("param_name", str), ("value", float))
_ACCEPTANCE = (("iter", int), ("block", int), ("accepts", int),
               ("proposals", int))
_DIC = (("model", str), ("dic1", float | None), ("dic2", float | None),
        ("dic5", float | None), ("n_draws", int))
_SIDECAR = (("i", int), ("m", int), ("true_y", float))
_LAMBDA = (("part", str), ("i", int), ("j", int | None), ("value", float))
_SUMMARY = (("param", str), ("mean", float), ("q025", float), ("q975", float))


def _cell_type(column_type) -> tuple[type, bool]:
    """(the type of a non-empty cell, whether an empty cell is None)."""
    if isinstance(column_type, UnionType):
        return column_type.__args__[0], True
    return column_type, False


def _column_cells(column_type, values) -> list:
    """values as the Python objects that csv writes as the column's cells.

    csv writes str(x), and str of a Python float is its repr: the shortest
    text that reads back to the same float. None is written empty.
    """
    base, optional = _cell_type(column_type)
    if optional:
        return [None if v is None else base(v) for v in values]
    if base is str:
        return list(values)
    return np.asarray(values, dtype=base).tolist()


def _write_table(path, columns, data, head: str = "") -> None:
    """Write one sequence of values per (name, type) column, after head."""
    cells = [_column_cells(t, values) for (_, t), values in zip(columns, data)]
    with open(path, "w", newline="") as f:
        f.write(head)
        w = csv.writer(f, lineterminator="\n")
        w.writerow([name for name, _ in columns])
        w.writerows(zip(*cells))


def _parse_column(path, name: str, column_type, cells, line: int | None
                  ) -> list:
    """The values of one column's cells, the first of which is on `line`.

    A refused cell raises DataFormatError naming path, the row and the
    column; with line None (a cell outside the table) it names `name` only.
    """
    base, optional = _cell_type(column_type)
    if base is str:
        return list(cells)
    try:
        if optional:
            return [None if c == "" else base(c) for c in cells]
        return list(map(base, cells))
    except ValueError:
        for k, c in enumerate(cells):
            try:
                if c or not optional:
                    base(c)
            except ValueError:
                where = (f"row {line + k}, column {name}: bad"
                         if line is not None else f"bad {name}")
                raise DataFormatError(f"{path}: {where} value {c!r}") from None
        raise


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    return rows


def _parse(path, columns, rows, line: int = 1) -> list[list]:
    """One list of values per column of a table whose header is on `line`.

    rows[0] must be the columns' header and every later row must have one
    cell per column.
    """
    names = [name for name, _ in columns]
    if not rows or rows[0] != names:
        got = ",".join(rows[0]) if rows else ""
        raise DataFormatError(f"{path}: expected header {','.join(names)!r}, "
                              f"got {got!r}")
    body = rows[1:]
    for k, row in enumerate(body):
        if len(row) != len(names):
            raise DataFormatError(f"{path}: row {line + 1 + k} has "
                                  f"{len(row)} cells, expected {len(names)}")
    cells = list(zip(*body)) if body else [()] * len(names)
    return [_parse_column(path, name, t, col, line + 1)
            for (name, t), col in zip(columns, cells)]


def _read_table(path, columns) -> list[list]:
    return _parse(path, columns, _read_rows(path))


def _dataset_columns(n_x: int, n_s: int):
    return (("y", float | None), *((f"x{j + 1}", float) for j in range(n_x)),
            *((f"xs{j + 1}", float) for j in range(n_s)))


def _matrix(columns: list[list], n: int) -> np.ndarray:
    """The columns of n values side by side as a C-ordered float matrix."""
    return np.ascontiguousarray(
        np.array(columns, dtype=float).reshape(len(columns), n).T)


def write_dataset(path, y: np.ndarray, X: np.ndarray,
                  Xstar: np.ndarray | None = None) -> None:
    """Rows y,x1..xr[,xs1..xsq]; missing responses become empty cells.

    X and Xstar carry leading intercept columns, which are dropped on write
    and restored on read.
    """
    y = np.asarray(y, dtype=float)
    covs = list(np.asarray(X, dtype=float)[:, 1:].T)
    star = (list(np.asarray(Xstar, dtype=float)[:, 1:].T)
            if Xstar is not None else [])
    y_cells = np.where(np.isnan(y), None, y).tolist()
    _write_table(path, _dataset_columns(len(covs), len(star)),
                 [y_cells, *covs, *star])


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (y, X, Xstar) with intercept columns prepended.

    An empty y cell is a missing response (NaN in y); every other cell must
    hold a finite number, so `inf`, `-inf` and `nan` raise DataFormatError.
    """
    rows = _read_rows(path)
    n_x = sum(1 for h in rows[0] if h.startswith("x")
              and not h.startswith("xs"))
    n_s = sum(1 for h in rows[0] if h.startswith("xs"))
    y_cells, *cols = _parse(path, _dataset_columns(n_x, n_s), rows)
    y = np.array(y_cells, dtype=float)
    n = y.size
    X = _matrix([[1.0] * n, *cols[:n_x]], n)
    Xs = _matrix([[1.0] * n, *cols[n_x:]], n) if n_s else None
    given = np.array([v is not None for v in y_cells], dtype=bool)
    values = np.hstack([np.where(given, y, 0.0)[:, None], X[:, 1:],
                        *([Xs[:, 1:]] if n_s else [])])
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise DataFormatError(f"{path}: row {i + 2}, column {rows[0][j]}: "
                              f"non-finite value {rows[i + 1][j]!r}")
    return y, X, Xs


def write_weights(path, W: SpatialWeights) -> None:
    """Coordinate triples i,j,w sorted by (i, j), preceded by a size line."""
    order = np.lexsort((W.cols, W.rows))
    _write_table(path, _WEIGHTS,
                 [W.rows[order], W.cols[order], W.weights[order]],
                 head=f"# n={W.n} row_standardized={int(W.row_standardized)}\n")


def read_weights(path) -> SpatialWeights:
    from .spatial import SpatialWeights

    head, *rows = _read_rows(path)
    text = ",".join(head)
    fields = dict(part.split("=", 1) for part in text.lstrip("# ").split()
                  if "=" in part)
    if not text.startswith("#") or "n" not in fields:
        raise DataFormatError(f"{path}: missing '# n=...' size line")
    n, standardized = _parse_column(
        path, "size line", int,
        [fields["n"], fields.get("row_standardized", "0")], None)
    ii, jj, ww = _parse(path, _WEIGHTS, rows, line=2)
    return SpatialWeights(n=n, rows=np.array(ii, dtype=np.int64),
                          cols=np.array(jj, dtype=np.int64),
                          weights=np.array(ww, dtype=float),
                          row_standardized=bool(standardized))


def write_trace(path, trace_iters: np.ndarray, mu_trace: np.ndarray,
                names: list[str]) -> None:
    """Long-format rows iter,param_name,value."""
    mu_trace = np.asarray(mu_trace, dtype=float)
    _write_table(path, _TRACE, [np.repeat(trace_iters, len(names)),
                                list(names) * len(trace_iters),
                                mu_trace.reshape(-1)])


def read_trace(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Returns (iters, names, values) with values shaped (len(iters), len(names))."""
    it_col, name_col, value_col = _read_table(path, _TRACE)
    iters = [it for k, it in enumerate(it_col)
             if k == 0 or it != it_col[k - 1]]
    names = list(dict.fromkeys(name_col))
    cells = dict(zip(zip(it_col, name_col), value_col))
    try:
        values = np.array([[cells[(it, nm)] for nm in names] for it in iters])
    except KeyError as exc:
        raise DataFormatError(f"{path}: no value for iter and parameter "
                              f"{exc.args[0]!r}") from None
    return np.asarray(iters, dtype=int), names, values


def write_acceptance(path, acceptance: np.ndarray) -> None:
    _write_table(path, _ACCEPTANCE,
                 list(np.asarray(acceptance, dtype=int).reshape(-1, 4).T))


def read_acceptance(path) -> np.ndarray:
    cols = _read_table(path, _ACCEPTANCE)
    return np.ascontiguousarray(np.array(cols, dtype=int).T)


def write_dic_report(path, rows) -> None:
    """rows of (model, dic1, dic2, dic5, n_draws); None prints empty."""
    _write_table(path, _DIC, list(zip(*rows)) or [()] * len(_DIC))


def read_dic_report(path):
    return list(zip(*_read_table(path, _DIC)))


def write_sidecar(path, missing: np.ndarray, true_y: np.ndarray) -> None:
    """Ground-truth record i,m,true_y for every site of an amputated set."""
    missing = np.asarray(missing, dtype=bool)
    _write_table(path, _SIDECAR, [range(missing.size), missing, true_y])


def read_sidecar(path) -> tuple[np.ndarray, np.ndarray]:
    sites, m, true_y = _read_table(path, _SIDECAR)
    if sites != list(range(len(sites))):
        raise DataFormatError(f"{path}: sidecar rows must cover 0..n-1")
    bad = next((k for k, flag in enumerate(m) if flag not in (0, 1)), None)
    if bad is not None:
        raise DataFormatError(f"{path}: row {bad + 2}, column m: "
                              f"{m[bad]} is not 0 or 1")
    return np.array(m, dtype=bool), np.array(true_y, dtype=float)


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
    _write_table(path, [(h, float) for h in header], list(mat.T))


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
    cols = _parse(path, [(h, float) for h in header], rows)
    n = len(rows) - 1
    if n == 0:
        raise DataFormatError(f"{path}: no sample rows")
    psi = _matrix(cols[i_psi:i_yu], n) if i_psi < i_yu else None
    y_u = _matrix(cols[i_yu:], n) if i_yu < len(header) else None
    idx = (np.array(_parse_column(path, "yu_ site", int,
                                  [h[3:] for h in header[i_yu:]], None),
                    dtype=np.int64)
           if y_u is not None else None)
    return PosteriorSamples(phi=_matrix(cols[:i_psi], n),
                            phi_names=tuple(header[:i_psi]),
                            psi=psi, y_u=y_u), idx


def write_lambda(path, lam: VariationalParams) -> None:
    """Rows part,i,j,value for mu (j empty), B lower triangle, and d."""
    s = lam.s
    ti, tj = lam.tril()
    _write_table(path, _LAMBDA, [
        ["mu"] * s + ["B"] * ti.size + ["d"] * s,
        [*range(s), *ti.tolist(), *range(s)],
        [None] * s + tj.tolist() + [None] * s,
        np.concatenate([lam.mu, lam.B[ti, tj], lam.d])])


def read_lambda(path) -> VariationalParams:
    """The mu rows and the d rows each have i = 0, 1, ... in order, and B's
    cells lie in its lower triangle, 0 <= j <= i < len(mu)."""
    from .variational import VariationalParams

    parts, ii, jj, values = _read_table(path, _LAMBDA)
    s = parts.count("mu")
    next_i = {"mu": 0, "d": 0}
    for k, (part, i, j) in enumerate(zip(parts, ii, jj)):
        if part not in ("mu", "B", "d"):
            raise DataFormatError(f"{path}: row {k + 2}: unknown part {part!r}")
        if part in next_i:
            if i != next_i[part]:
                raise DataFormatError(f"{path}: row {k + 2}: {part} index "
                                      f"{i}, expected {next_i[part]}")
            next_i[part] += 1
        if (j is None) != (part != "B"):
            raise DataFormatError(f"{path}: row {k + 2}: column j must be "
                                  "empty on exactly the mu and d rows")
        if part == "B" and not 0 <= j <= i < s:
            raise DataFormatError(f"{path}: row {k + 2}: B index ({i}, {j}) "
                                  f"outside 0 <= j <= i < {s}")
    mu = [v for part, v in zip(parts, values) if part == "mu"]
    d = [v for part, v in zip(parts, values) if part == "d"]
    if s == 0 or len(d) != s:
        raise DataFormatError(f"{path}: mu and d lengths disagree")
    b_rows = [k for k, part in enumerate(parts) if part == "B"]
    B = np.zeros((s, 1 + max((jj[k] for k in b_rows), default=0)))
    for k in b_rows:
        B[ii[k], jj[k]] = values[k]
    return VariationalParams(mu=np.asarray(mu), B=B, d=np.asarray(d))


def write_summary(path, names: list[str], draws: np.ndarray) -> None:
    """Rows param,mean,q025,q975 from column-aligned posterior draws."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[1] != len(names):
        raise DataFormatError("summary names do not match draw columns")
    if draws.shape[0] == 0:
        raise DataFormatError("a summary needs at least one draw")
    lo, hi = np.quantile(draws, [0.025, 0.975], axis=0)
    _write_table(path, _SUMMARY, [names, draws.mean(axis=0), lo, hi])


def read_summary(path):
    return list(zip(*_read_table(path, _SUMMARY)))
