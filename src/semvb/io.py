"""CSV and key=value serialization for the pipeline artifacts.

Writers emit canonical text: shortest round-tripping float representations,
LF line endings, weight entries as W stores them, sorted by coordinate.
Identical inputs therefore produce byte-identical files, and
write -> read -> write is a fixed point. The readers import the class they build when they run, so a
command that reads and writes datasets only loads numpy. The key=value
reader and writer come from `keyvalues`, which needs no numpy.

Each CSV artifact declares its columns once, as (name, type) pairs. A type
is float, int or str, or `float | None` / `int | None`, whose empty cell is
None; an int cell must fit in int64. One codec formats and parses every
table in chunks of _CHUNK_CELLS cells (whole rows), so that neither a
reader nor a writer holds more than one chunk of cells as Python objects:
a reader's memory is bounded by the arrays it returns. A reader converts a
chunk's float and int columns with `np.array(cells, dtype=...)`, which
accepts and rounds exactly as `float()` and `int()` do, and names a refused
cell by its row in the file.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from itertools import chain, islice
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
    "write_manifest", "read_keyvalues", "write_samples", "read_samples",
    "write_lambda", "read_lambda", "write_summary", "read_summary",
]

# cells per chunk that a reader parses or a writer formats at a time
_CHUNK_CELLS = 4096

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


def _dtype(base: type):
    return np.int64 if base is int else float


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
    """Write the (name, type) columns' values after head, in row chunks.

    data holds one sequence of values per column, or a 2-D array in place
    of as many adjacent columns of one numeric type as it has columns. Each
    chunk of _CHUNK_CELLS cells is formatted and written before the next.
    A table whose columns are all float or int skips csv's per-cell work:
    csv writes a float as its repr and an int as its str, which is its
    repr, and quotes neither, so joining the reprs by commas is the same
    text.
    """
    n = len(data[0]) if len(data) else 0
    step = max(1, _CHUNK_CELLS // max(1, len(columns)))
    numeric = all(_cell_type(t) in ((float, False), (int, False))
                  for _, t in columns)
    with open(path, "w", newline="") as f:
        f.write(head)
        w = csv.writer(f, lineterminator="\n")
        w.writerow([name for name, _ in columns])
        for a in range(0, n, step):
            cells, j = [], 0
            for values in data:
                if isinstance(values, np.ndarray) and values.ndim == 2:
                    base = _cell_type(columns[j][1])[0]
                    cells += np.asarray(values[a:a + step],
                                        dtype=base).T.tolist()
                    j += values.shape[1]
                else:
                    cells.append(_column_cells(columns[j][1],
                                               values[a:a + step]))
                    j += 1
            if numeric:
                f.write("".join([",".join(map(repr, row)) + "\n"
                                 for row in zip(*cells)]))
            else:
                w.writerows(zip(*cells))


def _parse_column(path, name: str, column_type, cells, line: int | None):
    """The values of one column's cells, the first of which is on `line`:
    an int64 or float array, or a list for a str or optional column (None
    for an empty cell).

    A refused cell, an int outside int64 included, raises DataFormatError
    naming path, the row and the column; with line None (a cell outside
    the table) it names `name` only.
    """
    base, optional = _cell_type(column_type)
    if base is str:
        return list(cells)
    dtype = _dtype(base)
    try:
        if optional:
            given = iter(np.array([c for c in cells if c],
                                  dtype=dtype).tolist())
            return [next(given) if c else None for c in cells]
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for k, c in enumerate(cells):
            try:
                if c or not optional:
                    np.array(c, dtype=dtype)
            except (ValueError, OverflowError):
                where = (f"row {line + k}, column {name}: bad"
                         if line is not None else f"bad {name}")
                raise DataFormatError(f"{path}: {where} value {c!r}") from None
        raise


def _read_rows(path) -> Iterator[list[str]]:
    """The csv rows of path, read as they are consumed."""
    try:
        with open(path, newline="") as f:
            rows = csv.reader(f)
            first = next(rows, None)
            if first is None:
                raise DataFormatError(f"{path}: empty file")
            yield first
            yield from rows
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _runs(columns) -> list[tuple[int, int]]:
    """(start, stop) of each run of adjacent columns of one type."""
    starts = [j for j, (_, t) in enumerate(columns)
              if j == 0 or t != columns[j - 1][1]]
    return list(zip(starts, starts[1:] + [len(columns)]))


def _parse_run(path, columns, cells, line: int):
    """One chunk of a run of columns of one type, as one tuple of cells per
    column: a (columns, rows) array for float or int, else one list each."""
    base, optional = _cell_type(columns[0][1])
    if base is str or optional:
        return [_parse_column(path, name, t, col, line)
                for (name, t), col in zip(columns, cells)]
    try:
        return np.array(cells, dtype=_dtype(base))
    except (ValueError, OverflowError):
        for (name, t), col in zip(columns, cells):
            _parse_column(path, name, t, col, line)
        raise


def _parse(path, columns, rows, line: int = 1) -> list:
    """The values of each column of the table that rows yields, header
    first, with the header on `line`.

    The header must be the columns' names and every later row must have one
    cell per column. Rows are parsed in chunks of _CHUNK_CELLS cells: a
    float or int column comes back as a 1-D float or int64 array, a str or
    optional column as a list (None for an empty cell).
    """
    names = [name for name, _ in columns]
    header = next(rows, None)
    if header != names:
        got = ",".join(header) if header is not None else ""
        raise DataFormatError(f"{path}: expected header {','.join(names)!r}, "
                              f"got {got!r}")
    runs = _runs(columns)
    chunks = [[] for _ in runs]
    step = max(1, _CHUNK_CELLS // max(1, len(names)))
    first = line + 1
    while body := list(islice(rows, step)):
        for k, row in enumerate(body):
            if len(row) != len(names):
                raise DataFormatError(f"{path}: row {first + k} has "
                                      f"{len(row)} cells, expected "
                                      f"{len(names)}")
        cells = list(zip(*body))
        for (a, b), parts in zip(runs, chunks):
            parts.append(_parse_run(path, columns[a:b], cells[a:b], first))
        first += len(body)
    values = []
    for (a, b), parts in zip(runs, chunks):
        base, optional = _cell_type(columns[a][1])
        if base is str or optional:
            values += [list(chain.from_iterable(part[j] for part in parts))
                       for j in range(b - a)]
        else:
            values += list(np.concatenate(parts, axis=1) if parts
                           else np.empty((b - a, 0), dtype=_dtype(base)))
    return values


def _read_table(path, columns) -> list:
    return _parse(path, columns, _read_rows(path))


def _dataset_columns(n_x: int, n_s: int):
    return (("y", float | None), *((f"x{j + 1}", float) for j in range(n_x)),
            *((f"xs{j + 1}", float) for j in range(n_s)))


def _matrix(columns, n: int) -> np.ndarray:
    """The columns of n values (a scalar fills its column) side by side as a
    C-ordered float matrix."""
    out = np.empty((n, len(columns)))
    for j, column in enumerate(columns):
        out[:, j] = column
    return out


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
    header = next(rows)
    n_x = sum(1 for h in header if h.startswith("x")
              and not h.startswith("xs"))
    n_s = sum(1 for h in header if h.startswith("xs"))
    y_cells, *cols = _parse(path, _dataset_columns(n_x, n_s),
                            chain([header], rows))
    y = np.array(y_cells, dtype=float)
    n = y.size
    X = _matrix([1.0, *cols[:n_x]], n)
    Xs = _matrix([1.0, *cols[n_x:]], n) if n_s else None
    given = np.array([v is not None for v in y_cells], dtype=bool)
    values = np.hstack([np.where(given, y, 0.0)[:, None], X[:, 1:],
                        *([Xs[:, 1:]] if n_s else [])])
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        cell = next(islice(_read_rows(path), i + 1, None))[j]
        raise DataFormatError(f"{path}: row {i + 2}, column {header[j]}: "
                              f"non-finite value {cell!r}")
    return y, X, Xs


def write_weights(path, W: SpatialWeights) -> None:
    """W's canonical coordinate triples i,j,w, sorted by (i, j) with
    duplicates summed, preceded by a size line."""
    _write_table(path, _WEIGHTS, [W.rows, W.cols, W.weights],
                 head=f"# n={W.n} row_standardized={int(W.row_standardized)}\n")


def read_weights(path) -> SpatialWeights:
    """The W of a file that `write_weights` wrote. Its size line holds n and
    optionally row_standardized, 0 or 1; any other key, or a key given
    twice, raises DataFormatError."""
    from .spatial import SpatialWeights

    rows = _read_rows(path)
    text = ",".join(next(rows))
    pairs = [part.partition("=")[::2] for part in text.lstrip("# ").split()]
    fields = dict(pairs)
    if not text.startswith("#") or "n" not in fields:
        raise DataFormatError(f"{path}: missing '# n=...' size line")
    keys = [key for key, _ in pairs]
    bad = [key for key in keys
           if key not in ("n", "row_standardized") or keys.count(key) > 1]
    if bad:
        raise DataFormatError(f"{path}: size line key {bad[0]!r} is unknown "
                              f"or repeated")
    n, standardized = _parse_column(
        path, "size line", int,
        [fields["n"], fields.get("row_standardized", "0")], None).tolist()
    if standardized not in (0, 1):
        raise DataFormatError(f"{path}: size line row_standardized="
                              f"{standardized} is not 0 or 1")
    ii, jj, ww = _parse(path, _WEIGHTS, rows, line=2)
    return SpatialWeights(n=n, rows=ii, cols=jj, weights=ww,
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
    it_col, value_col = it_col.tolist(), value_col.tolist()
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
    *cells, n_draws = _read_table(path, _DIC)
    return list(zip(*cells, n_draws.tolist()))


def write_sidecar(path, missing: np.ndarray, true_y: np.ndarray) -> None:
    """Ground-truth record i,m,true_y for every site of an amputated set."""
    missing = np.asarray(missing, dtype=bool)
    _write_table(path, _SIDECAR, [range(missing.size), missing, true_y])


def read_sidecar(path) -> tuple[np.ndarray, np.ndarray]:
    sites, m, true_y = _read_table(path, _SIDECAR)
    if not np.array_equal(sites, np.arange(sites.size)):
        raise DataFormatError(f"{path}: sidecar rows must cover 0..n-1")
    bad = np.flatnonzero((m != 0) & (m != 1))
    if bad.size:
        raise DataFormatError(f"{path}: row {bad[0] + 2}, column m: "
                              f"{m[bad[0]]} is not 0 or 1")
    return m.astype(bool), true_y


def _samples_blocks(samples: PosteriorSamples,
                    unobserved_idx: np.ndarray | None
                    ) -> tuple[list[str], list[np.ndarray]]:
    """Column names and the draws' blocks phi, psi, y_u that hold them."""
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
    return header, blocks


def write_samples(path, samples: PosteriorSamples,
                  unobserved_idx: np.ndarray | None = None) -> None:
    """Posterior draws, one row per draw; y_u columns keyed by site index.

    The blocks are written as they are, so no draws table is built."""
    header, blocks = _samples_blocks(samples, unobserved_idx)
    _write_table(path, [(h, float) for h in header], blocks)


def read_samples(path) -> tuple[PosteriorSamples, np.ndarray | None]:
    from .model_select import PosteriorSamples

    rows = _read_rows(path)
    header = next(rows)
    i_psi = next((k for k, h in enumerate(header)
                  if h.startswith("psi")), len(header))
    i_yu = next((k for k, h in enumerate(header)
                 if h.startswith("yu_")), len(header))
    if i_yu < i_psi:
        raise DataFormatError(f"{path}: psi columns must precede y_u columns")
    cols = _parse(path, [(h, float) for h in header], chain([header], rows))
    n = cols[0].size if cols else 0
    if n == 0:
        raise DataFormatError(f"{path}: no sample rows")
    psi = _matrix(cols[i_psi:i_yu], n) if i_psi < i_yu else None
    y_u = _matrix(cols[i_yu:], n) if i_yu < len(header) else None
    idx = (_parse_column(path, "yu_ site", int,
                         [h[3:] for h in header[i_yu:]], None)
           if y_u is not None else None)
    return PosteriorSamples(phi=_matrix(cols[:i_psi], n),
                            phi_names=tuple(header[:i_psi]),
                            psi=psi, y_u=y_u), idx


def write_lambda(path, lam: VariationalParams) -> None:
    """Rows part,i,j,value for mu (j empty), B lower triangle, and d."""
    s = lam.s
    ti, tj = np.tril_indices(s, 0, lam.p)
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
    ii, values = ii.tolist(), values.tolist()
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


def write_summary(path, samples: PosteriorSamples,
                  unobserved_idx: np.ndarray | None = None) -> None:
    """Rows param,mean,q025,q975, one per column of `write_samples`.

    Each block is summarized in chunks of whole columns of at most
    _CHUNK_CELLS cells, so no draws table and no copy of a whole block is
    built. A mean is its column's running sum over the count: the order in
    which numpy sums the columns of a wide table, where mean(axis=0) of a
    lone column would sum pairwise.
    """
    header, blocks = _samples_blocks(samples, unobserved_idx)
    if (n := samples.n_draws) == 0:
        raise DataFormatError("a summary needs at least one draw")
    step = max(1, _CHUNK_CELLS // n)
    q = np.array([0.025, 0.975])
    # for each chunk c of each block, rows mean, q025, q975
    stats = [np.vstack([np.cumsum(c, axis=0)[-1] / n, _quantiles(c, q)])
             for block in blocks for a in range(0, block.shape[1], step)
             for c in [block[:, a:a + step]]]
    _write_table(path, _SUMMARY,
                 [header, *np.hstack([np.empty((3, 0)), *stats])])


def _quantiles(draws: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(draws, q, axis=0) for 1-D q in [0, 1], bit for bit.

    This is numpy's default `linear` method written out. numpy picks the
    order statistics to partition on with np.unique, which imports numpy.ma
    (11-16 ms, and no stage needs it otherwise); the sorted set of the same
    indices goes to the same partition here. Then, as numpy does: each
    quantile lerps between its two order statistics, from below when its
    weight t is under 0.5 and from above otherwise, and a column holding a
    NaN, which the partition puts last, gets that NaN.
    """
    n = draws.shape[0]
    virtual = (n - 1) * q
    prev = np.floor(virtual).astype(np.intp)
    after = prev + 1
    top = virtual >= n - 1
    prev[top] = after[top] = -1
    arr = np.partition(draws, sorted({0, -1, *prev.tolist(), *after.tolist()}),
                       axis=0)
    a, b = arr[prev], arr[after]
    t = (virtual - prev).reshape(-1, 1)
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    np.copyto(out, arr[-1], where=np.isnan(arr[-1]))
    return out


def read_summary(path):
    names, *stats = _read_table(path, _SUMMARY)
    return list(zip(names, *(column.tolist() for column in stats)))
