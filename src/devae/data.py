"""Dataset ingestion and generation, and every CSV the package reads or writes.

File formats:

* IDX (MNIST family): big-endian header, magic 0x00000803 for u8 image
  tensors (dims n, rows, cols) or 0x00000801 for u8 label vectors.
* Vector CSV: optional header, one numeric row per sample; a final column
  literally named "label" is split off as integer labels.
* Projection CSV: header ``id,x,y`` with an optional ``label`` column found by
  name; other columns are ignored. Ids must cover 0..n-1 exactly once and rows
  may appear in any order.

All CSV tables go through one parser (``_read_csv``: header detection, ragged
rows and non-numeric cells as line-numbered ParseErrors) and one writer
(``write_csv``: an optional id column, float64 cells as ``repr`` so values
read back exactly, an optional integer label column).

Also provides the synthetic blob generator used for desk-scale runs and a
dependency-free PCA (power iteration with deflation) so the full pipeline
works without any precomputed embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import DataError, ParseError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Guard against absurd headers before allocating anything.
MAX_IDX_ELEMENTS = 1 << 40

SPLIT_NAMES = ("train", "val", "test")


@dataclass
class DatasetBundle:
    """Samples, optional labels, projection targets, and split assignment."""

    X: np.ndarray
    Y: np.ndarray
    split: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        n = self.X.shape[0]
        if self.Y.shape != (n, 2):
            raise DataError(f"projection targets must be {n}x2, got {self.Y.shape}")
        if self.split.shape[0] != n:
            raise DataError(f"split assignment covers {self.split.shape[0]} of {n} rows")
        if self.labels is not None and self.labels.shape[0] != n:
            raise DataError(f"labels cover {self.labels.shape[0]} of {n} rows")
        if not np.all(np.isfinite(self.X)):
            raise DataError("samples contain non-finite values")
        if not np.all(np.isfinite(self.Y)):
            raise DataError("projection targets contain non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def indices(self, split: str) -> np.ndarray:
        if split == "all":
            return np.arange(self.n)
        if split not in SPLIT_NAMES:
            raise DataError(f"unknown split {split!r}")
        return np.flatnonzero(self.split == split)


# -- IDX -----------------------------------------------------------------------


def read_idx(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Parse one IDX file into (dims, values).

    Image files come back flattened row-major to [n, rows*cols] uint8;
    label files come back as a length-n int vector.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(offset: int, count: int, what: str) -> bytes:
        if len(blob) < offset + count:
            raise ParseError(
                f"truncated {what} at byte {offset}: need {count} bytes, file has {len(blob) - offset}"
            )
        return blob[offset : offset + count]

    magic = int.from_bytes(need(0, 4, "magic"), "big")
    if magic not in (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC):
        raise ParseError(f"bad magic 0x{magic:08x} at byte 0")
    ndim = 3 if magic == IDX_IMAGES_MAGIC else 1
    dims = []
    for i in range(ndim):
        dims.append(int.from_bytes(need(4 + 4 * i, 4, f"dimension {i}"), "big"))
    total = 1
    for d in dims:
        total *= d
    if total > MAX_IDX_ELEMENTS:
        raise ParseError(f"dimension product {total} overflows sane bounds at byte 4")
    payload_at = 4 + 4 * ndim
    expected = payload_at + total
    if len(blob) < expected:
        raise ParseError(
            f"truncated payload at byte {payload_at}: expected {total} bytes, got {len(blob) - payload_at}"
        )
    payload = np.frombuffer(blob, dtype=np.uint8, count=total, offset=payload_at)
    if magic == IDX_IMAGES_MAGIC:
        n, rows, cols = dims
        values = payload.reshape(n, rows * cols).copy()
    else:
        values = payload.astype(np.int64)
    return tuple(dims), values


def scale_pixels(raw: np.ndarray) -> np.ndarray:
    """Map byte values 0..255 onto [0, 1] by exact division."""
    return np.asarray(raw, dtype=np.float64) / 255.0


# -- CSV -----------------------------------------------------------------------


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_csv(path, pick=None) -> tuple[list[str] | None, np.ndarray, np.ndarray]:
    """(header, float64 cells, each row's line number) of a CSV file.

    Blank lines are skipped. The first line is the header unless every cell
    of it is a number. Every row must be as wide as the header (or, without
    one, the first row). ``pick(header)`` chooses the columns to parse, in
    order; by default all of them, and the others are not looked at. A
    ragged row or a cell that is not a number is a ParseError naming its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(i, line) for i, line in enumerate(fh.read().splitlines(), start=1) if line.strip()]
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0][1].split(",")]
    if all(map(_is_float, header)):
        header = None
    else:
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header without data rows")
    width = len(header if header is not None else rows[0][1].split(","))
    cols = range(width) if pick is None else pick(header)
    values = np.empty((len(rows), len(cols)))
    for r, (line_no, line) in enumerate(rows):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"ragged row at line {line_no}: {len(cells)} fields, expected {width}")
        try:
            values[r] = [float(cells[c]) for c in cols]
        except ValueError:
            bad = next(cells[c].strip() for c in cols if not _is_float(cells[c]))
            raise ParseError(f"non-numeric cell {bad!r} at line {line_no}") from None
    return header, values, np.array([line_no for line_no, _ in rows])


def _cell_texts(path, line_nos, col: int) -> list[str]:
    """The stripped text of cell ``col`` on each of the given lines of ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [lines[line_no - 1].split(",")[col].strip() for line_no in line_nos]


def _int_labels(values: np.ndarray, line_nos: np.ndarray, path, col: int) -> np.ndarray:
    """Label cells (column ``col`` of ``path``) as int64; a cell that is not
    an integer below 2**53 in magnitude is a ParseError naming its line.

    Cells arrive as float64, which holds every integer of that size exactly
    and no larger one: a cell of 2**53 + 1 reads as 2**53. From 2**52 on it
    holds no fractions either, so 4503599627370496.5 reads as an integer; the
    text of those rare cells decides. The bounds are floats, because
    comparing a float with a Python int takes a slow path."""
    integral = values == np.rint(values)
    ok = integral & (np.abs(values) < 2.0**52)
    if ok.all():
        return values.astype(np.int64)
    wide = np.flatnonzero(integral & ~ok & (np.abs(values) < 2.0**53))
    for i, text in zip(wide, _cell_texts(path, line_nos[wide], col)):
        ok[i] = Decimal(text) == int(values[i])
    if not ok.all():
        i = np.argmin(ok)
        text = _cell_texts(path, line_nos[i : i + 1], col)[0]
        raise ParseError(f"label {text} at line {line_nos[i]} "
                         f"is not an integer of magnitude below 2**53")
    return values.astype(np.int64)


def _has_label_column(header: list[str] | None) -> bool:
    return header is not None and header[-1].lower() == "label"


def read_csv_vectors(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Numeric matrix from CSV; a trailing "label" column is split off."""
    header, values, line_nos = _read_csv(path)
    if _has_label_column(header):
        return np.ascontiguousarray(values[:, :-1]), _int_labels(values[:, -1], line_nos, path, -1)
    return values, None


def read_labels_csv(path) -> np.ndarray:
    """Integer labels from a CSV: its trailing "label" column, or its only column."""
    header, values, line_nos = _read_csv(path)
    if not _has_label_column(header) and values.shape[1] != 1:
        raise DataError(f"{path}: a labels CSV must have exactly one column")
    return _int_labels(values[:, -1], line_nos, path, -1)


def _projection_columns(header: list[str] | None) -> list[int]:
    """id, x, y and, when present, the label column."""
    lowered = [h.lower() for h in header or []]
    if lowered[:3] != ["id", "x", "y"]:
        raise ParseError(f"projection header must start with id,x,y, got {header or 'a numeric row'}")
    cols = [0, 1, 2]
    if "label" in lowered[3:]:
        cols.append(lowered.index("label", 3))
    return cols


def _row_ids(ids: np.ndarray, line_nos: np.ndarray) -> np.ndarray:
    """Id cells as int64 row positions; they must be 0..n-1, each exactly once.

    With n rows that rule covers every id, so only bad and repeated ids need
    finding; the error names the earliest such line."""
    n = ids.size
    ok = (ids >= 0) & (ids < n) & (ids == np.rint(ids))
    idx = np.where(ok, ids, n).astype(np.int64)
    repeat = np.ones(n, dtype=bool)
    repeat[np.unique(idx, return_index=True)[1]] = False
    bad = ~ok | repeat
    if bad.any():
        i = np.argmax(bad)
        if not ok[i]:
            raise ParseError(f"id {float(ids[i])} at line {line_nos[i]} not in 0..{n - 1}")
        raise ParseError(f"duplicate id {idx[i]} at line {line_nos[i]}")
    return idx


def read_projection_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """2-D coordinates keyed by id columns; returns (Y ordered by id, labels)."""
    header, values, line_nos = _read_csv(path, _projection_columns)
    idx = _row_ids(values[:, 0], line_nos)
    Y = np.empty((idx.size, 2))
    Y[idx] = values[:, 1:3]
    if values.shape[1] == 3:
        return Y, None
    labels = np.empty(idx.size, dtype=np.int64)
    labels[idx] = _int_labels(values[:, 3], line_nos, path, _projection_columns(header)[3])
    return Y, labels


# Cells ``write_csv`` formats per block, so a table is never held whole as text.
_WRITE_CELLS = 1 << 14


def write_csv(path, names: list[str], values: np.ndarray, ids: bool = False,
              labels: np.ndarray | None = None) -> None:
    """Write ``values`` under the header ``names``, each cell as its float64 ``repr``.

    ``ids`` adds a leading ``id`` column 0..n-1 and ``labels`` a trailing
    integer ``label`` column, so every table the package writes reads back
    exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != values.shape[0]:
            raise DataError(f"labels cover {labels.shape[0]} of {values.shape[0]} rows")
    header = (["id"] if ids else []) + list(names) + (["label"] if labels is not None else [])
    step = max(1, _WRITE_CELLS // max(1, values.shape[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, values.shape[0], step):
            lines = [",".join(map(repr, row)) for row in values[start : start + step].tolist()]
            if ids:
                lines = [f"{i},{line}" for i, line in enumerate(lines, start)]
            if labels is not None:
                lines = [f"{line},{int(v)}" for line, v in zip(lines, labels[start : start + step].tolist())]
            # Line by line: a block-sized string per write raises peak RSS by a few MB.
            fh.writelines(line + "\n" for line in lines)


def write_csv_vectors(path, X: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write the vector CSV format ``read_csv_vectors`` understands."""
    write_csv(path, [f"f{i}" for i in range(np.shape(X)[1])], X, labels=labels)


def write_projection_csv(path, Y: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write the projection CSV format ``read_projection_csv`` understands."""
    write_csv(path, ["x", "y"], Y, ids=True, labels=labels)


# -- synthetic data ---------------------------------------------------------------


def make_blobs(n: int, d: int, k: int, spread: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian clusters around k uniform centers in [-5, 5]^d.

    Cluster sizes are balanced with any remainder going to the earlier
    clusters, and rows are grouped by cluster, so labels come out as
    0,0,...,1,1,... in order.
    """
    if not (n >= k >= 1 and d >= 2 and spread > 0):
        raise DataError(f"invalid blob sizes: n={n}, d={d}, k={k}, spread={spread}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(k, d))
    base, rem = divmod(n, k)
    counts = [base + (1 if i < rem else 0) for i in range(k)]
    chunks = []
    labels = []
    for i, count in enumerate(counts):
        chunks.append(centers[i] + spread * rng.standard_normal((count, d)))
        labels.extend([i] * count)
    return np.concatenate(chunks, axis=0), np.asarray(labels, dtype=np.int64)


# -- PCA ---------------------------------------------------------------------------


def _power_iterate(C: np.ndarray, v0: np.ndarray, ortho_to: np.ndarray | None,
                   tol: float, max_iter: int) -> np.ndarray:
    v = v0 / np.linalg.norm(v0)
    if ortho_to is not None:
        v -= (v @ ortho_to) * ortho_to
        v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = C @ v
        if ortho_to is not None:
            w -= (w @ ortho_to) * ortho_to
        norm = np.linalg.norm(w)
        if norm < 1e-14:
            # Deflated matrix is (numerically) zero: any unit vector in the
            # remaining subspace is an eigenvector. Pick one deterministically.
            basis = np.eye(C.shape[0])
            for e in basis:
                cand = e - ((e @ ortho_to) * ortho_to if ortho_to is not None else 0.0)
                cn = np.linalg.norm(cand)
                if cn > 1e-8:
                    return cand / cn
            raise DataError("degenerate data: no principal direction found")
        w /= norm
        if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
            return w
        v = w
    return v


def _fix_sign(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def pca_project(X: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Top-2 principal-component coordinates via power iteration.

    Components are deflated to orthogonality and sign-fixed so that each
    axis's first nonzero loading is positive, making output deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 3 or d < 2:
        raise DataError(f"pca needs n >= 3 and d >= 2, got {n}x{d}")
    Xc = X - X.mean(axis=0)
    # Two comparisons instead of np.abs(Xc): no temporary the size of X.
    if not (np.any(Xc > 1e-12) or np.any(Xc < -1e-12)):
        raise DataError("degenerate data: zero variance in every dimension")
    C = (Xc.T @ Xc) / (n - 1)
    rng = np.random.default_rng(0)
    v1 = _power_iterate(C, rng.standard_normal(d), None, tol, max_iter)
    lam1 = float(v1 @ C @ v1)
    C2 = C - lam1 * np.outer(v1, v1)
    v2 = _power_iterate(C2, rng.standard_normal(d), v1, tol, max_iter)
    v1, v2 = _fix_sign(v1), _fix_sign(v2)
    return np.stack([Xc @ v1, Xc @ v2], axis=1)
