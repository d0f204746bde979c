"""Dataset ingestion and generation, and every CSV the package reads or writes.

File formats:

* IDX (MNIST family): big-endian header, magic 0x00000803 for u8 image
  tensors (dims n, rows, cols) or 0x00000801 for u8 label vectors.
* Vector CSV: optional header, one numeric row per sample; a final column
  literally named "label" is split off as integer labels.
* Projection CSV: header ``id,x,y`` with an optional ``label`` column found by
  name; other columns are ignored. Ids must cover 0..n-1 exactly once and rows
  may appear in any order.

All CSV tables go through one parser (``_read_csv``: header detection,
ragged rows, non-numeric cells and bytes that are not UTF-8 as line-numbered
ParseErrors) and one writer (``write_csv``: an optional id column, float64
cells as ``repr`` so values read back exactly, an optional integer label
column). A NaN or infinite sample value or coordinate is a line-numbered
ParseError too. A numeric cell is exactly what Python's ``float()``
accepts. Blank lines, whitespace-only ones too, are skipped, and line
numbers count every line the way ``str.splitlines`` splits them. numpy's C
reader is only a fast path: where it refuses a file or could read it
otherwise, a line walk reads it, with the same values and messages.

IDX pixels stay uint8 in memory; ``gather_rows`` scales the rows a batch
needs, so no float64 copy of a whole image file is ever made.

Also provides the synthetic blob generator used for desk-scale runs and a
PCA (``np.linalg.eigh`` on the covariance of the non-constant columns,
summed over row blocks read through ``gather_rows``) so the full pipeline
works without any precomputed embedding.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Iterator

import numpy as np

from .errors import DataError, ParseError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Guard against absurd headers before allocating anything.
MAX_IDX_ELEMENTS = 1 << 40

SPLIT_NAMES = ("train", "val", "test")


@dataclass
class DatasetBundle:
    """Samples, optional labels, projection targets, and split assignment.

    ``X`` is float64, or uint8 pixels read from an IDX file; read its rows
    through ``gather_rows``, which scales pixels onto [0, 1].
    """

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
        if self.X.dtype != np.uint8 and not np.all(np.isfinite(self.X)):
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
    label files come back as a length-n int vector. The payload is read
    straight into the result, so the file is never held twice.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)  # magic and up to three dimensions

        def need(offset: int, count: int, what: str) -> bytes:
            if size < offset + count:
                raise ParseError(
                    f"truncated {what} at byte {offset}: need {count} bytes, file has {size - offset}"
                )
            return head[offset : offset + count]

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
        got = size - payload_at
        if got >= total:
            payload = np.empty(total, dtype=np.uint8)
            fh.seek(payload_at)
            got = fh.readinto(payload)
        if got < total:
            raise ParseError(f"truncated payload at byte {payload_at}: expected {total} bytes, got {got}")
    if magic == IDX_IMAGES_MAGIC:
        n, rows, cols = dims
        return tuple(dims), payload.reshape(n, rows * cols)
    return tuple(dims), payload.astype(np.int64)


def scale_pixels(raw: np.ndarray) -> np.ndarray:
    """Map byte values 0..255 onto [0, 1] by exact division."""
    return np.asarray(raw, dtype=np.float64) / 255.0


def gather_rows(X: np.ndarray, rows) -> np.ndarray:
    """``X[rows]`` as float64 samples: uint8 pixels are scaled onto [0, 1] here.

    ``raw[rows] / 255.0`` is bit-identical to ``scale_pixels(raw)[rows]``, so
    scaling a batch at a time gives the same numbers as scaling the file.
    """
    return X[rows] / 255.0 if X.dtype == np.uint8 else X[rows]


# -- CSV -----------------------------------------------------------------------


# Bytes per block that ``_blocks`` reads and splits into lines.
_READ_BYTES = 1 << 20
# Characters numpy keeps of each last picked cell; a cell that fills them may
# have been cut short, so its file goes to the walk.
_TEXT_CHARS = 32


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_csv(path, pick=None) -> tuple[list[str] | None, np.ndarray, np.ndarray, np.ndarray]:
    """(header, float64 cells, each row's line number, each row's last picked
    cell as text) of a CSV file.

    Blank lines are skipped. The first line is the header unless every cell
    of it is a number. Every row must be as wide as the header (or, without
    one, the first row). ``pick(header)`` chooses the columns to parse, in
    order; by default all of them, and the others are not looked at. A cell
    is a number when Python's ``float()`` accepts it. A ragged row or a cell
    that is not a number is a ParseError naming its line. The texts of the
    last picked column let a label column be judged by what was written
    rather than by its nearest float64.

    numpy's C reader parses the file (``_fast_csv``). Wherever it refuses
    the file, or its result could differ, the line walk (``_walk_csv``)
    reads the file instead, so the walk alone words every error.
    """
    try:
        return _fast_csv(path, pick)
    except (ValueError, ParseError):  # numpy's reader, UTF-8 or pick refused, or a trap
        return _walk_csv(path, pick)


def _fast_csv(path, pick) -> tuple[list[str] | None, np.ndarray, np.ndarray, np.ndarray]:
    """``_read_csv`` by numpy's C reader, or a ValueError wherever its result
    could differ from the walk's.

    numpy gets the lines of ``_blocks``, the very lines the walk reads, so
    every row's line number is known. numpy accepts a cell only where
    ``float()`` does, with the same value, and refuses ``1_0``, Unicode
    digits and a whitespace-only line, which the walk reads. What numpy
    would let through is ruled out here: a row wider than the header, which
    ``usecols`` accepts (with the last column read no row is narrower, so
    the commas give it away), and a last picked cell longer than the texts
    numpy keeps.
    """
    commas, count, empty = 0, 0, []

    def lines():
        nonlocal commas, count
        for block, text in _blocks(path):
            commas += block.count(b",")
            if "" in text:
                empty.extend(count + i for i, line in enumerate(text, start=1) if not line)
            count += len(text)
            yield from text

    stream = lines()
    for first, line in enumerate(stream, start=1):
        if line.strip():
            break
    else:
        raise ValueError("no rows")  # the walk words each error
    cells = line.split(",")
    header = [cell.strip() for cell in cells]
    if all(map(_is_float, header)):
        header, row = None, line
    else:
        row = next(filter(None, stream), None)  # numpy skips empty lines too
        if row is None:
            raise ValueError("a header without rows")
    width = len(cells)
    cols = list(range(width) if pick is None else pick(header))
    usecols = cols + cols[-1:]  # the last picked column twice: as a number, then as text
    fields = [("v", np.float64, (len(cols),)), ("t", f"U{_TEXT_CHARS}")]
    if width - 1 not in cols:  # read the last column too, so no row is narrower than the header
        usecols.append(width - 1)
        fields.append(("w", "U1"))
    table = np.loadtxt(itertools.chain([row], stream), dtype=fields, delimiter=",", comments=None,
                       quotechar=None, usecols=usecols, ndmin=1)
    start = first + (header is not None)
    line_nos = np.setdiff1d(np.arange(start, count + 1), empty, assume_unique=True)
    texts = table["t"]
    if (line_nos.size != table.shape[0] or commas != (width - 1) * (table.shape[0] + (header is not None))
            or (np.char.str_len(texts) == _TEXT_CHARS).any()):
        raise ValueError("numpy's reader may differ from the walk here")
    return header, table["v"], line_nos, texts


def _walk_csv(path, pick) -> tuple[list[str] | None, np.ndarray, np.ndarray, np.ndarray]:
    """``_read_csv`` line by line, with ``float()`` on every picked cell."""
    lines = (line for _, block_lines in _blocks(path) for line in block_lines)
    rows = [(i, line) for i, line in enumerate(lines, start=1) if line.strip()]
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
    last, texts = cols[-1], []
    for r, (line_no, line) in enumerate(rows):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"ragged row at line {line_no}: {len(cells)} fields, expected {width}")
        try:
            values[r] = [float(cells[c]) for c in cols]
        except ValueError:
            bad = next(cells[c].strip() for c in cols if not _is_float(cells[c]))
            raise ParseError(f"non-numeric cell {bad!r} at line {line_no}") from None
        texts.append(cells[last])
    return header, values, np.array([line_no for line_no, _ in rows]), np.array(texts)


def _blocks(path) -> Iterator[tuple[bytes, list[str]]]:
    """Each ``_READ_BYTES`` block of a UTF-8 file, read on to the next \\n (which ends a line and no
    UTF-8 character), and its ``str.splitlines``. A byte that is not UTF-8 is a ParseError naming its line.
    """
    count = 0
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BYTES):
            block += fh.readline()
            try:
                lines = block.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                # The text before the first bad byte decodes; "x" counts its last, unterminated line.
                line_no = count + len((block[: exc.start].decode("utf-8") + "x").splitlines())
                raise ParseError(f"{path}: byte 0x{block[exc.start]:02x} at line {line_no} is not UTF-8") from None
            count += len(lines)
            yield block, lines


def _is_label(text: str) -> bool:
    """Whether a cell's text is an integer below 2**53 in magnitude.

    float64 holds each such integer exactly and no larger one, and the text
    decides: 1.0000000000000000001 and 2**53 + 1 both round to an integer
    float64, and neither is a label."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        return False
    return d.is_finite() and abs(d) < 2**53 and d == d.to_integral_value()


def _int_labels(values: np.ndarray, texts: np.ndarray, line_nos: np.ndarray) -> np.ndarray:
    """Label cells as int64, each judged by its text (``_is_label``); the first
    that is not a label is a ParseError naming its line."""
    # At most 15 plain digits is a label below 10**15; only other cells need Decimal.
    plain = (np.char.str_len(texts) < 16) & np.char.isdigit(texts)
    for i in np.flatnonzero(~plain):
        text = str(texts[i]).strip()
        if not _is_label(text):
            raise ParseError(f"label {text} at line {line_nos[i]} "
                             f"is not an integer of magnitude below 2**53")
    return values.astype(np.int64)


def _check_finite(values: np.ndarray, line_nos: np.ndarray) -> None:
    """A NaN or infinite cell is a ParseError naming its line."""
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ParseError(f"cell {values[r, c]} at line {line_nos[r]} is not finite")


def _has_label_column(header: list[str] | None) -> bool:
    return header is not None and header[-1].lower() == "label"


def read_csv_vectors(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Numeric matrix from CSV; a trailing "label" column is split off.

    The matrix may be a strided view of the parsed table: its readers
    (``gather_rows``, ``Tensor``) copy the rows they use. A NaN or infinite
    value is a ParseError naming its line."""
    header, values, line_nos, texts = _read_csv(path)
    labels = None
    if _has_label_column(header):
        labels = _int_labels(values[:, -1], texts, line_nos)
        values = values[:, :-1]
    _check_finite(values, line_nos)
    return values, labels


def read_labels_csv(path) -> np.ndarray:
    """Integer labels from a CSV: its trailing "label" column, or its only column."""
    header, values, line_nos, texts = _read_csv(path)
    if not _has_label_column(header) and values.shape[1] != 1:
        raise DataError(f"{path}: a labels CSV must have exactly one column")
    return _int_labels(values[:, -1], texts, line_nos)


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
    """2-D coordinates keyed by id columns; returns (Y ordered by id, labels).

    A NaN or infinite coordinate is a ParseError naming its line."""
    _, values, line_nos, texts = _read_csv(path, _projection_columns)
    idx = _row_ids(values[:, 0], line_nos)
    _check_finite(values[:, 1:3], line_nos)
    Y = np.empty((idx.size, 2))
    Y[idx] = values[:, 1:3]
    if values.shape[1] == 3:
        return Y, None
    labels = np.empty(idx.size, dtype=np.int64)
    labels[idx] = _int_labels(values[:, 3], texts, line_nos)
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


def _fix_sign(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def _principal_axes(C: np.ndarray) -> np.ndarray:
    """[d, 2] top-two eigenvectors of a covariance, by ``eigh``, each sign-fixed;
    with d = 1 the second axis is zero."""
    if not np.all(np.isfinite(C)):
        raise DataError("the covariance of the samples overflows float64")
    vecs = np.linalg.eigh(C)[1][:, ::-1]
    second = vecs[:, 1] if C.shape[0] > 1 else np.zeros(1)
    return np.column_stack([_fix_sign(vecs[:, 0]), _fix_sign(second)])


# Rows per block of ``pca_project``: each pass gathers one block as float64,
# so a PCA holds one block of X at a time and never a copy of the whole.
PCA_BLOCK = 4096


def pca_project(X: np.ndarray) -> np.ndarray:
    """Top-2 principal-component coordinates, by ``np.linalg.eigh``.

    Only the non-constant columns (max != min) enter: a constant column gets
    loading 0. Rows are read ``PCA_BLOCK`` at a time through ``gather_rows``,
    so uint8 pixels give the bytes ``scale_pixels(X)`` gives. Each block is
    centred on its own mean before its Gram matrix is summed, and the block
    means are merged into the covariance by the pairwise update of Chan,
    Golub & LeVeque (1979). The block means are kept relative to the first
    block's, and every block is shifted by that mean before it is projected,
    so no sum at the scale of X is cancelled, however large X's mean is. Each
    axis is sign-fixed so that its first nonzero loading is positive, making
    output deterministic.
    """
    X = np.asarray(X)
    if X.dtype != np.uint8:
        X = X.astype(np.float64, copy=False)
    n, d = X.shape
    if n < 3 or d < 2:
        raise DataError(f"pca needs n >= 3 and d >= 2, got {n}x{d}")
    hi, lo = X.max(axis=0), X.min(axis=0)  # a NaN or an infinity reaches one of them
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise DataError("samples contain non-finite values")
    keep = np.flatnonzero(hi != lo)
    if keep.size == 0:
        raise DataError("degenerate data: zero variance in every dimension")
    blocks = [slice(start, min(start + PCA_BLOCK, n)) for start in range(0, n, PCA_BLOCK)]
    G, means, residuals = np.zeros((keep.size, keep.size)), [], []
    for b in blocks:
        R = gather_rows(X[b].take(keep, axis=1), ...)  # a new float64 block
        means.append(R.mean(axis=0))
        R -= means[-1]
        residuals.append(R.mean(axis=0))  # the rounding of the block's mean
        G += R.T @ R
        del R  # so the next block is not gathered while this one is held
    # The block means relative to the first block's, at the scale of the spread
    # and not of X, so their differences lose nothing to a large column mean.
    shift = means[0]
    M = (np.array(means) - shift) + residuals
    sizes = np.array([b.stop - b.start for b in blocks], dtype=np.float64)
    mean = sizes @ M / n
    D = M - mean
    V = _principal_axes((G + (D.T * sizes) @ D) / (n - 1))
    offset, Y = mean @ V, []
    for b in blocks:
        R = gather_rows(X[b].take(keep, axis=1), ...)
        R -= shift
        Y.append(R @ V - offset)
        del R
    return np.concatenate(Y)
