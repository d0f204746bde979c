"""Dataset ingestion and generation.

File formats:

* IDX (MNIST family): big-endian header, magic 0x00000803 for u8 image
  tensors (dims n, rows, cols) or 0x00000801 for u8 label vectors.
* Vector CSV: optional header, one numeric row per sample; a final column
  literally named "label" is split off as integer labels.
* Projection CSV: header ``id,x,y`` with an optional ``label`` column; ids
  must cover 0..n-1 exactly once and rows may appear in any order.

Also provides the synthetic blob generator used for desk-scale runs and a
dependency-free PCA (power iteration with deflation) so the full pipeline
works without any precomputed embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _parse_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric cell {token!r} at line {line_no}") from None


def _split_lines(path) -> list[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    rows = []
    for i, line in enumerate(raw, start=1):
        if line.strip():
            rows.append((i, [cell.strip() for cell in line.split(",")]))
    return rows


def _looks_numeric(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def read_csv_vectors(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Numeric matrix from CSV; a trailing "label" column is split off."""
    rows = _split_lines(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header: list[str] | None = None
    if not _looks_numeric(rows[0][1]):
        header = rows[0][1]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header without data rows")
    width = len(header) if header is not None else len(rows[0][1])
    has_labels = header is not None and header[-1].lower() == "label"
    data = np.empty((len(rows), width), dtype=np.float64)
    for r, (line_no, cells) in enumerate(rows):
        if len(cells) != width:
            raise ParseError(f"ragged row at line {line_no}: {len(cells)} fields, expected {width}")
        for c, cell in enumerate(cells):
            data[r, c] = _parse_float(cell, line_no)
    if has_labels:
        labels = data[:, -1]
        if not np.all(labels == np.rint(labels)):
            raise ParseError("label column contains non-integer values")
        return np.ascontiguousarray(data[:, :-1]), labels.astype(np.int64)
    return data, None


def write_csv_vectors(path, X: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write the vector CSV format the readers above understand."""
    X = np.asarray(X, dtype=np.float64)
    cols = [f"f{i}" for i in range(X.shape[1])]
    if labels is not None:
        cols.append("label")
    lines = [",".join(cols)]
    for i in range(X.shape[0]):
        cells = [repr(float(v)) for v in X[i]]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_projection_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """2-D coordinates keyed by id columns; returns (Y ordered by id, labels)."""
    rows = _split_lines(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = rows[0][1]
    lowered = [h.lower() for h in header]
    if lowered[:3] != ["id", "x", "y"]:
        raise ParseError(f"projection header must start with id,x,y, got {header}")
    has_labels = "label" in lowered[3:]
    label_at = lowered.index("label") if has_labels else -1
    body = rows[1:]
    n = len(body)
    Y = np.empty((n, 2), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64) if has_labels else None
    seen = np.zeros(n, dtype=bool)
    for line_no, cells in body:
        if len(cells) != len(header):
            raise ParseError(f"ragged row at line {line_no}: {len(cells)} fields, expected {len(header)}")
        idx_f = _parse_float(cells[0], line_no)
        if not (idx_f.is_integer() and 0 <= idx_f < n):
            raise ParseError(f"id {cells[0]!r} at line {line_no} not in 0..{n - 1}")
        idx = int(idx_f)
        if seen[idx]:
            raise ParseError(f"duplicate id {idx} at line {line_no}")
        seen[idx] = True
        Y[idx, 0] = _parse_float(cells[1], line_no)
        Y[idx, 1] = _parse_float(cells[2], line_no)
        if labels is not None:
            label = _parse_float(cells[label_at], line_no)
            if not (label.is_integer() and -(2.0**63) <= label < 2.0**63):
                raise ParseError(f"label {cells[label_at]!r} at line {line_no} is not an integer")
            labels[idx] = int(label)
    if not np.all(seen):
        missing = int(np.flatnonzero(~seen)[0])
        raise ParseError(f"missing id {missing}: ids must cover 0..{n - 1} exactly once")
    return Y, labels


def write_projection_csv(path, Y: np.ndarray, labels: np.ndarray | None = None) -> None:
    Y = np.asarray(Y, dtype=np.float64)
    header = "id,x,y" + (",label" if labels is not None else "")
    lines = [header]
    for i in range(Y.shape[0]):
        cells = [str(i), repr(float(Y[i, 0])), repr(float(Y[i, 1]))]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
