"""Figure exports: latent scatter SVG and inverse-projection grid sheets.

Both writers are dependency-free and byte-deterministic: identical inputs
produce identical files, so goldens can be compared exactly.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .data import write_csv
from .errors import DataError
from .gaussian import EllipseSpec
from .model import INFER_CHUNK, DeVae

# Okabe-Ito palette padded to ten entries; distinguishable under the
# common color-vision deficiencies.
PALETTE = (
    "#0072b2", "#e69f00", "#009e73", "#d55e00", "#cc79a7",
    "#56b4e9", "#f0e442", "#000000", "#999999", "#8b4513",
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ellipse_extent(spec: EllipseSpec) -> tuple[float, float]:
    a, b = spec.semi_axes
    c, s = math.cos(spec.rotation), math.sin(spec.rotation)
    return (
        math.sqrt((a * c) ** 2 + (b * s) ** 2),
        math.sqrt((a * s) ** 2 + (b * c) ** 2),
    )


def latent_plot_svg(
    points: np.ndarray,
    labels: np.ndarray | None,
    ellipses: Mapping[int, Sequence[EllipseSpec]] | None,
    path,
) -> None:
    """Scatter of projection-space points with optional class ellipses.

    Points are colored by label through a fixed ten-color palette; each
    ellipse spec becomes one <ellipse> element. The viewBox is the data
    bounding box (points and ellipse extents) with a 5% margin, y up; a
    view box that overflows float64 is a DataError.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise DataError("points must be a finite n x 2 array")
    lab = np.zeros(pts.shape[0], dtype=np.int64) if labels is None else np.asarray(labels)
    ellipses = ellipses or {}

    xs = [pts[:, 0].min(), pts[:, 0].max()]
    ys = [pts[:, 1].min(), pts[:, 1].max()]
    for specs in ellipses.values():
        for spec in specs:
            hx, hy = _ellipse_extent(spec)
            xs += [spec.center[0] - hx, spec.center[0] + hx]
            ys += [spec.center[1] - hy, spec.center[1] + hy]
    xmin, xmax = float(min(xs)), float(max(xs))  # Python floats overflow to inf without a warning
    ymin, ymax = float(min(ys)), float(max(ys))
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    mx, my = 0.05 * max(xmax - xmin, 1e-9), 0.05 * max(ymax - ymin, 1e-9)
    view = (xmin - mx, -(ymax + my), (xmax - xmin) + 2 * mx, (ymax - ymin) + 2 * my)
    box = " ".join(map(_fmt, view))
    if not all(map(math.isfinite, view)):
        raise DataError(f"view box {box} overflows float64")

    dot_r = 0.008 * span
    stroke = 0.004 * span
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="640" viewBox="{box}">\n',
    ]
    # One %-template per circle on Python floats: "%.6g" formats as _fmt does.
    circle = f'<circle cx="%.6g" cy="%.6g" r="{_fmt(dot_r)}" fill="%s"/>\n'
    parts += [circle % (x, y, PALETTE[label % len(PALETTE)])
              for x, y, label in zip(pts[:, 0].tolist(), (-pts[:, 1]).tolist(), lab.astype(np.int64).tolist())]
    for label in sorted(ellipses):
        color = PALETTE[int(label) % len(PALETTE)]
        for spec in ellipses[label]:
            deg = math.degrees(spec.rotation)
            parts.append(
                f'<ellipse cx="0" cy="0" rx="{_fmt(spec.semi_axes[0])}" ry="{_fmt(spec.semi_axes[1])}" '
                f'transform="translate({_fmt(spec.center[0])} {_fmt(-spec.center[1])}) rotate({_fmt(-deg)})" '
                f'fill="none" stroke="{color}" stroke-width="{_fmt(stroke)}"/>\n'
            )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(parts))


def grid_lattice(coords: np.ndarray, grid_n: int) -> np.ndarray:
    """Inclusive, evenly spaced grid over the coordinate bounding box.

    Returned row-major with row 0 at the top of the y-extent, so the point
    set is independent of the corner order of the box.
    """
    if grid_n < 2:
        raise DataError(f"grid_n must be >= 2, got {grid_n}")
    c = np.asarray(coords, dtype=np.float64)
    xmin, xmax = float(c[:, 0].min()), float(c[:, 0].max())
    ymin, ymax = float(c[:, 1].min()), float(c[:, 1].max())
    xs = np.linspace(xmin, xmax, grid_n)
    ys = np.linspace(ymin, ymax, grid_n)[::-1]
    return np.column_stack([np.tile(xs, grid_n), np.repeat(ys, grid_n)])


def _to_bytes_(values: np.ndarray) -> np.ndarray:
    """Decoded values mapped from [0, 1] onto 0..255: clipped, scaled and rounded in place, then cast."""
    np.clip(values, 0.0, 1.0, out=values)
    values *= 255.0
    return np.rint(values, out=values).astype(np.uint8)


def decode_to_bytes(model: DeVae, point: np.ndarray) -> np.ndarray:
    """Decode one projection-space point and map [0,1] onto 0..255."""
    return _to_bytes_(model.decode(point.reshape(1, 2)).data[0])


def write_pgm(path, image: np.ndarray) -> None:
    """Binary (P5) PGM with max value 255."""
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image, dtype=np.uint8).tobytes())


def grid_inverse_sheet(model: DeVae, coords: np.ndarray, grid_n: int, path) -> str:
    """Decode an evenly spaced grid over ``coords`` into one tiled image.

    Each tile is its grid point decoded alone (``DeVae.decode_each``, whose
    one-row products run in lanes) and mapped to bytes, in a (grid_n*s) x
    (grid_n*s) P5 PGM, where the model's output dimension is s*s. Row 0 of
    the sheet is the top of the projection's y-extent. When the output
    dimension is not a perfect square, the decoded vectors are dumped as CSV
    instead; the return value names the format written. The grid is decoded
    ``INFER_CHUNK`` points at a time, so no layer's output for a large grid,
    nor the PGM branch's float64 values, is held whole.
    """
    d = model.config.input_dim
    s = math.isqrt(d)
    points = grid_lattice(coords, grid_n)
    chunks = (model.decode_each(points[i : i + INFER_CHUNK]).data for i in range(0, len(points), INFER_CHUNK))
    if s * s != d:
        write_csv(path, ["x", "y"] + [f"f{i}" for i in range(d)], np.hstack([points, np.vstack([*chunks])]))
        return "csv"
    tiles = np.concatenate([*map(_to_bytes_, chunks)])  # each chunk's float64 values freed once mapped
    write_pgm(path, tiles.reshape(grid_n, grid_n, s, s).transpose(0, 2, 1, 3).reshape(grid_n * s, grid_n * s))
    return "pgm"
