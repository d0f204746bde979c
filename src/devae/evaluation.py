"""Test-split metrics, class medoids, and per-class uncertainty ellipses.

Evaluation always runs with zero reparameterization noise, so repeated
calls on the same model give identical numbers. The projection loss is
always squared error; the reconstruction loss follows the model config.

A class medoid is the member with the least summed Euclidean distance to its
classmates. It is found exactly by a bounded search that evaluates a few
distance rows per class instead of all n (``_medoid``); the sums it compares
are bit-identical to a full pairwise scan's, exact ties go to the lowest
sample index, and a class with a NaN or infinite point is a DataError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle, gather_rows
from .errors import ContractError, DataError
from .gaussian import EllipseSpec, GaussianLatent, ellipse_from_cov
from .losses import LossBreakdown, total_loss
from .model import INFER_CHUNK, DeVae, forward_train
from .tensor import no_grad


def evaluate(model: DeVae, bundle: DatasetBundle, split: str = "test",
             chunk_size: int = INFER_CHUNK) -> LossBreakdown:
    """Mean per-sample loss components over one split, deterministic."""
    idx = bundle.indices(split)
    if idx.size == 0:
        raise DataError(f"split {split!r} is empty")
    sums = np.zeros(3)
    with no_grad():
        for start in range(0, idx.size, chunk_size):
            rows = idx[start : start + chunk_size]
            result = forward_train(model, gather_rows(bundle.X, rows), bundle.Y[rows], eps=None)
            b = result.breakdown
            sums += np.array([b.recon, b.proj, b.ent]) * rows.size
    means = sums / idx.size
    return total_loss(means[0], means[1], means[2], model.config.weights)


def _distance_row(cols: list[np.ndarray], i: int) -> np.ndarray:
    """Euclidean distances from member i to every member, given the columns.

    Squared coordinate differences are added in column order, so
    ``_distance_row(cols, i).sum()`` is bit-identical to entry i of the
    one-shot ``sqrt(((p[:, None] - p[None]) ** 2).sum(axis=2)).sum(axis=1)``.
    """
    row = None
    for col in cols:
        d = col[i] - col
        d *= d
        row = d if row is None else np.add(row, d, out=row)
    return np.sqrt(row, out=row)


def _medoid(points: np.ndarray) -> int:
    """Position of the point with the least summed distance S to all points.

    An exact bounded search after trimed (Newling & Fleuret, AISTATS 2017).
    Each evaluated row i raises a lower bound on every S(k):
      - the triangle bound S(k) >= |S(i) - n d(i,k)|;
      - the convexity bound S(k) >= S(i) + g . (p_k - p_i), with the
        subgradient g = sum over d(i,j) > 0 of (p_i - p_j) / d(i,j);
    each lowered by a relative slack that covers rounding. The search starts
    at the point nearest the centroid, then evaluates the point with the
    lowest bound until every bound left is above the best S. An exact tie is
    never pruned, so the lowest index among equal sums wins.
    """
    n, dim = points.shape
    cols = [np.ascontiguousarray(points[:, j]) for j in range(dim)]
    # Relative slack per dimension and per bit of n: thousands of times the
    # rounding error of a row, its sum and the bounds built from them. A
    # distance below tiny may have underflowed, so it joins no subgradient
    # and costs every bound an absolute n * tiny.
    slack, tiny = 1e-12 * (dim + n.bit_length()), 1e-140
    lower = np.zeros(n)
    best, best_sum = 0, np.inf
    i = int(np.argmin(((points - points.mean(axis=0)) ** 2).sum(axis=1)))
    for _ in range(n):
        row = _distance_row(cols, i)
        s = row.sum()
        if s < best_sum or (s == best_sum and i < best):
            best, best_sum = i, s
        if np.isfinite(s):  # an overflowed row bounds nothing
            n_row = n * row
            lower = np.maximum(lower, np.abs(s - n_row) - slack * (s + n_row) - n * tiny)
            inv = np.divide(1.0, row, out=np.zeros(n), where=row > tiny)
            along, l1 = np.zeros(n), np.zeros(n)  # g . (p_k - p_i), |p_k - p_i|_1
            for col in cols:
                v = col - col[i]
                along -= (v @ inv) * v
                l1 += np.abs(v)
            lower = np.maximum(lower, s + along - slack * (s + n * l1) - n * tiny)
        lower[i] = np.inf
        i = int(np.argmin(lower))
        if lower[i] > best_sum:
            break
    return best


def class_medoid_indices(points: np.ndarray, labels: np.ndarray) -> dict[int, int]:
    """Global index of each class's medoid (min total distance to classmates).

    Exact: the sums that decide it are bit-identical to a full pairwise
    scan's, and exact ties go to the lowest sample index. A class with a NaN
    or infinite point is a DataError.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    out: dict[int, int] = {}
    for label in np.unique(labels):
        member_idx = np.flatnonzero(labels == label)
        if member_idx.size == 0:
            raise DataError(f"class {label} is empty")
        members = points[member_idx]
        finite = np.isfinite(members).all(axis=1)
        if not finite.all():
            raise DataError(f"class {label}: point {member_idx[np.argmin(finite)]} is not finite")
        out[int(label)] = int(member_idx[_medoid(members)])
    return out


def class_medoid(points: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Per-class medoid coordinates; always an actual member point."""
    points = np.asarray(points, dtype=np.float64)
    return {label: points[i].copy() for label, i in class_medoid_indices(points, labels).items()}


def class_ellipses(latent: GaussianLatent, labels: np.ndarray) -> dict[int, list[EllipseSpec]]:
    """Per-class k = 1, 2, 3 uncertainty ellipses around the medoids of the encoded means.

    ``latent`` is the encoding of the labelled rows, for example
    ``model.encode_rows(X)``. A class's ellipses are drawn from the
    covariance the encoder predicts for its medoid sample
    (``GaussianLatent.covariance``).
    """
    if latent.head == "none":
        raise ContractError('head "none" carries no covariance to draw')
    if labels is None:
        raise ContractError("class ellipses need labels")
    mu = latent.mu.data
    out: dict[int, list[EllipseSpec]] = {}
    for label, i in class_medoid_indices(mu, labels).items():
        cov, det = latent.covariance(i)
        out[label] = [ellipse_from_cov(mu[i], cov, k, det) for k in (1, 2, 3)]
    return out


@dataclass(frozen=True)
class MetricsRow:
    """One head variant's mean/std test metrics over repeated runs."""

    head: str
    proj_mean: float
    proj_std: float
    recon_mean: float
    recon_std: float
    epochs_mean: float
    epochs_std: float
    n_runs: int

    def __post_init__(self):
        if self.n_runs < 1:
            raise ContractError("n_runs must be >= 1")
        if min(self.proj_std, self.recon_std, self.epochs_std) < 0:
            raise ContractError("standard deviations cannot be negative")

    def as_dict(self) -> dict:
        return {
            "head": self.head,
            "proj_loss": {"mean": self.proj_mean, "std": self.proj_std},
            "recon_loss": {"mean": self.recon_mean, "std": self.recon_std},
            "epochs": {"mean": self.epochs_mean, "std": self.epochs_std},
            "n_runs": self.n_runs,
        }


def metrics_to_json(rows: list[MetricsRow], dataset: str = "") -> str:
    return json.dumps(
        {"dataset": dataset, "rows": [r.as_dict() for r in rows]},
        indent=2,
    )


def format_metrics_table(rows: list[MetricsRow]) -> str:
    """Aligned text table: one column per head, one block row per metric."""
    blocks = [
        ("proj_loss", lambda r: (r.proj_mean, r.proj_std)),
        ("recon_loss", lambda r: (r.recon_mean, r.recon_std)),
        ("epochs", lambda r: (r.epochs_mean, r.epochs_std)),
    ]
    cells = {
        name: [f"{picker(r)[0]:.6g} ± {picker(r)[1]:.3g}" for r in rows]
        for name, picker in blocks
    }
    width = max(
        [len(r.head) for r in rows]
        + [len(c) for cols in cells.values() for c in cols]
        + [len(name) for name, _ in blocks]
    ) + 2
    lines = ["".join(["metric".ljust(12)] + [r.head.ljust(width) for r in rows])]
    for name, _ in blocks:
        lines.append("".join([name.ljust(12)] + [c.ljust(width) for c in cells[name]]))
    return "\n".join(lines) + "\n"
