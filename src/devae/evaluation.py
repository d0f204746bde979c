"""Test-split metrics, class medoids, and per-class uncertainty ellipses.

Evaluation always runs with zero reparameterization noise, so repeated
calls on the same model give identical numbers. The projection loss is
always squared error; the reconstruction loss follows the model config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle
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
            result = forward_train(model, bundle.X[rows], bundle.Y[rows], eps=None)
            b = result.breakdown
            sums += np.array([b.recon, b.proj, b.ent]) * rows.size
    means = sums / idx.size
    return total_loss(means[0], means[1], means[2], model.config.weights)


# Elements of one [rows, n] block of a class's distance matrix; each
# temporary of distance_sums stays at 2 MB whatever the class size.
MEDOID_BLOCK = 1 << 18


def distance_sums(points: np.ndarray) -> np.ndarray:
    """Each point's summed Euclidean distance to all points, a row block at a time.

    Bit-identical to the one-shot
    ``sqrt(((p[:, None] - p[None]) ** 2).sum(axis=2)).sum(axis=1)``: squared
    coordinate differences are added in the same order and every row sum
    reduces the same n values, but no n x n x dim temporary is built.
    """
    n = points.shape[0]
    cols = [np.ascontiguousarray(points[:, j]) for j in range(points.shape[1])]
    rows = max(1, MEDOID_BLOCK // n)
    sums = np.empty(n)
    for start in range(0, n, rows):
        block = None
        for col in cols:
            d = col[start : start + rows, None] - col[None, :]
            d *= d
            block = d if block is None else np.add(block, d, out=block)
        sums[start : start + rows] = np.sqrt(block, out=block).sum(axis=1)
    return sums


def class_medoid_indices(points: np.ndarray, labels: np.ndarray) -> dict[int, int]:
    """Global index of each class's medoid (min total distance to classmates).

    Exact ties go to the lowest sample index.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    out: dict[int, int] = {}
    for label in np.unique(labels):
        member_idx = np.flatnonzero(labels == label)
        if member_idx.size == 0:
            raise DataError(f"class {label} is empty")
        dist_sums = distance_sums(points[member_idx])
        out[int(label)] = int(member_idx[int(np.argmin(dist_sums))])
    return out


def class_medoid(points: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Per-class medoid coordinates; always an actual member point."""
    points = np.asarray(points, dtype=np.float64)
    return {label: points[i].copy() for label, i in class_medoid_indices(points, labels).items()}


def _mean_full_covariance(L: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean of L_i L_i^T over a stack of Cholesky factors, and its determinant.

    With A the factors' transposes stacked into an [n q, q] array, the mean
    is A^T A / n, and A = QR gives its determinant as prod(diag R)^2 / n^q.
    That stays positive for near-singular members, where the eigenvalues of
    the averaged entries cancel.
    """
    n, q = L.shape[0], L.shape[1]
    Lt = L.transpose(0, 2, 1)
    R = np.linalg.qr(Lt.reshape(n * q, q), mode="r")
    return (L @ Lt).mean(axis=0), float(np.prod(np.diag(R))) ** 2 / n**q


def class_ellipses(
    latent: GaussianLatent,
    labels: np.ndarray,
    k_list: tuple[int, ...] = (1, 2, 3),
    average_cov: bool = False,
) -> dict[int, list[EllipseSpec]]:
    """Per-class uncertainty ellipses around the medoids of the encoded means.

    ``latent`` is the encoding of the labelled rows, for example
    ``model.encode_rows(X)``. The ellipse covariance is the one the encoder
    predicts for the medoid sample; set ``average_cov`` to use the mean class
    covariance instead.
    """
    if latent.head == "none":
        raise ContractError('head "none" carries no covariance to draw')
    if labels is None:
        raise ContractError("class ellipses need labels")
    mu = latent.mu.data
    medoids = class_medoid_indices(mu, labels)
    out: dict[int, list[EllipseSpec]] = {}
    for label, medoid_idx in medoids.items():
        rows = np.flatnonzero(np.asarray(labels) == label) if average_cov else [medoid_idx]
        if latent.head != "full":
            cov = latent.covariance_matrices(rows).mean(axis=0)
            det = float(np.prod(np.diag(cov)))  # diagonal: the product of the variances
        elif average_cov:
            cov, det = _mean_full_covariance(latent.chol_matrices(rows))
        else:
            cov = latent.covariance_matrix(medoid_idx)
            det = float(np.prod(np.diag(latent.chol_matrix(medoid_idx)))) ** 2
        center = mu[medoid_idx]
        out[label] = [ellipse_from_cov(center, cov, k, det) for k in k_list]
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
