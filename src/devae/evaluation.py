"""Test-split metrics, class medoids, and per-class uncertainty ellipses.

Evaluation always runs with zero reparameterization noise, so repeated
calls on the same model give identical numbers. The projection loss is
always squared error; the reconstruction loss follows the model config.

A class medoid is the member with the least summed Euclidean distance to its
classmates. It is found exactly by a bounded search that evaluates a few
distance rows per class instead of all n (``_medoid``); the sums it compares
are bit-identical to a full pairwise scan's, exact ties go to the lowest
sample index, and a class with a non-finite point or distance is a DataError.
"""

from __future__ import annotations

import numpy as np

from .data import DatasetBundle, gather_rows
from .errors import ContractError, DataError
from .gaussian import EllipseSpec, GaussianLatent, ellipse_from_cov
from .losses import LossBreakdown, total_loss
from .model import INFER_CHUNK, DeVae, forward_train
from .tensor import no_grad


def evaluate(model: DeVae, bundle: DatasetBundle, split: str = "test") -> LossBreakdown:
    """Mean per-sample loss components over one split, deterministic.

    The split runs through the model ``INFER_CHUNK`` rows at a time, without a tape.
    """
    idx = bundle.indices(split)
    if idx.size == 0:
        raise DataError(f"split {split!r} is empty")
    sums = np.zeros(3)
    with no_grad():
        for start in range(0, idx.size, INFER_CHUNK):
            rows = idx[start : start + INFER_CHUNK]
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


def _medoid(points: np.ndarray) -> int | None:
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
    None when an evaluated row overflows float64 (a finite row keeps S and every bound finite).
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
    with np.errstate(over="ignore", invalid="ignore"):  # the start is only a heuristic
        i = int(np.argmin(((points - points.mean(axis=0)) ** 2).sum(axis=1)))
    for _ in range(n):
        with np.errstate(over="ignore"):  # an overflowed square is inf, checked below
            row = _distance_row(cols, i)
        s = row.sum()
        if not np.isfinite(s):
            return None
        if s < best_sum or (s == best_sum and i < best):
            best, best_sum = i, s
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
    or infinite point, or whose member distances overflow, is a DataError.
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
        if (best := _medoid(members)) is None:
            raise DataError(f"class {label}: distances between members overflow float64")
        out[int(label)] = int(member_idx[best])
    return out


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
