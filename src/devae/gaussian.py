"""Latent Gaussian families: parameterization, differential entropy, sampling.

Three covariance structures are supported, in increasing order of freedom:

* isotropic  — one shared variance, sigma^2 * I
* diagonal   — one variance per latent dimension
* full       — Sigma = L L^T with a lower-triangular Cholesky factor L

plus the deterministic "none" head (a plain autoencoder that predicts only
the latent mean). Each head's parameters carry the log standard deviation
s_i of every latent dimension: s = ln sigma^2 / 2 (one shared value for
isotropic, one per dimension for diagonal) or s_i = ln L_ii (full, whose
diagonal passes through exp). Positivity holds by construction, and every
head's differential entropy has one form:

    H = (q/2) * (1 + ln 2pi) + sum_i s_i

Entropy and sampling are built from tape ops, so gradients flow to the raw
head parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, GeometryError
from .tensor import Tensor

LN_2PI = math.log(2.0 * math.pi)

HEADS = ("none", "isotropic", "diagonal", "full")


def head_param_count(head: str, q: int) -> int:
    """Width of the covariance head output for one sample (0 for "none")."""
    if head == "none":
        return 0
    if head == "isotropic":
        return 1
    if head == "diagonal":
        return q
    if head == "full":
        return q * (q + 1) // 2
    raise ContractError(f"unknown head {head!r}")


def head_param_names(head: str, q: int) -> list[str]:
    """Names of the covariance head's output columns, as ``project`` writes them."""
    n = head_param_count(head, q)
    if head == "isotropic":
        return ["log_var"]
    prefix = "chol_raw" if head == "full" else "log_var"
    return [f"{prefix}_{i}" for i in range(n)]


def _tri_lower_count(q: int) -> int:
    return q * (q - 1) // 2


# -- the latent value type -----------------------------------------------------


class GaussianLatent:
    """A batch of per-sample latent Gaussians sharing one head variant.

    ``mu`` is [batch, q]. ``params`` is the covariance head's raw output,
    [batch, head_param_count(head, q)], or None for head "none":
    log-variances for isotropic (one) and diagonal (q); for full, the strict
    lower triangle of L in row-major order, then the q values ln L_ii.
    """

    def __init__(self, head: str, mu: Tensor, params: Tensor | None = None):
        if head not in HEADS:
            raise ContractError(f"unknown head {head!r}")
        mu = mu if isinstance(mu, Tensor) else Tensor(mu)
        if mu.data.ndim != 2:
            raise ContractError(f"mu must be [batch, q], got shape {mu.shape}")
        if head == "none":
            if params is not None:
                raise ContractError('head "none" carries only mu')
        else:
            if params is None:
                raise ContractError(f"head {head!r} needs params")
            params = params if isinstance(params, Tensor) else Tensor(params)
            want = (mu.shape[0], head_param_count(head, mu.shape[1]))
            if params.shape != want:
                raise ContractError(f"params for head {head!r} must be {list(want)}, got {params.shape}")
        self.head = head
        self.mu = mu
        self.params = params

    @property
    def batch(self) -> int:
        return self.mu.shape[0]

    @property
    def q(self) -> int:
        return self.mu.shape[1]

    # -- graph-building pieces ---------------------------------------------

    def _log_std(self) -> Tensor:
        """Log standard deviations s: [batch, 1] for isotropic, [batch, q] otherwise."""
        if self.head == "full":
            nl = _tri_lower_count(self.q)
            return T.slice_cols(self.params, nl, nl + self.q)
        return 0.5 * self.params

    def entropy(self) -> Tensor:
        """Per-sample differential entropy, [batch, 1]; zeros for head "none".

        The isotropic head's one s stands for all q dimensions.
        """
        if self.head == "none":
            return Tensor(np.zeros((self.batch, 1)))
        s = self._log_std()
        sum_s = T.tsum(s, axis=1, keepdims=True) * (self.q / s.shape[1])
        return T.add(sum_s, (0.5 * self.q) * (1.0 + LN_2PI))

    def sample(self, eps) -> Tensor:
        """Reparameterized draw: mu + scale(eps), differentiable in the params.

        ``eps`` is a [batch, q] block of standard-normal draws; it is ignored
        for head "none", which returns mu unchanged.
        """
        if self.head == "none":
            return self.mu
        eps = eps if isinstance(eps, Tensor) else Tensor(eps)
        if eps.shape != (self.batch, self.q):
            raise ContractError(
                f"eps must be [batch, q] = {(self.batch, self.q)}, got {eps.shape}"
            )
        scale = T.exp(self._log_std())  # isotropic: [batch, 1] broadcasts over q
        if self.head == "full":
            strict = T.slice_cols(self.params, 0, _tri_lower_count(self.q))
            return T.add(self.mu, T.tril_matvec(strict, scale, eps))
        return T.add(self.mu, T.mul(scale, eps))

    # -- numpy-side materialization -----------------------------------------

    def chol_matrices(self, rows) -> np.ndarray:
        """Lower-triangular L of each sample in ``rows``, [len(rows), q, q] (full head only)."""
        q = self.q
        nl = _tri_lower_count(q)
        raw = self.params.data[rows]
        L = np.zeros((raw.shape[0], q, q))
        r, c = np.tril_indices(q, -1)  # row-major, the order params stores them
        L[:, r, c] = raw[:, :nl]
        d = np.arange(q)
        L[:, d, d] = np.exp(raw[:, nl:])
        return L

    def chol_matrix(self, i: int) -> np.ndarray:
        """Lower-triangular L for sample i (full head only)."""
        return self.chol_matrices([i])[0]

    def covariance_matrices(self, rows) -> np.ndarray:
        """Covariance of each sample in ``rows``, [len(rows), q, q]; symmetric positive definite."""
        if self.head == "none":
            raise ContractError('head "none" has no covariance')
        if self.head == "full":
            L = self.chol_matrices(rows)
            return L @ L.transpose(0, 2, 1)
        var = np.exp(self.params.data[rows])
        if self.head == "isotropic":
            return var[:, :, None] * np.eye(self.q)
        cov = np.zeros((var.shape[0], self.q, self.q))
        d = np.arange(self.q)
        cov[:, d, d] = var
        return cov

    def covariance_matrix(self, i: int = 0) -> np.ndarray:
        """Materialized covariance of sample i; symmetric positive definite."""
        return self.covariance_matrices([i])[0]


# -- ellipse geometry ---------------------------------------------------------


@dataclass(frozen=True)
class EllipseSpec:
    """A k-standard-deviation covariance ellipse in projection space."""

    center: tuple[float, float]
    semi_axes: tuple[float, float]
    rotation: float
    k: int

    def __post_init__(self):
        if self.k not in (1, 2, 3):
            raise GeometryError(f"k must be in {{1, 2, 3}}, got {self.k}")
        a, b = self.semi_axes
        if not (a >= b > 0):
            raise GeometryError(f"semi-axes must satisfy a >= b > 0, got {self.semi_axes}")
        if not (-math.pi / 2 < self.rotation <= math.pi / 2):
            raise GeometryError(f"rotation must lie in (-pi/2, pi/2], got {self.rotation}")

    def boundary_points(self, n: int = 64) -> np.ndarray:
        """n points on the ellipse boundary, for rendering and verification."""
        t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        a, b = self.semi_axes
        xy = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        return xy @ rot.T + np.asarray(self.center)


def ellipse_from_cov(center, cov, k: int, det: float) -> EllipseSpec:
    """Ellipse of the set {p : (p-center)^T Sigma^-1 (p-center) = k^2}.

    Semi-axes are k times the square roots of Sigma's eigenvalues; rotation
    is the angle of the dominant eigenvector, folded into (-pi/2, pi/2] with
    ties broken toward 0.

    ``det`` is Sigma's determinant, computed by the caller from the factors
    Sigma was built from: the product of the variances for a diagonal
    Sigma, (L00 L11)^2 for a Cholesky factor L. The minor eigenvalue is
    det / lambda1, which stays positive for a near-singular Sigma where
    (tr - sqrt(disc)) / 2 would cancel to zero or below.
    """
    c = np.asarray(cov, dtype=np.float64)
    if c.shape != (2, 2):
        raise GeometryError(f"covariance must be 2x2, got shape {c.shape}")
    a, b, b2, d = c[0, 0], c[0, 1], c[1, 0], c[1, 1]
    scale = max(abs(a), abs(b), abs(d), 1.0)
    if abs(b - b2) > 1e-9 * scale:
        raise GeometryError(f"covariance is not symmetric: {c.tolist()}")
    tr = a + d
    disc = max(tr * tr - 4.0 * (a * d - b * b), 0.0)
    lam1 = 0.5 * (tr + math.sqrt(disc))
    lam2 = min(det / lam1, lam1)  # rounding must not lift the minor axis past the major
    if lam2 <= 0.0:
        raise GeometryError(f"covariance is not positive definite: {c.tolist()}")
    if abs(b) <= 1e-12 * scale:
        rotation = 0.0 if a >= d else math.pi / 2
    else:
        rotation = math.atan2(lam1 - a, b)
        if rotation <= -math.pi / 2:
            rotation += math.pi
        elif rotation > math.pi / 2:
            rotation -= math.pi
    return EllipseSpec(
        center=(float(center[0]), float(center[1])),
        semi_axes=(float(k) * math.sqrt(lam1), float(k) * math.sqrt(lam2)),
        rotation=float(rotation),
        k=int(k),
    )
