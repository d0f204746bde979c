"""Latent Gaussian families: parameterization, differential entropy, sampling.

Three covariance structures are supported, in increasing order of freedom:

* isotropic  — one shared variance, sigma^2 * I
* diagonal   — one variance per latent dimension
* full       — Sigma = L L^T with a lower-triangular Cholesky factor L

plus the deterministic "none" head (a plain autoencoder that predicts only
the latent mean). Variances live in log-space and Cholesky diagonals pass
through exp, so positivity holds by construction. Differential entropies:

    isotropic:  (q/2) * (1 + ln 2pi + ln sigma^2)
    diagonal:   1/2 * sum_i (1 + ln 2pi + ln sigma_i^2)
    full:       (q/2) * (1 + ln 2pi) + sum_i ln L_ii

All entropy and sampling paths are built from tape ops, so gradients flow
to the raw head parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DivergenceError, GeometryError
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


def _tri_lower_count(q: int) -> int:
    return q * (q - 1) // 2


# -- entropy -----------------------------------------------------------------


def entropy_isotropic(q: int, log_var) -> Tensor:
    """Entropy of N(mu, sigma^2 I) in q dimensions from log sigma^2.

    Elementwise over the input, so a [batch, 1] tensor of log-variances
    yields a [batch, 1] tensor of entropies.
    """
    if q < 1:
        raise ContractError(f"latent dimension must be >= 1, got {q}")
    return (0.5 * q) * (T.add(log_var, 1.0 + LN_2PI))


def entropy_diagonal(log_vars) -> Tensor:
    """Entropy of a diagonal Gaussian from per-dimension log-variances.

    Sums over the last axis: [batch, q] in, [batch, 1] out.
    """
    lv = log_vars if isinstance(log_vars, Tensor) else Tensor(log_vars)
    per_dim = T.add(lv, 1.0 + LN_2PI)
    if lv.data.ndim == 1:
        return 0.5 * T.tsum(per_dim)
    return 0.5 * T.tsum(per_dim, axis=1, keepdims=True)


def entropy_full(chol_diag) -> Tensor:
    """Entropy of N(mu, L L^T) from the diagonal entries of L.

    Off-diagonal entries do not enter: det(Sigma) = prod(L_ii)^2. Sums over
    the last axis: [batch, q] in, [batch, 1] out.
    """
    d = chol_diag if isinstance(chol_diag, Tensor) else Tensor(chol_diag)
    if np.any(d.data < 0.0):
        raise ContractError("Cholesky diagonal entries must be positive")
    if np.any(d.data == 0.0):
        # Reachable only when exp() underflows on a runaway raw parameter.
        raise DivergenceError("Cholesky diagonal underflowed to zero (entropy is -inf)")
    if d.data.ndim == 1:
        q = d.data.shape[0]
        return (0.5 * q) * (1.0 + LN_2PI) + T.tsum(T.log(d))
    q = d.data.shape[1]
    return T.add(T.tsum(T.log(d), axis=1, keepdims=True), (0.5 * q) * (1.0 + LN_2PI))


# -- the latent value type -----------------------------------------------------


class GaussianLatent:
    """A batch of per-sample latent Gaussians sharing one head variant.

    ``mu`` is [batch, q]. Depending on ``head``, exactly one parameter block
    is present: ``log_var`` ([batch, 1] isotropic, [batch, q] diagonal) or
    ``chol_raw`` ([batch, q(q+1)/2] full; row-major strict lower triangle
    first, then diagonal raws, diagonal materialized through exp).
    """

    def __init__(self, head: str, mu: Tensor, log_var: Tensor | None = None,
                 chol_raw: Tensor | None = None):
        if head not in HEADS:
            raise ContractError(f"unknown head {head!r}")
        mu = mu if isinstance(mu, Tensor) else Tensor(mu)
        if mu.data.ndim != 2:
            raise ContractError(f"mu must be [batch, q], got shape {mu.shape}")
        q = mu.shape[1]
        if head == "none" and (log_var is not None or chol_raw is not None):
            raise ContractError('head "none" carries only mu')
        if head in ("isotropic", "diagonal"):
            if log_var is None or chol_raw is not None:
                raise ContractError(f"head {head!r} needs log_var and nothing else")
            log_var = log_var if isinstance(log_var, Tensor) else Tensor(log_var)
            want = 1 if head == "isotropic" else q
            if log_var.data.ndim != 2 or log_var.shape != (mu.shape[0], want):
                raise ContractError(
                    f"log_var for head {head!r} must be [batch, {want}], got {log_var.shape}"
                )
        if head == "full":
            if chol_raw is None or log_var is not None:
                raise ContractError('head "full" needs chol_raw and nothing else')
            chol_raw = chol_raw if isinstance(chol_raw, Tensor) else Tensor(chol_raw)
            want = q * (q + 1) // 2
            if chol_raw.data.ndim != 2 or chol_raw.shape != (mu.shape[0], want):
                raise ContractError(
                    f"chol_raw must be [batch, {want}], got {chol_raw.shape}"
                )
        self.head = head
        self.mu = mu
        self.log_var = log_var
        self.chol_raw = chol_raw

    @property
    def batch(self) -> int:
        return self.mu.shape[0]

    @property
    def q(self) -> int:
        return self.mu.shape[1]

    # -- graph-building pieces ---------------------------------------------

    def chol_diag(self) -> Tensor:
        """Materialized L diagonal, exp of the trailing chol_raw columns."""
        nl = _tri_lower_count(self.q)
        return T.exp(T.slice_cols(self.chol_raw, nl, nl + self.q))

    def entropy(self) -> Tensor:
        """Per-sample differential entropy, [batch, 1]; zeros for head "none"."""
        if self.head == "none":
            return Tensor(np.zeros((self.batch, 1)))
        if self.head == "isotropic":
            return entropy_isotropic(self.q, self.log_var)
        if self.head == "diagonal":
            return entropy_diagonal(self.log_var)
        return entropy_full(self.chol_diag())

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
        if self.head == "full":
            diag = self.chol_diag()
            strict = T.slice_cols(self.chol_raw, 0, _tri_lower_count(self.q))
            return T.add(self.mu, T.tril_matvec(strict, diag, eps))
        sigma = T.exp(0.5 * self.log_var)  # isotropic: [batch, 1] broadcasts over q
        return T.add(self.mu, T.mul(sigma, eps))

    # -- numpy-side materialization -----------------------------------------

    def chol_matrices(self, rows) -> np.ndarray:
        """Lower-triangular L of each sample in ``rows``, [len(rows), q, q] (full head only)."""
        q = self.q
        nl = _tri_lower_count(q)
        raw = self.chol_raw.data[rows]
        L = np.zeros((raw.shape[0], q, q))
        r, c = np.tril_indices(q, -1)  # row-major, the order chol_raw stores them
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
        var = np.exp(self.log_var.data[rows])
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


def ellipse_from_cov(center, cov, k: int, det: float | None = None) -> EllipseSpec:
    """Ellipse of the set {p : (p-center)^T Sigma^-1 (p-center) = k^2}.

    Semi-axes are k times the square roots of Sigma's eigenvalues; rotation
    is the angle of the dominant eigenvector, folded into (-pi/2, pi/2] with
    ties broken toward 0.

    ``det`` is Sigma's determinant when the caller knows it more accurately
    than ``cov`` does; a full head reads it off its Cholesky diagonal,
    (L00 L11)^2. The minor eigenvalue is then det / lambda1, which stays
    positive for a near-singular Sigma where (tr - sqrt(disc)) / 2 cancels
    to zero or below.
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
    root = math.sqrt(disc)
    lam1 = 0.5 * (tr + root)
    lam2 = 0.5 * (tr - root) if det is None else det / lam1
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
