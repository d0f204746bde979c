"""The 2-D latent Gaussian families: parameterization, entropy, sampling.

The latent is the projection plane, so it is fixed at ``LATENT_DIM = 2``.
Three covariance structures are supported, in increasing order of freedom:

* isotropic  — one shared variance, sigma^2 * I
* diagonal   — one variance per latent dimension
* full       — Sigma = L L^T with a lower-triangular Cholesky factor
               L = [[L00, 0], [L10, L11]]

plus the deterministic "none" head (a plain autoencoder that predicts only
the latent mean). Each head's parameters carry the log standard deviation
s_i of every latent dimension: s = ln sigma^2 / 2 (one shared value for
isotropic, one per dimension for diagonal) or s_i = ln L_ii (full, whose
diagonal passes through exp). Positivity holds by construction, and every
head's differential entropy has one form:

    H = (1 + ln 2pi) + s_0 + s_1

A reparameterized sample (``GaussianLatent.sample``) is a forward function
of mu and the raw head parameters, paired with its backward
(``sample_backward``); the entropy term of the loss is ``losses.ent_loss``
over the per-sample ``GaussianLatent.entropy``.
``GaussianLatent.covariance`` materializes one sample's 2x2 Sigma, with its
determinant, for drawing ellipses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError, GeometryError
from .tensor import Tensor, as_array

LN_2PI = math.log(2.0 * math.pi)

# The projection space is 2-D: every latent mean is regressed onto a 2-D
# embedding, so no other latent width can be trained.
LATENT_DIM = 2

# The raw covariance-head outputs of one sample, named as ``project`` writes
# them: log-variances for isotropic (one, shared) and diagonal; for full, L10
# and then ln L00, ln L11.
HEAD_PARAMS = {
    "none": (),
    "isotropic": ("log_var",),
    "diagonal": ("log_var_0", "log_var_1"),
    "full": ("chol_raw_0", "chol_raw_1", "chol_raw_2"),
}
HEADS = tuple(HEAD_PARAMS)

# The largest log standard deviation s a covariance head may give: Sigma's
# entries reach e^(2s) and ``ellipse_from_cov`` squares sums of them, all
# finite below this bound (a standard deviation near 4e76). The same bound
# holds for |L10| on the log scale.
MAX_LOG_STD = math.log(np.finfo(np.float64).max) / 4 - 1


# -- the latent value type -----------------------------------------------------


class GaussianLatent:
    """A batch of per-sample 2-D latent Gaussians sharing one head variant.

    ``mu`` is [batch, 2]. ``params`` is the covariance head's raw output,
    [batch, len(HEAD_PARAMS[head])], or None for head "none".
    """

    def __init__(self, head: str, mu: Tensor, params: Tensor | None = None):
        if head not in HEADS:
            raise ContractError(f"unknown head {head!r}")
        mu = mu if isinstance(mu, Tensor) else Tensor(mu)
        if mu.data.ndim != 2 or mu.shape[1] != LATENT_DIM:
            raise ContractError(f"mu must be [batch, {LATENT_DIM}], got shape {mu.shape}")
        if head == "none":
            if params is not None:
                raise ContractError('head "none" carries only mu')
        else:
            if params is None:
                raise ContractError(f"head {head!r} needs params")
            params = params if isinstance(params, Tensor) else Tensor(params)
            want = (mu.shape[0], len(HEAD_PARAMS[head]))
            if params.shape != want:
                raise ContractError(f"params for head {head!r} must be {list(want)}, got {params.shape}")
        self.head = head
        self.mu = mu
        self.params = params

    @property
    def batch(self) -> int:
        return self.mu.shape[0]

    def _check_params(self, error: type[Exception], start: int = 0, stop: int | None = None,
                      rows: np.ndarray | None = None) -> None:
        """``error`` naming the first of samples start..stop-1 whose
        covariance would overflow: a NaN head output, a log standard
        deviation above ``MAX_LOG_STD`` or, for "full", |L10| above
        e**MAX_LOG_STD. A sample is named by its dataset row, ``rows[i]``,
        or by its position in the batch where ``rows`` is None."""
        raw = self.params.data[start:stop]
        if self.head == "full":
            ok = np.column_stack([np.abs(raw[:, 0]) <= math.exp(MAX_LOG_STD), raw[:, 1:] <= MAX_LOG_STD])
        else:
            ok = raw <= 2 * MAX_LOG_STD  # log-variances, 2 s
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise error(f"covariance head {self.head!r}: {HEAD_PARAMS[self.head][j]} = {raw[i, j]:g} "
                        f"of sample {start + i if rows is None else rows[start + i]} overflows the covariance")

    # -- entropy and sampling -----------------------------------------------

    def _log_std(self) -> np.ndarray:
        """Log standard deviations s: [batch, 1] for isotropic, [batch, 2] otherwise."""
        return self.params.data[:, 1:] if self.head == "full" else self.params.data * 0.5

    def _params_grad(self, g_s: np.ndarray) -> np.ndarray:
        """The gradient on ``params`` of a gradient ``g_s`` on ``_log_std()``."""
        if self.head != "full":
            return g_s * 0.5
        grad = np.zeros(self.params.shape)
        grad[:, 1:] = g_s
        return grad

    def entropy(self) -> np.ndarray:
        """Per-sample differential entropy, [batch, 1]; zeros for head "none".

        The isotropic head's one s stands for both dimensions.
        """
        if self.head == "none":
            return np.zeros((self.batch, 1))
        s = self._log_std()
        return s.sum(axis=1, keepdims=True) * (LATENT_DIM / s.shape[1]) + (0.5 * LATENT_DIM) * (1.0 + LN_2PI)

    def sample(self, eps, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
        """Reparameterized draw z = mu + L(params) eps, and exp(s), the scale ``sample_backward`` reads.

        ``eps`` is a [batch, 2] block of standard-normal draws; it is ignored
        for head "none", which returns mu unchanged and no scale. L is sigma I
        (isotropic), diag(sigma) or the Cholesky factor (full). A sample
        whose covariance would overflow leaves no finite loss: a
        DivergenceError (``_check_params``) naming the sample by its dataset
        row, ``rows[i]``, or by its position in the batch.
        """
        if self.head == "none":
            return self.mu.data, None
        eps = as_array(eps)
        if eps.shape != self.mu.shape:
            raise ContractError(f"eps must be [batch, 2] = {self.mu.shape}, got {eps.shape}")
        self._check_params(DivergenceError, rows=rows)
        scale = np.exp(self._log_std())  # isotropic: [batch, 1] broadcasts over both dimensions
        step = scale * eps
        if self.head == "full":  # z_1 = mu_1 + L11 eps_1 + L10 eps_0
            step[:, 1] += self.params.data[:, 0] * eps[:, 0]
        return self.mu.data + step, scale

    def sample_backward(self, g: np.ndarray, eps: np.ndarray, scale: np.ndarray | None):
        """The gradients on mu (``g`` itself) and on params (None for "none") of a gradient ``g`` on z."""
        if self.head == "none":
            return g, None
        g_scale = g * eps
        if self.head == "isotropic":
            g_scale = g_scale.sum(axis=1, keepdims=True)
        grad = self._params_grad(g_scale * scale)
        if self.head == "full":
            grad[:, :1] = g[:, 1:] * eps[:, :1]
        return g, grad

    # -- numpy-side materialization -----------------------------------------

    def covariance(self, i: int, rows: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """Sample i's 2x2 covariance Sigma and its determinant.

        The determinant comes from the factors Sigma is built from: var^2
        (isotropic), v0 v1 (diagonal) or (L00 L11)^2 (full). It stays
        positive for a near-singular Sigma, whose entries would cancel. A
        covariance that would overflow is a GeometryError (``_check_params``)
        naming the sample by its dataset row, ``rows[i]``, or by i.
        """
        if self.head == "none":
            raise ContractError('head "none" has no covariance')
        self._check_params(GeometryError, i, i + 1, rows)
        raw = self.params.data[i]
        if self.head == "full":
            l00, l11 = np.exp(raw[1:])
            L = np.array([[l00, 0.0], [raw[0], l11]])
            return L @ L.T, float(l00 * l11) ** 2
        var = np.exp(raw)
        v0, v1 = (var[0], var[0]) if self.head == "isotropic" else var
        return np.diag([v0, v1]), float(v0 * v1)


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
