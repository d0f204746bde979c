"""The three loss terms and their weighted combination.

    total = recon + lambda_proj * proj + lambda_ent * ent

Reconstruction and projection losses sum over features per sample and
average over the batch (per-sample sums keep the magnitudes comparable
across datasets of different width). The entropy term is the batch-mean
negated differential entropy, so it rewards spread and can drive the
total negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DivergenceError, DomainError
from .gaussian import LATENT_DIM, GaussianLatent
from .tensor import Tensor


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights for the projection and entropy terms."""

    lambda_proj: float
    lambda_ent: float

    def __post_init__(self):
        for name in ("lambda_proj", "lambda_ent"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ContractError(f"{name} must be finite and >= 0, got {v}")

    def combine(self, recon: float, proj: float, ent: float) -> float:
        """``recon + lambda_proj * proj + lambda_ent * ent``."""
        return recon + self.lambda_proj * proj + self.lambda_ent * ent

    def combine_node(self, recon: Tensor, proj: Tensor, ent: Tensor) -> Tensor:
        """``combine`` of three scalar loss tensors, one tape node."""
        data = np.asarray(self.combine(recon.item(), proj.item(), ent.item()))

        def backward(g):
            return ((recon, g), (proj, g * self.lambda_proj), (ent, g * self.lambda_ent))

        return T._node(data, (recon, proj, ent), backward)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar snapshot of one loss evaluation (ent is -H, may be negative)."""

    recon: float
    proj: float
    ent: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return {"recon": self.recon, "proj": self.proj, "ent": self.ent, "total": self.total}


def recon_mse(x: Tensor, x_hat: Tensor) -> Tensor:
    """Squared error summed over features, averaged over the batch."""
    return T.squared_error(x, x_hat)


def recon_bce(x: Tensor, logits: Tensor) -> Tensor:
    """Binary cross-entropy summed over features, averaged over the batch.

    Computed from the decoder's logits, not from probabilities
    (``tensor.bce_logits``), so the loss and its gradient stay exact where
    the sigmoid saturates. Targets must lie in [0, 1].
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if np.any(x.data < 0.0) or np.any(x.data > 1.0):
        lo, hi = float(x.data.min()), float(x.data.max())
        raise DomainError(f"bce targets must lie in [0, 1], got range [{lo}, {hi}]")
    return T.bce_logits(logits, x)


def proj_loss(y: Tensor, mu: Tensor) -> Tensor:
    """Mean squared Euclidean distance between targets y and latent means."""
    return T.squared_error(y, mu)


def ent_loss(latent: GaussianLatent) -> Tensor:
    """Batch mean of the negated differential entropy, one tape node on the
    head's params; exactly 0 for "none"."""
    if latent.head == "none":
        return Tensor(0.0)
    h = latent.entropy()
    s_shape = latent._log_std().shape
    factor = LATENT_DIM / s_shape[1]  # the isotropic head's one s counts for both dimensions

    def backward(g):
        g_s = np.full(s_shape, ((g * -1.0) / h.size) * factor)
        return ((latent.params, latent._params_grad(g_s)),)

    return T._node(np.asarray(-h.mean()), (latent.params,), backward)


def total_loss(recon: float, proj: float, ent: float, weights: LossWeights) -> LossBreakdown:
    """Combine scalar components per the composite objective.

    Raises on non-finite components, naming the offender; this is the
    divergence tripwire for the training loop.
    """
    recon, proj, ent = float(recon), float(proj), float(ent)
    for name, value in (("recon", recon), ("proj", proj), ("ent", ent)):
        if not math.isfinite(value):
            raise DivergenceError(f"loss component {name!r} is non-finite: {value}")
    return LossBreakdown(recon=recon, proj=proj, ent=ent, total=weights.combine(recon, proj, ent))
