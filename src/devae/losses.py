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
from .tensor import as_array


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


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar snapshot of one loss evaluation (ent is -H, may be negative)."""

    recon: float
    proj: float
    ent: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return {"recon": self.recon, "proj": self.proj, "ent": self.ent, "total": self.total}


def recon_mse(x, x_hat) -> float:
    """Squared error summed over features, averaged over the batch."""
    return T.squared_error(as_array(x), as_array(x_hat))


def recon_bce(x, logits) -> float:
    """Binary cross-entropy summed over features, averaged over the batch.

    Computed from the decoder's logits, not from probabilities
    (``tensor.bce_logits``), so the loss and its gradient stay exact where
    the sigmoid saturates. Targets must lie in [0, 1].
    """
    x = as_array(x)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError(f"bce targets must lie in [0, 1], got range [{float(x.min())}, {float(x.max())}]")
    return T.bce_logits(as_array(logits), x)


def proj_loss(y, mu) -> float:
    """Mean squared Euclidean distance between targets y and latent means."""
    return T.squared_error(as_array(y), as_array(mu))


def ent_loss(latent: GaussianLatent) -> float:
    """Batch mean of the negated differential entropy; exactly 0 for "none"."""
    return 0.0 if latent.head == "none" else float(-latent.entropy().mean())


def ent_loss_backward(latent: GaussianLatent, g: float) -> np.ndarray:
    """The gradient on the head's params of ``g * ent_loss(latent)`` (not for "none")."""
    s_shape = latent._log_std().shape
    factor = LATENT_DIM / s_shape[1]  # the isotropic head's one s counts for both dimensions
    return latent._params_grad(np.full(s_shape, ((g * -1.0) / latent.batch) * factor))


def total_loss(recon: float, proj: float, ent: float, weights: LossWeights) -> LossBreakdown:
    """Combine scalar components per the composite objective.

    The only place the weighted total is formed. Raises on a non-finite
    component or total, naming the offender; this is the divergence
    tripwire for the training loop.
    """
    recon, proj, ent = float(recon), float(proj), float(ent)
    total = recon + weights.lambda_proj * proj + weights.lambda_ent * ent
    for name, value in (("recon", recon), ("proj", proj), ("ent", ent), ("total", total)):
        if not math.isfinite(value):
            raise DivergenceError(f"loss component {name!r} is non-finite: {value}")
    return LossBreakdown(recon=recon, proj=proj, ent=ent, total=total)


def objective_backward(weights: LossWeights) -> tuple[float, float, float]:
    """The gradient of ``total_loss``'s total on (recon, proj, ent): the
    weights ``model.backward`` seeds the three loss terms with."""
    return 1.0, weights.lambda_proj, weights.lambda_ent
