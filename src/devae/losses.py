"""The entropy term and the weighted combination of the three loss terms.

    total = recon + lambda_proj * proj + lambda_ent * ent

The reconstruction and projection terms are the ops ``tensor.bce_logits``
and ``tensor.squared_error``, called as ``(target, prediction)``: recon is
``(x, decoder output)`` and proj is ``(y, mu)``; ``bce_logits`` checks that
its targets lie in [0, 1]. Both sum over features per sample and average
over the batch (per-sample sums keep the magnitudes comparable across
datasets of different width). The entropy term is the batch-mean negated
differential entropy, so it rewards spread and can drive the total
negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError
from .gaussian import LATENT_DIM, GaussianLatent


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
