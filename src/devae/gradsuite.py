"""Finite-difference verification suite for the autodiff engine.

Checks every tensor op, the weighted objective, each head's sample and
entropy node and, for each head variant and reconstruction
kind, every loss component plus the full composite objective on a small
two-hidden-layer model. Central differences with step 1e-5 are the oracle;
the pass bar is a relative error below 1e-4 (1e-6 for the smooth
closed-form entropy terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .gaussian import HEAD_PARAMS, HEADS, GaussianLatent
from .losses import LossWeights, ent_loss, proj_loss, recon_bce, recon_mse
from .model import RECON_KINDS, DeVae, ModelConfig, forward_train
from .tensor import Tensor, gradient_check

DEFAULT_TOL = 1e-4
ENTROPY_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _rand(rng, shape):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


def _op_cases(rng) -> list[tuple[str, Callable[[], Tensor], list[Tensor]]]:
    """The tensor ops, the weighted objective, and each head's sample node.

    A non-scalar output is scored by ``squared_error`` against a fixed target.
    """
    a = _rand(rng, (2, 3))
    b = _rand(rng, (2, 3))
    w = _rand(rng, (4, 3))
    bias = _rand(rng, (4,))
    target = Tensor(rng.uniform(0.0, 1.0, size=(2, 3)))
    target_4 = Tensor(rng.uniform(-1.0, 1.0, size=(2, 4)))
    terms = [_rand(rng, ()) for _ in range(3)]
    cases = [
        ("linear", lambda: T.squared_error(T.linear(a, w, bias), target_4), [a, w, bias]),
        ("linear_relu", lambda: T.squared_error(T.linear(a, w, bias, act="relu"), target_4), [a, w, bias]),
        ("squared_error", lambda: T.squared_error(a, b), [a, b]),
        ("bce_logits", lambda: T.bce_logits(a, target), [a]),
        ("combine", lambda: LossWeights(3.0, 0.05).combine_node(*terms), terms),
    ]
    return cases + [_sample_case(rng, head) for head in ("isotropic", "diagonal", "full")]


def _sample_case(rng, head: str):
    mu, p = _rand(rng, (3, 2)), _rand(rng, (3, len(HEAD_PARAMS[head])))
    eps, target = rng.standard_normal((3, 2)), Tensor(rng.uniform(-1.0, 1.0, size=(3, 2)))
    return (f"sample:{head}", lambda: T.squared_error(GaussianLatent(head, mu, p).sample(eps), target), [mu, p])


def _entropy_cases(rng) -> list[tuple[str, Callable[[], Tensor], list[Tensor]]]:
    mu = Tensor(np.zeros((3, 2)))
    cases = []
    for head in ("isotropic", "diagonal", "full"):
        p = _rand(rng, (3, len(HEAD_PARAMS[head])))
        cases.append((f"entropy:{head}", lambda head=head, p=p: ent_loss(GaussianLatent(head, mu, p)), [p]))
    return cases


def _small_config(head: str, recon_kind: str, seed: int) -> ModelConfig:
    return ModelConfig(
        input_dim=6,
        encoder_widths=(8, 7),
        decoder_widths=(7, 8),
        head=head,
        recon_kind=recon_kind,
        weights=LossWeights(lambda_proj=3.0, lambda_ent=0.05),
        seed=seed,
    )


def _model_cases(rng, head: str, recon_kind: str):
    """Loss-level checks through a 2-hidden-layer model on a 4-sample batch."""
    model = DeVae(_small_config(head, recon_kind, int(rng.integers(0, 2**31))))
    # Biases off their zero init: a sample whose previous layer is all dead
    # would sit exactly on the relu kink, where differences see half a slope.
    for layer in model.layers:
        layer.bias.data[...] = rng.uniform(-0.5, 0.5, size=layer.bias.shape)
    x_raw = rng.uniform(0.05, 0.95, size=(4, 6)) if recon_kind == "bce" else rng.uniform(-2.0, 2.0, size=(4, 6))
    x = Tensor(x_raw)
    y = Tensor(rng.uniform(-2.0, 2.0, size=(4, 2)))
    eps = rng.standard_normal((4, 2))
    params = model.parameters()
    recon_fn = recon_bce if recon_kind == "bce" else recon_mse

    def recon_loss():
        latent = model.encode(x)
        return recon_fn(x, model.decode_logits(latent.sample(eps)))

    def projection():
        return proj_loss(y, model.encode(x).mu)

    def entropy_term():
        return ent_loss(model.encode(x))

    def full_objective():
        return forward_train(model, x, y, eps).total

    tag = f"{head}/{recon_kind}"
    cases = [
        (f"{tag}/recon", recon_loss, params),
        (f"{tag}/proj", projection, params),
        (f"{tag}/total", full_objective, params),
    ]
    if head != "none":
        cases.insert(2, (f"{tag}/ent", entropy_term, params))
    return cases


def run_gradient_suite(seed: int = 0) -> list[CheckResult]:
    """Every gradient check: op-level, then model-level over ``HEADS`` x ``RECON_KINDS``; deterministic per seed."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for name, build, params in _op_cases(rng):
        results.append(CheckResult(name, gradient_check(build, params), DEFAULT_TOL))
    for name, build, params in _entropy_cases(rng):
        err = gradient_check(build, params, floor=1e-8)
        results.append(CheckResult(name, err, ENTROPY_TOL))
    for head in HEADS:
        for kind in RECON_KINDS:
            for name, build, params in _model_cases(rng, head, kind):
                results.append(CheckResult(name, gradient_check(build, params), DEFAULT_TOL))
    return results
