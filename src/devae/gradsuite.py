"""Finite-difference verification suite for the hand-written backward functions.

Checks every tensor op, the weighted objective, each head's sample and
entropy term and, for each head variant and reconstruction kind, every loss
component plus the full composite objective through ``model.backward`` on a
small two-hidden-layer model; a component's check seeds the objective's
backward with that component's unit weight. Each check compares a backward
with central differences of its forward, step 1e-5; the pass bar is a
relative error below 1e-4 (1e-6 for the smooth closed-form entropy terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .gaussian import HEAD_PARAMS, HEADS, GaussianLatent
from .losses import LossWeights, ent_loss, ent_loss_backward, objective_backward, total_loss
from .model import RECON_KINDS, DeVae, ModelConfig, backward, forward_train
from .tensor import gradient_check

DEFAULT_TOL = 1e-4
ENTROPY_TOL = 1e-6

# (name, loss, grads, params): the forward's scalar and the backward's gradient on each of params.
Case = tuple[str, Callable[[], float], Callable[[], list[np.ndarray]], list[np.ndarray]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _rand(rng, shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def _linear_case(name: str, act: str, a, w, bias, target) -> Case:
    def grads():
        out = T.linear(a, w, bias, act=act)
        gw, gb = np.empty_like(w), np.empty_like(bias)
        ga = T.linear_backward(T.squared_error_backward(target, out, 1.0), a, w, out, act, gw, gb)
        return [ga, gw, gb]

    return (name, lambda: T.squared_error(target, T.linear(a, w, bias, act=act)), grads, [a, w, bias])


def _op_cases(rng) -> list[Case]:
    """The tensor ops, the weighted objective, and each head's sample.

    A non-scalar output is scored by ``squared_error`` against a fixed target.
    """
    a = _rand(rng, (2, 3))
    b = _rand(rng, (2, 3))
    w = _rand(rng, (4, 3))
    bias = _rand(rng, (4,))
    target = rng.uniform(0.0, 1.0, size=(2, 3))
    target_4 = rng.uniform(-1.0, 1.0, size=(2, 4))
    terms = [_rand(rng, ()) for _ in range(3)]
    weights = LossWeights(3.0, 0.05)
    cases = [
        _linear_case("linear", "identity", a, w, bias, target_4),
        _linear_case("linear_relu", "relu", a, w, bias, target_4),
        ("squared_error", lambda: T.squared_error(b, a), lambda: [T.squared_error_backward(b, a, 1.0)], [a]),
        ("bce_logits", lambda: T.bce_logits(target, a), lambda: [T.bce_logits_backward(target, a, 1.0)], [a]),
        ("combine", lambda: total_loss(*terms, weights).total, lambda: list(objective_backward(weights)), terms),
    ]
    return cases + [_sample_case(rng, head) for head in ("isotropic", "diagonal", "full")]


def _sample_case(rng, head: str) -> Case:
    mu, p = _rand(rng, (3, 2)), _rand(rng, (3, len(HEAD_PARAMS[head])))
    eps, target = rng.standard_normal((3, 2)), rng.uniform(-1.0, 1.0, size=(3, 2))

    def grads():
        latent = GaussianLatent(head, mu, p)
        z, scale = latent.sample(eps)
        return list(latent.sample_backward(T.squared_error_backward(target, z, 1.0), eps, scale))

    loss = lambda: T.squared_error(target, GaussianLatent(head, mu, p).sample(eps)[0])  # noqa: E731
    return (f"sample:{head}", loss, grads, [mu, p])


def _entropy_cases(rng) -> list[Case]:
    mu = np.zeros((3, 2))
    cases = []
    for head in ("isotropic", "diagonal", "full"):
        p = _rand(rng, (3, len(HEAD_PARAMS[head])))
        cases.append((f"entropy:{head}", lambda head=head, p=p: ent_loss(GaussianLatent(head, mu, p)),
                      lambda head=head, p=p: [ent_loss_backward(GaussianLatent(head, mu, p), 1.0)], [p]))
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


def _model_cases(rng, head: str, recon_kind: str) -> list[Case]:
    """Loss-level checks through a 2-hidden-layer model on a 4-sample batch."""
    model = DeVae(_small_config(head, recon_kind, int(rng.integers(0, 2**31))))
    # Biases off their zero init: a sample whose previous layer is all dead
    # would sit exactly on the relu kink, where differences see half a slope.
    for layer in model.layers:
        layer.bias.data[...] = rng.uniform(-0.5, 0.5, size=layer.bias.shape)
    x = rng.uniform(0.05, 0.95, size=(4, 6)) if recon_kind == "bce" else rng.uniform(-2.0, 2.0, size=(4, 6))
    y = rng.uniform(-2.0, 2.0, size=(4, 2))
    eps = rng.standard_normal((4, 2))
    params = [p.data for p in model.parameters()]

    def check(part: str, seeds) -> Case:
        def grads():  # the views of model.grad, in the order of params
            backward(model, forward_train(model, x, y, eps), seeds)
            return [g for pair in model.layer_grads for g in pair]

        return (f"{head}/{recon_kind}/{part}", lambda: getattr(forward_train(model, x, y, eps).breakdown, part),
                grads, params)

    cases = [check("recon", (1.0, 0.0, 0.0)), check("proj", (0.0, 1.0, 0.0)), check("total", None)]
    if head != "none":
        cases.insert(2, check("ent", (0.0, 0.0, 1.0)))
    return cases


def run_gradient_suite(seed: int = 0) -> list[CheckResult]:
    """Every gradient check: op-level, then model-level over ``HEADS`` x ``RECON_KINDS``; deterministic per seed."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for name, loss, grads, params in _op_cases(rng):
        results.append(CheckResult(name, gradient_check(loss, grads, params), DEFAULT_TOL))
    for name, loss, grads, params in _entropy_cases(rng):
        results.append(CheckResult(name, gradient_check(loss, grads, params, floor=1e-8), ENTROPY_TOL))
    for head in HEADS:
        for kind in RECON_KINDS:
            for name, loss, grads, params in _model_cases(rng, head, kind):
                results.append(CheckResult(name, gradient_check(loss, grads, params), DEFAULT_TOL))
    return results
