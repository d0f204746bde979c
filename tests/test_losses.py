"""Loss terms and their weighted combination."""

import math

import numpy as np
import pytest

from conftest import tiny_config
from devae.errors import DimensionError, DivergenceError, DomainError
from devae.gaussian import HEAD_PARAMS, GaussianLatent
from devae.losses import LossWeights, ent_loss, ent_loss_backward, objective_backward, total_loss
from devae.model import DeVae, forward_train
from devae.tensor import (
    Tensor,
    _sigmoid_,
    bce_logits,
    bce_logits_backward,
    gradient_check,
    squared_error,
    squared_error_backward,
)


class TestReconMse:
    """The MSE reconstruction term: ``squared_error(x, x_hat)``."""

    def test_identity_is_zero(self):
        x = np.arange(6.0).reshape(2, 3)
        assert squared_error(x, x.copy()) == 0.0

    def test_sum_over_features_convention(self):
        got = squared_error(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert got == pytest.approx(5.0, abs=1e-14)

    def test_batch_mean(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        xh = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert squared_error(x, xh) == pytest.approx(2.5, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            squared_error(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(3, 4))
        xh = x.copy()
        xh[1, 2] += 1e-6
        assert squared_error(x, x.copy()) == 0.0
        assert squared_error(x, xh) > 0.0

    def test_wide_input_magnitude(self):
        # 561-dim inputs through an untrained net land around 10^2.
        cfg = tiny_config(head="none", d=561, weights=LossWeights(0.0, 0.0))
        model = DeVae(cfg)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=(8, 561))
        x_hat = model.decode(model.encode(x).mu).data
        loss = squared_error(x, x_hat)
        assert 10.0 < loss < 1e4


LN9 = math.log(9.0)  # the logit of 0.9


class TestReconBce:
    """The BCE reconstruction term: ``bce_logits(x, logits)``."""

    def test_confident_correct_is_near_zero(self):
        got = bce_logits(np.array([[1.0, 0.0]]), np.array([[40.0, -40.0]]))
        assert 0.0 < got < 1e-17

    def test_hand_example(self):
        got = bce_logits(np.array([[1.0, 0.0]]), np.array([[LN9, -LN9]]))
        assert got == pytest.approx(-2.0 * math.log(0.9), abs=1e-12)
        assert got == pytest.approx(0.21072103131565256, abs=1e-12)

    def test_maximal_uncertainty_fixed_point(self):
        got = bce_logits(np.array([[0.5]]), np.array([[0.0]]))
        assert got == math.log(2.0)

    def test_target_domain_checked(self):
        # The op itself checks its targets; one bad entry among good ones is enough.
        for bad in (-1e-300, -0.1, 1.0 + 2.0**-52, 1.5, -np.inf, np.inf):
            x = np.full((2, 3), 0.5)
            x[1, 2] = bad
            with pytest.raises(DomainError, match=r"bce targets must lie in \[0, 1\]"):
                bce_logits(x, np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            bce_logits(np.array([[0.5, 0.5]]), np.array([[0.0]]))

    @pytest.mark.parametrize("target, logit", [(0.0, 40.0), (1.0, -40.0)])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_saturated_logit_keeps_true_loss_and_gradient(self, target, logit, batch):
        # A clamped probability reported 16.118 here, with a zero gradient.
        logits, targets = np.full((batch, 1), logit), np.full((batch, 1), target)
        assert bce_logits(targets, logits) == 40.0
        grad = bce_logits_backward(targets, logits, 1.0)
        np.testing.assert_allclose(grad, np.sign(logit) / batch, rtol=2.0**-53, atol=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(0, 1, size=(2, 5))
            z = rng.uniform(-5.0, 5.0, size=(2, 5))
            assert bce_logits(x, z) >= 0.0


class TestProjLoss:
    """The projection term: ``squared_error(y, mu)``."""

    def test_identity_is_zero(self):
        y = np.array([[1.0, -2.0]])
        assert squared_error(y, y.copy()) == 0.0

    def test_three_four_five(self):
        assert squared_error(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])) == pytest.approx(25.0, abs=1e-14)

    def test_batch_mean(self):
        y = np.array([[0.0, 0.0], [0.0, 0.0]])
        mu = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert squared_error(y, mu) == pytest.approx(2.5, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            squared_error(np.zeros((2, 2)), np.zeros((3, 2)))


def _parent_squared_error_backward(a, b, g):
    """The gradient on ``a`` of ``g * sum((a - b)**2) / batch``, as the op first computed it."""
    return (g * (1.0 / a.shape[0])) * 2.0 * (a - b)


def _parent_bce_logits_backward(z, x, g):
    """The gradient on the logits ``z`` of the BCE loss, as the op first computed it."""
    grad = _sigmoid_(z.copy())
    grad -= x
    grad *= g / z.shape[0]
    return grad


@pytest.mark.parametrize("op, op_backward, parent_on_pred", [
    (squared_error, squared_error_backward, lambda t, p, g: np.negative(_parent_squared_error_backward(t, p, g))),
    (bce_logits, bce_logits_backward, lambda t, p, g: _parent_bce_logits_backward(p, t, g)),
], ids=["squared_error", "bce_logits"])
def test_loss_op_backward_is_the_gradient_on_the_prediction(op, op_backward, parent_on_pred):
    rng = np.random.default_rng(8)
    target = rng.uniform(0.0, 1.0, size=(5, 4))
    pred = rng.uniform(-2.0, 2.0, size=(5, 4))
    pred[0] = target[0]  # exact zero residuals
    g = 0.7
    assert gradient_check(lambda: g * op(target, pred), lambda: [op_backward(target, pred, g)], [pred]) < 1e-4
    # The same bytes as the first form of each op, up to the sign of an exact zero.
    assert (op_backward(target, pred, g) + 0.0).tobytes() == (parent_on_pred(target, pred, g) + 0.0).tobytes()


class TestEntLoss:
    def test_unit_isotropic(self):
        lat = GaussianLatent("isotropic", Tensor([[0.0, 0.0]]), Tensor([[0.0]]))
        assert ent_loss(lat) == pytest.approx(-2.8378770664093453, abs=1e-12)

    def test_none_head_contributes_exactly_zero(self):
        lat = GaussianLatent("none", Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert ent_loss(lat) == 0.0

    def test_full_hand_example(self):
        lat = GaussianLatent("full", Tensor([[0.0, 0.0]]), Tensor([[1.0, math.log(2.0), 0.0]]))
        assert ent_loss(lat) == pytest.approx(-3.5310242469692906, abs=1e-12)

    def test_growing_sigma_strictly_lowers_ent_loss(self):
        values = []
        for lv in (-1.0, 0.0, 1.0, 2.0):
            lat = GaussianLatent("isotropic", Tensor([[0.0, 0.0]]), Tensor([[lv]]))
            values.append(ent_loss(lat))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestTotalLoss:
    def test_arithmetic_example(self):
        bd = total_loss(10.0, 2.0, -3.0, LossWeights(5.0, 0.001))
        assert bd.total == pytest.approx(19.997, abs=1e-12)
        assert (bd.recon, bd.proj, bd.ent) == (10.0, 2.0, -3.0)

    def test_zero_weights_degenerate_to_recon(self):
        bd = total_loss(7.5, 123.0, -456.0, LossWeights(0.0, 0.0))
        assert bd.total == 7.5

    def test_entropy_can_drive_total_negative(self):
        bd = total_loss(0.0, 0.0, -2.84, LossWeights(0.0, 1.0))
        assert bd.total == -2.84

    def test_non_finite_component_named(self):
        with pytest.raises(DivergenceError, match="recon"):
            total_loss(float("nan"), 0.0, 0.0, LossWeights(1.0, 1.0))
        with pytest.raises(DivergenceError, match="proj"):
            total_loss(0.0, float("inf"), 0.0, LossWeights(1.0, 1.0))

    def test_linearity_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            recon, proj, ent = rng.uniform(-10, 10, size=3)
            lp, le = rng.uniform(0, 10, size=2)
            bd = total_loss(recon, proj, ent, LossWeights(lp, le))
            assert bd.total == recon + lp * proj + le * ent
            assert abs(bd.total - (bd.recon + lp * bd.proj + le * bd.ent)) <= 1e-12 * max(1.0, abs(bd.total))

    def test_forward_total_is_total_loss_of_its_terms(self):
        rng = np.random.default_rng(4)
        w = LossWeights(3.5, 0.25)
        x = rng.uniform(-1, 1, size=(6, 10))
        y = rng.uniform(-1, 1, size=(6, 2))
        eps = rng.standard_normal((6, 2))
        for head in ("none", "isotropic", "diagonal", "full"):
            result = forward_train(DeVae(tiny_config(head=head, weights=w)), x, y, eps)
            terms = (squared_error(x, result.x_hat), squared_error(y, result.latent.mu.data), ent_loss(result.latent))
            assert result.breakdown == total_loss(*terms, w)

    def test_non_finite_total_of_finite_parts_raises(self):
        # 2 * 1e308 overflows: each part is finite, the weighted total is not.
        with pytest.raises(DivergenceError, match="loss component 'total' is non-finite: inf"):
            total_loss(1.0, 0.0, 2.0, LossWeights(0.0, 1e308))

    def test_weights_validated(self):
        with pytest.raises(Exception):
            LossWeights(-1.0, 0.0)
        with pytest.raises(Exception):
            LossWeights(0.0, float("nan"))


@pytest.mark.parametrize("head", ["isotropic", "diagonal", "full"])
def test_entropy_loss_is_the_negated_mean_entropy(head):
    params = np.random.default_rng(7).uniform(-2, 2, size=(4, len(HEAD_PARAMS[head])))
    lat = GaussianLatent(head, Tensor(np.zeros((4, 2))), params)
    assert ent_loss(lat) == -lat.entropy().mean()


def test_objective_backward_is_its_weights():
    assert objective_backward(LossWeights(2.0, 0.5)) == (1.0, 2.0, 0.5)


class TestLossGradients:
    def test_each_loss_matches_finite_differences_wrt_outputs(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 0.9, size=(3, 4))
        x_hat = rng.uniform(0.2, 0.8, size=(3, 4))
        y = rng.uniform(-2, 2, size=(3, 2))
        mu = rng.uniform(-2, 2, size=(3, 2))
        lv = rng.uniform(-2, 2, size=(3, 2))

        assert gradient_check(lambda: squared_error(x, x_hat), lambda: [squared_error_backward(x, x_hat, 1.0)],
                              [x_hat]) < 1e-4
        assert gradient_check(lambda: bce_logits(x, x_hat), lambda: [bce_logits_backward(x, x_hat, 1.0)],
                              [x_hat]) < 1e-4
        assert gradient_check(lambda: squared_error(y, mu), lambda: [squared_error_backward(y, mu, 1.0)], [mu]) < 1e-4
        assert gradient_check(lambda: ent_loss(GaussianLatent("diagonal", mu, lv)),
                              lambda: [ent_loss_backward(GaussianLatent("diagonal", mu, lv), 1.0)], [lv]) < 1e-4

    def test_weighted_combination_gradient(self):
        rng = np.random.default_rng(6)
        w = LossWeights(2.0, 0.3)
        x = rng.uniform(-1, 1, size=(2, 3))
        x_hat = rng.uniform(-1, 1, size=(2, 3))
        y = rng.uniform(-1, 1, size=(2, 2))
        mu = rng.uniform(-1, 1, size=(2, 2))
        lv = rng.uniform(-1, 1, size=(2, 2))

        def loss():
            lat = GaussianLatent("diagonal", mu, lv)
            return total_loss(squared_error(x, x_hat), squared_error(y, mu), ent_loss(lat), w).total

        def grads():
            g_recon, g_proj, g_ent = objective_backward(w)
            return [squared_error_backward(x, x_hat, g_recon), squared_error_backward(y, mu, g_proj),
                    ent_loss_backward(GaussianLatent("diagonal", mu, lv), g_ent)]

        assert gradient_check(loss, grads, [x_hat, mu, lv]) < 1e-4
