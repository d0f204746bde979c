"""Loss terms and their weighted combination."""

import math

import numpy as np
import pytest

from conftest import tiny_config
from devae.errors import DimensionError, DivergenceError, DomainError
from devae.gaussian import HEAD_PARAMS, GaussianLatent
from devae.losses import (
    LossWeights,
    ent_loss,
    ent_loss_backward,
    objective_backward,
    proj_loss,
    recon_bce,
    recon_mse,
    total_loss,
)
from devae.model import DeVae, forward_train
from devae.tensor import Tensor, bce_logits_backward, gradient_check, squared_error_backward


class TestReconMse:
    def test_identity_is_zero(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert recon_mse(x, Tensor(x.data.copy())) == 0.0

    def test_sum_over_features_convention(self):
        got = recon_mse(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.0]]))
        assert got == pytest.approx(5.0, abs=1e-14)

    def test_batch_mean(self):
        x = Tensor([[1.0, 2.0], [1.0, 2.0]])
        xh = Tensor([[0.0, 0.0], [1.0, 2.0]])
        assert recon_mse(x, xh) == pytest.approx(2.5, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            recon_mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(3, 4))
        xh = x.copy()
        xh[1, 2] += 1e-6
        assert recon_mse(Tensor(x), Tensor(x.copy())) == 0.0
        assert recon_mse(Tensor(x), Tensor(xh)) > 0.0

    def test_wide_input_magnitude(self):
        # 561-dim inputs through an untrained net land around 10^2.
        cfg = tiny_config(head="none", d=561, weights=LossWeights(0.0, 0.0))
        model = DeVae(cfg)
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(0.0, 1.0, size=(8, 561)))
        x_hat = model.decode(model.encode(x).mu)
        loss = recon_mse(x, x_hat)
        assert 10.0 < loss < 1e4


LN9 = math.log(9.0)  # the logit of 0.9


class TestReconBce:
    def test_confident_correct_is_near_zero(self):
        got = recon_bce(Tensor([[1.0, 0.0]]), Tensor([[40.0, -40.0]]))
        assert 0.0 < got < 1e-17

    def test_hand_example(self):
        got = recon_bce(Tensor([[1.0, 0.0]]), Tensor([[LN9, -LN9]]))
        assert got == pytest.approx(-2.0 * math.log(0.9), abs=1e-12)
        assert got == pytest.approx(0.21072103131565256, abs=1e-12)

    def test_maximal_uncertainty_fixed_point(self):
        got = recon_bce(Tensor([[0.5]]), Tensor([[0.0]]))
        assert got == math.log(2.0)

    def test_target_domain_checked(self):
        with pytest.raises(DomainError):
            recon_bce(Tensor([[1.5]]), Tensor([[0.0]]))
        with pytest.raises(DomainError):
            recon_bce(Tensor([[-0.1]]), Tensor([[0.0]]))
        with pytest.raises(DimensionError):
            recon_bce(Tensor([[0.5, 0.5]]), Tensor([[0.0]]))

    @pytest.mark.parametrize("target, logit", [(0.0, 40.0), (1.0, -40.0)])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_saturated_logit_keeps_true_loss_and_gradient(self, target, logit, batch):
        # A clamped probability reported 16.118 here, with a zero gradient.
        logits, targets = np.full((batch, 1), logit), np.full((batch, 1), target)
        assert recon_bce(targets, logits) == 40.0
        grad = bce_logits_backward(logits, targets, 1.0)
        np.testing.assert_allclose(grad, np.sign(logit) / batch, rtol=2.0**-53, atol=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(0, 1, size=(2, 5))
            z = rng.uniform(-5.0, 5.0, size=(2, 5))
            assert recon_bce(Tensor(x), Tensor(z)) >= 0.0


class TestProjLoss:
    def test_identity_is_zero(self):
        y = Tensor([[1.0, -2.0]])
        assert proj_loss(y, Tensor(y.data.copy())) == 0.0

    def test_three_four_five(self):
        assert proj_loss(Tensor([[3.0, 4.0]]), Tensor([[0.0, 0.0]])) == pytest.approx(25.0, abs=1e-14)

    def test_batch_mean(self):
        y = Tensor([[0.0, 0.0], [0.0, 0.0]])
        mu = Tensor([[1.0, 0.0], [0.0, 2.0]])
        assert proj_loss(y, mu) == pytest.approx(2.5, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            proj_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


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
            terms = (recon_mse(x, result.x_hat), proj_loss(y, result.latent.mu), ent_loss(result.latent))
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

        # recon_mse and proj_loss take the model's output as their second operand
        assert gradient_check(lambda: recon_mse(x, x_hat), lambda: [-squared_error_backward(x, x_hat, 1.0)],
                              [x_hat]) < 1e-4
        assert gradient_check(lambda: recon_bce(x, x_hat), lambda: [bce_logits_backward(x_hat, x, 1.0)],
                              [x_hat]) < 1e-4
        assert gradient_check(lambda: proj_loss(y, mu), lambda: [-squared_error_backward(y, mu, 1.0)], [mu]) < 1e-4
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
            return total_loss(recon_mse(x, x_hat), proj_loss(y, mu), ent_loss(lat), w).total

        def grads():
            g_recon, g_proj, g_ent = objective_backward(w)
            return [-squared_error_backward(x, x_hat, g_recon), -squared_error_backward(y, mu, g_proj),
                    ent_loss_backward(GaussianLatent("diagonal", mu, lv), g_ent)]

        assert gradient_check(loss, grads, [x_hat, mu, lv]) < 1e-4
