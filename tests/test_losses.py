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
    proj_loss,
    recon_bce,
    recon_mse,
    total_loss,
)
from devae.model import DeVae, forward_train
from devae.tensor import Tensor, gradient_check


class TestReconMse:
    def test_identity_is_zero(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert recon_mse(x, Tensor(x.data.copy())).item() == 0.0

    def test_sum_over_features_convention(self):
        got = recon_mse(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.0]])).item()
        assert got == pytest.approx(5.0, abs=1e-14)

    def test_batch_mean(self):
        x = Tensor([[1.0, 2.0], [1.0, 2.0]])
        xh = Tensor([[0.0, 0.0], [1.0, 2.0]])
        assert recon_mse(x, xh).item() == pytest.approx(2.5, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            recon_mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(3, 4))
        xh = x.copy()
        xh[1, 2] += 1e-6
        assert recon_mse(Tensor(x), Tensor(x.copy())).item() == 0.0
        assert recon_mse(Tensor(x), Tensor(xh)).item() > 0.0

    def test_wide_input_magnitude(self):
        # 561-dim inputs through an untrained net land around 10^2.
        cfg = tiny_config(head="none", d=561, weights=LossWeights(0.0, 0.0))
        model = DeVae(cfg)
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(0.0, 1.0, size=(8, 561)))
        x_hat = model.decode(model.encode(x).mu)
        loss = recon_mse(x, x_hat).item()
        assert 10.0 < loss < 1e4


LN9 = math.log(9.0)  # the logit of 0.9


class TestReconBce:
    def test_confident_correct_is_near_zero(self):
        got = recon_bce(Tensor([[1.0, 0.0]]), Tensor([[40.0, -40.0]])).item()
        assert 0.0 < got < 1e-17

    def test_hand_example(self):
        got = recon_bce(Tensor([[1.0, 0.0]]), Tensor([[LN9, -LN9]])).item()
        assert got == pytest.approx(-2.0 * math.log(0.9), abs=1e-12)
        assert got == pytest.approx(0.21072103131565256, abs=1e-12)

    def test_maximal_uncertainty_fixed_point(self):
        got = recon_bce(Tensor([[0.5]]), Tensor([[0.0]])).item()
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
        logits = Tensor(np.full((batch, 1), logit), requires_grad=True)
        loss = recon_bce(Tensor(np.full((batch, 1), target)), logits)
        assert loss.item() == 40.0
        loss.backward()
        np.testing.assert_allclose(logits.grad, np.sign(logit) / batch, rtol=2.0**-53, atol=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(0, 1, size=(2, 5))
            z = rng.uniform(-5.0, 5.0, size=(2, 5))
            assert recon_bce(Tensor(x), Tensor(z)).item() >= 0.0


class TestProjLoss:
    def test_identity_is_zero(self):
        y = Tensor([[1.0, -2.0]])
        assert proj_loss(y, Tensor(y.data.copy())).item() == 0.0

    def test_three_four_five(self):
        assert proj_loss(Tensor([[3.0, 4.0]]), Tensor([[0.0, 0.0]])).item() == pytest.approx(25.0, abs=1e-14)

    def test_batch_mean(self):
        y = Tensor([[0.0, 0.0], [0.0, 0.0]])
        mu = Tensor([[1.0, 0.0], [0.0, 2.0]])
        assert proj_loss(y, mu).item() == pytest.approx(2.5, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            proj_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


class TestEntLoss:
    def test_unit_isotropic(self):
        lat = GaussianLatent("isotropic", Tensor([[0.0, 0.0]]), Tensor([[0.0]]))
        assert ent_loss(lat).item() == pytest.approx(-2.8378770664093453, abs=1e-12)

    def test_none_head_contributes_exactly_zero(self):
        lat = GaussianLatent("none", Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert ent_loss(lat).item() == 0.0

    def test_full_hand_example(self):
        lat = GaussianLatent("full", Tensor([[0.0, 0.0]]), Tensor([[1.0, math.log(2.0), 0.0]]))
        assert ent_loss(lat).item() == pytest.approx(-3.5310242469692906, abs=1e-12)

    def test_growing_sigma_strictly_lowers_ent_loss(self):
        values = []
        for lv in (-1.0, 0.0, 1.0, 2.0):
            lat = GaussianLatent("isotropic", Tensor([[0.0, 0.0]]), Tensor([[lv]]))
            values.append(ent_loss(lat).item())
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

    def test_graph_total_matches_float_total_bitwise(self):
        rng = np.random.default_rng(4)
        w = LossWeights(3.5, 0.25)
        recon = Tensor(rng.uniform(0, 5))
        proj = Tensor(rng.uniform(0, 5))
        ent = Tensor(rng.uniform(-5, 0))
        graph = w.combine_node(recon, proj, ent).item()
        floats = total_loss(recon.item(), proj.item(), ent.item(), w).total
        assert graph == floats
        x = rng.uniform(-1, 1, size=(6, 10))
        y = rng.uniform(-1, 1, size=(6, 2))
        eps = rng.standard_normal((6, 2))
        for head in ("none", "isotropic", "diagonal", "full"):
            result = forward_train(DeVae(tiny_config(head=head, weights=w)), x, y, eps)
            assert result.total.item() == result.breakdown.total

    def test_weights_validated(self):
        with pytest.raises(Exception):
            LossWeights(-1.0, 0.0)
        with pytest.raises(Exception):
            LossWeights(0.0, float("nan"))


@pytest.mark.parametrize("loss", [recon_mse, proj_loss])
def test_squared_error_loss_records_one_node(tape_nodes, loss):
    target = Tensor(np.zeros((4, 2)))
    out = Tensor(np.ones((4, 2)), requires_grad=True)
    value = loss(target, out)
    assert tape_nodes == [value]
    assert value._parents == (target, out)


@pytest.mark.parametrize("head", ["isotropic", "diagonal", "full"])
def test_entropy_loss_records_one_node(tape_nodes, head):
    params = Tensor(np.random.default_rng(7).uniform(-2, 2, size=(4, len(HEAD_PARAMS[head]))), requires_grad=True)
    lat = GaussianLatent(head, Tensor(np.zeros((4, 2))), params)
    value = ent_loss(lat)
    assert tape_nodes == [value]
    assert value._parents == (params,)
    assert value.item() == -lat.entropy().mean()


def test_weighted_objective_records_one_node(tape_nodes):
    terms = [Tensor(v, requires_grad=True) for v in (1.5, 2.0, -3.0)]
    value = LossWeights(2.0, 0.5).combine_node(*terms)
    assert tape_nodes == [value]
    assert value._parents == tuple(terms)
    value.backward()
    assert [float(t.grad) for t in terms] == [1.0, 2.0, 0.5]


@pytest.mark.parametrize("recon_kind", ["mse", "bce"])
def test_loss_nodes_are_0d(recon_kind):
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0, 1, size=(6, 10)), rng.uniform(-1, 1, size=(6, 2))
    total = forward_train(DeVae(tiny_config(recon_kind=recon_kind)), x, y).total
    assert [t.shape for t in (total, *total._parents)] == [()] * 4


class TestLossGradients:
    def test_each_loss_matches_finite_differences_wrt_outputs(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0.1, 0.9, size=(3, 4)))
        x_hat = Tensor(rng.uniform(0.2, 0.8, size=(3, 4)), requires_grad=True)
        y = Tensor(rng.uniform(-2, 2, size=(3, 2)))
        mu = Tensor(rng.uniform(-2, 2, size=(3, 2)), requires_grad=True)
        lv = Tensor(rng.uniform(-2, 2, size=(3, 2)), requires_grad=True)

        assert gradient_check(lambda: recon_mse(x, x_hat), [x_hat]) < 1e-4
        assert gradient_check(lambda: recon_bce(x, x_hat), [x_hat]) < 1e-4
        assert gradient_check(lambda: proj_loss(y, mu), [mu]) < 1e-4
        assert (
            gradient_check(lambda: ent_loss(GaussianLatent("diagonal", mu, lv)), [lv])
            < 1e-4
        )

    def test_weighted_combination_gradient(self):
        rng = np.random.default_rng(6)
        w = LossWeights(2.0, 0.3)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3)))
        x_hat = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, size=(2, 2)))
        mu = Tensor(rng.uniform(-1, 1, size=(2, 2)), requires_grad=True)
        lv = Tensor(rng.uniform(-1, 1, size=(2, 2)), requires_grad=True)

        def build():
            lat = GaussianLatent("diagonal", mu, lv)
            return w.combine_node(recon_mse(x, x_hat), proj_loss(y, mu), ent_loss(lat))

        assert gradient_check(build, [x_hat, mu, lv]) < 1e-4
