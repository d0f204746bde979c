"""Entropy closed forms, reparameterized sampling, and ellipse geometry."""

import math

import numpy as np
import pytest

from conftest import mc_entropy, random_latent, tile_latent
from devae.errors import ContractError, DivergenceError, GeometryError
from devae.gaussian import HEAD_PARAMS, LN_2PI, MAX_LOG_STD, EllipseSpec, GaussianLatent, ellipse_from_cov
from devae.losses import ent_loss, ent_loss_backward
from devae.tensor import Tensor, gradient_check

UNIT_H2 = 1.0 + math.log(2.0 * math.pi)  # entropy of N(0, I) in 2-D: 2.8378771


def entropy(head: str, params) -> float:
    """Entropy of one latent with the given raw head parameters."""
    return GaussianLatent(head, Tensor(np.zeros((1, 2))), Tensor([params])).entropy().item()


class TestEntropyValues:
    def test_isotropic_unit_variance(self):
        assert entropy("isotropic", [0.0]) == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_isotropic_variance_e(self):
        # Closed form; cross-checked against the Monte-Carlo oracle below.
        assert entropy("isotropic", [1.0]) == pytest.approx(3.8378770664093453, abs=1e-12)

    def test_diagonal_unit_matches_isotropic(self):
        d = entropy("diagonal", [0.0, 0.0])
        assert d == pytest.approx(entropy("isotropic", [0.0]), abs=1e-12)
        assert d == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_diagonal_one_four(self):
        got = entropy("diagonal", [0.0, math.log(4.0)])
        assert got == pytest.approx(UNIT_H2 + 0.5 * math.log(4.0), abs=1e-12)
        assert got == pytest.approx(3.5310242469692906, abs=1e-12)

    def test_diagonal_equal_variances_reduce_to_isotropic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.uniform(-2.0, 2.0)
            assert entropy("diagonal", [c, c]) == pytest.approx(entropy("isotropic", [c]), abs=1e-12)

    def test_full_identity(self):
        assert entropy("full", [0.0, 0.0, 0.0]) == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_full_log_det_example(self):
        # L = [[2,0],[1,1]]: entropy equals the diagonal (1,4) case since
        # both covariances have determinant 4.
        got = entropy("full", [1.0, math.log(2.0), 0.0])
        assert got == pytest.approx(2.8378770664093453 + math.log(2.0), abs=1e-12)
        assert got == pytest.approx(entropy("diagonal", [0.0, math.log(4.0)]), abs=1e-12)

    def test_full_ignores_off_diagonal(self):
        lat_a = GaussianLatent("full", Tensor([[0.0, 0.0]]), Tensor([[5.0, 0.0, 0.0]]))
        lat_b = GaussianLatent("full", Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0, 0.0]]))
        assert lat_a.entropy().item() == pytest.approx(lat_b.entropy().item(), abs=1e-15)
        assert lat_a.entropy().item() == pytest.approx(2.8378770664093453, abs=1e-12)

    @pytest.mark.parametrize("raw", [-740.0, -800.0])
    def test_full_exact_where_the_diagonal_underflows(self, raw):
        # exp(-740) is subnormal and exp(-800) is 0, yet ln L_ii = raw is exact:
        # the entropy stays finite and its gradient is the constant -1/batch.
        batch, q = 4, 2
        lower = np.random.default_rng(14).uniform(-1.0, 1.0, size=(batch, 1))
        params = np.column_stack([lower, np.full((batch, q), raw)])
        lat = GaussianLatent("full", Tensor(np.zeros((batch, q))), params)
        want = 0.5 * q * (1.0 + LN_2PI) + params[:, 1:].sum(axis=1)
        np.testing.assert_allclose(lat.entropy()[:, 0], want, rtol=1e-15)
        grad = ent_loss_backward(lat, 1.0)
        np.testing.assert_array_equal(grad[:, 1:], np.full((batch, q), -1.0 / batch))
        np.testing.assert_array_equal(grad[:, 0], 0.0)


class TestEntropyProperties:
    def test_family_consistency_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lv = rng.uniform(-2.0, 2.0)
            iso = entropy("isotropic", [lv])
            diag = entropy("diagonal", [lv, lv])
            # L = diag(sigma): raw diagonal entries are ln sigma = lv / 2
            full = entropy("full", [0.0, 0.5 * lv, 0.5 * lv])
            assert abs(iso - diag) < 1e-9
            assert abs(iso - full) < 1e-9

    def test_monotone_in_each_log_variance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lv = rng.uniform(-2.0, 2.0, size=2)
            base = entropy("diagonal", lv)
            for i in range(2):
                bumped = lv.copy()
                bumped[i] += 0.1
                assert entropy("diagonal", bumped) > base
            iso = entropy("isotropic", [lv[0]])
            assert entropy("isotropic", [lv[0] + 0.1]) > iso

    def test_entropy_ignores_mu(self):
        rng = np.random.default_rng(3)
        for head in ("isotropic", "diagonal", "full"):
            lat = random_latent(head, rng)
            moved = GaussianLatent(head, Tensor(lat.mu.data + 100.0), Tensor(lat.params.data.copy()))
            assert lat.entropy().item() == moved.entropy().item()

    def test_entropy_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        mu = Tensor(np.zeros((3, 2)))
        for head, width in (("isotropic", 1), ("diagonal", 2), ("full", 3)):
            params = rng.uniform(-2, 2, size=(3, width))
            loss = lambda: ent_loss(GaussianLatent(head, mu, params))  # noqa: E731
            grads = lambda: [ent_loss_backward(GaussianLatent(head, mu, params), 1.0)]  # noqa: E731
            assert gradient_check(loss, grads, [params], floor=1e-8) < 1e-6

    @pytest.mark.parametrize("head", ["isotropic", "diagonal"])
    def test_monte_carlo_oracle_agreement(self, head):
        # Closed form vs -E[ln p(z)] over 10^6 reparameterized draws.
        rng = np.random.default_rng(5)
        lat = random_latent(head, rng)
        closed = lat.entropy().item()
        estimate = mc_entropy(lat, 0, 1_000_000, seed=6)
        assert abs(estimate - closed) / abs(closed) < 0.01


def _old_sample_chain(strict, diag, eps):
    """L @ eps as the full-head sample used to build it: per-column slice/mul/add."""
    z0 = diag[:, :1] * eps[:, :1]
    z1 = diag[:, 1:] * eps[:, 1:] + strict * eps[:, :1]
    return np.concatenate([z0, z1], axis=1)


class TestSampling:
    @pytest.mark.parametrize("head", ["none", "isotropic", "diagonal", "full"])
    def test_zero_noise_returns_mu(self, head):
        lat = random_latent(head, np.random.default_rng(7))
        z, _ = lat.sample(Tensor(np.zeros((1, 2))))
        np.testing.assert_array_equal(z, lat.mu.data)

    def test_full_hand_example(self):
        # L = [[2,0],[1,1]], eps = (1,1): z = (2, 2)
        lat = GaussianLatent(
            "full", Tensor([[0.0, 0.0]]), Tensor([[1.0, math.log(2.0), 0.0]])
        )
        z, _ = lat.sample(Tensor([[1.0, 1.0]]))
        np.testing.assert_allclose(z, [[2.0, 2.0]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("head", ["isotropic", "diagonal", "full"])
    def test_backward_passes_the_draw_gradient_to_mu(self, head):
        # z = mu + step(params, eps): dz/dmu is the identity, and the
        # gradient on params has their shape.
        rng = np.random.default_rng(2)
        lat = GaussianLatent(head, rng.standard_normal((4, 2)), rng.uniform(-1, 1, size=(4, len(HEAD_PARAMS[head]))))
        eps, g = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        _, scale = lat.sample(eps)
        g_mu, g_params = lat.sample_backward(g, eps, scale)
        assert g_mu is g and g_params.shape == lat.params.shape

    def test_full_sample_matches_the_slice_mul_add_chain(self):
        # Values bit for bit, on a batch of 64 with mu off zero.
        rng = np.random.default_rng(22)
        mu = rng.standard_normal((64, 2))
        raw = np.column_stack([rng.uniform(-2, 2, size=(64, 1)), np.log(rng.uniform(0.1, 2, size=(64, 2)))])
        eps = rng.standard_normal((64, 2))
        z = GaussianLatent("full", Tensor(mu), Tensor(raw)).sample(eps)[0]
        assert z.tobytes() == (mu + _old_sample_chain(raw[:, :1], np.exp(raw[:, 1:]), eps)).tobytes()

    def test_full_sample_is_mu_plus_l_eps(self):
        rng = np.random.default_rng(12)
        lat = random_latent("full", rng)
        l10, s0, s1 = lat.params.data[0]
        L = np.array([[math.exp(s0), 0.0], [l10, math.exp(s1)]])
        eps = rng.standard_normal((1, 2))
        z, _ = lat.sample(Tensor(eps))
        np.testing.assert_allclose(z[0], lat.mu.data[0] + L @ eps[0], rtol=1e-13)

    def test_isotropic_componentwise_affine(self):
        lat = GaussianLatent("isotropic", Tensor([[1.0, 1.0]]), Tensor([[math.log(9.0)]]))
        z, _ = lat.sample(Tensor([[1.0, -1.0]]))
        np.testing.assert_allclose(z, [[4.0, -2.0]], rtol=0, atol=1e-12)

    def test_eps_shape_checked(self):
        lat = random_latent("diagonal", np.random.default_rng(8))
        with pytest.raises(ContractError):
            lat.sample(Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("head", ["isotropic", "diagonal", "full"])
    def test_moments_match_covariance(self, head):
        """10^6 draws reproduce mean and covariance.

        The 1% covariance tolerance is taken relative to each entry's
        natural scale sqrt(S_ii * S_jj) (plus a 1e-3 floor): a plain
        relative bound is ill-posed for exactly-zero off-diagonals whose
        sampling noise scales with the marginal spreads.
        """
        n = 1_000_000
        rng = np.random.default_rng(9)
        lat = random_latent(head, rng)
        big = tile_latent(lat, 0, n)
        z, _ = big.sample(Tensor(rng.standard_normal((n, 2))))
        cov_true, _ = lat.covariance(0)
        sigma_max = math.sqrt(cov_true.diagonal().max())
        assert np.all(np.abs(z.mean(axis=0) - lat.mu.data[0]) < 5.0 * sigma_max / math.sqrt(n))
        cov_emp = np.cov(z.T)
        scale = np.sqrt(np.outer(cov_true.diagonal(), cov_true.diagonal()))
        tol = 0.01 * scale + 1e-3
        assert np.all(np.abs(cov_emp - cov_true) <= tol)


class TestCovarianceMatrix:
    def test_isotropic(self):
        lat = GaussianLatent("isotropic", Tensor([[0.0, 0.0]]), Tensor([[math.log(4.0)]]))
        cov, det = lat.covariance(0)
        np.testing.assert_allclose(cov, [[4.0, 0.0], [0.0, 4.0]], atol=1e-14)
        assert det == pytest.approx(16.0, rel=1e-14)

    def test_diagonal(self):
        lat = GaussianLatent(
            "diagonal", Tensor([[0.0, 0.0]]), Tensor([[0.0, math.log(9.0)]])
        )
        cov, det = lat.covariance(0)
        np.testing.assert_allclose(cov, [[1.0, 0.0], [0.0, 9.0]], atol=1e-14)
        assert det == pytest.approx(9.0, rel=1e-14)

    def test_full_llt(self):
        lat = GaussianLatent(
            "full", Tensor([[0.0, 0.0]]), Tensor([[1.0, math.log(2.0), 0.0]])
        )
        cov, det = lat.covariance(0)
        np.testing.assert_allclose(cov, [[4.0, 2.0], [2.0, 2.0]], atol=1e-14)
        assert det == pytest.approx(4.0, rel=1e-14)

    def test_full_determinant_comes_from_the_factor(self):
        # L = [[1e-10, 0], [1, 1e-9]]: a d - b^2 cancels in Sigma's entries,
        # but det = (L00 L11)^2 = 1e-38 stays exact.
        lat = GaussianLatent("full", Tensor([[0.0, 0.0]]),
                             Tensor([[1.0, math.log(1e-10), math.log(1e-9)]]))
        cov, det = lat.covariance(0)
        assert det == pytest.approx(1e-38, rel=1e-12, abs=0.0)
        assert cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0] <= 0.0

    def test_none_head_unsupported(self):
        lat = GaussianLatent("none", Tensor([[0.0, 0.0]]))
        with pytest.raises(ContractError):
            lat.covariance(0)

    @pytest.mark.parametrize("head", ["isotropic", "diagonal", "full"])
    def test_batch_matches_each_sample(self, head):
        rng = np.random.default_rng(13)
        parts = [random_latent(head, rng) for _ in range(6)]

        lat = GaussianLatent(head, Tensor(np.concatenate([p.mu.data for p in parts])),
                             Tensor(np.concatenate([p.params.data for p in parts])))
        for i in [4, 0, 4, 2]:
            cov, det = lat.covariance(i)
            want_cov, want_det = parts[i].covariance(0)
            np.testing.assert_array_equal(cov, want_cov)
            np.testing.assert_array_equal(cov, cov.T)
            assert det == want_det
            assert det == pytest.approx(np.linalg.det(cov), rel=1e-12)

    # The largest raw output of each head at the bound, and a first one past it.
    EDGE = {"isotropic": ([2 * MAX_LOG_STD], [1e200], "log_var"),
            "diagonal": ([2 * MAX_LOG_STD, 2 * MAX_LOG_STD], [0.0, np.nan], "log_var_1"),
            "full": ([-math.exp(MAX_LOG_STD), MAX_LOG_STD, MAX_LOG_STD], [-math.inf, 0.0, 0.0], "chol_raw_0")}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("head", sorted(EDGE))
    def test_largest_head_output_draws_finite_ellipses(self, head):
        edge, _, _ = self.EDGE[head]
        lat = GaussianLatent(head, Tensor([[0.0, 0.0]]), Tensor([edge]))
        cov, det = lat.covariance(0)
        spec = ellipse_from_cov((0.0, 0.0), cov, 3, det)
        assert np.isfinite(cov).all() and np.isfinite(spec.semi_axes).all()
        assert np.isfinite(lat.sample(np.ones((1, 2)))[0]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("head", sorted(EDGE))
    def test_overflowing_head_output_names_the_sample(self, head):
        edge, bad, name = self.EDGE[head]
        lat = GaussianLatent(head, Tensor(np.zeros((3, 2))), Tensor([edge, edge, bad]))
        with pytest.raises(DivergenceError, match=f"^covariance head '{head}': {name} = .* of sample 2 overflows"):
            lat.sample(np.zeros((3, 2)))
        lat.covariance(1)
        with pytest.raises(GeometryError, match="of sample 2 overflows"):
            lat.covariance(2)
        with pytest.raises(GeometryError, match="of sample 40 overflows"):  # named by its dataset row
            lat.covariance(2, np.array([5, 9, 40]))

    @pytest.mark.parametrize("mu", [[[0.0]], [[0.0, 0.0, 0.0]], [0.0, 0.0]])
    def test_mu_must_be_batch_by_two(self, mu):
        with pytest.raises(ContractError, match=r"mu must be \[batch, 2\]"):
            GaussianLatent("none", Tensor(mu))

    def test_exactly_one_param_block(self):
        mu = Tensor([[0.0, 0.0]])
        with pytest.raises(ContractError):
            GaussianLatent("isotropic", mu, Tensor([[1.0, 0.0, 0.0]]))
        with pytest.raises(ContractError):
            GaussianLatent("none", mu, Tensor([[0.0]]))
        with pytest.raises(ContractError):
            GaussianLatent("full", mu, Tensor([[0.0]]))
        with pytest.raises(ContractError):
            GaussianLatent("diagonal", mu)


class TestEllipse:
    def test_axis_aligned(self):
        spec = ellipse_from_cov((0.0, 0.0), np.diag([4.0, 1.0]), 2, 4.0)
        assert spec.semi_axes == pytest.approx((4.0, 2.0), abs=1e-12)
        assert spec.rotation == 0.0

    def test_degenerate_circle_tie_break(self):
        spec = ellipse_from_cov((1.0, -1.0), np.eye(2), 3, 1.0)
        assert spec.semi_axes == pytest.approx((3.0, 3.0), abs=1e-12)
        assert spec.rotation == 0.0

    def test_general_closed_form(self):
        spec = ellipse_from_cov((0.0, 0.0), [[4.0, 2.0], [2.0, 2.0]], 1, 4.0)
        assert spec.semi_axes[0] == pytest.approx(math.sqrt(3.0 + math.sqrt(5.0)), abs=1e-12)
        assert spec.semi_axes[1] == pytest.approx(math.sqrt(3.0 - math.sqrt(5.0)), abs=1e-12)
        assert spec.rotation == pytest.approx(0.5535743588970452, abs=1e-12)

    def test_boundary_points_satisfy_quadratic(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(-0.9, 0.9) * a
            d = rng.uniform(0.5, 3.0)
            cov = np.array([[a * a, a * b], [a * b, b * b + d * d]])  # SPD by construction
            center = rng.uniform(-5, 5, size=2)
            k = int(rng.integers(1, 4))
            spec = ellipse_from_cov(center, cov, k, (a * d) ** 2)
            pts = spec.boundary_points(64)
            diff = pts - center
            quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
            np.testing.assert_allclose(quad, k * k, rtol=0, atol=1e-6)

    def test_rejects_non_spd(self):
        with pytest.raises(GeometryError):
            ellipse_from_cov((0, 0), [[1.0, 2.0], [2.0, 1.0]], 1, -3.0)  # det < 0
        with pytest.raises(GeometryError):
            ellipse_from_cov((0, 0), [[1.0, 0.5], [0.0, 1.0]], 1, 1.0)  # asymmetric

    def test_spec_invariants(self):
        with pytest.raises(GeometryError):
            EllipseSpec(center=(0, 0), semi_axes=(1.0, 2.0), rotation=0.0, k=1)
        with pytest.raises(GeometryError):
            EllipseSpec(center=(0, 0), semi_axes=(2.0, 1.0), rotation=3.0, k=1)
        with pytest.raises(GeometryError):
            EllipseSpec(center=(0, 0), semi_axes=(2.0, 1.0), rotation=0.0, k=4)

    def test_rotation_always_in_halfopen_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            L = np.tril(rng.uniform(-1.5, 1.5, size=(2, 2)))
            L[0, 0] = abs(L[0, 0]) + 0.2
            L[1, 1] = abs(L[1, 1]) + 0.2
            spec = ellipse_from_cov((0, 0), L @ L.T, 1, (L[0, 0] * L[1, 1]) ** 2)
            assert -math.pi / 2 < spec.rotation <= math.pi / 2
            assert spec.semi_axes[0] >= spec.semi_axes[1] > 0
